from functools import reduce
from operator import xor

import pytest
from hypothesis import example, given, strategies as st

from gf2count import (
    BitMatrix,
    DimensionError,
    FormatError,
    IndexSetError,
    RankError,
    parse_matrix,
    permute_columns,
    rank,
    systematic_form,
)
from gf2count.gf2 import _rref, reduced_basis
from naive import naive_rank, naive_systematic_form, row_lists


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    k = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    return BitMatrix(k, n, tuple(rows))


def test_from_lists_roundtrip():
    m = BitMatrix.from_lists([[1, 0, 1], [0, 1, 1]])
    assert m.rows == 2 and m.cols == 3
    assert row_lists(m) == [[1, 0, 1], [0, 1, 1]]
    assert str(m) == "101\n011"


def test_parse_basic():
    m = parse_matrix("101\n011\n")
    assert m.bits == (0b101, 0b110)


def test_parse_ignores_comments_blanks_and_interior_whitespace():
    text = "# header\n\n1 0 1\n  # midway note\n0\t1 1\n"
    m = parse_matrix(text)
    assert m == parse_matrix("101\n011")


def test_parse_rejects_bad_character():
    with pytest.raises(FormatError, match="^line 1: unexpected character '2'$"):
        parse_matrix("102\n011")
    # the first offending character, whitespace skipped; a zero-width space is none
    with pytest.raises(FormatError, match="^line 3: unexpected character 'x'$"):
        parse_matrix("10\n\n1 \tx2\n")
    with pytest.raises(FormatError, match="^line 1: unexpected character '\\\\u200b'$"):
        parse_matrix("1\u200b0")


def test_parse_rejects_ragged_rows():
    with pytest.raises(FormatError, match="^line 2: row has 2 entries, previous rows have 3$"):
        parse_matrix("101\n01")


def test_parse_rejects_empty_input():
    with pytest.raises(FormatError, match="^no matrix rows found$"):
        parse_matrix("# only a comment\n\n")


def test_parse_rejects_an_empty_file():
    with pytest.raises(FormatError, match="^no matrix rows found$"):
        parse_matrix("")


def test_parse_skips_unicode_whitespace():
    # no-break, ideographic and em spaces are whitespace
    assert parse_matrix("1\u00a00\u30001\n \u2003011\u3000\n") == parse_matrix("101\n011")


def test_to_lines_reads_column_zero_first():
    m = BitMatrix(3, 8, (0b10110110, 0b11, 0b10000001))
    assert m.to_lines() == ["01101101", "11000000", "10000001"]
    assert str(m) == "01101101\n11000000\n10000001"
    # no columns: each row is empty text
    assert BitMatrix(2, 0, (0, 0)).to_lines() == ["", ""]
    assert BitMatrix(0, 3, ()).to_lines() == []


def test_bitmatrix_rejects_out_of_range_bits():
    with pytest.raises(DimensionError):
        BitMatrix(1, 2, (0b100,))


def test_get_and_column_ints():
    m = parse_matrix("110\n011")
    assert m.bits == (0b011, 0b110)
    assert m.column_ints() == (0b01, 0b11, 0b10)
    assert m.column_ints() == parse_matrix("10\n11\n01").bits


@given(matrices())
def test_rank_matches_naive(m):
    assert rank(m) == naive_rank(row_lists(m))
    assert rank(m) == len(reduced_basis(m))


@st.composite
def word_lists(draw):
    """A width of 1 to 40 bits and words of it: random ones, zeros, repeats and sums."""
    width = draw(st.integers(1, 40))
    words = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=8))
    for _ in range(draw(st.integers(0, 4))):
        picked = draw(st.lists(st.sampled_from(words), max_size=3)) if words else []
        words.append(reduce(xor, picked, 0))  # zero, a repeat or a dependent word
    return width, draw(st.permutations(words))


@given(word_lists())
def test_rref_is_the_one_reduced_echelon_form(case):
    width, words = case
    basis = _rref(words)
    leads = [1 << b.bit_length() - 1 for b in basis if b]
    assert len(leads) == len(basis)
    assert list(basis) == sorted(basis, reverse=True) and len(set(basis)) == len(basis)
    # each leading bit is held by its own word alone
    assert all(sum(b & lead != 0 for b in basis) == 1 for lead in leads)
    for w in words:  # every word reduces to zero by the leading bits
        for b, lead in zip(basis, leads):
            if w & lead:
                w ^= b
        assert w == 0
    assert len(basis) == naive_rank([[w >> j & 1 for j in range(width)] for w in words])
    assert _rref(words[::-1]) == _rref(sorted(words)) == basis
    assert _rref(basis) == basis


@given(matrices())
def test_rank_bounds_and_transpose_invariance(m):
    r = rank(m)
    assert 0 <= r <= min(m.rows, m.cols)
    assert rank(BitMatrix(m.cols, m.rows, m.column_ints())) == r


def test_systematic_form_identity_prefix(g74):
    sf = systematic_form(g74)
    assert sf.col_perm == tuple(range(sf.n))
    for i in range(sf.k):
        assert sf.matrix.bits[i] & ((1 << sf.k) - 1) == 1 << i


def test_systematic_form_preserves_row_space(g74):
    sf = systematic_form(g74)
    stacked = BitMatrix(8, 7, g74.bits + sf.matrix.bits)
    assert rank(stacked) == 4


def test_systematic_form_is_row_order_independent(g74):
    shuffled = BitMatrix(4, 7, (g74.bits[2], g74.bits[0], g74.bits[3], g74.bits[1]))
    assert systematic_form(shuffled).matrix == systematic_form(g74).matrix


def test_systematic_form_permutes_when_forced():
    # zero first column forces the pivot columns to move
    m = parse_matrix("0101\n0011")
    sf = systematic_form(m)
    assert sf.col_perm == (2, 0, 1, 3)
    assert sf.matrix == parse_matrix("1001\n0101")
    # the permuted original must span the same space as the output
    moved = permute_columns(m, sf.col_perm)
    assert rank(BitMatrix(4, 4, moved.bits + sf.matrix.bits)) == 2


@given(matrices())
@example(parse_matrix("0101\n0011"))  # pivot columns 1 and 2 move to the front
@example(parse_matrix("1100\n0011"))
@example(parse_matrix("0110\n0110\n1001"))  # rank deficient
def test_systematic_form_matches_naive_gauss_jordan(m):
    rows = row_lists(m)
    got = naive_rank(rows)
    if got < m.rows:
        with pytest.raises(RankError) as exc:
            systematic_form(m)
        assert str(exc.value) == f"matrix has rank {got}, full row rank {m.rows} required"
        return
    reduced, col_perm = naive_systematic_form(rows)
    sf = systematic_form(m)
    assert sf.matrix.bits == tuple(sum(e << j for j, e in enumerate(row)) for row in reduced)
    assert sf.col_perm == tuple(col_perm)


def test_systematic_form_rejects_rank_deficient():
    with pytest.raises(RankError):
        systematic_form(parse_matrix("11\n11"))


def test_parity_block(g74_sys):
    p = systematic_form(g74_sys).parity_block()
    assert p == parse_matrix("111\n110\n101\n011")


def test_permute_columns_validation():
    m = parse_matrix("10\n01")
    with pytest.raises(IndexSetError):
        permute_columns(m, (0, 0))


@given(matrices(max_rows=5, max_cols=7))
def test_systematic_form_of_full_rank(m):
    if rank(m) != m.rows:
        with pytest.raises(RankError):
            systematic_form(m)
        return
    sf = systematic_form(m)
    # identity block on the left
    for i in range(sf.k):
        assert (sf.matrix.bits[i] & ((1 << sf.k) - 1)) == 1 << i
    # same row space after moving the original through the permutation
    moved = permute_columns(m, sf.col_perm)
    stacked = BitMatrix(2 * m.rows, m.cols, moved.bits + sf.matrix.bits)
    assert rank(stacked) == m.rows
