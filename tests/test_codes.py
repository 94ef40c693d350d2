import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import identity
from gf2count import codes
from gf2count.gf2 import reduced_basis
from gf2count import (
    BitMatrix,
    BudgetError,
    ConsistencyError,
    DimensionError,
    IndexSetError,
    RankError,
    WeightEnumerator,
    dual_of,
    effective_distance,
    macwilliams,
    min_weight,
    parse_matrix,
    permute_columns,
    rank,
    systematic_form,
    weight_enumerator,
)
from naive import naive_dual_basis, naive_weight_counts, row_lists


@st.composite
def full_rank_matrices(draw, max_rows=5, max_cols=8, min_rows=1):
    """Random full-row-rank matrix, built by rejection."""
    k = draw(st.integers(min_rows, max_rows))
    n = draw(st.integers(k, max_cols))
    rows = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k).filter(
            lambda rs: rank(BitMatrix(k, n, tuple(rs))) == k
        )
    )
    return BitMatrix(k, n, tuple(rows))


def test_enumerator_validation():
    with pytest.raises(DimensionError):
        WeightEnumerator(3, (1, 0, 0))
    with pytest.raises(ConsistencyError):
        WeightEnumerator(2, (0, 1, 1))
    with pytest.raises(ConsistencyError):
        WeightEnumerator(2, (1, -1, 1))


def test_enumerator_json_roundtrip():
    we = WeightEnumerator(7, (1, 0, 0, 0, 7, 0, 0, 0))
    assert we.to_json_dict() == {"n": 7, "coeffs": [1, 0, 0, 0, 7, 0, 0, 0]}


def test_polynomial_rendering():
    assert WeightEnumerator(7, (1, 0, 0, 0, 7, 0, 0, 0)).polynomial_str() == (
        "x^7 + 7x^3y^4"
    )
    assert WeightEnumerator(2, (1, 2, 1)).polynomial_str() == "x^2 + 2xy + y^2"
    assert WeightEnumerator(1, (1, 1)).polynomial_str() == "x + y"


def test_weight_enumerator_single_entry():
    assert weight_enumerator(parse_matrix("1")).coeffs == (1, 1)


def test_weight_enumerator_known_code(g74):
    assert weight_enumerator(g74).coeffs == (1, 0, 0, 7, 7, 0, 0, 1)


def test_weight_enumerator_rejects_rank_deficient():
    with pytest.raises(RankError):
        weight_enumerator(parse_matrix("11\n11"))


def test_weight_enumerator_dimension_guard(monkeypatch):
    monkeypatch.setattr(codes, "DEFAULT_MAX_ENUM_DIM", 4)
    wide = identity(5)
    assert not _is_sliced(wide)
    with pytest.raises(BudgetError):
        weight_enumerator(wide)


def test_weight_enumerator_zero_row_matrix():
    # dual of a full [n, n] code: only the zero word
    we = weight_enumerator(BitMatrix(0, 3, ()))
    assert we.coeffs == (1, 0, 0, 0)


@given(full_rank_matrices())
@settings(max_examples=60)
def test_weight_enumerator_matches_naive(m):
    counts = naive_weight_counts(row_lists(m))
    assert list(weight_enumerator(m).coeffs) == counts


def _is_sliced(m):
    return codes._slices(m.rows, m.cols)


def test_slicing_rule_keeps_the_gray_walk_where_it_was_measured_faster():
    # Gray/sliced time at these shapes (codes._slices' comment): under 1 where the
    # Gray walk stays, over 1 where the sliced path does
    assert not any(codes._slices(k, n) for k, n in [(12, 272), (13, 448), (14, 768), (15, 832),
                                                     (16, 1024), (11, 176), (9, 48), (7, 12)])
    assert all(codes._slices(k, n) for k, n in [(12, 208), (13, 288), (14, 416), (16, 724),
                                                 (16, 800), (17, 1253), (18, 1700), (19, 2400),
                                                 (9, 22), (8, 16)])
    # weights --dual's dimension 18-20 duals at length 34-36 stay sliced
    assert all(codes._slices(k, n) for k in (18, 19, 20) for n in (34, 35, 36))


@given(full_rank_matrices(min_rows=10, max_rows=13, max_cols=21))
@settings(max_examples=12, deadline=None)
def test_sliced_enumerator_matches_naive(m):
    # one block of 2^k messages
    assert _is_sliced(m) and m.rows <= codes._SLICE_BITS
    counts = naive_weight_counts(row_lists(m))
    assert list(weight_enumerator(m).coeffs) == counts


@pytest.mark.parametrize("k, n", [(10, 40), (11, 64)])
def test_sliced_enumerator_long_codes_match_naive(k, n):
    # sums up to n need 6 and 7 counter digits
    rng = random.Random(k * n)
    while True:
        m = BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
        if rank(m) == k:
            break
    assert _is_sliced(m)
    counts = naive_weight_counts(row_lists(m))
    assert list(weight_enumerator(m).coeffs) == counts


@given(full_rank_matrices(max_rows=6, max_cols=9), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_small_sliced_blocks_match_naive(m, block_bits, rnd):
    # force the sliced path with tiny blocks, so the Gray walk over the
    # high message bits runs across many blocks; zero and repeated columns
    # join in at random places
    cols = list(zip(*row_lists(m)))
    cols += [rnd.choice(cols) for _ in range(rnd.randint(0, 2))] + [(0,) * m.rows] * rnd.randint(0, 2)
    rnd.shuffle(cols)
    m = BitMatrix.from_lists([list(r) for r in zip(*cols)])
    counts = naive_weight_counts(row_lists(m))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "_slices", lambda k, n: True)
        mp.setattr(codes, "_SLICE_BITS", block_bits)
        assert list(weight_enumerator(m).coeffs) == counts


@pytest.mark.parametrize("k", [17, 18])
def test_identity_has_no_changing_column(k):
    # every column is a pivot: the low ones are summed once, the high ones
    # are the walk's offset, and no table changes from block to block
    m = identity(k)
    assert _is_sliced(m) and k > codes._SLICE_BITS
    assert list(weight_enumerator(m).coeffs) == [comb(k, w) for w in range(k + 1)]


@given(full_rank_matrices(max_rows=5, max_cols=7), st.integers(1, 3))
@settings(max_examples=60)
def test_high_row_with_only_its_pivot_matches_naive(m, block_bits):
    # a unit row on a new last column: its pivot comes last, so its word
    # is high, and it covers no column but its own
    k, n = m.rows + 1, m.cols + 1
    unit = BitMatrix(k, n, m.bits + (1 << m.cols,))
    assert reduced_basis(unit)[-1] == 1
    counts = naive_weight_counts(row_lists(unit))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "_slices", lambda k, n: True)
        mp.setattr(codes, "_SLICE_BITS", min(block_bits, k - 1))
        assert list(weight_enumerator(unit).coeffs) == counts


@given(full_rank_matrices(max_rows=6, max_cols=9), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_enumerator_invariant_under_column_and_row_moves(m, rnd):
    k, n = m.rows, m.cols
    perm = list(range(n))
    rnd.shuffle(perm)
    rows = list(permute_columns(m, perm).bits)
    for _ in range(3 * k if k > 1 else 0):
        i, j = rnd.sample(range(k), 2)
        rows[i] ^= rows[j]
    moved = BitMatrix(k, n, tuple(rows))
    for sliced, block_bits in [(False, 16), (True, 16), (True, 1), (True, 2)]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes, "_slices", lambda k, n: sliced)
            mp.setattr(codes, "_SLICE_BITS", block_bits)
            assert weight_enumerator(moved) == weight_enumerator(m)


@given(st.integers(1, 80).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=70),
                        st.lists(st.integers(0, (1 << w) - 1), max_size=70))))
@settings(max_examples=100)
def test_add_planes_sums_each_lane(case):
    w, planes, seeded = case
    seed = codes._add_planes(seeded)
    for digits, extra in [(codes._add_planes(planes), 0), (codes._add_planes(planes, seed), 1)]:
        for m in range(w):
            want = sum(p >> m & 1 for p in planes) + extra * sum(p >> m & 1 for p in seeded)
            assert sum((d >> m & 1) << b for b, d in enumerate(digits)) == want
        assert not digits or digits[-1]


def test_add_planes_edge_lists():
    assert codes._add_planes([]) == []
    assert codes._add_planes([0, 0, 0, 0]) == []
    assert codes._add_planes([0b1011]) == [0b1011]
    assert codes._add_planes([], [0b01, 0b10]) == [0b01, 0b10]
    # 70 all-ones planes: every lane sums to 70 = 0b1000110
    assert codes._add_planes([0b111] * 70) == [0, 0b111, 0b111, 0, 0, 0, 0b111]


@st.composite
def wide_duals(draw):
    """Systematic form of a dimension <= 4 code whose dual has dimension 17-18."""
    k = draw(st.integers(1, 4))
    n = k + draw(st.integers(17, 18))
    rows = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k).filter(
            lambda rs: rank(BitMatrix(k, n, tuple(rs))) == k
        )
    )
    return systematic_form(BitMatrix(k, n, tuple(rows)))


@given(wide_duals())
@settings(max_examples=10, deadline=None)
def test_multi_block_dual_matches_transform(sf):
    # the dual spans several blocks; the primal stays on the Gray walk
    h = dual_of(sf.matrix)
    assert _is_sliced(h) and h.rows > codes._SLICE_BITS
    assert not _is_sliced(sf.matrix)
    assert weight_enumerator(h) == macwilliams(weight_enumerator(sf.matrix), sf.k)


@pytest.mark.parametrize("k", [10, 16, 17])
def test_sliced_enumerator_rejects_rank_deficient(k):
    rows = tuple(1 << i for i in range(k - 1)) + (0b11,)
    with pytest.raises(RankError):
        weight_enumerator(BitMatrix(k, k + 2, rows))


@pytest.mark.parametrize("k, guard", [(11, 10), (17, 16), (29, 28)])
def test_sliced_enumerator_dimension_guard(monkeypatch, k, guard):
    monkeypatch.setattr(codes, "DEFAULT_MAX_ENUM_DIM", guard)
    m = identity(k)
    assert _is_sliced(m)
    with pytest.raises(BudgetError):
        weight_enumerator(m)


def test_min_weight(g74):
    assert min_weight(weight_enumerator(g74)) == 3
    assert min_weight(WeightEnumerator(2, (1, 0, 0))) is None


def test_dual_of_known_pair(g74_sys, h74):
    assert dual_of(g74_sys) == h74


def test_dual_of_square_matrix_is_empty():
    d = dual_of(identity(4))
    assert d.rows == 0 and d.cols == 4


@given(full_rank_matrices(max_rows=4, max_cols=7))
@settings(max_examples=40)
def test_dual_of_spans_the_orthogonal_complement(m):
    sf = systematic_form(m)
    h = dual_of(sf.matrix)
    # compare against a basis found by exhaustive filtering
    naive = naive_dual_basis(row_lists(sf.matrix))
    assert rank(h) == len(naive) == sf.n - sf.k
    stacked = BitMatrix(
        h.rows + len(naive),
        sf.n,
        h.bits + BitMatrix.from_lists(naive).bits if naive else h.bits,
    )
    assert rank(stacked) == sf.n - sf.k


def packed(rows: list[list[int]], n: int) -> BitMatrix:
    """0/1 row lists as a BitMatrix of n columns, zero rows allowed."""
    return BitMatrix(len(rows), n, tuple(sum(b << j for j, b in enumerate(r)) for r in rows))


def same_span(a: BitMatrix, b: BitMatrix) -> bool:
    return rank(a) == rank(b) == rank(BitMatrix(a.rows + b.rows, a.cols, a.bits + b.bits))


@given(full_rank_matrices(max_rows=5, max_cols=9), st.data())
@settings(max_examples=60)
def test_dual_of_is_the_dual_in_the_matrix_column_order(m, data):
    k, n = m.rows, m.cols
    h = dual_of(m)
    # orthogonal to m, of rank n - k
    assert (h.rows, h.cols, rank(h)) == (n - k, n, n - k)
    assert not any((a & b).bit_count() & 1 for a in m.bits for b in h.bits)
    # its span is the orthogonal complement found by exhaustive filtering
    assert same_span(h, packed(naive_dual_basis(row_lists(m)), n))
    # moving m's columns moves its dual's
    perm = data.draw(st.permutations(range(n)))
    assert same_span(dual_of(permute_columns(m, perm)), permute_columns(h, perm))
    # on a systematic [I | P] it is [P^T | I]
    ip = row_lists(systematic_form(m).matrix)
    transposed = [[ip[i][k + j] for i in range(k)] + [int(t == j) for t in range(n - k)]
                  for j in range(n - k)]
    assert dual_of(packed(ip, n)) == packed(transposed, n)


def test_dual_of_rejects_rank_deficient():
    with pytest.raises(RankError, match="matrix has rank 1, full row rank 2 required"):
        dual_of(parse_matrix("110\n110"))


def test_macwilliams_known_pair(g74, h74):
    primal = weight_enumerator(g74)
    dual = weight_enumerator(h74)
    assert macwilliams(primal, 4) == dual
    assert macwilliams(dual, 3) == primal


def test_macwilliams_rejects_bad_size():
    with pytest.raises(ConsistencyError):
        macwilliams(WeightEnumerator(3, (1, 1, 0, 0)), 3)


def test_macwilliams_rejects_impossible_distribution():
    # 7 words of weight 6 in length 10 force total weight 42, but any
    # 3-dimensional code has total weight divisible by 4
    fake = WeightEnumerator(10, (1, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0))
    with pytest.raises(ConsistencyError):
        macwilliams(fake, 3)


@given(full_rank_matrices(max_rows=5, max_cols=9))
@settings(max_examples=40)
def test_macwilliams_matches_naive_dual(m):
    basis = naive_dual_basis(row_lists(m))
    expected = naive_weight_counts(basis) if basis else [1] + [0] * m.cols
    assert list(macwilliams(weight_enumerator(m), m.rows).coeffs) == expected


@given(full_rank_matrices(max_rows=5, max_cols=9))
@settings(max_examples=60)
def test_macwilliams_involution(m):
    k, n = m.rows, m.cols
    we = weight_enumerator(m)
    assert macwilliams(macwilliams(we, k), n - k) == we


def test_effective_distance_values(effdist36):
    p = systematic_form(effdist36).parity_block()
    cases = {
        (0,): 4,
        (1,): 3,
        (2,): 3,
        (0, 1): 3,
        (0, 2): 3,
        (1, 2): 4,
        (0, 1, 2): 4,
    }
    for t, expected in cases.items():
        assert effective_distance(p, t) == expected


def test_effective_distance_validation(effdist36):
    p = systematic_form(effdist36).parity_block()
    with pytest.raises(IndexSetError):
        effective_distance(p, ())
    with pytest.raises(IndexSetError):
        effective_distance(p, (2, 1))
    with pytest.raises(IndexSetError):
        effective_distance(p, (0, 0))
    with pytest.raises(IndexSetError):
        effective_distance(p, (0, 3))


@given(full_rank_matrices(max_rows=4, max_cols=7))
@settings(max_examples=40)
def test_effective_distance_equals_dual_word_weight(m):
    sf = systematic_form(m)
    if sf.k == sf.n:
        return
    p = sf.parity_block()
    h = dual_of(sf.matrix)
    from itertools import combinations

    for size in range(1, sf.n - sf.k + 1):
        for t in combinations(range(sf.n - sf.k), size):
            word = 0
            for j in t:
                word ^= h.bits[j]
            assert effective_distance(p, t) == word.bit_count()
