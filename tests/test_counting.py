import json
import random
import sys
from collections import Counter
from itertools import combinations
from math import comb
from operator import getitem
from typing import Optional
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import identity, load_fixture, random_full_rank
from gf2count import counting
from gf2count import (
    BitMatrix,
    BruteForceResult,
    BudgetError,
    ConditionError,
    ConsistencyError,
    CountReport,
    DimensionError,
    RankError,
    WeightEnumerator,
    analyze,
    basis_count,
    brute_force_counts,
    complement_duality_check,
    condition_check,
    dual_of,
    parse_matrix,
    permute_columns,
    rank,
    row_op_invariance_check,
    singular_count_formula,
    systematic_form,
    weight_enumerator,
)
from gf2count.counting import systematic_rows
from gf2count.gf2 import reduced_basis
from make_search_hashes import random_columns
from naive import (
    mobius_full_rank_count,
    naive_dual_basis,
    naive_rank,
    naive_subset_split,
    naive_subspace_bases,
    row_lists,
)

D_SETS_74 = {
    (0, 1, 2, 4),
    (0, 1, 3, 5),
    (0, 2, 3, 6),
    (2, 3, 4, 5),
    (1, 2, 5, 6),
    (1, 3, 4, 6),
    (0, 4, 5, 6),
}


def test_condition_check_examples():
    assert condition_check(4, 4, 7) is True
    assert condition_check(6, 7, 10) is True
    assert condition_check(2, 4, 6) is False


def test_condition_check_validation():
    with pytest.raises(DimensionError):
        condition_check(3, 0, 5)
    with pytest.raises(DimensionError):
        condition_check(3, 6, 5)
    with pytest.raises(DimensionError):
        condition_check(0, 2, 5)


def test_singular_count_formula_dual_side():
    we = WeightEnumerator(7, (1, 0, 0, 0, 7, 0, 0, 0))
    assert singular_count_formula(we, 4) == 7
    we15 = WeightEnumerator(15, (1,) + (0,) * 7 + (15,) + (0,) * 7)
    assert singular_count_formula(we15, 11) == 15 * comb(7, 4)


def test_singular_count_formula_accepts_either_side(g74):
    # the primal distribution of the same code must predict the same count
    primal = weight_enumerator(g74)
    dual = weight_enumerator(dual_of(g74))
    assert singular_count_formula(primal, 4) == singular_count_formula(dual, 4) == 7


def test_singular_count_formula_primal_side_binomial():
    # k < n - k: a weight-2 row leaves one zero column, hence one
    # dependent selection; the lower binomial index must be the code's
    # own dimension here, not n - k
    m = parse_matrix("110")
    we = weight_enumerator(m)
    assert singular_count_formula(we, 1) == 1
    assert brute_force_counts(m).singular_count == 1


def test_singular_count_formula_validation():
    we = WeightEnumerator(6, (1, 0, 2, 0, 0, 0, 0))  # 3 words total
    with pytest.raises(ConsistencyError):
        singular_count_formula(we, 3)
    with pytest.raises(DimensionError):
        singular_count_formula(WeightEnumerator(3, (1, 1, 0, 0)), 4)


def test_singular_count_formula_rejects_wrong_dimension():
    we = WeightEnumerator(8, (1, 0, 3, 0, 0, 0, 0, 0, 0))
    with pytest.raises(DimensionError):
        singular_count_formula(we, 4)  # dim 2 fits neither 4 nor 4


def test_brute_force_known_sets(g74):
    res = brute_force_counts(g74, collect_sets=True)
    assert res.singular_count == 7
    assert res.full_rank_count == 28
    assert set(res.dependent_sets) == D_SETS_74
    assert list(res.dependent_sets) == sorted(res.dependent_sets)
    assert len(res.independent_sets) == 28


def test_brute_force_square_full_rank():
    res = brute_force_counts(identity(5), collect_sets=True)
    assert res.singular_count == 0
    assert res.full_rank_count == 1
    assert res.independent_sets == ((0, 1, 2, 3, 4),)
    assert res.dependent_sets == ()


def test_brute_force_no_collection(g74):
    res = brute_force_counts(g74)
    assert res.dependent_sets is None and res.independent_sets is None
    assert res.singular_count == 7


def test_brute_force_budget(g1511):
    with pytest.raises(BudgetError):
        brute_force_counts(g1511, budget=1000)


def test_brute_force_rank_error():
    with pytest.raises(RankError):
        brute_force_counts(parse_matrix("11\n11"))


@given(st.integers(0, (1 << 12) - 1))
@settings(max_examples=50, deadline=None)
def test_brute_force_matches_naive(p_bits):
    rows = tuple((1 << i) | (((p_bits >> (3 * i)) & 0b111) << 4) for i in range(4))
    m = BitMatrix(4, 7, rows)
    res = brute_force_counts(m, collect_sets=True)
    dep, ind = naive_subset_split(row_lists(m))
    assert list(res.dependent_sets) == dep
    assert list(res.independent_sets) == ind


def test_analyze_formula_fast_path(g74):
    rep = analyze(g74, mode="auto")
    assert rep.method == "formula"
    assert rep.side == "dual"
    assert rep.d_star == 4
    assert rep.condition_holds
    assert (rep.singular_count, rep.full_rank_count) == (7, 28)
    assert rep.dependent_sets is None


def test_analyze_collect_promotes_to_both(g74):
    rep = analyze(g74, mode="auto", collect_sets=True)
    assert rep.method == "both"
    assert set(rep.dependent_sets) == D_SETS_74


def test_analyze_formula_mode_requires_condition(g107):
    with pytest.raises(ConditionError):
        analyze(g107, mode="formula")


def test_analyze_both_mode_requires_condition(g107):
    with pytest.raises(ConditionError):
        analyze(g107, mode="both")


def test_analyze_auto_falls_back_to_oracle(g107):
    rep = analyze(g107, mode="auto")
    assert rep.method == "oracle"
    assert not rep.condition_holds
    assert rep.d_star == 4
    assert (rep.singular_count, rep.full_rank_count) == (54, 66)


def test_analyze_oracle_exact_on_other_variant(g107_sys):
    # here the sum coincides with the truth even though the condition
    # fails; auto must still report the scan as the method used
    rep = analyze(g107_sys, mode="auto")
    assert rep.method == "oracle"
    assert not rep.condition_holds
    assert (rep.singular_count, rep.full_rank_count) == (44, 76)


def test_double_counting_witness(g107):
    # two selections avoid two dual words at once, so the raw sum
    # overshoots the scan by exactly those two
    dual_we = weight_enumerator(dual_of(g107))
    assert dual_we.coeffs == (1, 0, 0, 0, 2, 0, 4, 0, 1, 0, 0)
    assert singular_count_formula(dual_we, 7) == 56
    assert brute_force_counts(g107).singular_count == 54


_DECISIONS = [
    # mode, whether the condition holds (g74) or fails (g107), collect_sets,
    # the methods that run in order, and the method reported or the error raised
    ("auto", True, False, ["formula"], "formula"),
    ("auto", True, True, ["formula", "scan"], "both"),
    ("auto", False, False, ["dp"], "oracle"),
    ("auto", False, True, ["scan"], "oracle"),
    ("formula", True, False, ["formula"], "formula"),
    ("formula", True, True, [], ValueError),
    ("formula", False, False, [], ConditionError),
    ("formula", False, True, [], ValueError),
    ("oracle", True, False, ["scan"], "oracle"),
    ("oracle", True, True, ["scan"], "oracle"),
    ("oracle", False, False, ["scan"], "oracle"),
    ("oracle", False, True, ["scan"], "oracle"),
    ("both", True, False, ["formula", "scan", "dp"], "both"),
    ("both", True, True, ["formula", "scan", "dp"], "both"),
    ("both", False, False, [], ConditionError),
    ("both", False, True, [], ConditionError),
]


@pytest.mark.parametrize("mode, holds, collect_sets, ran, outcome", _DECISIONS)
def test_analyze_decision_table(request, monkeypatch, mode, holds, collect_sets, ran,
                                outcome):
    m = request.getfixturevalue("g74" if holds else "g107")
    calls = []
    for label, name in (("formula", "singular_count_formula"),
                        ("scan", "brute_force_counts"), ("dp", "basis_count")):
        def spy(*args, _label=label, _run=getattr(counting, name), **kwargs):
            calls.append(_label)
            return _run(*args, **kwargs)

        monkeypatch.setattr(counting, name, spy)
    if isinstance(outcome, str):
        rep = analyze(m, mode, collect_sets=collect_sets)
        assert rep.method == outcome
        assert rep.singular_count == (7 if holds else 54)
        assert (rep.dependent_sets is not None) == collect_sets
    else:
        with pytest.raises(outcome):
            analyze(m, mode, collect_sets=collect_sets)
    assert calls == ran


def test_analyze_mode_validation(g74):
    with pytest.raises(ValueError):
        analyze(g74, mode="fast")
    with pytest.raises(ValueError):
        analyze(g74, mode="formula", collect_sets=True)


def test_analyze_square_matrix():
    rep = analyze(identity(3))
    assert rep.d_star is None
    assert rep.condition_holds
    assert rep.side == "dual"
    assert (rep.singular_count, rep.full_rank_count) == (0, 1)
    assert rep.method == "formula"
    assert rep.enumerator.coeffs == (1, 0, 0, 0)


def test_analyze_condition_failing_doc_case():
    rep = analyze(parse_matrix("1000\n0101"), mode="auto")
    assert not rep.condition_holds
    assert rep.method == "oracle"
    assert rep.singular_count + rep.full_rank_count == 6
    assert (rep.singular_count, rep.full_rank_count) == (4, 2)


def test_analyze_counts_are_column_permutation_invariant(g74):
    base = analyze(g74, mode="oracle")
    moved = permute_columns(g74, (3, 0, 5, 1, 6, 2, 4))
    rep = analyze(moved, mode="oracle")
    assert (rep.singular_count, rep.full_rank_count) == (
        base.singular_count,
        base.full_rank_count,
    )


def test_report_json_roundtrip(g74):
    rep = analyze(g74, mode="both", collect_sets=True)
    data = json.loads(json.dumps(rep.to_json_dict()))
    assert data["enumerator"] == {"n": 7, "coeffs": list(rep.enumerator.coeffs)}
    assert data["dependent_sets"] == [[j + 1 for j in s] for s in rep.dependent_sets]
    assert data["independent_sets"] == [
        [j + 1 for j in s] for s in rep.independent_sets
    ]


def test_report_json_shape(g74):
    rep = analyze(g74, mode="auto")
    data = rep.to_json_dict()
    assert list(data) == [
        "n", "k", "d_star", "condition_holds", "side", "D", "I",
        "method", "enumerator",
    ]
    assert data["D"] == 7 and data["I"] == 28
    listed = analyze(g74, mode="oracle", collect_sets=True).to_json_dict()
    assert listed["dependent_sets"][0] == [1, 2, 3, 5]


def test_report_invariants():
    we = WeightEnumerator(4, (1, 0, 0, 0, 0))
    with pytest.raises(ConsistencyError):
        CountReport(
            n=4, k=2, d_star=None, condition_holds=True, side="dual",
            singular_count=1, full_rank_count=1, method="formula",
            enumerator=we,
        )
    with pytest.raises(ConsistencyError):
        CountReport(
            n=4, k=2, d_star=None, condition_holds=True, side="upper",
            singular_count=1, full_rank_count=5, method="formula",
            enumerator=we,
        )


def test_complement_duality_known_pair(g74_sys, h74):
    assert complement_duality_check(g74_sys, h74)
    # spot checks on the correspondence itself
    res_g = brute_force_counts(g74_sys, collect_sets=True)
    res_h = brute_force_counts(h74, collect_sets=True)
    assert (0, 1, 2, 4) in res_g.dependent_sets
    assert (3, 5, 6) in res_h.dependent_sets
    assert (0, 3, 5, 6) in res_g.independent_sets
    assert (1, 2, 4) in res_h.independent_sets


def test_complement_duality_trivial_square():
    assert complement_duality_check(identity(4))


def test_complement_duality_rejects_bad_dual(g74_sys, h74):
    a, b, c = h74.bits
    for bad, error, message in (
        (BitMatrix(3, 6, (a >> 1, b >> 1, c >> 1)), DimensionError,
         "dual generator has 6 columns, expected 7"),
        (BitMatrix(4, 7, (a, b, c, a)), DimensionError,
         "dual generator has 4 rows, expected 3"),
        (BitMatrix(3, 7, (a ^ 1, b, c)), ConsistencyError,
         "rows of h are not orthogonal to the code"),
        (BitMatrix(3, 7, (a, a, 0)), RankError, "dual generator is rank deficient"),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            complement_duality_check(g74_sys, bad)


def test_complement_duality_budget(g1511):
    with pytest.raises(BudgetError):
        complement_duality_check(g1511, budget=100)


def test_row_op_families_match_across_forms(g74, g74_sys):
    # the two displayed forms of the same code share one row space, so
    # their dependent families must be identical
    a = brute_force_counts(g74, collect_sets=True)
    b = brute_force_counts(g74_sys, collect_sets=True)
    assert a.dependent_sets == b.dependent_sets


def test_row_op_invariance_check_passes(g74):
    assert row_op_invariance_check(g74, trials=20, seed=7)


def test_row_op_invariance_zero_trials(g74):
    assert row_op_invariance_check(g74, trials=0)


def test_row_op_invariance_budget(g74):
    with pytest.raises(BudgetError):
        row_op_invariance_check(g74, trials=5, budget=100)


@given(st.integers(0, (1 << 16) - 1), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_formula_oracle_agree_when_condition_holds(p_bits, k):
    n = 2 * k
    width = n - k
    rows = tuple(
        (1 << i) | (((p_bits >> (i * width)) & ((1 << width) - 1)) << k)
        for i in range(k)
    )
    m = BitMatrix(k, n, rows)
    rep = analyze(m, mode="auto")
    if rep.condition_holds:
        scan = brute_force_counts(m)
        assert rep.singular_count == scan.singular_count
    else:
        assert rep.method == "oracle"


def _enumerated_side(m: BitMatrix) -> BitMatrix:
    """The generator analyze counts on: the code or its dual, whichever is smaller."""
    return m if m.rows < m.cols - m.rows else dual_of(m)


@st.composite
def full_rank_matrices(draw):
    n = draw(st.integers(1, 9))
    k = draw(st.sampled_from(sorted({1, max(n - 1, 1), max(n // 2, 1), n})))
    rows = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(k)]
    assume(naive_rank(rows) == k)
    return rows


@st.composite
def full_rank_with_repeats(draw):
    """Full-row-rank k x n rows, k anywhere in 1..n, with zero and repeated columns.

    k unit columns at distinct positions give the full rank; every other
    column is drawn from a small pool that always holds the zero column.
    """
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, n))
    pivots = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    pool = [0] + draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=3))
    cols = [draw(st.sampled_from(pool)) for _ in range(n)]
    for i, j in enumerate(pivots):
        cols[j] = 1 << i
    return [[(c >> i) & 1 for c in cols] for i in range(k)]


@given(st.one_of(full_rank_matrices(), full_rank_with_repeats()))
@example([[1, 0, 1, 1]])  # k = 1 with a zero column: one word, popcount(w) ways
# k = 2 with a zero, a repeated and all three nonzero column types: x*y + z*(x + y)
@example([[1, 0, 1, 0, 1], [0, 1, 1, 0, 0]])
# k = 3, where taking the first column leaves a two-word state
@example([[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]])
# k = 5, where a take from the five-word start leaves a four-word state h, a, b, c
@example([[0, 0, 0, 1, 0, 0], [0, 1, 0, 1, 1, 0], [0, 0, 1, 1, 0, 0],
          [0, 1, 1, 0, 0, 0], [1, 1, 0, 1, 1, 0]])
# and a later skip of such a state reduces h's rest w back in before a,
# between a and b, between b and c, or after c: each count below is wrong
# if w goes to a neighbouring place
@example([[1, 0, 1, 0, 1, 1, 1], [1, 1, 0, 0, 1, 0, 1], [1, 0, 1, 0, 0, 1, 1],
          [1, 1, 0, 1, 1, 1, 1], [1, 1, 0, 0, 1, 0, 0]])  # before a
@example([[0, 1, 1, 0, 1, 0, 1, 1], [0, 1, 0, 1, 0, 1, 1, 1], [0, 1, 0, 1, 1, 1, 1, 0],
          [1, 1, 0, 1, 1, 1, 1, 1], [0, 1, 1, 0, 1, 1, 1, 1]])  # between a and b
@example([[0, 1, 1, 0, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1, 1, 0, 0], [0, 0, 0, 1, 1, 1, 1, 0, 0],
          [0, 1, 0, 1, 0, 1, 0, 1, 0], [1, 1, 0, 1, 1, 1, 1, 1, 1]])  # between b and c
@example([[1, 0, 1, 1, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0, 1, 1], [0, 0, 1, 1, 0, 0, 0, 1],
          [0, 0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1, 1, 1]])  # after c
@settings(max_examples=150, deadline=None)
def test_basis_count_matches_naive(rows):
    m = BitMatrix.from_lists(rows)
    independent = len(naive_subset_split(rows)[1])
    assert basis_count(m) == independent
    # the complement count on the dual side, down to r = 0 at k = n
    assert basis_count(dual_of(m)) == independent
    assert analyze(m).full_rank_count == independent


@given(st.integers(1, 3), st.lists(st.integers(0, 7), min_size=3, max_size=20))
@example(3, list(range(1, 8)))  # all 7 nonzero column types: the Fano plane's 28 bases
@example(3, [1, 2, 3])  # a dependent line {a, b, a ^ b}
@example(3, [0, 3, 5, 6, 0])  # a line of weight-two types, with zero columns
@example(3, [1, 1, 2, 4, 4, 0, 7, 7, 6])  # repeated and zero columns
@example(3, [v for v in range(1, 8) for _ in range(v)])  # m_v = v: the 7 lines differ
@example(2, [1, 1, 2, 3, 0, 3])  # e2 of the counts of patterns 1, 2 and 3, a zero column
@example(1, [1, 0, 3, 0])  # e1: the word's weight
@example(3, [1, 2, 3, 3, 0])  # c zero on every column: rank deficient, 0
@example(3, [4, 5, 6, 7, 4, 5, 7])  # only c = 1 patterns: e3(m4..m7) alone
@example(3, [4, 6, 5, 7, 5])  # c patterns alone: N0 = 0 zeroes every pair term
# a pair of c patterns p, q and c = 0 columns with and without s = p ^ q
@example(3, [4, 5, 1, 2, 3])  # s = 1, with
@example(3, [6, 7, 2, 3, 0])  # s = 1, without
@example(3, [4, 6, 2, 1])  # s = 2, with
@example(3, [5, 7, 1, 3, 3])  # s = 2, without
@example(3, [4, 7, 3, 3, 1])  # s = 3, with
@example(3, [5, 6, 1, 2])  # s = 3, without
@settings(max_examples=150, deadline=None)
def test_three_word_closed_form_matches_naive(height, columns):
    # up to three words close at once, split on the third word c: one c
    # column and two of distinct c = 0 patterns, two c columns and a c = 0
    # column off their line, or three c columns of distinct patterns; fewer
    # words read the same counts with c = 0; rank-deficient rows give 0
    rows = [[c >> i & 1 for c in columns] for i in range(height)]
    independent = len(naive_subset_split(rows)[1])
    words = tuple(sum(bit << j for j, bit in enumerate(row)) for row in rows)
    assert counting._completions(words) == independent
    assert basis_count(BitMatrix.from_lists(rows)) == independent


def test_basis_count_rank_deficient_is_zero():
    assert basis_count(parse_matrix("11\n11")) == 0


@pytest.mark.parametrize("name", [
    "g_7_4.txt", "g_7_4_systematic.txt", "h_7_4.txt", "g_10_7.txt",
    "g_10_7_systematic.txt", "g_15_11.txt", "effdist_3_6.txt",
])
def test_basis_count_matches_scan_on_fixtures(name):
    m = load_fixture(name)
    scan = brute_force_counts(m)
    assert basis_count(m) == scan.full_rank_count
    assert comb(m.cols, m.rows) - basis_count(_enumerated_side(m)) == scan.singular_count


def test_basis_count_states_are_subspaces():
    # every column is a nonzero vector of F_2^4; a state is fixed by
    # span(A) ∩ span(later columns), so at most the 67 subspaces of
    # F_2^4 are live at each column, and a state that depended on the
    # order the columns were taken in would exceed that
    cols = list(range(1, 16)) * 2
    gen = BitMatrix(4, 30, tuple(
        sum(((v >> i) & 1) << j for j, v in enumerate(cols)) for i in range(4)
    ))
    assert basis_count(gen, budget=30 * 67) == brute_force_counts(gen).full_rank_count


def test_basis_count_budget():
    # 121 visits to states of four or more words; states of three or
    # fewer close at once, so a side of dimension 3 needs no visit
    with pytest.raises(BudgetError):
        basis_count(random_full_rank(5, 30, seed=3), budget=5)


def test_analyze_auto_counts_past_the_scan_budget():
    # C(30, 5) = 142 506 subsets would refuse a scan at this budget, but
    # the DP visits only 121 states
    m = random_full_rank(5, 30, seed=3)
    with pytest.raises(BudgetError):
        analyze(m, mode="oracle", budget=2_000)
    rep = analyze(m, mode="auto", budget=2_000)
    assert not rep.condition_holds
    assert rep.method == "oracle"
    assert rep.full_rank_count == basis_count(m)
    assert rep.singular_count + rep.full_rank_count == comb(30, 5)


def _banded(k: int, n: int, seed: int) -> BitMatrix:
    """Column j has random entries on the 3 rows from floor(j * (k - 2) / n), 0 elsewhere."""
    rng = random.Random(seed)
    while True:
        cols = [rng.getrandbits(3) << (j * (k - 2) // n) for j in range(n)]
        m = BitMatrix(k, n, tuple(
            sum(((v >> i) & 1) << j for j, v in enumerate(cols)) for i in range(k)
        ))
        if rank(m) == k:
            return m


def test_analyze_counts_a_banded_primal_within_a_small_budget():
    # 14 state visits in the DP's connectivity order; walked unordered,
    # the input order needs 38 and the systematic form's order 68
    m = _banded(8, 20, seed=1)
    rep = analyze(m, budget=100)
    assert rep.side == "primal" and rep.method == "oracle"
    assert rep.full_rank_count == brute_force_counts(m).full_rank_count


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analyze_counts_a_banded_dual_within_a_small_budget(seed):
    # k >= n - k: the dual generator comes in the systematic form's
    # column order, and the DP's own column order needs 49 to 57 state
    # visits; walked unordered, that order needs 12,000 to 26,000
    m = _banded(24, 38, seed)
    rep = analyze(m, budget=1_000)
    assert rep.side == "dual" and rep.method == "oracle"
    assert rep.full_rank_count == basis_count(m, budget=1_000)


def test_basis_count_banded_within_a_small_budget():
    # 43 state visits
    m = _banded(10, 24, seed=1)
    assert basis_count(m, budget=1_000) == brute_force_counts(m).full_rank_count


@pytest.mark.parametrize("k, n", [(20, 60), (30, 90)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basis_count_wide_banded_matches_reversed_order(k, n, seed):
    # a few hundred state visits either way; C(n, k) rules out the scan
    m = _banded(k, n, seed)
    reversed_m = permute_columns(m, range(n - 1, -1, -1))
    assert basis_count(m, budget=2_000) == basis_count(reversed_m, budget=2_000)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analyze_counts_shuffled_banded_in_connectivity_order(seed):
    # shuffling the columns spreads the band, and the input order needs
    # over 400,000 visits; the DP's own column order needs 241 to 4,037
    m = _banded(24, 72, seed)
    perm = list(range(72))
    random.Random(seed).shuffle(perm)
    shuffled = permute_columns(m, perm)
    expected = basis_count(m, budget=100_000)
    assert analyze(shuffled, budget=100_000).full_rank_count == expected


@pytest.mark.parametrize("k, n", [(7, 18), (8, 19)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basis_count_matches_scan_on_ordered_shapes(k, n, seed):
    # min(k, n - k) >= 5, so the DP orders the columns before it walks them
    m = random_full_rank(k, n, seed)
    assert basis_count(m) == brute_force_counts(m).full_rank_count


_PINNED_DP = {
    # min(r, n - r) <= 4: the columns in the given order
    "random 4x30": lambda b: basis_count(random_full_rank(4, 30, seed=3), budget=b),
    "random 8x12": lambda b: basis_count(random_full_rank(8, 12, seed=0), budget=b),
    # min(r, n - r) > 4: of the greedy and lookahead orders, forward or reversed, the
    # one with the lowest bound on kept states: the reversed greedy at 5x30, 8x19,
    # banded 30x90, 12x36 and systematic 6x12, the reversed lookahead at 9x22 and
    # 10x24, the lookahead at 11x26 and the greedy at systematic 5x10
    "random 5x30": lambda b: basis_count(random_full_rank(5, 30, seed=3), budget=b),
    "random 8x19": lambda b: basis_count(random_full_rank(8, 19, seed=1), budget=b),
    "random 9x22": lambda b: basis_count(random_full_rank(9, 22, seed=4), budget=b),
    "random 10x24": lambda b: basis_count(random_full_rank(10, 24, seed=0), budget=b),
    "random 11x26": lambda b: basis_count(random_full_rank(11, 26, seed=2), budget=b),
    "banded 30x90": lambda b: basis_count(_banded(30, 90, 0), budget=b),
    "banded 12x36": lambda b: basis_count(_banded(12, 36, 1), budget=b),
    "systematic 5x10": lambda b: next(counting.systematic_counts([0x13EECF8], 5, 5, budget=b)),
    "systematic 6x12": lambda b: next(
        counting.systematic_counts([0xB4164D839], 6, 6, budget=b)),
    # four rows: one state a column, so a visit a column until the chain ends
    "systematic 4x10": lambda b: next(counting.systematic_counts([0x5BC8FB], 4, 6, budget=b)),
    "dual of random 26x30": lambda b: basis_count(
        dual_of(systematic_form(random_full_rank(26, 30, seed=0)).matrix), budget=b),
}


@pytest.mark.parametrize("case, visits, independent", [
    ("random 4x30", 23, 9_161),
    ("random 8x12", 81, 161),
    ("random 5x30", 121, 50_567),
    ("random 8x19", 194, 15_510),
    ("random 9x22", 1_903, 179_389),
    ("random 10x24", 5_896, 587_488),
    ("random 11x26", 33_563, 2_512_012),
    ("banded 30x90", 292, 8_316_738_440_768_340),
    ("banded 12x36", 79, 332_738),
    ("systematic 5x10", 13, 144),
    ("systematic 6x12", 12, 168),
    ("systematic 4x10", 7, 131),
    ("dual of random 26x30", 27, 7_179),
])
def test_dp_visits_are_pinned(case, visits, independent):
    # the least budget each DP fits in: its column order, its start state
    # and the unit of a visit all show in it
    count = _PINNED_DP[case]
    with pytest.raises(BudgetError) as exc:
        count(visits - 1)
    assert str(exc.value) == (
        f"subset DP needs at least {visits} state visits, over budget {visits - 1}"
    )
    assert count(visits) == independent


def _rank_profile(rows: list[list[int]], order: list[int]) -> list[tuple[int, int]]:
    """(r(A), r(B)) after each column of order, A the columns walked and B the rest, by naive ranks."""
    def r(cols):
        return naive_rank([[row[j] for j in cols] for row in rows])
    return [(r(order[:t]), r(order[t:])) for t in range(1, len(order) + 1)]


def _subspaces_at_most(width: int, dim: int) -> int:
    """Subspaces of F_2^width of dimension at most dim, counted one by one."""
    return sum(len(basis) <= dim for basis in naive_subspace_bases(width))


def _kept_bound(rows: list[list[int]], order: list[int]) -> int:
    """The bound on the states the DP keeps walking order, summed over the cuts it visits."""
    r = len(rows)
    cuts = [(0, r), *_rank_profile(rows, order)][:-1]  # the cut before each column
    return sum(_subspaces_at_most(a + b - r, b - 4) for a, b in cuts)


@given(st.one_of(full_rank_matrices(), full_rank_with_repeats()), st.integers(0, 99))
@example([[1, 0, 1, 1, 0]], 0)  # a zero column and a repeated column
@example([[1, 1, 0, 0, 1, 0], [0, 0, 1, 1, 0, 0]], 1)  # zero and repeated columns
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)  # k = n: every column a coloop
# the greedy and lookahead orders differ, with equal width sums; the reversed
# greedy has the lowest bound and is walked
@example([[0, 0, 1, 1, 1, 0, 0, 0, 1, 1], [1, 1, 1, 1, 0, 0, 0, 1, 1, 0],
          [0, 0, 0, 1, 1, 1, 0, 0, 1, 0], [0, 1, 1, 1, 1, 0, 0, 1, 0, 0],
          [0, 0, 1, 0, 1, 0, 0, 1, 0, 1]], 3)
# wide enough to build the lookahead order, whose reversal has the lowest bound
@example([[0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1], [0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0],
          [1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1], [0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0],
          [1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0]], 4)
@settings(max_examples=150, deadline=None)
def test_connectivity_order_is_a_row_invariant_permutation(rows, seed):
    m = BitMatrix.from_lists(rows)
    n = m.cols
    independent = len(naive_subset_split(rows)[1])

    def orders_of(x):  # greedy, lookahead and walked orders of the rows as they stand
        bits = permute_columns(x, range(n - 1, -1, -1)).bits  # the DP's layout
        return (*(counting._connectivity_order(bits, n, ahead) for ahead in (False, True)),
                counting._walk_order(bits, n))

    greedy, lookahead, walked = orders_of(m)
    variant = next(counting._row_equivalents(m.bits, 1, random.Random(seed)))
    assert orders_of(BitMatrix(m.rows, n, tuple(variant))) == (greedy, lookahead, walked)
    for order, profile in (greedy, lookahead):
        assert sorted(order) == list(range(n))
        assert profile == _rank_profile(rows, order)
        ordered = permute_columns(m, sorted(range(n), key=order.__getitem__))
        assert basis_count(ordered) == independent
    assert walked in (greedy[0], greedy[0][::-1], lookahead[0], lookahead[0][::-1])
    # the greedy, forward and reversed, is always a candidate
    assert _kept_bound(rows, walked) <= min(_kept_bound(rows, greedy[0]),
                                            _kept_bound(rows, greedy[0][::-1]))


@st.composite
def ordered_shapes(draw):
    """Full-row-rank k x n rows with min(k, n - k) >= 5, the shapes the DP orders.

    Drawn at random, or from k unit columns at distinct positions and a
    small pool, always holding the zero column, for the rest.
    """
    n = draw(st.integers(10, 12))
    k = draw(st.integers(5, n - 5))
    if draw(st.booleans()):
        cols = [draw(st.integers(0, (1 << k) - 1)) for _ in range(n)]
    else:
        pivots = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        pool = [0] + draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=4))
        cols = [draw(st.sampled_from(pool)) for _ in range(n)]
        for i, j in enumerate(pivots):
            cols[j] = 1 << i
    rows = [[(c >> i) & 1 for c in cols] for i in range(k)]
    assume(naive_rank(rows) == k)
    return rows


def _kept_per_column(count) -> list[int]:
    """The states a DP keeps before each column until it ends, read off the
    ``BudgetError`` each budget of the visits so far raises."""
    kept, visits = [], 0
    while True:
        try:
            count(visits)
            return kept
        except BudgetError as exc:
            more = int(str(exc).split()[5])  # subset DP needs at least {more} state visits
            kept.append(more - visits)
            visits = more


@given(ordered_shapes())
@settings(max_examples=60, deadline=None)
def test_walk_keeps_no_more_states_at_a_cut_than_its_bound(rows):
    # at a cut of ranks (a, b), a kept state of four or more words is a subspace
    # of dimension at most b - 4 of span(A) ∩ span(B), of dimension a + b - r
    m = BitMatrix.from_lists(rows)
    r, n = m.rows, m.cols
    bits = permute_columns(m, range(n - 1, -1, -1)).bits  # the DP's layout
    greedy, lookahead = (counting._connectivity_order(bits, n, ahead)[0] for ahead in (False, True))
    for order in (greedy, greedy[::-1], lookahead, lookahead[::-1]):
        with mock.patch.object(counting, "_walk_order", lambda rows, n: order):
            kept = _kept_per_column(lambda budget: basis_count(m, budget=budget))
        cuts = [(0, r), *_rank_profile(rows, order)]
        for states, (a, b) in zip(kept, cuts):
            assert states <= _subspaces_at_most(a + b - r, b - 4)


def test_subspace_bases_count_every_subspace_once():
    # the Gaussian binomials summed over the dimension, k = 0..5
    assert [len(naive_subspace_bases(k)) for k in range(6)] == [1, 2, 5, 16, 67, 374]


@st.composite
def small_rows(draw):
    """Any k x n rows with k <= 5, rank deficient ones included."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(n, 5)))
    return [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(k)]


@given(st.one_of(small_rows(), full_rank_with_repeats().filter(lambda r: len(r) <= 5)))
@example([[1, 1, 0], [1, 1, 0]])  # rank deficient: every subset dependent
@example([[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]])
@settings(max_examples=150, deadline=None)
def test_mobius_oracle_matches_naive_split(rows):
    assert mobius_full_rank_count(rows) == len(naive_subset_split(rows)[1])


def _p_bits(columns: list[int], k: int) -> int:
    """The search candidate layout of P: entry (i, j) at bit i * (n - k) + j."""
    w = len(columns)
    return sum(
        (c >> i & 1) << (i * w + j) for j, c in enumerate(columns) for i in range(k)
    )


@st.composite
def p_blocks(draw, max_k=5):
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k + 1, 11))
    return k, n, draw(st.integers(0, (1 << k * (n - k)) - 1))


@given(p_blocks())
@example((1, 4, 0b101))  # k = 1: one word, popcount ways
@example((2, 6, _p_bits([0, 1, 2, 3], 2)))  # k = 2: the closed form from the start
@example((3, 7, _p_bits([0, 5, 5, 3], 3)))  # a zero column and a repeated column
@example((3, 8, _p_bits([6, 6, 6, 0, 0], 3)))  # repeated zero and nonzero columns
@example((3, 8, _p_bits([3, 5, 6, 7, 3], 3)))  # three words with a line {3, 5, 6}
@example((5, 10, 0x13EECF8))  # min(k, n - k) > 4: basis_count orders the columns
@example((6, 12, 0xB4164D839))
@settings(max_examples=120, deadline=None)
def test_systematic_count_matches_basis_count_and_mobius(block):
    k, n, p_bits = block
    w = n - k
    p = [[p_bits >> (i * w + j) & 1 for j in range(w)] for i in range(k)]
    columns = [sum(p[i][j] << i for i in range(k)) for j in range(w)]
    expected = basis_count(BitMatrix(k, n, systematic_rows(p_bits, k, w)))
    assert next(counting.systematic_counts([p_bits], k, w)) == expected
    permuted = _p_bits(columns[1:] + columns[:1], k)  # column 0 moved last
    assert next(counting.systematic_counts([permuted], k, w)) == expected
    unit = [[int(c == i) for c in range(k)] for i in range(k)]
    assert mobius_full_rank_count([unit[i] + p[i] for i in range(k)]) == expected


def _text_key_start(p_bits: int, k: int, w: int) -> tuple[int, ...]:
    """The DP start of block P the way text keys made it: P's columns as 0/1
    text, row 0 first, sorted, then parsed back into rows over the sorted
    columns, the identity's bit n - 1 - i on row i."""
    n = k + w
    text = format(p_bits, f"0{k * w}b")[::-1]
    key = "".join(sorted([text[j::w] for j in range(w)]))
    return tuple(1 << (n - 1 - i) | int(key[i::k], 2) for i in range(k))


@pytest.mark.parametrize("k, w", [(4, 5), (4, 8), (4, 9), (4, 40), (5, 7), (6, 3), (7, 9),
                                  (8, 3), (9, 6), (9, 11), (12, 6), (16, 2), (17, 1),
                                  (17, 4)])
def test_systematic_count_walks_the_start_that_text_keys_built(k, w, monkeypatch):
    # byte-field keys must give _walk exactly the start the sorted text did,
    # one or two bytes a field, w past 8 columns
    rng = random.Random(35 * k + w)
    column = rng.getrandbits(k)
    repeated = _p_bits([column] * w, k)
    blocks = [0, (1 << k * w) - 1, repeated, _p_bits([column, 0] * (w // 2) + [0] * (w % 2), k),
              *[rng.getrandbits(k * w) for _ in range(4)]]
    starts = []
    walk = counting._walk

    def spy(start, n, budget, closed):
        starts.append(start)
        return walk(start, n, budget, closed)

    monkeypatch.setattr(counting, "_walk", spy)
    for p_bits in blocks:
        del starts[:]
        score = next(counting.systematic_counts([p_bits], k, w))
        assert starts == [_text_key_start(p_bits, k, w)]
        assert score == basis_count(BitMatrix(k, k + w, systematic_rows(p_bits, k, w)))


@pytest.mark.parametrize("width", [1, 7, 8, 13, 20, 36])
def test_bit_tables_move_each_bit_as_a_plain_loop_does(width):
    rng = random.Random(width)
    places = rng.sample(range(2 * width + 5), width)
    for b in rng.sample(range(width), width // 3):
        places[b] = None  # dropped
    tables = counting._bit_tables(places)
    assert len(tables) == -(-width // 8) and all(len(t) == 256 for t in tables)
    for x in [0, (1 << width) - 1, *[rng.getrandbits(width) for _ in range(50)]]:
        moved = sum(1 << places[b] for b in range(width)
                    if x >> b & 1 and places[b] is not None)
        assert sum(map(getitem, tables, x.to_bytes(len(tables), "little"))) == moved
    # bits past the places, in the last byte, are dropped too
    if width % 8:
        top = (1 << 8 * len(tables)) - (1 << width)
        assert sum(map(getitem, tables, top.to_bytes(len(tables), "little"))) == 0


@given(p_blocks(max_k=3))
@example((1, 2, 0))  # k = 1, all-zero P: only the identity column counts
@example((1, 6, 0b10110))  # k = 1: the nonzero columns
@example((2, 5, 0))  # all-zero P
@example((3, 6, 0))
@example((2, 6, _p_bits([3, 3, 1, 3], 2)))  # repeated columns
@example((3, 8, _p_bits([6, 6, 6, 0, 0], 3)))  # repeated zero and nonzero columns
@example((3, 9, _p_bits([3, 5, 6, 7, 7, 3], 3)))  # a Fano line {3, 5, 6}, repeats
@example((1, 2, 1))  # w = 1: [I_3 | P] pads the rows out with coloops
@example((2, 3, 0b01))
@example((2, 3, 0b11))
@settings(max_examples=120, deadline=None)
def test_search_score_of_three_rows_or_fewer_matches_naive_split(block):
    k, n, p_bits = block
    w = n - k
    rows = [[int(c == i) for c in range(k)]
            + [p_bits >> (i * w + j) & 1 for j in range(w)] for i in range(k)]
    independent = len(naive_subset_split(rows)[1])
    assert counting._completions(systematic_rows(p_bits, k, w)) == independent
    assert next(counting.systematic_counts([p_bits], k, w)) == independent  # search's path


@st.composite
def lane_blocks(draw):
    """A shape with k * w <= 16 and a few blocks of it, scored side by side."""
    k = draw(st.integers(1, 16))
    w = draw(st.integers(1, 16 // k))
    return k, k + w, draw(st.lists(st.integers(0, (1 << k * w) - 1), min_size=1, max_size=6))


def _dp_score(p_bits: int, k: int, w: int) -> int:
    """The DP path: ``_walk`` from the reduced basis of [I | P]."""
    start = reduced_basis(BitMatrix(k, k + w, systematic_rows(p_bits, k, w)))
    return counting._walk(start, k + w, counting.DEFAULT_BUDGET, {})


@given(lane_blocks())
@example((16, 17, [0, 0xFFFF, 0x8001]))  # w = 1: one column beside I_16
@example((1, 17, [0xFFFF, 0, 0x00F0]))  # k = 1: the nonzero columns
@example((4, 8, [_p_bits([0, 5, 5, 9], 4), _p_bits([15, 15, 15, 15], 4)]))  # zero, repeats
@example((3, 8, [_p_bits([6, 6, 6, 0, 0], 3), _p_bits([3, 5, 6, 7, 3], 3)]))
@example((2, 10, [_p_bits([0, 3, 3, 1, 0, 2, 2, 3], 2)]))
@example((8, 10, [0, 0xFFFF]))
@example((2, 10, [0xFFFF, 0, 0x00FF, 0xFF00, 0x0180]))  # 2 x 8 blocks: the widest w
@example((4, 8, [0x8421, 0x1248, 0xFFFF, 0x8421 ^ 0x1248]))  # 4 x 4: diagonals, all ones
@settings(max_examples=120, deadline=None)
def test_minor_scores_match_naive_split_and_the_dp(block):
    k, n, blocks = block
    w = n - k
    scores = list(counting._minor_scores(blocks, k, w))
    naive = []
    for p_bits in blocks:
        rows = [[int(c == i) for c in range(k)]
                + [p_bits >> (i * w + j) & 1 for j in range(w)] for i in range(k)]
        naive.append(len(naive_subset_split(rows)[1]))
    assert scores == naive
    assert scores == [_dp_score(p_bits, k, w) for p_bits in blocks]
    assert list(counting.systematic_counts(blocks, k, w)) == scores  # search's path


def test_minor_scores_keep_their_order_across_passes(monkeypatch):
    blocks = list(range(0, 1 << 16, 97))  # 4 x 8 blocks
    whole = list(counting._minor_scores(blocks, 4, 4))
    monkeypatch.setattr(counting, "_MINOR_LANES", 5)  # 136 passes, the last one short
    assert list(counting._minor_scores(blocks, 4, 4)) == whole
    assert whole == [_dp_score(p_bits, 4, 4) for p_bits in blocks]


def test_minor_schedule_is_compiled_once_a_shape(monkeypatch):
    counting._minor_schedule.cache_clear()
    monkeypatch.setattr(counting, "_MINOR_LANES", 7)  # many passes a call
    blocks = list(range(0, 1 << 12, 37))
    for _ in range(2):  # across calls
        list(counting._minor_scores(blocks, 4, 4))
        list(counting._minor_scores(blocks, 3, 4))
    assert counting._minor_schedule.cache_info().misses == 2
    # 4 x 4: 16 entries, 36 minors of 2 x 2 from two terms each, 16 of 3 x 3
    # from three and the 4 x 4 one from four
    size, steps = counting._minor_schedule(4, 4)
    assert (size, len(steps)) == (16 + 36 + 16 + 1, 36 * 2 + 16 * 3 + 4)


def _lex_bitmap(family: set, n: int, size: int) -> int:
    """Bit i set iff family holds the i-th size-subset of range(n) in lex order."""
    subsets = combinations(range(n), size)
    return sum(1 << i for i, s in enumerate(subsets) if s in family)


@given(full_rank_with_repeats())
@example([[1, 0, 1, 1, 0]])  # k = 1 with zero and repeated columns
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # k = n
@example([[1, 1, 0, 0, 1, 0], [0, 0, 1, 1, 0, 0]])  # zero and repeated columns
@settings(max_examples=150, deadline=None)
def test_scan_matches_naive_split(rows):
    m = BitMatrix.from_lists(rows)
    dep, ind = naive_subset_split(rows)
    res = brute_force_counts(m, collect_sets=True)
    assert list(res.dependent_sets) == dep
    assert list(res.independent_sets) == ind
    assert res.bitmap == _lex_bitmap(set(ind), m.cols, m.rows)
    assert (res.singular_count, res.full_rank_count) == (len(dep), len(ind))


@given(full_rank_with_repeats())
@example([[1, 0, 1, 1, 0]])
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
@example([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]])  # k > n - k: m's side is a reversal
@settings(max_examples=80, deadline=None)
def test_dual_bitmap_is_generator_bitmap_reversed(rows):
    k, n = len(rows), len(rows[0])
    dual_rows = naive_dual_basis(rows)
    h = BitMatrix.from_lists(dual_rows) if dual_rows else BitMatrix(0, n, ())
    independent = set(naive_subset_split(rows)[1])
    # an (n - k)-subset is independent for the dual iff its complement is for m
    complements = {
        t for t in combinations(range(n), n - k)
        if tuple(j for j in range(n) if j not in t) in independent
    }
    g_bitmap = brute_force_counts(BitMatrix.from_lists(rows)).bitmap
    h_bitmap = brute_force_counts(h).bitmap
    total = comb(n, k)
    # the taller side is scanned as its dual and reversed, so check each side on its own
    assert g_bitmap == _lex_bitmap(independent, n, k)
    assert h_bitmap == _lex_bitmap(complements, n, n - k)
    assert h_bitmap == int(format(g_bitmap, f"0{total}b")[::-1], 2)


def test_scan_of_a_matrix_taller_than_the_recursion_limit():
    # [I_k | a | b]: S is a basis iff the two columns left out are independent in the
    # 2-row dual [a^T; b^T | I_2], whose column j reads (a_j, b_j); one scan level a row
    # would exceed the recursion limit, so the scan must walk the 2-row side
    k = sys.getrecursionlimit() + 100
    rng = random.Random(0)
    a, b = rng.getrandbits(k), rng.getrandbits(k)
    m = BitMatrix(k, k + 2, tuple(1 << i | (a >> i & 1) << k | (b >> i & 1) << (k + 1)
                                  for i in range(k)))
    kinds = Counter((a >> i & 1) | (b >> i & 1) << 1 for i in range(k))
    kinds.update((1, 2))
    independent = kinds[1] * kinds[2] + kinds[1] * kinds[3] + kinds[2] * kinds[3]
    res = brute_force_counts(m, collect_sets=True, set_limit=0)
    assert (res.singular_count, res.full_rank_count) == (comb(k + 2, 2) - independent,
                                                         independent)
    assert res.dependent_sets is res.independent_sets is None
    assert analyze(m, "oracle").full_rank_count == independent


def test_verify_scans_each_side_as_given(monkeypatch):
    # the complement-duality check compares two independent scans: m's side and
    # the dual's, each walked as given, never one side's dual reversed
    scanner = counting._scanner
    scanned = []

    def spy(k, n, scans=1, lane_rows=None):
        scan = scanner(k, n, scans, lane_rows)

        def recorded(rows):
            scanned.append((k, tuple(rows)))
            return scan(rows)
        return recorded

    monkeypatch.setattr(counting, "_scanner", spy)
    for k, n in ((6, 14), (8, 14)):
        scanned.clear()
        m = random_full_rank(k, n, seed=2)
        assert all(ok for _, ok in counting.verify_checks(m))
        assert all(len(rows) == shape for shape, rows in scanned)
        # m once, its bitmap serving both checks, and the 20 variants on m's
        # side, and the dual
        assert Counter(len(rows) for _, rows in scanned) == {k: 21, n - k: 1}
        assert [rows for _, rows in scanned].count(m.bits) == 1
        assert (n - k, dual_of(m).bits) in scanned


def test_verify_builds_each_lane_row_once_for_both_sides(monkeypatch):
    # a default verify hands one store of Pascal lane rows H(m, r) to the k-row
    # scanner and to the dual's (n - k)-row scanner, which build each row once
    scanner = counting._scanner
    stores = []  # (the store verify made, a recording stand-in for it)
    built = []

    class Recording(dict):
        def __setitem__(self, key, row):
            built.append(key)
            super().__setitem__(key, row)

    def spy(k, n, scans=1, lane_rows=None):
        given = next((pair for pair in stores if pair[0] is lane_rows), None)
        if given is None:
            given = (lane_rows, Recording())
            stores.append(given)
        return scanner(k, n, scans, given[1])

    monkeypatch.setattr(counting, "_scanner", spy)
    for k, n in ((6, 14), (7, 16)):
        stores.clear()
        built.clear()
        m = random_full_rank(k, n, seed=3)
        assert all(ok for _, ok in counting.verify_checks(m))
        assert len(stores) == 1 and stores[0][0] is not None
        assert built and Counter(built).most_common(1)[0][1] == 1
        # the dual's scanner uses rows of more than k words, none of them rebuilt
        assert max(r for _, r in built) > k


@given(st.integers(1, 12).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(1, m), st.integers(0, (1 << m) - 1))))
@settings(max_examples=200, deadline=None)
def test_a_word_heavier_than_m_minus_rem_meets_every_completion(case):
    # the scan's closed state leaves such a word out of its AND: its OR is every lane
    m, rem, w = case
    meets_all = all(any(w >> c & 1 for c in cols) for cols in combinations(range(m), rem))
    assert meets_all == (w.bit_count() > m - rem)


def _rows_of(cols: list[int], k: int) -> list[list[int]]:
    """The k rows of the matrix whose column j holds bit i of cols[j] in row i."""
    return [[(c >> i) & 1 for c in cols] for i in range(k)]


@st.composite
def deep_scan_matrices(draw):
    """Full-row-rank k x n rows with k = 4..7 and n <= 12.

    The scan then reaches its three-word level below at least one
    recursive level.  k unit columns give the full rank; each other
    column is drawn at random or from a small pool that holds the zero
    column, so zero and repeated columns are common.
    """
    k = draw(st.integers(4, 7))
    return _draw_rows(draw, k, draw(st.integers(k, 12)))


def _draw_rows(draw, k: int, n: int) -> list[list[int]]:
    """k unit columns at random places, the rest from a pool holding 0, or random."""
    pivots = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    pool = [0] + draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=4))
    column = st.one_of(st.sampled_from(pool), st.integers(0, (1 << k) - 1))
    cols = [draw(column) for _ in range(n)]
    for i, j in enumerate(pivots):
        cols[j] = 1 << i
    return _rows_of(cols, k)


@given(deep_scan_matrices())
@example(_rows_of([1, 2, 3, 0, 1, 3], 2))  # k = 2: the top state branches to one-word leaves
@example(_rows_of([1, 2, 0, 4, 6, 6, 5], 3))  # k = 3: the top state runs the three-word loop
@example(_rows_of([1, 2, 4, 8, 16], 5))  # k = n
# after column 0, a three-word state over a zero column (2) and a repeated one (4, 5)
@example(_rows_of([1, 2, 0, 4, 6, 6, 8, 9], 4))
@settings(max_examples=60, deadline=None)
def test_scan_below_the_top_level_matches_naive_split(rows):
    m = BitMatrix.from_lists(rows)
    k, n = m.rows, m.cols
    dep, ind = naive_subset_split(rows)
    res = brute_force_counts(m, collect_sets=True)
    assert list(res.dependent_sets) == dep
    assert list(res.independent_sets) == ind
    assert res.bitmap == _lex_bitmap(set(ind), n, k)
    assert row_op_invariance_check(m, trials=3)
    assert complement_duality_check(m)


def test_two_word_scan_states_match_naive_split_past_the_strategies():
    # the strategies stop at n = 9: here a 2-row top closes in one loop up to
    # n = 30, and a 3-row top branches below n = 20, each child a two-word state
    rng = random.Random(33)
    for k, n in [(2, n) for n in range(3, 31)] + [(3, n) for n in range(10, 20)]:
        assert k == 2 or not counting._closes(n, k, k, n, 1)
        for zeros, repeats in ((0, 0), (1, 0), (0, 2), (2, 1)):
            if zeros + repeats + k > n:
                continue
            cols = random_columns(rng, k, n, zeros, repeats)
            rows = [[c >> i & 1 for c in cols] for i in range(k)]
            ind = naive_subset_split(rows)[1]
            assert brute_force_counts(BitMatrix.from_lists(rows)).bitmap == _lex_bitmap(
                set(ind), n, k)


@st.composite
def closing_scan_cases(draw):
    """(rows, cap, width): full-row-rank k x n rows, n <= 14, a cap on the
    bits of one shape's OR tables, and a chunk width, 0 for the scan's rule.

    The rule (above ``counting._CLOSE_MAX_TABLE_BITS``) closes a state of
    rem words over m later columns at the cheapest width c <= 8 whose
    tables fit the cap, when closing beats branching and beats closing
    its kids.  Below n = 9 no state passes it, so every state branches;
    from n = 9 the tops of k = 4 or 5 to n - 4 close, at widths 3 to 7,
    as do some deeper states, and no table here nears the real cap.  A cap of 2^16
    or 2^12 bits makes a top branch while a smaller child can still
    close.  With a width, the rule is skipped: every state of three or
    more words whose tables fit the cap closes at that width, whatever
    its chunks look like.
    Columns mix units, a pool that holds the zero column, and random ones.
    """
    n = draw(st.one_of(st.integers(1, 12), st.integers(13, 14)))
    k = min(n, draw(st.one_of(st.integers(1, n), st.integers(5, 8))))
    cap = draw(st.sampled_from([counting._CLOSE_MAX_TABLE_BITS, 1 << 16, 1 << 12]))
    width = draw(st.one_of(st.just(0), st.integers(1, counting._MAX_CHUNK_BITS)))
    return _draw_rows(draw, k, n), cap, width


_CAP = counting._CLOSE_MAX_TABLE_BITS
_UNITS_14 = [1 << i for i in range(14)]


def _table_bits(m: int, rem: int, width: int) -> int:
    """Bits of the OR tables of a shape: 2^w entries of C(m, rem) bits per chunk of w columns."""
    return sum(1 << min(width, m - g) for g in range(0, m, width)) * comb(m, rem)


@given(closing_scan_cases())
# every width's tables of the top, C(14, 6) = 3003 lanes, exceed 2^16 bits (28 x 3003 at
# widths 1 and 2), so it branches; its child (13, 5) fits at widths up to 4 and closes
# at 3: 31 words x (2 + 2 x 5 lookups) = 372 < 810 for its kids, and 372 + 4 x 34
# entries + 4 x 5 x 13 = 768 < 5 x C(13, 4) = 3575 for branching
@example((_rows_of([1, 2, 4, 8, 16, 32, 3, 0, 5, 3, 63, 12, 48, 0], 6), 1 << 16, 0))
# k = 2 never closes, and k = 3 fails the rule at its top, its one state of three words:
# its cheapest close, 392 at width 2, exceeds 3 x C(14, 2) = 273: k = 2 branches to
# one-word leaves, k = 3 runs the three-word loop
@example((_rows_of([1, 2, 3, 0, 2, 1, 3, 3, 0, 1, 2, 3, 1, 2], 2), _CAP, 0))
@example((_rows_of([1, 2, 4, 7, 0, 3, 5, 6, 7, 1, 0, 2, 4, 6], 3), _CAP, 0))
# k = 12 of 14: no state has m - rem > 2, and at every one of them closing's 2^rem - 1
# words cost more than branching, so every state branches
@example((_rows_of(_UNITS_14[:12] + [4095, 1365], 12), _CAP, 0))
@example((_rows_of([1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1], 1), _CAP, 0))  # k = 1
# k = n = 13: one lane, and closing's 8191 words never pay, so it branches
@example((_rows_of(_UNITS_14[:13], 13), _CAP, 0))
# the top (13, 6) closes at width 5, 63 words x (2 + 2 x 3) + 4 x 72 + 4 x 6 x 13 = 1104 <
# 6 x C(13, 5) = 7722, over zero columns and repeated ones
@example((_rows_of([1, 2, 4, 8, 16, 32, 0, 7, 7, 0, 33, 33, 7], 6), _CAP, 0))
# closed tops at the chunk edges, m = 3, 4, 5 and 9 with chunks of 4 columns: one
# part chunk; one whole chunk; a chunk and a one-column tail, one word inside the
# tail (column 4) and one (columns 0, 3, 4) over both; two chunks and a tail, one
# word inside the middle chunk (columns 4..7) and one (0, 3, 5, 8) over all three
@example((_rows_of([1, 3, 7], 3), _CAP, 4))
@example((_rows_of([1, 2, 4, 7], 3), _CAP, 4))
@example((_rows_of([1, 2, 4, 7, 9], 4), _CAP, 4))
@example((_rows_of([2, 4, 8, 6, 1, 3, 1, 9, 6], 4), _CAP, 4))
# chunks of one column and of eight, the widest, over a 9-column top
@example((_rows_of([2, 4, 8, 6, 1, 3, 1, 9, 6], 4), _CAP, 1))
@example((_rows_of([2, 4, 8, 6, 1, 3, 1, 9, 6], 4), _CAP, 8))
# closed tops at the edges of two and three tables, each with row 0 inside the last
# table alone: m = 13 at width 7, a part last table (columns 7..12); m = 9 at width 8,
# a last table of one column (8), row 0 the word of that coloop; m = 14 at width 5,
# a part third table (columns 10..13)
@example((_rows_of([2, 4, 8, 6, 10, 12, 14, 1, 3, 5, 9, 7, 11], 4), _CAP, 7))
@example((_rows_of([2, 4, 8, 6, 10, 12, 14, 2, 1], 4), _CAP, 8))
@example((_rows_of([2, 4, 8, 16, 6, 10, 12, 14, 18, 20, 1, 3, 5, 7], 5), _CAP, 5))
# controls: one table (m = 8 at width 8) and four (m = 14 at width 4, the last of two columns)
@example((_rows_of([1, 2, 4, 3, 5, 6, 7, 1], 3), _CAP, 8))
@example((_rows_of([2, 4, 8, 16, 6, 10, 12, 14, 18, 20, 1, 3, 5, 7], 5), _CAP, 4))
@settings(max_examples=40, deadline=None)
def test_scan_on_both_sides_of_the_closing_rule_matches_naive_split(case):
    rows, cap, width = case
    k, n = len(rows), len(rows[0])
    dep, ind = naive_subset_split(rows)
    with pytest.MonkeyPatch.context() as patch:
        _close_under(patch, cap, width)
        res = brute_force_counts(BitMatrix.from_lists(rows), collect_sets=True)
    assert list(res.dependent_sets) == dep
    assert list(res.independent_sets) == ind
    assert res.bitmap == _lex_bitmap(set(ind), n, k)
    assert (res.singular_count, res.full_rank_count) == (len(dep), len(ind))


def _close_under(patch, cap: int, width: int) -> None:
    """Cap the scan's table bits; with a width, close each state whose tables fit at it."""
    patch.setattr(counting, "_CLOSE_MAX_TABLE_BITS", cap)
    if width:
        patch.setattr(counting, "_closes", lambda m, rem, k, n, scans: (
            width if _table_bits(m, rem, width) <= cap else 0))


def test_closing_rule_examples_close_where_their_comments_say(monkeypatch):
    closed = []
    closes = counting._closes

    def record(m, rem, k, n, scans):
        width = closes(m, rem, k, n, scans)
        if width:
            closed[-1].add((m, rem, width))
        return width

    monkeypatch.setattr(counting, "_closes", record)
    for k, n, cap in [(6, 14, 1 << 16), (2, 14, _CAP), (3, 14, _CAP), (12, 14, _CAP),
                      (1, 14, _CAP), (13, 13, _CAP), (6, 13, _CAP), (12, 18, 1 << 19)]:
        monkeypatch.setattr(counting, "_CLOSE_MAX_TABLE_BITS", cap)
        closed.append(set())
        counting._scanner(k, n)([1 << i for i in range(k)])
    assert closed == [{(13, 5, 3), (12, 5, 3), (11, 5, 4), (10, 5, 4), (9, 5, 3)},
                      set(), set(), set(), set(), set(), {(13, 6, 5)},
                      {(16, 11, 4), (16, 10, 4), (15, 11, 8), (15, 10, 5), (14, 10, 7),
                       (13, 10, 7), (8, 6, 8)}]


@pytest.mark.parametrize("k, n, top, dual", [(6, 14, 7, 5), (7, 16, 8, 6)])
def test_verify_closes_its_tops_with_two_tables_and_the_duals_with_three(k, n, top, dual,
                                                                          monkeypatch):
    # verify's 21 scans of m close their top state alone, at a width that splits its
    # n columns into two OR tables, and the one scan of the dual at three tables
    closed = set()
    closes = counting._closes

    def record(m, rem, rows, cols, scans):
        width = closes(m, rem, rows, cols, scans)
        if width:
            closed.add((m, rem, scans, width))
        return width

    monkeypatch.setattr(counting, "_closes", record)
    for seed in (1, 2):
        closed.clear()
        assert all(ok for _, ok in counting.verify_checks(random_full_rank(k, n, seed=seed),
                                                          trials=20, seed=seed))
        assert closed == {(n, k, 21, top), (n, n - k, 1, dual)}
    assert (-(-n // top), -(-n // dual)) == (2, 3)


def test_every_closing_shape_keeps_its_tables_under_the_bit_cap(monkeypatch):
    # a closed shape keeps one table of 2^width ORs per chunk of its m columns,
    # each of C(m, rem) bits, for as long as the scanner
    def closing():
        shapes = set()
        for n in range(1, 25):
            for k in range(3, n + 1):
                for rem in range(3, k + 1):
                    for m in range(rem, n - k + rem + 1):
                        for scans in (1, 22):
                            width = counting._closes(m, rem, k, n, scans)
                            if width:
                                shapes.add((m, rem, k, n, scans, width))
        return shapes

    capped = closing()
    for m, rem, k, n, scans, width in capped:
        assert 1 <= width <= counting._MAX_CHUNK_BITS
        assert _table_bits(m, rem, width) <= counting._CLOSE_MAX_TABLE_BITS
    # a table shared by more scans takes chunks at least as wide
    assert all(counting._closes(m, rem, k, n, 22) >= width
               for m, rem, k, n, scans, width in capped if scans == 1)
    monkeypatch.setattr(counting, "_CLOSE_MAX_TABLE_BITS", 1 << 40)
    lifted = closing()
    assert {s[:5] for s in capped} < {s[:5] for s in lifted}  # the cap refuses some shape


@st.composite
def closing_scan_batches(draw):
    """(matrices, cap, width): one to four full-row-rank matrices of one k x n shape,
    n <= 14, the first, the cap and the width from ``closing_scan_cases``."""
    rows, cap, width = draw(closing_scan_cases())
    k, n = len(rows), len(rows[0])
    more = [_draw_rows(draw, k, n) for _ in range(draw(st.integers(0, 3)))]
    return [BitMatrix.from_lists(r) for r in [rows, *more]], cap, width


@given(closing_scan_batches())
# at 12 x 18 under a 2^19 cap the top branches while (16, 11), (16, 10), (15, 11) and
# deeper shapes close
@example(([random_full_rank(12, 18, seed=s) for s in (3, 4, 5)], 1 << 19, 0))
@settings(max_examples=30, deadline=None)
def test_one_scan_call_over_several_row_sets_matches_one_call_per_set(case):
    matrices, cap, width = case
    k, n = matrices[0].rows, matrices[0].cols
    with pytest.MonkeyPatch.context() as patch:
        _close_under(patch, cap, width)
        alone = [brute_force_counts(m).bitmap for m in matrices]
        scan = counting._scanner(k, n, len(matrices))
        assert [scan(m.bits) for m in matrices] == alone


def test_row_op_invariance_check_decides_each_shape_once(g74, monkeypatch):
    decided = []
    closes = counting._closes
    monkeypatch.setattr(counting, "_closes",
                        lambda *shape: decided.append(shape) or closes(*shape))
    scanners = []
    scanner = counting._scanner
    monkeypatch.setattr(counting, "_scanner",
                        lambda *args: scanners.append(args) or scanner(*args))
    assert row_op_invariance_check(g74, trials=20)
    # one table for the base and the 20 variants, told of all 21
    assert scanners == [(4, 7, 21)]
    assert decided and len(set(decided)) == len(decided)
    assert {scans for *_, scans in decided} == {21}


# the ordered pairs (i, j != i) at index d // 2 of a row operation's digit d
_PAIRS = {2: [(0, 1), (1, 0)], 3: [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]}


class _StubRng:
    """Answers randrange(a, b) with steps and randrange(a) with seq, recording each call."""

    def __init__(self, steps: int, seq: int) -> None:
        self.steps, self.seq, self.calls = steps, seq, []

    def randrange(self, a: int, b: Optional[int] = None) -> int:
        self.calls.append((a, b))
        return self.seq if b is None else self.steps


@pytest.mark.parametrize("k", [2, 3])
def test_row_op_draw_decodes_each_digit_as_one_row_operation(k):
    # one draw picks the whole sequence, uniform over base-2k(k - 1) numbers of
    # steps digits, so the digits are independent and each uniform over the
    # operations: digit d adds row j into row i, or swaps them for odd d,
    # (i, j) = _PAIRS[k][d // 2]
    rows = [0b1 << i | 0b1000 << i for i in range(k)]
    ops = 2 * k * (k - 1)
    for steps in (k, 3 * k):
        for place in range(steps):
            for d in range(ops):
                rng = _StubRng(steps, d * ops ** place)
                (variant,) = counting._row_equivalents(rows, 1, rng)
                want = list(rows)
                for digit in [0] * place + [d] + [0] * (steps - place - 1):
                    i, j = _PAIRS[k][digit // 2]
                    if digit % 2:
                        want[i], want[j] = want[j], want[i]
                    else:
                        want[i] ^= want[j]
                assert variant == want
                # k..3k operations, then one draw over every sequence of that many
                assert rng.calls == [(k, 3 * k + 1), (ops ** steps, None)]


def _divmod_row_equivalents(rows, trials, rng):
    """The row-op variants as first decoded: each digit read by divmod on the spot."""
    k = len(rows)
    ops = 2 * k * (k - 1)
    for _ in range(trials):
        work = list(rows)
        if k > 1:
            steps = rng.randrange(k, 3 * k + 1)
            seq = rng.randrange(ops ** steps)
            for _ in range(steps):
                seq, d = divmod(seq, ops)
                i, j = divmod(d >> 1, k - 1)
                j += j >= i
                if d & 1:
                    work[i], work[j] = work[j], work[i]
                else:
                    work[i] ^= work[j]
        yield work


@pytest.mark.parametrize("k, seed", [(1, 0), (2, 1), (4, 2), (6, 3), (7, 4), (9, 5)])
def test_row_op_lookup_draws_the_variants_of_the_divmod_decoding(k, seed):
    rows = random_full_rank(k, 2 * k + 2, seed=seed).bits
    assert (list(counting._row_equivalents(rows, 20, random.Random(seed)))
            == list(_divmod_row_equivalents(rows, 20, random.Random(seed))))


def test_row_op_draws_repeat_with_their_seed(g74):
    def variants(seed):
        return list(counting._row_equivalents(g74.bits, 20, random.Random(seed)))

    assert variants(5) == variants(5)
    assert variants(5) != variants(6)
    assert all(rank(BitMatrix(4, 7, tuple(v))) == 4 for v in variants(5))
    # one row needs no operation and draws nothing
    assert list(counting._row_equivalents((5,), 2, _StubRng(0, 0))) == [[5], [5]]


def test_verify_checks_match_the_two_public_checks(h74):
    for m, h in [(random_full_rank(6, 14, seed=1), None), (random_full_rank(7, 14, seed=2), None),
                 (load_fixture("g_7_4.txt"), None), (load_fixture("g_7_4.txt"), h74),
                 (random_full_rank(1, 5, seed=3), None), (random_full_rank(5, 5, seed=4), None)]:
        assert counting.verify_checks(m, h, trials=4, seed=9) == [
            ("dual pairing", True),
            ("complement duality", complement_duality_check(m, h)),
            ("row op invariance (4 trials)", row_op_invariance_check(m, 4, seed=9)),
        ]
    bad = BitMatrix(h74.rows, 7, (h74.bits[0] ^ 1,) + h74.bits[1:])
    g = load_fixture("g_7_4.txt")
    assert counting.verify_checks(g, bad, trials=2)[:2] == [
        ("dual pairing", False), ("complement duality", False)]
    with pytest.raises(BudgetError, match="scanning both sides"):
        counting.verify_checks(g, budget=60)
    with pytest.raises(BudgetError, match="21 scans"):
        counting.verify_checks(g, budget=100)


def test_duality_checks_judge_the_rank_of_m_before_a_supplied_dual():
    # h is a valid dual for m's row space, but m has rank 1, not 2
    m = parse_matrix("1100\n1100")
    h = parse_matrix("1100\n0010")
    assert rank(h) == 2 and not any((a & b).bit_count() & 1 for a in m.bits for b in h.bits)
    with pytest.raises(RankError, match="full row rank 2 required"):
        complement_duality_check(m, h)
    with pytest.raises(RankError, match="full row rank 2 required"):
        counting.verify_checks(m, h, trials=2)
    with pytest.raises(RankError, match="full row rank 2 required"):
        counting.verify_checks(m, trials=2)


def test_scan_closing_below_the_top_matches_the_dp_at_12x18(monkeypatch):
    # under a 2^19 cap the top's tables, at least 36 * C(18, 12) = 668,304 bits,
    # do not fit, so it branches while deeper states close, (16, 11), (16, 10),
    # (15, 11) and more; on its 6 x 18 dual the top branches by the same count
    # and its children close, (17, 5) to (9, 5) and (7, 4)
    monkeypatch.setattr(counting, "_CLOSE_MAX_TABLE_BITS", 1 << 19)
    m = random_full_rank(12, 18, seed=3)
    assert brute_force_counts(m).full_rank_count == basis_count(m)
    assert complement_duality_check(m)
    assert row_op_invariance_check(m, trials=3)


def test_row_op_invariance_detects_a_changed_family(g74, monkeypatch):
    # swapping columns 0 and 3 turns the dependent {0, 1, 2, 4} into
    # {1, 2, 3, 4}, which is independent; a check that compared only
    # counts, or nothing, would still pass
    swap = (3, 1, 2, 0, 4, 5, 6)
    assert (1, 2, 3, 4) not in D_SETS_74
    monkeypatch.setattr(counting, "_row_equivalents", lambda rows, trials, rng: (
        permute_columns(BitMatrix(len(rows), 7, rows), swap).bits for _ in range(trials)))
    assert not row_op_invariance_check(g74, trials=1)


def test_complement_duality_detects_one_flipped_subset(g74_sys, h74, monkeypatch):
    scanner = counting._scanner

    def flip_on_dual(k, n, scans=1, lane_rows=None):
        scan = scanner(k, n, scans, lane_rows)
        return (lambda rows: scan(rows) ^ 1) if k == 3 else scan

    assert complement_duality_check(g74_sys, h74)
    monkeypatch.setattr(counting, "_scanner", flip_on_dual)
    assert not complement_duality_check(g74_sys, h74)


def test_oracle_scan_matches_dp_at_9x22():
    # 1,903 visits to states of four or more words
    m = random_full_rank(9, 22, seed=4)
    assert analyze(m, "oracle").full_rank_count == basis_count(m, budget=25_000)


def test_both_mode_checks_the_formula_against_the_scan(g74, monkeypatch):
    scan = counting.brute_force_counts

    def one_more_dependent(m, **kwargs):
        res = scan(m, **kwargs)
        return BruteForceResult(res.singular_count + 1, res.full_rank_count,
                                res.dependent_sets, res.independent_sets, res.bitmap)

    monkeypatch.setattr(counting, "brute_force_counts", one_more_dependent)
    with pytest.raises(ConsistencyError, match="formula gives D=7 but the scan found D=8"):
        analyze(g74, mode="both")


def test_both_mode_checks_the_dp(g74, monkeypatch):
    assert analyze(g74, mode="both").method == "both"
    monkeypatch.setattr(counting, "basis_count", lambda gen, *, budget: 0)
    with pytest.raises(ConsistencyError,
                       match="the scan found D=7 but the subset DP found D=35"):
        analyze(g74, mode="both")
