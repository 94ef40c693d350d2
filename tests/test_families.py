"""Textbook codes with closed-form counts, through ``analyze`` and ``count``.

A set of k columns of the simplex code S_m is independent when it is a
basis of F_2^m, and the bases number |GL(m, 2)| / m! as sets.  Its dual
is the Hamming code, with the same I by complement duality.  A basis of
RM(1, m) is a set of m + 1 affinely independent points of F_2^m, which
number 2^m |GL(m, 2)| / (m + 1)!.  For the extended Golay code the
tests pin I = 1,391,040 and its known weight distribution.  The Hamming
codes, RM(1, 3) and Golay have k >= n - k, so they take the dual branch
through ``dual_of``; the Hamming codes of m = 5
and 6 and Golay then run the DP on the dual.  Through ``weights`` and
``weights --dual``, S_m has 2^m - 1 words of weight 2^(m - 1), RM(1, m)
has 2^(m + 1) - 2 of weight 2^(m - 1) and one of weight 2^m, and the
Hamming code's enumerator is [(1 + y)^n + n (1 - y)(1 - y^2)^((n - 1) / 2)]
/ (n + 1) (MacWilliams & Sloane 1977).

A graph's grounded incidence matrix has the spanning trees for its
bases, which an integer determinant counts (``naive.kirchhoff_count``),
sharing nothing with GF(2) elimination.  The determinant is checked
against Cayley's m^(m - 2) for K_m and a^(b - 1) b^(a - 1) for K_{a,b},
and the package against it on complete, complete bipartite, wheel, grid
and random graphs, on both of ``analyze``'s sides.
"""

import json
from math import factorial

import pytest

from families import (complete_bipartite, complete_graph, extended_golay, gl_order, grid,
                      grounded_incidence, hamming, random_connected, reed_muller_1, simplex,
                      wheel)
from gf2count import (BitMatrix, analyze, basis_count, brute_force_counts,
                      complement_duality_check, row_op_invariance_check)
from gf2count.cli import main
from naive import kirchhoff_count

SIMPLEX_I = dict(zip(range(3, 7), (28, 840, 83_328, 27_998_208)))
RM1_I = dict(zip(range(3, 7), (56, 2_688, 444_416, 255_983_616)))
CASES = (
    [pytest.param(simplex(m), "primal", 2 ** (m - 1), i, id=f"simplex-{m}")
     for m, i in SIMPLEX_I.items()]
    + [pytest.param(hamming(m), "dual", 2 ** (m - 1), i, id=f"hamming-{m}")
       for m, i in SIMPLEX_I.items()]
    + [pytest.param(reed_muller_1(m), "dual" if m == 3 else "primal", 2 ** (m - 1), i,
                    id=f"rm1-{m}") for m, i in RM1_I.items()]
    + [pytest.param(extended_golay(), "dual", 8, 1_391_040, id="golay")]
)

GOLAY_WEIGHTS = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def _times(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def hamming_weights(m: int) -> dict[int, int]:
    """[(1 + y)^n + n (1 - y)(1 - y^2)^((n - 1) / 2)] / (n + 1), n = 2^m - 1."""
    n = 2 ** m - 1
    ones, odd = [1], [n, -n]
    for _ in range(n):
        ones = _times(ones, [1, 1])
    for _ in range((n - 1) // 2):
        odd = _times(odd, [1, 0, -1])
    coeffs = [a + b for a, b in zip(ones, odd)]
    assert all(c % (n + 1) == 0 for c in coeffs)
    return {w: c // (n + 1) for w, c in enumerate(coeffs) if c}


def extended(rows: list[list[int]]) -> list[list[int]]:
    """Each row with an overall parity bit appended."""
    return [row + [sum(row) % 2] for row in rows]


ENUMERATORS = {
    "simplex": lambda m: {0: 1, 2 ** (m - 1): 2 ** m - 1},
    "rm1": lambda m: {0: 1, 2 ** (m - 1): 2 ** (m + 1) - 2, 2 ** m: 1},
    "hamming": hamming_weights,
}


@pytest.mark.parametrize("m", range(3, 7))
def test_closed_forms(m):
    assert gl_order(m) // factorial(m) == SIMPLEX_I[m]
    assert 2 ** m * gl_order(m) // factorial(m + 1) == RM1_I[m]


@pytest.mark.parametrize("rows, side, d_star, independent", CASES)
def test_family_through_analyze(rows, side, d_star, independent):
    rep = analyze(BitMatrix.from_lists(rows))
    assert (rep.side, rep.d_star, rep.full_rank_count) == (side, d_star, independent)


@pytest.mark.parametrize("rows, side, d_star, independent", CASES)
def test_family_through_count_json(capsys, tmp_path, rows, side, d_star, independent):
    path = tmp_path / "m.txt"
    path.write_text(str(BitMatrix.from_lists(rows)) + "\n")
    assert main(["count", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["side"], data["d_star"], data["I"]) == (side, d_star, independent)


def test_golay_weight_distribution(capsys, tmp_path):
    # the code is self-dual, so the dual side's distribution is its own
    m = BitMatrix.from_lists(extended_golay())
    assert (m.rows, m.cols) == (12, 24)
    coeffs = analyze(m).enumerator.coeffs
    assert {w: c for w, c in enumerate(coeffs) if c} == GOLAY_WEIGHTS
    path = tmp_path / "golay.txt"
    path.write_text(str(m) + "\n")
    assert main(["count", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["enumerator"]["coeffs"] == list(coeffs)


@pytest.mark.parametrize("rows, independent", [
    pytest.param(simplex(4), SIMPLEX_I[4], id="simplex-4"),
    pytest.param(reed_muller_1(4), RM1_I[4], id="rm1-4"),
    pytest.param(simplex(5), SIMPLEX_I[5], id="simplex-5"),  # 169,911 subsets
    pytest.param(hamming(4), SIMPLEX_I[4], id="hamming-4"),
])
def test_family_through_the_scan(rows, independent):
    # a second exact method beside the formula and the DP that analyze runs
    assert brute_force_counts(BitMatrix.from_lists(rows)).full_rank_count == independent


def test_simplex_4_passes_the_scan_checks():
    m = BitMatrix.from_lists(simplex(4))
    assert complement_duality_check(m)
    assert row_op_invariance_check(m, trials=3)


@pytest.mark.parametrize("m", range(3, 6))
@pytest.mark.parametrize("code, rows, dual", [
    pytest.param("simplex", simplex, False, id="simplex"),
    pytest.param("simplex", hamming, True, id="simplex-as-dual-of-hamming"),
    pytest.param("hamming", hamming, False, id="hamming"),
    pytest.param("hamming", simplex, True, id="hamming-as-dual-of-simplex"),
    pytest.param("rm1", reed_muller_1, False, id="rm1"),
    # the extended Hamming code is RM(m - 2, m), the dual of RM(1, m)
    pytest.param("rm1", lambda m: extended(hamming(m)), True,
                 id="rm1-as-dual-of-extended-hamming"),
])
def test_family_enumerators_through_weights(capsys, tmp_path, m, code, rows, dual):
    path = tmp_path / "m.txt"
    path.write_text(str(BitMatrix.from_lists(rows(m))) + "\n")
    assert main(["weights", str(path), "--format", "json", *["--dual"] * dual]) == 0
    coeffs = json.loads(capsys.readouterr().out)["coeffs"]
    assert {w: c for w, c in enumerate(coeffs) if c} == ENUMERATORS[code](m)


BIPARTITE = [(a, b) for a in range(1, 5) for b in range(a, 5)]
GRAPHS = (
    [pytest.param(complete_graph(m), id=f"K{m}") for m in range(3, 9)]
    + [pytest.param(complete_bipartite(a, b), id=f"K{a},{b}") for a, b in BIPARTITE]
    + [pytest.param(wheel(m), id=f"W{m}") for m in range(4, 9)]
    + [pytest.param(grid(a, b), id=f"grid-{a}x{b}") for a, b in ((2, 3), (2, 4), (3, 3), (3, 4))]
    + [pytest.param(random_connected(8, 6, seed=1), id="random-8"),
       pytest.param(random_connected(10, 8, seed=2), id="random-10")]
)


@pytest.mark.parametrize("m", range(3, 9))
def test_kirchhoff_matches_cayley(m):
    assert kirchhoff_count(grounded_incidence(*complete_graph(m))) == m ** (m - 2)


@pytest.mark.parametrize("a, b", BIPARTITE)
def test_kirchhoff_matches_complete_bipartite(a, b):
    assert kirchhoff_count(grounded_incidence(*complete_bipartite(a, b))) == (
        a ** (b - 1) * b ** (a - 1))


@pytest.mark.parametrize("graph", GRAPHS)
def test_graph_counts_match_kirchhoff(graph):
    rows = grounded_incidence(*graph)
    m = BitMatrix.from_lists(rows)
    assert basis_count(m) == analyze(m).full_rank_count == kirchhoff_count(rows)


@pytest.mark.parametrize("graph, side", [
    pytest.param(complete_graph(4), "dual", id="K4"),
    pytest.param(complete_bipartite(3, 3), "dual", id="K3,3"),
    pytest.param(wheel(6), "dual", id="W6"),
    pytest.param(grid(3, 4), "dual", id="grid-3x4"),
    pytest.param(complete_graph(6), "primal", id="K6"),
    pytest.param(complete_graph(8), "primal", id="K8"),
])
def test_graph_through_count_json(capsys, tmp_path, graph, side):
    rows = grounded_incidence(*graph)
    path = tmp_path / "m.txt"
    path.write_text(str(BitMatrix.from_lists(rows)) + "\n")
    assert main(["count", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["side"], data["I"]) == (side, kirchhoff_count(rows))
