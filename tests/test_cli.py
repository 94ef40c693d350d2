import json
import random
import subprocess
import sys
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from conftest import fixture_path, load_fixture, random_full_rank
from gf2count import (
    BitMatrix, brute_force_counts, cli, counting, parse_matrix, rank, systematic_form,
)
from gf2count.cli import DEFAULT_WITNESS_CAP, main
from gf2count.errors import ConsistencyError, DimensionError
from make_search_hashes import HASHES, in_corpus, outcome, write_corpus

G74 = fixture_path("g_7_4.txt")
G74_SYS = fixture_path("g_7_4_systematic.txt")
H74 = fixture_path("h_7_4.txt")
G107 = fixture_path("g_10_7.txt")

D_SETS_74_1BASED = [
    [1, 2, 3, 5], [1, 2, 4, 6], [1, 3, 4, 7], [1, 5, 6, 7],
    [2, 3, 6, 7], [2, 4, 5, 7], [3, 4, 5, 6],
]


def run(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", G74)
    assert code == 0
    assert "matrix: 4 x 7, full row rank" in out
    assert "condition 3*d* > 2*max(k, n-k): holds (12 vs 8)" in out
    assert "method: formula" in out
    assert "singular selections D: 7" in out
    assert "full rank selections I: 28" in out
    assert "dependent sets" not in out


def test_count_text_names_the_column_moves(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1100\n0011\n")
    code, out, _ = run(capsys, "count", str(p))
    assert code == 0
    assert "systematic form moves columns to positions [1, 3, 2, 4]" in out
    assert "full rank selections I: 4" in out


def test_count_text_square_matrix(capsys, tmp_path):
    # k = n: the dual is the zero code, so d* is undefined
    p = tmp_path / "m.txt"
    p.write_text("110\n011\n001\n")
    code, out, _ = run(capsys, "count", str(p))
    assert code == 0
    assert "systematic form keeps the column order" in out
    assert "minimum distance d*: undefined (no nonzero word)" in out
    assert "condition 3*d* > 2*max(k, n-k): holds vacuously" in out
    assert "full rank selections I: 1" in out


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", G74, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == [
        "n", "k", "d_star", "condition_holds", "side", "D", "I",
        "method", "enumerator",
    ]
    assert data["D"] == 7 and data["I"] == 28
    assert data["d_star"] == 4 and data["side"] == "dual"
    assert data["enumerator"] == {"n": 7, "coeffs": [1, 0, 0, 0, 7, 0, 0, 0]}


def test_count_list_sets_json(capsys):
    code, out, _ = run(capsys, "count", G74, "--list-sets", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "both"
    assert data["dependent_sets"] == D_SETS_74_1BASED
    assert len(data["independent_sets"]) == 28


def test_count_set_limit_text(capsys):
    code, out, _ = run(capsys, "count", G74, "--list-sets", "--set-limit", "10")
    assert code == 0
    assert "dependent sets (7):" in out
    assert "  {1, 2, 3, 5}" in out
    assert "independent sets (28): not listed (list over limit 10)" in out


def test_count_formula_with_sets_is_usage_error(capsys):
    code, _, _ = run(capsys, "count", G74, "--mode", "formula", "--list-sets")
    assert code == 2


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, "count", "/nonexistent/m.txt")
    assert code == 3
    assert "error:" in err


def test_bad_matrix_exit(capsys, tmp_path):
    p = tmp_path / "ragged.txt"
    p.write_text("10\n1\n")
    code, _, _ = run(capsys, "count", str(p))
    assert code == 3


def test_parse_error_names_the_file(capsys, tmp_path):
    p = tmp_path / "ragged.txt"
    p.write_text("101\n10\n")
    code, out, err = run(capsys, "verify", G74, str(p))
    assert code == 3
    assert out == ""
    assert f"error: {p}: line 2:" in err


@pytest.mark.parametrize("command", ["count", "verify"])
def test_non_utf8_matrix_file_exits_3(capsys, tmp_path, command):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"10\xff1\n0110\n")
    argv = (command, str(p)) if command == "count" else (command, G74, str(p))
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert f"error: cannot read {p}: 'utf-8' codec can't decode" in err


def test_byte_order_mark_is_read_past(capsys, tmp_path):
    p = tmp_path / "bom.txt"
    p.write_bytes(b"\xef\xbb\xbf" + Path(G74).read_bytes())
    for fmt in ("text", "json"):
        assert run(capsys, "count", str(p), "--format", fmt) == run(
            capsys, "count", G74, "--format", fmt)


def test_rank_deficient_exit(capsys, tmp_path):
    p = tmp_path / "flat.txt"
    p.write_text("11\n11\n")
    code, _, err = run(capsys, "count", str(p))
    assert code == 4
    assert "rank" in err


def test_count_set_limit_json(capsys):
    # a list over --set-limit leaves no JSON key
    for argv in (("count", G74, "--list-sets"), ("sets", G74)):
        code, out, _ = run(capsys, *argv, "--set-limit", "10", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["dependent_sets"] == D_SETS_74_1BASED
        assert "independent_sets" not in data


@pytest.mark.parametrize("limit, decoded", [(None, 2), ("28", 2), ("10", 1), ("0", 0)])
def test_set_limit_decodes_no_list_over_it(capsys, monkeypatch, limit, decoded):
    # each decoded list walks one combinations(); D = 7 and I = 28 here
    calls = []
    combinations = counting.combinations
    monkeypatch.setattr(counting, "combinations",
                        lambda *a: calls.append(a) or combinations(*a))
    for argv in (("sets", G74), ("count", G74, "--list-sets", "--mode", "oracle")):
        calls.clear()
        code, _, _ = run(capsys, *argv, *(() if limit is None else ("--set-limit", limit)))
        assert code == 0
        assert len(calls) == decoded


def test_rank_deficient_primal_side_exit(capsys, tmp_path):
    # k < n - k: the weight enumerator, not the systematic form, finds it
    p = tmp_path / "flat.txt"
    p.write_text("11010\n11010\n")
    code, _, err = run(capsys, "count", str(p))
    assert code == 4
    assert "rank" in err


def test_rank_deficient_input_gets_one_error_text(capsys, tmp_path):
    # the weight enumerator finds it on the primal side (k < n - k) and for
    # `weights`, the systematic form on the dual side; both word it the same
    p = tmp_path / "flat.txt"
    for text, k, got in (("0000\n", 1, 0), ("11010\n11010\n", 2, 1), ("1100\n1100\n", 2, 1)):
        p.write_text(text)
        for command in ("count", "sets", "weights"):
            assert run(capsys, command, str(p)) == (
                4, "", f"error: matrix has rank {got}, full row rank {k} required\n")


def test_condition_exit(capsys):
    code, _, _ = run(capsys, "count", G107, "--mode", "formula")
    assert code == 5


def test_budget_exit(capsys):
    code, _, err = run(capsys, "count", G74, "--mode", "oracle", "--budget", "5")
    assert code == 6
    assert "budget" in err


def test_dp_budget_exit_names_the_budget(capsys, tmp_path):
    # the DP needs 121 visits to states of four or more words here
    p = tmp_path / "m.txt"
    p.write_text(str(random_full_rank(5, 30, seed=3)) + "\n")
    code, _, err = run(capsys, "count", str(p), "--budget", "5")
    assert code == 6
    assert "budget 5" in err


def test_consistency_exit(capsys, monkeypatch):
    import gf2count.cli as cli

    def boom(*args, **kwargs):
        raise ConsistencyError("forced disagreement")

    monkeypatch.setattr(cli, "analyze", boom)
    code, _, err = run(capsys, "count", G74)
    assert code == 8
    assert "forced disagreement" in err


def test_threads_has_no_effect(capsys):
    for argv in (
        ("count", G107, "--format", "json"),
        ("search", "--k", "3", "--n", "6", "--samples", "40", "--format", "json"),
        ("verify", G74, "--trials", "3", "--format", "json"),
    ):
        plain = run(capsys, *argv)
        threaded = run(capsys, *argv, "--threads", "3")
        assert plain[0] == 0
        assert threaded == plain
    code, _, err = run(capsys, "count", G74, "--threads", "-1")
    assert code == 2
    assert "--threads cannot be negative" in err


def test_negative_counts_are_usage_errors(capsys):
    for argv in (
        ("verify", G74, "--trials", "-1"),
        ("search", "--k", "2", "--n", "4", "--exhaustive", "--witnesses", "-1"),
        ("count", G74, "--list-sets", "--set-limit", "-1"),
        ("sets", G74, "--set-limit", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "cannot be negative" in err


def test_non_positive_work_is_a_usage_error(capsys):
    for argv, message in (
        (("search", "--k", "2", "--n", "4", "--samples", "0"), "--samples must be positive"),
        (("count", G74, "--budget", "0"), "--budget must be positive"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert message in err


def test_error_without_an_exit_code_of_its_own_exits_1(capsys, monkeypatch):
    import gf2count.cli as cli

    def boom(*args, **kwargs):
        raise DimensionError("forced shape error")

    monkeypatch.setattr(cli, "analyze", boom)
    code, out, err = run(capsys, "count", G74)
    assert code == 1
    assert out == ""
    assert err == "error: forced shape error\n"


def test_unknown_subcommand_exit(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_weights_text(capsys):
    code, out, _ = run(capsys, "weights", G74)
    assert code == 0
    assert "coefficients: [1, 0, 0, 7, 7, 0, 0, 1]" in out
    assert "dimension: 4" in out


def test_weights_json_schema(capsys):
    code, out, _ = run(capsys, "weights", G74, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["n", "coeffs"]
    assert data == {"n": 7, "coeffs": [1, 0, 0, 7, 7, 0, 0, 1]}


def test_weights_dual(capsys):
    code, out, _ = run(capsys, "weights", G74, "--dual")
    assert code == 0
    assert "coefficients: [1, 0, 0, 0, 7, 0, 0, 0]" in out
    assert "dimension: 3 (dual of the input)" in out
    assert "cross-check against the transformed primal distribution: agree" in out


def test_weights_single_entry(capsys, tmp_path):
    p = tmp_path / "one.txt"
    p.write_text("1\n")
    code, out, _ = run(capsys, "weights", str(p), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 1, "coeffs": [1, 1]}


def test_sets_text(capsys):
    code, out, _ = run(capsys, "sets", G74)
    assert code == 0
    assert "C(7, 4) = 35 selections" in out
    assert "dependent sets (7):" in out
    assert "  {3, 4, 5, 6}" in out
    assert "independent sets (28):" in out


def test_sets_json(capsys):
    code, out, _ = run(capsys, "sets", G74, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "oracle"
    assert data["dependent_sets"] == D_SETS_74_1BASED


def test_search_small_exhaustive(capsys):
    code, out, _ = run(capsys, "search", "--k", "2", "--n", "4",
                       "--exhaustive", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["candidates_scored"] == 16
    assert data["total_subsets"] == 6
    assert data["max_full_rank"] == 5
    assert data["achieved_by"] == 5
    assert data["seed"] is None
    assert data["witnesses"][0] == ["1011", "0110"]


def test_search_tiny_exhaustive(capsys):
    code, out, _ = run(capsys, "search", "--k", "1", "--n", "2",
                       "--exhaustive", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["max_full_rank"] == 2
    assert data["achieved_by"] == 1
    assert data["witnesses"] == [["11"]]


def test_search_witness_cap(capsys):
    argv = ("search", "--k", "2", "--n", "4", "--exhaustive", "--format", "json")
    _, out, _ = run(capsys, *argv)
    every = json.loads(out)["witnesses"]
    assert len(every) == 5
    for cap in (0, 2):
        code, out, _ = run(capsys, *argv, "--witnesses", str(cap))
        assert code == 0
        data = json.loads(out)
        assert data["achieved_by"] == 5
        assert data["witnesses"] == every[:cap]
        assert data["witnesses_truncated"] is True
    code, out, _ = run(capsys, *argv[:-2], "--witnesses", "0")
    assert code == 0
    assert "achieved by 5 candidates (showing 0)" in out
    assert "witness 1:" not in out


def test_search_text_lists_the_witnesses(capsys):
    code, out, _ = run(capsys, "search", "--k", "2", "--n", "4", "--samples", "5",
                       "--witnesses", "2")
    assert code == 0
    assert out == (
        "search: k=2, n=4, random (seed 0), 4 candidates\n"
        "maximum full rank selections I: 5 of C(4, 2) = 6\n"
        "achieved by 2 candidates\n"
        "witness 1:\n  1010\n  0111\n"
        "witness 2:\n  1001\n  0111\n"
    )


def test_search_sampled_is_deterministic(capsys):
    args = ("search", "--k", "3", "--n", "6", "--samples", "40",
            "--seed", "3", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == 3


def _candidate_lines(p_bits: int, k: int, n: int) -> list[str]:
    """Rows of [I | P], P read row-major from p_bits, built as text."""
    width = n - k
    return [
        "".join("1" if c == i else "0" for c in range(k))
        + "".join(str(p_bits >> (i * width + j) & 1) for j in range(width))
        for i in range(k)
    ]


def _scan_search(k: int, n: int, candidates) -> dict:
    """The search summary recomputed by scanning every candidate's subsets."""
    scores = {
        p: brute_force_counts(parse_matrix("\n".join(_candidate_lines(p, k, n))))
        .full_rank_count
        for p in candidates
    }
    best = max(scores.values())
    winners = [p for p in candidates if scores[p] == best]
    return {
        "candidates_scored": len(candidates),
        "max_full_rank": best,
        "achieved_by": len(winners),
        "witnesses": [_candidate_lines(p, k, n) for p in winners[:DEFAULT_WITNESS_CAP]],
    }


def _check_search_by_scan(capsys, k: int, n: int, mode: str) -> None:
    """Run search and compare its summary with a scan of the same candidates."""
    width = k * (n - k)
    if mode == "exhaustive":
        argv = ("--exhaustive",)
        candidates = list(range(1 << width))
    else:  # the draws of run_search, first occurrences in order
        argv = ("--samples", "200", "--seed", "1")
        rng = random.Random(1)
        candidates = list(dict.fromkeys(rng.getrandbits(width) for _ in range(200)))
    code, out, _ = run(capsys, "search", "--k", str(k), "--n", str(n), *argv,
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    expected = _scan_search(k, n, candidates)
    assert {key: data[key] for key in expected} == expected


@pytest.mark.parametrize("k, n, mode", [
    (1, 5, "exhaustive"), (2, 6, "exhaustive"), (3, 6, "exhaustive"),
    (3, 7, "exhaustive"), (3, 8, "sampled"), (3, 9, "sampled"), (5, 10, "sampled"),
])
def test_search_matches_a_scan_of_every_candidate(capsys, k, n, mode):
    _check_search_by_scan(capsys, k, n, mode)


@pytest.mark.parametrize("k, n", [(4, 9), (5, 9)])
def test_search_walks_each_column_multiset_once(monkeypatch, k, n):
    # k * (n - k) > 16, so the DP scores the blocks: every column reordering of
    # three random blocks, one walk per multiset of columns
    starts = []
    walk = counting._walk

    def spy(start, cols, budget, closed):
        starts.append(start)
        return walk(start, cols, budget, closed)

    monkeypatch.setattr(counting, "_walk", spy)
    w = n - k
    rng = random.Random(k * n)
    bases = [[rng.getrandbits(k) for _ in range(w)] for _ in range(3)]
    blocks = [sum((c >> i & 1) << (i * w + j) for j, c in enumerate(cols) for i in range(k))
              for base in bases for cols in permutations(base)]
    scores = list(counting.systematic_counts(blocks, k, w))
    orders = factorial(w)
    assert all(len(set(scores[g:g + orders])) == 1 for g in range(0, len(blocks), orders))
    assert len(starts) == len({tuple(sorted(base)) for base in bases})
    assert len(set(starts)) == len(starts)


@pytest.mark.parametrize("argv, walks", [
    (("--k", "3", "--n", "8", "--samples", "60"), False),
    (("--k", "4", "--n", "8", "--exhaustive"), False),
    (("--k", "4", "--n", "10", "--samples", "60"), True),  # k * (n - k) > 16
    (("--k", "4", "--n", "6", "--exhaustive", "--budget", "400"), False),  # any budget
], ids=["3x8", "4x8", "4x10", "4x6-budget-400"])
def test_search_scores_sixteen_bit_blocks_without_the_dp(capsys, monkeypatch, argv, walks):
    calls = []
    for name in ("_walk", "_completions"):
        def spy(*args, _name=name, _run=getattr(counting, name)):
            calls.append(_name)
            return _run(*args)

        monkeypatch.setattr(counting, name, spy)
    code, _, _ = run(capsys, "search", *argv, "--format", "json")
    assert code == 0
    assert ("_walk" in calls) == walks
    assert walks or not calls


@pytest.mark.parametrize("k, n, mode", [
    (2, 4, "exhaustive"), (3, 5, "exhaustive"), (3, 8, "sampled"),
    (3, 9, "sampled"),  # k * (n - k) > 16: the closed form
])
def test_search_runs_no_dp_for_three_rows_or_fewer(capsys, monkeypatch, k, n, mode):
    def boom(*args, **kwargs):
        raise AssertionError("search ran the DP at k <= 3")

    scored = []
    entry = counting.systematic_counts

    def spy(blocks, k, w, *, budget):  # the scores still come from counting's entry
        for value in entry(blocks, k, w, budget=budget):
            scored.append(value)
            yield value

    monkeypatch.setattr(counting, "_walk", boom)  # the entry's one DP path
    monkeypatch.setattr(cli, "systematic_counts", spy)
    _check_search_by_scan(capsys, k, n, mode)
    assert scored


def test_search_exhaustive_3_by_8_table_row(capsys):
    code, out, _ = run(capsys, "search", "--k", "3", "--n", "8",
                       "--exhaustive", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["candidates_scored"] == 32768
    assert data["max_full_rank"] == 40
    assert data["achieved_by"] == 600


def test_search_runs_no_count_pipeline(capsys, monkeypatch):
    import gf2count.cli as cli

    argv = ("search", "--k", "3", "--n", "8", "--samples", "40", "--format", "json")
    expected = run(capsys, *argv)

    def boom(*args, **kwargs):
        raise AssertionError("search called analyze")

    monkeypatch.setattr(cli, "analyze", boom)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected[1]


def changed_outputs(search: bool) -> list[str]:
    """The argv of each pinned call on the fixtures, of search or of the other
    commands, whose exit code or output hash changed (tests/make_search_hashes.py
    wrote them)."""
    return [" ".join(entry["argv"]) for entry in json.loads(HASHES.read_text())
            if (entry["argv"][0] == "search") == search and not in_corpus(entry["argv"])
            and outcome(entry["argv"]) != entry]


def test_search_output_bytes_are_pinned():
    # sampled, exhaustive and over-budget calls
    changed = changed_outputs(search=True)
    assert not changed, "search output changed for:\n" + "\n".join(changed)


def test_command_output_bytes_are_pinned():
    # count, weights, sets and verify on the fixtures, exits 2 and 4 to 7 included
    changed = changed_outputs(search=False)
    assert not changed, "output changed for:\n" + "\n".join(changed)


def test_corpus_output_bytes_are_pinned(tmp_path):
    # sets, count --list-sets and verify on seeded random matrices, every
    # command on rank-deficient ones, and sets, count --mode oracle and verify
    # on textbook codes and graphs, and weights (--dual among them) on wide
    # codes whose duals span several sliced blocks, run where the corpus is
    # written so that no absolute path enters the output
    write_corpus(tmp_path)
    entries = [entry for entry in json.loads(HASHES.read_text()) if in_corpus(entry["argv"])]
    assert len(entries) == 172
    changed = [" ".join(entry["argv"]) for entry in entries
               if outcome(entry["argv"], tmp_path) != entry]
    assert not changed, "output changed for:\n" + "\n".join(changed)


def test_search_bad_shape(capsys):
    code, _, _ = run(capsys, "search", "--k", "4", "--n", "4", "--exhaustive")
    assert code == 2


def test_search_budget(capsys):
    code, _, _ = run(capsys, "search", "--k", "4", "--n", "10",
                     "--exhaustive", "--budget", "1000")
    assert code == 6


def test_verify_self(capsys):
    code, out, _ = run(capsys, "verify", G74, "--trials", "5")
    assert code == 0
    assert "dual pairing: pass" in out
    assert "complement duality: pass" in out
    assert "row op invariance (5 trials): pass" in out
    assert "overall: pass" in out


def test_verify_with_supplied_dual(capsys):
    code, out, _ = run(capsys, "verify", G74_SYS, H74, "--trials", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert [c["name"] for c in data["checks"]] == [
        "dual pairing", "complement duality", "row op invariance (3 trials)",
    ]


def test_verify_aligns_permuted_systematic_form(capsys, tmp_path):
    # the systematic form of this matrix reorders columns; a correct dual
    # in the matrix's own column order passes both checks as given
    g = tmp_path / "g.txt"
    g.write_text("0101\n0011\n")
    h = tmp_path / "h.txt"
    h.write_text("1000\n0111\n")
    code, out, _ = run(capsys, "verify", str(g), str(h), "--trials", "4")
    assert code == 0
    assert "overall: pass" in out


def test_verify_detects_bad_dual(capsys, tmp_path):
    bad = tmp_path / "h.txt"
    bad.write_text("0110100\n1101010\n1011001\n")
    code, out, _ = run(capsys, "verify", G74_SYS, str(bad), "--trials", "2")
    assert code == 7
    assert "dual pairing: FAIL" in out
    assert "complement duality: FAIL" in out
    assert "overall: FAIL" in out


def test_verify_judges_the_derived_dual(capsys, monkeypatch):
    derive = counting.dual_of

    def flipped(m):
        h = derive(m)
        return BitMatrix(h.rows, h.cols, (h.bits[0] ^ 1,) + h.bits[1:])

    m = load_fixture("g_7_4.txt")
    assert counting.complement_duality_check(m)
    assert rank(flipped(m)) == 3  # full rank: only orthogonality can catch it
    monkeypatch.setattr(counting, "dual_of", flipped)  # where verify derives it
    with pytest.raises(ConsistencyError, match="not orthogonal"):
        counting.complement_duality_check(m)
    code, out, _ = run(capsys, "verify", G74, "--trials", "2")
    assert code == 7
    assert "dual pairing: FAIL" in out
    assert "overall: FAIL" in out


@pytest.mark.parametrize("argv", [
    ["sets", "tests/fixtures/g_7_4.txt", "--format", "text"],
    ["count", "tests/fixtures/g_10_7.txt", "--mode", "oracle", "--format", "text"],
    ["count", "tests/fixtures/g_7_4.txt", "--list-sets", "--format", "json"],
], ids=["sets", "count-oracle", "count-list-sets"])
def test_a_dual_side_scan_derives_the_dual_once(monkeypatch, argv):
    # analyze hands the dual it enumerated to the scan, which derives no other
    derived = []
    dual_of = counting.dual_of
    monkeypatch.setattr(counting, "dual_of", lambda m: derived.append(m) or dual_of(m))
    pinned = next(entry for entry in json.loads(HASHES.read_text()) if entry["argv"] == argv)
    assert outcome(argv) == pinned
    assert len(derived) == 1


def test_verify_fails_a_wrong_reduction(capsys, monkeypatch):
    # a reduction that returns another matrix's basis gives a dual of that
    # matrix, which verify judges against the input and rejects
    from gf2count import gf2

    other = random_full_rank(4, 7, seed=0)
    m = load_fixture("g_7_4.txt")
    assert rank(BitMatrix(8, 7, m.bits + other.bits)) > 4  # another row space
    wrong = gf2.reduced_basis(other)
    assert run(capsys, "verify", G74, "--trials", "2")[0] == 0
    # full_rank_basis reads it for systematic_form and dual_of
    monkeypatch.setattr(gf2, "reduced_basis", lambda _: wrong)
    code, out, _ = run(capsys, "verify", G74, "--trials", "2")
    assert code == 7
    assert "dual pairing: FAIL" in out
    assert "overall: FAIL" in out


def test_only_text_count_reduces_to_systematic_form(capsys, monkeypatch):
    # dual_of(m) is every command's dual; text count alone prints the
    # systematic form's column move, so it alone reduces to that form
    from gf2count import codes, gf2

    reduced = []

    def spy(m):
        reduced.append(m)
        return systematic_form(m)

    for module in (gf2, codes, counting, cli):
        if hasattr(module, "systematic_form"):
            monkeypatch.setattr(module, "systematic_form", spy)
    for argv, calls in ((("count", G74), 1), (("count", G107, "--mode", "oracle"), 1),
                        (("count", G74, "--format", "json"), 0),
                        (("count", G107, "--list-sets", "--format", "json"), 0),
                        (("sets", G74), 0), (("weights", G107, "--dual"), 0),
                        (("verify", G74, "--trials", "2"), 0),
                        (("verify", G74, H74, "--trials", "2"), 0)):
        reduced.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(reduced) == calls, argv


def test_verify_dual_of_wrong_shape_fails_pairing(capsys, tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("1010\n0111\n")
    h = tmp_path / "h.txt"
    h.write_text("10100\n01110\n")
    code, out, _ = run(capsys, "verify", str(g), str(h), "--trials", "2")
    assert code == 7
    assert "dual pairing: FAIL" in out
    assert "overall: FAIL" in out


def test_verify_decides_each_shape_once(capsys, tmp_path, monkeypatch):
    # one verify streams g, m and the 20 variants through one 6 x 14 table and the
    # dual through one 8 x 14 table, so the rule meets each shape once; a table per
    # check or per scan call would decide a 6 x 14 shape two or three times
    p = tmp_path / "m.txt"
    p.write_text(str(random_full_rank(6, 14, seed=2)) + "\n")
    decided = []
    closes = counting._closes
    monkeypatch.setattr(counting, "_closes",
                        lambda m, rem, k, n, scans: decided.append((m, rem, k, n)) or
                        closes(m, rem, k, n, scans))
    assert run(capsys, "verify", str(p))[0] == 0
    once = sorted(decided)
    assert {(k, n) for _, _, k, n in once} == {(6, 14), (8, 14)}
    assert len(set(once)) == len(once)
    # the tables go with the command: a second verify decides each shape again
    assert run(capsys, "verify", str(p))[0] == 0
    assert sorted(decided) == sorted(once * 2)


def test_count_json_byte_stable(capsys):
    code1, out1, _ = run(capsys, "count", G74, "--list-sets", "--format", "json")
    code2, out2, _ = run(capsys, "count", G74, "--list-sets", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_main_reuses_one_parser_across_calls(capsys, monkeypatch):
    calls = [
        ("count", G74, "--list-sets", "--format", "json"),
        ("count", G74, "--mode", "nope"),  # usage error
        ("count", G74, "--format", "json"),
        ("weights", G74, "--dual"),
        ("search", "--k", "2", "--n", "4"),  # usage error: no --exhaustive
        ("sets", G74),
        ("verify", G74, "--trials", "3"),
        ("search", "--k", "2", "--n", "4", "--exhaustive", "--format", "json"),
        ("count", G74, "--format", "json"),
    ]
    reused = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in reused] == [0, 2, 0, 0, 2, 0, 0, 0, 0]
    # an option given to one call is not remembered by the next
    assert "dependent_sets" in json.loads(reused[0][1])
    assert "dependent_sets" not in json.loads(reused[2][1])
    assert reused[2] == reused[-1]
    # the same calls with a parser built afresh for each
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run(capsys, *argv) for argv in calls] == reused


def test_module_entry_point():
    # run from src/, so the package is found without an install or PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "gf2count", "count", G74, "--format", "json"],
        capture_output=True, text=True, cwd=Path(__file__).parent.parent / "src",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["I"] == 28

