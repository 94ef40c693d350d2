"""Tests of the benchmark itself:  python3 -m pytest bench/tests"""

import json
import sys
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from gate import Gate, load_expected, op_digest, reference_answer  # noqa: E402
from reference import dual_weight_counts, naive_counts  # noqa: E402
from run import call  # noqa: E402
from spans import TARGETS, Tracer, self_times  # noqa: E402
from workloads import DEFAULT_SEED, SETUP_ROWS, WORKLOADS, Op, generate, write_inputs  # noqa: E402

from gf2count import cli  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)
    shapes = [(op.k, op.n) for op in generate(workload, 7)]
    assert shapes == [(op.k, op.n) for op in generate(workload, 8)]


def test_self_time_on_a_synthetic_span_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 1 has child 3 [2, 3];
    # 2 has overlapping children 4 [5, 7] and 5 [6, 8].
    parents = [-1, 0, 0, 1, 2, 2]
    starts = [0.0, 1.0, 5.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 3.0, 7.0, 8.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_reference_methods_on_the_hamming_code():
    rows = [[int(c) for c in line] for line in SETUP_ROWS]
    assert naive_counts(rows) == (7, 28)
    assert dual_weight_counts(rows) == [1, 0, 0, 0, 7, 0, 0, 0]


def test_gate_flags_a_wrong_expected_answer():
    op = Op("count", 4, 7, SETUP_ROWS)
    out = json.dumps({"k": 4, "n": 7, "D": 7, "I": 28})
    right = {"input": op_digest(op), **reference_answer(op)}
    assert Gate([right]).check(op, 0, 0, out) is None
    wrong = dict(right, D=8, I=27)
    assert "reference says 8" in Gate([wrong]).check(op, 0, 0, out)


def test_gate_invariants_without_stored_answers():
    gate = Gate()
    op = Op("count", 4, 7, SETUP_ROWS)
    assert gate.check(op, 0, 0, json.dumps({"k": 4, "n": 7, "D": 7, "I": 27}))
    assert gate.check(op, 0, 6, "")
    assert "lacks" in gate.check(op, 0, 0, json.dumps({"k": 4, "n": 7}))
    weights = Op("weights", 4, 7, SETUP_ROWS)
    assert gate.check(weights, 0, 0, json.dumps({"coeffs": [1, 0, 0, 0, 7, 0, 0, 0]})) is None
    assert gate.check(weights, 0, 0, json.dumps({"coeffs": [1, 0, 0, 0, 6, 0, 0, 0]}))
    search = Op("search", 2, 4)
    bad_witness = {"candidates_scored": 3, "max_full_rank": 6, "witnesses": [["1000", "0100"]]}
    assert "recount" in gate.check(search, 0, 0, json.dumps(bad_witness))
    good = dict(bad_witness, max_full_rank=1)
    assert gate.check(search, 0, 0, json.dumps(good)) is None


def test_stored_answers_match_the_default_seed_inputs():
    for workload in WORKLOADS:
        expected = load_expected(workload, DEFAULT_SEED)
        assert [e["input"] for e in expected] == [op_digest(op) for op in generate(workload, DEFAULT_SEED)]
    assert load_expected("count_scan", DEFAULT_SEED + 1) is None


def small_ops(tmp_path):
    ops = [Op("count", 4, 7, SETUP_ROWS), Op("count", 6, 14, generate("verify_sets", 3)[0].rows),
           Op("weights", 4, 7, SETUP_ROWS), Op("verify", 4, 7, SETUP_ROWS, 5),
           Op("search", 3, 7, seed=11)]
    paths = write_inputs(ops, tmp_path, "t")
    return [op.argv(p, 1) for op, p in zip(ops, paths)]


def test_traced_outputs_are_byte_identical(tmp_path):
    argvs = small_ops(tmp_path)
    plain = [call(cli, argv) for argv in argvs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [call(cli, argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(code == 0 for code, _, _ in plain)
    assert not any(hasattr(getattr(cli, name, None), "__wrapped__") for _, name in TARGETS)
    metrics = tracer.layer_metrics(len(argvs), 1.0)
    assert metrics["counting.brute_force_counts.subsets_per_op"][0] > 0
    assert metrics["codes.weight_enumerator.calls_per_op"][0] > 0
    assert tracer.work["hook_errors"] == 0


def test_traced_scan_counts_every_subset(tmp_path):
    op = Op("count", 6, 14, generate("verify_sets", 3)[0].rows)
    argv = op.argv(write_inputs([op], tmp_path, "s")[0], 1)
    tracer = Tracer()
    tracer.install()
    try:
        call(cli, argv)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1, 1.0)
    assert metrics["counting.brute_force_counts.subsets_per_op"][0] == comb(14, 6)
    assert metrics["cli.main.self_s"][0] > 0
