"""gf2count benchmark: closed-loop CLI workloads with one client.

Usage (from the repository root):

    python3 bench/run.py --workload count_scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --trace 1

Each operation is one ``gf2count.cli.main(argv)`` call made in this
process, stdout captured; the next starts when the previous returns.
Outputs are checked by gate.py after the timed loop.  Operation times
are scaled to a reference machine speed (see CALIBRATION_LOOPS); the
unscaled figures go to the results file too.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends half the time
untraced and half with spans.py's wrappers installed, and reports the
per-layer metrics.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from gate import Gate, load_expected, op_digest, reference_answer
from spans import Tracer
from workloads import (DEFAULT_SEED, PATTERNS, SETUP_ROWS, WORKLOADS, Op, generate,
                       write_inputs)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
# p90 needs at least ten samples beyond it; a run is extended (up to
# EXTEND_LIMIT times its length) until it has that many operations.
MIN_OPS = 100
EXTEND_LIMIT = 3
SETUP_LAUNCHES = 7
# Bounds the memory and the span file of a traced phase.
MAX_SPANS = 200_000
# Speed calibration.  On a shared host the speed one process gets drifts
# by tens of percent over seconds to minutes, more than the changes the
# benchmark must resolve.  A fixed loop is timed just before and just
# after every timed operation, and the operation's time is scaled by
# REFERENCE_CALIBRATION_S over the mean of the two: figures read as
# seconds on a machine where the loop takes REFERENCE_CALIBRATION_S
# (about its median on the 2-vCPU Xeon of the first baseline).  The loop
# mixes tuple, list and dict work with integer bit operations, like the
# package does; plain integer arithmetic tracked the drift less well.
CALIBRATION_LOOPS = 3_000
REFERENCE_CALIBRATION_S = 0.0011


def load_cli():
    """Import gf2count.cli from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gf2count
        from gf2count import cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gf2count from {src}: {exc}")
    location = Path(gf2count.__file__).resolve()
    if src.resolve() not in location.parents:
        raise SystemExit(f"error: gf2count was imported from {location}, not {src}")
    return cli


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop, right now."""
    start = time.perf_counter()
    acc = 0
    table: dict[int, tuple] = {}
    items = []
    for i in range(CALIBRATION_LOOPS):
        item = (i, i ^ 0x5A, i & 7)
        items.append(item)
        table[i & 0xFF] = item
        acc ^= (item[1] << 3) & 0xFFFF
        acc += (i * i).bit_count()
    return time.perf_counter() - start


def timed(fn, *args, **kwargs):
    """(result, raw seconds, seconds scaled to the reference speed)."""
    before = calibrate()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    raw = time.perf_counter() - start
    after = calibrate()
    return result, raw, raw * 2 * REFERENCE_CALIBRATION_S / (before + after)


def call(cli, argv: list[str]) -> tuple[object, str, str]:
    """One CLI operation: (exit code or exception text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the operation failed; the run goes on
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


class Loop:
    """Runs a workload's operation pool in order and keeps every result."""

    def __init__(self, cli, ops: list[Op], argvs: list[list[str]], gate: Gate,
                 period: int):
        self.cli, self.ops, self.argvs, self.gate = cli, ops, argvs, gate
        self.period = period
        self.attempted = 0
        self.failures: list[str] = []
        self._checked: dict[tuple[int, str], str | None] = {}

    def run(self, seconds: float, min_ops: int,
            tracer: Tracer | None = None) -> tuple[list[float], list[float]]:
        """Operations from the start of the pool until ``seconds`` have
        passed and ``min_ops`` are done (or the run is EXTEND_LIMIT times
        too long), stopping only at the end of a shape pattern.

        Returns the per-operation times, scaled and raw; outputs are
        checked after the loop, so checking is not timed.
        """
        times: list[float] = []
        raw_times: list[float] = []
        results = []
        start = time.perf_counter()
        for i in itertools.count():
            slot = i % len(self.ops)
            if i % self.period == 0 and i:
                elapsed = time.perf_counter() - start
                if elapsed >= seconds and len(times) >= min_ops:
                    break
                if elapsed >= seconds * EXTEND_LIMIT:
                    break
                if tracer is not None and len(tracer) >= MAX_SPANS:
                    break
            if tracer is not None:
                tracer.op_id = i
            outcome, raw, scaled = timed(call, self.cli, self.argvs[slot])
            times.append(scaled)
            raw_times.append(raw)
            results.append((slot, *outcome))
        for slot, code, out, err in results:
            self.check(slot, code, out, err)
        return times, raw_times

    def check(self, slot: int, code: object, out: str, err: str) -> None:
        key = (slot, f"{code}\n{out}")
        if key not in self._checked:
            self._checked[key] = self.gate.check(self.ops[slot], slot, code, out)
        self.record(f"slot {slot}", self._checked[key], err)

    def record(self, what: str, reason: str | None, err: str) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}; stderr: {err.strip()[:200]}")


def percentile_90(times: list[float]) -> tuple[float, int]:
    """The 90th percentile and how many samples lie beyond it."""
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return p90, sum(t > p90 for t in times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


@contextmanager
def one_core():
    """Pin this process, and the children it starts, to one allowed core."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def setup_seconds(loop: Loop) -> tuple[float, float]:
    """Median cold start of ``python -m gf2count count`` on a 4x7 matrix,
    scaled and raw.

    The launches share one core with this process, so the calibration
    around each launch measures the core it ran on; unpinned, the spread
    of this figure between runs was several times larger.
    """
    op = Op("count", 4, 7, SETUP_ROWS)
    path = write_inputs([op], OUT / "inputs", "setup")[0]
    gate = Gate([{"input": op_digest(op), **reference_answer(op)}])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "gf2count", "count", path, "--format", "json"]
    times, raw_times = [], []
    with one_core():
        for launch in range(SETUP_LAUNCHES + 1):
            proc, raw, scaled = timed(subprocess.run, argv, env=env, cwd=ROOT,
                                      capture_output=True, text=True, timeout=60)
            loop.record("setup launch", gate.check(op, 0, proc.returncode, proc.stdout),
                        proc.stderr)
            if launch:  # the first launch also writes the bytecode cache
                times.append(scaled)
                raw_times.append(raw)
    return statistics.median(times), statistics.median(raw_times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def source_digest() -> str:
    """SHA-256 over src/gf2count/*.py, to tell builds apart without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gf2count").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, threads: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "usable_cores": usable_cores(),
        "os_cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "threads_arg": threads,
    }


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool,
                 threads: int) -> dict:
    ops = generate(workload, seed)
    paths = write_inputs(ops, OUT / "inputs", workload)
    argvs = [op.argv(path, threads) for op, path in zip(ops, paths)]
    loop = Loop(cli, ops, argvs, Gate(load_expected(workload, seed)),
                len(PATTERNS[workload][0]))
    loop.run(0, 1)  # warm-up pass, checked but not timed

    if not trace:
        times, raw_times = loop.run(seconds, MIN_OPS)
        rss = peak_rss_mb()
        p90, beyond = percentile_90(times)
        setup, raw_setup = setup_seconds(loop)
        metrics = {
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_p90": (p90, "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup, "s"),
        }
        samples = {"ops": len(times), "ops_beyond_p90": beyond,
                   "setup_launches": SETUP_LAUNCHES}
        raw = {"op_s_p50": statistics.median(raw_times),
               "op_s_p90": percentile_90(raw_times)[0],
               "ops_per_s": len(raw_times) / sum(raw_times), "setup_s": raw_setup}
    else:
        plain, raw_plain = loop.run(seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced, raw_traced = loop.run(seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        overhead = statistics.median(traced) / statistics.median(plain)
        metrics = tracer.layer_metrics(len(traced), overhead)
        samples = {"untraced_ops": len(plain), "traced_ops": len(traced),
                   "spans": len(tracer), "hook_errors": tracer.work["hook_errors"]}
        raw = {"trace.overhead_ratio": statistics.median(raw_traced) / statistics.median(raw_plain)}
        tracer.write(OUT / f"{workload}.spans.csv")

    failed = len(loop.failures)
    return {
        "workload": workload,
        "trace": int(trace),
        "environment": environment(seed, threads),
        "attempted": loop.attempted,
        "failed": failed,
        "failed_ratio": failed / loop.attempted,
        "failures": loop.failures[:20],
        "samples": samples,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "unscaled": raw,
    }


def print_report(result: dict) -> None:
    w = result["workload"]
    print(f"== {w} (trace {result['trace']}): {result['attempted']} attempted, "
          f"{result['failed']} failed, failed_ratio {result['failed_ratio']:.4g}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print("  unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in result["unscaled"].items()))
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in result["samples"].items()))
    for reason in result["failures"][:5]:
        print(f"  FAILED {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    cli = load_cli()
    threads = usable_cores()
    result = run_workload(cli, args.workload, args.seed, args.seconds,
                          bool(args.trace), threads)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print_report(result)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a process of its own, as the single-workload runs are,
    so that peak RSS and child-process counters never mix workloads."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
