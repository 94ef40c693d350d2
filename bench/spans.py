"""Span tracing from outside the package.

``Tracer.install`` wraps the public functions of each gf2count module
that the benchmark reports on, and rebinds every module global that
refers to one (``rank`` is imported by name into counting, codes and
cli, for instance), so calls made inside the package are seen too.
Each call records a span: name, start, end, parent span and operation
id, kept in flat arrays and written out after the run.  Work counts
(subsets, codewords, candidates) are taken at the same boundaries.

A function the package no longer has is skipped and its metrics read 0.
Scans in forked workers show only as the wall time of their parent
``brute_force_counts`` call.
"""

from __future__ import annotations

import resource
import sys
from array import array
from collections import Counter, defaultdict
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

TARGETS = (
    ("gf2", "parse_matrix"),
    ("gf2", "rank"),
    ("gf2", "systematic_form"),
    ("codes", "weight_enumerator"),
    ("codes", "macwilliams"),
    ("codes", "dual_of"),
    ("counting", "brute_force_counts"),
    ("counting", "analyze"),
    ("counting", "complement_duality_check"),
    ("counting", "row_op_invariance_check"),
    ("cli", "main"),
    ("cli", "run_search"),
)

# (metric, unit) for the traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    ("counting.brute_force_counts.subsets_per_op", "count"),
    ("counting.brute_force_counts.subsets_per_s", "1/s"),
    ("counting.brute_force_counts.self_s", "s"),
    ("counting.brute_force_counts.parallel_efficiency", "ratio"),
    ("codes.weight_enumerator.words_per_s", "1/s"),
    ("codes.weight_enumerator.calls_per_op", "count"),
    ("codes.weight_enumerator.self_s", "s"),
    ("codes.macwilliams.self_s", "s"),
    ("codes.dual_of.self_s", "s"),
    ("gf2.rank.calls_per_op", "count"),
    ("gf2.systematic_form.calls_per_op", "count"),
    ("gf2.rank.self_s", "s"),
    ("gf2.systematic_form.self_s", "s"),
    ("gf2.parse_matrix.self_s", "s"),
    ("counting.analyze.self_s", "s"),
    ("counting.analyze.formula_share", "ratio"),
    ("counting.budget_errors", "count"),
    ("counting.complement_duality_check.self_s", "s"),
    ("counting.row_op_invariance_check.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.run_search.self_s", "s"),
    ("cli.run_search.candidates_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def _cpu_and_wall() -> tuple[float, float, float]:
    """CPU seconds of this process and of its reaped children, and the clock."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime, perf_counter()


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[sid], ends[sid]))
    out = []
    for sid in range(len(parents)):
        lo, hi = starts[sid], ends[sid]
        covered = 0.0
        reach = lo
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out.append(hi - lo - covered)
    return out


class Tracer:
    """Spans and work counters for one traced phase."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self._stack = [-1]
        self._rebinds: list[tuple[object, str, object]] = []
        self.work: Counter = Counter()

    def __len__(self) -> int:
        return len(self.start)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind each module global naming one."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gf2count" or name.startswith("gf2count."))]
        errors = sys.modules.get("gf2count.errors")
        budget_error = getattr(errors, "BudgetError", ())
        for module_name, func_name in TARGETS:
            module = sys.modules.get(f"gf2count.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:
                continue
            label = f"{module_name}.{func_name}"
            before, after = _HOOKS.get(label, (None, None))
            wrapper = self._wrap(label, original, before, after, budget_error)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebinds.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebinds):
            setattr(mod, attr, original)
        self._rebinds.clear()

    def _wrap(self, label: str, fn: Callable, before, after, budget_error):
        self.labels.append(label)
        idx = len(self.labels) - 1
        counting = label.startswith("counting.")
        stack, names, starts, ends = self._stack, self.name, self.start, self.end
        parents, ops, labels, work = self.parent, self.op, self.labels, self.work

        def wrapper(*args, **kwargs):
            sid = len(starts)
            caller = stack[-1]
            names.append(idx)
            parents.append(caller)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(sid)
            state = before() if before else None
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                # counted once, where it leaves the outermost counting-layer span
                if counting and (caller < 0 or not labels[names[caller]].startswith("counting.")):
                    work["budget_errors"] += 1
                raise
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after:
                try:
                    after(work, state, args, kwargs, result)
                except Exception:  # a changed signature must not fail the operation
                    work["hook_errors"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as CSV, times in seconds from the first span's start."""
        t0 = self.start[0] if len(self) else 0.0
        lines = ["id,name,parent,op,start_s,end_s"]
        for sid in range(len(self)):
            lines.append(f"{sid},{self.labels[self.name[sid]]},{self.parent[sid]},"
                         f"{self.op[sid]},{self.start[sid] - t0:.7f},{self.end[sid] - t0:.7f}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def layer_metrics(self, ops: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``ops`` traced operations."""
        selfs = self_times(self.parent, self.start, self.end)
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        for sid, s in enumerate(selfs):
            label = self.labels[self.name[sid]]
            self_s[label] += s
            total_s[label] += self.end[sid] - self.start[sid]
            calls[label] += 1
        w = self.work
        ops = max(ops, 1)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        values = {
            "counting.brute_force_counts.subsets_per_op": w["subsets"] / ops,
            "counting.brute_force_counts.subsets_per_s":
                ratio(w["subsets"], total_s["counting.brute_force_counts"]),
            "counting.brute_force_counts.parallel_efficiency":
                ratio(w["scan_cpu_s"], w["scan_capacity_s"]),
            "codes.weight_enumerator.words_per_s":
                ratio(w["words"], total_s["codes.weight_enumerator"]),
            "codes.weight_enumerator.calls_per_op": calls["codes.weight_enumerator"] / ops,
            "gf2.rank.calls_per_op": calls["gf2.rank"] / ops,
            "gf2.systematic_form.calls_per_op": calls["gf2.systematic_form"] / ops,
            "counting.analyze.formula_share":
                ratio(w["formula_answers"], calls["counting.analyze"]),
            "counting.budget_errors": w["budget_errors"],
            "cli.run_search.candidates_per_s":
                ratio(w["candidates"], total_s["cli.run_search"]),
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit in LAYER_METRICS:
            if name.endswith(".self_s"):
                value = self_s[name[: -len(".self_s")]] / ops
            else:
                value = values[name]
            out[name] = (float(value), unit)
        return out


# -- work counters at the span boundaries ------------------------------------


def _matrix_arg(args, kwargs, key: str):
    return args[0] if args else kwargs.get(key)


def _scan_after(work, before, args, kwargs, result) -> None:
    own0, kids0, t0 = before
    own1, kids1, t1 = _cpu_and_wall()
    m = _matrix_arg(args, kwargs, "m")
    work["subsets"] += comb(m.cols, m.rows)
    # workers are engaged only when forked children used CPU time
    workers = kwargs.get("workers", 1) if kids1 > kids0 else 1
    work["scan_cpu_s"] += (own1 - own0) + (kids1 - kids0)
    work["scan_capacity_s"] += (t1 - t0) * max(workers, 1)


def _enum_after(work, _state, args, kwargs, result) -> None:
    work["words"] += 1 << _matrix_arg(args, kwargs, "gen").rows


def _analyze_after(work, _state, args, kwargs, result) -> None:
    if getattr(result, "method", None) == "formula":
        work["formula_answers"] += 1


def _search_after(work, _state, args, kwargs, result) -> None:
    work["candidates"] += result.get("candidates_scored", 0)


_HOOKS: dict[str, tuple[Optional[Callable], Optional[Callable]]] = {
    "counting.brute_force_counts": (_cpu_and_wall, _scan_after),
    "codes.weight_enumerator": (None, _enum_after),
    "counting.analyze": (None, _analyze_after),
    "cli.run_search": (None, _search_after),
}
