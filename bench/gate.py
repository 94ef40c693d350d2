"""Correctness gate: checks each CLI output against references.

Every seed gets the invariant checks.  For the seed stored in
expected.json the answers are also compared with values computed once
by the list-based methods in reference.py (see make_expected.py).
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path
from typing import Optional

from reference import dual_weight_counts, lines_to_rows, naive_counts, search_max
from workloads import SEARCH_SAMPLES, Op

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def op_digest(op: Op) -> str:
    text = f"{op.command} {op.k} {op.n} {op.seed}\n{op.text()}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_answer(op: Op) -> dict:
    """The independent answer for one operation (slow)."""
    rows = lines_to_rows(op.rows)
    if op.command == "count":
        d, i = naive_counts(rows)
        return {"D": d, "I": i}
    if op.command == "weights":
        return {"coeffs": dual_weight_counts(rows)}
    if op.command == "search":
        return {"max_full_rank": search_max(op.k, op.n, SEARCH_SAMPLES, op.seed)}
    return {"passed": True}


def load_expected(workload: str, seed: int) -> Optional[list]:
    """Stored answers for (workload, seed), or None when that seed has none."""
    data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    if data["seed"] != seed:
        return None
    return data["workloads"][workload]


class Gate:
    """Judges one operation's exit code and stdout; returns a reason or None."""

    def __init__(self, expected: Optional[list] = None):
        self.expected = expected
        self._recounts: dict[tuple[str, ...], int] = {}  # witness rows -> I

    def check(self, op: Op, slot: int, code: object, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        try:
            data = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        try:
            reason = getattr(self, "_check_" + op.command)(op, data)
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            return f"output lacks an expected field ({type(exc).__name__}: {exc})"
        if reason is None and self.expected is not None:
            reason = self._compare(op, self.expected[slot], data)
        return reason

    def _compare(self, op: Op, want: dict, data: dict) -> Optional[str]:
        if want["input"] != op_digest(op):
            return "expected.json was made from different inputs"
        for key, value in want.items():
            if key == "input":
                continue
            got = data.get(key)
            if got != value:
                return f"{key} = {got!r}, reference says {value!r}"
        return None

    def _check_count(self, op: Op, data: dict) -> Optional[str]:
        if (data.get("k"), data.get("n")) != (op.k, op.n):
            return "shape in output does not match the input"
        if data["D"] < 0 or data["I"] < 0 or data["D"] + data["I"] != comb(op.n, op.k):
            return f"D + I = {data['D'] + data['I']}, not C({op.n}, {op.k})"
        return None

    def _check_weights(self, op: Op, data: dict) -> Optional[str]:
        coeffs = data.get("coeffs", [])
        if len(coeffs) != op.n + 1 or coeffs[0] != 1:
            return "dual distribution has the wrong length or A_0 != 1"
        if sum(coeffs) != 1 << (op.n - op.k):
            return f"coefficients sum to {sum(coeffs)}, not 2^{op.n - op.k}"
        return None

    def _check_verify(self, op: Op, data: dict) -> Optional[str]:
        if data.get("passed") is not True:
            return "verify did not pass"
        if not all(c.get("passed") for c in data.get("checks", [])):
            return "a verify check failed"
        return None

    def _check_search(self, op: Op, data: dict) -> Optional[str]:
        best = data.get("max_full_rank")
        if not 1 <= data.get("candidates_scored", 0) <= SEARCH_SAMPLES:
            return "candidate count out of range"
        if not isinstance(best, int) or not 0 <= best <= comb(op.n, op.k):
            return f"max_full_rank {best!r} out of range"
        if not data.get("witnesses"):
            return "no witness reported"
        for lines in data["witnesses"]:
            if self._recount(tuple(lines)) != best:
                return f"witness {lines} does not recount to {best}"
        return None

    def _recount(self, lines: tuple[str, ...]) -> int:
        if lines not in self._recounts:
            self._recounts[lines] = naive_counts(lines_to_rows(lines))[1]
        return self._recounts[lines]
