"""Write expected.json: reference answers for the default seed's inputs.

    python3 bench/make_expected.py

The answers come from the list-based methods in reference.py, never
from gf2count, and take a few minutes.  Rerun only when workloads.py
changes the generated inputs.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from gate import EXPECTED_PATH, op_digest, reference_answer
from workloads import DEFAULT_SEED, WORKLOADS, generate


def answer(op) -> dict:
    return {"input": op_digest(op), **reference_answer(op)}


def main() -> None:
    pools = {w: generate(w, DEFAULT_SEED) for w in WORKLOADS}
    jobs = len(os.sched_getaffinity(0))
    with ProcessPoolExecutor(jobs, mp_context=get_context("spawn")) as ex:
        answers = {w: list(ex.map(answer, ops)) for w, ops in pools.items()}
    EXPECTED_PATH.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": answers}, indent=1) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()
