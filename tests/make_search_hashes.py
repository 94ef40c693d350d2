"""Write search_hashes.json: the pinned output bytes of ``gf2count search`` calls.

Run from the repository root, with the package to pin on the path:

    PYTHONPATH=src python tests/make_search_hashes.py

Each entry holds a call's argv, its exit code and the SHA-256 of its
stdout and stderr, made in-process through ``cli.main``.
``test_cli.test_search_output_bytes_are_pinned`` replays them.  Regenerate
the file only when a change alters search's output on purpose, and list
every call whose entry changed.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gf2count.cli import main

HASHES = Path(__file__).with_name("search_hashes.json")


def _argvs() -> list[list[str]]:
    calls = []
    for k, n in ((3, 8), (4, 10), (5, 10), (4, 6)):
        shape = ["search", "--k", str(k), "--n", str(n)]
        for seed in range(3):
            calls.append(shape + ["--samples", "60", "--seed", str(seed), "--format", "json"])
        calls.append(shape + ["--samples", "60"])  # text
    for k, n in ((2, 5), (3, 6), (4, 6)):
        for form in ("text", "json"):
            calls.append(["search", "--k", str(k), "--n", str(n), "--exhaustive",
                          "--format", form])
    for witnesses in ("0", "1"):
        calls.append(["search", "--k", "3", "--n", "6", "--exhaustive",
                      "--witnesses", witnesses])
        calls.append(["search", "--k", "4", "--n", "10", "--samples", "40",
                      "--witnesses", witnesses, "--format", "json"])
    calls.append(["search", "--k", "1", "--n", "6", "--samples", "20"])
    calls.append(["search", "--k", "6", "--n", "9", "--samples", "10", "--format", "json"])
    # each side of the least budget that scores these candidates at k = 4 and 5
    for k, n, budget in ((4, 10, "6"), (4, 10, "7"), (5, 10, "16"), (5, 10, "17"),
                         (4, 6, "1")):
        calls.append(["search", "--k", str(k), "--n", str(n), "--samples", "30",
                      "--budget", budget])
    calls.append(["search", "--k", "4", "--n", "10", "--exhaustive", "--budget", "1000"])
    return calls


def outcome(argv: list[str]) -> dict:
    """One call's exit code and the SHA-256 of its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


if __name__ == "__main__":
    entries = [outcome(argv) for argv in _argvs()]
    HASHES.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {HASHES}", file=sys.stderr)
