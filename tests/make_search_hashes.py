"""Write search_hashes.json: the pinned output bytes of ``gf2count`` calls.

Run from any directory, with the package to pin on the path:

    PYTHONPATH=src python tests/make_search_hashes.py
    PYTHONPATH=src python tests/make_search_hashes.py --check

``--check`` writes nothing: it replays every pinned call, prints the
argv of each whose exit code or output hash differs and exits 1 if any
does.  It needs only the standard library.

Each entry holds a call's argv, its exit code and the SHA-256 of its
stdout and stderr, made in-process through ``cli.main`` from the
repository root, so fixture paths are relative and appear in messages
as written.  The calls cover ``search`` (sampled, exhaustive, over
budget) and ``count``, ``weights``, ``sets`` and ``verify`` on the
fixtures, usage errors, rank-deficient input and small budgets
included.  A seeded random corpus (``corpus``: 4 x 10 to 9 x 22, zero
and repeated columns and shapes with k > n - k among them) adds
``sets``, ``count --list-sets`` and ``verify`` calls, and thin wide
matrices (2 x 30 to 4 x 80, whose scans branch) ``count --mode oracle``
and ``sets`` calls, and rank-deficient ones (a zero, repeated or summed
row) ``count``, ``sets``, ``weights --dual`` and ``verify`` calls, all
refused with exit 4, on matrices written
to a scratch directory, named there by relative paths, so no absolute
path enters the output, and ``verify`` calls with a supplied dual
(``corpus_duals``) on the corpus matrices whose systematic form moves
columns.  ``test_cli.test_search_output_bytes_are_pinned``,
``test_cli.test_command_output_bytes_are_pinned`` and
``test_cli.test_corpus_output_bytes_are_pinned`` replay them.
Regenerate the file only when a change alters output on purpose, and
list every call whose entry changed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from itertools import islice
from math import comb
from operator import xor
from pathlib import Path

from gf2count import BitMatrix, rank
from gf2count.cli import main
from naive import naive_dual_basis, naive_systematic_form

HASHES = Path(__file__).with_name("search_hashes.json")
ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("g_7_4", "g_7_4_systematic", "h_7_4", "effdist_3_6", "g_10_7",
            "g_10_7_systematic", "g_15_11", "rank_2_3_6")


def _fixture(name: str) -> str:
    return f"tests/fixtures/{name}.txt"


def _search_argvs() -> list[list[str]]:
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
    # each side of the least budget that scores these candidates at k = 4 and 5,
    # and at k = 5 the budgets 16 and 17 that a walk in width-sum order needed;
    # 4 x 6 at budget 1, which its minors score with no budget
    for k, n, budget in ((4, 10, "6"), (4, 10, "7"), (5, 10, "11"), (5, 10, "12"),
                         (5, 10, "16"), (5, 10, "17"), (4, 6, "1")):
        calls.append(["search", "--k", str(k), "--n", str(n), "--samples", "30",
                      "--budget", budget])
    calls.append(["search", "--k", "4", "--n", "10", "--exhaustive", "--budget", "1000"])
    # shapes with k * (n - k) = 16, the widest that systematic_counts scores one
    # block to a 16-bit lane, and at 4 x 8 either side of 67 * n, the most visits
    # a DP of the shape can make, which leave the scorer as it is
    for k, n in ((1, 17), (2, 10), (4, 8)):
        calls.append(["search", "--k", str(k), "--n", str(n), "--exhaustive",
                      "--format", "json"])
    for k, n in ((5, 8), (8, 10), (16, 17)):
        calls.append(["search", "--k", str(k), "--n", str(n), "--samples", "200",
                      "--format", "json"])
    for budget in ("535", "536"):
        calls.append(["search", "--k", "4", "--n", "8", "--samples", "30",
                      "--budget", budget])
    # multiset keys past one byte a field (k = 9 and 12) and past 8 columns (w = 36)
    for k, n, samples in ((4, 40, "500"), (9, 15, "200"), (9, 20, "100"), (12, 18, "200")):
        calls.append(["search", "--k", str(k), "--n", str(n), "--samples", samples,
                      "--format", "json"])
    # the cheapest exhaustive shape the DP scores, 2^18 candidates, each side of
    # the least budget that lets it run
    for budget in ("262143", "262144"):
        calls.append(["search", "--k", "6", "--n", "9", "--exhaustive", "--budget", budget,
                      "--format", "json"])
    return calls


def _command_argvs() -> list[list[str]]:
    calls = []
    g74, h74, g107 = _fixture("g_7_4"), _fixture("h_7_4"), _fixture("g_10_7")
    for name in FIXTURES:
        path = _fixture(name)
        for form in ("text", "json"):
            for mode in ("auto", "formula", "oracle", "both"):
                calls.append(["count", path, "--mode", mode, "--format", form])
            for extra in ([], ["--dual"]):
                calls.append(["weights", path, *extra, "--format", form])
            calls.append(["sets", path, "--format", form])
        calls.append(["verify", path, "--trials", "3"])
    for path in (g74, h74, g107, _fixture("effdist_3_6")):
        for form in ("text", "json"):
            calls.append(["count", path, "--list-sets", "--format", form])
    for path in (g74, g107):
        for limit in ("0", "7", "60"):
            calls.append(["count", path, "--list-sets", "--set-limit", limit])
            calls.append(["sets", path, "--set-limit", limit, "--format", "json"])
    calls.append(["count", g107, "--mode", "both", "--list-sets", "--set-limit", "60",
                  "--format", "json"])
    for dual in ([], [h74]):
        for trials in ("0", "3"):
            for form in ("text", "json"):
                calls.append(["verify", g74, *dual, "--trials", trials, "--format", form])
    calls.append(["verify", _fixture("g_7_4_systematic"), h74, "--trials", "3"])
    calls.append(["verify", g74, "--trials", "3", "--seed", "5", "--format", "json"])
    calls.append(["verify", g74])  # 20 trials by default
    calls.append(["verify", g74, g107, "--trials", "3"])  # wrong shape: exit 7
    calls.append(["verify", g74, _fixture("g_7_4_systematic"), "--trials", "3"])
    # over budget: exit 6
    calls.append(["count", _fixture("g_15_11"), "--mode", "oracle", "--budget", "100"])
    calls.append(["count", _fixture("g_15_11"), "--mode", "both", "--budget", "100"])
    calls.append(["count", g107, "--budget", "1"])
    calls.append(["sets", g74, "--budget", "10"])
    calls.append(["verify", g74, "--budget", "50"])
    calls.append(["verify", g74, "--trials", "3", "--budget", "139"])
    calls.append(["verify", g74, "--trials", "3", "--budget", "140"])
    # a rank-deficient matrix is judged before its dual file is read: exit 4
    rank236 = _fixture("rank_2_3_6")
    calls.append(["verify", rank236, _fixture("no_such_dual"), "--trials", "3"])
    calls.append(["verify", rank236, g107, "--trials", "3"])  # a wrong-shape dual
    calls.append(["verify", rank236, "--budget", "1"])
    # usage errors: exit 2
    calls.append(["count", g74, "--mode", "formula", "--list-sets"])
    calls.append(["count", g74, "--budget", "0"])
    calls.append(["count", g74, "--set-limit", "-1"])
    calls.append(["sets", g74, "--threads", "-1"])
    calls.append(["verify", g74, "--trials", "-1"])
    calls.append(["weights", g74, "--budget", "5"])
    calls.append(["count"])
    return calls


def _argvs() -> list[list[str]]:
    return _search_argvs() + _command_argvs()


CORPUS = "random"  # the corpus directory, relative to the calls' working directory
# (k, n, columns zeroed, columns repeated): k < n - k, k = n - k and k > n - k
CORPUS_SHAPES = (
    (4, 10, 0, 0), (4, 12, 1, 0), (4, 16, 0, 2), (5, 10, 0, 0), (5, 12, 0, 1),
    (5, 14, 2, 0), (5, 18, 0, 0), (6, 10, 0, 0), (6, 12, 1, 1), (6, 14, 0, 0),
    (6, 14, 1, 0), (6, 14, 0, 3), (6, 16, 0, 0), (6, 20, 1, 2), (7, 11, 0, 1),
    (7, 12, 0, 0), (7, 14, 0, 0), (7, 16, 0, 0), (7, 16, 2, 0), (7, 16, 0, 2),
    (7, 18, 0, 0), (8, 13, 1, 0), (8, 16, 0, 0), (8, 19, 0, 0), (8, 20, 1, 1),
    (9, 14, 0, 0), (9, 15, 0, 2), (9, 18, 0, 0), (9, 20, 0, 0), (9, 22, 0, 0),
)
# thin wide shapes, drawn after CORPUS_SHAPES, whose scans branch below the top
# state: ``count --mode oracle`` on each and ``sets`` on those of at most 500 subsets
THIN_SHAPES = ((2, 30, 1, 0), (3, 12, 0, 1), (3, 19, 1, 1), (3, 80, 0, 0), (4, 80, 2, 0))
# rank-deficient shapes, drawn last: (k, n, terms), k - 1 independent rows and,
# at a random place among them, the sum of ``terms`` of them (0 a zero row, 1 a
# repeated row); every command on them exits 4
DEFICIENT_SHAPES = ((7, 10, 3), (5, 10, 2), (3, 12, 0), (4, 9, 1))


def corpus() -> dict[str, str]:
    """The seeded random matrices, relative file name to text, one per
    CORPUS_SHAPES entry, then one per THIN_SHAPES entry, by ``random_columns``,
    then one per DEFICIENT_SHAPES entry."""
    rng = random.Random(28)
    files = {}
    for i, (k, n, zeros, repeats) in enumerate(CORPUS_SHAPES + THIN_SHAPES):
        cols = random_columns(rng, k, n, zeros, repeats)
        text = "".join("".join(str(c >> r & 1) for c in cols) + "\n" for r in range(k))
        files[f"{CORPUS}/{i:02d}_{k}x{n}.txt"] = text
    for i, (k, n, terms) in enumerate(DEFICIENT_SHAPES, len(files)):
        cols = random_columns(rng, k - 1, n, 0, 0)
        rows = [sum((c >> r & 1) << j for j, c in enumerate(cols)) for r in range(k - 1)]
        rows.insert(rng.randrange(k), reduce(xor, rng.sample(rows, terms), 0))
        text = "".join(format(row, f"0{n}b")[::-1] + "\n" for row in rows)
        files[f"{CORPUS}/{i:02d}_{k}x{n}.txt"] = text
    return files


def random_columns(rng: random.Random, k: int, n: int, zeros: int, repeats: int) -> list[int]:
    """The columns, bit r for row r, of a random k x n matrix drawn until it
    has full row rank, with its zeroed columns cleared and each repeated
    column a copy of a column left as drawn."""
    while True:
        cols = [rng.getrandbits(k) for _ in range(n)]
        picked = rng.sample(range(n), zeros + repeats)
        kept = [j for j in range(n) if j not in picked]
        for j in picked[:zeros]:
            cols[j] = 0
        for j in picked[zeros:]:
            cols[j] = cols[rng.choice(kept)]
        if rank(BitMatrix.from_lists([[c >> r & 1 for c in cols] for r in range(k)])) == k:
            return cols


def corpus_duals(files: dict[str, str]) -> dict[str, tuple[str, str]]:
    """A dual generator for each CORPUS_SHAPES matrix of at most 15 columns
    whose systematic form moves columns, in the matrix's own column order, by
    ``naive_dual_basis``: matrix file name to (dual file name, text)."""
    duals = {}
    for name, text in islice(files.items(), len(CORPUS_SHAPES)):
        rows = [[int(c) for c in line] for line in text.split()]
        n = len(rows[0])
        if n <= 15 and naive_systematic_form(rows)[1] != list(range(n)):
            dual = "".join("".join(map(str, row)) + "\n" for row in naive_dual_basis(rows))
            duals[name] = (name.replace(".txt", ".dual.txt"), dual)
    return duals


def _corpus_argvs() -> list[list[str]]:
    calls = []
    files = corpus()
    for (k, n, _, _), path in zip(CORPUS_SHAPES, files):
        limit = str(min(comb(n, k) // 2, 2000))  # at most one list of at most 2,000 printed
        calls.append(["sets", path, "--format", "json"] if comb(n, k) <= 2000
                     else ["sets", path, "--set-limit", limit, "--format", "json"])
        calls.append(["count", path, "--list-sets", "--set-limit", limit, "--format", "json"])
        calls.append(["verify", path, "--format", "json", "--trials", "3"])
    for path, (dual, _) in corpus_duals(files).items():
        calls.append(["verify", path, dual, "--trials", "3"])
    # count at the least budget of its DP, and at the larger one that a walk in
    # width-sum order needed
    for path, budgets in ((f"{CORPUS}/23_8x19.txt", ("337", "696")),
                          (f"{CORPUS}/29_9x22.txt", ("1585", "3567"))):
        calls += [["count", path, "--budget", budget] for budget in budgets]
    for (k, n, _, _), path in zip(THIN_SHAPES, islice(files, len(CORPUS_SHAPES), None)):
        calls.append(["count", path, "--mode", "oracle", "--format", "json"])
        if comb(n, k) <= 500:
            calls.append(["sets", path, "--format", "json", "--set-limit", "2000"])
    for path in islice(files, len(CORPUS_SHAPES + THIN_SHAPES), None):
        calls += [["count", path], ["count", path, "--format", "json"],
                  ["count", path, "--mode", "oracle"], ["sets", path],
                  ["weights", path, "--dual"], ["verify", path, "--trials", "3"]]
    return calls


def write_corpus(root: Path) -> None:
    """Write ``corpus()`` and its ``corpus_duals`` under root, where the corpus calls run."""
    (root / CORPUS).mkdir()
    files = corpus()
    for name, text in files.items():
        (root / name).write_text(text)
    for name, text in corpus_duals(files).values():
        (root / name).write_text(text)


def in_corpus(argv: list[str]) -> bool:
    return len(argv) > 1 and argv[1].startswith(CORPUS + "/")


def outcome(argv: list[str], cwd: Path = ROOT) -> dict:
    """One call's exit code and the SHA-256 of its stdout and stderr, run in cwd."""
    out, err = io.StringIO(), io.StringIO()
    back = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        os.chdir(back)
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def changed_calls() -> list[str]:
    """The argvs, space-joined, of the pinned calls whose outcome differs now."""
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(Path(tmp))
        return [" ".join(entry["argv"]) for entry in json.loads(HASHES.read_text())
                if outcome(entry["argv"], Path(tmp) if in_corpus(entry["argv"]) else ROOT)
                != entry]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write or check " + HASHES.name + ".")
    parser.add_argument("--check", action="store_true",
                        help="replay the pinned calls, write nothing, exit 1 on a mismatch")
    if parser.parse_args().check:
        changed = changed_calls()
        print("\n".join(changed) or "every pinned call matches")
        sys.exit(1 if changed else 0)
    entries = [outcome(argv) for argv in _argvs()]
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(Path(tmp))
        entries += [outcome(argv, Path(tmp)) for argv in _corpus_argvs()]
    HASHES.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {HASHES}", file=sys.stderr)
