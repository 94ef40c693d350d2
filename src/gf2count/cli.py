"""Command line front end.

Subcommands
    count    count invertible k x k column selections of a matrix file
    weights  print a weight distribution (optionally of the dual)
    sets     list the dependent and independent column subsets
    search   scan systematic candidates for the most invertible selections
    verify   run the self-check battery on a matrix (and optional dual)

Matrix files hold one row per line, characters 0 and 1, interior
whitespace ignored, '#' starts a comment line.  All indices printed for
humans are 1-based; JSON output uses the same convention.

Exit codes:
    0  success
    1  unexpected internal error
    2  usage error
    3  matrix text could not be parsed
    4  a full-row-rank matrix was required but not supplied
    5  the distance condition fails and the mode demands the formula
    6  the requested work exceeds the budget
    7  a verification check failed
    8  cross-checked computations disagree
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from functools import cache
from itertools import repeat
from math import comb

from .codes import dual_of, macwilliams, weight_enumerator
from .counting import (
    DEFAULT_BUDGET,
    CountReport,
    analyze,
    systematic_counts,
    systematic_rows,
    verify_checks,
)
from .errors import (
    BudgetError,
    ConditionError,
    ConsistencyError,
    FormatError,
    Gf2CountError,
    RankError,
)
from .gf2 import BitMatrix, full_rank_basis, parse_matrix, systematic_form

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_RANK = 4
EXIT_CONDITION = 5
EXIT_BUDGET = 6
EXIT_VERIFY = 7
EXIT_CONSISTENCY = 8

_ERROR_EXITS = (
    (FormatError, EXIT_FORMAT),
    (RankError, EXIT_RANK),
    (ConditionError, EXIT_CONDITION),
    (BudgetError, EXIT_BUDGET),
    (ConsistencyError, EXIT_CONSISTENCY),
)

DEFAULT_WITNESS_CAP = 32


def _read_matrix(path: str) -> BitMatrix:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_matrix(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _emit(lines: Sequence[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(obj: object) -> None:
    import json  # loaded only by the calls that print JSON

    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _set_sections(rep: CountReport, limit: int | None) -> list[str]:
    lines = []
    for label, count, sets in (("dependent sets", rep.singular_count, rep.dependent_sets),
                               ("independent sets", rep.full_rank_count, rep.independent_sets)):
        if sets is None:
            note = f" (list over limit {limit})" if limit is not None else ""
            lines.append(f"{label} ({count}): not listed{note}")
        else:
            lines.append(f"{label} ({count}):")
            lines.extend("  {" + ", ".join(str(j + 1) for j in s) + "}" for s in sets)
    return lines


def _report_text(rep: CountReport, permutation: tuple[int, ...],
                 set_limit: int | None, sets_requested: bool) -> list[str]:
    side_dim = rep.n - rep.k if rep.side == "dual" else rep.k
    lines = [f"matrix: {rep.k} x {rep.n}, full row rank"]
    if any(p != j for j, p in enumerate(permutation)):
        order = ", ".join(str(p + 1) for p in permutation)
        lines.append(f"systematic form moves columns to positions [{order}]")
    else:
        lines.append("systematic form keeps the column order")
    lines.append(f"enumeration side: {rep.side} (dimension {side_dim})")
    lines.append(f"weight enumerator: {rep.enumerator.polynomial_str()}")
    lines.append(f"coefficients: {list(rep.enumerator.coeffs)}")
    if rep.d_star is None:
        lines.append("minimum distance d*: undefined (no nonzero word)")
        lines.append("condition 3*d* > 2*max(k, n-k): holds vacuously")
    else:
        lhs, rhs = 3 * rep.d_star, 2 * max(rep.k, rep.n - rep.k)
        verdict = "holds" if rep.condition_holds else "fails"
        lines.append(f"minimum distance d*: {rep.d_star}")
        lines.append(f"condition 3*d* > 2*max(k, n-k): {verdict} ({lhs} vs {rhs})")
    lines.append(f"method: {rep.method}")
    lines.append(f"singular selections D: {rep.singular_count}")
    lines.append(f"full rank selections I: {rep.full_rank_count}")
    lines.append(f"total C({rep.n}, {rep.k}): {comb(rep.n, rep.k)}")
    if sets_requested:
        lines.extend(_set_sections(rep, set_limit))
    return lines


def cmd_count(args: argparse.Namespace) -> int:
    m = _read_matrix(args.matrix)
    rep = analyze(m, args.mode, budget=args.budget, collect_sets=args.list_sets,
                  set_limit=args.set_limit)
    if args.format == "json":
        _emit_json(rep.to_json_dict())
    else:
        perm = systematic_form(m).col_perm
        _emit(_report_text(rep, perm, args.set_limit, args.list_sets))
    return EXIT_OK


def cmd_weights(args: argparse.Namespace) -> int:
    m = _read_matrix(args.matrix)
    if args.dual:
        direct = weight_enumerator(dual_of(m))
        transformed = macwilliams(weight_enumerator(m), m.rows)
        if direct != transformed:
            raise ConsistencyError(
                "direct dual enumeration and the transform of the primal "
                "distribution disagree"
            )
        we = direct
        dim = m.cols - m.rows
    else:
        we = weight_enumerator(m)
        dim = m.rows
    if args.format == "json":
        _emit_json(we.to_json_dict())
        return EXIT_OK
    lines = [
        f"length n: {we.n}",
        f"dimension: {dim}" + (" (dual of the input)" if args.dual else ""),
        f"weight enumerator: {we.polynomial_str()}",
        f"coefficients: {list(we.coeffs)}",
    ]
    if args.dual:
        lines.append("cross-check against the transformed primal distribution: agree")
    _emit(lines)
    return EXIT_OK


def cmd_sets(args: argparse.Namespace) -> int:
    m = _read_matrix(args.matrix)
    rep = analyze(m, "oracle", budget=args.budget, collect_sets=True,
                  set_limit=args.set_limit)
    if args.format == "json":
        _emit_json(rep.to_json_dict())
        return EXIT_OK
    lines = [f"matrix: {rep.k} x {rep.n}, C({rep.n}, {rep.k}) = "
             f"{comb(rep.n, rep.k)} selections"]
    lines.extend(_set_sections(rep, args.set_limit))
    _emit(lines)
    return EXIT_OK


def run_search(args: argparse.Namespace) -> dict:
    """Score candidate systematic matrices [I | P]; keep the best.

    Every full-row-rank matrix is row-op plus column-permutation
    equivalent to some [I | P], and the counts are invariant under both,
    so scanning P blocks alone covers all attainable values of I.  The
    candidates are every P block or seeded draws, first occurrences in
    order, and ``counting.systematic_counts`` scores them: all at once,
    bit-parallel from the nonsingular minors of P, where k * (n - k) <= 16,
    else in closed form at k <= 3 and by the DP from k = 4.  ``--budget``
    caps the ``--exhaustive`` candidate count and each column multiset's
    visits to DP states of four or more words, so it caps no scoring where
    k <= 3 or k * (n - k) <= 16.
    Returns a JSON-ready summary dict.
    """
    k, n = args.k, args.n
    w = n - k
    width = k * w
    if args.exhaustive:
        if 1 << width > args.budget:
            raise BudgetError(
                f"exhaustive search needs 2^{width} = {1 << width} candidates, "
                f"over budget {args.budget}"
            )
        candidates = range(1 << width)
    else:
        import random  # loaded only by a sampled search

        rng = random.Random(args.seed)
        candidates = list(dict.fromkeys(map(rng.getrandbits, repeat(width, args.samples))))

    best = -1
    achieved = 0
    witnesses: list[BitMatrix] = []
    scores = systematic_counts(candidates, k, w, budget=args.budget)
    for p_bits, value in zip(candidates, scores):
        if value > best:
            best = value
            achieved = 0
            witnesses = []
        if value == best:
            achieved += 1
            if len(witnesses) < args.witnesses:
                witnesses.append(BitMatrix(k, n, systematic_rows(p_bits, k, w)))
    return {
        "k": k,
        "n": n,
        "exhaustive": args.exhaustive,
        "samples": args.samples,
        "seed": None if args.exhaustive else args.seed,
        "candidates_scored": len(candidates),
        "total_subsets": comb(n, k),
        "max_full_rank": best,
        "achieved_by": achieved,
        "witnesses": [w.to_lines() for w in witnesses],
        "witnesses_truncated": achieved > len(witnesses),
    }


def cmd_search(args: argparse.Namespace) -> int:
    summary = run_search(args)
    if args.format == "json":
        _emit_json(summary)
        return EXIT_OK
    kind = "exhaustive" if args.exhaustive else f"random (seed {args.seed})"
    lines = [
        f"search: k={summary['k']}, n={summary['n']}, {kind}, "
        f"{summary['candidates_scored']} candidates",
        f"maximum full rank selections I: {summary['max_full_rank']} "
        f"of C({summary['n']}, {summary['k']}) = {summary['total_subsets']}",
        f"achieved by {summary['achieved_by']} candidates"
        + (f" (showing {len(summary['witnesses'])})"
           if summary["witnesses_truncated"] else ""),
    ]
    for i, w in enumerate(summary["witnesses"], start=1):
        lines.append(f"witness {i}:")
        lines.extend("  " + row for row in w)
    _emit(lines)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    m = _read_matrix(args.matrix)
    h = None
    if args.dual is not None:
        full_rank_basis(m)  # m's rank (exit 4) is judged before the dual file is read
        h = _read_matrix(args.dual)
    checks = verify_checks(m, h, trials=args.trials, seed=args.seed, budget=args.budget)
    passed = all(ok for _, ok in checks)
    if args.format == "json":
        _emit_json({
            "checks": [{"name": name, "passed": ok} for name, ok in checks],
            "passed": passed,
        })
    else:
        lines = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in checks]
        lines.append(f"overall: {'pass' if passed else 'FAIL'}")
        _emit(lines)
    return EXIT_OK if passed else EXIT_VERIFY


def _add_common(sub: argparse.ArgumentParser, *, budget: bool = True,
                threads: bool = True) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default text)")
    if budget:
        sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                         help="most subsets scanned or DP states visited "
                              f"(default {DEFAULT_BUDGET})")
    if threads:
        sub.add_argument("--threads", type=int, default=0,
                         help="no effect; scans run in one process")


@cache  # parse_args leaves the parser as it was, so main builds it once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gf2count",
        description="Count invertible k x k column selections of a binary matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count singular and invertible selections")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--mode", choices=("auto", "formula", "oracle", "both"),
                   default="auto", help="counting strategy (default auto)")
    p.add_argument("--list-sets", action="store_true",
                   help="also list the subsets (forces a scan)")
    p.add_argument("--set-limit", type=int, default=None,
                   help="omit a subset list longer than this")
    _add_common(p)

    p = sub.add_parser("weights", help="print a weight distribution")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--dual", action="store_true",
                   help="distribution of the dual, cross-checked two ways")
    _add_common(p, budget=False, threads=False)

    p = sub.add_parser("sets", help="list dependent and independent subsets")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--set-limit", type=int, default=None,
                   help="omit a subset list longer than this")
    _add_common(p)

    p = sub.add_parser("search", help="maximize I over systematic candidates")
    p.add_argument("--k", type=int, required=True, help="row count")
    p.add_argument("--n", type=int, required=True, help="column count")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true",
                       help="score every P block")
    group.add_argument("--samples", type=int,
                       help="score this many seeded-random P blocks")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed for --samples (default 0)")
    p.add_argument("--witnesses", type=int, default=DEFAULT_WITNESS_CAP,
                   help="keep at most this many best matrices "
                        f"(default {DEFAULT_WITNESS_CAP})")
    _add_common(p)

    p = sub.add_parser("verify", help="run the self-check battery")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("dual", nargs="?", default=None,
                   help="optional dual generator file to check against")
    p.add_argument("--trials", type=int, default=20,
                   help="row-op sequences to test (default 20)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the op sequences (default 0)")
    _add_common(p)
    return parser


_COMMANDS = {
    "count": cmd_count,
    "weights": cmd_weights,
    "sets": cmd_sets,
    "search": cmd_search,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "count" and args.mode == "formula" and args.list_sets:
        parser.error("--list-sets needs a scan; use --mode auto, oracle or both")
    if args.command == "search":
        if args.k < 1 or args.n < 2 or args.k >= args.n:
            parser.error("search needs 1 <= k < n")
        if args.samples is not None and args.samples < 1:
            parser.error("--samples must be positive")
    if getattr(args, "budget", 1) < 1:
        parser.error("--budget must be positive")
    for name in ("threads", "trials", "witnesses", "set_limit"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            parser.error(f"--{name.replace('_', '-')} cannot be negative")
    try:
        return _COMMANDS[args.command](args)
    except Gf2CountError as exc:
        for klass, code in _ERROR_EXITS:
            if isinstance(exc, klass):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
