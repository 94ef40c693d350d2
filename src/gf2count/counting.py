"""Counting full-rank k x k column submatrices of a binary k x n matrix.

Three independent routes to the same pair of numbers:

* a closed-form count driven by a weight distribution, exact whenever
  the minimum distance is large enough that no column subset can avoid
  two different codewords at once,

* a dynamic program that counts the bases of the column matroid,
  always exact and far cheaper than listing subsets, and

* a scan over all C(n, k) column subsets, always exact and the only
  route that can list the subsets.

Both exact routes walk column prefixes keeping the subcode of the row
space that vanishes on the prefix.  The scan walks depth first, each
call returning its run of a lexicographic bitmap of the independent
subsets as an int.  A two-word state closes in one loop, a column at a
time; where a cost rule says so a larger state closes at once, as the
AND over the subcode's nonzero words of the lanes that meet each word's
support, read a chunk of columns at a time from tables of ORs, skipping
the words too heavy to miss any completion, and every other state builds
its children by one rule.  One scanner serves any number of k x n row
sets, deciding each state shape and building a closing one's tables
once, in a table that ends with the call that made it (for a
``verify``, ``verify_checks``, whose two sides also share one store of
lane rows).  The DP restricts the subcode to the later columns,
counts the prefixes that share it together, steps its four-word states
by an unrolled reduction and finishes a subcode of at most three words
in closed form, split on the third word, so a four-word start walks as
one chain of states.  Its one entry, ``_walk``, starts from ``gf2.reduced_basis``
and alone chooses the DP's column order.

The DP and the scan are limited by one work budget, counted in visits
to DP states of four or more words or in subsets scanned.  Every
method and check takes the dual from ``codes.dual_of(m)``, in m's own
column order.  ``analyze`` ties them together: it picks the cheaper side
(code or dual) for the distribution, checks the distance condition, and
runs its exact methods from one ordered list, the formula when it is
valid and the DP when nothing else runs.  ``brute_force_counts`` scans
the side with fewer rows.  ``systematic_counts`` scores ``search``'s
candidates [I | P].  Where k (n - k) <= 16 it scores them all at once,
one to a 16-bit lane of an int: the count is the number of
nonsingular square submatrices of P (Cauchy-Binet), each minor one
Laplace step (AND, then XOR) from those one smaller, by a schedule
compiled once a shape.  Otherwise it scores a block in closed form from
its bits for k <= 3, else by one walk per multiset of P's columns, keyed
by P's columns as sorted byte fields moved there by 256-entry tables, a
single chain of states at k = 4.
A subset is "dependent" when the selected columns form a singular k x k
matrix and "independent" when that matrix is invertible; D and I denote
how many subsets fall in each class.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cache
from itertools import accumulate, combinations, compress, islice
from math import comb
from operator import getitem

from .codes import WeightEnumerator, dual_of, min_weight, weight_enumerator
from .errors import BudgetError, ConditionError, ConsistencyError, DimensionError, RankError
from .gf2 import (BitMatrix, _insert, _Record, _rref, _set, full_rank_basis,
                  permute_columns, rank, reduced_basis)

DEFAULT_BUDGET = 10_000_000

SubsetIndex = tuple[int, ...]
LaneRows = dict[tuple[int, int], list[int]]  # the scan's mask rows H(m, r), by (m, r)


def condition_check(d_star: int, k: int, n: int) -> bool:
    """True when 3 * d_star / 2 > max(k, n - k), compared exactly in integers."""
    if not 1 <= k <= n:
        raise DimensionError(f"bad dimensions k={k}, n={n}")
    if d_star < 1:
        raise DimensionError(f"bad minimum distance {d_star}")
    return 3 * d_star > 2 * max(k, n - k)


def singular_count_formula(we: WeightEnumerator, k: int) -> int:
    """Dependent k-column selections of a k x n matrix, from a distribution.

    ``we`` may describe either the row-space code itself (dimension k)
    or its dual (dimension n - k); the dimension is read off the
    coefficient sum.  Counting selections through the dual is the same
    problem on complements, so both sides reduce to the one sum

        sum over d >= 1 of A_d * C(n - d, dim),

    each weight-d word being zero on n - d coordinates, any dim of which
    form a dependent selection on that side.  A selection avoiding two
    words at once would be counted twice, which the distance condition
    rules out; checking it is the caller's responsibility.

    Raises:
        DimensionError: k out of range, or the distribution's dimension
            matches neither the code nor its dual.
        ConsistencyError: coefficient sum is not a power of two.
    """
    n = we.n
    if not 1 <= k <= n:
        raise DimensionError(f"bad dimensions k={k}, n={n}")
    size = we.size
    dim = size.bit_length() - 1
    if size != 1 << dim:
        raise ConsistencyError(f"{size} words cannot form a linear code")
    if dim not in (k, n - k):
        raise DimensionError(
            f"distribution of dimension {dim} fits neither the code ({k}) "
            f"nor its dual ({n - k})"
        )
    return sum(
        we.coeffs[d] * comb(n - d, dim) for d in range(1, n - dim + 1) if we.coeffs[d]
    )


class BruteForceResult(_Record):
    """Outcome of the subset scan.  Set lists are None when not collected.

    ``bitmap`` holds the whole independent family: bit i is set exactly
    when the i-th k-subset in lexicographic order is independent.
    """

    __slots__ = ("singular_count", "full_rank_count", "dependent_sets", "independent_sets",
                 "bitmap")

    def __init__(self, singular_count: int, full_rank_count: int,
                 dependent_sets: tuple[SubsetIndex, ...] | None,
                 independent_sets: tuple[SubsetIndex, ...] | None, bitmap: int) -> None:
        _set(self, "singular_count", singular_count)
        _set(self, "full_rank_count", full_rank_count)
        _set(self, "dependent_sets", dependent_sets)
        _set(self, "independent_sets", independent_sets)
        _set(self, "bitmap", bitmap)


_INDEPENDENT_FLAGS = bytes.maketrans(b"01", b"\0\1")
_DEPENDENT_FLAGS = bytes.maketrans(b"01", b"\1\0")


# The scan closes a state of rem words over m later columns at the cheapest
# chunk width c <= _MAX_CHUNK_BITS whose OR tables (2^width entries of
# C(m, rem) bits per chunk, E in all, kept with the scanner) fit
# _CLOSE_MAX_TABLE_BITS, where closing beats branching and closing its kids.
# In 0.05 us, with W = 2^rem - 1 words, q = ceil(m / c) lookups a word and
# b = C(m, rem) >> 13: a closed state costs W (2 + 2 b + q (2 + b)); the
# tables 4 (1 + b) E and 4 rem m for a share of the Pascal rows, once for the
# s = scans C(n - m - 1, k - rem - 1) states that can reach the shape;
# branching rem C(m, rem - 1) a state; closing the m - rem + 1 kids, at
# widest chunks w = ceil(m / 8), at least (W >> 1) ((m - rem + 1) (2 + 2 w) +
# b (2 + w)).  Measured (2-vCPU Xeon, Python 3.11), per word of W: a closed
# top of two or three tables, one OR expression a word, takes 0.17-0.21 us at
# 3,003 lanes and 0.27-0.31 at 11,440 (0.22-0.31 and 0.35-0.46 through the
# loop over tables, which five to seven tables still take: 0.65-0.85 at
# 1,001-3,060 lanes, 5.5 at 125,970).  The coefficients were fitted to that
# loop and are kept, so every decision stands; they still charge all W words,
# where only the light ones are looked up.  Branching costs 0.054-0.107 rem
# us per (rem - 1)-prefix (costed at 0.05), less where kids close: 12 x 24's
# (19, 10) at 92,378 lanes closed in 3.6 ms a state, its kids in 2.6, so
# the kids' term, not a lane cap, refuses it.  Shared by a
# verify's 22 scans, 6 x 14 and 7 x 16 tops close at c = 7 and 8; verify
# time against c = 4 per call was 0.64 and 0.65 at (8, 2^23), 0.63 and 0.76
# at cap 2^22, 0.70 and 0.74 at c <= 6, 0.62 and 0.65 at (10, 2^24).  One
# scan peaks at 14.9, 16.8 and 12.3 MB (tracemalloc) on 5 x 60, 8 x 30 and
# 12 x 24; c = 4 tables under a 2^16 lane cap held 8.0, 7.1 and 4.4.
_CLOSE_MAX_TABLE_BITS = 1 << 23
_MAX_CHUNK_BITS = 8


def _closes(m: int, rem: int, k: int, n: int, scans: int) -> int:
    """The rule above: the chunk width a k x n scanner of this many row sets
    closes (m, rem) with, or 0 where it branches."""
    states = scans * (comb(n - m - 1, k - rem - 1) if rem < k else 1)
    best = states * rem * comb(m, rem - 1)  # branching
    size = comb(m, rem)
    bulk = size >> 13
    words = (1 << rem) - 1
    # closing the kids instead, at their widest chunks: half the words, as many lanes
    wide = -(-m // _MAX_CHUNK_BITS)
    kids = (words >> 1) * ((m - rem + 1) * (2 + 2 * wide) + bulk * (2 + wide))
    width = 0
    for c in range(1, min(m, _MAX_CHUNK_BITS) + 1):
        whole, tail = divmod(m, c)
        q = whole + (tail > 0)
        entries = (whole << c) + (1 << tail if tail else 0)
        if entries * size > _CLOSE_MAX_TABLE_BITS:
            break
        close = words * (2 + 2 * bulk + q * (2 + bulk))
        cost = states * close + 4 * (1 + bulk) * entries + 4 * rem * m
        if close < kids and cost < best:
            best, width = cost, c
    return width


def _scanner(k: int, n: int, scans: int = 1,
             lane_rows: LaneRows | None = None) -> Callable[[Sequence[int]], int]:
    """Bitmap of the independent k-subsets of columns 0..n-1, for any set of k rows.

    Bit i is set exactly when the i-th k-subset in lexicographic order
    is independent.  A depth-first walk over column prefixes A keeps a
    basis of the subcode of the row space that vanishes on A: rem =
    k - |A| words while A is independent.  ``walk(basis, start)`` returns
    the completions of A by rem of the m = n - start later columns, bit
    t for the t-th of their C(m, rem) subsets in lexicographic order.

    A completion is independent exactly when it meets the support of
    every nonzero word of the span (every cocircuit).  A closed state is
    the AND over those words w of the OR of the masks H(m, rem)[c] over
    the later columns c in w, H(m, r)[c] the lanes of the lexicographic
    r-subsets of m columns that hold column c.  A word of weight above
    m - rem over the later columns meets every rem-subset of them, so its
    OR is every lane and the AND runs over the words of weight at most
    m - rem alone.  The masks come in chunks of c columns, each with a
    table of the ORs of every subset of its masks (Four Russians), so a
    word, one XOR of a basis word and an earlier word shifted down by
    start, is ORed in one lookup per chunk.  With two or three tables,
    as the 6 x 14 and 7 x 16 sides of a ``verify`` and their duals close,
    a word's lookups are one OR expression with no loop over the tables;
    one table, or four or more, take the loop.  The rule above
    ``_CLOSE_MAX_TABLE_BITS`` (``_closes``) decides a shape (m, rem) of
    three or more words, and its width c, where a walk first reaches it,
    and a closing shape's tables are built then, one OR an entry, from H,
    whose rows come by Pascal's rule from rows of m - 1: H(m, r)[0] is the
    low C(m - 1, r - 1) lanes and H(m, r)[c] = H(m - 1, r - 1)[c - 1] |
    H(m - 1, r)[c - 1] << C(m - 1, r - 1).  Every row set scanned shares
    those tables; ``scans``, how many the caller means, weighs their
    build.  The rows H(m, r) depend on the shape alone and are kept in
    ``lane_rows``, keyed by (m, r), which a caller may hand to scanners of
    other row counts so that each row is built once among them.
    Other states of three or more words branch, all by one rule: column x
    extends A when a basis word has bit x, so the OR of the basis lists
    the next columns and no dependent prefix is visited; taking x clears
    bit x with the first word that has it and drops that word.  The
    completions whose next column is x start at bit C(m, rem) - C(n - x,
    rem) (hockey-stick identity), where the parent ORs in the child's run.
    A state of no words is the empty AND, 1, and a one-word state's run
    is w >> start.  A two-word state closes in one loop, with no call:
    taking y leaves the one word of its span that vanishes on y, whose
    run w >> (y + 1) starts at bit C(m, 2) - C(n - y, 2).
    """
    binom = [[1] * (n + 1)]  # binom[r][a] = C(a, r), summed by the hockey stick
    for _ in range(k):
        binom.append([0, *accumulate(binom[-1][:n])])
    # table[rem][start] holds (c, the OR tables of H(n - start, rem) in chunks of c)
    # if a state of rem words from column start closes, else (), and None before a
    # walk first reaches one
    table: list[list] = [[None] * (n + 1) for _ in range(k + 1)]
    if lane_rows is None:
        lane_rows = {}

    def lanes(m: int, r: int) -> list[int]:
        if not 0 < r < m:
            return [min(r, 1)] * m
        row = lane_rows.get((m, r))
        if row is None:
            low = binom[r - 1][m - 1]
            row = lane_rows[m, r] = [(1 << low) - 1] + [
                a | b << low for a, b in zip(lanes(m - 1, r - 1), lanes(m - 1, r))]
        return row

    def or_tables(m: int, r: int, chunk: int) -> tuple[int, list[list[int]]]:
        rows = lanes(m, r)
        held = []
        for g in range(0, m, chunk):
            ors = [0]
            for row in rows[g:g + chunk]:  # ors[2^i + p] = ors[p] | row i, p < 2^i
                ors += [row, *[v | row for v in ors[1:]]]
            held.append(ors)
        return chunk, held

    def walk(basis: Sequence[int], start: int) -> int:
        rem = len(basis)
        if rem < 2:
            return basis[0] >> start if basis else 1
        col = binom[rem]
        size = col[n - start]
        if rem == 2:  # closed: taking column y leaves the one word that vanishes on y
            p, q = basis
            run = 0
            viable = (p | q) & ((1 << (n - 1)) - (1 << start))
            while viable:
                bit = viable & -viable
                viable ^= bit
                y = bit.bit_length() - 1
                w = p if not p & bit else (p ^ q if q & bit else q)
                run |= (w >> (y + 1)) << (size - col[n - y])
            return run
        held = table[rem][start]
        if held is None:
            m = n - start
            chunk = _closes(m, rem, k, n, scans)
            held = table[rem][start] = or_tables(m, rem, chunk) if chunk else ()
        if held:
            chunk, held = held
            low_bits = (1 << chunk) - 1
            words: list[int] = []  # the nonzero words of the span, bit c for column start + c
            for w in basis:
                w >>= start
                words += [w, *[v ^ w for v in words]]
            light = n - start - rem  # a heavier word meets every completion
            block = (1 << size) - 1
            if len(held) == 2:  # two or three tables: one OR expression a word
                t0, t1 = held
                for w in words:
                    if w.bit_count() <= light:
                        block &= t0[w & low_bits] | t1[w >> chunk]
            elif len(held) == 3:
                t0, t1, t2 = held
                for w in words:
                    if w.bit_count() <= light:
                        block &= t0[w & low_bits] | t1[w >> chunk & low_bits] | t2[w >> 2 * chunk]
            else:
                for w in words:
                    if w.bit_count() > light:
                        continue
                    run = 0
                    for ors in held:
                        run |= ors[w & low_bits]
                        w >>= chunk
                    block &= run
            return block
        viable = 0
        for w in basis:
            viable |= w
        viable &= (2 << (n - rem)) - (1 << start)  # columns that leave room for rem - 1
        block = 0
        while viable:
            low = viable & -viable
            viable ^= low
            x = low.bit_length() - 1
            child = []
            pivot = 0
            for w in basis:
                if not w & low:
                    child.append(w)
                elif pivot:
                    child.append(w ^ pivot)
                else:
                    pivot = w
            block |= walk(child, x + 1) << (size - col[n - x])
        return block

    return lambda rows: walk(rows, 0)


def _reversed(bitmap: int, size: int) -> int:
    """The ``size``-bit ``bitmap`` read backwards: complements reverse lexicographic order."""
    return int(format(bitmap, f"0{size}b")[::-1], 2)


def brute_force_counts(
    m: BitMatrix,
    *,
    budget: int = DEFAULT_BUDGET,
    collect_sets: bool = False,
    set_limit: int | None = None,
    dual: BitMatrix | None = None,
) -> BruteForceResult:
    """Classify every k-column subset of m by rank, as one bitmap.

    A depth-first walk over column prefixes (``_scanner``) marks the
    independent subsets in lexicographic order, closing some states as
    one AND over their subcode's nonzero words.  It walks the side with
    fewer rows, to depth min(k, n - k): where k > n - k it scans
    ``dual_of(m)``, in m's column order, and reverses its bits, as a
    subset is a basis exactly when its complement is one of the dual.  The counts are the
    bitmap's population and its complement, and collected lists are
    decoded from it in the same order, so they are deterministic.

    Args:
        m: k x n matrix with full row rank.
        budget: refuse scans with more than this many subsets.
        collect_sets: also return the explicit subset lists (None in
            the result marks an uncollected list).
        set_limit: with collect_sets, leave uncollected, and never
            decode, each list longer than this.
        dual: ``dual_of(m)`` where the caller has derived it, which
            judged m's rank; else the dual is derived here if scanned.

    Raises:
        RankError: m is rank deficient (every subset would be singular).
        BudgetError: C(n, k) exceeds budget.
    """
    k, n = m.rows, m.cols
    if dual is None:
        if k > n - k:
            dual = dual_of(m)  # which judges m's rank
        else:
            full_rank_basis(m)
    total = comb(n, k)
    if total > budget:
        raise BudgetError(f"{total} subsets to scan exceeds budget {budget}")

    if k > n - k:  # scan the dual, in m's column order; complements reverse the order
        bitmap = _reversed(_scanner(n - k, n)(dual.bits), total)
    else:
        bitmap = _scanner(k, n)(m.bits)
    independent = bitmap.bit_count()
    if not collect_sets:
        return BruteForceResult(total - independent, independent, None, None, bitmap)
    text = format(bitmap, "0%db" % total).encode()  # lowest rank last
    dep, ind = (
        tuple(compress(combinations(range(n), k), reversed(text.translate(flags))))
        if set_limit is None or count <= set_limit else None
        for flags, count in ((_DEPENDENT_FLAGS, total - independent),
                             (_INDEPENDENT_FLAGS, independent))
    )
    return BruteForceResult(total - independent, independent, dep, ind, bitmap)


def _completions(key: tuple[int, ...]) -> int:
    """Column sets that complete a state of at most three words (one to one on them).

    A set completes it when its columns' bits under the words form a
    basis.  With m_v the number of columns whose bits read the nonzero
    pattern v (bit i from word i), read off 7 popcounts, of the words and
    their ANDs, split the patterns on the third word c: N0 = m1 + m2 + m3
    columns have c = 0 and |c| = m4 + m5 + m6 + m7 have c = 1.  Three
    columns of distinct patterns are a basis unless their patterns lie on
    a line {u, v, u ^ v}, and a line holds no pattern or two with c = 1.
    So a basis takes one c column and two of distinct patterns among 1, 2
    and 3, any of which span the c = 0 plane: |c| e2(m1, m2, m3); or two c
    columns of patterns p != q and a c = 0 column off their line, pattern
    not s = p ^ q: m_p m_q (N0 - m_s), summed over the three pairs for each
    s; or three c columns of distinct patterns, never a line: e3(m4..m7).
    With fewer words c = 0, so every m_v with c = 1 is 0, and one word
    counts its N0 columns, two words their e2(m1, m2, m3) pairs.
    """
    words = len(key)
    a, b, c = key if words == 3 else key + (0,) * (3 - words)
    ab = a & b
    m7 = (ab & c).bit_count()
    m3, m5, m6 = ab.bit_count() - m7, (a & c).bit_count() - m7, (b & c).bit_count() - m7
    m1, m2 = a.bit_count() - m3 - m5 - m7, b.bit_count() - m3 - m6 - m7
    cs = c.bit_count()
    m4 = cs - m5 - m6 - m7
    n0 = m1 + m2 + m3
    e2 = m1 * m2 + (m1 + m2) * m3
    return (1, n0, e2, cs * e2 + (m4 * m5 + m6 * m7) * (n0 - m1) + (m4 * m6 + m5 * m7) * (n0 - m2)
            + (m4 * m7 + m5 * m6) * (n0 - m3) + m4 * m5 * (m6 + m7) + m6 * m7 * (m4 + m5))[words]


def _connectivity_order(rows: Sequence[int], n: int,
                        lookahead: bool = False) -> tuple[list[int], list[tuple[int, int]]]:
    """A column order that keeps the DP's cuts narrow, chosen greedily, and its rank profile.

    ``rows`` span the row space, column j at bit n - 1 - j.  After a
    prefix A, the DP's states are subspaces of span(A) ∩ span(B), B the
    columns to come, of dimension r(A) + r(B) - r: the matroid's
    connectivity at that cut.  The profile lists (r(A), r(B)) after each
    column.  A narrowest order is NP-hard to find (Horn & Kschischang
    1996), so the prefix grows by the lowest column already in span(A),
    which cannot widen the cut; else by the lowest coloop of B, which
    lowers r(B); else by the lowest column of B, or with ``lookahead`` by
    the one whose vector mod span(A) most columns of B share, then that is
    the sum of most pairs of them, to bring the most columns into span(A)
    soonest.  All are properties of the matroid contracted by A, so row
    operations do not change the order.
    """
    rref = _rref(rows)  # the rows restricted to B, fully reduced
    rank = 0  # r(A)
    # B's columns, ascending, each to its vector mod span(A)
    live = dict(enumerate(BitMatrix(len(rows), n, tuple(rows)).column_ints()[::-1]))
    order, profile = [], []
    while live:
        for pick, v in live.items():
            if not v:  # in span(A)
                break
        else:
            for w in rref:  # a unit word is a coloop of B, the first found the top one
                if not w & (w - 1):
                    pick = n - w.bit_length()
                    break
            else:
                pick = next(iter(live))  # the lowest column of B
                if lookahead:  # columns sharing each vector, then pairs summing to it
                    share = Counter(live.values())
                    pairs = dict.fromkeys(share, 0)
                    for u, v in combinations(share, 2):
                        if u ^ v in pairs:
                            pairs[u ^ v] += share[u] * share[v]
                    pick = max(live, key=lambda j: (share[live[j]], pairs[live[j]]))
        order.append(pick)
        w = live.pop(pick)
        if w:  # add w to span(A) by clearing its lowest bit from every column
            rank += 1
            low = w & -w
            for j, v in live.items():
                if v & low:
                    live[j] = v ^ w
        bit = 1 << (n - 1 - pick)  # and drop the column from B's row space
        head, rest = 0, []
        for u in rref:
            if bit <= u < bit << 1:
                head = u
            else:
                rest.append(u & ~bit)
        rref = tuple(rest)
        if head > bit:  # no other word holds the rest of head's bits as a pivot
            rref = _insert(rref, head ^ bit)
        profile.append((rank, len(rref)))
    return order, profile


@cache
def _subspaces(top: int) -> tuple[tuple[int, ...], ...]:
    """Entry [l][y], l <= top: the subspaces of F_2^l of dimension at most y,
    partial sums of the Gaussian binomials [l, y] = [l - 1, y - 1] + 2^y [l - 1, y]."""
    table, row = [], [1]
    for _ in range(top + 1):
        table.append(tuple(accumulate(row)))
        row = [1, *[a + (b << y) for y, (a, b) in enumerate(zip(row, row[1:]), 1)], 1]
    return tuple(table)


def _walk_order(rows: Sequence[int], n: int) -> list[int]:
    """``_walk``'s column order: of the greedy ``_connectivity_order`` and, where
    its cuts are wide, the lookahead order, each forward or reversed, the one
    whose bound on the DP's kept states is lowest, the first on a tie.

    At a cut of prefix rank a and suffix rank b, width l = a + b - r <=
    min(r, n - r), a kept state of rem >= 4 words is a subspace of
    dimension b - rem of the l-dimensional span(A) ∩ span(B), so the cut
    keeps at most ``_subspaces(top)[l][min(l, b - 4)]`` states, none where
    b < 4.  The bound sums that over the cuts the walk visits, the one
    before each column; the cut after the last has b = 0 and adds nothing.
    Reversed, a and b swap.  All four are row-invariant, so the choice is.
    """
    r = len(rows)
    greedy = _connectivity_order(rows, n)
    candidates = [greedy]
    # the lookahead costs 1.3-2x the greedy, its pair counts about n^2 a step,
    # so it is built only where the greedy's cuts have sum 2^width over n^2:
    # built always, it made banded 30 x 90 2.5x slower
    if sum(1 << (a + b - r) for a, b in greedy[1]) > n * n:
        candidates.append(_connectivity_order(rows, n, lookahead=True))
    subspaces = _subspaces(min(r, n - r))  # no cut is wider
    walks = []  # (bound, order)
    for order, profile in candidates:
        forward = backward = 0
        for a, b in [(0, r), *profile]:  # (r(A), r(B)) before each column, and after the last
            width = a + b - r
            kept = subspaces[width]
            if b > 3:
                forward += kept[min(width, b - 4)]
            if a > 3:
                backward += kept[min(width, a - 4)]
        walks += [(forward, order), (backward, order[::-1])]
    return min(walks, key=lambda walk: walk[0])[1]


def basis_count(gen: BitMatrix, *, budget: int = DEFAULT_BUDGET) -> int:
    """Number of linearly independent r-subsets of gen's columns, r = gen.rows.

    These are the bases of the column matroid of a full-row-rank gen
    (0 when gen is rank deficient, 1 when r = 0), counted by ``_walk``
    from ``reduced_basis(gen)``; it raises BudgetError as ``_walk`` does.
    """
    start = reduced_basis(gen)
    if len(start) < gen.rows:
        return 0
    return _walk(start, gen.cols, budget, {})


def _over_budget(visits: int, budget: int) -> BudgetError:
    return BudgetError(f"subset DP needs at least {visits} state visits, over budget {budget}")


def _skip(a: int, b: int, c: int, w: int) -> tuple[int, int, int, int]:
    """``gf2._insert((a, b, c), w)`` unrolled, for a fully reduced a > b > c: w
    in its place, each word above it that holds w's leading bit XORed with w."""
    if w > b:
        return (w, a, b, c) if w > a else (a ^ w if a ^ w < a else a, w, b, c)
    a, b = a ^ w if a ^ w < a else a, b ^ w if b ^ w < b else b
    return (a, b, w, c) if w > c else (a, b, c ^ w if c ^ w < c else c, w)


def _walk(start: tuple[int, ...], n: int, budget: int,
          closed: dict[tuple[int, ...], int]) -> int:
    """The subset DP: independent r-subsets of n columns, r = len(start).

    ``start`` is the row space's reduced basis, column j at bit n - 1 - j
    (``gf2.reduced_basis``).  Unless min(r, n - r) <= 4, the columns are
    first put in ``_walk_order``, the words' bits moved in this layout, and
    the words folded again by ``gf2._rref``.  The walk
    keeps two dicts from a state to the number of prefixes A that reach
    it, one for the states of four words and one for the larger.  The
    state is the scan's: the subcode that vanishes on A, restricted to the
    columns not yet walked, fully reduced.  Only the first word can hold
    the next column: taking it drops that word, skipping it clears the bit
    and reduces the word back in (``_skip`` on four words), and a word that
    reduces to zero ends the state, as no completion exists.  A state of at
    most three words is never kept but completed at once in closed form
    (``_completions``), each distinct one once, its count kept in the
    caller's dict ``closed``, so r <= 3 walks no column.  A state is fixed
    by span(A) ∩ span(later columns), usually far fewer than C(n, r): one of
    rem words is a subspace of it of dimension r(later columns) - rem, so
    a walk ends once the later columns have rank below 4, and
    ``_walk_order`` picks the order, and its direction, by the bound that
    puts on the states kept.
    At r = 4 a state's only four-word child is its skip child, so the walk
    is one chain in no dict, from one column its head holds to the next,
    each column passed still one visit.

    Raises:
        BudgetError: visits to states of four or more words, summed over
            all columns, exceed budget; a visit is the scan's unit of a subset.
    """
    r = len(start)
    if r < 4:
        return _completions(start)
    full = 0
    if r == 4:  # the chain of single states
        h, a, b, c = start
        while True:
            top = 1 << (h.bit_length() - 1)  # the next column any word holds
            if n - h.bit_length() >= budget:  # that column j is the (j + 1)-th visit
                raise _over_budget(budget + 1, budget)
            rest = a, b, c
            done = closed.get(rest)
            if done is None:
                done = closed[rest] = _completions(rest)
            full += done
            if h == top:
                return full
            h, a, b, c = _skip(a, b, c, h ^ top)
    # a cut's r(A) + r(B) - r never exceeds min(r, n - r); up to 4, every
    # order keeps at most 67 subspaces live, and ordering costs more
    if min(r, n - r) > 4:
        order = _walk_order(start, n)  # the walk's column t is at bit n - 1 - order[t]
        perm = sorted(range(n), key=order[::-1].__getitem__, reverse=True)  # to n - 1 - t
        start = _rref(permute_columns(BitMatrix(r, n, start), perm).bits)
    four, big = {}, {start: 1}  # the states of four words, and of more
    visits = 0
    for j in range(n):
        visits += len(four) + len(big)
        if visits > budget:
            raise _over_budget(visits, budget)
        bit = 1 << (n - 1 - j)
        next4: dict[tuple[int, ...], int] = {}
        nextbig: dict[tuple[int, ...], int] = {}
        get4, getbig = next4.get, nextbig.get
        for key, count in four.items():
            h, a, b, c = key
            if h & bit:
                rest = a, b, c
                done = closed.get(rest)
                if done is None:
                    done = closed[rest] = _completions(rest)
                full += count * done
                if h == bit:  # the word vanishes on the later columns
                    continue
                key = _skip(a, b, c, h ^ bit)  # h holds no leading bit of the rest
            next4[key] = get4(key, 0) + count
        for key, count in big.items():
            head = key[0]
            if head & bit:
                rest = key[1:]
                if len(rest) == 4:
                    next4[rest] = get4(rest, 0) + count
                else:
                    nextbig[rest] = getbig(rest, 0) + count
                if head == bit:
                    continue
                key = _insert(rest, head ^ bit)  # head holds no leading bit of rest
            nextbig[key] = getbig(key, 0) + count
        if not next4 and not nextbig:
            break
        four, big = next4, nextbig
    return full


def systematic_rows(p_bits: int, k: int, w: int) -> tuple[int, ...]:
    """Rows of [I | P], column j at bit j; P's entry (i, j) is bit i * w + j of p_bits."""
    pmask = (1 << w) - 1
    return tuple([1 << i | (p_bits >> i * w & pmask) << k for i in range(k)])


# A block of k * w <= 16 bits and its score, at most C(k + w, k) <= 70, share
# one 16-bit lane.  A DP state of such a shape is a subspace of a space of
# dimension min(k, w) <= 4, so a walk visits at most 67 (the subspaces of F_2^4)
# a column and cannot exceed a budget of 67 (k + w).  On an exhaustive 4 x 8
# search (65,536 blocks, 2-vCPU Xeon, Python 3.11), 2,048 lanes a pass score
# in 15 ms and the search peaks at 0.33 MB (tracemalloc); 4,096 take 14 ms at
# 0.65 MB, 512 take 24-32 ms, and one pass of all of them 18-21 ms at 10.5 MB.
_MINOR_LANES = 2048


@cache
def _minor_schedule(k: int, w: int) -> tuple[int, list[tuple[int, int, int]]]:
    """``_minor_scores``' Laplace steps for k x w blocks, as slots of one list v.

    v[i * w + j] is P's entry (i, j), the 1 x 1 minor, and each larger
    minor has a slot after those of the minors one smaller.  The steps are
    (t, e, s): the minor at t gains the term v[e] & v[s], e an entry of its
    first row i and s the minor on its other rows without that entry's
    column.  Returns the slots v needs and the steps in order.
    """
    slots = {1 << w + b // w | 1 << b % w: b for b in range(k * w)}  # R << w | J to its slot
    steps = []
    minors = list(slots)
    for _ in range(min(k, w) - 1):
        smaller = len(slots)
        for key in minors:
            rows = key >> w
            for i in range((rows & -rows).bit_length() - 1):  # a first row above R
                head = key | 1 << w + i
                for j in range(w):
                    if not key >> j & 1:
                        at = slots.setdefault(head | 1 << j, len(slots))
                        steps.append((at, i * w + j, slots[key]))
        minors = list(slots)[smaller:]  # the minors one larger
    return len(slots), steps


def _minor_scores(blocks: Iterable[int], k: int, w: int) -> Iterator[int]:
    """``basis_count`` of [I | P] for each block P of k * w <= 16 bits, all at once.

    A basis takes P's columns J and the identity's columns of the rows
    outside some R, |R| = |J|, and is one exactly when P[R, J] is
    nonsingular (Cauchy-Binet), so the count is the number of nonsingular
    square submatrices of P, the empty one included.  The blocks are packed
    one to a 16-bit lane of an int, P's entry (i, j) is the plane of bit
    i * w + j of every lane, and each s x s minor is one Laplace step
    along its first row from the (s - 1) x (s - 1) minors below it: an AND
    a term, XORed, by the steps ``_minor_schedule`` compiles once for the
    shape.  The minors are 0 or 1 a lane and a lane's sum at most
    C(k + w, k) <= 70, so the plain sum of them all carries into no other
    lane.  A pass takes ``_MINOR_LANES`` blocks.
    """
    from array import array  # loaded only by a search that scores this way
    from sys import byteorder

    size, steps = _minor_schedule(k, w)
    blocks = iter(blocks)
    while batch := array("H", islice(blocks, _MINOR_LANES)):
        lanes = len(batch)
        x = int.from_bytes(batch.tobytes(), byteorder)
        unit = ((1 << 16 * lanes) - 1) // 0xFFFF  # bit 0 of every lane
        v = [x >> b & unit for b in range(k * w)] + [0] * (size - k * w)
        for t, e, s in steps:
            v[t] ^= v[e] & v[s]
        yield from array("H", sum(v, unit).to_bytes(2 * lanes, byteorder))


def _bit_tables(places: Sequence[int | None]) -> list[list[int]]:
    """Tables that move bit b of an int to bit ``places[b]``, dropped where that is None.

    Table t maps each value of the int's byte t, read little-endian, to
    its bits moved, so for distinct places the moved int is
    ``sum(map(getitem, tables, x.to_bytes(len(tables), "little")))``.
    Bits past ``len(places)`` are dropped too.
    """
    tables = []
    for t in range(0, len(places), 8):
        table = [0]
        for place in places[t:t + 8]:  # table[2^i + p] = table[p] | bit i moved, p < 2^i
            bit = 0 if place is None else 1 << place
            table += [v | bit for v in table]
        tables.append(table * (256 // len(table)))
    return tables


def systematic_counts(
    blocks: Iterable[int], k: int, w: int, *, budget: int = DEFAULT_BUDGET
) -> Iterator[int]:
    """``basis_count`` of [I | P] for each block P, read as by ``systematic_rows``.

    Where k * w <= 16, ``_minor_scores`` scores the blocks bit-parallel
    from the nonsingular minors of P, with no budget.  Elsewhere, for k <= 3
    the rows of [I_3 | P], P's missing rows zero, are one
    3-tuple of shifted masks, counted at once by ``_completions`` with no
    column order; an added unit row is a coloop, so no count changes.
    From k = 4 the count depends only on the multiset of P's columns, so
    each multiset is walked once.  Its key holds each column as a field
    of ceil(k / 8) bytes, row i at bit k - 1 - i, big-endian, so the
    fields sort as the columns' 0/1 text, row 0 first, and the key is the
    sorted fields joined.  One ``_bit_tables`` set moves P's bits to the
    fields, and on a new key another moves the key's bits to the rows of
    [I | P] over the sorted columns, in the DP's layout, column j at bit
    n - 1 - j: row i is the identity's bit n - 1 - i over bit i of each
    field, the first field highest, which it alone holds, so the rows are
    fully reduced and are ``_walk``'s start as they stand.  Raises
    BudgetError as ``_walk`` does, not at k <= 3 or k * w <= 16.
    """
    if k * w <= 16:
        yield from _minor_scores(blocks, k, w)
        return
    if k <= 3:
        pmask = (1 << w) - 1
        for p in blocks:
            yield _completions((1 | (p & pmask) << 3, 2 | (p >> w & pmask) << 3,
                                4 | p >> 2 * w << 3))
        return
    n, size = k + w, -(-k // 8)
    span = w * size  # bytes in a key
    # P's entry (i, j) to bit k - 1 - i of column j's field, the fields big-endian
    to_fields = _bit_tables([(w - 1 - j) * 8 * size + k - 1 - i
                             for i in range(k) for j in range(w)])
    # bit s of key byte t is row i's bit of the sorted column f = t // size, which
    # goes to bit w - 1 - f of row i, the rows packed n bits apart
    to_rows = _bit_tables([None if i < 0 else i * n + w - 1 - t // size
                           for t in range(span) for s in range(8)
                           for i in [k - 1 - s - 8 * (size - 1 - t % size)]])
    units = sum(1 << i * n + n - 1 - i for i in range(k))
    shifts, mask, cuts = range(0, k * n, n), (1 << n) - 1, range(0, span, size)
    block_bytes = len(to_fields)
    scores: dict[bytes, int] = {}
    closed: dict[tuple[int, ...], int] = {}
    for p_bits in blocks:
        fields = sum(map(getitem, to_fields, p_bits.to_bytes(block_bytes, "little"))
                     ).to_bytes(span, "big")
        key = (bytes(sorted(fields)) if size == 1
               else b"".join(sorted([fields[t:t + size] for t in cuts])))
        value = scores.get(key)
        if value is None:
            rows = sum(map(getitem, to_rows, key), units)
            value = scores[key] = _walk(tuple([rows >> t & mask for t in shifts]), n, budget,
                                        closed)
        yield value


class CountReport(_Record):
    """Full outcome of an analysis run.

    ``d_star`` is None only for the degenerate k = n case, where the
    relevant code is trivial and the condition holds vacuously.  Subset
    lists hold 0-based strictly increasing tuples and are None exactly
    when collection was not requested.
    """

    __slots__ = ("n", "k", "d_star", "condition_holds", "side", "singular_count",
                 "full_rank_count", "method", "enumerator", "dependent_sets", "independent_sets")

    def __init__(self, n: int, k: int, d_star: int | None, condition_holds: bool, side: str,
                 singular_count: int, full_rank_count: int, method: str,
                 enumerator: WeightEnumerator,
                 dependent_sets: tuple[SubsetIndex, ...] | None = None,
                 independent_sets: tuple[SubsetIndex, ...] | None = None) -> None:
        if side not in ("primal", "dual"):
            raise ConsistencyError(f"unknown side {side!r}")
        if method not in ("formula", "oracle", "both"):
            raise ConsistencyError(f"unknown method {method!r}")
        if singular_count + full_rank_count != comb(n, k):
            raise ConsistencyError("counts do not sum to C(n, k)")
        if dependent_sets is not None and len(dependent_sets) != singular_count:
            raise ConsistencyError("dependent set list does not match its count")
        if independent_sets is not None and len(independent_sets) != full_rank_count:
            raise ConsistencyError("independent set list does not match its count")
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "d_star", d_star)
        _set(self, "condition_holds", condition_holds)
        _set(self, "side", side)
        _set(self, "singular_count", singular_count)
        _set(self, "full_rank_count", full_rank_count)
        _set(self, "method", method)
        _set(self, "enumerator", enumerator)
        _set(self, "dependent_sets", dependent_sets)
        _set(self, "independent_sets", independent_sets)

    def to_json_dict(self) -> dict:
        """JSON-ready dict; subset indices are shifted to 1-based."""
        out = {
            "n": self.n,
            "k": self.k,
            "d_star": self.d_star,
            "condition_holds": self.condition_holds,
            "side": self.side,
            "D": self.singular_count,
            "I": self.full_rank_count,
            "method": self.method,
            "enumerator": self.enumerator.to_json_dict(),
        }
        if self.dependent_sets is not None:
            out["dependent_sets"] = [[j + 1 for j in s] for s in self.dependent_sets]
        if self.independent_sets is not None:
            out["independent_sets"] = [
                [j + 1 for j in s] for s in self.independent_sets
            ]
        return out


def analyze(
    m: BitMatrix,
    mode: str = "auto",
    *,
    budget: int = DEFAULT_BUDGET,
    collect_sets: bool = False,
    set_limit: int | None = None,
) -> CountReport:
    """Count invertible and singular k x k column selections of m.

    The weight distribution is taken on whichever of the code and its
    dual has smaller dimension: the code itself when k < n - k, else the
    dual.  Counting k-subsets of the matrix is equivalent to counting
    (n - k)-subsets on the dual side because a selection is invertible
    exactly when its complement is invertible for the dual.  The dual
    side's generator is ``dual_of(m)``, in m's column order; the DP
    orders either side's columns itself.

    Modes:
        auto: formula when the distance condition holds, otherwise the subset DP.
        formula: closed form only; ConditionError if the condition fails.
        oracle: subset scan only.
        both: run the formula, the scan and the subset DP and require
            all three to agree exactly (ConsistencyError).

    collect_sets makes the scan run even in auto mode (the lists cannot
    come from the formula or the DP); a list longer than set_limit, if
    given, is left uncollected.  The methods run from one list in
    that order, the formula when the condition holds outside oracle
    mode, then the scan, then the DP in both mode or when nothing else
    runs, and each D must equal the one before it.  The report's method
    is "formula" when the formula alone ran, "both" when it ran with
    another and "oracle", an exact count not from the formula, otherwise.

    Raises:
        RankError: m is rank deficient.
        ConditionError: mode needs the formula but the condition fails.
        BudgetError: DP states, scan size or enumeration dimension over
            budget.
        ConsistencyError: formula, DP and scan disagree.
    """
    if mode not in ("auto", "formula", "oracle", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "formula" and collect_sets:
        raise ValueError("explicit subset lists require the scan; use another mode")

    k, n = m.rows, m.cols
    total = comb(n, k)
    side = "primal" if k < n - k else "dual"
    # weight_enumerator checks the rank on the primal side, dual_of on the dual
    gen = m if side == "primal" else dual_of(m)
    we = weight_enumerator(gen)
    d_star = min_weight(we)
    holds = True if d_star is None else condition_check(d_star, k, n)

    if mode in ("formula", "both") and not holds:
        raise ConditionError(
            f"need 3 * d_star > 2 * max(k, n - k) but 3 * {d_star} <= "
            f"2 * {max(k, n - k)}; the formula may double count here"
        )

    scan: BruteForceResult | None = None

    def scanned() -> int:
        nonlocal scan
        scan = brute_force_counts(m, budget=budget, collect_sets=collect_sets,
                                  set_limit=set_limit, dual=gen if side == "dual" else None)
        return scan.singular_count

    # the exact methods that run, in order, each with how a mismatch names its D
    plan = []
    if holds and mode != "oracle":
        plan.append(("formula gives", lambda: singular_count_formula(we, k)))
    if mode in ("oracle", "both") or collect_sets:
        plan.append(("the scan found", scanned))
    if mode == "both" or not plan:
        plan.append(("the subset DP found", lambda: total - basis_count(gen, budget=budget)))
    singular = -1
    for i, (found, run) in enumerate(plan):
        d = run()
        if i and d != singular:
            raise ConsistencyError(f"{plan[i - 1][0]} D={singular} but {found} D={d}")
        singular = d
    method = ("oracle" if plan[0][0] != "formula gives"
              else "formula" if len(plan) == 1 else "both")

    return CountReport(
        n=n,
        k=k,
        d_star=d_star,
        condition_holds=holds,
        side=side,
        singular_count=singular,
        full_rank_count=total - singular,
        method=method,
        enumerator=we,
        dependent_sets=None if scan is None else scan.dependent_sets,
        independent_sets=None if scan is None else scan.independent_sets,
    )


def complement_duality_check(
    m: BitMatrix,
    h: BitMatrix | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Scan both sides and verify the complement correspondence.

    A k-subset of m's columns is independent exactly when its
    complement is an independent (n - k)-subset of the dual generator's
    columns.  Complementing reverses lexicographic order: if x is the
    smallest element of A xor B and x is in A, then x is in the
    complement of B.  So the dual's bitmap must equal m's bitmap read
    backwards over C(n, k) bits.

    Args:
        m: k x n matrix with full row rank, scanned as given.
        h: generator of the dual, in m's column order, used as given;
            ``dual_of(m)`` when omitted.  h, supplied or derived, is
            judged against m before any scan: it must be (n - k) x n,
            every row must be orthogonal to every row of m, and full rank.

    Raises:
        RankError: m is rank deficient (judged first), or h is.
        DimensionError: h has the wrong number of columns or rows.
        ConsistencyError: a row of h is not orthogonal to the code.
        BudgetError: the two scans together exceed the budget.
    """
    lane_rows: LaneRows = {}
    return _duality_holds(m, _dual_for(m, h), budget,
                          _scanner(m.rows, m.cols, 1 + (2 * m.rows == m.cols), lane_rows),
                          lane_rows)[0]


def _dual_for(m: BitMatrix, h: BitMatrix | None) -> BitMatrix:
    """h, or ``dual_of(m)`` when omitted, once m's full row rank is judged."""
    if h is None:
        return dual_of(m)
    full_rank_basis(m)
    return h


def _duality_holds(m: BitMatrix, h: BitMatrix, budget: int,
                   scan: Callable[[Sequence[int]], int],
                   lane_rows: LaneRows) -> tuple[bool, int]:
    """``complement_duality_check`` with m scanned by ``scan`` (and h too where n = 2k),
    and m's bitmap.

    Where k < n - k, h goes through its own (n - k)-row scanner, as
    given, which takes its lane rows from ``lane_rows``, the store
    ``scan`` was made with, so no row H(m, r) is built twice.
    """
    k, n = m.rows, m.cols
    if h.cols != n:
        raise DimensionError(f"dual generator has {h.cols} columns, expected {n}")
    elif h.rows != n - k:
        raise DimensionError(f"dual generator has {h.rows} rows, expected {n - k}")
    elif any((a & b).bit_count() & 1 for a in m.bits for b in h.bits):
        raise ConsistencyError("rows of h are not orthogonal to the code")
    elif rank(h) != n - k:
        raise RankError("dual generator is rank deficient")
    if comb(n, k) + comb(n, n - k) > budget:
        raise BudgetError(
            f"scanning both sides needs {comb(n, k) + comb(n, n - k)} subsets, "
            f"over budget {budget}"
        )
    base = scan(m.bits)
    expected = _reversed(base, comb(n, k))  # h's bitmap, by duality
    if k > n - k:  # h has fewer rows, so brute_force_counts scans it as given
        return brute_force_counts(h, budget=budget).bitmap == expected, base
    if 2 * k < n:
        scan = _scanner(n - k, n, 1, lane_rows)
    return scan(h.bits) == expected, base  # h as given


def _row_equivalents(rows: Sequence[int], trials: int,
                     rng: random.Random) -> Iterator[list[int]]:
    """Rows of ``trials`` random row-equivalent variants, one after another.

    A variant is k..3k operations, each uniform over the 2k(k - 1) swaps and
    adds of a row j != i into row i, all drawn as one number read base
    2k(k - 1), low digit first: digit d swaps (odd d) or adds pair d // 2,
    looked up in a table of (i, j, swap) made once a call.
    """
    k = len(rows)
    ops = 2 * k * (k - 1)
    decode = []
    for d in range(ops):
        i, j = divmod(d >> 1, k - 1)
        decode.append((i, j + (j >= i), d & 1))
    for _ in range(trials):
        work = list(rows)
        if k > 1:
            steps = rng.randrange(k, 3 * k + 1)
            seq = rng.randrange(ops ** steps)
            for _ in range(steps):
                seq, d = divmod(seq, ops)
                i, j, swap = decode[d]
                if swap:
                    work[i], work[j] = work[j], work[i]
                else:
                    work[i] ^= work[j]
        yield work


def row_op_invariance_check(
    m: BitMatrix,
    trials: int = 20,
    *,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Scan row-equivalent variants and require identical subset bitmaps.

    Row operations change the matrix but not which column subsets are
    dependent, so every variant must reproduce the base scan exactly.
    The base and the variants, drawn one at a time by
    ``_row_equivalents``, stream through one ``_scanner``; the first
    mismatch ends the check.

    Args:
        m: k x n matrix with full row rank.
        trials: number of random variants to scan.
        seed: seeds the op-sequence generator; same seed, same variants.

    Raises:
        DimensionError: trials is negative.
        BudgetError: (trials + 1) scans would exceed the budget.
        RankError: m is rank deficient.
    """
    return _invariance_holds(m, trials, seed, budget, _scanner(m.rows, m.cols, trials + 1))


def _invariance_holds(m: BitMatrix, trials: int, seed: int, budget: int,
                      scan: Callable[[Sequence[int]], int], base: int | None = None) -> bool:
    """``row_op_invariance_check`` with every scan made by ``scan``, a k x n scanner;
    ``base``, m's bitmap where the caller has scanned m and judged its rank,
    saves m's scan and rank check."""
    if trials < 0:
        raise DimensionError(f"negative trial count {trials}")
    k, n = m.rows, m.cols
    if comb(n, k) * (trials + 1) > budget:
        raise BudgetError(
            f"{trials + 1} scans of {comb(n, k)} subsets exceed budget {budget}"
        )
    import random  # loaded only by the row-op check

    if base is None:
        full_rank_basis(m)
        base = scan(m.bits)
    rng = random.Random(seed)
    return all(scan(rows) == base for rows in _row_equivalents(m.bits, trials, rng))


def verify_checks(
    m: BitMatrix,
    h: BitMatrix | None = None,
    *,
    trials: int = 20,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[str, bool]]:
    """``verify``'s checks of m, as (name, passed) pairs.

    ``complement_duality_check(m, h)``, h a dual in m's column order,
    used as given, or ``dual_of(m)`` when omitted, fails the dual pairing
    too when it rejects h; then comes
    ``row_op_invariance_check(m, trials, seed=seed)``.  Every k x n row
    set (m, and the variants, and h where n = 2k) goes through one
    scanner, so each shape's tables are built once; m's bitmap from the
    duality check serves as the invariance check's base, and
    where k < n - k h's (n - k)-row scanner shares its store of lane
    rows, so a ``verify`` builds each row H(m, r) once for both sides.
    Raises RankError when m is rank deficient, and BudgetError as the
    checks do.
    """
    k, n = m.rows, m.cols
    h = _dual_for(m, h)  # m's rank is no pairing failure
    lane_rows: LaneRows = {}
    scan = _scanner(k, n, trials + 1 + (2 * k == n), lane_rows)
    base = None  # m's bitmap, once the duality check has scanned it
    try:
        duality, base = _duality_holds(m, h, budget, scan, lane_rows)
        pairing = True
    except (DimensionError, ConsistencyError, RankError):
        pairing = duality = False
    return [("dual pairing", pairing), ("complement duality", duality),
            (f"row op invariance ({trials} trials)",
             _invariance_holds(m, trials, seed, budget, scan, base))]
