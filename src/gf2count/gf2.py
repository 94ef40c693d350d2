"""Bit-packed GF(2) matrices and word-level elimination.

A matrix row is stored as a single Python int: bit j (value ``1 << j``)
holds the entry in column j.  Row XOR is then one integer XOR and rank
computations stay fast for every width we care about without any
per-entry loops.

The one Gauss-Jordan elimination, ``_rref``, folds any words into their
reduced row echelon form, and every elimination goes through it:
``rank`` counts its words; ``reduced_basis`` first puts column j at bit
n - 1 - j, so that a word's leading bit is its first column; and the
subset DP in ``counting`` re-reduces its reordered start with it.
``systematic_form``, ``codes.dual_of`` and the DP start from
``reduced_basis``, the first two through ``full_rank_basis``, which adds
the rank check and the pivot columns.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import attrgetter

from .errors import DimensionError, FormatError, IndexSetError, RankError

_set = object.__setattr__  # how a record's __init__ fills its fields


class _Record:
    """Base of the package's value records: slotted, immutable, compared by value.

    A subclass names its fields in ``__slots__`` and fills them with
    ``_set`` in its own ``__init__``.  Two records are equal when they
    are of one class with equal fields; a record hashes by its fields,
    and assigning or deleting a field raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)  # record -> tuple of its fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._fields(self)))
        return f"{type(self).__name__}({fields})"

    def _frozen(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self) -> tuple:  # pickle and copy would set the slots
        return type(self), self._fields(self)


class BitMatrix(_Record):
    """Immutable binary matrix with int-packed rows.

    ``bits[i]`` is row i; bit j of that int is the entry in column j.
    Degenerate shapes (zero rows, as produced by the dual of a full
    [n, n] code) are allowed; text parsing is stricter.
    """

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows: int, cols: int, bits: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise DimensionError(f"bad shape {rows} x {cols}")
        if len(bits) != rows:
            raise DimensionError(f"expected {rows} packed rows, got {len(bits)}")
        mask = (1 << cols) - 1
        for i, r in enumerate(bits):
            if r < 0 or r & ~mask:
                raise DimensionError(f"row {i} has bits outside {cols} columns")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "bits", bits)

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        """Build from nested 0/1 sequences, row major."""
        if not entries:
            raise DimensionError("no rows given")
        cols = len(entries[0])
        packed = []
        for row in entries:
            if len(row) != cols:
                raise DimensionError("ragged rows")
            acc = 0
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise DimensionError(f"entry {e!r} is not 0 or 1")
                acc |= e << j
            packed.append(acc)
        return cls(len(entries), cols, tuple(packed))

    def column_ints(self) -> tuple[int, ...]:
        """Transpose packing: element j has bit i set iff entry (i, j) is 1."""
        out = [0] * self.cols
        for i, r in enumerate(self.bits):
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= 1 << i
                r ^= low
        return tuple(out)

    def to_lines(self) -> list[str]:
        """Each row as 0/1 text, column 0 first."""
        if not self.cols:
            return [""] * self.rows
        spec = f"0{self.cols}b"
        return [format(r, spec)[::-1] for r in self.bits]

    def __str__(self) -> str:
        return "\n".join(self.to_lines())


def parse_matrix(text: str) -> BitMatrix:
    """Parse a matrix from text.

    One row per line, characters '0' and '1'.  Whitespace inside a row is
    ignored, as are blank lines and lines whose first non-space character
    is '#'.  Ragged or empty input raises FormatError, as does a row with
    any other character, naming the first.
    """
    packed: list[int] = []
    cols = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = "".join(raw.split())
        if not row or row[0] == "#":
            continue
        if row.strip("01"):
            bad = next(ch for ch in row if ch not in "01")
            raise FormatError(f"line {lineno}: unexpected character {bad!r}")
        if cols == -1:
            cols = len(row)
        elif len(row) != cols:
            raise FormatError(
                f"line {lineno}: row has {len(row)} entries, previous rows have {cols}"
            )
        packed.append(int(row[::-1], 2))
    if not packed:
        raise FormatError("no matrix rows found")
    return BitMatrix(len(packed), cols, tuple(packed))


def rank(m: BitMatrix) -> int:
    """Rank over GF(2): the number of words ``_rref`` folds the rows into.

    Rank does not depend on the column order, so the rows' bits are
    folded as they stand.
    """
    return len(_rref(m.bits))


class SystematicForm(_Record):
    """Result of reducing a full-row-rank matrix to [I | P].

    ``matrix`` is the reduced matrix with the identity in the first k
    columns.  ``col_perm[j]`` gives the column of ``matrix`` holding
    original column j; it is the identity permutation whenever the first
    k columns of the input were already independent.
    """

    __slots__ = ("matrix", "col_perm")

    def __init__(self, matrix: BitMatrix, col_perm: tuple[int, ...]) -> None:
        _set(self, "matrix", matrix)
        _set(self, "col_perm", col_perm)

    @property
    def k(self) -> int:
        return self.matrix.rows

    @property
    def n(self) -> int:
        return self.matrix.cols

    def parity_block(self) -> BitMatrix:
        """The k x (n - k) block P to the right of the identity."""
        k = self.k
        shifted = tuple(r >> k for r in self.matrix.bits)
        return BitMatrix(k, self.n - k, shifted)


def _insert(basis: tuple[int, ...], w: int) -> tuple[int, ...]:
    """Add a nonzero w that holds no leading bit of a fully reduced basis."""
    out = []
    for b in basis:
        if b < w:  # the words below w cannot hold its leading bit
            break
        out.append(b ^ w if b ^ w < b else b)
    out.append(w)
    return tuple(out) + basis[len(out) - 1:]


def _rref(words: Iterable[int]) -> tuple[int, ...]:
    """The words' reduced row echelon form: descending, each leading bit
    (pivot) held by no other word, zero and dependent words dropped."""
    basis: tuple[int, ...] = ()
    for w in words:
        for b in basis:
            if w ^ b < w:  # w holds b's leading bit, which no other word holds
                w ^= b
        if w:
            basis = _insert(basis, w)
    return basis


def reduced_basis(m: BitMatrix) -> tuple[int, ...]:
    """m's rows in reduced row echelon form, column j at bit n - 1 - j.

    The words descend, so the first pivot comes first, and each leading
    bit (pivot) is held by no other word.  The form is unique, whatever
    the row order, and has rank(m) words.
    """
    spec = f"0{m.cols}b"
    return _rref(int(format(row, spec)[::-1], 2) for row in m.bits)


def full_rank_basis(m: BitMatrix) -> tuple[tuple[int, ...], list[int]]:
    """``reduced_basis(m)`` and its pivot columns, ascending, for full row rank m.

    Raises:
        RankError: if the matrix does not have full row rank.
    """
    basis = reduced_basis(m)
    if len(basis) < m.rows:
        raise RankError(f"matrix has rank {len(basis)}, full row rank {m.rows} required")
    return basis, [m.cols - w.bit_length() for w in basis]  # column j is at bit n - 1 - j


def systematic_form(m: BitMatrix) -> SystematicForm:
    """Reduce to [I | P], permuting columns only when forced.

    The rows are ``reduced_basis(m)``, the reduced row echelon form, so
    the output does not depend on the original row order.  Its pivot
    columns are the lexicographically first independent ones; if they
    are not 0..k-1 they are moved to the front, pivots first in order,
    and the permutation is recorded.

    Raises:
        RankError: if the matrix does not have full row rank.
    """
    k, n = m.rows, m.cols
    basis, pivots = full_rank_basis(m)
    perm = [0] * n
    for new, old in enumerate(pivots + sorted(set(range(n)).difference(pivots))):
        perm[old] = new
    # column j sits at bit n - 1 - j of the basis, so bit b moves to perm[n - 1 - b]
    return SystematicForm(permute_columns(BitMatrix(k, n, basis), perm[::-1]), tuple(perm))


def permute_columns(m: BitMatrix, perm: Sequence[int]) -> BitMatrix:
    """Move column j to position perm[j] for every j."""
    if sorted(perm) != list(range(m.cols)):
        raise IndexSetError(f"not a permutation of 0..{m.cols - 1}")
    out = []
    for row in m.bits:
        acc = 0
        while row:
            low = row & -row
            acc |= 1 << perm[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return BitMatrix(m.rows, m.cols, tuple(out))


def check_index_set(index_set: Sequence[int], n: int) -> None:
    """Validate a column subset: non-empty, strictly increasing, within range."""
    if len(index_set) == 0:
        raise IndexSetError("empty index set")
    prev = -1
    for j in index_set:
        if not isinstance(j, int) or isinstance(j, bool):
            raise IndexSetError(f"index {j!r} is not an int")
        if j <= prev:
            raise IndexSetError("index set must be strictly increasing")
        if j >= n:
            raise IndexSetError(f"index {j} out of range for {n} columns")
        prev = j
