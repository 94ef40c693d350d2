"""Exception hierarchy shared by all gf2count modules.

Every error raised on purpose by this package derives from
:class:`Gf2CountError`, so callers (notably the CLI) can map failure
classes to distinct exit codes.
"""


class Gf2CountError(Exception):
    """Base class for all errors raised by gf2count."""


class FormatError(Gf2CountError):
    """Matrix text input is malformed (ragged rows, bad characters, empty)."""


class DimensionError(Gf2CountError):
    """Operands have incompatible shapes."""


class IndexSetError(Gf2CountError):
    """A column-subset argument is empty, unsorted, duplicated or out of range."""


class RankError(Gf2CountError):
    """A matrix required to have full row rank does not."""


class ConditionError(Gf2CountError):
    """The distance condition needed by the counting formula does not hold."""


class BudgetError(Gf2CountError):
    """An enumeration would exceed the configured work budget."""


class ConsistencyError(Gf2CountError):
    """Two computations that must agree exactly did not."""
