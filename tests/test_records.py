"""The five value records: equality, hashing, immutability and construction checks.

``BitMatrix``, ``SystematicForm``, ``WeightEnumerator``, ``BruteForceResult``
and ``CountReport`` are slotted classes.  A record equals only a record of
its own class with equal fields, hashes by its fields, refuses assignment
and deletion, and checks its fields on construction.
"""

import copy
import pickle
import re

import pytest

from gf2count import (
    BitMatrix,
    BruteForceResult,
    ConsistencyError,
    CountReport,
    DimensionError,
    SystematicForm,
    WeightEnumerator,
)


def we74() -> WeightEnumerator:
    return WeightEnumerator(7, tuple([1, 0, 0, 7, 7, 0, 0, 1]))


def report(**changes) -> CountReport:
    fields = dict(n=7, k=4, d_star=4, condition_holds=True, side="dual", singular_count=7,
                  full_rank_count=28, method="formula", enumerator=we74())
    return CountReport(**{**fields, **changes})


# each record twice, built from equal but separate field values
MAKERS = {
    "BitMatrix": lambda: BitMatrix(2, 3, tuple([5, 3])),
    "SystematicForm": lambda: SystematicForm(BitMatrix(2, 3, (1, 6)), tuple([0, 1, 2])),
    "WeightEnumerator": we74,
    "BruteForceResult": lambda: BruteForceResult(1, 2, ((0, 1),), tuple([(0, 2), (1, 2)]), 6),
    "CountReport": report,
}
# the same records, one field changed
OTHERS = {
    "BitMatrix": BitMatrix(2, 3, (5, 2)),
    "SystematicForm": SystematicForm(BitMatrix(2, 3, (1, 6)), (1, 0, 2)),
    "WeightEnumerator": WeightEnumerator(7, (1, 0, 0, 0, 14, 0, 0, 1)),
    "BruteForceResult": BruteForceResult(1, 2, None, None, 6),
    "CountReport": report(side="primal"),
}
NAMES = sorted(MAKERS)


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_records_and_hashes(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != OTHERS[name] and not a == OTHERS[name]
    assert len({a, b, OTHERS[name]}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_a_record_equals_no_tuple_and_no_other_record_class(name):
    record = MAKERS[name]()
    fields = tuple(getattr(record, field) for field in record.__slots__)
    assert record != fields and fields != record
    assert record != list(fields)
    for other in NAMES:
        if other != name:
            assert record != MAKERS[other]()


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = MAKERS[name]()
    for field in record.__slots__:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_keyword_construction_repr_pickle_and_copy(name):
    record = MAKERS[name]()
    fields = {field: getattr(record, field) for field in record.__slots__}
    assert type(record)(**fields) == record
    assert repr(record) == (
        f"{name}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    )
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert twin == record and type(twin) is type(record)


def test_count_report_lists_default_to_none():
    rep = report()
    assert rep.dependent_sets is None and rep.independent_sets is None
    assert rep == report(dependent_sets=None, independent_sets=None)


@pytest.mark.parametrize("build, error, message", [
    (lambda: BitMatrix(-1, 3, ()), DimensionError, "bad shape -1 x 3"),
    (lambda: BitMatrix(2, -1, (0, 0)), DimensionError, "bad shape 2 x -1"),
    (lambda: BitMatrix(2, 3, (1,)), DimensionError, "expected 2 packed rows, got 1"),
    (lambda: BitMatrix(2, 3, (1, 8)), DimensionError, "row 1 has bits outside 3 columns"),
    (lambda: BitMatrix(1, 3, (-1,)), DimensionError, "row 0 has bits outside 3 columns"),
    (lambda: WeightEnumerator(0, (1,)), DimensionError, "bad length 0"),
    (lambda: WeightEnumerator(3, (1, 0, 0)), DimensionError, "need 4 coefficients, got 3"),
    (lambda: WeightEnumerator(2, (1, -1, 1)), ConsistencyError, "negative weight count"),
    (lambda: WeightEnumerator(2, (0, 1, 1)), ConsistencyError,
     "zero word missing from weight distribution"),
    (lambda: report(side="both"), ConsistencyError, "unknown side 'both'"),
    (lambda: report(method="dp"), ConsistencyError, "unknown method 'dp'"),
    (lambda: report(singular_count=8), ConsistencyError, "counts do not sum to C(n, k)"),
    (lambda: report(dependent_sets=((0, 1, 2, 4),)), ConsistencyError,
     "dependent set list does not match its count"),
    (lambda: report(independent_sets=()), ConsistencyError,
     "independent set list does not match its count"),
])
def test_construction_checks_raise_their_errors(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
