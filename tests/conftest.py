import random
from pathlib import Path

import pytest

from gf2count import BitMatrix, parse_matrix, rank

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> BitMatrix:
    return parse_matrix((FIXTURES / name).read_text())


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def identity(n: int) -> BitMatrix:
    """The n x n identity matrix, parsed from text."""
    return parse_matrix("\n".join("0" * i + "1" + "0" * (n - 1 - i) for i in range(n)))


def random_full_rank(k: int, n: int, seed: int) -> BitMatrix:
    rng = random.Random(seed)
    while True:
        m = BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
        if rank(m) == k:
            return m


@pytest.fixture
def g74() -> BitMatrix:
    return load_fixture("g_7_4.txt")


@pytest.fixture
def g74_sys() -> BitMatrix:
    return load_fixture("g_7_4_systematic.txt")


@pytest.fixture
def h74() -> BitMatrix:
    return load_fixture("h_7_4.txt")


@pytest.fixture
def g107() -> BitMatrix:
    return load_fixture("g_10_7.txt")


@pytest.fixture
def g107_sys() -> BitMatrix:
    return load_fixture("g_10_7_systematic.txt")


@pytest.fixture
def g1511() -> BitMatrix:
    return load_fixture("g_15_11.txt")


@pytest.fixture
def effdist36() -> BitMatrix:
    return load_fixture("effdist_3_6.txt")
