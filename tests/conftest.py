"""Shared fixtures and small helpers for the test suite."""

from fractions import Fraction

import pytest

import laminal as L


def bp(text: str, n: int) -> L.Partition:
    """Partition from 1-based block syntax, e.g. ``bp("1,2|3,4", 4)``."""
    return L.parse_partition(text, [str(i + 1) for i in range(n)])


def assert_s_witness(ib1, ib2, h) -> None:
    """Check that ``h`` really witnesses sufficiency equivalence."""
    e1, e2 = L.ev_ms(ib1), L.ev_ms(ib2)
    assert sorted(h.mapping) == list(range(len(e1.space)))
    assert h(e2.observed_block) == e1.observed_block
    for src, dst in enumerate(h.mapping):
        assert e2.model.column(src) == e1.model.column(dst)


@pytest.fixture(scope="session")
def ex1():
    return L.example1_model(Fraction(1, 100))


@pytest.fixture(scope="session")
def ex2():
    return L.example2_model()


@pytest.fixture(scope="session")
def ex1_eps0():
    # example1 at eps = 0, outside example1_model's range, where equal
    # likelihood ratios merge columns; the rows are checked against
    # cli.EX1_FORMS in test_model.py.
    f = Fraction
    return L.FiniteModel(
        ("theta1", "theta2"), tuple(str(i) for i in range(1, 8)),
        [[f(1, 8), f(1, 8), f(1, 8), f(1, 8), f(1, 14), f(2, 14), f(4, 14)],
         [f(1, 16), f(3, 16), f(3, 16), f(1, 16), f(2, 14), f(1, 14), f(4, 14)]],
        "example1",
    )


@pytest.fixture(scope="session")
def one_theta():
    return L.FiniteModel(
        ("theta1",), ("1", "2", "3"),
        [[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]],
        "flat",
    )


@pytest.fixture(scope="session")
def unique_maximal():
    # Only nontrivial ancillary is {1,2}|{3}: a genuine two-component mixture
    # with parameter-dependent conditionals inside the first block.
    return L.FiniteModel(
        ("theta1", "theta2"), ("1", "2", "3"),
        [[Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
         [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]],
        "twoarm",
    )
