"""The small-model census: every two-theta model on a few points, classified.

A census model has two rows that are integer compositions of 8 (each row
is over 8), no all-zero column and two different rows.  Models equal up to
a permutation of the points are one model, listed once as its sorted
multiset of (row 1, row 2) columns.  The pinned counts make any change in a
classification show as a diff, and on the smallest censuses each model
also goes through the replaced algorithms of ``test_differential``.

Larger censuses run outside pytest, by calling these same functions with
``src`` and ``tests`` on ``sys.path``: the CI workflow runs ``tally`` with
``check_classify`` at 5 points, and the idempotence test at 4 and 5.
"""

from collections import Counter
from fractions import Fraction as F
from functools import partial

import pytest

import laminal as L

from test_differential import check_classify


def census_models(n):
    """Every census model on ``n`` points, in lexicographic order of columns."""
    columns = [(a, b) for a in range(9) for b in range(9) if a or b]
    labels = tuple(str(i + 1) for i in range(n))

    def multisets(chosen, start, left_a, left_b):
        # Columns from ``start`` on, so each multiset comes out sorted once;
        # the last column is what is left of both rows.
        if len(chosen) == n - 1:
            if columns[start] <= (left_a, left_b):
                yield chosen + [(left_a, left_b)]
            return
        for i in range(start, columns.index((left_a, 8)) + 1):
            a, b = columns[i]
            if b <= left_b:
                yield from multisets(chosen + [columns[i]], i, left_a - a, left_b - b)

    for chosen in multisets([], 0, 8, 8):
        rows = list(zip(*chosen))
        if rows[0] != rows[1]:
            yield L.FiniteModel(("theta1", "theta2"), labels,
                                [[F(v, 8) for v in row] for row in rows], f"census{n}")


def tally(n, classify):
    """The census on ``n`` points through ``classify``: the number of models,
    of those with an unstable ancillary, and of models per maximal count."""
    unstable, maximals = 0, Counter()
    for model in census_models(n):
        cls = classify(model)
        # A unique maximal is the laminal, which every ancillary coarsens,
        # so all are minimal and stable.  Of two maximals neither coarsens
        # the other, so neither is minimal, and neither is stable.
        has_unstable = cls.stable != cls.ancillaries
        assert has_unstable == (len(cls.maximal) > 1), model
        unstable += has_unstable
        maximals[len(cls.maximal)] += 1
    return sum(maximals.values()), unstable, dict(sorted(maximals.items()))


@pytest.mark.parametrize("n,models,unstable,maximals", [
    (3, 304, 0, {1: 304}),
    (4, 942, 50, {1: 892, 2: 50}),
    (5, 1579, 491, {1: 1088, 2: 395, 3: 96}),
    (6, 1761, 1181, {1: 580, 2: 493, 3: 437, 4: 180, 6: 71}),
])
def test_census_counts(n, models, unstable, maximals):
    # The replaced algorithms take about 2 s at 4 points and 10 s at 5, so
    # past 4 points only classify runs here.
    classify = partial(check_classify, within=None) if n <= 4 else L.classify
    assert tally(n, classify) == (models, unstable, maximals)


@pytest.mark.parametrize("n", [3])
def test_sc_reduction_is_idempotent_on_the_census(n):
    for model in census_models(n):
        for j in range(n):
            assert L.ev_sc_idempotent(L.InferenceBase(model, j)), (model, j)
