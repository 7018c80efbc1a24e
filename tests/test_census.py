"""The small-model census: every model on a few points, classified.

A census model has m rows that are integer compositions of D (each row is
over D), no all-zero column and m pairwise different rows: two thetas over
8, and three over 4.  Models equal up to a permutation of the points are
one model, listed once as its sorted multiset of columns.  The pinned
counts make any change in a classification show as a diff, and on the
smallest censuses each model also goes through the replaced algorithms of
``test_differential``.

Larger censuses run outside pytest, by calling these same functions with
``src`` and ``tests`` on ``sys.path``: the CI workflow runs ``tally`` with
``check_classify`` at 5 points, the idempotence test at 4 and 5, the
``is_strong`` = ``is_stable`` test at 5, and the three-theta census at 6
points and with ``check_classify`` at 4.
"""

from collections import Counter
from fractions import Fraction as F
from functools import partial
from itertools import product
from operator import le, sub

import pytest

import laminal as L

from test_differential import check_classify, check_wrappers_match_classify


def census_models(n, m=2, d=8):
    """Every census model on ``n`` points with ``m`` thetas, each row over
    ``d``, in lexicographic order of columns."""
    columns = [c for c in product(range(d + 1), repeat=m) if any(c)]
    labels = tuple(str(i + 1) for i in range(n))
    thetas = tuple(f"theta{t + 1}" for t in range(m))

    def multisets(chosen, start, left):
        # Columns from ``start`` on, so each multiset comes out sorted once;
        # the last column is what is left of every row.
        if len(chosen) == n - 1:
            if columns[start] <= left:
                yield chosen + [left]
            return
        for i, c in enumerate(columns[start:], start):
            if c[0] > left[0]:  # and so is every later column's
                break
            if all(map(le, c, left)):
                yield from multisets(chosen + [c], i, tuple(map(sub, left, c)))

    for chosen in multisets([], 0, (d,) * m):
        rows = list(zip(*chosen))
        if len(set(rows)) == m:
            yield L.FiniteModel(thetas, labels, [[F(v, d) for v in row] for row in rows],
                                f"census{n}")


def tally(n, classify, m=2, d=8):
    """The census on ``n`` points through ``classify``: the number of models,
    of those with an unstable ancillary, and of models per maximal count."""
    unstable, maximals = 0, Counter()
    for model in census_models(n, m, d):
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


# Three thetas, each row over 4: models, unstable and maximals per n.  The
# CI workflow checks n = 6, and the oracles at n = 4.
THREE_THETAS = {
    3: (428, 0, {1: 428}),
    4: (1305, 3, {1: 1302, 2: 3}),
    5: (1794, 177, {1: 1617, 2: 177}),
    6: (1483, 635, {1: 848, 2: 438, 3: 174, 4: 23}),
}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_three_theta_census_counts(n):
    classify = partial(check_classify, within=None) if n <= 3 else L.classify
    assert tally(n, classify, m=3, d=4) == THREE_THETAS[n]


@pytest.mark.parametrize("n", [3])
def test_sc_reduction_is_idempotent_on_the_census(n):
    for model in census_models(n):
        for j in range(n):
            assert L.ev_sc_idempotent(L.InferenceBase(model, j)), (model, j)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_is_strong_matches_is_stable_on_the_census(n):
    # The one theorem check that builds conditional models.  At n <= 3
    # every census model has one maximal, so every ancillary is stable.
    for model in census_models(n):
        for u in L.ancillaries(model):
            assert L.is_strong(model, u) == L.is_stable(model, u), (model, u)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wrappers_match_classify_on_the_census(n):
    for model in census_models(n):
        check_wrappers_match_classify(model)
