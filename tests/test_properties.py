"""Property tests over drawn integer-row models (``hypothesis``)."""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import laminal as L

GRID = st.integers(1, 9)


@st.composite
def integer_models(draw):
    """Integer-row models, half of them mixtures over a planted partition.

    The other half move the rows of one shared base by small zero-sum
    integer steps, so many subset sums coincide and atoms often overlap.
    """
    # Richest shapes first: hypothesis draws and shrinks towards the front.
    m, n = draw(st.sampled_from((2, 3, 1))), draw(st.sampled_from((6, 7, 5, 4, 3, 2, 1)))
    if draw(st.booleans()):
        keys = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = L.Partition.from_assignment(keys).blocks
        weights = [draw(GRID) for _ in blocks]
        rows = [[F(0)] * n for _ in range(m)]
        for w, block in zip(weights, blocks):
            for row in rows:
                cond = [draw(GRID) for _ in block]
                for j, c in zip(block, cond):
                    row[j] = F(w, sum(weights)) * F(c, sum(cond))
    else:
        # Row t is the base moved by t times a zero-sum step vector, which is
        # redrawn or (half the time) kept, so that a third theta may share
        # the second one's zero-sum events.  The last point takes up each
        # step's balance and stays positive.
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        base = [rng.randint(3, 9) for _ in range(n - 1)] + [3 + 2 * (n - 1)]
        rows, steps = [[F(b, sum(base)) for b in base]], None
        for t in range(1, m):
            if steps is None or rng.random() < 0.5:
                steps = [rng.choice((-1, 1)) for _ in range(n - 1)]
                steps.append(-sum(steps))
            rows.append([F(b + t * s, sum(base)) for b, s in zip(base, steps)])
    thetas = tuple(f"t{t + 1}" for t in range(m))
    return L.build_model(thetas, tuple(str(j + 1) for j in range(n)), rows, "drawn")


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models())
def test_maximal_ancillaries_are_the_pairwise_filter(model):
    for within in (None, L.mss_partition(model)):
        anc = L.ancillaries(model, within)
        # Finest first, so the any() below stops early on large lattices.
        finest = sorted(anc, key=lambda q: -q.n_blocks)
        pairwise = tuple(p for p in anc
                         if not any(q != p and L.is_coarsening(p, q) for q in finest))
        assert L.maximal_ancillaries(model, within) == pairwise
