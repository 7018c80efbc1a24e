"""Seeded pseudorandom corpora for property suites and relation audits.

Generic draws put small random integers on a grid and row-normalize, so
every probability is exact.  Interleaved with them are structured draws
built as genuine mixtures over a random block partition: those have a
nontrivial ancillary by construction, which keeps the stability and
laminal properties exercised on more than just trivial lattices.  All
draws are deterministic functions of the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .model import FiniteModel, InferenceBase, example1_model, example2_model

_GRID = 6  # numerators are drawn from 0..6 before row normalization


def _generic_rows(rng: random.Random, m: int, n: int) -> list[list[int]]:
    rows = [[rng.randint(0, _GRID) for _ in range(n)] for _ in range(m)]
    for row in rows:
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, _GRID)
    for j in range(n):
        if all(row[j] == 0 for row in rows):
            rows[rng.randrange(m)][j] = rng.randint(1, _GRID)
    return rows


def _random_generic(rng: random.Random, m: int, n: int, name: str) -> FiniteModel:
    rows = _generic_rows(rng, m, n)
    probs = [
        [Fraction(v, sum(row)) for v in row]
        for row in rows
    ]
    labels = tuple(str(i + 1) for i in range(n))
    thetas = tuple(f"theta{i + 1}" for i in range(m))
    return FiniteModel(thetas, labels, probs, name)


def _random_mixture(rng: random.Random, m: int, n: int, name: str) -> FiniteModel:
    # Block weights are theta-free, conditionals within blocks are arbitrary,
    # so the block partition is ancillary by construction.
    k = rng.randint(2, min(3, n))
    sizes = [1] * k
    for _ in range(n - k):
        sizes[rng.randrange(k)] += 1
    weights_raw = [rng.randint(1, _GRID) for _ in range(k)]
    weights = [Fraction(v, sum(weights_raw)) for v in weights_raw]
    probs: list[list[Fraction]] = [[] for _ in range(m)]
    for b in range(k):
        block_rows = _generic_rows(rng, m, sizes[b])
        for t in range(m):
            s = sum(block_rows[t])
            probs[t].extend(weights[b] * Fraction(v, s) for v in block_rows[t])
    labels = tuple(str(i + 1) for i in range(n))
    thetas = tuple(f"theta{i + 1}" for i in range(m))
    return FiniteModel(thetas, labels, probs, name)


def random_model(rng: random.Random, index: int = 0) -> FiniteModel:
    """One seeded random model with n <= 7 sample points and m <= 3 thetas.

    One-theta draws keep n <= 4: with a single theta every partition is
    ancillary, and small ground sets keep that degenerate lattice cheap.
    """
    m = rng.randint(1, 3)
    n = rng.randint(2, 4 if m == 1 else 7)
    name = f"rand{index}"
    if m >= 2 and n >= 3 and rng.random() < 0.45:
        return _random_mixture(rng, m, n, name)
    return _random_generic(rng, m, n, name)


def random_models(seed: int, count: int) -> list[FiniteModel]:
    rng = random.Random(seed)
    return [random_model(rng, i) for i in range(count)]


def permuted_copy(ib: InferenceBase, rng: random.Random) -> InferenceBase:
    """Column-permuted copy; equivalent to the original under sufficiency."""
    n = ib.model.n_samples
    perm = list(range(n))
    rng.shuffle(perm)
    model = FiniteModel(
        ib.model.theta_labels,
        tuple(ib.model.sample_labels[j] for j in perm),
        tuple(tuple(row[j] for j in perm) for row in ib.model.probs),
        ib.model.name + "_perm",
    )
    return InferenceBase(model, perm.index(ib.observed))


def audit_corpus(seed: int, size: int) -> list[InferenceBase]:
    """Inference bases for relation audits: built-in examples, permuted
    copies of them (guaranteeing related pairs), then seeded random bases."""
    rng = random.Random(seed)
    ex1 = example1_model(Fraction(1, 100))
    ex2 = example2_model()
    corpus = [
        InferenceBase(ex1, 0),
        InferenceBase(ex1, 4),
        InferenceBase(ex2, 0),
    ]
    corpus.extend(permuted_copy(ib, rng) for ib in list(corpus))
    for i in range(size):
        model = random_model(rng, i)
        corpus.append(InferenceBase(model, rng.randrange(model.n_samples)))
    return corpus
