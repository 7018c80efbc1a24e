"""Seeded input streams for the three workloads.

Every input is drawn here from ``random.Random`` seeded by the workload
name and the seed, never from ``laminal.corpus``, so a change to the program
cannot change the workload.  laminal memoises on model content, so a stream
never repeats model content within a run: draws that collide with an
earlier model are redrawn, and ``ContentRegistry`` raises if a duplicate is
registered anyway.  Each stream keeps a SHA-256 of every text it produced.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    content_key,
    count_free_coarsenings,
    integer_rows,
    model_text,
    normalised_rows,
    parse_text,
    proportional_classes,
)

WORKLOADS = ("search-mixture", "lattice-dense", "audit-corpus")
#: Length of each stream's repeating pattern of item kinds; runs stop only at
#: the end of a cycle, so every run has the same mix of kinds.
CYCLE = {"search-mixture": 10, "lattice-dense": 10, "audit-corpus": 1}

_GRID = 9  # numerators are drawn from 1..9 before row normalisation
_CROSSING_BAND = (25, 53)  # ancillary counts kept for crossing models
_BELL = {2: 2, 3: 5}
_CORPUS_DRAWS = 60  # base draws per audit corpus; every tenth gets a permuted copy
# Primes above 1000: eps = a/p never equals one of the finitely many
# small-denominator values at which example1's lattice degenerates.
_EPS_PRIMES = (1009, 1999, 2003, 3001, 4001, 5003, 6007, 7001, 8009, 9001)


class DuplicateInput(AssertionError):
    """Two inputs of one run share model content."""


class ContentRegistry:
    """Model contents seen in this run; registering one twice raises."""

    def __init__(self):
        self._seen: set[str] = set()

    def is_fresh(self, text: str) -> bool:
        return content_key(text) not in self._seen

    def add(self, text: str) -> None:
        key = content_key(text)
        if key in self._seen:
            raise DuplicateInput(f"model content repeats within the run:\n{text}")
        self._seen.add(key)


@dataclass(frozen=True)
class Item:
    """One unit of work: an ``analyze`` call or one ``audit_relation`` call.

    ``texts`` holds one model for analyze items and the whole corpus for
    audit items (with ``observed`` giving each base's observed index and
    ``planted`` the (base, permuted copy) index pairs).
    """

    index: int
    kind: str
    texts: tuple[str, ...]
    flags: tuple[str, ...] = ()
    observed: tuple[int, ...] = ()
    planted: tuple[tuple[int, int], ...] = ()


def _labels(n: int) -> tuple[str, ...]:
    return tuple(str(j + 1) for j in range(n))


def _thetas(m: int) -> tuple[str, ...]:
    return tuple(f"theta{t + 1}" for t in range(m))


def _planted_blocks(rng: random.Random, n: int, k: int, min_size: int) -> list[list[int]]:
    sizes = [min_size] * k
    for _ in range(n - k * min_size):
        sizes[rng.randrange(k)] += 1
    points = list(range(n))
    rng.shuffle(points)
    blocks, start = [], 0
    for s in sizes:
        blocks.append(sorted(points[start:start + s]))
        start += s
    return blocks


def mixture_rows(rng: random.Random, m: int, blocks: list[list[int]], n: int) -> list[list[Fraction]]:
    """Rows mixing over ``blocks`` with theta-free block weights.

    Inside each block every theta gets its own random conditional, so the
    block partition is parameter-free by construction.
    """
    raw = [rng.randint(1, _GRID) for _ in blocks]
    weights = [Fraction(v, sum(raw)) for v in raw]
    rows = [[Fraction(0)] * n for _ in range(m)]
    for w, block in zip(weights, blocks):
        for t in range(m):
            cond = [rng.randint(1, _GRID) for _ in block]
            for j, c in zip(block, cond):
                rows[t][j] = w * Fraction(c, sum(cond))
    return rows


def generic_rows(rng: random.Random, m: int, n: int) -> list[list[Fraction]]:
    return normalised_rows([[rng.randint(1, _GRID) for _ in range(n)] for _ in range(m)])


def example1_text(eps: Fraction, name: str) -> str:
    """The paper's 2x7 example1 model, the benchmark's own copy of it."""
    f = Fraction
    row1 = (f(1, 8) + eps, f(1, 8) - eps, f(1, 8) + 2 * eps, f(1, 8) - 2 * eps,
            f(1, 14), f(2, 14), f(4, 14))
    row2 = (f(1, 16) - eps, f(3, 16) + eps, f(3, 16) + 4 * eps, f(1, 16) - 4 * eps,
            f(2, 14), f(1, 14), f(4, 14))
    return model_text(name, _thetas(2), _labels(7), (row1, row2))


class InputStream:
    """Unbounded deterministic stream of ``Item``s for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        self.registry = ContentRegistry()
        self._hash = hashlib.sha256()
        self._next = 0

    def input_hash(self) -> str:
        """SHA-256 over every model text produced so far, in order."""
        return self._hash.hexdigest()

    def __iter__(self):
        return self

    def __next__(self) -> Item:
        i = self._next
        self._next += 1
        make = {
            "search-mixture": self._search_mixture,
            "lattice-dense": self._lattice_dense,
            "audit-corpus": self._audit_corpus,
        }[self.workload]
        item = make(i)
        for text in item.texts:
            self.registry.add(text)
            self._hash.update(text.encode())
        return item

    def _fresh(self, draw) -> str:
        while True:
            text = draw()
            if self.registry.is_fresh(text):
                return text

    # -- search-mixture ---------------------------------------------------

    def _search_mixture(self, i: int) -> Item:
        # One m=3 item in ten: the median and the tail both fall among the
        # m=2 items, away from where the two cost groups meet.
        m = 3 if i % 10 == 9 else 2
        rng = self.rng

        def draw() -> str:
            while True:
                k = rng.randint(2, 3)
                rows = mixture_rows(rng, m, _planted_blocks(rng, 8, k, 2), 8)
                irows = integer_rows(rows)
                # All-singleton mss, so both enumerations run over Bell(8)
                # partitions, and no ancillary beyond the planted partition's
                # Bell(k) coarsenings, so items differ little in cost.
                if (len(proportional_classes(irows)) == 8
                        and count_free_coarsenings(irows, [[j] for j in range(8)]) == _BELL[k]):
                    return model_text(f"mix{i}", _thetas(m), _labels(8), rows)

        return Item(i, f"mixture-m{m}", (self._fresh(draw),))

    # -- lattice-dense ----------------------------------------------------

    def _lattice_dense(self, i: int) -> Item:
        # Per ten items: one one-theta model, three crossing models and six
        # example1 copies, so the median and the tail both fall among the
        # example1 items, whose cost varies least.
        rng = self.rng
        if i % 10 == 9:
            def draw() -> str:
                return model_text(f"flat{i}", _thetas(1), _labels(6), generic_rows(rng, 1, 6))
            return Item(i, "one-theta", (self._fresh(draw),), ("--no-within-mss",))
        if i % 10 not in (0, 3, 6):
            def draw() -> str:
                p = rng.choice(_EPS_PRIMES)
                return example1_text(Fraction(rng.randint(1, p // 64), p), f"example1_{i}")
            return Item(i, "example1", (self._fresh(draw),))

        def draw() -> str:
            while True:
                text = self._crossing(f"cross{i}")
                if text is not None:
                    return text

        return Item(i, "crossing", (self._fresh(draw),))

    def _crossing(self, name: str) -> str | None:
        """A 2x7 model whose column differences take two magnitudes of both signs.

        Returns None when the draw's ancillary count (over coarsenings of
        its mss) falls outside the kept band.
        """
        rng = self.rng
        x, y = rng.sample(range(1, 5), 2)
        diffs = [x, -x, x, -x, y, -y, 0]
        rng.shuffle(diffs)
        a = [rng.randint(1 + max(0, -d), _GRID + 4) for d in diffs]
        b = [aj + d for aj, d in zip(a, diffs)]
        irows = [a, b]
        classes = proportional_classes(irows)
        count = count_free_coarsenings(irows, classes)
        if not _CROSSING_BAND[0] <= count <= _CROSSING_BAND[1]:
            return None
        total = sum(a)
        rows = [[Fraction(v, total) for v in row] for row in irows]
        return model_text(name, _thetas(2), _labels(7), rows)

    # -- audit-corpus -----------------------------------------------------

    def _audit_corpus(self, i: int) -> Item:
        rng = self.rng
        texts: list[str] = []
        observed: list[int] = []
        planted: list[tuple[int, int]] = []
        seen_here: set[str] = set()

        def fresh(draw) -> str:
            while True:
                text = draw()
                key = content_key(text)
                if self.registry.is_fresh(text) and key not in seen_here:
                    seen_here.add(key)
                    return text

        for d in range(_CORPUS_DRAWS):
            # A fixed schedule of shapes, so every corpus costs about the same.
            m = 1 + d % 3
            n = 3 + (d // 3) % 4
            mixture = m >= 2 and d % 2 == 0
            name = f"c{i}b{d}"

            def draw() -> str:
                if mixture:
                    blocks = _planted_blocks(rng, n, rng.randint(2, min(3, n)), 1)
                    rows = mixture_rows(rng, m, blocks, n)
                else:
                    rows = generic_rows(rng, m, n)
                return model_text(name, _thetas(m), _labels(n), rows)

            text = fresh(draw)
            texts.append(text)
            observed.append(rng.randrange(n))
            if d % 10 == 9:
                copy, obs = self._permuted(text, observed[-1], n, name + "p")
                if content_key(copy) in seen_here or not self.registry.is_fresh(copy):
                    continue
                seen_here.add(content_key(copy))
                planted.append((len(texts) - 1, len(texts)))
                texts.append(copy)
                observed.append(obs)
        return Item(i, "corpus", tuple(texts), observed=tuple(observed), planted=tuple(planted))

    def _permuted(self, text: str, obs: int, n: int, name: str) -> tuple[str, int]:
        """Column-permuted copy (never the identity) and its observed index."""
        thetas, samples, rows = parse_text(text)
        perm = list(range(n))
        while perm == sorted(perm):
            self.rng.shuffle(perm)
        copy = model_text(name, thetas, [samples[j] for j in perm],
                          [[row[j] for j in perm] for row in rows])
        return copy, perm.index(obs)
