"""Ancillary structure of a finite model.

An ancillary statistic is a partition whose block probabilities do not
depend on the parameter.  This module finds all of them, the maximal ones
(no ancillary strictly refines them), the minimal ones (coarsenings of
every maximal), and their maximum, the laminal ancillary.

Every answer is read from one table per call: the zero-sum events (equal
probability under every theta).  Over the model's integer matrix these are
the subsets whose packed integer weights sum to zero, found with Horowitz
and Sahni's split-halves table in O(2^(n/2)) work plus the output.  A
statistic is ancillary exactly when its blocks are in the table, and the
ancillaries are the covers of the sample space by disjoint nonempty
zero-sum events.  The maximal ones are the covers by atoms, the minimal
nonempty zero-sum events: a block B holding a smaller nonempty zero-sum
event S splits into S and B - S, so a cover with a non-atom block is
strictly refined, and a cover by atoms cannot be.  So one search lists
both: the maximals are the covers found whose blocks are all atoms, and
only a lattice asked for nothing else lists the covers by atoms alone.
Every zero-sum event is a disjoint union of atoms, and every atom is a
block of some maximal (its complement splits into atoms), so their join,
the laminal, is the components of overlapping atoms: it needs no search,
and where the search runs it is re-checked on masks, the maximals' blocks
being exactly the atoms.  A minimal ancillary coarsens every maximal, so
their join, and every union of the laminal's blocks is zero-sum, so the
minimal ancillaries are the ancillaries whose blocks lie in the laminal's
algebra (those unions).  ``classify``'s ``within`` makes
the table that of the pushforward model on the blocks of ``within``, with
answers lifted back to the sample space; every other function answers in
the sample-space lattice.  A lattice lifts each mask it reads to points
once, in one memo, so its covers, Γ0, witnesses and error messages share
those tuples, and a report can name each distinct block once.

Stability is the property that makes an ancillary safe to condition on:
reweighting the marginal distribution of any other ancillary must leave it
ancillary.  By linearity, point masses suffice: ancillarity given each
block B of another ancillary.  P(B) is parameter-free, so that means every
U & B is zero-sum (U a block of the statistic), and as every zero-sum
event is a block of some ancillary, a statistic is stable exactly when its
blocks are conforming: their intersection with every zero-sum event (each
atom suffices) is zero-sum.  The conforming events are Γ0, and that they
are the laminal's algebra is the stable = minimal theorem: it is checked
once per lattice, and every stability answer and Γ0 read the checked set,
with no search; ``is_strong`` re-derives stability from conditional
models.  A witness of instability is a point mass on a block B, the first
in enumeration order, that leaves a block U & B not zero-sum.  It depends
on U's block alone, so each lattice keeps the first hit per non-conforming
event, found by listing each distinct block B once at its first place in
that order; a statistic's witness, its point mass built when first read,
is the earliest over its blocks.  ``classify`` asks for witnesses only
for the ancillaries outside the checked stable set.  Nothing is kept
between calls, so all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb
from operator import attrgetter

from .errors import InternalCheckError, ModelError, NotAncillary, SizeCapExceeded
from .model import FiniteModel, _check_statistic, ancillary_distribution, condition_on_event
from .partitions import DEFAULT_ENUMERATION_CAP, Partition, cached, enumerate_partitions

#: Bound on the number of points (or restriction blocks) for the zero-sum
#: event table.  Its split halves take 2^(n/2) steps each, but a dense
#: model (one theta: every event is zero-sum) still outputs all 2^n events.
EVENT_SCAN_CAP = 20

_ZERO, _ONE = Fraction(0), Fraction(1)


def is_ancillary(model: FiniteModel, p: Partition) -> bool:
    """True when every block of ``p`` has the same probability under all theta."""
    return ancillary_distribution(model, p) is not None


@dataclass(frozen=True)
class InstabilityWitness:
    """A concrete reweighting that makes ``unstable`` informative.

    Remixing ``via`` with ``weights`` gives block ``block`` of ``unstable``
    the two different probabilities in ``lr`` under the theta values in
    ``thetas``.
    """

    unstable: Partition
    via: Partition
    weights: tuple[Fraction, ...]
    block: int
    lr: tuple[Fraction, Fraction]
    thetas: tuple[int, int]

    def __post_init__(self):
        if self.lr[0] == self.lr[1]:
            raise ValueError("witness probabilities must differ")


def _bells(n: int) -> tuple[int, ...]:
    """The numbers of partitions of 0, ..., n items: B(m+1) = sum of C(m, j) B(j)."""
    bells = [1]
    for m in range(n):
        bells.append(sum(comb(m, j) * b for j, b in enumerate(bells)))
    return tuple(bells)


#: Bell(b) for every laminal a lattice can have: b parts of at most
#: EVENT_SCAN_CAP blocks of within.
_BELL = _bells(EVENT_SCAN_CAP)


class _Lattice:
    """The zero-sum event table of one model, and every answer read from it.

    Events are bitmasks over the blocks of ``within`` (bit i is block i);
    None stands for the singletons.  Each answer is computed on first use,
    after the cap that guards it (event table, ancillary search) is checked.
    """

    def __init__(self, model: FiniteModel, within: Partition | None,
                 cap: int = DEFAULT_ENUMERATION_CAP):
        self.model, self.cap = model, cap
        self.within = Partition.singletons(model.n_samples) if within is None else within
        _check_statistic(model, self.within)
        self.k = self.within.n_blocks
        self._lifted: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}  # see lift
        self._payloads: dict[int, tuple] = {}  # witness payloads, built when read

    def lift(self, z: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The blocks of within in mask ``z``, and their points, sorted.

        The one place a mask becomes points: each mask is lifted the first
        time it is read and kept, so covers, events, witnesses and error
        messages share its tuples.
        """
        lifted = self._lifted.get(z)
        if lifted is None:
            bits, rest = [], z
            while rest:  # one step per set bit, lowest first
                low = rest & -rest
                bits.append(low.bit_length() - 1)
                rest ^= low
            points = sorted(chain.from_iterable(map(self.within.blocks.__getitem__, bits)))
            lifted = self._lifted[z] = tuple(bits), tuple(points)
        return lifted

    def events(self, masks) -> tuple[frozenset[int], ...]:
        """The lifted events, sorted by size, then by their sorted points."""
        points = sorted([self.lift(z)[1] for z in masks], key=lambda e: (len(e), e))
        return tuple(map(frozenset, points))

    @cached
    def zero(self) -> frozenset[int]:
        """Masks of all zero-sum events, the empty and the full one included."""
        if self.k > EVENT_SCAN_CAP:
            raise SizeCapExceeded(
                f"2^{self.k} event scan exceeds the cap of 2^{EVENT_SCAN_CAP}"
            )
        rows = self._sums
        diffs = [[a - b for a, b in zip(row, rows[0])] for row in rows[1:]]
        # One integer per point: its differences as digits in the balanced
        # base 2*bound+1.  No digit sum reaches half the base, so a packed
        # sum is zero exactly when every difference sum is.
        base = 2 * max((sum(map(abs, d)) for d in diffs), default=0) + 1
        weight = [0] * self.k  # packed by Horner's rule, one theta row at a time
        for d in reversed(diffs):
            weight = [w * base + x for w, x in zip(weight, d)]
        # Split halves: the subset sums of each half, indexed by mask; a low
        # mask completes a high one exactly when their sums cancel.
        half = self.k // 2
        low, high = [0], [0]
        for sums, ws in ((low, weight[:half]), (high, weight[half:])):
            for w in ws:
                sums += [s + w for s in sums]
        by_sum: dict[int, list[int]] = {}
        for m, s in enumerate(low):
            by_sum.setdefault(s, []).append(m)
        return frozenset(h << half | m for h, s in enumerate(high) for m in by_sum.get(-s, ()))

    @cached
    def _sums(self) -> tuple[tuple[int, ...], ...]:
        # Row t, block i: the scaled weight of block i of within under theta t.
        # Every row of model.scaled sums to the same S, so a ratio of two
        # entries is a ratio of probabilities.
        return tuple(tuple([sum(map(row.__getitem__, b)) for b in self.within.blocks])
                     for row in self.model.scaled)

    @cached
    def atoms(self) -> tuple[int, ...]:
        # Scanned by popcount, an event is an atom when it holds no atom found.
        atoms: list[int] = []
        for z in sorted(self.zero - {0}, key=int.bit_count):
            for a in atoms:
                if a & z == a:
                    break
            else:
                atoms.append(z)
        return tuple(atoms)

    @cached
    def conforming(self) -> frozenset[int]:
        # The events that meet each atom in a zero-sum event, one set per atom.
        zero = self.zero
        return zero.intersection(*[{c for c in zero if c & a in zero} for a in self.atoms])

    def _masks(self, u: Partition) -> tuple[int, ...]:
        # u's block masks, read through within's growth string; they are
        # disjoint when u is a function of within, as over the singletons.
        _check_statistic(self.model, u)
        masks = [0] * u.n_blocks
        for j, i in zip(u, self.within):
            masks[j] |= 1 << i
        if not self.zero.issuperset(masks):
            raise NotAncillary(f"{u!r} is not ancillary")
        return tuple(masks)

    def _search(self, atoms_only: bool) -> dict[Partition, tuple[int, ...]]:
        # The covers by zero-sum events, or by atoms alone, with their block
        # masks.  The search branches on the lowest uncovered point; what is
        # left uncovered is always zero-sum (the full set and the covered
        # blocks are), so a disjoint union of atoms: no branch dead-ends.
        if self.k > self.cap:
            raise SizeCapExceeded(
                f"enumeration over {self.k} items exceeds the cap of {self.cap}"
            )
        full = (1 << self.k) - 1
        by_lowest: list[list[tuple[int, tuple]]] = [[] for _ in range(self.k)]
        for z in sorted(self.atoms if atoms_only else self.zero - {0}):
            by_lowest[(z & -z).bit_length() - 1].append((z, self.lift(z)))
        # Covers come out with blocks in order of their lowest point, as the
        # blocks of within are, so the block number of each within block,
        # mapped to points, is the cover's growth string.  Each position is
        # written on the way down before the full cover reads it.  Only the
        # candidates are lifted, and every cover is born with its blocks,
        # the lifted point tuples.  The string is canonical as it stands, so
        # the partition is built by the trusted constructor, with no check.
        group, within, found = [0] * self.k, self.within, {}
        make = Partition._canonical

        def extend(covered: int, blocks: tuple[int, ...], points: tuple) -> None:
            if covered == full:
                v = make(map(group.__getitem__, within))
                v.blocks = points
                found[v] = blocks
                return
            free = full & ~covered
            for z, (bits, block) in by_lowest[(free & -free).bit_length() - 1]:
                if not z & covered:
                    for i in bits:
                        group[i] = len(blocks)
                    extend(covered | z, blocks + (z,), points + (block,))

        extend(0, (), ())
        return found

    @cached
    def _blocks(self) -> dict[Partition, tuple[int, ...]]:
        return self._search(atoms_only=False)

    @staticmethod
    def _sorted(covers) -> tuple[Partition, ...]:
        # Partition order is sort_key, (n, block count, blocks).  Covers of
        # one lattice share n, so two stable sorts give it, each on a key
        # read in C: the blocks, then the largest block number.  No record
        # per cover is built or kept alive for the collector to walk.
        return tuple(sorted(sorted(covers, key=attrgetter("blocks")), key=max))

    @cached
    def ancillaries(self) -> tuple[Partition, ...]:
        return self._sorted(self._blocks)

    @cached
    def maximal(self) -> tuple[Partition, ...]:
        # Atom rule (see the module docstring): maximals are the covers by
        # atoms.  Once the full search has run they are the ancillaries, in
        # their order, whose blocks are all atoms; only a lattice that has
        # not searched lists the covers by atoms alone.
        if "_blocks" not in self.__dict__:
            return self._sorted(self._search(atoms_only=True))
        atoms, blocks = set(self.atoms), self._blocks
        return tuple([p for p in self.ancillaries if atoms.issuperset(blocks[p])])

    @cached
    def minimal(self) -> tuple[Partition, ...]:
        # The coarsenings of the laminal (see the module docstring): the
        # ancillaries whose blocks lie in its algebra, the stable events.
        lam, events = self.laminal, self.stable_events
        blocks = self._blocks
        minimal = tuple([p for p in self.ancillaries if events.issuperset(blocks[p])])
        # The join of the maximals is the laminal, on masks: their blocks
        # are exactly the atoms, whose overlap components are its parts.
        if {z for p in self.maximal for z in blocks[p]} != set(self.atoms):
            raise InternalCheckError("join of maximal ancillaries is not the laminal")
        # The same test on the laminal's own masks: the search found it as a
        # cover by its parts, and they are stable events.
        if blocks.get(lam) != self.parts or not events.issuperset(self.parts):
            raise InternalCheckError("laminal is not among the minimal ancillaries")
        if len(minimal) != _BELL[len(self.parts)]:
            raise InternalCheckError("a coarsening of the laminal is not ancillary")
        return minimal

    @cached
    def parts(self) -> tuple[int, ...]:
        # The laminal's blocks as disjoint masks, in order of their lowest bit.
        parts: list[int] = []
        for a in self.atoms:  # merge what a overlaps; parts are disjoint, so sum = union
            parts = [c for c in parts if not c & a] + [a | sum(c for c in parts if c & a)]
        if any(c not in self.zero for c in parts):
            raise InternalCheckError("a component of overlapping atoms is not zero-sum")
        return tuple(sorted(parts, key=lambda c: c & -c))

    @cached
    def laminal(self) -> Partition:
        # Parts come in order of their lowest block of within, whose blocks
        # come in order of their least point: mapped to points, the part
        # numbers are the laminal's growth string.
        part_of = {i: j for j, c in enumerate(self.parts) for i in range(self.k) if c >> i & 1}
        return Partition._canonical(tuple(map(part_of.__getitem__, self.within)))

    @cached
    def algebra(self) -> frozenset[int]:
        # Every union of laminal parts, the empty one included.
        masks = [0]
        for c in self.parts:
            masks += [m | c for m in masks]
        return frozenset(masks)

    @cached
    def stable_events(self) -> frozenset[int]:
        # Definitional route: the conforming events (point masses and the
        # U & B lemma).  Structural route: the laminal's algebra.  Raising on
        # disagreement turns the theory into a check, made once per lattice.
        conforming, algebra = self.conforming, self.algebra
        if conforming != algebra:
            c = min(conforming ^ algebra)
            raise InternalCheckError(
                f"stability routes disagree for event {list(self.lift(c)[1])}: "
                f"conforming={c in conforming}, in the laminal's algebra={c in algebra}")
        return conforming

    def is_stable(self, u: Partition) -> bool:
        return set(self._masks(u)) <= self.stable_events  # u is checked before the table

    @cached
    def _enumeration_order(self) -> list[tuple[Partition, tuple[int, ...]]]:
        # Witnesses are searched in enumerate_partitions order, so the one
        # reported does not depend on the order of the cover search.  Each
        # enumerated partition is hashed and looked up as a tuple, in C.
        parts = enumerate_partitions(self.model.n_samples, self.within, self.cap)
        covers = {v: (v, masks) for v, masks in self._blocks.items()}
        return list(filter(None, map(covers.get, parts)))

    @cached
    def _witnesses(self) -> dict[int, tuple[int, int]]:
        # One entry per non-conforming block mask c (a conforming one meets
        # every zero-sum event in a zero-sum one): the first (order position,
        # block of v) whose block B leaves B & c not zero-sum.  Each distinct
        # B is visited once, at its first place in the order, so the first B
        # that hits c is the first hit of the nested scan.
        zero, order = self.zero, self._enumeration_order
        first: dict[int, tuple[int, int]] = {}
        for pos, (_, bs) in enumerate(order):
            for i, b in enumerate(bs):
                if b not in first:
                    first[b] = (pos, i)
        table, todo = {}, set(zero - self.stable_events)
        for b, hit in first.items():
            if not todo:
                break
            cs = [c for c in todo if b & c not in zero]
            todo.difference_update(cs)
            table.update(dict.fromkeys(cs, hit))
        if todo:
            raise InternalCheckError(f"event {list(self.lift(todo.pop())[1])} is not "
                                     "conforming but no block of an ancillary destabilizes it")
        return table

    def witness(self, u: Partition, cs: tuple[int, ...]) -> InstabilityWitness | None:
        # cs: u's block masks.  A stable statistic needs no witness table.
        if self.stable_events.issuperset(cs):
            return None
        table = self._witnesses
        # The first (position, block of v, block of u) in scan order: the
        # least (hit, block) over u's non-conforming blocks.
        hit, block = min([(table[c], block) for block, c in enumerate(cs) if c in table])
        c = cs[block]
        if c not in self._payloads:
            # Point mass on B, block i of v (order position pos): U & B gets
            # P_t(U & B) / P(B), integer weights over the common scale S.
            (pos, i), rows = hit, self._sums
            v, bs = self._enumeration_order[pos]
            bits = self.lift(bs[i])[0]
            mass = sum(map(rows[0].__getitem__, bits))
            weights = (_ZERO,) * i + (_ONE,) + (_ZERO,) * (len(bs) - i - 1)
            trace = [sum(row[j] for j in bits if c >> j & 1) for row in rows]
            t = next(t for t, s in enumerate(trace) if s != trace[0])
            lr = (Fraction(trace[0], mass), Fraction(trace[t], mass))
            self._payloads[c] = v, weights, lr, (0, t)
        v, weights, lr, thetas = self._payloads[c]
        return InstabilityWitness(u, v, weights, block, lr, thetas)


def ancillaries(model: FiniteModel) -> tuple[Partition, ...]:
    """All ancillary partitions, canonically sorted.

    The trivial one-block partition is always included.  The ancillaries
    that are functions of a partition ``within`` are
    ``classify(model, within).ancillaries``.
    """
    return _Lattice(model, None).ancillaries


def maximal_ancillaries(
    model: FiniteModel, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Partition, ...]:
    """Ancillaries that no other ancillary strictly refines."""
    return _Lattice(model, None, cap).maximal


def minimal_ancillaries(model: FiniteModel) -> tuple[Partition, ...]:
    """Ancillaries that are coarsenings of every maximal ancillary."""
    return _Lattice(model, None).minimal


def laminal(model: FiniteModel) -> Partition:
    """The finest common coarsening of all maximal ancillaries.

    Its blocks are the components of overlapping atoms, so only the event
    table's cap bounds it.  Wherever the ancillaries are searched it is
    re-checked to be the join of the maximals (their blocks are exactly the
    atoms) and the maximum of the minimal ancillaries.
    """
    return _Lattice(model, None).laminal


def is_stable(model: FiniteModel, u: Partition) -> bool:
    """True when no reweighting of any other ancillary makes ``u`` informative.

    Read from the event table, with no ancillary search: ``u`` is stable
    when each block is conforming, and the conforming events are checked to
    be the laminal's algebra, so the call fails loudly if they differ.
    Among functions of a partition ``within`` the stable statistics are
    ``classify(model, within).minimal``, which can hold one this rejects.
    """
    return _Lattice(model, None).is_stable(u)


def is_strong(model: FiniteModel, u: Partition) -> bool:
    """True when reweighting ``u`` never makes another ancillary informative.

    Checked by conditioning on each block of ``u`` and testing every other
    ancillary in that conditional model, independently of the U & B lemma;
    the result must coincide with ``is_stable``.
    """
    lat = _Lattice(model, None)
    stable = lat.is_stable(u)
    conds = [(condition_on_event(model, b), b) for b in u.blocks]
    strong = all(
        is_ancillary(c, v.restrict(b)) for c, b in conds for v in lat.ancillaries
    )
    if strong != stable:
        raise InternalCheckError(f"strong/stable disagree for {u!r}")
    return strong


def instability_witness(model: FiniteModel, u: Partition) -> InstabilityWitness | None:
    """First point-mass reweighting (deterministic order) that destabilizes ``u``.

    Candidates are point masses on each block of each ancillary, the
    ancillaries in enumeration order.  Point masses are complete (an
    unstable statistic always fails in some conditional model), so the
    search cannot miss.  Returns None when ``u`` is stable, read from the
    table as in ``is_stable``: only an unstable ``u`` searches.
    """
    lat = _Lattice(model, None)
    return lat.witness(u, lat._masks(u))


def ancillary_events(model: FiniteModel) -> tuple[frozenset[int], ...]:
    """All subsets of the sample space with parameter-free probability.

    Read from the split-halves zero-sum table (canonical order in the
    output), so ``n`` is capped at ``EVENT_SCAN_CAP``.
    """
    lat = _Lattice(model, None)
    return lat.events(lat.zero)


def algebra_generated_by(p: Partition) -> tuple[frozenset[int], ...]:
    """All unions of blocks of ``p`` (the algebra it generates).

    There are 2^(block count) of them, so the block count is capped at
    ``EVENT_SCAN_CAP``, as the zero-sum event table is.
    """
    if p.n_blocks > EVENT_SCAN_CAP:
        raise SizeCapExceeded(
            f"2^{p.n_blocks} events in the algebra exceed the cap of 2^{EVENT_SCAN_CAP}"
        )
    blocks = p.blocks
    events = [frozenset(e for i, b in enumerate(blocks) if m >> i & 1 for e in b)
              for m in range(1 << p.n_blocks)]
    return tuple(sorted(events, key=lambda e: (len(e), sorted(e))))


def gamma0(model: FiniteModel, *, _lattice: _Lattice | None = None) -> tuple[frozenset[int], ...]:
    """Ancillary events whose intersection with every ancillary event is ancillary.

    Read from the lattice's stable events, checked to be, as masks, the
    algebra generated by the laminal's blocks.  ``_lattice`` lets
    ``classify`` hand over the sample-space lattice it has already built.
    """
    lat = _Lattice(model, None) if _lattice is None else _lattice
    return lat.events(lat.stable_events)


@dataclass(frozen=True)
class AncillaryClassification:
    """Complete ancillarity taxonomy of a model.

    All collections are canonically sorted tuples (deduplicated by
    construction), so reports built from them are deterministic.
    ``witnesses`` holds one instability witness per non-stable ancillary,
    in ``ancillaries`` order.
    """

    ancillaries: tuple[Partition, ...]
    maximal: tuple[Partition, ...]
    minimal: tuple[Partition, ...]
    laminal: Partition
    gamma0: tuple[frozenset[int], ...]
    witnesses: tuple[InstabilityWitness, ...]

    @property
    def stable(self) -> tuple[Partition, ...]:
        """The stable ancillaries: ``minimal`` itself, checked equal on every call."""
        return self.minimal


def classify(
    model: FiniteModel,
    within: Partition | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> AncillaryClassification:
    """Compute the full taxonomy, running every internal cross-check.

    ``within``, which no other function takes, makes it the taxonomy of the
    statistics that are functions of ``within`` (the ancillary lattice of
    the pushforward model on its blocks), so the stable/minimal identity
    holds in both modes and is verified on every call.  ``gamma0`` is always
    the event-level scan of the full sample space: read from this call's
    own table when ``within`` is the singletons, from a second sample-space
    table otherwise.
    """
    lat = _Lattice(model, within, cap)
    # The ancillaries first: the search cap is checked before the event table.
    ancillaries = lat.ancillaries
    masks, stable_events = map(lat._blocks.__getitem__, ancillaries), lat.stable_events
    return AncillaryClassification(
        ancillaries=ancillaries,
        maximal=lat.maximal,
        minimal=lat.minimal,
        laminal=lat.laminal,
        gamma0=gamma0(model, _lattice=lat if lat.k == model.n_samples else None),
        # Every ancillary with a block outside the checked stable set has a witness.
        witnesses=tuple([lat.witness(u, cs) for u, cs in zip(ancillaries, masks)
                         if not stable_events.issuperset(cs)]),
    )


def mle(model: FiniteModel, x: int) -> int:
    """Index of the maximum-likelihood theta at ``x``; ties go to the lowest index."""
    return mle_ties(model, x)[0]


def mle_ties(model: FiniteModel, x: int) -> tuple[int, ...]:
    """All theta indices attaining the maximum likelihood at ``x``."""
    col = model.column(x)
    best = max(col)
    return tuple(t for t in range(model.n_thetas) if col[t] == best)


def conditional_mle_table(
    model: FiniteModel, a: Partition, block: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Sampling distribution of the MLE given a block of an ancillary.

    Entry (i, j) is the probability, under theta i and conditionally on the
    given block of ``a``, that the MLE equals theta j.  Rows sum to 1.
    """
    if ancillary_distribution(model, a) is None:
        raise NotAncillary("conditional MLE table requires an ancillary statistic")
    if not 0 <= block < a.n_blocks:
        raise ModelError(f"block index {block} is out of range for {a.n_blocks} blocks")
    points = a.blocks[block]
    winners = [mle(model, j) for j in points]
    table = []
    for cond_row in condition_on_event(model, points).probs:
        row = [_ZERO] * model.n_thetas
        for p, win in zip(cond_row, winners):
            row[win] += p
        table.append(tuple(row))
    return tuple(table)
