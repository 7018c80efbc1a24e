"""Differential tests: the event-table lattice against the algorithms it replaced.

Each oracle below is a direct transcription of an earlier implementation,
kept here only as a reference: the growth-string partition enumerator that
validates every partition it builds, the Bell(n) enumerate-and-filter
search for ancillaries, stability decided through conditional models, the
witness search that builds a ``mixture_model`` per point mass, the nested
witness scan of every ancillary's blocks against every block of the
statistic, a ``Fraction`` scan over all subsets for the conforming events,
the lattice's ``sort_key`` sort of its covers, bit-by-bit lift and
generator scans for its atoms and conforming events,
the Gray-code walk over all 2^k subsets that built the zero-sum table,
the two per-relation equivalence deciders with the command line's separate
search for the obstruction reason, conditioning that filtered the event
down to its live points, the conditional MLE table that divided by each
block's mass itself, the partition constructors that sorted,
validated and prefilled blocks, and the per-token check of a model row.
"""

import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from functools import partial, reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laminal as L
from laminal import (
    DEFAULT_ENUMERATION_CAP,
    FiniteModel,
    InferenceBase,
    Relabeling,
    ThetaSpaceMismatch,
    condition_on_event,
    join,
    maximal_ancillaries,
    model_of_statistic,
    mss_partition,
)
from laminal.ancillary import _Lattice
from laminal.corpus import _random_mixture, audit_corpus, permuted_copy, random_models
from laminal.evidence import _s_related
from laminal import partitions
from laminal.report import fmt_vector

from conftest import bp


def _growth_strings(n):
    # Restricted growth strings a with a[0] = 0 and a[i] <= 1 + max(a[:i]),
    # in lexicographic order; each string encodes one set partition.
    a = [0] * n

    def rec(i, mx):
        if i == n:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, mx if v <= mx else v)

    return rec(1, 0)


def oracle_enumerate_partitions(n, coarser_than=None):
    """Every partition (or coarsening), built through the block-sorting oracles."""
    if coarser_than is None:
        for s in _growth_strings(n):
            yield oracle_from_assignment(s)
    else:
        for s in _growth_strings(coarser_than.n_blocks):
            yield oracle_coarsen(coarser_than, oracle_from_assignment(s))


def oracle_ancillaries(model, within):
    """Every partition, in enumeration order, filtered by ``is_ancillary``."""
    return [p for p in oracle_enumerate_partitions(model.n_samples, within)
            if L.is_ancillary(model, p)]


def oracle_is_stable(model, anc, u, conditionals):
    """u stays ancillary in the conditional model given every block of every ancillary."""
    for v in anc:
        for block in v.blocks:
            if block not in conditionals:
                # Keep the points of the block alive under some theta.
                kept = [j for j in block if any(row[j] > 0 for row in model.probs)]
                conditionals[block] = (L.condition_on_event(model, block), kept)
            cond, kept = conditionals[block]
            if not L.is_ancillary(cond, u.restrict(kept)):
                return False
    return True


def oracle_witness(model, anc, u):
    """First point mass, ancillaries in enumeration order, that makes u informative."""
    for v in anc:
        for i in range(v.n_blocks):
            w = tuple(F(int(j == i)) for j in range(v.n_blocks))
            mix = L.mixture_model(model, v, w)
            kept = [j for j in range(model.n_samples) if w[v.block_of(j)] > 0]
            pos = {e: k for k, e in enumerate(kept)}
            for b_idx, block in enumerate(u.blocks):
                trace = [pos[e] for e in block if e in pos]
                if not trace:
                    continue
                vals = [mix.event_prob(t, trace) for t in range(mix.n_thetas)]
                for t1, t2 in combinations(range(len(vals)), 2):
                    if vals[t1] != vals[t2]:
                        return L.InstabilityWitness(
                            u, v, w, b_idx, (vals[t1], vals[t2]), (t1, t2))
    return None


def oracle_gamma0(model):
    """Conforming events from a plain Fraction scan over all subsets."""
    n = model.n_samples
    events = [
        frozenset(s) for k in range(n + 1) for s in combinations(range(n), k)
        if len({model.event_prob(t, s) for t in range(model.n_thetas)}) == 1
    ]
    eset = set(events)
    conforming = [e for e in events if all(e & f in eset for f in events)]
    return tuple(sorted(conforming, key=lambda e: (len(e), sorted(e))))


def one_theta(n):
    return L.FiniteModel(("t",), tuple(str(i + 1) for i in range(n)),
                         [[F(i + 1, n * (n + 1) // 2) for i in range(n)]], f"flat{n}")


def three_thetas():
    # Point 1 moves up under b and down under c by the same amount, so a
    # check that added the two difference rows would call {1} zero-sum.
    q, x = F(1, 4), F(1, 8)
    cancelling = L.FiniteModel(("a", "b", "c"), ("1", "2", "3", "4"),
                               [[q] * 4, [q + x, q - x, q, q], [q - x, q + x, q + x, q - x]])
    # example2 with its first row repeated: witnesses must pair theta 0 with theta 2.
    ex2 = L.example2_model()
    repeated = L.FiniteModel(("t1", "t1b", "t2"), ex2.sample_labels,
                             [ex2.probs[0], ex2.probs[0], ex2.probs[1]])
    return [("three-theta-cancelling", cancelling), ("three-theta-repeated", repeated)]


MODELS = (
    [("example1", L.example1_model(F(1, 100))),
     ("example1-1/224", L.example1_model(F(1, 224))),
     ("example2", L.example2_model())]
    + three_thetas()
    + [(f"one-theta-{n}", one_theta(n)) for n in range(1, 7)]
    + [(f"random-{seed}-{i}", m)
       for seed in (5, 11) for i, m in enumerate(random_models(seed, 8))]
)


def _random_bases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        yield L.Partition.from_assignment([rng.randrange(min(n, 7)) for _ in range(n)])


BASES = ([bp("1,4|2,3|5", 5), bp("1,3,5|2,4|6", 6), bp("1,6|2,5|3,4|7", 7)]
         + list(_random_bases(50, 3)))
ENUMERATIONS = [(n, None) for n in range(1, 9)] + [(b.n, b) for b in BASES]


@pytest.mark.parametrize("n,base", ENUMERATIONS,
                         ids=[f"n{n}" if b is None else f"w{i}" for i, (n, b) in enumerate(ENUMERATIONS)])
def test_enumeration_matches_the_growth_string_oracle(n, base):
    got = list(L.enumerate_partitions(n, coarser_than=base))
    want = list(oracle_enumerate_partitions(n, base))
    assert got == want
    assert all(p != q for p, q in zip(got, got[1:]))
    for p, q in zip(got, want):
        # The enumerator builds partitions without validation, so check
        # each one against the validating constructor here.
        rebuilt = L.Partition(p.blocks, p.n)
        assert p == rebuilt and hash(p) == hash(rebuilt) == hash(q)
        # Equality reads only the growth string, so check the lazily built
        # blocks and what is read off them on their own.
        assert p.blocks == q.blocks and p.n_blocks == q.n_blocks
        assert p.sort_key() == q.sort_key()
        assert [p.block_of(e) for e in range(n)] == [q.block_of(e) for e in range(n)]
        assert all(p.block_of(e) == i for i, b in enumerate(p.blocks) for e in b)


@pytest.mark.parametrize("n", range(1, 11))
def test_growth_strings_match_the_oracle_past_the_enumeration_sizes(n):
    assert list(partitions._growth_strings(n)) == list(_growth_strings(n))


def check_classify(model, within):
    """classify, gamma0 and instability_witness against the replaced
    algorithms; returns classify's answer."""
    anc = oracle_ancillaries(model, within)
    maxs = sorted(p for p in anc if not any(q != p and L.is_coarsening(p, q) for q in anc))
    mins = sorted(p for p in anc if all(L.is_coarsening(p, w) for w in maxs))
    conditionals = {}
    stable = sorted(u for u in anc if oracle_is_stable(model, anc, u, conditionals))
    witnesses = [w for w in (oracle_witness(model, anc, u) for u in sorted(anc)
                             if u not in stable)]

    cls = L.classify(model, within)
    assert cls.ancillaries == tuple(sorted(anc))
    for p in cls.ancillaries:
        # The cover search builds partitions without validation, so check
        # each one against the validating constructor here.
        rebuilt = L.Partition(p.blocks, p.n)
        assert p == rebuilt and hash(p) == hash(rebuilt)
        assert [p.block_of(e) for e in range(p.n)] == [rebuilt.block_of(e) for e in range(p.n)]
    assert cls.maximal == tuple(maxs)
    assert cls.minimal == tuple(mins)
    assert cls.laminal == reduce(lambda p, q: L.join([p, q]), maxs)
    assert cls.stable == tuple(stable)
    # Over the singletons classify reads Γ0 from its own lattice, otherwise
    # from a second one; either way it is gamma0's answer.
    assert cls.gamma0 == oracle_gamma0(model) == L.gamma0(model)
    assert cls.witnesses == tuple(witnesses)
    by_statistic = {w.unstable: w for w in witnesses}
    # Each call builds its own sample-space lattice, so large lattices are
    # sampled evenly; the restricted witnesses are checked above.
    if within is None:
        for u in cls.ancillaries[::1 + len(anc) // 60]:
            assert L.instability_witness(model, u) == by_statistic.get(u)
    return cls


@pytest.mark.parametrize("within_mss", [False, True], ids=["all", "within-mss"])
@pytest.mark.parametrize("model", [m for _, m in MODELS], ids=[name for name, _ in MODELS])
def test_classify_matches_the_replaced_algorithms(model, within_mss):
    check_classify(model, L.mss_partition(model) if within_mss else None)


@pytest.mark.parametrize("model", [m for name, m in MODELS if m.n_samples <= 5],
                         ids=[name for name, m in MODELS if m.n_samples <= 5])
def test_is_stable_and_ancillary_events_match_the_oracles(model):
    anc = oracle_ancillaries(model, None)
    conditionals = {}
    for u in anc:
        assert L.is_stable(model, u) == oracle_is_stable(model, anc, u, conditionals)
    n = model.n_samples
    events = {
        frozenset(s) for k in range(n + 1) for s in combinations(range(n), k)
        if len({model.event_prob(t, s) for t in range(model.n_thetas)}) == 1
    }
    assert L.ancillary_events(model) == tuple(sorted(events, key=lambda e: (len(e), sorted(e))))


def check_wrappers_match_classify(model):
    """Each single-answer function is the matching field of ``classify(model)``.

    The stability answers agree for every ancillary: ``is_stable``,
    membership in ``minimal`` and a missing witness, and a witness is
    ``classify``'s own.  ``is_strong`` conditions on every block, so it
    joins them on an even sample of at most 20 ancillaries.
    """
    cls = L.classify(model)
    assert L.ancillaries(model) == cls.ancillaries
    assert L.maximal_ancillaries(model) == cls.maximal
    assert L.minimal_ancillaries(model) == cls.minimal
    assert L.laminal(model) == cls.laminal
    assert L.gamma0(model) == cls.gamma0
    minimal, witness = set(cls.minimal), {w.unstable: w for w in cls.witnesses}
    for u in cls.ancillaries:
        w = L.instability_witness(model, u)
        assert L.is_stable(model, u) == (u in minimal) == (w is None)
        assert w == witness.get(u)
    for u in cls.ancillaries[::1 + len(cls.ancillaries) // 20]:
        assert L.is_strong(model, u) == (u in minimal)


@pytest.mark.parametrize("model", [m for _, m in MODELS], ids=[name for name, _ in MODELS])
def test_wrappers_match_classify(model):
    check_wrappers_match_classify(model)


def oracle_nested_witness(lat, u):
    """The scan that found each witness before the per-block memo: every block
    B of every ancillary in enumeration order, against every block of u."""
    if lat.is_stable(u):
        return None
    zero, sums, cs = lat.zero, lat._sums, lat._blocks[u]

    def weight(row: tuple[int, ...], mask: int) -> int:
        return sum(w for i, w in enumerate(row) if mask >> i & 1)

    for v, bs in lat._enumeration_order:
        for i, b in enumerate(bs):
            for block, c in enumerate(cs):
                if b & c in zero:
                    continue
                # Point mass on B: U & B gets P_t(U & B) / P(B) under theta
                # t, a ratio of integer weights over the common scale S.
                trace = [weight(row, b & c) for row in sums]
                t = next(t for t, s in enumerate(trace) if s != trace[0])
                mass = weight(sums[0], b)
                weights = tuple(F(int(x == i)) for x in range(v.n_blocks))
                lr = (F(trace[0], mass), F(trace[t], mass))
                return L.InstabilityWitness(u, v, weights, block, lr, (0, t))
    raise L.InternalCheckError(f"{u!r} is unstable but no witness was found")


def check_witness_order(lat):
    """The two facts that let a sort replace the Bell(n) witness-order pass.

    The pass lists the covers in the order of their plain growth-string
    tuples, and every first hit in the witness table is block 0 of a
    two-block cover (S, A): A is the first atom missing bit 0, atoms taken
    in ascending order of their indicator tuples over the blocks of within,
    whose intersection with the event is not zero-sum.  Returns the number
    of table entries checked.
    """
    order = lat._enumeration_order
    assert [v for v, _ in order] == sorted(lat._blocks, key=tuple)
    full, zero = (1 << lat.k) - 1, lat.zero
    atoms = sorted([a for a in lat.atoms if not a & 1],
                   key=lambda a: [a >> i & 1 for i in range(lat.k)])
    for c, (pos, i) in lat._witnesses.items():
        a = next(a for a in atoms if a & c not in zero)
        assert (i, order[pos][1]) == (0, (full & ~a, a)), list(lat.lift(c)[1])
    return len(lat._witnesses)


@pytest.mark.parametrize("within_mss", [False, True], ids=["all", "within-mss"])
@pytest.mark.parametrize("model", [m for _, m in MODELS], ids=[name for name, _ in MODELS])
def test_witnesses_match_the_nested_scan(model, within_mss):
    within = L.mss_partition(model) if within_mss else None
    lat = _Lattice(model, within)
    want = tuple(oracle_nested_witness(lat, u) for u in lat.ancillaries if u not in lat.minimal)
    assert L.classify(model, within).witnesses == want
    # A lattice has an unstable ancillary exactly when its table has an entry.
    assert bool(check_witness_order(lat)) == bool(want)


def test_within_over_another_ground_set_is_rejected(ex2):
    with pytest.raises(L.GroundSetMismatch, match="partition over 5 points does not match model with 4"):
        L.classify(ex2, within=L.Partition.singletons(5))
    # Checked before either cap: 25 blocks exceed both the search's and the
    # event table's.
    with pytest.raises(L.GroundSetMismatch, match="partition over 25 points does not match model with 7"):
        L.classify(L.example1_model(F(1, 100)), within=L.Partition.singletons(25))



# ---------------------------------------------------------------------------
# Equivalence: the deciders and obstruction reasons that one matcher replaced.
# The functions below are verbatim copies of the earlier ``ev_ms``,
# ``s_equivalent``, ``ev_sc``, ``sc_equivalent``, ``_match_groups`` and the
# command line's ``_first_s_obstruction``/``_first_sc_obstruction``.
# ``_sc_parts`` is copied without the content-keyed cache it used to have,
# and reads the laminal the way it was found then: the join of the maximal
# ancillaries, so the ``*-sc`` cases compare it with the laminal of atoms.
# ---------------------------------------------------------------------------


def _sc_parts(ib: InferenceBase, cap: int):
    """Shared ingredients: mss, pushforward, laminal, observed contour."""
    t = mss_partition(ib.model)
    pushed = model_of_statistic(ib.model, t)
    lam = join(maximal_ancillaries(pushed, cap=cap))
    t_obs = t.block_of(ib.observed)
    contour = lam.blocks[lam.block_of(t_obs)]
    conditional = condition_on_event(pushed, contour)
    return t, pushed, lam, t_obs, contour, conditional


@dataclass(frozen=True)
class EvidenceBase:
    """The oracles' evidence record: the kept blocks as sample-index tuples."""

    space: tuple[tuple[int, ...], ...]
    model: FiniteModel
    observed_block: int
    conditioning_block: frozenset[int] | None = None


def ev_ms(ib: InferenceBase) -> EvidenceBase:
    """Reduce an inference base to its minimal sufficient model and value."""
    t = mss_partition(ib.model)
    return EvidenceBase(
        space=t.blocks,
        model=model_of_statistic(ib.model, t),
        observed_block=t.block_of(ib.observed),
    )


def ev_sc(ib: InferenceBase, cap: int = DEFAULT_ENUMERATION_CAP) -> EvidenceBase:
    """Minimal sufficient reduction conditioned on its laminal ancillary.

    The evidence space is the observed laminal contour: the minimal
    sufficient blocks sharing the observed laminal value, carrying the
    conditional model given that value.
    """
    t, _, _, t_obs, contour, conditional = _sc_parts(ib, cap)
    space = tuple(t.blocks[i] for i in contour)
    covered = frozenset(e for i in contour for e in t.blocks[i])
    return EvidenceBase(
        space=space,
        model=conditional,
        observed_block=contour.index(t_obs),
        conditioning_block=covered,
    )


def _require_same_thetas(ib1: InferenceBase, ib2: InferenceBase) -> None:
    if ib1.model.theta_labels != ib2.model.theta_labels:
        raise ThetaSpaceMismatch(
            f"parameter labels differ: {ib1.model.theta_labels} vs {ib2.model.theta_labels}"
        )


def _match_groups(
    vecs1: list[tuple[F, ...]],
    idx1: list[int],
    vecs2: list[tuple[F, ...]],
    idx2: list[int],
) -> list[tuple[int, int]] | None:
    """Pair indices with equal vectors, ascending within groups, or None."""
    if Counter(vecs1) != Counter(vecs2):
        return None
    queues: dict[tuple[F, ...], list[int]] = {}
    for v, i in zip(vecs1, idx1):
        queues.setdefault(v, []).append(i)
    pairs = []
    for v, j in zip(vecs2, idx2):
        pairs.append((j, queues[v].pop(0)))
    return pairs


def s_equivalent(ib1: InferenceBase, ib2: InferenceBase) -> Relabeling | None:
    """Relabeling witnessing sufficiency equivalence, or None.

    The two minimal sufficient pushforward models must agree exactly under
    a block bijection that also sends the second observed block to the
    first.  The canonical witness matches the observed blocks first, then
    pairs equal probability vectors in ascending index order.
    """
    _require_same_thetas(ib1, ib2)
    e1, e2 = ev_ms(ib1), ev_ms(ib2)
    k = len(e1.space)
    if len(e2.space) != k:
        return None
    vec1 = [e1.model.column(j) for j in range(k)]
    vec2 = [e2.model.column(j) for j in range(k)]
    o1, o2 = e1.observed_block, e2.observed_block
    if vec1[o1] != vec2[o2]:
        return None
    rest1 = [j for j in range(k) if j != o1]
    rest2 = [j for j in range(k) if j != o2]
    pairs = _match_groups(
        [vec1[j] for j in rest1], rest1, [vec2[j] for j in rest2], rest2
    )
    if pairs is None:
        return None
    mapping = [0] * k
    mapping[o2] = o1
    for src, dst in pairs:
        mapping[src] = dst
    return Relabeling(tuple(mapping))


def sc_equivalent(
    ib1: InferenceBase, ib2: InferenceBase, cap: int = DEFAULT_ENUMERATION_CAP
) -> Relabeling | None:
    """Relabeling witnessing stable-conditionality equivalence, or None.

    Requires minimal sufficient spaces of equal size and a bijection whose
    restriction maps the second observed contour onto the first with
    exactly matching conditional probability vectors and matching observed
    blocks.  Off the contour the bijection is completed deterministically
    in ascending index order (the relation only constrains it on the
    contour).
    """
    _require_same_thetas(ib1, ib2)
    t1, _, _, o1, contour1, cond1 = _sc_parts(ib1, cap)
    t2, _, _, o2, contour2, cond2 = _sc_parts(ib2, cap)
    if t1.n_blocks != t2.n_blocks:
        return None
    if len(contour1) != len(contour2):
        return None
    vec1 = {t: cond1.column(i) for i, t in enumerate(contour1)}
    vec2 = {t: cond2.column(i) for i, t in enumerate(contour2)}
    if vec1[o1] != vec2[o2]:
        return None
    rest1 = [t for t in contour1 if t != o1]
    rest2 = [t for t in contour2 if t != o2]
    pairs = _match_groups(
        [vec1[t] for t in rest1], rest1, [vec2[t] for t in rest2], rest2
    )
    if pairs is None:
        return None
    mapping = [-1] * t2.n_blocks
    mapping[o2] = o1
    for src, dst in pairs:
        mapping[src] = dst
    off1 = [t for t in range(t1.n_blocks) if t not in set(contour1)]
    off2 = [t for t in range(t2.n_blocks) if t not in set(contour2)]
    for src, dst in zip(off2, off1):
        mapping[src] = dst
    return Relabeling(tuple(mapping))


def _first_s_obstruction(ib1: InferenceBase, ib2: InferenceBase) -> str:
    e1, e2 = ev_ms(ib1), ev_ms(ib2)
    if len(e1.space) != len(e2.space):
        return (f"minimal sufficient spaces differ in size "
                f"({len(e1.space)} vs {len(e2.space)})")
    v1 = e1.model.column(e1.observed_block)
    v2 = e2.model.column(e2.observed_block)
    if v1 != v2:
        return (f"observed blocks have different probability vectors "
                f"({fmt_vector(v1)} vs {fmt_vector(v2)})")
    return "block probability vectors do not match as multisets"


def _first_sc_obstruction(ib1, ib2, cap) -> str:
    e1, e2 = ev_sc(ib1, cap), ev_sc(ib2, cap)
    k1 = len(mss_partition(ib1.model).blocks)
    k2 = len(mss_partition(ib2.model).blocks)
    if k1 != k2:
        return f"minimal sufficient spaces differ in size ({k1} vs {k2})"
    if len(e1.space) != len(e2.space):
        return (f"laminal contours differ in size "
                f"({len(e1.space)} vs {len(e2.space)})")
    v1 = e1.model.column(e1.observed_block)
    v2 = e2.model.column(e2.observed_block)
    if v1 != v2:
        return (f"observed blocks have different conditional vectors "
                f"({fmt_vector(v1)} vs {fmt_vector(v2)})")
    return "contour conditional vectors do not match as multisets"


ORACLES = {
    "s": (L.ev_ms, L.s_equivalent, s_equivalent, _first_s_obstruction),
    "sc": (L.ev_sc, L.sc_equivalent, sc_equivalent,
           lambda ib1, ib2: _first_sc_obstruction(ib1, ib2, DEFAULT_ENUMERATION_CAP)),
}


def _multiset_corpus():
    # Two generic models sharing only their first column reach the last
    # obstruction; the second pair is related under sc but not under s.
    # Permuted copies of example1 are related through non-identity maps.
    rows = [(("1/2", "1/3", "1/6"), ("1/4", "1/4", "1/2")),
            (("1/2", "1/5", "3/10"), ("1/4", "1/4", "1/2")),
            (("1/3", "1/3", "1/3"), ("1/6", "1/2", "1/3")),
            (("1/4", "1/4", "1/2"), ("1/8", "3/8", "1/2"))]
    models = [L.FiniteModel(("theta1", "theta2"), ("a", "b", "c"), r) for r in rows]
    ex1 = [InferenceBase(L.example1_model(F(1, 100)), x) for x in range(7)]
    rng = random.Random(1)
    return ([InferenceBase(m, x) for m in models for x in range(3)]
            + ex1 + [permuted_copy(ib, rng) for ib in ex1])


CORPORA = {"audit-7-10": audit_corpus(7, 10), "audit-3-6": audit_corpus(3, 6),
           "multiset": _multiset_corpus()}


@pytest.mark.parametrize("relation", ["s", "sc"])
@pytest.mark.parametrize("corpus_id", list(CORPORA))
def test_one_matcher_matches_the_per_relation_deciders(corpus_id, relation):
    reduce_base, decide, oracle_decide, oracle_reason = ORACLES[relation]
    corpus = CORPORA[corpus_id]
    reduced = [reduce_base(ib) for ib in corpus]
    outcomes = Counter()
    for ib1, r1 in zip(corpus, reduced):
        for ib2, r2 in zip(corpus, reduced):
            verdict = L.match_reductions(r1, r2)
            if ib1.model.theta_labels != ib2.model.theta_labels:
                for check in (decide, oracle_decide):
                    with pytest.raises(L.ThetaSpaceMismatch):
                        check(ib1, ib2)
                assert isinstance(verdict, L.Obstruction)
                outcomes["thetas"] += 1
                continue
            want = oracle_decide(ib1, ib2)
            assert decide(ib1, ib2) == want
            if want is None:
                assert verdict == L.Obstruction(oracle_reason(ib1, ib2))
                outcomes[verdict.reason.split(" (")[0]] += 1
            else:
                assert verdict.mapping == want.mapping
                outcomes["identity" if want.is_identity else "relabeled"] += 1
    # Both kinds of witness and more than one obstruction must be reached.
    assert outcomes["identity"] and outcomes["relabeled"]
    assert len(outcomes) >= 4, outcomes
    if corpus_id == "multiset":
        assert any(reason.endswith("as multisets") for reason in outcomes)


@pytest.mark.parametrize("corpus_id", list(CORPORA))
def test_evidence_bases_match_the_oracle_records(corpus_id):
    # The one record must read, in sample indices, as the record it replaced did.
    for ib in CORPORA[corpus_id]:
        for got, want in ((L.ev_ms(ib), ev_ms(ib)), (L.ev_sc(ib), ev_sc(ib))):
            assert got.space == want.space
            assert got.observed_block == want.observed_block
            assert got.conditioning_block == want.conditioning_block
            for attr in ("probs", "sample_labels", "theta_labels", "name"):
                assert getattr(got.model, attr) == getattr(want.model, attr)
            assert got.as_inference_base() == InferenceBase(want.model, want.observed_block)


@pytest.mark.parametrize("seed", [1, 3])
def test_per_base_ms_records_decide_every_pair_as_the_s_audit_does(seed):
    # The audit of s reduces both bases of every ordered pair again, through
    # s_equivalent.  Reducing each base once and matching the ev_ms records
    # must relate the same pairs, bases over other parameter labels included.
    corpus = audit_corpus(seed, 12)
    corpus += L.maximal_conditionals(corpus[0])
    reduced = [L.ev_ms(ib) for ib in corpus]
    outcomes = Counter()
    for ib1, r1 in zip(corpus, reduced):
        for ib2, r2 in zip(corpus, reduced):
            related = isinstance(L.match_reductions(r1, r2), Relabeling)
            assert related == _s_related(ib1, ib2), (ib1, ib2)
            outcomes["related"] += related
            outcomes["across"] += ib1.model.theta_labels != ib2.model.theta_labels
    # Related pairs beyond the diagonal, and pairs across parameter spaces.
    assert outcomes["related"] > len(corpus) and outcomes["across"], outcomes


# ---------------------------------------------------------------------------
# The zero-sum table: split halves against the Gray-code scan it replaced.
# ---------------------------------------------------------------------------


def oracle_zero(model, within):
    """Zero-sum masks from the Gray-code scan of all 2^k subsets, one point per step."""
    within = L.Partition.singletons(model.n_samples) if within is None else within
    k = within.n_blocks
    rows = L.block_probabilities(model, within)
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    diffs = [[int((a - b) * scale) for a, b in zip(row, rows[0])] for row in rows[1:]]
    base = 2 * max((sum(map(abs, d)) for d in diffs), default=0) + 1
    weight = [sum(d[i] * base**t for t, d in enumerate(diffs)) for i in range(k)]
    found, mask, total = [0], 0, 0
    for step in range(1, 1 << k):
        bit = (step & -step).bit_length() - 1
        mask ^= 1 << bit
        total += weight[bit] if mask >> bit & 1 else -weight[bit]
        if total == 0:
            found.append(mask)
    return frozenset(found)


def _table_models():
    # Keyed by model, so a model met twice is tested once.
    seen = {}
    for name, m in MODELS:
        seen.setdefault(m, name)
    for corpus_id, corpus in CORPORA.items():
        for i, ib in enumerate(corpus):
            seen.setdefault(ib.model, f"{corpus_id}-{i}")
    for n in range(7, 13):
        seen.setdefault(one_theta(n), f"one-theta-{n}")
    for n in (6, 9, 12, 14, 16):
        m = _random_mixture(random.Random(n), 3, n, f"mix3-{n}")
        seen.setdefault(m, m.name)
    return [(name, m) for m, name in seen.items()]


TABLE_MODELS = _table_models()


@pytest.mark.parametrize("within_mss", [False, True], ids=["all", "within-mss"])
@pytest.mark.parametrize("model", [m for _, m in TABLE_MODELS], ids=[n for n, _ in TABLE_MODELS])
def test_split_halves_table_matches_the_gray_code_scan(model, within_mss):
    within = L.mss_partition(model) if within_mss else None
    assert model.n_samples <= 16
    assert _Lattice(model, within).zero == oracle_zero(model, within)


# ---------------------------------------------------------------------------
# The lattice's per-cover and per-event steps against the Python-level code
# that built-in operations replaced: the sort of the covers by
# ``Partition.sort_key``, the lift that tests every bit, the ``any`` scan for
# the atoms and the ``all`` generator for the conforming events.
# ---------------------------------------------------------------------------


def oracle_lift(lat, z):
    """The blocks of within in mask ``z``, one test per bit, and their sorted points."""
    bits = tuple([i for i in range(lat.k) if z >> i & 1])
    blocks = lat.within.blocks
    return bits, tuple(sorted([e for i in bits for e in blocks[i]]))


def oracle_atoms(zero):
    """Scanned by popcount, an event is an atom when it holds no atom found."""
    atoms = []
    for z in sorted(zero - {0}, key=int.bit_count):
        if not any(a & z == a for a in atoms):
            atoms.append(z)
    return tuple(atoms)


def oracle_conforming(zero, atoms):
    return frozenset(c for c in zero if all(c & a in zero for a in atoms))


def check_lattice_steps(model):
    """Each step of both lattices of ``model`` equals its oracle: the same
    tuples in the same order, and the same sets."""
    for within in (None, L.mss_partition(model)):
        # The maximals by both routes: the covers by atoms alone, read before
        # the full search, and the filter of the full search's covers.
        by_atoms = _Lattice(model, within).maximal
        lat = _Lattice(model, within)
        assert lat.ancillaries == tuple(sorted(lat._blocks, key=L.Partition.sort_key))
        assert by_atoms == lat.maximal == tuple(
            sorted(lat._search(atoms_only=True), key=L.Partition.sort_key))
        zero = lat.zero
        assert lat.atoms == oracle_atoms(zero)
        assert lat.conforming == oracle_conforming(zero, lat.atoms)
        for z in zero:
            assert lat.lift(z) == oracle_lift(lat, z)


@pytest.mark.parametrize("seed", [5, 11])
def test_lattice_steps_match_the_replaced_scans(seed):
    for model in random_models(seed, 40):
        check_lattice_steps(model)


# ---------------------------------------------------------------------------
# Conditioning: the support-filtering conditioner and the direct-division
# conditional MLE table, against condition_on_event and the table read off it.
# ---------------------------------------------------------------------------


def oracle_condition_on_event(model, event):
    """Keep the points of ``event`` alive under some theta; drop the rest."""
    event = sorted(set(event))
    masses = [model.event_prob(t, event) for t in range(model.n_thetas)]
    if 0 in masses:
        raise L.ZeroProbabilityEvent("event has probability 0")
    kept = [j for j in event if any(row[j] > 0 for row in model.probs)]
    rows = tuple(tuple(model.probs[t][j] / masses[t] for j in kept)
                 for t in range(model.n_thetas))
    return FiniteModel(model.theta_labels, tuple(model.sample_labels[j] for j in kept),
                       rows, f"{model.name}_cond")


def oracle_conditional_mle_table(model, a, block):
    """Each theta's mass on each MLE within the block, divided by the block's mass."""
    points, m = a.blocks[block], model.n_thetas
    winners = [max(range(m), key=lambda t: (model.probs[t][j], -t)) for j in points]
    table = []
    for t in range(m):
        row = [F(0)] * m
        for j, win in zip(points, winners):
            row[win] += model.probs[t][j]
        table.append(tuple(v / model.event_prob(t, points) for v in row))
    return tuple(table)


CONDITIONING_MODELS = (
    [("example1", L.example1_model(F(1, 100))), ("example2", L.example2_model())]
    + [(f"random-{seed}-{i}", m)
       for seed in (5, 11) for i, m in enumerate(random_models(seed, 40))]
)


def test_conditioning_matches_the_support_filtering_oracle():
    partly_dead = 0
    for name, model in CONDITIONING_MODELS:
        for a in L.ancillaries(model):
            for b, block in enumerate(a.blocks):
                got, want = condition_on_event(model, block), oracle_condition_on_event(model, block)
                assert (got, got.name) == (want, want.name), (name, a, b)
                assert want.n_samples == len(block), (name, a, b)
                assert L.conditional_mle_table(model, a, b) == \
                    oracle_conditional_mle_table(model, a, b), (name, a, b)
                partly_dead += any(0 in row for row in got.probs)
    # Some conditioned blocks hold a point that is dead under some theta but
    # not under all, which the support filter keeps.
    assert partly_dead > 0


# ---------------------------------------------------------------------------
# Partition constructors: the block-based ones that sorted, validated and
# prefilled blocks, against numbering by first occurrence.
# ---------------------------------------------------------------------------


def oracle_partition(blocks, n=None):
    """The replaced validating constructor: sort the blocks, check, prefill them."""
    norm = []
    for b in blocks:
        t = tuple(sorted(b))
        if not t:
            raise ValueError("partition blocks must be nonempty")
        norm.append(t)
    norm.sort(key=lambda b: b[0])
    elems = sorted(e for b in norm for e in b)
    if n is None:
        n = len(elems)
    if n < 1 or elems != list(range(n)):
        raise ValueError(f"blocks must partition range(0, {n}) exactly")
    block_of = [0] * n
    for i, b in enumerate(norm):
        for e in b:
            block_of[e] = i
    self = tuple.__new__(L.Partition, block_of)
    self.blocks = tuple(norm)
    return self


def oracle_from_assignment(keys):
    groups = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    return oracle_partition(groups.values(), len(keys))


def oracle_restrict(p, kept):
    pos = {e: i for i, e in enumerate(kept)}
    blocks = []
    for b in p.blocks:
        t = [pos[e] for e in b if e in pos]
        if t:
            blocks.append(t)
    return oracle_partition(blocks, len(kept))


def oracle_coarsen(base, grouping):
    if grouping.n != base.n_blocks:
        raise L.GroundSetMismatch("grouping must partition the base block indices")
    blocks = []
    for g in grouping.blocks:
        merged = []
        for i in g:
            merged.extend(base.blocks[i])
        blocks.append(merged)
    return oracle_partition(blocks, base.n)


def oracle_is_coarsening(p, q):
    return all(len({p[e] for e in b}) == 1 for b in q.blocks)


def oracle_join(parts):
    parent = list(range(parts[0].n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p in parts:
        for b in p.blocks:
            for e in b[1:]:
                parent[find(e)] = find(b[0])
    return oracle_from_assignment([find(i) for i in range(parts[0].n)])


def same_outcome(new, old, *args):
    """Both accept with equal strings and blocks, or both raise alike.

    Returns ``"ok"`` or the exception's class name, for coverage counts.
    """
    try:
        want = old(*args)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            new(*args)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return type(exc).__name__
    got = new(*args)
    # Numbered by first occurrence, so no blocks are built until read.
    assert "blocks" not in vars(got)
    assert (tuple(got), got.blocks) == (tuple(want), want.blocks)
    return "ok"


@st.composite
def drawn_partitions(draw, n=None):
    n = draw(st.integers(1, 7)) if n is None else n
    return L.Partition.from_assignment(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))


BLOCK_FAULTS = ("none", "n unset", "empty block", "missing point", "repeated point",
                "n too large", "n too small", "no blocks")


@st.composite
def block_lists(draw):
    """A drawn partition's blocks, shuffled, with at most one fault planted."""
    p, fault = draw(drawn_partitions()), draw(st.sampled_from(BLOCK_FAULTS))
    n, blocks = p.n, draw(st.permutations([draw(st.permutations(b)) for b in p.blocks]))
    i = draw(st.integers(0, len(blocks) - 1))
    if fault == "n unset":
        n = None
    elif fault == "empty block":
        blocks.insert(i, [])
    elif fault == "missing point":
        blocks[i] = blocks[i][1:]
    elif fault == "repeated point":
        blocks[i] = blocks[i] + [draw(st.integers(0, n - 1))]
    elif fault == "n too large":
        n += draw(st.integers(1, 2))
    elif fault == "n too small":
        n -= draw(st.integers(1, n + 1))
    elif fault == "no blocks":
        blocks = []
    return fault, blocks, n


def test_partition_from_blocks_matches_the_block_sorting_oracle():
    seen = Counter()

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(block_lists())
    def check(case):
        fault, blocks, n = case
        seen[fault, same_outcome(L.Partition, oracle_partition, blocks, n)] += 1

    check()
    assert {f for f, out in seen if out == "ok"} == {"none", "n unset"}
    assert {f for f, out in seen if out == "ValueError"} == set(BLOCK_FAULTS[2:])


def test_from_assignment_matches_the_grouping_oracle():
    seen = Counter()
    keys = st.one_of(st.integers(0, 3), st.sampled_from("abc"), st.tuples(st.integers(0, 1)))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(keys, max_size=8))
    def check(ks):
        seen[same_outcome(L.Partition.from_assignment, oracle_from_assignment, ks)] += 1

    check()
    assert seen["ok"] > 0 and seen["ValueError"] > 0  # the empty keys
    assert same_outcome(L.Partition.from_assignment, oracle_from_assignment, [[0]]) == "TypeError"


KEPT_FAULTS = ("none", "repeated", "negative", "out of range", "empty")


@st.composite
def restrictions(draw):
    """A partition and a ``kept`` list in any order, with at most one fault."""
    p, fault = draw(drawn_partitions()), draw(st.sampled_from(KEPT_FAULTS))
    kept = draw(st.permutations(range(p.n)))[:draw(st.integers(1, p.n))]
    i = draw(st.integers(0, len(kept) - 1))
    if fault == "repeated":
        kept.insert(draw(st.integers(0, len(kept))), kept[i])
    elif fault == "negative":
        kept[i] = -draw(st.integers(1, p.n))
    elif fault == "out of range":
        kept[i] = p.n + draw(st.integers(0, 2))
    elif fault == "empty":
        kept = []
    return fault, p, kept


def test_restrict_matches_the_trace_oracle():
    seen = Counter()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(restrictions())
    def check(case):
        fault, p, kept = case
        seen[fault, same_outcome(p.restrict, partial(oracle_restrict, p), kept)] += 1
        if fault == "none":
            assert p.restrict(kept) == L.Partition.from_assignment([p[e] for e in kept])

    check()
    assert {f for f, out in seen if out == "ok"} == {"none"}
    assert {f for f, out in seen if out == "ValueError"} == set(KEPT_FAULTS[1:])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(drawn_partitions(), st.data())
def test_coarsen_and_the_lattice_operations_match_the_block_oracles(p, data):
    # meet, join and is_coarsening against a second partition.
    q = data.draw(drawn_partitions(p.n))
    for r in (L.meet(p, q), join([p, q]), L.Partition.singletons(p.n), L.Partition.one_block(p.n)):
        assert "blocks" not in vars(r)
    assert join([p, q]) == oracle_join([p, q])
    assert L.Partition.singletons(p.n).blocks == oracle_partition([(e,) for e in range(p.n)]).blocks
    assert L.Partition.one_block(p.n).blocks == (tuple(range(p.n)),)
    for a, b in ((p, q), (q, p), (p, L.meet(p, q)), (join([p, q]), p), (p, p)):
        assert L.is_coarsening(a, b) == oracle_is_coarsening(a, b)


@pytest.mark.parametrize("n", [0, -1])
def test_empty_ground_sets_are_still_rejected(n):
    # The messages differ from the block-based ones here: each names the
    # empty keys, as from_assignment does.
    for new, old in ((L.Partition.singletons, lambda: oracle_partition([(i,) for i in range(n)], n)),
                     (L.Partition.one_block, lambda: oracle_partition([range(n)], n))):
        with pytest.raises(ValueError):
            old()
        with pytest.raises(ValueError, match=r"range\(0, 0\) exactly"):
            new(n)


# ---------------------------------------------------------------------------
# Parsing: one match of a whole model row against the per-token scan it
# replaced, on rows of valid, Unicode-digit and bad tokens.
# ---------------------------------------------------------------------------

_OLD_TOKEN = re.compile(r"^[+-]?\d+(/\d+)?$")


def oracle_row(toks):
    """Each token checked by the token pattern, then its denominator, in order."""
    row = []
    for tok in toks:
        if not _OLD_TOKEN.match(tok):
            raise L.ModelFormatError(f"not an exact rational token: {tok!r}")
        num, _, den = tok.partition("/")
        den = int(den or 1)
        if not den:
            raise L.ModelFormatError(f"not a rational: {tok!r}")
        row.append(F(int(num), den))
    return row


def oracle_parse(text):
    # The drawn texts have a valid header and one line per row, in order.
    lines = text.splitlines()
    thetas, samples = lines[1].split()[1:], lines[2].split()[1:]
    rows = [oracle_row(line.split()[1:]) for line in lines[3:]]
    return FiniteModel(thetas, samples, rows, "m")


# Zero in four decimal scripts: ASCII, Arabic-Indic, Devanagari, fullwidth.
_ZEROS = (0x30, 0x660, 0x966, 0xFF10)
# Whitespace that str.split splits on but str.splitlines does not break at.
_SPACES = (" ", "\t", "\x1f", "\xa0", "\u1680", "\u2000", "\u202f", "\u3000")
_BAD_TOKENS = ("0.5", "1/", "/2", "1//2", "x", "1e3", "\u00bd", "\u00b2", "--1",
               "+-1", "1/+2", "1/-2", "1/0", "+0/00", "\u0661/\u0660", "1,2")


def _spell(rng, num, den):
    """``num/den`` as a token: unreduced, signed, zero-padded, mixed digits."""
    f = rng.randint(1, 3)
    parts = ["0" * rng.randint(0, 2) + str(num * f), "0" * rng.randint(0, 1) + str(den * f)]
    sign = "-" if num == 0 and rng.random() < 0.5 else rng.choice(("", "+"))
    text = sign + "/".join(parts)
    return "".join(chr(rng.choice(_ZEROS) + int(c)) if c.isdigit() else c for c in text)


def _model_text(rng):
    n = rng.randint(1, 6)
    lines = ["model m", "thetas a b", "samples " + " ".join(f"s{j}" for j in range(n))]
    for lab in ("a", "b"):
        counts = [rng.randint(0, 9) for _ in range(n)]
        counts[rng.randrange(n)] += 1
        total = sum(counts) + (rng.random() < 0.1)  # sometimes not summing to 1
        toks = [_spell(rng, c, total) for c in counts]
        for _ in range(rng.choice((0, 0, 1, 2))):  # bad tokens at random places
            toks[rng.randrange(n)] = rng.choice(_BAD_TOKENS)
        pad = [rng.choice(("", *_SPACES)) for _ in range(2)]
        gaps = ["".join(rng.choices(_SPACES, k=rng.randint(1, 2))) for _ in toks]
        lines.append(pad[0] + lab + "".join(g + t for g, t in zip(gaps, toks)) + pad[1])
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        m = parse(text)
    except L.LaminalError as exc:
        return type(exc), str(exc)
    return m, m.name


@pytest.mark.parametrize("seed", range(4))
def test_row_match_parses_as_the_per_token_scan(seed):
    rng, kinds = random.Random(seed), Counter()
    for _ in range(500):
        text = _model_text(rng)
        got = _outcome(L.parse_model, text)
        assert got == _outcome(oracle_parse, text), text
        kinds[got[0].__name__ if isinstance(got[0], type) else "model"] += 1
        if got[0] is L.ModelFormatError:
            kinds[got[1].split(":")[0]] += 1
    # Valid models, both token errors, and rows that fail validation.
    assert kinds["model"] and kinds["RowSumError"], kinds
    assert kinds["not an exact rational token"] and kinds["not a rational"], kinds
