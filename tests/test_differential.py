"""Differential tests: the event-table lattice against the algorithms it replaced.

Each oracle below is a direct transcription of an earlier implementation,
kept here only as a reference: the growth-string partition enumerator that
validates every partition it builds, the Bell(n) enumerate-and-filter
search for ancillaries, stability decided through conditional models, the
witness search that builds a ``mixture_model`` per point mass, and a
``Fraction`` scan over all subsets for the conforming events.
"""

import random
from fractions import Fraction as F
from functools import reduce
from itertools import combinations

import pytest

import laminal as L
from laminal.corpus import random_models
from laminal.partitions import coarsen

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
    """Every partition (or coarsening), rebuilt through the validating constructor."""
    if coarser_than is None:
        for s in _growth_strings(n):
            yield L.Partition.from_assignment(s)
    else:
        for s in _growth_strings(coarser_than.n_blocks):
            yield coarsen(coarser_than, L.Partition.from_assignment(s))


def oracle_ancillaries(model, within):
    """Every partition, in enumeration order, filtered by ``is_ancillary``."""
    return [p for p in oracle_enumerate_partitions(model.n_samples, within)
            if L.is_ancillary(model, p)]


def oracle_is_stable(model, anc, u, conditionals):
    """u stays ancillary in the conditional model given every block of every ancillary."""
    for v in anc:
        for block in v.blocks:
            if block not in conditionals:
                conditionals[block] = (L.condition_on_event(model, block),
                                       L.event_support(model, block))
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
    return L.build_model(("t",), tuple(str(i + 1) for i in range(n)),
                         [[F(i + 1, n * (n + 1) // 2) for i in range(n)]], f"flat{n}")


def three_thetas():
    # Point 1 moves up under b and down under c by the same amount, so a
    # check that added the two difference rows would call {1} zero-sum.
    q, x = F(1, 4), F(1, 8)
    cancelling = L.build_model(("a", "b", "c"), ("1", "2", "3", "4"),
                               [[q] * 4, [q + x, q - x, q, q], [q - x, q + x, q + x, q - x]])
    # example2 with its first row repeated: witnesses must pair theta 0 with theta 2.
    ex2 = L.example2_model()
    repeated = L.build_model(("t1", "t1b", "t2"), ex2.sample_labels,
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
    for p, q in zip(got, want):
        # The enumerator builds partitions without validation, so check
        # each one against the validating constructor here.
        rebuilt = L.Partition(p.blocks, p.n)
        assert p == rebuilt and hash(p) == hash(rebuilt) == hash(q)
        assert [p.block_of(e) for e in range(n)] == [q.block_of(e) for e in range(n)]
        assert all(p.block_of(e) == i for i, b in enumerate(p.blocks) for e in b)


@pytest.mark.parametrize("within_mss", [False, True], ids=["all", "within-mss"])
@pytest.mark.parametrize("model", [m for _, m in MODELS], ids=[name for name, _ in MODELS])
def test_classify_matches_the_replaced_algorithms(model, within_mss):
    within = L.mss_partition(model) if within_mss else None
    anc = oracle_ancillaries(model, within)
    maxs = sorted(p for p in anc if not any(q != p and L.is_coarsening(p, q) for q in anc))
    mins = sorted(p for p in anc if all(L.is_coarsening(p, w) for w in maxs))
    conditionals = {}
    stable = sorted(u for u in anc if oracle_is_stable(model, anc, u, conditionals))
    witnesses = [w for w in (oracle_witness(model, anc, u) for u in sorted(anc)
                             if u not in stable)]

    cls = L.classify(model, within)
    assert cls.ancillaries == tuple(sorted(anc))
    assert cls.maximal == tuple(maxs)
    assert cls.minimal == tuple(mins)
    assert cls.laminal == reduce(lambda p, q: L.join([p, q]), maxs)
    assert cls.stable == tuple(stable)
    assert cls.gamma0 == oracle_gamma0(model)
    assert cls.witnesses == tuple(witnesses)
    by_statistic = {w.unstable: w for w in witnesses}
    # Each call builds its own lattice, so large lattices are sampled evenly.
    for u in cls.ancillaries[::1 + len(anc) // 60]:
        assert L.instability_witness(model, u, within=within) == by_statistic.get(u)


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
    assert set(L.ancillary_events(model)) == events


def test_witness_outside_the_restricted_lattice_is_rejected(one_theta):
    # All three points share one likelihood class, so the restricted lattice
    # is the trivial partition alone; the singletons are ancillary but lie
    # outside it.
    mss = L.mss_partition(one_theta)
    with pytest.raises(L.NotAncillary):
        L.instability_witness(one_theta, L.Partition.singletons(3), within=mss)


def test_within_over_another_ground_set_is_rejected(ex2):
    with pytest.raises(L.GroundSetMismatch):
        L.ancillaries(ex2, within=L.Partition.singletons(5))
