"""Property tests over drawn integer-row models (``hypothesis``)."""

import itertools
import random
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laminal as L
from laminal.ancillary import _Lattice
from laminal.corpus import permuted_copy

from test_differential import (
    check_lattice_steps,
    check_witness_order,
    oracle_coarsen,
    oracle_nested_witness,
)

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
    return L.FiniteModel(thetas, tuple(str(j + 1) for j in range(n)), rows, "drawn")


@st.composite
def margin_free_tables(draw):
    """Two-way tables whose row and column margins do not depend on theta.

    Row t is an integer base plus t times a +-1 rectangle whose rows and
    columns sum to zero: two rows of the table (or two columns, when it is
    transposed), over an even number of its columns.  The rows and the
    columns are crossing ancillaries, so most lattices have witnesses.
    """
    (a, b), m = draw(st.sampled_from(((2, 4), (2, 3), (2, 2)))), draw(st.sampled_from((2, 3)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cols = rng.sample(range(b), 2 * rng.randint(1, b // 2))
    signs = [1, -1] * (len(cols) // 2)
    rng.shuffle(signs)
    step = [[0] * b for _ in range(a)]
    for j, sign in zip(cols, signs):
        step[0][j], step[1][j] = sign, -sign
    # A small base, so that columns often coincide and the mss merges them.
    base = [[rng.randint(m, m + 3) for _ in range(b)] for _ in range(a)]
    if draw(st.booleans()):
        step, base = [list(c) for c in zip(*step)], [list(c) for c in zip(*base)]
    total = sum(map(sum, base))
    rows = [[F(x + t * d, total) for xs, ds in zip(base, step) for x, d in zip(xs, ds)]
            for t in range(m)]
    thetas = tuple(f"t{t + 1}" for t in range(m))
    return L.FiniteModel(thetas, tuple(str(j + 1) for j in range(a * b)), rows, "table")


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models())
def test_maximal_ancillaries_are_the_pairwise_filter(model):
    for within in (None, L.mss_partition(model)):
        cls = L.classify(model, within)
        # Finest first, so the any() below stops early on large lattices.
        finest = sorted(cls.ancillaries, key=lambda q: -q.n_blocks)
        pairwise = tuple(p for p in cls.ancillaries
                         if not any(q != p and L.is_coarsening(p, q) for q in finest))
        assert cls.maximal == pairwise


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models())
def test_conforming_events_are_the_pairwise_scan(model):
    # Oracle: intersect each zero-sum event with every zero-sum event, not
    # only with the atoms.
    for within in (None, L.mss_partition(model)):
        lat = _Lattice(model, within, L.DEFAULT_ENUMERATION_CAP)
        zero = lat.zero
        assert lat.conforming == frozenset(c for c in zero if all(c & z in zero for z in zero))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models())
def test_laminal_of_atoms_is_the_join_of_the_maximals(model):
    for within in (None, L.mss_partition(model)):
        # The laminal of a lattice that has run no search.
        assert _Lattice(model, within).laminal == L.join(L.classify(model, within).maximal)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models())
def test_witnesses_are_the_nested_scan(model):
    # Oracle: every block of every ancillary in enumeration order against
    # every block of the statistic, with no table of first hits.
    for within in (None, L.mss_partition(model)):
        lat = _Lattice(model, within)
        want = tuple(oracle_nested_witness(lat, u) for u in lat.ancillaries if u not in lat.minimal)
        assert L.classify(model, within).witnesses == want
        check_witness_order(lat)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models(), st.integers(0, 2**32 - 1))
def test_mixing_over_an_ancillary_keeps_its_conditional_models(model, seed):
    # The conditionality principle's premise: remixing an ancillary's
    # positive block weights changes no conditional model given its blocks.
    rng = random.Random(seed)
    for v in L.ancillaries(model):
        raw = [rng.randint(1, 9) for _ in v.blocks]
        mix = L.mixture_model(model, v, [F(x, sum(raw)) for x in raw])
        for block in v.blocks:
            assert L.condition_on_event(mix, block) == L.condition_on_event(model, block)


def test_witnesses_are_the_nested_scan_on_margin_free_tables():
    # As above, on lattices that mostly have witnesses: few drawn
    # integer_models lattices do.
    found = []

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(margin_free_tables())
    def check(model):
        for within in (None, L.mss_partition(model)):
            lat = _Lattice(model, within)
            want = tuple(oracle_nested_witness(lat, u) for u in lat.ancillaries if u not in lat.minimal)
            assert L.classify(model, within).witnesses == want
            check_witness_order(lat)
            found.append(bool(want))

    check()
    assert sum(found) >= 3 * len(found) / 4


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models())
def test_lattice_steps_match_the_replaced_scans(model):
    check_lattice_steps(model)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(margin_free_tables())
def test_lattice_steps_match_the_replaced_scans_on_margin_free_tables(model):
    check_lattice_steps(model)


def check_stability_reads(model):
    """Stability and witnesses read off the table agree with ``classify``'s search.

    Public ``is_stable`` and ``instability_witness`` answer in the
    sample-space lattice, where a function of the mss that is stable among
    functions of the mss may be unstable, so under the mss the lattice's
    own reading is compared with the restricted minimals.  The public
    witness call builds a lattice and, for an unstable statistic, runs its
    search, so it is made for every stable statistic and the first unstable
    one; the others read the same lattice's table.
    """
    full_minimal = set(L.minimal_ancillaries(model))
    for within in (None, L.mss_partition(model)):
        cls, lat = L.classify(model, within), _Lattice(model, within)
        minimal, witness = set(cls.minimal), {x.unstable: x for x in cls.witnesses}
        public = minimal | {x.unstable for x in cls.witnesses[:1]}
        for u in cls.ancillaries:
            assert lat.is_stable(u) == (u in minimal)
            assert L.is_stable(model, u) == (u in full_minimal)
            assert lat.witness(u, lat._masks(u)) == witness.get(u)
            if within is None and u in public:
                assert L.instability_witness(model, u) == witness.get(u)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models())
def test_stability_reads_agree_with_classify(model):
    check_stability_reads(model)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(margin_free_tables())
def test_stability_reads_agree_with_classify_on_margin_free_tables(model):
    check_stability_reads(model)


@st.composite
def partitions(draw):
    n = draw(st.integers(1, 8))
    return L.Partition.from_assignment(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models())
def test_minimals_and_gamma0_are_read_off_the_laminal(model):
    # Oracles: the pairwise coarsening filter over the maximals, the Bell
    # number of the laminal's blocks, and the laminal's algebra as events.
    for within in (None, L.mss_partition(model)):
        cls = L.classify(model, within)
        pairwise = tuple(p for p in cls.ancillaries
                         if all(L.is_coarsening(p, w) for w in cls.maximal))
        assert cls.minimal == pairwise
        assert len(cls.minimal) == sum(1 for _ in L.enumerate_partitions(cls.laminal.n_blocks))
        # Γ0 is always taken over the sample space, so under the mss it is
        # the algebra of the sample space's laminal, not of cls.laminal.
        assert cls.gamma0 == L.algebra_generated_by(L.laminal(model))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(partitions(), min_size=1, max_size=12), st.data())
def test_a_partition_is_its_growth_string(parts, data):
    # Equality and hashing read only the growth string; the blocks of a
    # copy made from the string alone are built when first read.
    for p in parts:
        lazy = L.Partition._canonical(tuple(p))
        assert lazy == p and hash(lazy) == hash(p)
        assert lazy.blocks == p.blocks and lazy.n_blocks == p.n_blocks
    assert all((p == q) == (tuple(p) == tuple(q)) for p in parts for q in parts)
    validated = [L.Partition(p.blocks, p.n) for p in parts]
    flags = data.draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
    mix = data.draw(st.permutations(
        [L.Partition._canonical(tuple(p)) if lazy else p for p, lazy in zip(validated, flags)]))
    want = sorted(validated)
    for got in (sorted(mix), sorted(mix, key=L.Partition.sort_key)):
        assert got == want
        assert [q.blocks for q in got] == [q.blocks for q in want]


FIELDS = ("ancillaries", "maximal", "minimal", "laminal", "stable", "gamma0")


def check_theta_order(model, order):
    """Listing the theta rows in ``order`` changes no lattice answer.

    The zero-sum packing takes row 0 as its reference; any row must do.
    """
    moved = L.FiniteModel([model.theta_labels[t] for t in order], model.sample_labels,
                          [model.probs[t] for t in order], "moved")
    within = L.mss_partition(model)
    assert L.mss_partition(moved) == within
    for w in (None, within):
        cls, got = L.classify(model, w), L.classify(moved, w)
        for field in FIELDS:
            assert getattr(got, field) == getattr(cls, field), field
        assert ([(x.unstable, x.via, x.weights, x.block) for x in got.witnesses]
                == [(x.unstable, x.via, x.weights, x.block) for x in cls.witnesses])


def check_point_permutation(model, pi):
    """Moving sample point j to ``pi[j]`` maps every lattice answer through pi."""
    n = model.n_samples
    inverse = sorted(range(n), key=pi.__getitem__)
    moved = L.FiniteModel(model.theta_labels, [model.sample_labels[j] for j in inverse],
                          [[row[j] for j in inverse] for row in model.probs], "moved")

    def image(p):
        return L.Partition(([pi[e] for e in b] for b in p.blocks), n)

    within = L.mss_partition(model)
    assert L.mss_partition(moved) == image(within)
    for w in (None, within):
        cls = L.classify(model, w)
        got = L.classify(moved, None if w is None else image(w))
        for field in ("ancillaries", "maximal", "minimal", "stable"):
            assert set(getattr(got, field)) == set(map(image, getattr(cls, field))), field
        assert got.laminal == image(cls.laminal)
        assert set(got.gamma0) == {frozenset(pi[e] for e in ev) for ev in cls.gamma0}
        assert ({x.unstable for x in got.witnesses}
                == {image(x.unstable) for x in cls.witnesses})


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models(), st.data())
def test_reordering_theta_rows_changes_no_lattice_answer(model, data):
    check_theta_order(model, data.draw(st.permutations(range(model.n_thetas))))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models(), st.data())
def test_permuting_sample_points_maps_every_lattice_answer(model, data):
    check_point_permutation(model, data.draw(st.permutations(range(model.n_samples))))


def _crossing_models():
    # Few drawn models have unstable statistics; these have many.
    ex2 = L.example2_model()
    repeated = L.FiniteModel(("t1", "t1b", "t2"), ex2.sample_labels,
                             [ex2.probs[0], ex2.probs[0], ex2.probs[1]], "repeated")
    return [L.example1_model(F(1, 100)), L.example1_model(F(1, 224)), ex2, repeated]


@pytest.mark.parametrize("model", _crossing_models(), ids=lambda m: m.name)
def test_both_symmetries_on_models_with_witnesses(model):
    rng = random.Random(20261018)
    for order in itertools.permutations(range(model.n_thetas)):
        check_theta_order(model, order)
    for _ in range(4):
        check_point_permutation(model, rng.sample(range(model.n_samples), model.n_samples))


def test_restricted_lattice_is_the_pushforward_lattice():
    # analyze's lattice of functions of the mss, and the lattice of the
    # mss pushforward model (ev_ms's model) lifted through the mss blocks,
    # are one lattice: every answer agrees.  Each side lists its answers in
    # its own sort_key order, which lifting need not keep, so the lifted
    # answers are put back in the sample space's order.
    coarser, witnesses = [], []

    def check(model):
        mss = L.mss_partition(model)
        got, push = L.classify(model, mss), L.classify(L.model_of_statistic(model, mss))
        lift = partial(oracle_coarsen, mss)
        for field in ("ancillaries", "maximal", "minimal", "stable"):
            assert getattr(got, field) == tuple(sorted(map(lift, getattr(push, field)))), field
        assert got.laminal == lift(push.laminal)
        assert ([(x.unstable, x.via, x.weights, x.block, x.lr, x.thetas) for x in got.witnesses]
                == sorted((lift(x.unstable), lift(x.via), x.weights, x.block, x.lr, x.thetas)
                          for x in push.witnesses))
        coarser.append(mss.n_blocks < mss.n)
        witnesses.append(len(got.witnesses) if coarser[-1] else 0)

    for strategy in (integer_models(), margin_free_tables()):
        settings(derandomize=True, database=None, max_examples=100, deadline=None)(
            given(strategy)(check))()
    assert sum(coarser) >= len(coarser) // 2 and sum(witnesses) >= 50


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(integer_models())
def test_ev_sc_is_idempotent_at_every_observation(model):
    for x in range(model.n_samples):
        assert L.ev_sc_idempotent(L.InferenceBase(model, x))


def test_s_equivalence_implies_sc_equivalence():
    # A permuted copy is related to its base under both relations, and
    # every pair over the same thetas that s relates, sc relates too.
    related = []

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(integer_models(), integer_models(), st.integers(0, 2**32 - 1))
    def check(model, other, seed):
        rng = random.Random(seed)
        bases = [L.InferenceBase(model, x) for x in range(model.n_samples)]
        copies = [permuted_copy(ib, rng) for ib in bases]
        for ib, copy in zip(bases, copies):
            assert L.s_equivalent(ib, copy) is not None
            assert L.sc_equivalent(ib, copy) is not None
        if other.theta_labels == model.theta_labels:
            bases += [L.InferenceBase(other, x) for x in range(other.n_samples)]
        for a, b in itertools.combinations(bases + copies, 2):
            if L.s_equivalent(a, b) is not None:
                assert L.sc_equivalent(a, b) is not None
                related.append((a, b))

    check()
    assert len(related) > 1000
