import ast
import dataclasses
import random
import re
from fractions import Fraction as F
from functools import reduce
from pathlib import Path

import pytest

import laminal as L
from laminal.ancillary import _Lattice
from laminal.corpus import _random_mixture, random_models
from laminal.partitions import cached

from conftest import bp


@pytest.fixture(scope="module")
def ex1_parts():
    return {
        "T": bp("1,2,3,4,5,6,7", 7),
        "B1": bp("1,2,3,4,5,6|7", 7),
        "B2": bp("1,2,3,4,7|5,6", 7),
        "B3": bp("1,2,3,4|5,6,7", 7),
        "L": bp("1,2,3,4|5,6|7", 7),
        "A1": bp("1,2|3,4|5,6|7", 7),
        "A2": bp("1,3|2,4|5,6|7", 7),
        "C1": bp("1,3|2,4|5,6,7", 7),
        "C2": bp("1,3,5,6|2,4|7", 7),
    }


class TestIsAncillary:
    def test_a1_distribution(self, ex1, ex1_parts):
        assert L.is_ancillary(ex1, ex1_parts["A1"])
        assert L.ancillary_distribution(ex1, ex1_parts["A1"]) == \
            (F(1, 4), F(1, 4), F(3, 14), F(4, 14))

    def test_trivial_partition_is_always_ancillary(self, ex1, ex2, one_theta):
        for m in (ex1, ex2, one_theta):
            assert L.is_ancillary(m, L.Partition.one_block(m.n_samples))

    def test_singletons_of_example2_are_not(self, ex2):
        assert not L.is_ancillary(ex2, L.Partition.singletons(4))

    def test_ground_set_mismatch(self, ex2):
        with pytest.raises(L.GroundSetMismatch):
            L.is_ancillary(ex2, L.Partition.singletons(5))


class TestEnumerationOfAncillaries:
    def test_example1_set_matches_coarsening_oracle(self, ex1, ex1_parts):
        # Independent oracle: every ancillary refines to a maximal one, so
        # the full set is the union of the coarsenings of A1 and of A2.
        oracle = set(L.enumerate_partitions(7, coarser_than=ex1_parts["A1"]))
        oracle |= set(L.enumerate_partitions(7, coarser_than=ex1_parts["A2"]))
        got = set(L.classify(ex1, L.mss_partition(ex1)).ancillaries)
        assert got == oracle
        assert len(got) == 25
        assert set(ex1_parts.values()) <= got

    def test_one_theta_everything_is_ancillary(self, one_theta):
        assert len(L.ancillaries(one_theta)) == 5  # Bell(3)

    def test_example2(self, ex2):
        got = set(L.ancillaries(ex2))
        assert bp("1,2|3,4", 4) in got
        assert bp("1,3|2,4", 4) in got
        assert got == {L.Partition.one_block(4), bp("1,2|3,4", 4), bp("1,3|2,4", 4)}


class TestMaximalMinimalLaminal:
    def test_example1_maximal(self, ex1, ex1_parts):
        assert set(L.maximal_ancillaries(ex1)) == {ex1_parts["A1"], ex1_parts["A2"]}

    def test_example1_minimal(self, ex1, ex1_parts):
        want = {ex1_parts[k] for k in ("T", "B1", "B2", "B3", "L")}
        assert set(L.minimal_ancillaries(ex1)) == want

    def test_example1_laminal(self, ex1, ex1_parts):
        assert L.laminal(ex1) == ex1_parts["L"]

    def test_example2(self, ex2):
        assert set(L.maximal_ancillaries(ex2)) == {bp("1,2|3,4", 4), bp("1,3|2,4", 4)}
        assert set(L.minimal_ancillaries(ex2)) == {L.Partition.one_block(4)}
        assert L.laminal(ex2) == L.Partition.one_block(4)

    def test_one_theta(self, one_theta):
        assert L.maximal_ancillaries(one_theta) == (L.Partition.singletons(3),)
        assert len(L.minimal_ancillaries(one_theta)) == 5
        assert L.laminal(one_theta) == L.Partition.singletons(3)

    def test_unique_maximal_model(self, unique_maximal):
        maxs = L.maximal_ancillaries(unique_maximal)
        assert maxs == (bp("1,2|3", 3),)
        assert L.laminal(unique_maximal) == maxs[0]

    def test_meet_of_minimals_is_the_laminal(self, ex1, ex2, one_theta):
        # The joint statistic of all minimal ancillaries is again minimal
        # and maximal among the minimals.
        models = [ex1, ex2, one_theta] + random_models(5, 20)
        for m in models:
            mins = L.minimal_ancillaries(m)
            joint = reduce(L.meet, mins)
            assert joint == L.laminal(m)
            assert joint in mins


class TestStability:
    def test_example1_classifications(self, ex1, ex1_parts):
        assert L.is_stable(ex1, ex1_parts["L"])
        assert L.is_strong(ex1, ex1_parts["L"])
        assert not L.is_stable(ex1, ex1_parts["C2"])
        assert not L.is_strong(ex1, ex1_parts["A1"])
        assert L.is_stable(ex1, ex1_parts["T"])
        assert L.is_strong(ex1, ex1_parts["T"])

    def test_requires_an_ancillary(self, ex2):
        with pytest.raises(L.NotAncillary):
            L.is_stable(ex2, L.Partition.singletons(4))
        with pytest.raises(L.NotAncillary):
            L.is_strong(ex2, L.Partition.singletons(4))

    def test_stable_iff_strong_iff_minimal_on_example1(self, ex1):
        minimal = set(L.minimal_ancillaries(ex1))
        for u in L.ancillaries(ex1):
            stable = L.is_stable(ex1, u)
            assert stable == L.is_strong(ex1, u)
            assert stable == (u in minimal)

    def test_a_definitional_fault_fails_every_stability_answer(self, ex1, ex1_parts,
                                                               monkeypatch):
        # Treat the full event, always conforming, as non-conforming.  Only
        # the trivial statistic, whose one block it is, loses its definitional
        # stability, yet the one per-lattice check fails every stability
        # answer, naming that event.
        real = _Lattice.conforming.func
        monkeypatch.setattr(_Lattice, "conforming",
                            property(lambda lat: real(lat) - {(1 << lat.k) - 1}))
        calls = (
            lambda: L.classify(ex1),
            lambda: L.is_stable(ex1, ex1_parts["L"]),
            lambda: L.is_strong(ex1, ex1_parts["L"]),
            lambda: L.instability_witness(ex1, ex1_parts["C2"]),
        )
        for call in calls:
            with pytest.raises(L.InternalCheckError,
                               match=r"disagree for event \[0, 1, 2, 3, 4, 5, 6\]: "
                                     r"conforming=False, in the laminal's algebra=True$"):
                call()

    def test_table_answers_run_no_ancillary_search(self, ex1, ex1_parts, monkeypatch):
        # Ancillarity, stability and the maximals are read off the event
        # table and its atoms; only an unstable statistic's witness searches.
        searched = []
        real = _Lattice._blocks.func

        def counted(lat):
            searched.append(lat.k)
            return real(lat)

        prop = cached(counted)
        prop.__set_name__(_Lattice, "_blocks")
        monkeypatch.setattr(_Lattice, "_blocks", prop)
        assert L.is_stable(ex1, ex1_parts["L"]) and not L.is_stable(ex1, ex1_parts["C2"])
        assert set(L.maximal_ancillaries(ex1)) == {ex1_parts["A1"], ex1_parts["A2"]}
        assert L.instability_witness(ex1, ex1_parts["L"]) is None
        assert L.instability_witness(ex1, ex1_parts["T"]) is None
        assert searched == []
        assert L.instability_witness(ex1, ex1_parts["C2"]) is not None
        assert searched == [7]

    def test_classify_lists_the_covers_once(self, ex1, ex2, ex1_parts, monkeypatch):
        # classify reads the maximals off its one full search; only
        # maximal_ancillaries lists the covers by atoms alone, and the
        # table answers list none.
        searches = []
        real = _Lattice._search

        def counted(lat, atoms_only):
            searches.append("atoms" if atoms_only else "full")
            return real(lat, atoms_only)

        monkeypatch.setattr(_Lattice, "_search", counted)
        mix = _random_mixture(random.Random(7), 2, 8, "mix8")
        for model, within in ((ex1, None), (ex1, L.mss_partition(ex1)), (ex2, None),
                              (mix, None)):
            searches.clear()
            cls = L.classify(model, within)
            assert searches == ["full"], (model.name, within)
            assert cls.maximal and set(cls.maximal) <= set(cls.ancillaries)
        searches.clear()
        assert set(L.maximal_ancillaries(ex1)) == {ex1_parts["A1"], ex1_parts["A2"]}
        assert searches == ["atoms"]
        searches.clear()
        assert L.laminal(ex1) == ex1_parts["L"]
        assert L.is_stable(ex1, ex1_parts["L"]) and not L.is_stable(ex1, ex1_parts["C2"])
        assert L.gamma0(ex1)
        assert searches == []

    def test_classify_lifts_each_mask_once_and_witnesses_only_the_unstable(
            self, ex1, monkeypatch):
        # Each lattice lifts a mask to points once and shares it; witnesses
        # are built for the ancillaries outside the stable set alone.
        lifted, witnessed = [], []
        real_lift, real_witness = _Lattice.lift, _Lattice.witness

        def lift(lat, z):
            if z not in lat._lifted:
                lifted.append((id(lat), z))
            return real_lift(lat, z)

        def witness(lat, u, cs):
            witnessed.append(u)
            return real_witness(lat, u, cs)

        monkeypatch.setattr(_Lattice, "lift", lift)
        monkeypatch.setattr(_Lattice, "witness", witness)
        cls = L.classify(ex1)
        assert lifted and len(set(lifted)) == len(lifted)
        assert (len(cls.ancillaries), len(cls.stable)) == (25, 5)
        assert len(witnessed) == 20 == len(cls.witnesses)
        assert set(witnessed) == set(cls.ancillaries) - set(cls.stable)
        # One theta: every one of the Bell(6) = 203 ancillaries is stable.
        witnessed.clear()
        flat = L.FiniteModel(("t",), tuple(str(i + 1) for i in range(6)), [[F(1, 6)] * 6])
        cls = L.classify(flat)
        assert len(cls.ancillaries) == len(cls.stable) == 203
        assert witnessed == [] and cls.witnesses == ()

    def test_classify_sorts_covers_without_sort_key(self, ex1, monkeypatch):
        # The covers are sorted on keys read in C, their block tuples and
        # block counts, never through a partition's own order.
        keyed = []
        real = L.Partition.sort_key

        def sort_key(p):
            keyed.append(p)
            return real(p)

        monkeypatch.setattr(L.Partition, "sort_key", sort_key)
        assert len(L.classify(ex1).ancillaries) == 25
        flat = L.FiniteModel(("t",), tuple(str(i + 1) for i in range(6)), [[F(1, 6)] * 6])
        assert len(L.classify(flat).ancillaries) == 203
        assert keyed == []

    def test_table_answers_past_the_search_cap(self):
        # One theta: every event is zero-sum, and 16 points are past the
        # search cap of 13 but within the event table's.
        n = 16
        flat = L.FiniteModel(("t",), tuple(str(i) for i in range(n)), [[F(1, n)] * n])
        lam = L.laminal(flat)
        assert lam == L.Partition.singletons(n)
        assert L.is_stable(flat, lam)
        assert L.instability_witness(flat, lam) is None
        for call in (lambda: L.ancillaries(flat), lambda: L.maximal_ancillaries(flat),
                     lambda: L.is_strong(flat, lam)):
            with pytest.raises(L.SizeCapExceeded, match="enumeration over 16 items"):
                call()

    def test_point_mass_reduction_extends_to_random_weights(self, ex1):
        # Whenever u stays ancillary in every conditional given a block of v,
        # it stays ancillary in the mixture for any weights; spot-check with
        # seeded random rational weight vectors (zeros allowed).
        rng = random.Random(20260810)
        anc = L.ancillaries(ex1)
        checked = 0
        for u in anc:
            for v in anc:
                ok_all = all(
                    L.is_ancillary(
                        L.condition_on_event(ex1, block),
                        u.restrict(block),
                    )
                    for block in v.blocks
                )
                if not ok_all:
                    continue
                checked += 1
                for _ in range(50):
                    draws = [rng.randint(0, 9) for _ in range(v.n_blocks)]
                    if not any(draws):
                        draws[0] = 1
                    total = sum(draws)
                    w = tuple(F(d, total) for d in draws)
                    mix = L.mixture_model(ex1, v, w)
                    kept = tuple(
                        j for j in range(7) if w[v.block_of(j)] > 0
                    )
                    assert L.is_ancillary(mix, u.restrict(kept)), (u, v, w)
        assert checked >= 100

    def test_exceptional_epsilon_has_extra_ancillary(self):
        # eps = 1/224 is the one value in (0, 1/64) where cross-pair blocks
        # like {3,6} and {4,5} become parameter-free, so the generic
        # classification does not apply there.
        odd = bp("1,2|3,6|4,5|7", 7)
        assert L.is_ancillary(L.example1_model(F(1, 224)), odd)
        assert not L.is_ancillary(L.example1_model(F(1, 100)), odd)
        cls = L.classify(L.example1_model(F(1, 224)))
        assert len(cls.maximal) > 2


class TestInstabilityWitness:
    def test_stable_statistics_have_no_witness(self, ex1, ex1_parts):
        assert L.instability_witness(ex1, ex1_parts["L"]) is None
        assert L.instability_witness(ex1, ex1_parts["T"]) is None

    def test_c2_witness_is_deterministic_and_valid(self, ex1, ex1_parts):
        w = L.instability_witness(ex1, ex1_parts["C2"])
        # first hit in enumeration order: a point mass on the first block of
        # {1,2,5,6,7}|{3,4}
        assert w.via == bp("1,2,5,6,7|3,4", 7)
        assert w.weights == (F(1), F(0))
        assert w.block == 0
        assert w.lr == (F(163, 350), F(249, 700))
        assert w.lr[0] != w.lr[1]

    def test_restricted_search_stays_in_the_lattice(self, ex1, ex1_parts):
        mss = L.mss_partition(ex1)
        witnesses = {w.unstable: w for w in L.classify(ex1, mss).witnesses}
        assert L.is_coarsening(witnesses[ex1_parts["C2"]].via, mss)
        assert ex1_parts["L"] not in witnesses

    def test_every_witness_recomputes(self, ex1):
        stable = set(L.minimal_ancillaries(ex1))
        for u in L.ancillaries(ex1):
            if u in stable:
                continue
            w = L.instability_witness(ex1, u)
            mix = L.mixture_model(ex1, w.via, w.weights)
            kept = tuple(
                j for j in range(7) if w.weights[w.via.block_of(j)] > 0
            )
            pos = {e: i for i, e in enumerate(kept)}
            trace = [pos[e] for e in u.blocks[w.block] if e in pos]
            got = (mix.event_prob(w.thetas[0], trace),
                   mix.event_prob(w.thetas[1], trace))
            assert got == w.lr
            assert got[0] != got[1]


class TestEventsAndGamma0:
    def test_example1_events(self, ex1):
        events = set(L.ancillary_events(ex1))
        assert frozenset() in events and frozenset(range(7)) in events
        for e in (frozenset({6}), frozenset({4, 5}), frozenset({0, 1, 2, 3})):
            assert e in events
        # closed under union of the generators
        assert frozenset({4, 5, 6}) in events

    def test_example2_contains_the_half_event(self, ex2):
        assert frozenset({0, 1}) in set(L.ancillary_events(ex2))

    def test_gamma0_example1_is_the_laminal_algebra(self, ex1):
        g0 = L.gamma0(ex1)
        assert len(g0) == 8
        assert set(g0) == set(L.algebra_generated_by(bp("1,2,3,4|5,6|7", 7)))

    def test_gamma0_example2_is_trivial(self, ex2):
        assert set(L.gamma0(ex2)) == {frozenset(), frozenset(range(4))}

    def test_gamma0_one_theta_is_the_power_set(self, one_theta):
        assert len(L.gamma0(one_theta)) == 8

    def test_event_scan_cap(self):
        n = 21
        flat = L.FiniteModel(("t",), tuple(str(i) for i in range(n)),
                             [[F(1, n)] * n])
        with pytest.raises(L.SizeCapExceeded):
            L.ancillary_events(flat)

    def test_algebra_cap(self):
        # Refused before any event is built: 21 blocks generate 2,097,152.
        with pytest.raises(L.SizeCapExceeded,
                           match=r"^2\^21 events in the algebra exceed the cap of 2\^20$"):
            L.algebra_generated_by(L.Partition.singletons(21))

    def test_enumeration_cap_propagates(self):
        n = 14
        total = n * (n + 1) // 2
        rows = [[F(i + 1, total) for i in range(n)],
                [F(n - i, total) for i in range(n)]]
        wide = L.FiniteModel(("a", "b"), tuple(str(i) for i in range(n)), rows)
        with pytest.raises(L.SizeCapExceeded):
            L.ancillaries(wide)


class TestClassify:
    def test_example1(self, ex1, ex1_parts):
        cls = L.classify(ex1)
        assert set(cls.minimal) == {ex1_parts[k] for k in ("T", "B1", "B2", "B3", "L")}
        assert set(cls.maximal) == {ex1_parts["A1"], ex1_parts["A2"]}
        assert cls.laminal == ex1_parts["L"]
        assert cls.stable is cls.minimal
        within = L.classify(ex1, within=L.mss_partition(ex1))
        assert within.minimal == cls.minimal

    def test_example2(self, ex2):
        cls = L.classify(ex2)
        assert set(cls.maximal) == {bp("1,2|3,4", 4), bp("1,3|2,4", 4)}
        assert cls.laminal == L.Partition.one_block(4)
        assert cls.stable == (L.Partition.one_block(4),)
        assert set(cls.gamma0) == {frozenset(), frozenset(range(4))}

    def test_one_theta_two_points(self):
        m = L.FiniteModel(("t",), ("1", "2"), [[F(1, 2), F(1, 2)]])
        cls = L.classify(m)
        assert len(cls.ancillaries) == 2
        assert cls.laminal == L.Partition.singletons(2)

    def test_gamma0_reads_the_table_of_a_singletons_lattice(self, ex1, monkeypatch):
        # Over the singletons classify hands its own lattice to gamma0, so
        # one event table answers both; a coarser within needs a second.
        calls = []
        table = _Lattice.zero.func

        def counted(lat):
            calls.append(lat.within)
            return table(lat)

        zero = cached(counted)
        zero.__set_name__(_Lattice, "zero")
        monkeypatch.setattr(_Lattice, "zero", zero)
        proportional = L.FiniteModel(("a", "b"), ("1", "2", "3", "4"),
                                     [[F(1, 8), F(1, 8), F(1, 4), F(1, 2)],
                                      [F(1, 4), F(1, 8), F(1, 2), F(1, 8)]])
        mss = L.mss_partition(proportional)
        assert mss == bp("1,3|2|4", 4)
        for model, within, count in ((ex1, None, 1),
                                     (ex1, L.mss_partition(ex1), 1),
                                     (proportional, None, 1),
                                     (proportional, mss, 2)):
            calls.clear()
            cls = L.classify(model, within)
            assert len(calls) == count
            assert cls.gamma0 == L.gamma0(model)


def test_each_cached_lattice_value_keeps_its_undecorated_function(ex1):
    names = [name for name, v in vars(_Lattice).items() if isinstance(v, cached)]
    assert {"zero", "atoms", "_blocks", "maximal", "laminal", "_witnesses"} <= set(names)
    lat = _Lattice(ex1, L.mss_partition(ex1))
    for name in names:
        func = getattr(_Lattice, name).func
        assert func.__name__ == name and not isinstance(func, cached)
        # A second computation gives the cached value again.
        assert func(lat) == getattr(lat, name), name


def _patch_lattice(monkeypatch, name, change):
    # Replace one cached _Lattice input by ``change(lat, real value)``.
    real = getattr(_Lattice, name).func
    prop = cached(lambda lat: change(lat, real(lat)))
    prop.__set_name__(_Lattice, name)
    monkeypatch.setattr(_Lattice, name, prop)


class TestCrossChecks:
    def test_a_search_without_the_laminal_fails_the_minimal_check(self, ex1, monkeypatch):
        # The laminal is read off the atoms; a search that misses its cover
        # must fail on the laminal, before the Bell(b) count would.
        def without_laminal(lat, blocks):
            del blocks[lat.laminal]
            return blocks

        _patch_lattice(monkeypatch, "_blocks", without_laminal)
        for call in (lambda: L.classify(ex1), lambda: L.minimal_ancillaries(ex1)):
            with pytest.raises(L.InternalCheckError,
                               match="^laminal is not among the minimal ancillaries$"):
                call()

    def test_one_maximal_short_fails_the_join_check(self, ex1, monkeypatch):
        _patch_lattice(monkeypatch, "maximal", lambda lat, maximal: maximal[1:])
        with pytest.raises(L.InternalCheckError,
                           match="^join of maximal ancillaries is not the laminal$"):
            L.minimal_ancillaries(ex1)

    def test_a_maximal_with_a_non_atom_block_fails_the_join_check(self, ex1, monkeypatch):
        # Every atom stays a block of some maximal, but the one-block cover's
        # block, the full event, is not an atom of example1.
        _patch_lattice(monkeypatch, "maximal",
                       lambda lat, maximal: (L.Partition.one_block(7),) + maximal)
        for call in (lambda: L.classify(ex1), lambda: L.minimal_ancillaries(ex1)):
            with pytest.raises(L.InternalCheckError,
                               match="^join of maximal ancillaries is not the laminal$"):
                call()

    def test_a_search_without_one_coarsening_fails_the_bell_count(self, ex1, monkeypatch):
        # The laminal of example1 has three parts, so Bell(3) = 5 minimals;
        # dropping the one-block cover leaves four.
        trivial = L.Partition.one_block(7)
        _patch_lattice(monkeypatch, "_blocks",
                       lambda lat, blocks: {p: m for p, m in blocks.items() if p != trivial})
        with pytest.raises(L.InternalCheckError,
                           match="^a coarsening of the laminal is not ancillary$"):
            L.minimal_ancillaries(ex1)

    def test_an_atom_that_is_not_zero_sum_fails_the_parts_check(self, ex1, monkeypatch):
        # The point mass {1} carries theta-dependent probability in example1.
        _patch_lattice(monkeypatch, "atoms", lambda lat, atoms: (1,))
        with pytest.raises(L.InternalCheckError,
                           match="^a component of overlapping atoms is not zero-sum$"):
            L.laminal(ex1)

    def test_an_empty_witness_order_fails_the_witness_check(self, ex1, ex1_parts, monkeypatch):
        # With no ancillary to scan, no unstable event finds its witness.
        _patch_lattice(monkeypatch, "_enumeration_order", lambda lat, order: [])
        with pytest.raises(L.InternalCheckError) as exc:
            L.instability_witness(ex1, ex1_parts["C2"])
        found = re.fullmatch(r"event \[([\d, ]+)\] is not conforming but no block "
                             r"of an ancillary destabilizes it", str(exc.value))
        assert found, exc.value
        # The event named is a zero-sum event outside Γ0.
        event = frozenset(map(int, found[1].split(", ")))
        assert event in set(L.ancillary_events(ex1)) - set(L.gamma0(ex1))

    def test_strong_disagreeing_with_stable_fails_the_check(self, ex1, ex1_parts, monkeypatch):
        # Every conditional statistic read as ancillary: the unstable C2 looks strong.
        monkeypatch.setattr("laminal.ancillary.is_ancillary", lambda model, p: True)
        c2 = ex1_parts["C2"]
        with pytest.raises(L.InternalCheckError,
                           match=f"^{re.escape(f'strong/stable disagree for {c2!r}')}$"):
            L.is_strong(ex1, c2)

    def test_a_statistic_over_another_ground_set_is_rejected(self, ex1):
        with pytest.raises(L.GroundSetMismatch,
                           match="^partition over 3 points does not match model with 7$"):
            L.is_stable(ex1, bp("1,2|3", 3))
        # Checked before the event table, which 21 points exceed.
        wide = L.FiniteModel(("t",), tuple(str(i + 1) for i in range(21)),
                             [[F(1, 21)] * 21], "flat21")
        with pytest.raises(L.GroundSetMismatch,
                           match="^partition over 3 points does not match model with 21$"):
            L.is_stable(wide, bp("1,2|3", 3))

    @pytest.mark.parametrize("call,kind", [
        (lambda m: L.mixture_model(m, "1,2|3,4", (F(1, 2), F(1, 2))), "str"),
        (lambda m: L.model_of_statistic(m, (0, 0, 1, 1)), "tuple"),
        (lambda m: L.is_stable(m, "1,2|3,4"), "str"),
        (lambda m: L.instability_witness(m, (0, 0, 1, 1)), "tuple"),
        (lambda m: L.classify(m, within=(0, 1, 2, 3)), "tuple"),
    ], ids=["mixture_model", "model_of_statistic", "is_stable", "instability_witness",
            "classify"])
    def test_a_statistic_that_is_not_a_partition_is_rejected(self, ex2, call, kind):
        with pytest.raises(L.ModelError, match=f"^statistic must be a Partition, not {kind}$"):
            call(ex2)

    def test_a_witness_with_equal_probabilities_is_rejected(self, ex1, ex1_parts):
        w = L.instability_witness(ex1, ex1_parts["C2"])
        with pytest.raises(ValueError, match="^witness probabilities must differ$"):
            dataclasses.replace(w, lr=(w.lr[0], w.lr[0]))

    def test_no_cross_check_is_an_assert(self):
        # python -O strips assert statements, and the cross-checks must run
        # on every call, so the package raises InternalCheckError instead.
        paths = sorted(Path(L.__file__).parent.glob("*.py"))
        found = [f"{path.name}:{node.lineno}" for path in paths
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
        assert paths and found == [], f"assert statements in laminal: {found}"


class TestMle:
    def test_example2_values(self, ex2):
        assert L.mle(ex2, 0) == 0
        assert L.mle(ex2, 2) == 1
        assert [L.mle(ex2, x) for x in range(4)] == [0, 1, 1, 0]

    def test_tie_goes_to_the_lowest_index(self):
        m = L.FiniteModel(("a", "b"), ("1", "2"),
                          [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        assert L.mle(m, 0) == 0
        assert L.mle_ties(m, 0) == (0, 1)

    def test_one_theta(self, one_theta):
        assert L.mle(one_theta, 2) == 0


class TestConditionalMleTable:
    def test_example2_tables(self, ex2):
        a1 = bp("1,2|3,4", 4)
        a2 = bp("1,3|2,4", 4)
        assert L.conditional_mle_table(ex2, a1, 0) == \
            ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
        assert L.conditional_mle_table(ex2, a2, 0) == \
            ((F(1, 3), F(2, 3)), (F(1, 6), F(5, 6)))

    def test_rows_sum_to_one(self, ex2):
        for a in (bp("1,2|3,4", 4), bp("1,3|2,4", 4)):
            for b in range(2):
                for row in L.conditional_mle_table(ex2, a, b):
                    assert sum(row) == 1

    def test_one_theta_trivial(self, one_theta):
        t = L.conditional_mle_table(one_theta, L.Partition.one_block(3), 0)
        assert t == ((F(1),),)

    def test_requires_ancillary(self, ex2):
        with pytest.raises(L.NotAncillary):
            L.conditional_mle_table(ex2, L.Partition.singletons(4), 0)

    @pytest.mark.parametrize("block", [-1, -2, 2, 5])
    def test_block_outside_the_partition_is_rejected(self, ex2, block):
        # A negative index must not read a block from the end of the list.
        with pytest.raises(L.ModelError, match=rf"block index {block} .* 2 blocks"):
            L.conditional_mle_table(ex2, bp("1,2|3,4", 4), block)
