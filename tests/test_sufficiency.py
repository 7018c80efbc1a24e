import random
from fractions import Fraction as F

import pytest

import laminal as L
from laminal.corpus import permuted_copy, random_models

from conftest import assert_s_witness, bp


class TestMssPartition:
    def test_identity_for_generic_eps(self, ex1):
        assert L.mss_partition(ex1) == L.Partition.singletons(7)

    def test_degenerate_eps_merges_equal_ratio_columns(self, ex1_eps0):
        assert L.mss_partition(ex1_eps0) == bp("1,4,6|2,3|5|7", 7)

    def test_one_theta_collapses_to_one_block(self, one_theta):
        assert L.mss_partition(one_theta) == L.Partition.one_block(3)

    def test_example2_is_identity(self, ex2):
        assert L.mss_partition(ex2) == L.Partition.singletons(4)

    def test_pushforward_of_mss_has_nonproportional_columns(self, ex1, ex2, ex1_eps0):
        models = [ex1, ex2, ex1_eps0]
        models += random_models(99, 25)
        for m in models:
            t = L.mss_partition(m)
            pushed = L.model_of_statistic(m, t)
            sigs = [L.column_signature(pushed, j) for j in range(pushed.n_samples)]
            assert len(set(sigs)) == len(sigs)


class TestModelOfStatistic:
    def test_laminal_pushforward(self, ex1):
        pushed = L.model_of_statistic(ex1, bp("1,2,3,4|5,6|7", 7))
        assert pushed.probs == ((F(1, 2), F(3, 14), F(4, 14)),) * 2
        assert pushed.sample_labels == ("{1,2,3,4}", "{5,6}", "{7}")

    def test_singletons_keep_the_matrix(self, ex2):
        pushed = L.model_of_statistic(ex2, L.Partition.singletons(4))
        assert pushed.probs == ex2.probs

    def test_example2_first_maximal(self, ex2):
        pushed = L.model_of_statistic(ex2, bp("1,2|3,4", 4))
        assert pushed.probs == ((F(1, 3), F(2, 3)),) * 2


class TestEvMs:
    def test_identity_mss_keeps_all_blocks(self, ex1):
        eb = L.ev_ms(L.InferenceBase(ex1, 2))
        assert eb.space == tuple((i,) for i in range(7))
        assert eb.observed_block == 2
        assert eb.conditioning_block is None
        assert eb.model.probs == ex1.probs

    def test_one_theta(self, one_theta):
        eb = L.ev_ms(L.InferenceBase(one_theta, 1))
        assert eb.space == ((0, 1, 2),)
        assert eb.observed_block == 0

    def test_degenerate_observed_block(self, ex1_eps0):
        eb = L.ev_ms(L.InferenceBase(ex1_eps0, 3))
        assert eb.space[eb.observed_block] == (0, 3, 5)

    def test_evidence_base_invariants(self, ex1):
        mss, model = L.Partition.singletons(7), L.condition_on_event(ex1, {0, 1})
        with pytest.raises(ValueError):
            L.EvidenceBase(mss=mss, kept=(0, 1), model=model, observed=5, relation="sc")
        # One sample of the model per kept block.
        with pytest.raises(ValueError):
            L.EvidenceBase(mss=mss, kept=(0, 1, 2), model=model, observed=0, relation="sc")

    @pytest.mark.parametrize("relation", ["S", "c", "", "ms"])
    def test_evidence_base_rejects_an_unknown_relation(self, ex1, relation):
        # match_reductions words an obstruction by the relation, so a record
        # naming any other relation must not be built.
        ms = L.ev_ms(L.InferenceBase(ex1, 0))
        with pytest.raises(ValueError,
                           match=f"^relation must be 's' or 'sc', got {relation!r}$"):
            L.EvidenceBase(ms.mss, ms.kept, ms.model, ms.observed, relation)


class TestSEquivalence:
    def test_reflexive_identity(self, ex1):
        ib = L.InferenceBase(ex1, 4)
        h = L.s_equivalent(ib, ib)
        assert h is not None and h.is_identity

    def test_distinct_observed_vectors_fail(self, ex1):
        absent = L.s_equivalent(L.InferenceBase(ex1, 4), L.InferenceBase(ex1, 5))
        assert absent is None

    def test_base_equivalent_to_its_own_reduction(self, ex1, ex2, one_theta):
        for m in (ex1, ex2, one_theta):
            ib = L.InferenceBase(m, m.n_samples - 1)
            reduced = L.ev_ms(ib).as_inference_base()
            h = L.s_equivalent(ib, reduced)
            assert h is not None
            assert_s_witness(ib, reduced, h)

    def test_theta_space_mismatch(self, ex2):
        other = L.FiniteModel(("p", "q"), ("1", "2"),
                              [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
        with pytest.raises(L.ThetaSpaceMismatch):
            L.s_equivalent(L.InferenceBase(ex2, 0), L.InferenceBase(other, 0))

    def test_permuted_copies_are_equivalent(self, ex1, ex2):
        rng = random.Random(11)
        for m in (ex1, ex2):
            for x in range(m.n_samples):
                ib = L.InferenceBase(m, x)
                ib2 = permuted_copy(ib, rng)
                h = L.s_equivalent(ib, ib2)
                assert h is not None
                assert_s_witness(ib, ib2, h)

    def test_relation_laws_on_a_corpus(self, ex1, ex2):
        # reflexivity, symmetry via inverse, transitivity via composition
        rng = random.Random(23)
        bases = [L.InferenceBase(ex1, 0), L.InferenceBase(ex2, 1)]
        bases += [permuted_copy(bases[0], rng) for _ in range(2)]
        bases += [permuted_copy(bases[1], rng)]
        for a in bases:
            assert L.s_equivalent(a, a) is not None
        for a in bases:
            for b in bases:
                hab = L.s_equivalent(a, b) if a.model.theta_labels == b.model.theta_labels else None
                hba = L.s_equivalent(b, a) if hab is not None else None
                if hab is not None:
                    assert hba is not None
                    assert_s_witness(b, a, hab.inverse())
                for c in bases:
                    if hab is None:
                        continue
                    hbc = L.s_equivalent(b, c) if b.model.theta_labels == c.model.theta_labels else None
                    if hbc is None:
                        continue
                    hac = L.s_equivalent(a, c)
                    assert hac is not None
                    assert_s_witness(a, c, hab.compose(hbc))


class TestMatchReductions:
    @staticmethod
    def _reduction(columns, observed):
        # Records built by hand: a real reduction never has two equal
        # columns, so this is the only way to exercise tie-breaking.
        labels = tuple(str(i + 1) for i in range(len(columns)))
        rows = [[col[t] for col in columns] for t in range(2)]
        model = L.FiniteModel(("theta1", "theta2"), labels, rows)
        n = len(columns)
        return L.EvidenceBase(L.Partition.singletons(n), tuple(range(n)), model,
                              observed, "s")

    def test_equal_vectors_pair_in_ascending_order(self):
        x, y = (F(1, 4), F(1, 2)), (F(1, 2), F(0))
        r1 = self._reduction([x, y, x], observed=1)
        r2 = self._reduction([x, x, y], observed=2)
        assert L.match_reductions(r1, r2) == L.Relabeling((0, 2, 1))

    def test_records_of_different_relations_are_rejected(self, ex1):
        # An obstruction is worded by the relation, so an s record is never
        # matched against an sc one.
        ib = L.InferenceBase(ex1, 0)
        with pytest.raises(ValueError, match="^records of different relations: 's' vs 'sc'$"):
            L.match_reductions(L.ev_ms(ib), L.ev_sc(ib))
        with pytest.raises(ValueError, match="^records of different relations: 'sc' vs 's'$"):
            L.match_reductions(L.ev_sc(ib), L.ev_ms(ib))

    def test_parameter_labels_are_an_obstruction(self, ex2):
        other = L.FiniteModel(("p", "q"), ("1", "2"),
                              [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
        verdict = L.match_reductions(L.ev_ms(L.InferenceBase(ex2, 0)),
                                     L.ev_ms(L.InferenceBase(other, 0)))
        assert verdict == L.Obstruction(
            "parameter labels differ: ('theta1', 'theta2') vs ('p', 'q')")


class TestRelabeling:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            L.Relabeling((0, 0, 1))

    def test_inverse_and_compose(self):
        h = L.Relabeling((2, 0, 1))
        assert h.inverse().mapping == (1, 2, 0)
        assert h.compose(h.inverse()).is_identity
        assert h.inverse().compose(h).is_identity
