import random
from fractions import Fraction as F

import pytest

import laminal as L
from laminal.corpus import audit_corpus, permuted_copy


@pytest.fixture(scope="module")
def sc_not_s_pair():
    # Same conditional model on the observed laminal contour, different
    # unconditional block probabilities: related under stable conditionality
    # but not under sufficiency.
    m1 = L.FiniteModel(
        ("theta1", "theta2"), ("a", "b", "c"),
        [[F(1, 3), F(1, 3), F(1, 3)], [F(1, 6), F(1, 2), F(1, 3)]], "m1")
    m2 = L.FiniteModel(
        ("theta1", "theta2"), ("a", "b", "c"),
        [[F(1, 4), F(1, 4), F(1, 2)], [F(1, 8), F(3, 8), F(1, 2)]], "m2")
    return L.InferenceBase(m1, 0), L.InferenceBase(m2, 0)


class TestEvSc:
    def test_example1_observed_5(self, ex1):
        eb = L.ev_sc(L.InferenceBase(ex1, 4))
        assert eb.space == ((4,), (5,))
        assert eb.observed_block == 0
        assert eb.conditioning_block == frozenset({4, 5})
        assert eb.model.probs == ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))

    def test_example2_trivial_laminal_keeps_everything(self, ex2):
        eb = L.ev_sc(L.InferenceBase(ex2, 0))
        assert eb.space == tuple((i,) for i in range(4))
        assert eb.conditioning_block == frozenset(range(4))
        assert eb.model.probs == ex2.probs
        assert eb.observed_block == 0

    def test_one_theta(self, one_theta):
        eb = L.ev_sc(L.InferenceBase(one_theta, 2))
        assert eb.space == ((0, 1, 2),)
        assert eb.model.probs == ((F(1),),)

    @pytest.mark.parametrize("names", [("alpha", "beta"), ("beta", "alpha")])
    def test_equal_content_models_keep_their_own_names(self, ex1, names):
        # Content equality ignores the name, so a cache keyed on content
        # would hand the second model the first one's conditional.
        for name in names:
            m = L.FiniteModel(ex1.theta_labels, ex1.sample_labels, ex1.probs, name)
            assert L.ev_sc(L.InferenceBase(m, 4)).model.name == f"{name}_T_cond"

    def test_conditional_columns_are_nonproportional(self, ex1, ex2):
        for m in (ex1, ex2):
            for x in range(m.n_samples):
                eb = L.ev_sc(L.InferenceBase(m, x))
                sigs = [L.column_signature(eb.model, j)
                        for j in range(eb.model.n_samples)]
                assert len(set(sigs)) == len(sigs)


class TestScEquivalence:
    def test_reflexive_identity(self, ex1):
        ib = L.InferenceBase(ex1, 4)
        h = L.sc_equivalent(ib, ib)
        assert h is not None and h.is_identity

    def test_mirror_contour_points_differ(self, ex1):
        # both contours are {5,6} but the observed conditional vectors are
        # (1/3,2/3) vs (2/3,1/3)
        absent = L.sc_equivalent(L.InferenceBase(ex1, 4), L.InferenceBase(ex1, 5))
        assert absent is None

    def test_s_equivalent_pairs_are_sc_equivalent(self, ex1, ex2):
        rng = random.Random(5)
        for m in (ex1, ex2):
            for x in range(m.n_samples):
                ib = L.InferenceBase(m, x)
                ib2 = permuted_copy(ib, rng)
                assert L.s_equivalent(ib, ib2) is not None
                assert L.sc_equivalent(ib, ib2) is not None

    def test_sc_without_s(self, sc_not_s_pair):
        ib1, ib2 = sc_not_s_pair
        assert L.sc_equivalent(ib1, ib2) is not None
        assert L.s_equivalent(ib1, ib2) is None

    def test_theta_space_mismatch(self, ex2):
        other = L.FiniteModel(("p", "q"), ("1", "2"),
                              [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
        with pytest.raises(L.ThetaSpaceMismatch):
            L.sc_equivalent(L.InferenceBase(ex2, 0), L.InferenceBase(other, 0))

    def test_theta_mismatch_is_found_before_the_cap(self):
        # 21 distinct likelihood ratios give 21 minimal sufficient blocks,
        # past the 2^20 event scan: the parameter labels must be compared
        # before either base is reduced.
        n, total = 21, 21 * 22 // 2
        wide = L.FiniteModel(("a", "b"), tuple(str(i + 1) for i in range(n)),
                             [[F(i + 1, total) for i in range(n)],
                              [F(n - i, total) for i in range(n)]])
        other = L.FiniteModel(("p", "q"), ("1", "2"),
                              [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
        for pair in ((wide, other), (other, wide)):
            ib1, ib2 = (L.InferenceBase(m, 0) for m in pair)
            with pytest.raises(L.ThetaSpaceMismatch):
                L.sc_equivalent(ib1, ib2)
            with pytest.raises(L.ThetaSpaceMismatch):
                L.s_equivalent(ib1, ib2)
        with pytest.raises(L.SizeCapExceeded):
            L.sc_equivalent(L.InferenceBase(wide, 0), L.InferenceBase(wide, 1))

    def test_witness_maps_contour_onto_contour(self, sc_not_s_pair):
        ib1, ib2 = sc_not_s_pair
        h = L.sc_equivalent(ib1, ib2)
        e1, e2 = L.ev_sc(ib1), L.ev_sc(ib2)
        t1 = L.mss_partition(ib1.model)
        t2 = L.mss_partition(ib2.model)
        contour1 = {t1.block_of(i) for i in e1.conditioning_block}
        contour2 = {t2.block_of(i) for i in e2.conditioning_block}
        assert {h(t) for t in contour2} == contour1
        assert h(t2.block_of(ib2.observed)) == t1.block_of(ib1.observed)


class TestIdempotence:
    def test_examples(self, ex1, ex2, one_theta):
        for m in (ex1, ex2, one_theta):
            for x in range(m.n_samples):
                assert L.ev_sc_idempotent(L.InferenceBase(m, x))

    def test_degenerate_eps(self, ex1_eps0):
        for x in range(7):
            assert L.ev_sc_idempotent(L.InferenceBase(ex1_eps0, x))

    def test_ms_reduction_is_a_fixed_point(self, ex1, ex2, one_theta, ex1_eps0):
        for m in (ex1, ex2, one_theta, ex1_eps0):
            for x in range(m.n_samples):
                ib = L.InferenceBase(m, x)
                assert L.is_ms_reduced(L.ev_ms(ib).as_inference_base())
                assert L.is_ms_reduced(ib) == (L.mss_partition(m).n_blocks == m.n_samples)


class TestConditionalBases:
    def test_self_pair(self, ex1):
        ib = L.InferenceBase(ex1, 0)
        assert L.conditional_bases_s_equivalent(ib, ib)

    def test_requires_sc_equivalence(self, ex1):
        with pytest.raises(L.NotSCEquivalent):
            L.conditional_bases_s_equivalent(
                L.InferenceBase(ex1, 4), L.InferenceBase(ex1, 5))

    def test_holds_on_sc_pairs(self, sc_not_s_pair):
        ib1, ib2 = sc_not_s_pair
        assert L.conditional_bases_s_equivalent(ib1, ib2)


@pytest.fixture(scope="module")
def corpus():
    return audit_corpus(seed=7, size=10)


class TestAudits:

    def test_s_audit_passes(self, corpus):
        report = L.audit_relation(corpus, "s")
        assert report.is_equivalence
        assert report.corpus_size == len(corpus)

    def test_sc_audit_passes_with_containment(self, corpus):
        report = L.audit_relation(corpus, "sc")
        assert report.is_equivalence
        assert report.containment_failures == ()
        # the permuted copies guarantee genuinely related pairs
        assert any(in_s for _, in_s, _sc in report.containment_checks)
        for _, in_s, in_sc in report.containment_checks:
            assert not in_s or in_sc

    def test_sc_does_not_imply_s(self, sc_not_s_pair):
        report = L.audit_relation(list(sc_not_s_pair), "sc")
        assert report.is_equivalence
        related_sc = [c for c in report.containment_checks if c[2]]
        assert any(not in_s for _, in_s, _sc in related_sc)

    def test_classical_conditioning_fails_transitivity(self, ex1):
        parent = L.InferenceBase(ex1, 0)
        family = [parent, *L.maximal_conditionals(parent)]
        assert len(family) == 3
        report = L.audit_relation(family, "c")
        assert not report.is_equivalence
        assert report.transitive_failures
        assert not report.reflexive_failures
        # the two conditionals are related through the parent but not to
        # each other
        assert (1, 0, 2) in report.transitive_failures

    def test_classical_conditioning_trivial_corpus_passes(self, ex2):
        # with a unique (trivial) maximal ancillary the conditioning step is
        # the identity and nothing fails
        m = L.FiniteModel(("a", "b"), ("1", "2"),
                          [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
        report = L.audit_relation([L.InferenceBase(m, 0)], "c")
        assert report.is_equivalence

    def test_unknown_relation(self, ex2):
        with pytest.raises(ValueError):
            L.audit_relation([L.InferenceBase(ex2, 0)], "x")


class TestContentHash:
    def test_stable_and_distinct(self, ex1, ex2):
        a = L.content_hash(L.InferenceBase(ex1, 0))
        assert a == L.content_hash(L.InferenceBase(ex1, 0))
        assert a != L.content_hash(L.InferenceBase(ex1, 1))
        assert a != L.content_hash(L.InferenceBase(ex2, 0))
        assert len(a) == 12
