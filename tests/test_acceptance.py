"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
expected value is exact; there are no tolerances anywhere.
"""

import random
from fractions import Fraction as F

import pytest

import laminal as L
from laminal.cli import main
from laminal.corpus import audit_corpus, random_models

from conftest import bp


def outcome(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {name}"


@pytest.fixture(scope="module")
def corpus_models():
    return random_models(20260810, 200)


def test_criterion_1_classification_across_epsilon():
    rng = random.Random(20260810)
    eps_values = [F(1, 100)] + [F(rng.randint(1, 99), 6400) for _ in range(10)]
    want_min = {bp(t, 7) for t in (
        "1,2,3,4,5,6,7", "1,2,3,4,5,6|7", "1,2,3,4,7|5,6",
        "1,2,3,4|5,6,7", "1,2,3,4|5,6|7")}
    want_max = {bp("1,2|3,4|5,6|7", 7), bp("1,3|2,4|5,6|7", 7)}
    want_lam = bp("1,2,3,4|5,6|7", 7)
    ok = True
    for eps in eps_values:
        cls = L.classify(L.example1_model(eps))
        ok &= set(cls.minimal) == want_min
        ok &= set(cls.maximal) == want_max
        ok &= cls.laminal == want_lam
    outcome(1, "minimal/maximal/laminal classification across epsilon", ok)


def test_criterion_2_conditional_mle_table():
    m = L.example2_model()
    got_a1 = L.conditional_mle_table(m, bp("1,2|3,4", 4), 0)
    got_a2 = L.conditional_mle_table(m, bp("1,3|2,4", 4), 0)
    ok = got_a1 == ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
    ok &= got_a2 == ((F(1, 3), F(2, 3)), (F(1, 6), F(5, 6)))
    outcome(2, "conditional MLE distributions", ok)


def test_criterion_3_reweighting_figure_values():
    m = L.example1_model(F(1, 100))
    a1 = bp("1,2|3,4|5,6|7", 7)
    lam = bp("1,2,3,4|5,6|7", 7)
    c2 = bp("1,3,5,6|2,4|7", 7)
    w = (F(7, 100), F(13, 100), F(27, 100), F(53, 100))
    mix = L.mixture_model(m, a1, w)
    ok = L.ancillary_distribution(mix, lam) == (F(20, 100), F(27, 100), F(53, 100))
    # independent oracle: recompose each block from the conditionals of A1
    dist = L.ancillary_distribution(m, a1)
    lrs = []
    for b in c2.blocks:
        oracle = [
            sum((w[i] * m.event_prob(t, set(b) & set(blk)) / dist[i]
                 for i, blk in enumerate(a1.blocks)), F(0))
            for t in range(2)
        ]
        ok &= mix.event_prob(0, b) == oracle[0]
        ok &= mix.event_prob(1, b) == oracle[1]
        lrs.append(oracle[0] / oracle[1])
    ok &= lrs == [F(1916, 2015), F(217, 2500) / F(67, 1000), F(1)]
    ok &= any(r != 1 for r in lrs)
    outcome(3, "reweighting keeps the laminal free and skews the crossing statistic", ok)


def test_criterion_4_stable_strong_minimal_identity(corpus_models):
    ok = len(corpus_models) >= 200
    for m in corpus_models:
        mins = set(L.minimal_ancillaries(m))
        for u in L.ancillaries(m):
            stable = L.is_stable(m, u)
            ok &= stable == L.is_strong(m, u)
            ok &= stable == (u in mins)
    outcome(4, "stable = strong = minimal on 200 seeded models", ok)


def test_criterion_5_laminal_coherence(corpus_models):
    ok = True
    for m in corpus_models:
        maxs = L.maximal_ancillaries(m)
        mins = L.minimal_ancillaries(m)
        lam = L.laminal(m)
        joined = L.join(list(maxs))
        ok &= L.is_ancillary(m, joined)
        ok &= joined == lam
        ok &= lam in set(mins)
        ok &= all(L.is_coarsening(p, lam) for p in mins)
        ok &= set(L.gamma0(m)) == set(L.algebra_generated_by(lam))
        if len(maxs) == 1:
            ok &= lam == maxs[0]
    outcome(5, "laminal coherence and conforming-event algebra on the corpus", ok)


def test_criterion_6_relation_suite():
    corpus = audit_corpus(seed=20260810, size=24)
    ok = len(corpus) >= 30
    sc_report = L.audit_relation(corpus, "sc")
    ok &= sc_report.is_equivalence
    ok &= sc_report.containment_failures == ()
    ok &= any(in_s for _, in_s, _sc in sc_report.containment_checks)
    s_report = L.audit_relation(corpus, "s")
    ok &= s_report.is_equivalence
    ok &= all(L.ev_sc_idempotent(ib) for ib in corpus)
    for (i, j), _in_s, in_sc in sc_report.containment_checks:
        if in_sc:
            ok &= L.conditional_bases_s_equivalent(corpus[i], corpus[j])
    parent = L.InferenceBase(L.example1_model(F(1, 100)), 0)
    family = [parent, *L.maximal_conditionals(parent)]
    c_report = L.audit_relation(family, "c")
    ok &= bool(c_report.transitive_failures or c_report.symmetric_failures)
    outcome(6, "equivalence-relation audits and idempotence", ok)


def test_criterion_7_degenerate_mss(ex1_eps0):
    ok = L.mss_partition(ex1_eps0) == bp("1,4,6|2,3|5|7", 7)
    outcome(7, "degenerate-eps minimal sufficient partition", ok)


def test_criterion_8_reproduce_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    ok = main(["reproduce", "all", "--epsilon", "1/100", "--out", str(out1)]) == 0
    first = capsys.readouterr().out
    ok &= main(["reproduce", "all", "--epsilon", "1/100", "--out", str(out2)]) == 0
    second = capsys.readouterr().out
    ok &= first == second
    ok &= (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    ok &= (out1 / "figure1.csv").read_bytes() == (out2 / "figure1.csv").read_bytes()
    ok &= "FAIL" not in first
    outcome(8, "byte-identical reproduce output", ok)
