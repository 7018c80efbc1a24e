"""Stable conditional evidence and relation audits.

``ev_sc`` reduces an inference base in two steps: first to the minimal
sufficient model (as ``ev_ms`` does), then by conditioning on the laminal
ancillary of that reduced model, i.e. on the unique maximal statistic
among the stable ancillaries that are functions of the minimal sufficient
one.  The output keeps only the observed laminal contour, where no
further reduction is possible; ``ev_sc_idempotent`` re-verifies this
fixed-point property by executing both composition orders.  The laminal
is read off the atoms, so sc needs the event table but no ancillary search.

Both steps produce a ``sufficiency.EvidenceBase``, the one record of a
reduced base; ``match_reductions`` decides both relations on it, on the
contour here.  Nothing is cached between calls: the stable-conditionality
audit reduces each base once.

``audit_relation`` checks reflexivity, symmetry and transitivity of the
sufficiency relation, the stable-conditionality relation, and (as a
counterexample target only) the classical conditioning relation that
relates a base to its conditionals given any maximal ancillary.  The
classical relation fails transitivity whenever two crossing maximal
ancillaries exist; the audit exhibits concrete witnesses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .ancillary import laminal, maximal_ancillaries
from .errors import NotSCEquivalent
from .model import InferenceBase, condition_on_event, format_model
from .partitions import DEFAULT_ENUMERATION_CAP
from .sufficiency import (
    EvidenceBase,
    Obstruction,
    Relabeling,
    _require_same_thetas,
    ev_ms,
    match_reductions,
    s_equivalent,
)


def condition_on_laminal(r: EvidenceBase) -> EvidenceBase:
    """Condition a minimal sufficient reduction on its laminal ancillary.

    The kept blocks shrink to the observed laminal contour: the mss blocks that
    share the observed laminal value, carrying the conditional model given
    that value.
    """
    lam = laminal(r.model)
    contour = lam.blocks[lam.block_of(r.observed)]
    return EvidenceBase(
        r.mss, contour, condition_on_event(r.model, contour), r.observed, "sc"
    )


def ev_sc(ib: InferenceBase) -> EvidenceBase:
    """Minimal sufficient reduction conditioned on its laminal ancillary."""
    return condition_on_laminal(ev_ms(ib))


def sc_equivalent(ib1: InferenceBase, ib2: InferenceBase) -> Relabeling | None:
    """Relabeling witnessing stable-conditionality equivalence, or None.

    Requires minimal sufficient spaces of equal size and a bijection whose
    restriction maps the second observed contour onto the first with
    exactly matching conditional probability vectors and matching observed
    blocks; ``match_reductions`` builds the canonical witness.  The
    parameter labels are compared before either base is reduced.
    """
    _require_same_thetas(ib1, ib2)
    verdict = match_reductions(ev_sc(ib1), ev_sc(ib2))
    return verdict if isinstance(verdict, Relabeling) else None


def _base_signature(ib: InferenceBase):
    # A base up to sample labels: parameter labels, matrix, observed index.
    return (ib.model.theta_labels, ib.model.probs, ib.observed)


def is_ms_reduced(ib: InferenceBase) -> bool:
    """True when ``ev_ms`` gives ``ib`` back; nothing is enumerated."""
    return _base_signature(ev_ms(ib).as_inference_base()) == _base_signature(ib)


def _is_sc_fixed_point(ms: EvidenceBase, sc: EvidenceBase) -> bool:
    # ``ms``, ``sc`` are ev_ms(ib), ev_sc(ib); the second order reduces ``ms``.
    direct = sc.as_inference_base()
    sc_after = ev_sc(ms.as_inference_base()).as_inference_base()
    return is_ms_reduced(direct) and _base_signature(sc_after) == _base_signature(direct)


def ev_sc_idempotent(ib: InferenceBase) -> bool:
    """Check that the stable-conditional reduction is a fixed point.

    Materializes ``ev_sc(ib)``, then re-reduces it with ``ev_ms`` and
    re-reduces ``ev_ms(ib)`` with ``ev_sc``; all three evidence bases must
    agree up to the canonical block identification (same derived model
    matrix over the same parameter labels, same observed position).
    """
    ms = ev_ms(ib)
    return _is_sc_fixed_point(ms, condition_on_laminal(ms))


def conditional_bases_s_equivalent(ib1: InferenceBase, ib2: InferenceBase) -> bool:
    """Sufficiency equivalence of the two conditioned evidence bases.

    Only defined for pairs already equivalent under stable conditionality.
    """
    _require_same_thetas(ib1, ib2)
    e1, e2 = ev_sc(ib1), ev_sc(ib2)
    if isinstance(match_reductions(e1, e2), Obstruction):
        raise NotSCEquivalent("the pair is not equivalent under stable conditionality")
    return s_equivalent(e1.as_inference_base(), e2.as_inference_base()) is not None


# ---------------------------------------------------------------------------
# Relation audits
# ---------------------------------------------------------------------------


def content_hash(ib: InferenceBase) -> str:
    """Short stable hash of the model content and observed value."""
    payload = format_model(ib.model) + f"observed {ib.observed_label}\n"
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def maximal_conditionals(
    ib: InferenceBase, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[InferenceBase, ...]:
    """The conditional bases given each maximal ancillary at the observed value."""
    out = []
    for a in maximal_ancillaries(ib.model, cap=cap):
        block = a.blocks[a.block_of(ib.observed)]
        cond = condition_on_event(ib.model, block)
        out.append(InferenceBase(cond, block.index(ib.observed)))
    return tuple(out)


@dataclass(frozen=True)
class RelationAuditReport:
    """Outcome of an exhaustive relation audit over a corpus.

    Failure entries are corpus indices: ``(i,)`` for reflexivity, ``(i, j)``
    for symmetry (related one way only), ``(i, j, k)`` for transitivity.
    ``containment_checks`` (stable-conditionality audits only) records
    ``((i, j), in_s, in_sc)`` for every unordered pair.
    """

    relation_name: str
    corpus_size: int
    reflexive_failures: tuple[tuple[int], ...]
    symmetric_failures: tuple[tuple[int, int], ...]
    transitive_failures: tuple[tuple[int, int, int], ...]
    containment_checks: tuple[tuple[tuple[int, int], bool, bool], ...] = ()

    @property
    def is_equivalence(self) -> bool:
        return not (
            self.reflexive_failures
            or self.symmetric_failures
            or self.transitive_failures
        )

    @property
    def containment_failures(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            pair for pair, in_s, in_sc in self.containment_checks if in_s and not in_sc
        )


def _s_related(ib1, ib2) -> bool:
    # Bases over different parameter spaces are simply unrelated.
    return (ib1.model.theta_labels == ib2.model.theta_labels
            and s_equivalent(ib1, ib2) is not None)


def audit_relation(
    corpus: list[InferenceBase],
    relation: str,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> RelationAuditReport:
    """Exhaustively audit reflexivity, symmetry and transitivity on a corpus.

    ``relation`` is ``"s"`` (sufficiency), ``"sc"`` (stable conditionality)
    or ``"c"`` (classical conditioning on any maximal ancillary; implemented
    as the reflexive-symmetric closure of the one-step conditioning relation,
    so its expected failure mode is transitivity).  For ``"sc"`` every pair
    is also checked for the sufficiency-implies-stable-conditionality
    containment.  Each base is reduced once for ``"sc"``; a pair over
    different parameter labels is unrelated.  Only ``"c"`` reads ``cap``.
    """
    k = len(corpus)
    pairs = [(i, j) for i in range(k) for j in range(k)]
    if relation == "s":
        related = {(i, j): _s_related(corpus[i], corpus[j]) for i, j in pairs}
    elif relation == "sc":
        reduced = [ev_sc(ib) for ib in corpus]
        related = {
            (i, j): isinstance(match_reductions(reduced[i], reduced[j]), Relabeling)
            for i, j in pairs
        }
    elif relation == "c":
        sigs = [_base_signature(ib) for ib in corpus]
        conds = [
            {_base_signature(c) for c in maximal_conditionals(ib, cap)}
            for ib in corpus
        ]
        related = {
            (i, j): sigs[i] == sigs[j] or sigs[j] in conds[i] or sigs[i] in conds[j]
            for i, j in pairs
        }
    else:
        raise ValueError(f"unknown relation {relation!r}")

    reflexive = tuple((i,) for i in range(k) if not related[(i, i)])
    symmetric = tuple(
        (i, j) for i, j in pairs if i != j and related[(i, j)] and not related[(j, i)]
    )
    transitive = tuple(
        (i, j, l)
        for i, j in pairs
        for l in range(k)
        if len({i, j, l}) == 3
        and related[(i, j)]
        and related[(j, l)]
        and not related[(i, l)]
    )
    containment = ()
    if relation == "sc":
        containment = tuple(
            ((i, j), _s_related(corpus[i], corpus[j]), related[(i, j)])
            for i in range(k)
            for j in range(i + 1, k)
        )
    return RelationAuditReport(
        relation_name=relation,
        corpus_size=k,
        reflexive_failures=reflexive,
        symmetric_failures=symmetric,
        transitive_failures=transitive,
        containment_checks=containment,
    )
