"""Minimal sufficiency: the coarsest lossless reduction of a model.

Two sample points are equivalent when their probability columns are
proportional across all parameter values; the minimal sufficient
partition collects these classes.  Columns are compared after dividing by
their own (positive) sum, which avoids singling out a reference theta row
and gives the same grouping wherever a reference row exists.

The evidence function ``ev_ms`` reduces an inference base to the
pushforward model on those classes plus the observed class: one
``EvidenceBase`` record in mss-block indices, which ``ev_sc`` in
``evidence`` narrows to the observed laminal contour.  ``match_reductions``
compares two such records, for sufficiency here and for stable
conditionality in ``evidence``: it returns the block relabeling that
matches the derived models and the observed blocks exactly, or the
``Obstruction`` that prevents one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ThetaSpaceMismatch
from .model import FiniteModel, InferenceBase, block_probabilities
from .partitions import Partition, format_event
from .report import fmt_vector


def column_signature(model: FiniteModel, j: int) -> tuple[Fraction, ...]:
    """Column ``j`` normalized by its sum; equal signatures = proportional."""
    col = model.column(j)
    total = sum(col)
    return tuple(v / total for v in col)


def mss_partition(model: FiniteModel) -> Partition:
    """Partition of sample indices into proportional-column classes."""
    return Partition.from_assignment(
        [column_signature(model, j) for j in range(model.n_samples)]
    )


def model_of_statistic(model: FiniteModel, p: Partition) -> FiniteModel:
    """Pushforward model whose sample points are the blocks of ``p``."""
    rows = block_probabilities(model, p)
    labels = tuple(format_event(b, model.sample_labels) for b in p.blocks)
    return FiniteModel(model.theta_labels, labels, rows, f"{model.name}_T")


@dataclass(frozen=True)
class Relabeling:
    """A bijection between block-index sets, ``mapping[src] = dst``."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("relabeling must be a bijection of block indices")

    def __call__(self, j: int) -> int:
        return self.mapping[j]

    def inverse(self) -> "Relabeling":
        inv = [0] * len(self.mapping)
        for src, dst in enumerate(self.mapping):
            inv[dst] = src
        return Relabeling(tuple(inv))

    def compose(self, other: "Relabeling") -> "Relabeling":
        """The relabeling j -> self(other(j))."""
        return Relabeling(tuple(self.mapping[k] for k in other.mapping))

    @property
    def is_identity(self) -> bool:
        return all(d == s for s, d in enumerate(self.mapping))


@dataclass(frozen=True)
class EvidenceBase:
    """An inference base reduced by an evidence function, in mss-block indices.

    ``kept`` lists the minimal sufficient blocks still in play (all of them
    for ``ev_ms``, the observed laminal contour for ``ev_sc``), ``model`` is
    the derived model over exactly those blocks, in that order, and
    ``columns`` maps each kept block to its column in ``model``.
    ``observed`` is the observed mss block.  ``relation`` (``"s"`` or
    ``"sc"``) names the reduction, which sets the wording of an obstruction.

    In sample indices, ``space`` lists the kept blocks, ``observed_block``
    is the observed one's position in ``space`` and ``conditioning_block``
    (``"sc"`` only) is the union of the kept blocks, the observed contour.
    """

    mss: Partition
    kept: tuple[int, ...]
    model: FiniteModel
    observed: int
    relation: str
    columns: dict[int, tuple[Fraction, ...]] = field(init=False, compare=False)

    def __post_init__(self):
        if self.relation not in _VECTOR_WORDS:
            raise ValueError(f"relation must be 's' or 'sc', got {self.relation!r}")
        if self.observed not in self.kept:
            raise ValueError("observed block outside the evidence space")
        if len(self.kept) != self.model.n_samples:
            raise ValueError("evidence model does not match its space")
        columns = {t: self.model.column(i) for i, t in enumerate(self.kept)}
        object.__setattr__(self, "columns", columns)

    @property
    def space(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.mss.blocks[t] for t in self.kept)

    @property
    def observed_block(self) -> int:
        return self.kept.index(self.observed)

    @property
    def conditioning_block(self) -> frozenset[int] | None:
        if self.relation != "sc":
            return None
        return frozenset(e for t in self.kept for e in self.mss.blocks[t])

    def as_inference_base(self) -> InferenceBase:
        return InferenceBase(self.model, self.observed_block)


@dataclass(frozen=True)
class Obstruction:
    """Why two reductions are not related: the first check that failed."""

    reason: str


def ev_ms(ib: InferenceBase) -> EvidenceBase:
    """Reduce an inference base to its minimal sufficient model and value."""
    t = mss_partition(ib.model)
    return EvidenceBase(
        t, tuple(range(t.n_blocks)), model_of_statistic(ib.model, t),
        t.block_of(ib.observed), "s",
    )


def _require_same_thetas(ib1: InferenceBase, ib2: InferenceBase) -> None:
    if ib1.model.theta_labels != ib2.model.theta_labels:
        raise ThetaSpaceMismatch(
            f"parameter labels differ: {ib1.model.theta_labels} vs {ib2.model.theta_labels}"
        )


# How each relation words its vectors: the observed one, then the rest.
_VECTOR_WORDS = {
    "s": ("probability", "block probability"),
    "sc": ("conditional", "contour conditional"),
}


def match_reductions(r1: EvidenceBase, r2: EvidenceBase) -> Relabeling | Obstruction:
    """The canonical relabeling of the second base's blocks onto the first's.

    Checks run in a fixed order and the first that fails is the
    obstruction: parameter labels, minimal sufficient size, number of
    kept blocks, the observed vector, then the multiset of the remaining
    vectors.  The witness sends the observed block to the observed block,
    pairs equal vectors in ascending index order, and completes the blocks
    not kept in ascending index order (the relation only constrains it on
    the kept ones).
    """
    if r1.relation != r2.relation:
        raise ValueError(f"records of different relations: {r1.relation!r} vs {r2.relation!r}")
    if r1.model.theta_labels != r2.model.theta_labels:
        return Obstruction(
            f"parameter labels differ: {r1.model.theta_labels} vs {r2.model.theta_labels}"
        )
    k1, k2 = r1.mss.n_blocks, r2.mss.n_blocks
    if k1 != k2:
        return Obstruction(f"minimal sufficient spaces differ in size ({k1} vs {k2})")
    if len(r1.kept) != len(r2.kept):
        return Obstruction(
            f"laminal contours differ in size ({len(r1.kept)} vs {len(r2.kept)})"
        )
    observed_words, rest_words = _VECTOR_WORDS[r1.relation]
    v1, v2 = r1.columns[r1.observed], r2.columns[r2.observed]
    if v1 != v2:
        return Obstruction(
            f"observed blocks have different {observed_words} vectors "
            f"({fmt_vector(v1)} vs {fmt_vector(v2)})"
        )
    # Sorting is stable, so equal vectors keep their ascending block order.
    rest1 = sorted((t for t in r1.kept if t != r1.observed), key=r1.columns.get)
    rest2 = sorted((t for t in r2.kept if t != r2.observed), key=r2.columns.get)
    if [r1.columns[t] for t in rest1] != [r2.columns[t] for t in rest2]:
        return Obstruction(f"{rest_words} vectors do not match as multisets")
    src = [r2.observed, *rest2, *(t for t in range(k2) if t not in r2.columns)]
    dst = [r1.observed, *rest1, *(t for t in range(k1) if t not in r1.columns)]
    return Relabeling(tuple(d for _, d in sorted(zip(src, dst))))


def s_equivalent(ib1: InferenceBase, ib2: InferenceBase) -> Relabeling | None:
    """Relabeling witnessing sufficiency equivalence, or None.

    The two minimal sufficient pushforward models must agree exactly under
    a block bijection that also sends the second observed block to the
    first; ``match_reductions`` builds the canonical witness.  The
    parameter labels are compared before either base is reduced.
    """
    _require_same_thetas(ib1, ib2)
    verdict = match_reductions(ev_ms(ib1), ev_ms(ib2))
    return verdict if isinstance(verdict, Relabeling) else None
