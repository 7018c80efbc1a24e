"""Finite discrete statistical models with exact rational probabilities.

A model is a labelled matrix: one row of probabilities per parameter
value, one column per sample point, every entry a ``fractions.Fraction``.
Ancillarity is an equality predicate on sums of entries, so no floating
point is allowed anywhere on the analysis path; construction rejects
floats outright.

Validation runs in integers: the rows are scaled by the least common
multiple S of all denominators, and each model keeps that integer matrix
(``scaled``, every row summing to S) for the ancillary event table, where
parameter-free events are equal integer sums.  Derived models
(conditionals, mixtures, pushforwards) are fully validated again, which
keeps the core invariants (rows sum to 1, no dead sample point) true
throughout an analysis.  All values are immutable and all operations are
pure functions, so everything is safe to share across threads.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DeadSamplePoint,
    DuplicateLabel,
    EpsilonOutOfRange,
    GroundSetMismatch,
    InvalidWeights,
    ModelError,
    ModelFormatError,
    NegativeProbability,
    NotAncillary,
    RowSumError,
    UnknownSampleLabel,
    WeightArityMismatch,
    ZeroProbabilityEvent,
)
from .partitions import Partition

_ONE = Fraction(1)
_RATIONAL_TOKEN = re.compile(r"^[+-]?\d+(/\d+)?$")
# A row's entries after its label: every token a rational, each after
# whitespace (``\s`` is the whitespace that str.split splits on).
_RATIONAL_ROW = re.compile(r"(?:\s+[+-]?\d+(?:/\d+)?)+")
_LABEL_MARKS = frozenset(",|{}")
_ATOM = re.compile(r"[^\s#,|{}]+")
# An event as format_event renders it; inner events collapse to a space.
_RENDERED_EVENT = re.compile(r"\{(?:[^\s#,|{}]+| )(?:,(?:[^\s#,|{}]+| ))*\}")


def _renders_back(label: str) -> bool:
    # An atom, or one event once its inner events collapse, innermost first.
    while not _RENDERED_EVENT.fullmatch(label):
        if (inner := _RENDERED_EVENT.sub(" ", label)) == label:
            return _ATOM.fullmatch(label) is not None
        label = inner
    return True


def as_rational(value: Fraction | int | str) -> Fraction:
    """Convert to an exact rational; floats are rejected, never coerced."""
    if isinstance(value, float):
        raise ModelError(f"floating-point value {value!r} is not exact")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFormatError(f"not a rational: {value!r}") from exc


@dataclass(frozen=True)
class FiniteModel:
    """A finite discrete model: labelled rows of exact probabilities.

    ``name`` is provenance metadata and does not take part in equality.
    ``scaled`` is ``probs`` over its common denominator S: row t is
    ``probs[t][j] * S`` for each j, so every row sums to S.  It is derived,
    so it takes no part in equality or ``repr`` either.
    """

    theta_labels: tuple[str, ...]
    sample_labels: tuple[str, ...]
    probs: tuple[tuple[Fraction, ...], ...]
    name: str = field(default="model", compare=False)
    scaled: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        given = {"theta": self.theta_labels, "sample": self.sample_labels}
        thetas = tuple(self.theta_labels)
        samples = tuple(self.sample_labels)
        rows = tuple(
            tuple(v if isinstance(v, Fraction) else as_rational(v) for v in row)
            for row in self.probs
        )
        object.__setattr__(self, "theta_labels", thetas)
        object.__setattr__(self, "sample_labels", samples)
        object.__setattr__(self, "probs", rows)
        if not thetas or not samples:
            raise ModelError("need at least one parameter and one sample point")
        for axis, labels in (("theta", thetas), ("sample", samples)):
            if isinstance(given[axis], str) or not all(isinstance(x, str) for x in labels):
                raise ModelError(f"{axis} labels must be a sequence of strings")
            # Only these labels read back as format_model writes them.
            text = " ".join(labels)
            if text.split() != list(labels) or "#" in text:
                bad = next(x for x in labels if x.split() != [x] or "#" in x)
                raise ModelError(f"{axis} label {bad!r} is empty or holds whitespace or '#'")
            # Marks only as format_event names a pushforward's blocks, {a,b}.
            if not _LABEL_MARKS.isdisjoint(text) and not all(map(_renders_back, labels)):
                bad = next(x for x in labels if not _renders_back(x))
                raise ModelError(f"{axis} label {bad!r} holds one of , | {{ }} "
                                 "outside an event {a,b}")
            if len(set(labels)) != len(labels):
                raise DuplicateLabel(f"duplicate {axis} label")
        if len(rows) != len(thetas) or any(len(r) != len(samples) for r in rows):
            raise ModelError("probability matrix shape does not match labels")
        scale = math.lcm(*(v.denominator for row in rows for v in row))
        scaled = tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows)
        for lab, row in zip(thetas, scaled):
            if any(v < 0 for v in row):
                raise NegativeProbability(f"negative probability under {lab}")
            if sum(row) != scale:
                raise RowSumError(f"row {lab} sums to {Fraction(sum(row), scale)}, not 1")
        for j, lab in enumerate(samples):
            if not any(row[j] for row in scaled):
                raise DeadSamplePoint(f"sample point {lab} has probability 0 everywhere")
        object.__setattr__(self, "scaled", scaled)

    @property
    def n_thetas(self) -> int:
        return len(self.theta_labels)

    @property
    def n_samples(self) -> int:
        return len(self.sample_labels)

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.probs)

    def event_prob(self, theta: int, event: Iterable[int]) -> Fraction:
        row = self.probs[theta]
        return sum((row[j] for j in event), Fraction(0))

    def sample_index(self, label: str) -> int:
        try:
            return self.sample_labels.index(label)
        except ValueError:
            raise UnknownSampleLabel(f"unknown sample label {label!r}") from None


@dataclass(frozen=True)
class InferenceBase:
    """A model together with the observed sample index."""

    model: FiniteModel
    observed: int

    def __post_init__(self):
        if not 0 <= self.observed < self.model.n_samples:
            raise UnknownSampleLabel(f"observed index {self.observed} out of range")

    @property
    def observed_label(self) -> str:
        return self.model.sample_labels[self.observed]


def example1_model(eps: Fraction | int | str) -> FiniteModel:
    """Built-in 2x7 model whose first four points carry an eps perturbation.

    Valid for 0 < eps < 1/64 (the smallest entry stays positive).
    """
    e = as_rational(eps)
    if not 0 < e < Fraction(1, 64):
        raise EpsilonOutOfRange(f"eps must lie strictly between 0 and 1/64, got {e}")
    f = Fraction
    row1 = (f(1, 8) + e, f(1, 8) - e, f(1, 8) + 2 * e, f(1, 8) - 2 * e,
            f(1, 14), f(2, 14), f(4, 14))
    row2 = (f(1, 16) - e, f(3, 16) + e, f(3, 16) + 4 * e, f(1, 16) - 4 * e,
            f(2, 14), f(1, 14), f(4, 14))
    return FiniteModel(
        ("theta1", "theta2"),
        tuple(str(i) for i in range(1, 8)),
        (row1, row2),
        "example1",
    )


def example2_model() -> FiniteModel:
    """Built-in 2x4 model with two crossing maximal ancillaries."""
    f = Fraction
    return FiniteModel(
        ("theta1", "theta2"),
        ("1", "2", "3", "4"),
        ((f(1, 6), f(1, 6), f(2, 6), f(2, 6)),
         (f(1, 12), f(3, 12), f(5, 12), f(3, 12))),
        "example2",
    )


def _check_statistic(model: FiniteModel, p: Partition) -> None:
    """Raise unless ``p`` is a partition of the model's sample points."""
    if not isinstance(p, Partition):
        raise ModelError(f"statistic must be a Partition, not {type(p).__name__}")
    if p.n != model.n_samples:
        raise GroundSetMismatch(f"partition over {p.n} points does not match model "
                                f"with {model.n_samples}")


def block_probabilities(model: FiniteModel, p: Partition) -> tuple[tuple[Fraction, ...], ...]:
    """Per-theta probabilities of the blocks of ``p`` (an m x k matrix)."""
    _check_statistic(model, p)
    return tuple(
        tuple(model.event_prob(t, b) for b in p.blocks)
        for t in range(model.n_thetas)
    )


def ancillary_distribution(model: FiniteModel, p: Partition) -> tuple[Fraction, ...] | None:
    """Block distribution of ``p`` when it is parameter-free, else None."""
    rows = block_probabilities(model, p)
    first = rows[0]
    if any(row != first for row in rows[1:]):
        return None
    return first


def condition_on_event(model: FiniteModel, event: Iterable[int]) -> FiniteModel:
    """Restrict to ``event`` and renormalize each row by its own event mass.

    Every theta must give the event positive probability.  A valid model
    has no point dead under every theta, so every point of the event is
    kept.
    """
    event = sorted(set(event))
    if any(j < 0 or j >= model.n_samples for j in event):
        raise UnknownSampleLabel("event contains an out-of-range sample index")
    masses = [model.event_prob(t, event) for t in range(model.n_thetas)]
    for lab, mass in zip(model.theta_labels, masses):
        if mass == 0:
            raise ZeroProbabilityEvent(f"event has probability 0 under {lab}")
    rows = tuple(
        tuple(model.probs[t][j] / masses[t] for j in event)
        for t in range(model.n_thetas)
    )
    return FiniteModel(
        model.theta_labels,
        tuple(model.sample_labels[j] for j in event),
        rows,
        f"{model.name}_cond",
    )


def validate_weights(
    weights: Sequence[Fraction | int | str], n_blocks: int
) -> tuple[Fraction, ...]:
    """Check a reweighting vector: one entry per block, >= 0, summing to 1."""
    if isinstance(weights, (str, bytes, bytearray)):  # "01" would split into 0 and 1
        raise InvalidWeights("weights must be a sequence, not one string")
    w = tuple(as_rational(v) for v in weights)
    if len(w) != n_blocks:
        raise WeightArityMismatch(f"{len(w)} weights for {n_blocks} blocks")
    if any(v < 0 for v in w):
        raise InvalidWeights("weights must be nonnegative")
    if sum(w) != _ONE:
        raise InvalidWeights(f"weights sum to {sum(w)}, not 1")
    return w


def mixture_model(
    model: FiniteModel,
    u: Partition,
    weights: Sequence[Fraction | int | str],
) -> FiniteModel:
    """Remix the model with new marginal weights on an ancillary statistic.

    Each point's probability is scaled by (new weight / current weight) of
    its block, which leaves the conditional model given each block intact.
    Blocks given weight 0 disappear.
    """
    dist = ancillary_distribution(model, u)
    if dist is None:
        raise NotAncillary("mixture weights can only replace an ancillary's distribution")
    w = validate_weights(weights, u.n_blocks)
    # Blocks of an ancillary are never dead in a valid model, so dist > 0.
    factor = [wi / qi for wi, qi in zip(w, dist)]
    kept = [j for j in range(model.n_samples) if w[u.block_of(j)] > 0]
    rows = tuple(
        tuple(model.probs[t][j] * factor[u.block_of(j)] for j in kept)
        for t in range(model.n_thetas)
    )
    return FiniteModel(
        model.theta_labels,
        tuple(model.sample_labels[j] for j in kept),
        rows,
        f"{model.name}_mix",
    )


# ---------------------------------------------------------------------------
# Text format
#
#   model <name>
#   thetas <label> ...
#   samples <label> ...
#   <theta-label> <a/b or integer> ...        (one line per theta, any order)
#
# '#' starts a comment; blank lines are ignored.  Tokens must be exact
# rationals; decimals are rejected.
# ---------------------------------------------------------------------------


def format_model(model: FiniteModel) -> str:
    """The model as text, which ``parse_model`` reads back to an equal model.

    Model text names points, so its labels hold none of ``,`` ``|`` ``{``
    ``}``.  The block names of a pushforward, such as ``{1,2}``, are model
    labels but not text labels: its text is written, and ``parse_model``
    rejects it with a ``ModelFormatError`` that names the first such label.
    """
    lines = [f"model {model.name}"]
    lines.append("thetas " + " ".join(model.theta_labels))
    lines.append("samples " + " ".join(model.sample_labels))
    for lab, row in zip(model.theta_labels, model.probs):
        lines.append(lab + " " + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> FiniteModel:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if len(lines) < 4:
        raise ModelFormatError("model text needs a header and at least one row")
    if lines[0].split()[0] != "model":
        raise ModelFormatError("first line must be 'model <name>'")
    name = lines[0][len("model"):].strip() or "model"
    head_t = lines[1].split()
    head_s = lines[2].split()
    if head_t[:1] != ["thetas"] or len(head_t) < 2:
        raise ModelFormatError("second line must be 'thetas <label> ...'")
    if head_s[:1] != ["samples"] or len(head_s) < 2:
        raise ModelFormatError("third line must be 'samples <label> ...'")
    thetas, samples = head_t[1:], head_s[1:]
    # The text names points: marks, as in {a,b}, name a pushforward's blocks.
    for lab in thetas + samples:
        if not _LABEL_MARKS.isdisjoint(lab):
            raise ModelFormatError(f"label {lab!r} contains one of , | {{ }}")
    rows: dict[str, list[Fraction]] = {}
    for line in lines[3:]:
        toks = line.split()
        lab = toks[0]
        if lab not in thetas:
            raise ModelFormatError(f"unknown theta label in row: {lab!r}")
        if lab in rows:
            raise ModelFormatError(f"duplicate row for theta {lab!r}")
        if len(toks) - 1 != len(samples):
            raise ModelFormatError(
                f"row {lab!r} has {len(toks) - 1} entries, expected {len(samples)}"
            )
        # One match checks the whole row; only a row that fails it is
        # scanned token by token, to name its first bad token.
        checked = _RATIONAL_ROW.fullmatch(line, len(lab))
        row = []
        for tok in toks[1:]:
            if not checked and not _RATIONAL_TOKEN.match(tok):
                raise ModelFormatError(f"not an exact rational token: {tok!r}")
            # The pattern has checked the syntax, so split it by hand rather
            # than have Fraction match the token a second time.
            num, _, den = tok.partition("/")
            den = int(den or 1)
            if not den:
                raise ModelFormatError(f"not a rational: {tok!r}")
            row.append(Fraction(int(num), den))
        rows[lab] = row
    missing = [lab for lab in thetas if lab not in rows]
    if missing:
        raise ModelFormatError(f"missing probability row for theta {missing[0]!r}")
    return FiniteModel(thetas, samples, [rows[lab] for lab in thetas], name)
