"""Exact ancillarity structure and evidence analysis of finite discrete models.

Everything computes with exact rationals (``fractions.Fraction``):
ancillarity is an equality predicate, so floating point has no place on
the analysis path.
"""

from .ancillary import (
    AncillaryClassification,
    InstabilityWitness,
    algebra_generated_by,
    ancillaries,
    ancillary_events,
    classify,
    conditional_mle_table,
    gamma0,
    instability_witness,
    is_ancillary,
    is_stable,
    is_strong,
    laminal,
    maximal_ancillaries,
    minimal_ancillaries,
    mle,
    mle_ties,
)
from .errors import (
    DeadSamplePoint,
    DuplicateLabel,
    EmptyInput,
    EpsilonOutOfRange,
    GroundSetMismatch,
    InternalCheckError,
    InvalidWeights,
    LaminalError,
    ModelError,
    ModelFormatError,
    NegativeProbability,
    NotAncillary,
    NotSCEquivalent,
    RowSumError,
    SizeCapExceeded,
    ThetaSpaceMismatch,
    UnknownSampleLabel,
    WeightArityMismatch,
    ZeroProbabilityEvent,
)
from .evidence import (
    RelationAuditReport,
    audit_relation,
    conditional_bases_s_equivalent,
    content_hash,
    ev_sc,
    ev_sc_idempotent,
    is_ms_reduced,
    maximal_conditionals,
    sc_equivalent,
)
from .model import (
    FiniteModel,
    InferenceBase,
    ancillary_distribution,
    block_probabilities,
    condition_on_event,
    example1_model,
    example2_model,
    format_model,
    mixture_model,
    parse_model,
    validate_weights,
)
from .partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    enumerate_partitions,
    format_event,
    format_partition,
    is_coarsening,
    join,
    meet,
    parse_partition,
)
from .sufficiency import (
    EvidenceBase,
    Obstruction,
    Relabeling,
    column_signature,
    ev_ms,
    match_reductions,
    model_of_statistic,
    mss_partition,
    s_equivalent,
)

__version__ = "0.1.0"
