"""Evidential-reasoning toolkit for multi-attribute decision analysis.

Belief-function primitives (discounting, Dempster-style combination, the
pignistic transform), three flat aggregation algorithms for weighted
distributed assessments, multi-level evaluation hierarchies, a decision
layer, model serialization, and a synthesis-axiom audit harness.
"""

__version__ = "0.1.0"

from .algorithms import (
    AGGREGATORS,
    AggregationTrace,
    Assessment,
    CombinedAssessment,
    TraceStep,
    WeightedAssessment,
    aggregate,
    assessment_to_bba,
    e2r_aggregate,
    mer_aggregate,
    oer_aggregate,
)
from .axioms import (
    AXIOMS,
    AxiomAuditEntry,
    AxiomVerdict,
    audit_axioms,
    check_axiom,
    generate_axiom_instance,
)
from .datasets import motorcycle_json, motorcycle_model
from .decision import (
    RankedResult,
    UtilityFunction,
    decide,
    expected_utility,
    rank,
    redistribute_unknown,
)
from .dst import (
    GeneralMassFunction,
    GradeFrame,
    MassFunction,
    belief,
    dempster_combine,
    extended_dempster_combine,
    generic_combine,
    importance_discount,
    normalize_ibba,
    pignistic,
    pignistic_probability,
    plausibility,
    reliability_discount,
    reliability_importance_discount,
)
from .errors import (
    AxiomInapplicableError,
    CompleteConflictError,
    DegenerateMassError,
    ErkitError,
    FrameMismatchError,
    ModelFormatError,
    ModelValidationError,
    WeightSumError,
)
from .hierarchy import (
    AttributeNode,
    Diagnostic,
    EvaluationModel,
    derive_reliabilities,
    evaluate,
    validate,
)
from .modelio import (
    ResultDocument,
    load_model,
    load_results,
    result_from_evaluation,
    save_model,
    save_results,
)

__all__ = [
    "AGGREGATORS",
    "AXIOMS",
    "AggregationTrace",
    "Assessment",
    "AttributeNode",
    "AxiomAuditEntry",
    "AxiomInapplicableError",
    "AxiomVerdict",
    "CombinedAssessment",
    "CompleteConflictError",
    "DegenerateMassError",
    "Diagnostic",
    "ErkitError",
    "EvaluationModel",
    "FrameMismatchError",
    "GeneralMassFunction",
    "GradeFrame",
    "MassFunction",
    "ModelFormatError",
    "ModelValidationError",
    "RankedResult",
    "ResultDocument",
    "TraceStep",
    "UtilityFunction",
    "WeightSumError",
    "WeightedAssessment",
    "aggregate",
    "assessment_to_bba",
    "audit_axioms",
    "belief",
    "check_axiom",
    "decide",
    "dempster_combine",
    "derive_reliabilities",
    "e2r_aggregate",
    "evaluate",
    "expected_utility",
    "extended_dempster_combine",
    "generate_axiom_instance",
    "generic_combine",
    "importance_discount",
    "load_model",
    "load_results",
    "mer_aggregate",
    "motorcycle_json",
    "motorcycle_model",
    "normalize_ibba",
    "oer_aggregate",
    "pignistic",
    "pignistic_probability",
    "plausibility",
    "rank",
    "redistribute_unknown",
    "reliability_discount",
    "reliability_importance_discount",
    "result_from_evaluation",
    "save_model",
    "save_results",
    "validate",
]
