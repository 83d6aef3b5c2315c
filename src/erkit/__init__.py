"""Evidential-reasoning toolkit for multi-attribute decision analysis.

Belief-function primitives (discounting, Dempster-style combination, the
pignistic transform), three flat aggregation algorithms for weighted
distributed assessments, multi-level evaluation hierarchies, a decision
layer, model serialization, and a synthesis-axiom audit harness.  The
primitives (:mod:`erkit.dst`) are the independent oracle of the
aggregation kernel; the two share only the frame of grades
(:mod:`erkit.frame`).

The package exports its public names lazily (PEP 562): ``import erkit``
loads no submodule and not numpy.  ``from erkit import X``, ``erkit.X``
and ``erkit.<submodule>`` import the submodule that defines ``X`` on first
use, so code that needs only :mod:`erkit.dst` loads it, ``erkit.frame``
and ``erkit.errors`` and never the rest.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule and the public names it defines; ``__all__`` is read off this table.
_PUBLIC = {
    "algorithms": (
        "AGGREGATORS", "AggregationTrace", "Assessment", "CombinedAssessment", "TraceStep",
        "WeightedAssessment", "aggregate", "e2r_aggregate", "mer_aggregate", "oer_aggregate",
    ),
    "axioms": (
        "AXIOMS", "AxiomAuditEntry", "AxiomVerdict", "audit_axioms", "check_axiom",
        "generate_axiom_instance",
    ),
    "datasets": ("motorcycle_json", "motorcycle_model"),
    "decision": (
        "RankedResult", "UtilityFunction", "decide", "expected_utility", "rank",
        "redistribute_unknown",
    ),
    "dst": (
        "GeneralMassFunction", "MassFunction", "assessment_to_bba", "belief", "dempster_combine",
        "extended_dempster_combine", "generic_combine", "importance_discount", "normalize_ibba",
        "pignistic", "pignistic_probability", "plausibility", "reliability_discount",
        "reliability_importance_discount",
    ),
    "errors": (
        "AxiomInapplicableError", "CompleteConflictError", "DegenerateMassError", "ErkitError",
        "FrameMismatchError", "ModelFormatError", "ModelValidationError", "WeightSumError",
    ),
    "frame": ("GradeFrame",),
    "hierarchy": (
        "AssessmentTable", "AttributeNode", "BatchEvaluation", "Diagnostic", "EvaluationModel",
        "derive_reliabilities", "evaluate", "evaluate_batch", "validate",
    ),
    "modelio": (
        "ResultDocument", "load_model", "load_results", "result_from_evaluation", "save_model",
        "save_results",
    ),
}

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, or a submodule, imported on first use and kept in the package."""
    if name in _PUBLIC:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_PUBLIC})
