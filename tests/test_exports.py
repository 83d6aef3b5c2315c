"""The package's public names: which they are, where they come from, and what
``import erkit`` loads before any of them is used."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import erkit

PUBLIC = [
    "AGGREGATORS", "AXIOMS", "AggregationTrace", "Assessment", "AssessmentTable", "AttributeNode",
    "AxiomAuditEntry", "AxiomInapplicableError", "AxiomVerdict", "BatchEvaluation",
    "CombinedAssessment", "CompleteConflictError", "DegenerateMassError", "Diagnostic",
    "ErkitError", "EvaluationModel", "FrameMismatchError", "GeneralMassFunction", "GradeFrame",
    "MassFunction", "ModelFormatError", "ModelValidationError", "RankedResult", "ResultDocument",
    "TraceStep", "UtilityFunction", "WeightSumError", "WeightedAssessment", "aggregate",
    "assessment_to_bba", "audit_axioms", "belief", "check_axiom", "decide", "dempster_combine",
    "derive_reliabilities", "e2r_aggregate", "evaluate", "evaluate_batch", "expected_utility",
    "extended_dempster_combine", "generate_axiom_instance", "generic_combine",
    "importance_discount", "load_model", "load_results", "mer_aggregate", "motorcycle_json",
    "motorcycle_model", "normalize_ibba", "oer_aggregate", "pignistic", "pignistic_probability",
    "plausibility", "rank", "redistribute_unknown", "reliability_discount",
    "reliability_importance_discount", "result_from_evaluation", "save_model", "save_results",
    "validate",
]

SUBMODULES = [
    "algorithms", "axioms", "datasets", "decision", "dst", "errors", "frame", "hierarchy", "modelio",
]


def test_public_names_are_pinned():
    assert erkit.__all__ == PUBLIC
    # erkit.frame defines the frame; the oracle module keeps it importable by its old path
    assert erkit.dst.GradeFrame is erkit.GradeFrame


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_name_is_the_object_its_submodule_defines(module):
    submodule = importlib.import_module(f"erkit.{module}")
    names = erkit._PUBLIC[module]
    for name in names:
        value = getattr(erkit, name)
        assert value is getattr(submodule, name)
        assert getattr(value, "__module__", submodule.__name__) == submodule.__name__
    assert getattr(erkit, module) is submodule


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from erkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert set(PUBLIC) | set(SUBMODULES) <= set(dir(erkit))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        erkit.nope
    with pytest.raises(ImportError):
        exec("from erkit import nope", {})


def test_import_loads_no_submodule_and_not_numpy():
    """In a fresh interpreter, ``import erkit`` loads nothing else, and the
    belief-function primitives load only the three modules they need."""
    code = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('erkit.') or m == 'numpy')\n"
        "import erkit\n"
        "first = loaded()\n"
        "from erkit import GradeFrame, MassFunction\n"
        "print(json.dumps([first, loaded()]))\n"
    )
    src = str(Path(erkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert json.loads(result.stdout) == [[], ["erkit.dst", "erkit.errors", "erkit.frame"]]
