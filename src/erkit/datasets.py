"""Bundled datasets."""

from importlib import resources

from .hierarchy import EvaluationModel
from .modelio import load_model


def motorcycle_model() -> EvaluationModel:
    """The classic motorcycle performance assessment benchmark.

    Four motorcycles assessed on a three-level hierarchy of 19 basic
    attributes over a five-grade scale, each attribute annotated with an
    evaluation reliability and a sibling-normalized relative importance.
    """
    return load_model(motorcycle_json())


def motorcycle_json() -> str:
    """Raw JSON text of the motorcycle model document."""
    return resources.files(__package__).joinpath("data/motorcycle.json").read_text("utf-8")
