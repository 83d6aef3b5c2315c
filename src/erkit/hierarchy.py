"""Multi-level evaluation hierarchies and their bottom-up aggregation.

A model is a tree of attributes.  Leaves (basic attributes) carry one
distributed assessment per alternative; general attributes are evaluated
by aggregating their children with one of the flat schemes.  A node's own
reliability/importance/weight is applied exactly once: when its result (or
assessment) ascends into its parent's combination.  The combined result of
a general node, including its unassigned degree, is recycled as an
ordinary incomplete assessment one level up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Sequence

from .algorithms import (
    AGGREGATORS,
    Assessment,
    CombinedAssessment,
    DEGREE_SUM_TOL,
    WEIGHT_SUM_TOL,
    WeightedAssessment,
)
from .decision import UtilityFunction
from .dst import GradeFrame
from .errors import ErkitError


@dataclass(frozen=True)
class AttributeNode:
    """One attribute in the evaluation hierarchy.

    A node with no children is a basic attribute and must carry an
    assessment for every alternative declared by the model.  ``weight``
    optionally overrides the factor used by the single-factor schemes,
    which otherwise default to the reliability (reliability-interpreted
    weights) or the importance (importance-interpreted weights).
    """

    name: str
    children: tuple["AttributeNode", ...] = ()
    reliability: float | None = None
    importance: float | None = None
    weight: float | None = None
    assessments: Mapping[str, Assessment] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "assessments", dict(self.assessments))

    @property
    def is_basic(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding, anchored to a node path."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class EvaluationModel:
    """A frame, the alternatives under evaluation, and the attribute tree."""

    frame: GradeFrame
    alternatives: tuple[str, ...]
    root: AttributeNode
    utility: UtilityFunction | None = None

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        if not self.alternatives:
            raise ValueError("a model needs at least one alternative")
        if len(set(self.alternatives)) != len(self.alternatives):
            raise ValueError("alternative ids must be unique")

    def walk(self) -> Iterator[tuple[str, AttributeNode]]:
        """Depth-first traversal yielding (path, node), parents first."""

        def visit(node: AttributeNode, path: str):
            yield path, node
            for child in node.children:
                yield from visit(child, f"{path}/{child.name}")

        yield from visit(self.root, self.root.name)


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def derive_reliabilities(model: EvaluationModel, strict: bool = False) -> EvaluationModel:
    """Fill in missing general-node reliabilities as their children's mean.

    Works bottom-up, so a general node's reliability is the mean of its
    children's (possibly themselves derived) reliabilities.  Explicit
    values are kept; with ``strict`` they are additionally checked against
    the derived mean.  Idempotent.
    """

    def derive(node: AttributeNode, path: str) -> AttributeNode:
        if node.is_basic:
            if node.reliability is None:
                raise ErkitError(f"basic attribute {path!r} has no reliability")
            return node
        children = tuple(derive(c, f"{path}/{c.name}") for c in node.children)
        mean = _mean([c.reliability for c in children])
        if node.reliability is None:
            return replace(node, children=children, reliability=mean)
        if strict and abs(node.reliability - mean) > 1e-6:
            raise ErkitError(
                f"node {path!r} declares reliability {node.reliability} "
                f"but its children average {mean}"
            )
        return replace(node, children=children)

    return replace(model, root=derive(model.root, model.root.name))


def validate(model: EvaluationModel) -> list[Diagnostic]:
    """Collect every structural problem in the model; empty means well-formed."""
    problems: list[Diagnostic] = []
    for path, node in model.walk():
        for name in ("reliability", "importance", "weight"):
            value = getattr(node, name)
            if value is not None and not 0.0 <= value <= 1.0:
                problems.append(Diagnostic(path, f"{name} {value} outside [0, 1]"))
        if node.is_basic:
            if node.reliability is None:
                problems.append(Diagnostic(path, "basic attribute lacks a reliability"))
            missing = [a for a in model.alternatives if a not in node.assessments]
            if missing:
                problems.append(Diagnostic(path, f"missing assessments for {missing}"))
            undeclared = [a for a in node.assessments if a not in model.alternatives]
            if undeclared:
                problems.append(
                    Diagnostic(path, f"assessments for undeclared alternatives {undeclared}")
                )
            for alt, assessment in node.assessments.items():
                if assessment.frame != model.frame:
                    problems.append(
                        Diagnostic(path, f"assessment for {alt!r} uses a different frame")
                    )
                    continue
                total = math.fsum(assessment.degrees)
                if total > 1.0 + DEGREE_SUM_TOL:
                    problems.append(
                        Diagnostic(path, f"belief degrees for {alt!r} sum to {total}")
                    )
        else:
            if node.assessments:
                problems.append(Diagnostic(path, "general attribute carries assessments"))
            names = [c.name for c in node.children]
            if len(set(names)) != len(names):
                problems.append(Diagnostic(path, "children have duplicate names"))
            importances = [c.importance for c in node.children]
            if any(v is None for v in importances):
                nameless = [c.name for c, v in zip(node.children, importances) if v is None]
                problems.append(Diagnostic(path, f"children lack importances: {nameless}"))
            else:
                total = math.fsum(importances)
                if abs(total - 1.0) > WEIGHT_SUM_TOL:
                    problems.append(
                        Diagnostic(path, f"children's importances sum to {total}, expected 1")
                    )
    if model.utility is not None and model.utility.frame != model.frame:
        problems.append(Diagnostic(model.root.name, "utility function uses a different frame"))
    return problems


def _factors(node: AttributeNode, algorithm: str, path: str) -> dict[str, float]:
    """Factors a node brings into its parent's combination, by keyword.

    ``e2r`` reads the reliability and the importance; the single-factor
    schemes read ``weight``, falling back to the reliability (``oer``) or
    the importance (``mer``).
    """
    if algorithm == "e2r":
        factors = {"reliability": node.reliability, "importance": node.importance}
    else:
        kind = "reliability" if algorithm == "oer" else "importance"
        factors = {"weight": node.weight if node.weight is not None else getattr(node, kind)}
    for name, value in factors.items():
        if value is None:
            lacks = f"neither weight nor {kind}" if name == "weight" else f"no {name}"
            raise ErkitError(f"node {path!r} has {lacks}")
    return factors


def evaluate(
    model: EvaluationModel,
    algorithm: str,
    alternative: str,
    with_trace: bool = False,
):
    """Evaluate one alternative bottom-up; returns a result for every node.

    With ``with_trace`` the per-step aggregation masses of every general
    node are returned alongside, keyed by node path.  Aggregation failures
    are re-raised with the offending node path so a deep tree does not hide
    which combination went wrong.
    """
    if algorithm not in AGGREGATORS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {tuple(AGGREGATORS)}")
    if alternative not in model.alternatives:
        raise ValueError(f"unknown alternative {alternative!r}")
    aggregate = AGGREGATORS[algorithm]
    results: dict[str, CombinedAssessment] = {}
    traces: dict[str, object] = {}

    def visit(node: AttributeNode, path: str) -> CombinedAssessment:
        if node.is_basic:
            try:
                assessment = node.assessments[alternative]
            except KeyError:
                raise ErkitError(
                    f"basic attribute {path!r} has no assessment for {alternative!r}"
                ) from None
            combined = CombinedAssessment(
                assessment.frame, assessment.degrees, assessment.unassigned
            )
        else:
            items = []
            for child in node.children:
                child_path = f"{path}/{child.name}"
                child_result = visit(child, child_path)
                factors = _factors(child, algorithm, child_path)
                items.append(WeightedAssessment(child_result.to_assessment(), **factors))
            try:
                if with_trace:
                    combined, traces[path] = aggregate(items, with_trace=True)
                else:
                    combined = aggregate(items)
            except ErkitError as exc:
                raise type(exc)(f"at node {path!r}: {exc}") from exc
        results[path] = combined
        return combined

    visit(model.root, model.root.name)
    if with_trace:
        return results, traces
    return results
