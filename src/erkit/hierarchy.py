"""Multi-level evaluation hierarchies and their bottom-up aggregation.

A model is a tree of attributes.  Leaves (basic attributes) carry one
distributed assessment per alternative; general attributes are evaluated
by aggregating their children with one of the flat schemes.  A node's own
reliability/importance/weight is applied exactly once: when its result (or
assessment) ascends into its parent's combination.  The combined result of
a general node, including its unassigned degree, is recycled as an
ordinary incomplete assessment one level up.

Evaluation runs on a :class:`CompiledModel`: the tree walked once,
iteratively, into a post-order plan of nodes and child positions, with
the (reliability, importance) pair of every node under each scheme.  The
plan folds each general node with the kernel of :mod:`erkit.algorithms`
(not through ``AGGREGATORS``).  :func:`evaluate_batch` folds every
alternative at once, each column an array over the alternatives;
:func:`evaluate` runs the same plan on one alternative's floats and keeps
the per-step traces.  Every kernel step is elementwise and its sums run in
a fixed order, so the two agree bit for bit.  Traversals are iterative:
tree depth is bounded by memory, not by the recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .algorithms import (
    AGGREGATORS,
    AggregationTrace,
    Assessment,
    CombinedAssessment,
    DEGREE_SUM_TOL,
    WEIGHT_SUM_TOL,
    _aggregate,
    _check_weight_sum,
)
from .decision import UtilityFunction
from .dst import GradeFrame
from .errors import ErkitError, FrameMismatchError


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
        stack = [(self.root.name, self.root)]
        while stack:
            path, node = stack.pop()
            yield path, node
            stack.extend((f"{path}/{c.name}", c) for c in reversed(node.children))


def _post_order(root: AttributeNode) -> list[tuple[str, AttributeNode, list[int]]]:
    """(path, node, child positions) for every node, children before parents.

    Children keep their order.  The traversal is iterative, so depth is
    bounded by memory, not by the interpreter's recursion limit.
    """
    pre = []
    stack = [(root.name, root, -1)]
    while stack:
        path, node, parent = stack.pop()
        stack.extend((f"{path}/{c.name}", c, len(pre)) for c in node.children)
        pre.append((path, node, parent))
    # Reversing a pre-order that visits the last child first gives the post-order.
    last = len(pre) - 1
    children: list[list[int]] = [[] for _ in pre]
    for position, (_, _, parent) in enumerate(reversed(pre)):
        if parent >= 0:
            children[last - parent].append(position)
    return [(path, node, kids) for (path, node, _), kids in zip(reversed(pre), children)]


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def derive_reliabilities(model: EvaluationModel, strict: bool = False) -> EvaluationModel:
    """Fill in missing general-node reliabilities as their children's mean.

    Works bottom-up, so a general node's reliability is the mean of its
    children's (possibly themselves derived) reliabilities.  Explicit
    values are kept; with ``strict`` they are additionally checked against
    the derived mean.  Idempotent.
    """

    derived: list[AttributeNode] = []
    for path, node, kids in _post_order(model.root):
        if node.is_basic:
            if node.reliability is None:
                raise ErkitError(f"basic attribute {path!r} has no reliability")
            derived.append(node)
            continue
        children = tuple(derived[i] for i in kids)
        mean = _mean([c.reliability for c in children])
        if node.reliability is None:
            derived.append(replace(node, children=children, reliability=mean))
            continue
        if strict and abs(node.reliability - mean) > 1e-6:
            raise ErkitError(
                f"node {path!r} declares reliability {node.reliability} "
                f"but its children average {mean}"
            )
        derived.append(replace(node, children=children))
    return replace(model, root=derived[-1])


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


def _factors(node: AttributeNode, algorithm: str, path: str) -> tuple[float, float]:
    """The (reliability α, importance β) a node brings into its parent's combination.

    ``e2r`` reads the reliability and the importance; ``oer`` folds the
    weight as a reliability, (weight, 1), and ``mer`` as an importance,
    (1, weight), the weight falling back to the reliability (``oer``) or
    the importance (``mer``).
    """
    if algorithm == "e2r":
        for name in ("reliability", "importance"):
            if getattr(node, name) is None:
                raise ErkitError(f"node {path!r} has no {name}")
        factors = (node.reliability, node.importance)
    else:
        kind = "reliability" if algorithm == "oer" else "importance"
        weight = node.weight if node.weight is not None else getattr(node, kind)
        if weight is None:
            raise ErkitError(f"node {path!r} has neither weight nor {kind}")
        factors = (weight, 1.0) if algorithm == "oer" else (1.0, weight)
    for value in factors:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"node {path!r}: factor {value!r} outside [0, 1]")
    return factors


class CompiledModel:
    """A model compiled for evaluation: every node once, children before parents.

    ``paths[i]`` and ``nodes[i]`` name the i-th node of the post-order and
    ``children[i]`` the positions of its children (empty for a basic
    attribute), so the root comes last.  Compile a model once to fold it
    under several schemes; the leaf columns over all alternatives are
    gathered on first use by :func:`evaluate_batch` and kept.
    """

    def __init__(self, model: EvaluationModel):
        self.model = model
        order = _post_order(model.root)
        self.paths = tuple(path for path, _, _ in order)
        self.nodes = tuple(node for _, node, _ in order)
        self.children = tuple(tuple(kids) for _, _, kids in order)

    def factors(self, algorithm: str) -> list[tuple[float, float] | None]:
        """(α, β) of every node as a child under ``algorithm``; ``None`` for the root."""
        last = len(self.nodes) - 1
        return [
            _factors(node, algorithm, path) if i < last else None
            for i, (path, node) in enumerate(zip(self.paths, self.nodes))
        ]

    def leaf(self, position: int, alternative: str) -> Assessment:
        """The assessment of the basic attribute at ``position`` for one alternative."""
        path = self.paths[position]
        try:
            assessment = self.nodes[position].assessments[alternative]
        except KeyError:
            raise ErkitError(
                f"basic attribute {path!r} has no assessment for {alternative!r}"
            ) from None
        if assessment.frame is not self.model.frame and assessment.frame != self.model.frame:
            raise FrameMismatchError(
                f"basic attribute {path!r}: assessment for {alternative!r} uses a different frame"
            )
        return assessment

    @cached_property
    def leaf_columns(self) -> dict[int, tuple[list[np.ndarray], np.ndarray]]:
        """Per basic attribute: one array over alternatives per grade, and the unassigned array."""
        alternatives = self.model.alternatives
        out = {}
        for i, kids in enumerate(self.children):
            if kids:
                continue
            leaves = [self.leaf(i, alt) for alt in alternatives]
            degrees = np.array([a.degrees for a in leaves], dtype=float).T.copy()
            out[i] = list(degrees), np.array([a.unassigned for a in leaves], dtype=float)
        return out


def _compiled(model: EvaluationModel | CompiledModel, algorithm: str) -> CompiledModel:
    if algorithm not in AGGREGATORS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {tuple(AGGREGATORS)}")
    return model if isinstance(model, CompiledModel) else CompiledModel(model)


def _fold(plan: CompiledModel, algorithm: str, alternatives, leaf_columns, with_trace: bool):
    """Fold every general node once, children before parents.

    ``leaf_columns(i)`` gives the (assigned columns, unassigned column) of
    the basic attribute at position ``i``: floats for one alternative or
    arrays over ``alternatives``.  Aggregation failures are re-raised with
    the node path, and with the first alternative that met them, so a deep
    tree or a long list of alternatives does not hide which combination
    went wrong.
    """
    factors = plan.factors(algorithm)
    columns = []
    traces = {}
    for i, kids in enumerate(plan.children):
        if not kids:
            columns.append(leaf_columns(i))
            continue
        path = plan.paths[i]
        try:
            if algorithm == "mer":
                _check_weight_sum([factors[j][1] for j in kids])
            assigned, unassigned, steps = _aggregate(
                [columns[j][0] for j in kids], [factors[j] for j in kids], with_trace
            )
        except ErkitError as exc:
            flagged = getattr(exc, "flagged", None)
            where = f"at node {path!r}"
            if flagged is not None:
                where += f" for alternative {alternatives[int(np.flatnonzero(flagged)[0])]!r}"
            raise type(exc)(f"{where}: {exc}") from exc
        columns.append((assigned, unassigned))
        if with_trace:
            traces[path] = AggregationTrace(tuple(steps))
    return columns, traces


def evaluate(
    model: EvaluationModel | CompiledModel,
    algorithm: str,
    alternative: str,
    with_trace: bool = False,
):
    """Evaluate one alternative bottom-up; returns a result for every node.

    The compiled plan of :func:`evaluate_batch` run on one alternative's
    float columns, so its results equal the batch's bit for bit.  With
    ``with_trace`` the per-step aggregation masses of every general node
    are returned alongside, keyed by node path.
    """
    plan = _compiled(model, algorithm)
    frame = plan.model.frame
    if alternative not in plan.model.alternatives:
        raise ValueError(f"unknown alternative {alternative!r}")

    def leaf_columns(i):
        assessment = plan.leaf(i, alternative)
        return assessment.degrees, assessment.unassigned

    columns, traces = _fold(plan, algorithm, (alternative,), leaf_columns, with_trace)
    results = {
        path: CombinedAssessment(frame, tuple(assigned), unassigned)
        for path, (assigned, unassigned) in zip(plan.paths, columns)
    }
    if with_trace:
        return results, traces
    return results


@dataclass(frozen=True, eq=False)
class BatchEvaluation:
    """Every node's combined assessment for every alternative under one scheme.

    ``assigned`` is a (nodes × alternatives × grades) array and
    ``unassigned`` a (nodes × alternatives) array; nodes follow ``paths``
    (post-order, root last) and alternatives the model's order.
    """

    algorithm: str
    frame: GradeFrame
    alternatives: tuple[str, ...]
    paths: tuple[str, ...]
    assigned: np.ndarray
    unassigned: np.ndarray

    def roots(self) -> dict[str, CombinedAssessment]:
        """The root's combined assessment per alternative."""
        rows = self.assigned[-1].tolist()
        return {
            alt: CombinedAssessment(self.frame, tuple(row), u)
            for alt, row, u in zip(self.alternatives, rows, self.unassigned[-1].tolist())
        }


def evaluate_batch(model: EvaluationModel | CompiledModel, algorithm: str) -> BatchEvaluation:
    """Evaluate every alternative at once, folding each general node once.

    Each column of the kernel is an array over the alternatives, so the
    results equal :func:`evaluate`'s bit for bit.  Every node's degrees
    must lie in [0, 1] and sum to 1, within the tolerance
    :class:`~erkit.algorithms.CombinedAssessment` applies.
    """
    plan = _compiled(model, algorithm)
    alternatives = plan.model.alternatives
    columns, _ = _fold(plan, algorithm, alternatives, plan.leaf_columns.__getitem__, False)
    assigned = np.array([a for a, _ in columns]).transpose(0, 2, 1)
    unassigned = np.array([u for _, u in columns])
    lo, hi = -DEGREE_SUM_TOL, 1.0 + DEGREE_SUM_TOL
    ok = ((assigned >= lo) & (assigned <= hi)).all(axis=2) & (unassigned >= lo) & (unassigned <= hi)
    ok &= np.abs(assigned.sum(axis=2) + unassigned - 1.0) <= DEGREE_SUM_TOL
    if not ok.all():
        node, alt = np.argwhere(~ok)[0]
        raise ValueError(
            f"node {plan.paths[node]!r}, alternative {alternatives[alt]!r}: combined degrees "
            "outside [0, 1] or not summing to 1"
        )
    return BatchEvaluation(algorithm, plan.model.frame, alternatives, plan.paths, assigned, unassigned)
