"""Multi-level evaluation hierarchies and their bottom-up aggregation.

A model is a tree of attributes.  Leaves (basic attributes) carry one
distributed assessment per alternative; general attributes are evaluated
by aggregating their children with one of the flat schemes.  A node's own
reliability/importance/weight is applied exactly once: when its result (or
assessment) ascends into its parent's combination.  The combined result of
a general node, including its unassigned degree, is recycled as an
ordinary incomplete assessment one level up.

A node's assessments are an :class:`AssessmentTable`: read-only arrays of
belief degrees and unassigned degrees, one row per alternative, over one
frame, read as alternative -> :class:`~erkit.algorithms.Assessment` on
access.  A loaded model's tables are views of one buffer's rows; any other
mapping of assessments is converted when the node is built.  A model
without a utility function gets evenly spaced utilities.  :func:`validate`
reports every structural problem of a model; among them, a node name
that is empty or holds ``/`` (the path separator), a grade named
:data:`UNASSIGNED`, the name every report gives the unassigned degree,
and a node name, grade or alternative that does not encode as UTF-8, so
a model it accepts saves and loads back.

Evaluation runs on a model's :attr:`~EvaluationModel.plan`, compiled on
first use: the tree walked once, iteratively, into a post-order of nodes
and child positions, and every node's reliability; it holds nothing per
scheme.  Compiling runs :func:`validate`, the one model check on the
evaluation path, and takes an omitted general-node reliability as its
children's mean, which :func:`derive_reliabilities` writes into the tree.
Its leaf columns are the tables' arrays as (grades × alternatives) blocks,
in the model's order of alternatives by one index array per leaf.  Each general node is folded by
the kernel of :mod:`erkit.algorithms` (not through ``AGGREGATORS``), its
children's (α, β) read by the rule the flat aggregators use, mer's
unit-sum check included.  :func:`evaluate_batch` folds every alternative
at once, each node's degrees a (grades × alternatives) block, and can keep
the per-step traces; :func:`evaluate` is the same fold on one
alternative's column.  Every kernel step is elementwise and its sums run
in a fixed order, so the two agree bit for bit.  Traversals are iterative:
tree depth is bounded by memory, not by the recursion limit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .algorithms import (
    AggregationTrace,
    Assessment,
    CombinedAssessment,
    DEGREE_SUM_TOL,
    WEIGHT_SUM_TOL,
    _aggregate,
    _factor_pairs,
    _fields_equal,
    _scheme,
)
from .decision import UtilityFunction
from .errors import ErkitError, FrameMismatchError, ModelValidationError
from .frame import GradeFrame

#: The name every report gives the unassigned degree's column; no grade may take it.
UNASSIGNED = "Unknown"


def _encodes(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8; a JSON escape can give a lone surrogate, which does not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# The name rules JSON sets, worded once for validate and for the loaders.
def _name_fault(name) -> str | None:
    """What a model file cannot hold in a node name; ``None`` if nothing."""
    if not isinstance(name, str) or not name:
        return "node name must be a non-empty string"
    if not _encodes(name):
        return f"node name {name!r} does not encode as UTF-8"
    return None


def _strings_fault(key: str, values) -> str | None:
    """The fault of a list of names of which one does not encode as UTF-8; ``None`` if all do."""
    return None if _encodes("".join(values)) else f"{key} holds a string that does not encode as UTF-8"


class AssessmentTable(Mapping[str, Assessment]):
    """One attribute's assessments, alternative -> :class:`~erkit.algorithms.Assessment`,
    held as arrays over one frame.

    ``names`` lists the alternatives in the order they were given and
    ``rows`` maps each to its row of ``degrees`` (alternatives × grades) and
    of ``unassigned``; the table holds the two arrays as given, and they are
    made read-only.  An ``Assessment`` is built only when one is looked up.
    ``frame`` is ``None`` for an empty table.  Equality compares the arrays,
    whatever the order of the alternatives.
    """

    def __init__(
        self, frame: GradeFrame | None, names: tuple[str, ...], degrees: np.ndarray, unassigned: np.ndarray
    ):
        degrees.setflags(write=False)
        unassigned.setflags(write=False)
        self.frame = frame
        self.names = names
        self.degrees = degrees
        self.unassigned = unassigned

    @classmethod
    def of(cls, assessments: Mapping[str, Assessment]) -> "AssessmentTable":
        """A table of the given assessments, which must share one frame."""
        if not assessments:
            return _EMPTY
        names, items = tuple(assessments), tuple(assessments.values())
        frame = items[0].frame
        for name, item in zip(names, items):
            if item.frame != frame:
                raise FrameMismatchError(
                    f"assessments for {names[0]!r} and {name!r} use different frames"
                )
        return cls(
            frame,
            names,
            np.array([a.degrees for a in items], dtype=float),
            np.array([a.unassigned for a in items], dtype=float),
        )

    @cached_property
    def rows(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def __getitem__(self, alternative: str) -> Assessment:
        return Assessment(self.frame, tuple(self.degrees[self.rows[alternative]].tolist()))

    def __contains__(self, alternative) -> bool:
        return alternative in self.rows

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, AssessmentTable):
            return super().__eq__(other)
        if self.names == other.names:
            order = slice(None)
        elif self.rows.keys() == other.rows.keys():
            order = [other.rows[name] for name in self.names]
        else:
            return False
        return not self or (
            self.frame == other.frame
            and np.array_equal(self.degrees, other.degrees[order])
            and np.array_equal(self.unassigned, other.unassigned[order])
        )

    def __repr__(self):
        return repr(dict(self.items()))


_EMPTY = AssessmentTable(None, (), np.zeros((0, 0)), np.zeros(0))


@dataclass(frozen=True, eq=False)  # nodes hold a mapping, so they stay unhashable
class AttributeNode:
    """One attribute in the evaluation hierarchy.

    A node with no children is a basic attribute and must carry an
    assessment for every alternative declared by the model.  ``weight``
    optionally overrides the factor used by the single-factor schemes,
    which otherwise default to the reliability (reliability-interpreted
    weights) or the importance (importance-interpreted weights).
    ``assessments`` may be any mapping of assessments over one frame; it is
    kept as an :class:`AssessmentTable`.
    """

    name: str
    children: tuple["AttributeNode", ...] = ()
    reliability: float | None = None
    importance: float | None = None
    weight: float | None = None
    assessments: Mapping[str, Assessment] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not isinstance(self.assessments, AssessmentTable):
            object.__setattr__(self, "assessments", AssessmentTable.of(self.assessments))

    def __eq__(self, other):
        """Field-wise equality, node by node along one iterative traversal."""
        if type(other) is not type(self):
            return NotImplemented
        fields = ("name", "reliability", "importance", "weight", "assessments")
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or len(a.children) != len(b.children):
                return False
            if any(getattr(a, f) != getattr(b, f) for f in fields):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __repr__(self):
        """The dataclass repr, written along one iterative traversal."""
        parts = []
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
                continue
            parts.append(f"{type(node).__qualname__}(name={node.name!r}, children=(")
            stack.append(
                ("," if len(node.children) == 1 else "")
                + f"), reliability={node.reliability!r}, importance={node.importance!r}, "
                f"weight={node.weight!r}, assessments={node.assessments!r})"
            )
            for i, child in enumerate(reversed(node.children)):
                stack.extend((", ", child) if i else (child,))
        return "".join(parts)

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
    """A frame, the alternatives under evaluation, the attribute tree, and the
    utility of each grade; without a ``utility`` the grades get evenly spaced
    utilities."""

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
        if self.utility is None:
            object.__setattr__(self, "utility", UtilityFunction.evenly_spaced(self.frame))

    def walk(self) -> Iterator[tuple[str, AttributeNode]]:
        """Depth-first traversal yielding (path, node), parents first."""
        stack = [(self.root.name, self.root)]
        while stack:
            path, node = stack.pop()
            yield path, node
            stack.extend((f"{path}/{c.name}", c) for c in reversed(node.children))

    @cached_property
    def plan(self) -> "CompiledModel":
        """The model compiled for evaluation, built on first use and kept; a model
        :func:`validate` refuses raises :class:`~erkit.errors.ModelValidationError`.

        The plan holds the tree, not the model, so the two are freed together.
        """
        return CompiledModel(self)


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def derive_reliabilities(model: EvaluationModel, strict: bool = False) -> EvaluationModel:
    """The model with every general-node reliability its plan evaluates with.

    A missing one is the mean of its children's (possibly themselves
    derived) reliabilities.  Explicit values are kept; with ``strict`` they
    are additionally checked against that mean.  Idempotent.
    """
    plan = model.plan
    derived: list[AttributeNode] = []
    for path, node, kids, reliability in zip(plan.paths, plan.nodes, plan.children, plan.reliabilities):
        if not kids:
            derived.append(node)
            continue
        if strict and node.reliability is not None:
            mean = _mean([plan.reliabilities[j] for j in kids])
            if abs(node.reliability - mean) > 1e-6:
                raise ErkitError(
                    f"node {path!r} declares reliability {node.reliability} "
                    f"but its children average {mean}"
                )
        derived.append(replace(node, children=tuple(derived[j] for j in kids), reliability=reliability))
    return replace(model, root=derived[-1])


def validate(model: EvaluationModel) -> list[Diagnostic]:
    """Collect every structural problem in the model; empty means well-formed."""
    problems: list[Diagnostic] = []
    if UNASSIGNED in model.frame.grades:
        problems.append(
            Diagnostic(model.root.name, f"grade name {UNASSIGNED!r} is reserved for the unassigned degree")
        )
    # Names become JSON text, so each must be one load_model takes.
    for name, values in (("frame", model.frame.grades), ("alternatives", model.alternatives)):
        if fault := _strings_fault(name, values):
            problems.append(Diagnostic(model.root.name, fault))
    declared = set(model.alternatives)
    for path, node in model.walk():
        if fault := _name_fault(node.name):
            problems.append(Diagnostic(path, fault))
        if isinstance(node.name, str) and "/" in node.name:
            problems.append(Diagnostic(path, "node name contains '/', the path separator"))
        for name in ("reliability", "importance", "weight"):
            value = getattr(node, name)
            if value is not None and not 0.0 <= value <= 1.0:
                problems.append(Diagnostic(path, f"{name} {value} outside [0, 1]"))
        if node.is_basic:
            if node.reliability is None:
                problems.append(Diagnostic(path, "basic attribute lacks a reliability"))
            table = node.assessments
            if table.names != model.alternatives:
                missing = [a for a in model.alternatives if a not in table.rows]
                if missing:
                    problems.append(Diagnostic(path, f"missing assessments for {missing}"))
                undeclared = [a for a in table.names if a not in declared]
                if undeclared:
                    problems.append(
                        Diagnostic(path, f"assessments for undeclared alternatives {undeclared}")
                    )
            if table and table.frame != model.frame:
                problems.extend(
                    Diagnostic(path, f"assessment for {alt!r} uses a different frame")
                    for alt in table.names
                )
        else:
            if node.assessments:
                problems.append(Diagnostic(path, "general attribute carries assessments"))
            repeated = [name for name, count in Counter(c.name for c in node.children).items() if count > 1]
            if repeated:
                problems.append(Diagnostic(path, f"children have duplicate names: {repeated}"))
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
    if model.utility.frame != model.frame:
        problems.append(Diagnostic(model.root.name, "utility function uses a different frame"))
    return problems


class CompiledModel:
    """A model compiled for evaluation: every node once, children before parents.

    ``paths[i]`` and ``nodes[i]`` name the i-th node of the post-order and
    ``children[i]`` the positions of its children (empty for a basic
    attribute), so the root comes last; ``reliabilities[i]`` is its own
    reliability or, if a general node omits it, its children's mean.  Only
    a model :func:`validate` accepts compiles, one per model, for every
    scheme, no field depending on one; the leaf columns over all
    alternatives are gathered on first use and kept.
    """

    def __init__(self, model: EvaluationModel):
        problems = validate(model)
        if problems:
            raise ModelValidationError(problems)
        self.alternatives = model.alternatives
        # Children keep their order.  The traversal is iterative, so depth is
        # bounded by memory, not by the interpreter's recursion limit.
        pre = []
        stack = [(model.root.name, model.root, -1)]
        while stack:
            path, node, parent = stack.pop()
            stack.extend((f"{path}/{c.name}", c, len(pre)) for c in node.children)
            pre.append((path, node, parent))
        # Reversing a pre-order that visits the last child first gives the post-order.
        pre.reverse()
        last = len(pre) - 1
        children: list[list[int]] = [[] for _ in pre]
        reliabilities: list[float] = []
        for position, (_, node, parent) in enumerate(pre):
            if parent >= 0:
                children[last - parent].append(position)
            own, kids = node.reliability, children[position]  # its children all came before it
            reliabilities.append(own if own is not None else _mean([reliabilities[j] for j in kids]))
        self.paths = tuple(path for path, _, _ in pre)
        self.nodes = tuple(node for _, node, _ in pre)
        self.children = tuple(map(tuple, children))
        self.reliabilities = tuple(reliabilities)

    @cached_property
    def leaf_columns(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per basic attribute: its (grades × alternatives) block of degrees, and the unassigned array."""
        alternatives = self.alternatives
        out = {}
        for i, kids in enumerate(self.children):
            if kids:
                continue
            table = self.nodes[i].assessments
            # One index array puts the table's rows in the model's order of alternatives.
            order = slice(None) if table.names == alternatives else list(map(table.rows.get, alternatives))
            out[i] = table.degrees[order].T.copy(), table.unassigned[order]
        return out


def _fold(plan: CompiledModel, algorithm: str, columns: slice, with_trace: bool):
    """Fold every general node once, children before parents, on the
    alternatives ``columns`` selects from the plan's leaf columns.

    Each node's degrees are a (grades × alternatives) block.  Aggregation
    failures are re-raised with the node path, and with the first
    alternative that met them, so a deep tree or a long list of
    alternatives does not hide which combination went wrong.
    """
    _scheme(algorithm)
    nodes, reliabilities, leaves = plan.nodes, plan.reliabilities, plan.leaf_columns
    results = []
    traces = {} if with_trace else None
    for i, kids in enumerate(plan.children):
        if not kids:
            assigned, unassigned = leaves[i]
            results.append((assigned[:, columns], unassigned[columns]))
            continue
        path = plan.paths[i]
        try:
            factors = _factor_pairs(
                algorithm, [(nodes[j].weight, reliabilities[j], nodes[j].importance) for j in kids]
            )
            assigned, unassigned, steps = _aggregate([results[j][0] for j in kids], factors, with_trace)
        except ErkitError as exc:
            flagged = getattr(exc, "flagged", None)
            where = f"at node {path!r}"
            if flagged is not None:
                alternative = plan.alternatives[columns][int(np.flatnonzero(flagged)[0])]
                where += f" for alternative {alternative!r}"
            raise type(exc)(f"{where}: {exc}") from exc
        results.append((assigned, unassigned))
        if with_trace:
            traces[path] = AggregationTrace(tuple(steps))
    return results, traces


def evaluate(
    model: EvaluationModel, algorithm: str, alternative: str
) -> dict[str, CombinedAssessment]:
    """Evaluate one alternative bottom-up; returns a result for every node, keyed by path.

    The fold of :func:`evaluate_batch` on that alternative's column alone,
    so its results equal the batch's bit for bit, and a failure of another
    alternative does not reach it.
    """
    plan = model.plan
    if alternative not in model.alternatives:
        raise ValueError(f"unknown alternative {alternative!r}")
    j = model.alternatives.index(alternative)
    results, _ = _fold(plan, algorithm, slice(j, j + 1), False)
    return {
        path: CombinedAssessment(
            model.frame, tuple(assigned[:, 0].tolist()), unassigned.item()
        )
        for path, (assigned, unassigned) in zip(plan.paths, results)
    }


@dataclass(frozen=True, eq=False)
class BatchEvaluation:
    """Every node's combined assessment for every alternative under one scheme.

    ``assigned`` is a (nodes × alternatives × grades) array and
    ``unassigned`` a (nodes × alternatives) array; nodes follow ``paths``
    (post-order, root last) and alternatives the model's order.  ``traces``
    maps each general node's path to its per-step masses, arrays over the
    alternatives, when the batch was evaluated ``with_trace``.  Batches are
    equal when their fields are, arrays and trace masses elementwise.
    """

    algorithm: str
    frame: GradeFrame
    alternatives: tuple[str, ...]
    paths: tuple[str, ...]
    assigned: np.ndarray
    unassigned: np.ndarray
    traces: dict[str, AggregationTrace] | None = None

    __eq__ = _fields_equal


def evaluate_batch(
    model: EvaluationModel, algorithm: str, with_trace: bool = False
) -> BatchEvaluation:
    """Evaluate every alternative at once, folding each general node once.

    Each node's degrees are a (grades × alternatives) block of the kernel,
    so the results equal :func:`evaluate`'s bit for bit.  Every node's degrees
    must lie in [0, 1] and sum to 1, within the tolerance
    :class:`~erkit.algorithms.CombinedAssessment` applies.  With
    ``with_trace`` the kernel's per-step masses are kept on ``traces``.
    """
    plan = model.plan
    alternatives = model.alternatives
    results, traces = _fold(plan, algorithm, slice(None), with_trace)
    assigned = np.array([a for a, _ in results]).transpose(0, 2, 1)
    unassigned = np.array([u for _, u in results])
    lo, hi = -DEGREE_SUM_TOL, 1.0 + DEGREE_SUM_TOL
    ok = ((assigned >= lo) & (assigned <= hi)).all(axis=2) & (unassigned >= lo) & (unassigned <= hi)
    ok &= np.abs(assigned.sum(axis=2) + unassigned - 1.0) <= DEGREE_SUM_TOL
    if not ok.all():
        node, alt = np.argwhere(~ok)[0]
        raise ValueError(
            f"node {plan.paths[node]!r}, alternative {alternatives[alt]!r}: combined degrees "
            "outside [0, 1] or not summing to 1"
        )
    return BatchEvaluation(
        algorithm, model.frame, alternatives, plan.paths, assigned, unassigned, traces
    )
