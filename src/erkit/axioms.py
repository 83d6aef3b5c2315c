"""Synthesis-axiom checking and the randomized audit harness.

Four axioms constrain how a rational aggregation of attribute assessments
may behave:

independence
    A grade assessed by no attribute must receive no combined belief.
consensus
    If every attribute is precisely assessed to one shared grade, the
    combined assessment must be precisely that grade.
completeness
    If every assessment is complete and confined to a subset of grades,
    the combined assessment must be complete on that subset.
incompleteness
    If any assessment is incomplete, the combined assessment must be
    incomplete as well.

Whether an aggregator "should" satisfy them depends on how its weights are
interpreted; the audit harness simply measures what holds.  Instances are
generated constructively from each axiom's hypothesis (hypothesis sets
have measure zero under uniform sampling, so rejection sampling would
never terminate).

The audit draws each (grades, items) size group of instances at once,
folds it in one pass of the :mod:`erkit.algorithms` kernel and checks the
conclusions on arrays; :func:`generate_axiom_instance` and
:func:`check_axiom` are the same drawer and checker on one instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .algorithms import Assessment, WeightedAssessment, _aggregate, _common_frame, _factors, _scheme
from .errors import AxiomInapplicableError
from .frame import GradeFrame

AXIOMS = ("independence", "consensus", "completeness", "incompleteness")

#: Combined degrees are compared against axiom conclusions at this tolerance.
AXIOM_TOL = 1e-9

#: Audit instances have 2 to ``MAX_GRADES`` grades and 2 to ``MAX_ITEMS`` items.
MAX_GRADES = 5
MAX_ITEMS = 6


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of checking one axiom on one instance."""

    axiom: str
    holds: bool
    detail: str


def _items(degrees: np.ndarray, factors: np.ndarray, j: int) -> list[WeightedAssessment]:
    """Instance ``j`` of a group drawn by :func:`_draw`, as weighted assessments."""
    frame = GradeFrame(f"g{i}" for i in range(degrees.shape[1]))
    return [
        WeightedAssessment(Assessment(frame, tuple(d)), *f)
        for d, f in zip(degrees[:, :, j].tolist(), factors[:, :, j].T.tolist())
    ]


def _proper_subset(rng: np.random.Generator, n_grades: int, count: int) -> np.ndarray:
    """Flags (grades × count) of a random subset of 1 to ``n_grades`` − 1 grades per instance."""
    rank = rng.random((n_grades, count)).argsort(axis=0).argsort(axis=0)
    return rank < rng.integers(1, n_grades, size=count)


def _spread(rng: np.random.Generator, support: np.ndarray) -> np.ndarray:
    """Flat-Dirichlet degrees over each item's ``support``, summing to one over the grades axis."""
    raw = rng.standard_exponential(support.shape) * support
    return raw / raw.sum(axis=1, keepdims=True)


def _draw(
    axiom: str, rng: np.random.Generator, count: int, n_grades: int, n_items: int, normalized: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` instances of one size that satisfy ``axiom``'s hypothesis.

    Returns the degrees (items × grades × instances) and the factors
    ((weight, reliability, importance) × items × instances).
    """
    shape = (n_items, count)
    cube = (n_items, n_grades, count)
    simplex = rng.dirichlet(np.full(n_items, 3.0), size=(2, count)).transpose(0, 2, 1)
    uniform = rng.uniform(0.2, 1.0, size=(2, *shape))
    factors = np.array([simplex[0] if normalized else uniform[0], uniform[1], simplex[1]])

    if axiom == "independence":
        allowed = np.broadcast_to(_proper_subset(rng, n_grades, count), cube)
        degrees = _spread(rng, allowed) * rng.uniform(0.3, 0.9, size=(n_items, 1, count))
    elif axiom == "consensus":
        shared = rng.integers(n_grades, size=count)
        degrees = np.broadcast_to(np.eye(n_grades)[:, shared], cube)
    elif axiom == "completeness":
        degrees = _spread(rng, np.broadcast_to(_proper_subset(rng, n_grades, count), cube))
    else:  # incompleteness: the first item is incomplete, each other one complete half the time
        complete = rng.random(shape) < 0.5
        complete[0] = False
        scale = np.where(complete, 1.0, rng.uniform(0.3, 0.9, size=shape))
        degrees = _spread(rng, np.ones(cube, dtype=bool)) * scale[:, None, :]
        if not normalized:
            # pin one complete item to full weight in half the instances: the only
            # regime in which the reliability-style scheme wipes out incompleteness
            pin = (rng.random(count) < 0.5) & complete.any(axis=0)
            pick = np.where(complete, rng.random(shape), -1.0).argmax(axis=0)
            factors[0, pick[pin], np.flatnonzero(pin)] = 1.0
    return degrees, factors


def _conclusion(axiom: str, grades: Sequence[str], degrees, assigned, unassigned):
    """Check an axiom's conclusion on folded instances that meet its hypothesis.

    Returns whether each instance holds and a function that words the
    verdict of instance ``j``.
    """
    if axiom == "independence":
        untouched = np.where((degrees == 0.0).all(axis=0), assigned, -np.inf)
        worst, value = untouched.argmax(axis=0), untouched.max(axis=0)
        return value <= AXIOM_TOL, lambda j: (
            f"unassessed grade {grades[worst[j]]!r} received degree {float(value[j])!r}"
        )
    if axiom == "consensus":
        shared = degrees[0].argmax(axis=0)
        value = np.take_along_axis(assigned, shared[None], axis=0)[0]
        return np.abs(value - 1.0) <= AXIOM_TOL, lambda j: (
            f"shared grade {grades[shared[j]]!r} received degree {float(value[j])!r}"
        )
    if axiom == "completeness":
        support = (degrees > 0.0).any(axis=0)
        inside = reduce(add, np.where(support, assigned, 0.0))  # a left fold, as in the kernel
        return np.abs(inside - 1.0) <= AXIOM_TOL, lambda j: (
            f"combined degree on {tuple(g for g, s in zip(grades, support[:, j]) if s)} "
            f"is {float(inside[j])!r}"
        )
    return unassigned > AXIOM_TOL, lambda j: (
        f"combined unassigned degree is {float(unassigned[j])!r}"
    )


def check_axiom(
    axiom: str,
    aggregator: str,
    items: Sequence[WeightedAssessment],
) -> AxiomVerdict:
    """Check one synthesis axiom for an aggregator on a concrete instance.

    The instance must satisfy the axiom's hypothesis; otherwise
    :class:`~erkit.errors.AxiomInapplicableError` is raised, which is a
    different outcome than a violation verdict.
    """
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; expected one of {AXIOMS}")
    if not items:
        raise ValueError("an axiom instance needs at least one assessment")
    fn = _scheme(aggregator)
    frame = _common_frame(items)
    degrees = np.array([item.assessment.degrees for item in items])
    complete = [item.assessment.is_complete for item in items]
    if axiom == "independence" and (degrees != 0.0).any(axis=0).all():
        raise AxiomInapplicableError("every grade is assessed by some attribute")
    if axiom == "consensus":
        # degree 1 on the grade the first assessment favours, 0 elsewhere, within the tolerance
        shared = np.eye(frame.size)[degrees[0].argmax()]
        if np.abs(degrees - shared).max() > AXIOM_TOL:
            raise AxiomInapplicableError(
                "instances must assess precisely one shared grade with degree 1"
            )
    if axiom == "completeness" and not all(complete):
        raise AxiomInapplicableError("every assessment must be complete")
    if axiom == "incompleteness" and all(complete):
        raise AxiomInapplicableError("at least one assessment must be incomplete")

    combined = fn(items)
    assigned = np.array(combined.assigned)[:, None]
    unassigned = np.array([combined.unassigned])
    holds, detail = _conclusion(axiom, frame.grades, degrees[:, :, None], assigned, unassigned)
    return AxiomVerdict(axiom, bool(holds[0]), detail(0))


def generate_axiom_instance(
    axiom: str,
    rng: np.random.Generator,
    n_grades: int = 5,
    n_items: int = 3,
    normalized_weights: bool = False,
) -> list[WeightedAssessment]:
    """Construct a random instance satisfying one axiom's hypothesis.

    ``normalized_weights`` must be set for aggregators that require the
    weights to form a convex combination.  In the free-weight mode,
    incompleteness instances occasionally pin a complete assessment to
    weight one, which is the only regime in which the reliability-style
    scheme can wipe out incompleteness entirely.
    """
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; expected one of {AXIOMS}")
    return _items(*_draw(axiom, rng, 1, n_grades, n_items, normalized_weights), 0)


def _groups(axiom: str, rng: np.random.Generator, iterations: int, normalized: bool):
    """Draw the size of every instance, then the instances of each size group in size order.

    Yields each group's iteration indices, ascending, with its instances.
    """
    grades = rng.integers(2, MAX_GRADES + 1, size=iterations)
    items = rng.integers(2, MAX_ITEMS + 1, size=iterations)
    for n_grades, n_items in sorted(set(zip(grades.tolist(), items.tolist()))):
        index = np.flatnonzero((grades == n_grades) & (items == n_items))
        yield index, _draw(axiom, rng, len(index), n_grades, n_items, normalized)


def _verdicts(axiom: str, algorithm: str, degrees: np.ndarray, factors: np.ndarray):
    """Fold a group in one pass of the kernel and check the axiom's conclusion."""
    alpha, beta = np.broadcast_arrays(*_factors(algorithm, *factors))
    assigned, unassigned, _ = _aggregate(degrees, list(zip(alpha, beta)))
    grades = tuple(f"g{i}" for i in range(degrees.shape[1]))
    return _conclusion(axiom, grades, degrees, assigned, unassigned)


@dataclass
class AxiomAuditEntry:
    """Aggregate outcome of auditing one axiom."""

    axiom: str
    runs: int = 0
    holds: int = 0
    violations: int = 0
    first_counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _serialize_instance(items: Sequence[WeightedAssessment]) -> list[dict]:
    return [
        {
            "degrees": item.assessment.belief_degrees,
            "weight": item.weight,
            "reliability": item.reliability,
            "importance": item.importance,
        }
        for item in items
    ]


def audit_axioms(
    algorithm: str, iterations: int = 1000, seed: int = 42
) -> dict[str, AxiomAuditEntry]:
    """Run the constructive axiom audit for one aggregation algorithm.

    Deterministic for a fixed seed.  Returns one entry per axiom with
    hold/violation counts and the first counterexample found (the failing
    instance with the lowest iteration index), serialized for reporting.
    """
    if iterations < 1:
        raise ValueError("the audit needs at least one iteration")
    _scheme(algorithm)
    normalized = algorithm in ("mer", "e2r")
    rng = np.random.default_rng(seed)
    report: dict[str, AxiomAuditEntry] = {}
    for axiom in AXIOMS:
        entry = AxiomAuditEntry(axiom, runs=iterations)
        first = None  # (iteration index, group, position in the group, detail)
        for index, group in _groups(axiom, rng, iterations, normalized):
            holds, detail = _verdicts(axiom, algorithm, *group)
            entry.holds += int(holds.sum())
            failing = np.flatnonzero(~holds)
            if failing.size and (first is None or index[failing[0]] < first[0]):
                first = index[failing[0]], group, failing[0], detail
        entry.violations = iterations - entry.holds
        if first is not None:
            _, group, j, detail = first
            entry.first_counterexample = {
                "instance": _serialize_instance(_items(*group, j)),
                "detail": detail(j),
            }
        report[axiom] = entry
    return report
