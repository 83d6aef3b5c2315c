"""Flat evidential-reasoning aggregation over weighted assessments.

All three schemes share one kernel.  It discounts each assessment by a
reliability α and an importance β, folds the results by the extended
orthogonal sum, and folds the Omega (indecisiveness) mass back at the end.
The schemes differ only in the (α, β) they pass:

``oer_aggregate``
    (weight, 1): weights are *reliabilities*; the discounted surplus joins
    the global-ignorance mass and Omega stays empty.

``mer_aggregate``
    (1, weight): normalized weights are *importances*; the weight part of
    the unassigned mass is redistributed proportionally after combination.

``e2r_aggregate``
    (reliability, importance): both factors at once; reduces to the other
    two, bit for bit, in the obvious limits.

An item's frame mass is β·max(0, 1 − Σα·d).  For ``e2r`` this differs from
the closed form β·(α·u + 1 − α) by rounding only: at most about 1e-15 on
ordinary inputs, more where near-total conflict amplifies it.  The
discount-and-combine pipelines of :mod:`erkit.dst` stay apart from the
kernel as independent oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dst import CONFLICT_TOL, GradeFrame, MassFunction, _singleton_conflict
from .errors import CompleteConflictError, DegenerateMassError, FrameMismatchError, WeightSumError

#: Belief degrees of one assessment may undershoot 1 (incompleteness) but
#: never exceed it beyond this tolerance.
DEGREE_SUM_TOL = 1e-9

#: Importance weights must sum to one within this tolerance.
WEIGHT_SUM_TOL = 1e-6


@dataclass(frozen=True)
class Assessment:
    """Distributed assessment of one attribute: belief degree per grade."""

    frame: GradeFrame
    degrees: tuple[float, ...]

    def __post_init__(self):
        if len(self.degrees) != self.frame.size:
            raise ValueError("one belief degree per grade is required")
        for d in self.degrees:
            # tolerance absorbs float round-off at the [0, 1] boundaries
            if not -DEGREE_SUM_TOL <= d <= 1.0 + DEGREE_SUM_TOL:
                raise ValueError(f"belief degree {d!r} outside [0, 1]")
        if math.fsum(self.degrees) > 1.0 + DEGREE_SUM_TOL:
            raise ValueError("belief degrees sum beyond 1")

    @classmethod
    def from_degrees(cls, frame: GradeFrame, degrees: Mapping[str, float]) -> "Assessment":
        values = [0.0] * frame.size
        for grade, degree in degrees.items():
            values[frame.index(grade)] = degree
        return cls(frame, tuple(values))

    @property
    def belief_degrees(self) -> dict[str, float]:
        return dict(zip(self.frame.grades, self.degrees))

    @property
    def unassigned(self) -> float:
        """Residual belief not committed to any grade."""
        return max(0.0, 1.0 - math.fsum(self.degrees))

    @property
    def is_complete(self) -> bool:
        return self.unassigned <= DEGREE_SUM_TOL


@dataclass(frozen=True)
class WeightedAssessment:
    """An assessment together with its aggregation factors.

    ``weight`` feeds the single-factor schemes; ``reliability`` and
    ``importance`` feed the two-factor scheme.  Unused factors default to 1.
    """

    assessment: Assessment
    weight: float = 1.0
    reliability: float = 1.0
    importance: float = 1.0

    def __post_init__(self):
        for name in ("weight", "reliability", "importance"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} {value!r} outside [0, 1]")


@dataclass(frozen=True)
class CombinedAssessment:
    """Aggregated belief degrees plus the remaining unassigned degree."""

    frame: GradeFrame
    assigned: tuple[float, ...]
    unassigned: float

    def __post_init__(self):
        if len(self.assigned) != self.frame.size:
            raise ValueError("one combined degree per grade is required")
        for d in (*self.assigned, self.unassigned):
            # tolerance absorbs float round-off at the [0, 1] boundaries
            if not -DEGREE_SUM_TOL <= d <= 1.0 + DEGREE_SUM_TOL:
                raise ValueError(f"combined degree {d!r} outside [0, 1]")
        total = math.fsum((*self.assigned, self.unassigned))
        if abs(total - 1.0) > DEGREE_SUM_TOL:
            raise ValueError(f"combined degrees sum to {total!r}, expected 1")

    @property
    def assigned_degrees(self) -> dict[str, float]:
        return dict(zip(self.frame.grades, self.assigned))

    def degree(self, grade: str) -> float:
        return self.assigned[self.frame.index(grade)]

    def to_assessment(self) -> Assessment:
        """Recycle the combined result as an (incomplete) assessment."""
        return Assessment(self.frame, self.assigned)


@dataclass(frozen=True)
class TraceStep:
    """Intermediate masses after folding in one more assessment.

    ``frame_mass`` holds the incompleteness part and ``omega_mass`` the
    weight/indecisiveness part where the scheme distinguishes them;
    ``normalizer`` is the conflict factor applied at this step (1 for the
    first item).
    """

    singletons: tuple[float, ...]
    frame_mass: float
    omega_mass: float
    normalizer: float


@dataclass(frozen=True)
class AggregationTrace:
    steps: tuple[TraceStep, ...]


def assessment_to_bba(a: Assessment) -> MassFunction:
    """Interpret belief degrees as singleton masses, residual as ignorance."""
    return MassFunction(a.frame, a.degrees, a.unassigned)


def _common_frame(items: Sequence[WeightedAssessment]) -> GradeFrame:
    if not items:
        raise ValueError("cannot aggregate an empty list of assessments")
    frame = items[0].assessment.frame
    for item in items[1:]:
        if item.assessment.frame != frame:
            raise FrameMismatchError("assessments are defined over different frames")
    return frame


def _aggregate(frame, items, factors, with_trace):
    """The aggregation kernel: discount, fold, fold Omega back.

    ``factors`` holds one (reliability α, importance β) pair per item; the
    masses are β·α·d on the grades, β·max(0, 1 − Σα·d) on the frame and
    1 − β on Omega.
    """
    steps: list[TraceStep] = []
    sing = None
    for item, (alpha, beta) in zip(items, factors):
        discounted = [alpha * d for d in item.assessment.degrees]
        sing2 = [beta * x for x in discounted]
        mh2 = beta * max(0.0, 1.0 - math.fsum(discounted))
        mo2 = 1.0 - beta
        if sing is None:
            sing, mh, mo, k = sing2, mh2, mo2, 1.0
        else:
            denom = 1.0 - _singleton_conflict(sing, sing2)
            if denom <= CONFLICT_TOL:
                raise CompleteConflictError("aggregation met totally conflicting assessments")
            k = 1.0 / denom
            vague1 = mh + mo
            vague2 = mh2 + mo2
            sing = [
                k * (a * b + a * vague2 + vague1 * b) for a, b in zip(sing, sing2)
            ]
            mh, mo = (
                k * (mh * mh2 + mh * mo2 + mo * mh2),
                k * mo * mo2,
            )
        if with_trace:
            steps.append(TraceStep(tuple(sing), mh, mo, k))
    if mo >= 1.0 - CONFLICT_TOL:
        raise DegenerateMassError("all combined mass sits on Omega; nothing to normalize")
    scale = 1.0 / (1.0 - mo)
    result = CombinedAssessment(frame, tuple(scale * v for v in sing), scale * mh)
    if with_trace:
        return result, AggregationTrace(tuple(steps))
    return result


def oer_aggregate(
    items: Sequence[WeightedAssessment], with_trace: bool = False
) -> CombinedAssessment | tuple[CombinedAssessment, AggregationTrace]:
    """Aggregate using weights as reliabilities (no weight normalization).

    The combined degrees are read off the final masses directly; whatever
    mass remains on the frame is reported as unassigned.
    """
    frame = _common_frame(items)
    return _aggregate(frame, items, [(item.weight, 1.0) for item in items], with_trace)


def mer_aggregate(
    items: Sequence[WeightedAssessment], with_trace: bool = False
) -> CombinedAssessment | tuple[CombinedAssessment, AggregationTrace]:
    """Aggregate using weights as normalized importances.

    The unassigned mass of each item is decomposed into the part caused by
    assessment incompleteness (kept on the frame) and the part caused by
    the weight (kept aside and redistributed proportionally at the end).
    Weights must sum to one; no silent rescaling is performed here so that
    malformed models surface immediately.
    """
    frame = _common_frame(items)
    total_weight = math.fsum(item.weight for item in items)
    if abs(total_weight - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumError(f"importance weights sum to {total_weight!r}, expected 1")
    return _aggregate(frame, items, [(1.0, item.weight) for item in items], with_trace)


def e2r_aggregate(
    items: Sequence[WeightedAssessment], with_trace: bool = False
) -> CombinedAssessment | tuple[CombinedAssessment, AggregationTrace]:
    """Aggregate using both reliability and importance per attribute.

    Each assessment is reliability-discounted then importance-discounted
    before the extended orthogonal sum; the indecisiveness mass is folded
    back proportionally at the end.  With all importances 1 this equals
    ``oer_aggregate`` on the reliabilities; with all reliabilities 1 and
    normalized importances it equals ``mer_aggregate`` on the importances.
    """
    frame = _common_frame(items)
    factors = [(item.reliability, item.importance) for item in items]
    return _aggregate(frame, items, factors, with_trace)


AGGREGATORS = {
    "oer": oer_aggregate,
    "mer": mer_aggregate,
    "e2r": e2r_aggregate,
}


def aggregate(
    algorithm: str, items: Sequence[WeightedAssessment], with_trace: bool = False
):
    """Dispatch to a flat aggregator by its identifier."""
    try:
        fn = AGGREGATORS[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {sorted(AGGREGATORS)}") from None
    return fn(items, with_trace=with_trace)
