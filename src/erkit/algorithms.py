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
ordinary inputs, more where near-total conflict amplifies it.

The kernel is generic over the shape of a column: a Python float in the
flat aggregators (no numpy call on that path), or a 1-D numpy array over
alternatives when :mod:`erkit.hierarchy` folds a whole batch.  Every step
is elementwise; sums over grades run left to right instead of through
``math.fsum``, so a batch gives bit for bit what its alternatives give one
at a time, at the cost of rounding in the last bit or two against an
exactly rounded sum (≤1e-15 on the motorcycle benchmark).  The conflict
and Omega checks raise if any alternative fails.  The
discount-and-combine pipelines of :mod:`erkit.dst` stay apart from the
kernel as independent oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Mapping, Sequence

import numpy as np

from .dst import CONFLICT_TOL, GradeFrame, MassFunction
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


@dataclass(frozen=True, eq=False)
class TraceStep:
    """Intermediate masses after folding in one more assessment.

    ``frame_mass`` holds the incompleteness part and ``omega_mass`` the
    weight/indecisiveness part where the scheme distinguishes them;
    ``normalizer`` is the conflict factor applied at this step (1 for the
    first item).  Each mass is a float in the flat aggregators; in a traced
    batch it is an array over the alternatives, or a float where every
    alternative shares it.  Steps are equal when their masses are,
    elementwise.
    """

    singletons: tuple[float, ...]
    frame_mass: float
    omega_mass: float
    normalizer: float

    def __eq__(self, other):
        if not isinstance(other, TraceStep):
            return NotImplemented
        mine = (*self.singletons, self.frame_mass, self.omega_mass, self.normalizer)
        theirs = (*other.singletons, other.frame_mass, other.omega_mass, other.normalizer)
        return len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))


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


def _raise_where(flags, error, message):
    """Raise ``error`` if any alternative is flagged.

    ``flags`` is a bool on float columns and a boolean array on array
    columns; the array rides along on the exception as ``flagged`` so the
    caller can name the alternatives that failed.
    """
    if isinstance(flags, bool):
        if flags:
            raise error(message)
    elif flags.any():
        exc = error(message)
        exc.flagged = flags
        raise exc


def _aggregate(degrees, factors, with_trace=False):
    """The aggregation kernel: discount, fold, fold Omega back.

    ``degrees`` holds one sequence of per-grade columns per item and
    ``factors`` one (reliability α, importance β) pair per item.  A column
    is a float for one alternative or a 1-D array over alternatives; every
    step is elementwise, so a batch gives, bit for bit, the results of its
    alternatives taken one at a time.  The masses are β·α·d on the grades,
    β·max(0, 1 − Σα·d) on the frame and 1 − β on Omega.  Returns the
    assigned columns, the unassigned column and the trace steps (``None``
    unless ``with_trace``).
    """
    # Sums are left folds, ``reduce(add, ...)``: the same rounding for floats and
    # arrays.  (x + |x|) / 2 is max(0, x) exactly, elementwise on arrays.
    steps = [] if with_trace else None
    sing = None
    for columns, (alpha, beta) in zip(degrees, factors):
        discounted = [alpha * d for d in columns]
        sing2 = [beta * x for x in discounted]
        surplus = 1.0 - reduce(add, discounted)
        mh2 = beta * ((surplus + abs(surplus)) * 0.5)
        mo2 = 1.0 - beta
        if sing is None:
            sing, mh, mo, k = sing2, mh2, mo2, 1.0
        else:
            agree = reduce(add, map(mul, sing, sing2))
            denom = 1.0 - (reduce(add, sing) * reduce(add, sing2) - agree)
            _raise_where(
                denom <= CONFLICT_TOL,
                CompleteConflictError,
                "aggregation met totally conflicting assessments",
            )
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
    _raise_where(
        mo >= 1.0 - CONFLICT_TOL,
        DegenerateMassError,
        "all combined mass sits on Omega; nothing to normalize",
    )
    scale = 1.0 / (1.0 - mo)
    return [scale * v for v in sing], scale * mh, steps


def _combine(frame, items, factors, with_trace):
    """Run the kernel on flat items and wrap its float columns."""
    assigned, unassigned, steps = _aggregate(
        [item.assessment.degrees for item in items], factors, with_trace
    )
    result = CombinedAssessment(frame, tuple(assigned), unassigned)
    if with_trace:
        return result, AggregationTrace(tuple(steps))
    return result


def _check_weight_sum(weights: Sequence[float]) -> None:
    """Importance weights must sum to one; nothing is rescaled silently."""
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumError(f"importance weights sum to {total!r}, expected 1")


def oer_aggregate(
    items: Sequence[WeightedAssessment], with_trace: bool = False
) -> CombinedAssessment | tuple[CombinedAssessment, AggregationTrace]:
    """Aggregate using weights as reliabilities (no weight normalization).

    The combined degrees are read off the final masses directly; whatever
    mass remains on the frame is reported as unassigned.
    """
    frame = _common_frame(items)
    return _combine(frame, items, [(item.weight, 1.0) for item in items], with_trace)


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
    _check_weight_sum([item.weight for item in items])
    return _combine(frame, items, [(1.0, item.weight) for item in items], with_trace)


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
    return _combine(frame, items, factors, with_trace)


AGGREGATORS = {
    "oer": oer_aggregate,
    "mer": mer_aggregate,
    "e2r": e2r_aggregate,
}


def _scheme(algorithm: str):
    """The flat aggregator named ``algorithm``, looked up in ``AGGREGATORS`` at call time."""
    try:
        return AGGREGATORS[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {sorted(AGGREGATORS)}") from None


def aggregate(
    algorithm: str, items: Sequence[WeightedAssessment], with_trace: bool = False
):
    """Dispatch to a flat aggregator by its identifier."""
    return _scheme(algorithm)(items, with_trace=with_trace)
