"""Flat evidential-reasoning aggregation over weighted assessments.

All three schemes share one kernel.  It discounts each assessment by a
reliability α and an importance β, folds the results by the extended
orthogonal sum, and folds the Omega (indecisiveness) mass back at the end.
The schemes differ only in the (α, β) that one function, ``_factors``, reads
from an attribute's weight, reliability and importance; the flat
aggregators, the hierarchy's fold and the axiom audit all call it:

``oer_aggregate``
    (weight, 1): weights are *reliabilities*; the discounted surplus joins
    the global-ignorance mass and Omega stays empty.

``mer_aggregate``
    (1, weight): normalized weights are *importances*; the weight part of
    the unassigned mass is redistributed proportionally after combination.

``e2r_aggregate``
    (reliability, importance): both factors at once, the weight unread;
    reduces to the other two, bit for bit, in the obvious limits.

An item's frame mass is β·max(0, 1 − Σα·d).  For ``e2r`` this differs from
the closed form β·(α·u + 1 − α) by rounding only: at most about 1e-15 on
ordinary inputs, more where near-total conflict amplifies it.

The kernel folds one array per item, the grades on its first axis:
``(grades,)`` in the flat aggregators, ``(grades × alternatives)`` when
:mod:`erkit.hierarchy` folds a batch or :mod:`erkit.axioms` a group.  Every
step is elementwise over the alternatives and sums over grades run left to
right instead of through ``math.fsum``, so a batch gives bit for bit what
its alternatives give one at a time, at the cost of rounding in the last
bit or two against an exactly rounded sum (≤1e-15 on the motorcycle
benchmark).  The conflict and Omega checks raise if any alternative fails.
The discount-and-combine pipelines of :mod:`erkit.dst` stay apart from the
kernel as independent oracles in the test suite: the two share only
:mod:`erkit.frame`, and this module never imports :mod:`erkit.dst`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
from operator import add
from typing import Mapping, Sequence

import numpy as np

from .errors import CompleteConflictError, DegenerateMassError, FrameMismatchError, WeightSumError
from .frame import CONFLICT_TOL, GradeFrame

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
    ``importance`` feed the two-factor scheme.  An omitted weight is read as
    the reliability under ``oer`` and as the importance under ``mer``, as a
    hierarchy node's is; omitted reliabilities and importances are 1.
    """

    assessment: Assessment
    weight: float | None = None
    reliability: float = 1.0
    importance: float = 1.0

    def __post_init__(self):
        for name in ("weight", "reliability", "importance"):
            value = getattr(self, name)
            if name == "weight" and value is None:
                continue  # omitted: the scheme reads its own factor instead
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


def _values_equal(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_values_equal, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _fields_equal(self, other):
    """Value equality for a dataclass that holds arrays: the same class and equal
    fields, arrays compared elementwise, also inside tuples.  A class taking this
    as its ``__eq__`` is declared ``eq=False`` and so has no ``__hash__``."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(_values_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class TraceStep:
    """Intermediate masses after folding in one more assessment.

    ``frame_mass`` holds the incompleteness part and ``omega_mass`` the
    weight/indecisiveness part where the scheme distinguishes them;
    ``normalizer`` is the conflict factor applied at this step (1 for the
    first item).  Each mass is a float in the flat aggregators, mostly an
    ``np.float64``; in a traced batch it is an array over the alternatives,
    or a float where every alternative shares it.  Steps are equal when
    their masses are, elementwise.
    """

    singletons: tuple[float, ...]
    frame_mass: float
    omega_mass: float
    normalizer: float

    __eq__ = _fields_equal


@dataclass(frozen=True)
class AggregationTrace:
    steps: tuple[TraceStep, ...]


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

    ``flags`` is a bool, numpy's too, for one alternative (no ``np.any`` per
    flat step) and a boolean array for a batch, which rides along on the
    exception as ``flagged`` so the caller can name the alternatives that failed.
    """
    if isinstance(flags, (bool, np.bool_)):
        if flags:
            raise error(message)
    elif flags.any():
        exc = error(message)
        exc.flagged = flags
        raise exc


def _aggregate(blocks, factors, with_trace=False):
    """The aggregation kernel: discount, fold, fold Omega back.

    ``blocks`` holds one array of degrees per item, grades on the first axis,
    and ``factors`` one (reliability α, importance β) pair per item, floats
    or arrays over the alternatives.  Each mass is one array expression:
    β·α·d on the grades, β·max(0, 1 − Σα·d) on the frame, 1 − β on Omega.
    The constants are ints and halvings, so object arrays of
    :class:`fractions.Fraction` fold exactly.  Returns the assigned block,
    the unassigned array and the trace steps (``None`` unless ``with_trace``).
    """
    # (x + |x|) / 2 is max(0, x) exactly, elementwise on arrays.
    steps = [] if with_trace else None
    sing = None
    for block, (alpha, beta) in zip(blocks, factors):
        discounted = alpha * block
        sing2 = beta * discounted
        surplus = 1 - reduce(add, discounted)
        mh2 = beta * ((surplus + abs(surplus)) / 2)
        mo2 = 1 - beta
        if sing is None:
            sing, mh, mo, k = sing2, mh2, mo2, 1.0
        else:
            agree = reduce(add, sing * sing2)
            denom = 1 - (reduce(add, sing) * reduce(add, sing2) - agree)
            _raise_where(
                denom <= CONFLICT_TOL,
                CompleteConflictError,
                "aggregation met totally conflicting assessments",
            )
            k = 1 / denom
            vague1 = mh + mo
            vague2 = mh2 + mo2
            sing = k * (sing * sing2 + sing * vague2 + vague1 * sing2)
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
    scale = 1 / (1 - mo)
    return scale * sing, scale * mh, steps


def _check_weight_sum(weights: Sequence[float]) -> None:
    """Importance weights must sum to one; nothing is rescaled silently."""
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumError(f"importance weights sum to {total!r}, expected 1")


def _factors(algorithm: str, weight, reliability, importance):
    """The (reliability α, importance β) an attribute brings into a combination
    under ``algorithm``, floats or arrays alike: the one place the schemes differ.

    ``oer`` reads the weight as a reliability, (weight, 1), and ``mer`` as an
    importance, (1, weight), each falling back to that factor when the weight
    is ``None``; ``e2r`` ignores the weight: (reliability, importance).
    """
    _scheme(algorithm)
    if algorithm == "oer":
        return (reliability if weight is None else weight), 1.0
    if algorithm == "mer":
        return 1.0, (importance if weight is None else weight)
    return reliability, importance


def _factor_pairs(algorithm: str, triples) -> list:
    """:func:`_factors` of each (weight, reliability, importance) triple; under
    ``mer`` the importances β must sum to one."""
    pairs = [_factors(algorithm, *triple) for triple in triples]
    if algorithm == "mer":
        _check_weight_sum([beta for _, beta in pairs])
    return pairs


def _combine(algorithm, items, with_trace):
    """Run the kernel on flat items' ``(grades,)`` blocks, factored as ``algorithm`` reads them."""
    frame = _common_frame(items)
    factors = _factor_pairs(algorithm, [(i.weight, i.reliability, i.importance) for i in items])
    blocks = np.array([i.assessment.degrees for i in items])
    assigned, unassigned, steps = _aggregate(blocks, factors, with_trace)
    result = CombinedAssessment(frame, tuple(assigned.tolist()), float(unassigned))
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
    return _combine("oer", items, with_trace)


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
    return _combine("mer", items, with_trace)


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
    return _combine("e2r", items, with_trace)


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
