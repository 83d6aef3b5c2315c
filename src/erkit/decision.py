"""Decision layer: redistribute unassigned belief, score, and rank."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from operator import mul
from typing import TYPE_CHECKING, Mapping

from .algorithms import CombinedAssessment, DEGREE_SUM_TOL, _fields_equal
from .errors import FrameMismatchError
from .frame import GradeFrame

if TYPE_CHECKING:
    import numpy as np

    from .hierarchy import BatchEvaluation


def _caller_outside_erkit() -> int:
    """The ``stacklevel`` of the innermost frame outside erkit, counted from the
    function that calls this one: a warning names the code that called into erkit,
    whether it built a utility function directly or through a loader."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get("__name__", "").split(".")[0] == "erkit":
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class UtilityFunction:
    """Per-grade utilities in [0, 1], ordered like the frame's grades.

    Utilities are expected to be non-decreasing along the grade order;
    a violation is reported as a warning rather than an error since the
    expected-utility formula itself does not require monotonicity.
    """

    frame: GradeFrame
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != self.frame.size:
            raise ValueError("one utility per grade is required")
        for v in self.values:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"utility {v!r} outside [0, 1]")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            warnings.warn(
                "utilities are not non-decreasing along the grade order",
                stacklevel=_caller_outside_erkit(),
            )

    @classmethod
    def from_mapping(cls, frame: GradeFrame, utilities: Mapping[str, float]) -> "UtilityFunction":
        missing = [g for g in frame.grades if g not in utilities]
        if missing:
            raise ValueError(f"utilities missing for grades {missing}")
        extra = [g for g in utilities if g not in frame.grades]
        if extra:
            raise ValueError(f"utilities given for grades outside the frame {extra}")
        return cls(frame, tuple(utilities[g] for g in frame.grades))

    @classmethod
    def evenly_spaced(cls, frame: GradeFrame) -> "UtilityFunction":
        """Default ladder: n/N for the n-th grade, ending at 1."""
        n = frame.size
        return cls(frame, tuple((i + 1) / n for i in range(n)))

    def of(self, grade: str) -> float:
        return self.values[self.frame.index(grade)]

    @property
    def by_grade(self) -> dict[str, float]:
        return dict(zip(self.frame.grades, self.values))


def redistribute_unknown(combined: CombinedAssessment) -> dict[str, float]:
    """Split the unassigned degree evenly across all grades.

    This is the singleton pignistic redistribution of the global-ignorance
    mass; it preserves the argmax among the assigned degrees.
    """
    share = combined.unassigned / combined.frame.size
    return {g: d + share for g, d in combined.assigned_degrees.items()}


def expected_utility(degrees: Mapping[str, float], utility: UtilityFunction) -> float:
    """Inner product of redistributed degrees with the grade utilities."""
    total = math.fsum(degrees.values())
    if abs(total - 1.0) > DEGREE_SUM_TOL:
        raise ValueError(f"degrees sum to {total!r}, expected 1")
    try:
        return math.fsum(d * utility.of(g) for g, d in degrees.items())
    except FrameMismatchError:
        raise ValueError("degrees mention a grade missing from the utility function") from None


def rank(utilities: Mapping[str, float]) -> list[str]:
    """Alternatives by descending utility; ties keep declaration order."""
    if not utilities:
        raise ValueError("cannot rank an empty set of alternatives")
    return sorted(utilities, key=lambda alt: -utilities[alt])


@dataclass(frozen=True, eq=False)
class RankedResult:
    """Decision summary: redistributed degrees (alternatives × grades), utilities,
    ranking.  Summaries are equal when their fields are, the degrees elementwise."""

    degrees: np.ndarray
    utilities: dict[str, float]
    ranking: tuple[str, ...]

    __eq__ = _fields_equal


def decide(batch: BatchEvaluation, utility: UtilityFunction) -> RankedResult:
    """Score and rank the root rows of a batch evaluation: bit for bit what
    :func:`redistribute_unknown` and :func:`expected_utility` give alternative by alternative."""
    if utility.frame != batch.frame:
        raise ValueError("the utility function uses a different frame")
    degrees = batch.assigned[-1] + batch.unassigned[-1, :, None] / batch.frame.size
    utilities = {
        alt: math.fsum(map(mul, row, utility.values))
        for alt, row in zip(batch.alternatives, degrees.tolist())
    }
    return RankedResult(degrees, utilities, tuple(rank(utilities)))
