"""The frame of discernment, and the conflict tolerance every combination shares.

Both the aggregation kernel (:mod:`erkit.algorithms`) and its independent
oracle (:mod:`erkit.dst`) read these, so neither has to import the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import FrameMismatchError

#: Below this normalization denominator a combination counts as total conflict.
CONFLICT_TOL = 1e-12


@dataclass(frozen=True)
class GradeFrame:
    """Ordered frame of discernment: the evaluation grades, worst first."""

    grades: tuple[str, ...]

    def __init__(self, grades: Iterable[str]):
        object.__setattr__(self, "grades", tuple(grades))
        if len(self.grades) < 2:
            raise ValueError("a frame needs at least two grades")
        if len(set(self.grades)) != len(self.grades):
            raise ValueError("grade labels must be unique")
        if any(not g for g in self.grades):
            raise ValueError("grade labels must be non-empty")

    @property
    def size(self) -> int:
        return len(self.grades)

    def index(self, grade: str) -> int:
        try:
            return self.grades.index(grade)
        except ValueError:
            raise FrameMismatchError(f"grade {grade!r} is not in the frame") from None

    def subset_mask(self, grades: Iterable[str]) -> int:
        """Encode a collection of grade labels as a bitset."""
        mask = 0
        for g in grades:
            mask |= 1 << self.index(g)
        return mask

    def mask_labels(self, mask: int) -> tuple[str, ...]:
        """Decode a bitset back into grade labels."""
        self._check_mask(mask)
        return tuple(g for i, g in enumerate(self.grades) if mask >> i & 1)

    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def _check_mask(self, mask: int) -> None:
        if not 0 <= mask <= self.full_mask():
            raise FrameMismatchError(f"bitset {mask:#x} does not fit a {self.size}-grade frame")
