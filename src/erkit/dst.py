"""Mass-function primitives: the independent oracle of the aggregation kernel.

The original ER algorithm is reliability discounting plus Dempster's rule,
the modified one importance discounting plus the extended rule; the tests
assemble both from the parts here and hold :mod:`erkit.algorithms` to them.
The two modules share only :mod:`erkit.frame`, whose ``GradeFrame`` this
module re-exports; no command loads this one, and it loads no numpy.
Every sum goes through ``_sum`` and the constants are ints, so masses and
factors given as :class:`~fractions.Fraction` combine exactly, while float
inputs give what ``math.fsum`` and float constants give, bit for bit.

The mass functions here are specialized to the focal
structure that distributed assessments actually produce: singleton grades,
the whole frame (global ignorance), and optionally the indecisiveness
element Omega introduced by importance discounting.  Omega is a formal
marker that intersects every non-empty focal element; it is *not* a subset
of the frame and is never enumerated.

:class:`GeneralMassFunction` keeps the full power-set representation and
exists as a slow, obviously-correct oracle for the specialized fast paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import CompleteConflictError, DegenerateMassError, FrameMismatchError
from .frame import CONFLICT_TOL, GradeFrame

#: Tolerance on the total mass of a well-formed (I)BBA.
MASS_SUM_TOL = 1e-9

BBA = "bba"
IBBA = "ibba"


def _sum(values):
    """The sum of ``values``: exact if any is a :class:`~fractions.Fraction`, so masses
    given as Fractions stay exact; the exactly rounded ``math.fsum`` otherwise."""
    values = list(values)
    if any(isinstance(v, Fraction) for v in values):
        return sum(values, Fraction(0))
    return math.fsum(values)


def _as_mask(frame: GradeFrame, subset: int | Iterable[str]) -> int:
    if isinstance(subset, int):
        frame._check_mask(subset)
        return subset
    return frame.subset_mask(subset)


@dataclass(frozen=True)
class MassFunction:
    """Belief masses over singleton grades, the frame, and optionally Omega.

    ``kind`` distinguishes plain basic belief assignments (``omega_mass``
    must be zero) from importance-discounted ones, which may commit mass to
    the indecisiveness element.
    """

    frame: GradeFrame
    singletons: tuple[float, ...]
    frame_mass: float
    omega_mass: float = 0.0
    kind: str = BBA

    def __post_init__(self):
        if self.kind not in (BBA, IBBA):
            raise ValueError(f"unknown mass-function kind {self.kind!r}")
        if len(self.singletons) != self.frame.size:
            raise ValueError("one singleton mass per grade is required")
        for value in (*self.singletons, self.frame_mass, self.omega_mass):
            # tolerance absorbs float round-off at the [0, 1] boundaries
            if not -MASS_SUM_TOL <= value <= 1.0 + MASS_SUM_TOL:
                raise ValueError(f"mass {value!r} outside [0, 1]")
        if self.kind == BBA and self.omega_mass != 0.0:
            raise ValueError("a plain BBA cannot commit mass to Omega")
        total = _sum((*self.singletons, self.frame_mass, self.omega_mass))
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"masses sum to {total!r}, expected 1")

    @classmethod
    def from_masses(
        cls,
        frame: GradeFrame,
        singleton_masses: Mapping[str, float],
        frame_mass: float | None = None,
        omega_mass: float = 0.0,
        kind: str = BBA,
    ) -> "MassFunction":
        """Build from a grade->mass mapping.

        When ``frame_mass`` is None the residual mass is assigned to the
        frame, which is the common way assessments arise.
        """
        values = [0.0] * frame.size
        for grade, mass in singleton_masses.items():
            values[frame.index(grade)] = mass
        if frame_mass is None:
            frame_mass = 1.0 - _sum(values) - omega_mass
            if frame_mass < 0.0:
                if frame_mass < -MASS_SUM_TOL:
                    raise ValueError("masses add up beyond 1; no residual left for the frame")
                frame_mass = 0.0
        return cls(frame, tuple(values), frame_mass, omega_mass, kind)

    @classmethod
    def vacuous(cls, frame: GradeFrame) -> "MassFunction":
        """Total ignorance: all mass on the frame."""
        return cls(frame, (0.0,) * frame.size, 1.0)

    @classmethod
    def pure_omega(cls, frame: GradeFrame) -> "MassFunction":
        """All mass on the indecisiveness element (an IBBA)."""
        return cls(frame, (0.0,) * frame.size, 0.0, 1.0, IBBA)

    @property
    def singleton_masses(self) -> dict[str, float]:
        return dict(zip(self.frame.grades, self.singletons))

    def mass(self, grade: str) -> float:
        return self.singletons[self.frame.index(grade)]

    def as_ibba(self) -> "MassFunction":
        if self.kind == IBBA:
            return self
        return MassFunction(self.frame, self.singletons, self.frame_mass, 0.0, IBBA)

    def renormalized(self) -> "MassFunction":
        """Explicitly rescale masses to sum to one.

        Never applied implicitly: silently repairing an invalid input would
        hide data errors upstream.
        """
        total = _sum((*self.singletons, self.frame_mass, self.omega_mass))
        return MassFunction(
            self.frame,
            tuple(v / total for v in self.singletons),
            self.frame_mass / total,
            self.omega_mass / total,
            self.kind,
        )

    def to_general(self) -> "GeneralMassFunction":
        """Power-set view of a plain BBA (Omega has no power-set encoding)."""
        if self.omega_mass != 0.0:
            raise ValueError("only a plain BBA has a power-set representation")
        focal: dict[int, float] = {}
        for i, v in enumerate(self.singletons):
            if v > 0.0:
                focal[1 << i] = v
        if self.frame_mass > 0.0:
            focal[self.frame.full_mask()] = (
                focal.get(self.frame.full_mask(), 0.0) + self.frame_mass
            )
        return GeneralMassFunction(self.frame, focal)


@dataclass(frozen=True)
class GeneralMassFunction:
    """Mass function over arbitrary subsets, keyed by bitset.

    Brute-force companion of :class:`MassFunction`; used to cross-check the
    specialized combination rules on small frames.
    """

    frame: GradeFrame
    focal_masses: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for mask, value in self.focal_masses.items():
            self.frame._check_mask(mask)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"mass {value!r} outside [0, 1]")
            if mask == 0 and value != 0.0:
                raise ValueError("the empty subset cannot carry mass")
            if value > 0.0:
                cleaned[mask] = value
        total = _sum(cleaned.values())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"masses sum to {total!r}, expected 1")
        object.__setattr__(self, "focal_masses", cleaned)

    @classmethod
    def from_subsets(
        cls, frame: GradeFrame, masses: Mapping[Iterable[str] | int, float]
    ) -> "GeneralMassFunction":
        focal: dict[int, float] = {}
        for subset, value in masses.items():
            mask = _as_mask(frame, subset)
            focal[mask] = focal.get(mask, 0.0) + value
        return cls(frame, focal)


def _require_same_frame(a, b) -> None:
    if a.frame != b.frame:
        raise FrameMismatchError("operands are defined over different frames")


def belief(m: GeneralMassFunction, subset: int | Iterable[str]) -> float:
    """Total mass exactly committed to (non-empty) subsets of ``subset``."""
    mask = _as_mask(m.frame, subset)
    return _sum(v for b, v in m.focal_masses.items() if b != 0 and b & ~mask == 0)


def plausibility(m: GeneralMassFunction, subset: int | Iterable[str]) -> float:
    """Total mass of focal elements compatible with ``subset``."""
    mask = _as_mask(m.frame, subset)
    return _sum(v for b, v in m.focal_masses.items() if b & mask)


def pignistic(m: GeneralMassFunction) -> dict[str, float]:
    """Split each focal element's mass equally among its member grades."""
    probs = [0.0] * m.frame.size
    for mask, value in m.focal_masses.items():
        share = value / mask.bit_count()
        for i in range(m.frame.size):
            if mask >> i & 1:
                probs[i] += share
    return dict(zip(m.frame.grades, probs))


def pignistic_probability(m: GeneralMassFunction, subset: int | Iterable[str]) -> float:
    """Pignistic probability of an arbitrary grade subset."""
    mask = _as_mask(m.frame, subset)
    return _sum(
        value * (mask & b).bit_count() / b.bit_count()
        for b, value in m.focal_masses.items()
        if mask & b
    )


def assessment_to_bba(a) -> MassFunction:
    """Interpret belief degrees as singleton masses, residual as ignorance.

    ``a`` is any object with a ``frame``, ``degrees`` and ``unassigned``,
    such as an :class:`~erkit.algorithms.Assessment`.
    """
    return MassFunction(a.frame, a.degrees, a.unassigned)


def _require_plain(m: MassFunction, op: str) -> None:
    if m.kind != BBA or m.omega_mass != 0.0:
        raise ValueError(f"{op} expects a plain BBA, got an IBBA")


def _check_factor(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} factor {value!r} outside [0, 1]")


def reliability_discount(m: MassFunction, alpha: float) -> MassFunction:
    """Shafer discounting: scale all masses by ``alpha``, park the rest on the frame."""
    _check_factor(alpha, "reliability")
    _require_plain(m, "reliability_discount")
    return MassFunction(
        m.frame,
        tuple(alpha * v for v in m.singletons),
        alpha * m.frame_mass + (1 - alpha),
    )


def importance_discount(m: MassFunction, beta: float) -> MassFunction:
    """Scale every power-set mass by ``beta``; Omega absorbs the remainder."""
    _check_factor(beta, "importance")
    _require_plain(m, "importance_discount")
    return MassFunction(
        m.frame,
        tuple(beta * v for v in m.singletons),
        beta * m.frame_mass,
        1 - beta,
        IBBA,
    )


def reliability_importance_discount(m: MassFunction, alpha: float, beta: float) -> MassFunction:
    """Reliability then importance discounting in a single step.

    Operations are ordered exactly as the two-stage composition performs
    them, so the result is bit-for-bit equal to
    ``importance_discount(reliability_discount(m, alpha), beta)``.
    """
    _check_factor(alpha, "reliability")
    _check_factor(beta, "importance")
    _require_plain(m, "reliability_importance_discount")
    return MassFunction(
        m.frame,
        tuple(beta * (alpha * v) for v in m.singletons),
        beta * (alpha * m.frame_mass + (1 - alpha)),
        1 - beta,
        IBBA,
    )


def _singleton_conflict(a, b) -> float:
    """Mass product landing on the empty set: all pairs of distinct singletons."""
    total_a = _sum(a)
    total_b = _sum(b)
    agree = _sum(x * y for x, y in zip(a, b))
    return total_a * total_b - agree


def dempster_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's orthogonal sum on the singleton-plus-frame focal structure."""
    _require_plain(m1, "dempster_combine")
    _require_plain(m2, "dempster_combine")
    _require_same_frame(m1, m2)
    denom = 1 - _singleton_conflict(m1.singletons, m2.singletons)
    if denom <= CONFLICT_TOL:
        raise CompleteConflictError("the two mass functions are in total conflict")
    k = 1 / denom
    singles = tuple(
        k * (a * b + a * m2.frame_mass + m1.frame_mass * b)
        for a, b in zip(m1.singletons, m2.singletons)
    )
    return MassFunction(m1.frame, singles, k * m1.frame_mass * m2.frame_mass)


def extended_dempster_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Orthogonal sum extended with the indecisiveness element.

    Omega intersects every non-empty focal element, so it behaves like the
    frame during conflict accounting but survives only against itself.
    Plain BBAs are accepted and treated as IBBAs without Omega mass.
    """
    _require_same_frame(m1, m2)
    denom = 1 - _singleton_conflict(m1.singletons, m2.singletons)
    if denom <= CONFLICT_TOL:
        raise CompleteConflictError("the two mass functions are in total conflict")
    k = 1 / denom
    vague1 = m1.frame_mass + m1.omega_mass
    vague2 = m2.frame_mass + m2.omega_mass
    singles = tuple(
        k * (a * b + a * vague2 + vague1 * b)
        for a, b in zip(m1.singletons, m2.singletons)
    )
    frame_mass = k * (
        m1.frame_mass * m2.frame_mass
        + m1.frame_mass * m2.omega_mass
        + m1.omega_mass * m2.frame_mass
    )
    omega = k * m1.omega_mass * m2.omega_mass
    return MassFunction(m1.frame, singles, frame_mass, omega, IBBA)


def normalize_ibba(m: MassFunction) -> MassFunction:
    """Fold Omega mass back onto the power set, proportionally."""
    if m.omega_mass >= 1.0 - CONFLICT_TOL:
        raise DegenerateMassError("all mass sits on Omega; nothing to normalize")
    if m.omega_mass == 0.0:
        return MassFunction(m.frame, m.singletons, m.frame_mass)
    scale = 1 / (1 - m.omega_mass)
    return MassFunction(
        m.frame,
        tuple(scale * v for v in m.singletons),
        scale * m.frame_mass,
    )


def generic_combine(m1: GeneralMassFunction, m2: GeneralMassFunction) -> GeneralMassFunction:
    """Dempster's rule over arbitrary focal elements (testing oracle).

    Quadratic in the number of focal elements; refuses frames too large for
    the power-set representation to stay honest.
    """
    _require_same_frame(m1, m2)
    if m1.frame.size > 20:
        raise ValueError("generic combination is limited to frames of at most 20 grades")
    acc: dict[int, float] = {}
    conflict = 0
    for b, vb in m1.focal_masses.items():
        for c, vc in m2.focal_masses.items():
            meet = b & c
            if meet == 0:
                conflict += vb * vc
            else:
                acc[meet] = acc.get(meet, 0) + vb * vc
    denom = 1 - conflict
    if denom <= CONFLICT_TOL:
        raise CompleteConflictError("the two mass functions are in total conflict")
    return GeneralMassFunction(m1.frame, {mask: v / denom for mask, v in acc.items()})
