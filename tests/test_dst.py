"""Unit and property tests for the belief-function primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erkit import (
    CompleteConflictError,
    DegenerateMassError,
    FrameMismatchError,
    GeneralMassFunction,
    GradeFrame,
    MassFunction,
    belief,
    dempster_combine,
    extended_dempster_combine,
    generic_combine,
    importance_discount,
    normalize_ibba,
    pignistic,
    pignistic_probability,
    plausibility,
    reliability_discount,
    reliability_importance_discount,
)
from erkit.dst import IBBA

from randgen import frame_of, random_general, random_ibba, random_plain_bba

H5 = frame_of(5)
H3 = frame_of(3)


def approx(value, expected, tol=1e-12):
    assert value == pytest.approx(expected, abs=tol), (value, expected)


def masses_close(m1: MassFunction, m2: MassFunction, tol=1e-12):
    for a, b in zip(m1.singletons, m2.singletons):
        approx(a, b, tol)
    approx(m1.frame_mass, m2.frame_mass, tol)
    approx(m1.omega_mass, m2.omega_mass, tol)


# ---------------------------------------------------------------------------
# frames and construction
# ---------------------------------------------------------------------------


class TestGradeFrame:
    def test_requires_two_grades(self):
        with pytest.raises(ValueError):
            GradeFrame(["only"])

    def test_rejects_duplicates_and_empty_labels(self):
        with pytest.raises(ValueError):
            GradeFrame(["a", "a"])
        with pytest.raises(ValueError):
            GradeFrame(["a", ""])

    def test_mask_round_trip(self):
        mask = H5.subset_mask(["g0", "g3"])
        assert H5.mask_labels(mask) == ("g0", "g3")

    def test_unknown_grade_is_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            H5.subset_mask(["nope"])


class TestMassFunctionValidity:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            MassFunction(H3, (0.5, 0.1, 0.0), 0.0)

    def test_plain_bba_rejects_omega(self):
        with pytest.raises(ValueError):
            MassFunction(H3, (0.5, 0.0, 0.0), 0.2, 0.3)

    def test_masses_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            MassFunction(H3, (1.5, 0.0, 0.0), -0.5)

    def test_from_masses_residual_goes_to_frame(self):
        m = MassFunction.from_masses(H3, {"g0": 0.4, "g2": 0.1})
        approx(m.frame_mass, 0.5)
        assert m.singleton_masses == {"g0": 0.4, "g1": 0.0, "g2": 0.1}

    def test_from_masses_overcommitted_rejected(self):
        with pytest.raises(ValueError):
            MassFunction.from_masses(H3, {"g0": 0.8, "g1": 0.4})

    def test_renormalized_is_explicit(self):
        m = MassFunction(H3, (0.25, 0.25, 0.0), 0.5)
        scaled = MassFunction(
            H3, (0.125, 0.125, 0.0), 0.25, 0.5, IBBA
        )
        back = scaled.renormalized()
        approx(math.fsum((*back.singletons, back.frame_mass, back.omega_mass)), 1.0)


    def test_from_masses_clamps_a_residual_overshoot_within_tolerance(self):
        m = MassFunction.from_masses(H3, {"g0": 0.7, "g1": 0.3 + 1e-12})
        assert m.frame_mass == 0.0

    def test_as_ibba_of_an_ibba_is_itself(self):
        m = MassFunction.pure_omega(H3)
        assert m.as_ibba() is m


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(lambda: H3.mask_labels(0b1000), FrameMismatchError, "does not fit", id="bitset-beyond-frame"),
        pytest.param(
            lambda: MassFunction(H3, (1.0, 0.0, 0.0), 0.0, kind="bpa"), ValueError, "unknown mass-function kind",
            id="unknown-kind",
        ),
        pytest.param(
            lambda: MassFunction(H3, (1.0, 0.0), 0.0), ValueError, "one singleton mass per grade", id="singleton-count"
        ),
        pytest.param(
            lambda: MassFunction.pure_omega(H3).to_general(), ValueError, "only a plain BBA", id="power-set-of-ibba"
        ),
        pytest.param(
            lambda: GeneralMassFunction(H3, {0b001: 1.5, 0b010: -0.5}), ValueError, "outside", id="general-mass-range"
        ),
        pytest.param(
            lambda: GeneralMassFunction(H3, {0: 0.5, 0b001: 0.5}), ValueError, "empty subset", id="general-empty-subset"
        ),
        pytest.param(lambda: GeneralMassFunction(H3, {0b001: 0.5}), ValueError, "sum to", id="general-mass-sum"),
    ],
)
def test_each_mass_function_check_raises(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_from_subsets_takes_bitsets_and_grade_collections():
    m = GeneralMassFunction.from_subsets(H3, {0b011: 0.6, H3.grades: 0.4})
    assert m.focal_masses == {0b011: 0.6, 0b111: 0.4}


# ---------------------------------------------------------------------------
# belief / plausibility / pignistic
# ---------------------------------------------------------------------------


MIXED = GeneralMassFunction.from_subsets(
    H5, {("g0",): 0.5, ("g0", "g1"): 0.3, H5.grades: 0.2}
)


class TestBeliefPlausibility:
    def test_certain_singleton(self):
        m = GeneralMassFunction.from_subsets(H5, {("g0",): 1.0})
        approx(belief(m, ["g0"]), 1.0)
        approx(plausibility(m, ["g1"]), 0.0)

    def test_vacuous_gives_no_exact_support(self):
        m = GeneralMassFunction.from_subsets(H5, {H5.grades: 1.0})
        approx(belief(m, ["g0"]), 0.0)
        approx(plausibility(m, ["g0"]), 1.0)
        approx(plausibility(m, ["g1", "g4"]), 1.0)

    def test_hand_summed_focal_sets(self):
        # contained: {g0} and {g0,g1}; intersecting {g1}: {g0,g1} and the frame
        approx(belief(MIXED, ["g0", "g1"]), 0.8)
        approx(plausibility(MIXED, ["g1"]), 0.5)

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            belief(MIXED, ["zzz"])

    def test_empty_subset(self):
        approx(belief(MIXED, []), 0.0)
        approx(plausibility(MIXED, []), 0.0)


class TestPignistic:
    def test_certain_singleton(self):
        m = GeneralMassFunction.from_subsets(H5, {("g0",): 1.0})
        assert pignistic(m) == {"g0": 1.0, "g1": 0.0, "g2": 0.0, "g3": 0.0, "g4": 0.0}

    def test_half_singleton_half_frame(self):
        m = GeneralMassFunction.from_subsets(H5, {("g0",): 0.5, H5.grades: 0.5})
        result = pignistic(m)
        approx(result["g0"], 0.6)
        for g in ("g1", "g2", "g3", "g4"):
            approx(result[g], 0.1)

    def test_total_ignorance_is_uniform(self):
        m = GeneralMassFunction.from_subsets(H5, {H5.grades: 1.0})
        for p in pignistic(m).values():
            approx(p, 0.2)

    def test_subset_pignistic(self):
        m = GeneralMassFunction.from_subsets(H5, {("g0",): 0.5, H5.grades: 0.5})
        approx(pignistic_probability(m, ["g0", "g1"]), 0.5 + 0.5 * 2 / 5)

    def test_normalization_and_bounds_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = random_general(rng, frame_of(int(rng.integers(2, 6))))
            probs = pignistic(m)
            approx(math.fsum(probs.values()), 1.0, 1e-9)
            for g in m.frame.grades:
                assert belief(m, [g]) - 1e-12 <= probs[g] <= plausibility(m, [g]) + 1e-12

    def test_bayesian_mass_is_fixed_point(self):
        m = GeneralMassFunction.from_subsets(H3, {("g0",): 0.25, ("g1",): 0.5, ("g2",): 0.25})
        assert pignistic(m) == {"g0": 0.25, "g1": 0.5, "g2": 0.25}


# ---------------------------------------------------------------------------
# discounting
# ---------------------------------------------------------------------------


FEEL_AT_CONTROL = MassFunction.from_masses(H5, {"g3": 0.5, "g4": 0.3})


class TestReliabilityDiscount:
    def test_full_reliability_is_identity(self):
        masses_close(reliability_discount(FEEL_AT_CONTROL, 1.0), FEEL_AT_CONTROL, 0)

    def test_zero_reliability_is_vacuous(self):
        masses_close(reliability_discount(FEEL_AT_CONTROL, 0.0), MassFunction.vacuous(H5), 0)

    def test_hand_computed_example(self):
        m = reliability_discount(FEEL_AT_CONTROL, 0.2)
        approx(m.mass("g3"), 0.1)
        approx(m.mass("g4"), 0.06)
        approx(m.frame_mass, 0.84)

    def test_rejects_bad_factor_and_ibba(self):
        with pytest.raises(ValueError):
            reliability_discount(FEEL_AT_CONTROL, 1.1)
        with pytest.raises(ValueError):
            reliability_discount(MassFunction.pure_omega(H5), 0.5)


class TestImportanceDiscount:
    def test_full_importance_keeps_masses(self):
        m = importance_discount(FEEL_AT_CONTROL, 1.0)
        assert m.kind == IBBA
        approx(m.omega_mass, 0.0)
        for a, b in zip(m.singletons, FEEL_AT_CONTROL.singletons):
            approx(a, b, 0)

    def test_zero_importance_is_pure_omega(self):
        m = importance_discount(FEEL_AT_CONTROL, 0.0)
        approx(m.omega_mass, 1.0)
        approx(math.fsum(m.singletons) + m.frame_mass, 0.0)

    def test_hand_computed_example(self):
        m = importance_discount(FEEL_AT_CONTROL, 0.3)
        approx(m.mass("g3"), 0.15)
        approx(m.mass("g4"), 0.09)
        approx(m.frame_mass, 0.06)
        approx(m.omega_mass, 0.7)

    def test_rejects_ibba_input(self):
        with pytest.raises(ValueError):
            importance_discount(importance_discount(FEEL_AT_CONTROL, 0.5), 0.5)


class TestReliabilityImportanceDiscount:
    def test_both_full_is_identity_with_zero_omega(self):
        m = reliability_importance_discount(FEEL_AT_CONTROL, 1.0, 1.0)
        assert m.kind == IBBA
        approx(m.omega_mass, 0.0)
        for a, b in zip(m.singletons, FEEL_AT_CONTROL.singletons):
            assert a == b

    def test_full_importance_collapses_to_reliability_discount(self):
        m = reliability_importance_discount(FEEL_AT_CONTROL, 0.5, 1.0)
        r = reliability_discount(FEEL_AT_CONTROL, 0.5)
        assert m.singletons == r.singletons
        assert m.frame_mass == r.frame_mass

    def test_hand_computed_example(self):
        # responsiveness-style assessment: one strong grade, rest unassigned
        m0 = MassFunction.from_masses(H5, {"g4": 0.8})
        m = reliability_importance_discount(m0, 0.6, 0.2)
        approx(m.mass("g4"), 0.096)
        approx(m.frame_mass, 0.104)
        approx(m.omega_mass, 0.8)

    def test_equals_composition_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            frame = frame_of(int(rng.integers(2, 6)))
            m = random_plain_bba(rng, frame)
            alpha = float(rng.uniform(0, 1))
            beta = float(rng.uniform(0, 1))
            joint = reliability_importance_discount(m, alpha, beta)
            staged = importance_discount(reliability_discount(m, alpha), beta)
            assert joint.singletons == staged.singletons
            assert joint.frame_mass == staged.frame_mass
            assert joint.omega_mass == staged.omega_mass


# ---------------------------------------------------------------------------
# combination rules
# ---------------------------------------------------------------------------


class TestDempsterCombine:
    def test_vacuous_is_neutral(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_plain_bba(rng, H5)
            masses_close(dempster_combine(m, MassFunction.vacuous(H5)), m)
            masses_close(dempster_combine(MassFunction.vacuous(H5), m), m)

    def test_agreement(self):
        m = MassFunction.from_masses(H3, {"g0": 1.0})
        combined = dempster_combine(m, m)
        approx(combined.mass("g0"), 1.0)

    def test_total_conflict_raises(self):
        m1 = MassFunction.from_masses(H3, {"g0": 1.0})
        m2 = MassFunction.from_masses(H3, {"g1": 1.0})
        with pytest.raises(CompleteConflictError):
            dempster_combine(m1, m2)

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            dempster_combine(MassFunction.vacuous(H3), MassFunction.vacuous(H5))

    def test_matches_generic_combination(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            frame = frame_of(int(rng.integers(2, 6)))
            m1 = random_plain_bba(rng, frame)
            m2 = random_plain_bba(rng, frame)
            fast = dempster_combine(m1, m2)
            slow = generic_combine(m1.to_general(), m2.to_general())
            for i, g in enumerate(frame.grades):
                approx(fast.singletons[i], slow.focal_masses.get(1 << i, 0.0))
            approx(fast.frame_mass, slow.focal_masses.get(frame.full_mask(), 0.0))


def three_way_extended_oracle(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Literal orthogonal sum over the explicit singleton/frame/Omega structure."""

    def focal(m):
        out = {}
        for i, v in enumerate(m.singletons):
            if v:
                out[("s", i)] = v
        if m.frame_mass:
            out["H"] = m.frame_mass
        if m.omega_mass:
            out["O"] = m.omega_mass
        return out

    def meet(a, b):
        if a == b:
            return a
        if a == "O":
            return b
        if b == "O":
            return a
        if a == "H":
            return b
        if b == "H":
            return a
        return None  # two distinct singletons

    acc: dict = {}
    conflict = 0.0
    for a, va in focal(m1).items():
        for b, vb in focal(m2).items():
            c = meet(a, b)
            if c is None:
                conflict += va * vb
            else:
                acc[c] = acc.get(c, 0.0) + va * vb
    k = 1.0 / (1.0 - conflict)
    singles = [0.0] * m1.frame.size
    for key, value in acc.items():
        if key not in ("H", "O"):
            singles[key[1]] = k * value
    return MassFunction(
        m1.frame, tuple(singles), k * acc.get("H", 0.0), k * acc.get("O", 0.0), IBBA
    )


class TestExtendedCombine:
    def test_reduces_to_dempster_without_omega(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m1 = random_plain_bba(rng, H5)
            m2 = random_plain_bba(rng, H5)
            ext = extended_dempster_combine(m1, m2)
            plain = dempster_combine(m1, m2)
            approx(ext.omega_mass, 0.0, 0)
            masses_close(
                MassFunction(H5, ext.singletons, ext.frame_mass), plain, 1e-12
            )

    def test_pure_omega_is_neutral(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = random_ibba(rng, H5)
            masses_close(extended_dempster_combine(m, MassFunction.pure_omega(H5)), m)

    def test_hand_computed_example(self):
        m1 = MassFunction.from_masses(H3, {"g0": 0.3}, frame_mass=0.0, omega_mass=0.7, kind=IBBA)
        m2 = MassFunction.from_masses(H3, {"g1": 0.4}, frame_mass=0.0, omega_mass=0.6, kind=IBBA)
        combined = extended_dempster_combine(m1, m2)
        k = 1.0 / (1.0 - 0.12)
        approx(combined.mass("g0"), 0.18 * k)
        approx(combined.mass("g1"), 0.28 * k)
        approx(combined.omega_mass, 0.42 * k)
        approx(combined.frame_mass, 0.0)

    def test_matches_three_way_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            frame = frame_of(int(rng.integers(2, 6)))
            m1 = random_ibba(rng, frame)
            m2 = random_ibba(rng, frame)
            masses_close(
                extended_dempster_combine(m1, m2), three_way_extended_oracle(m1, m2)
            )

    def test_total_conflict_raises(self):
        m1 = MassFunction.from_masses(H3, {"g0": 1.0}).as_ibba()
        m2 = MassFunction.from_masses(H3, {"g1": 1.0}).as_ibba()
        with pytest.raises(CompleteConflictError):
            extended_dempster_combine(m1, m2)


class TestNormalizeIbba:
    def test_identity_without_omega(self):
        m = MassFunction.from_masses(H3, {"g0": 0.5}).as_ibba()
        masses_close(normalize_ibba(m), MassFunction.from_masses(H3, {"g0": 0.5}), 0)

    def test_proportional_rescale(self):
        m = MassFunction.from_masses(
            H3, {"g0": 0.25}, frame_mass=0.25, omega_mass=0.5, kind=IBBA
        )
        normalized = normalize_ibba(m)
        approx(normalized.mass("g0"), 0.5)
        approx(normalized.frame_mass, 0.5)
        approx(normalized.omega_mass, 0.0, 0)

    def test_chains_with_extended_combine(self):
        m1 = MassFunction.from_masses(H3, {"g0": 0.3}, frame_mass=0.0, omega_mass=0.7, kind=IBBA)
        m2 = MassFunction.from_masses(H3, {"g1": 0.4}, frame_mass=0.0, omega_mass=0.6, kind=IBBA)
        combined = extended_dempster_combine(m1, m2)
        normalized = normalize_ibba(combined)
        scale = 1.0 / (1.0 - combined.omega_mass)
        approx(normalized.mass("g0"), combined.mass("g0") * scale)
        approx(normalized.mass("g1"), combined.mass("g1") * scale)

    def test_degenerate_omega_raises(self):
        with pytest.raises(DegenerateMassError):
            normalize_ibba(MassFunction.pure_omega(H3))


class TestGenericCombine:
    def test_vacuous_neutral(self):
        m = MIXED
        vac = GeneralMassFunction.from_subsets(H5, {H5.grades: 1.0})
        combined = generic_combine(m, vac)
        for mask, value in m.focal_masses.items():
            approx(combined.focal_masses.get(mask, 0.0), value)

    def test_subset_intersection(self):
        m1 = GeneralMassFunction.from_subsets(H3, {("g0", "g1"): 1.0})
        m2 = GeneralMassFunction.from_subsets(H3, {("g1", "g2"): 1.0})
        combined = generic_combine(m1, m2)
        assert combined.focal_masses == {H3.subset_mask(["g1"]): 1.0}

    def test_total_conflict(self):
        m1 = GeneralMassFunction.from_subsets(H3, {("g0",): 1.0})
        m2 = GeneralMassFunction.from_subsets(H3, {("g1",): 1.0})
        with pytest.raises(CompleteConflictError):
            generic_combine(m1, m2)

    def test_frame_size_limit(self):
        big = frame_of(21)
        m = GeneralMassFunction.from_subsets(big, {big.grades: 1.0})
        with pytest.raises(ValueError):
            generic_combine(m, m)


# ---------------------------------------------------------------------------
# algebraic properties (hypothesis)
# ---------------------------------------------------------------------------


@st.composite
def plain_bbas(draw, frame=H3):
    weights = draw(
        st.lists(
            st.integers(0, 1000), min_size=frame.size + 1, max_size=frame.size + 1
        ).filter(lambda w: sum(w) > 0)
    )
    total = sum(weights)
    singles = tuple(w / total for w in weights[:-1])
    return MassFunction(frame, singles, max(0.0, 1.0 - math.fsum(singles)))


@given(plain_bbas(), plain_bbas())
def test_combination_commutes(m1, m2):
    try:
        ab = dempster_combine(m1, m2)
    except CompleteConflictError:
        with pytest.raises(CompleteConflictError):
            dempster_combine(m2, m1)
        return
    ba = dempster_combine(m2, m1)
    for a, b in zip(ab.singletons, ba.singletons):
        assert a == pytest.approx(b, abs=1e-12)
    assert ab.frame_mass == pytest.approx(ba.frame_mass, abs=1e-12)


@given(plain_bbas(), plain_bbas(), plain_bbas())
@settings(max_examples=200)
def test_combination_associates(m1, m2, m3):
    try:
        left = dempster_combine(dempster_combine(m1, m2), m3)
        right = dempster_combine(m1, dempster_combine(m2, m3))
    except CompleteConflictError:
        return
    for a, b in zip(left.singletons, right.singletons):
        assert a == pytest.approx(b, abs=1e-9)
    assert left.frame_mass == pytest.approx(right.frame_mass, abs=1e-9)


@given(plain_bbas(), st.floats(0, 1), st.floats(0, 1))
def test_discounting_composition_property(m, alpha, beta):
    joint = reliability_importance_discount(m, alpha, beta)
    staged = importance_discount(reliability_discount(m, alpha), beta)
    assert joint.singletons == staged.singletons
    assert joint.frame_mass == staged.frame_mass
    assert joint.omega_mass == staged.omega_mass


@given(plain_bbas(), plain_bbas())
def test_validity_closure(m1, m2):
    try:
        combined = extended_dempster_combine(m1, m2)
    except CompleteConflictError:
        return
    total = math.fsum((*combined.singletons, combined.frame_mass, combined.omega_mass))
    assert total == pytest.approx(1.0, abs=1e-9)
