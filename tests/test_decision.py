"""Tests for the decision layer."""

import math

import numpy as np
import pytest

from erkit import (
    BatchEvaluation,
    CombinedAssessment,
    MassFunction,
    UtilityFunction,
    decide,
    expected_utility,
    pignistic,
    rank,
    redistribute_unknown,
)

from randgen import frame_of

H5 = frame_of(5)
U5 = UtilityFunction.evenly_spaced(H5)


class TestUtilityFunction:
    def test_default_ladder(self):
        assert U5.values == (0.2, 0.4, 0.6, 0.8, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            UtilityFunction(H5, (0.2, 0.4, 0.6, 0.8, 1.2))

    def test_missing_grade_rejected(self):
        with pytest.raises(ValueError):
            UtilityFunction.from_mapping(H5, {"g0": 0.1})

    def test_grade_outside_the_frame_rejected(self):
        with pytest.raises(ValueError, match=r"grades outside the frame \['bogus'\]"):
            UtilityFunction.from_mapping(H5, {**U5.by_grade, "bogus": 0.5})

    def test_one_utility_per_grade(self):
        with pytest.raises(ValueError, match="one utility per grade"):
            UtilityFunction(H5, (0.5, 1.0))

    def test_non_monotone_warns_but_builds(self):
        with pytest.warns(UserWarning) as caught:
            u = UtilityFunction(H5, (0.2, 0.1, 0.6, 0.8, 1.0))
        # The warning names the line that built the function, not the dataclass's __init__.
        assert caught[0].filename == __file__
        assert u.of("g1") == 0.1

    def test_the_warning_names_the_caller_of_from_mapping(self):
        with pytest.warns(UserWarning, match="not non-decreasing") as caught:
            UtilityFunction.from_mapping(H5, dict(zip(H5.grades, (0.2, 0.1, 0.6, 0.8, 1.0))))
        assert [record.filename for record in caught] == [__file__]


class TestRedistributeUnknown:
    def test_no_unknown_is_identity(self):
        c = CombinedAssessment(H5, (0.1, 0.2, 0.3, 0.4, 0.0), 0.0)
        assert redistribute_unknown(c) == c.assigned_degrees

    def test_total_ignorance_is_uniform(self):
        c = CombinedAssessment(H5, (0.0,) * 5, 1.0)
        for value in redistribute_unknown(c).values():
            assert value == pytest.approx(0.2)

    def test_even_share(self):
        c = CombinedAssessment(H5, (0.0, 0.0, 0.0, 0.0, 0.9), 0.1)
        degrees = redistribute_unknown(c)
        assert degrees["g4"] == pytest.approx(0.92)
        for g in ("g0", "g1", "g2", "g3"):
            assert degrees[g] == pytest.approx(0.02)

    def test_sums_to_one_and_preserves_argmax(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            raw = rng.dirichlet(np.ones(6))
            c = CombinedAssessment(
                H5, tuple(float(v) for v in raw[:-1]), 1.0 - float(np.sum(raw[:-1]))
            )
            degrees = redistribute_unknown(c)
            assert math.fsum(degrees.values()) == pytest.approx(1.0, abs=1e-9)
            assert max(degrees, key=degrees.get) == max(
                c.assigned_degrees, key=c.assigned_degrees.get
            )

    def test_matches_singleton_pignistic_of_mass_view(self):
        # independent route: treat the combined degrees as a mass function
        # and take its pignistic probabilities
        rng = np.random.default_rng(22)
        for _ in range(200):
            raw = rng.dirichlet(np.ones(6))
            c = CombinedAssessment(
                H5, tuple(float(v) for v in raw[:-1]), 1.0 - float(np.sum(raw[:-1]))
            )
            degrees = redistribute_unknown(c)
            mass = MassFunction(H5, c.assigned, c.unassigned)
            betp = pignistic(mass.to_general())
            for g in H5.grades:
                assert degrees[g] == pytest.approx(betp[g], abs=1e-12)


class TestExpectedUtility:
    def test_certain_best_grade(self):
        assert expected_utility({"g4": 1.0}, U5) == pytest.approx(1.0)

    def test_uniform_is_mean_utility(self):
        degrees = {g: 0.2 for g in H5.grades}
        assert expected_utility(degrees, U5) == pytest.approx(0.6)

    def test_requires_normalized_degrees(self):
        with pytest.raises(ValueError):
            expected_utility({"g4": 0.5}, U5)

    def test_unknown_grade_rejected(self):
        with pytest.raises(ValueError):
            expected_utility({"g4": 0.5, "zzz": 0.5}, U5)

    def test_monotone_under_mass_transfer(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            raw = rng.dirichlet(np.ones(5))
            degrees = dict(zip(H5.grades, (float(v) for v in raw)))
            base = expected_utility(degrees, U5)
            lo, hi = sorted(rng.choice(5, size=2, replace=False))
            shift = degrees[f"g{lo}"] * float(rng.uniform(0, 1))
            degrees[f"g{lo}"] -= shift
            degrees[f"g{hi}"] += shift
            assert expected_utility(degrees, U5) >= base - 1e-12


class TestRank:
    def test_descending_order(self):
        utilities = {"K": 0.7943, "Y": 0.7396, "H": 0.8668, "B": 0.8782}
        assert rank(utilities) == ["B", "H", "K", "Y"]

    def test_ties_keep_declaration_order(self):
        assert rank({"x": 0.5, "y": 0.5, "z": 0.7}) == ["z", "x", "y"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank({})

    def test_is_permutation(self):
        rng = np.random.default_rng(24)
        alts = [f"a{i}" for i in range(8)]
        utilities = {a: float(rng.uniform(0, 1)) for a in alts}
        assert sorted(rank(utilities)) == sorted(alts)


class TestDecide:
    def test_bundles_degrees_utilities_and_ranking(self):
        batch = BatchEvaluation(
            "e2r", H5, ("good", "better"), ("root",),
            assigned=np.array([[[0.0, 0.0, 0.0, 0.9, 0.0], [0.0, 0.0, 0.0, 0.0, 0.9]]]),
            unassigned=np.array([[0.1, 0.1]]),
        )
        result = decide(batch, U5)
        assert result.ranking == ("better", "good")
        assert result.utilities["better"] > result.utilities["good"]
        assert math.fsum(result.degrees[0]) == pytest.approx(1.0)

    def test_utility_over_another_frame_rejected(self):
        batch = BatchEvaluation(
            "e2r", H5, ("only",), ("root",),
            assigned=np.array([[[0.0, 0.0, 0.0, 0.0, 1.0]]]),
            unassigned=np.array([[0.0]]),
        )
        with pytest.raises(ValueError, match="different frame"):
            decide(batch, UtilityFunction.evenly_spaced(frame_of(3)))
