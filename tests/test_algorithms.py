"""Tests for the flat aggregation algorithms.

The central checks are the dual-route equivalences: each aggregator's
closed-form recursion must match the corresponding discount-and-combine
pipeline assembled from the mass-function primitives.
"""

from functools import reduce

import numpy as np
import pytest

from erkit import (
    AggregationTrace,
    Assessment,
    CombinedAssessment,
    CompleteConflictError,
    DegenerateMassError,
    FrameMismatchError,
    WeightSumError,
    WeightedAssessment,
    assessment_to_bba,
    dempster_combine,
    e2r_aggregate,
    extended_dempster_combine,
    importance_discount,
    mer_aggregate,
    normalize_ibba,
    oer_aggregate,
    reliability_discount,
    reliability_importance_discount,
)

from randgen import frame_of, random_assessment, random_items

H5 = frame_of(5)


# ---------------------------------------------------------------------------
# pipeline oracles
# ---------------------------------------------------------------------------


def reliability_pipeline(items) -> CombinedAssessment:
    """Shafer-discount each item by its weight, then fold with Dempster's rule."""
    discounted = [
        reliability_discount(assessment_to_bba(item.assessment), item.weight)
        for item in items
    ]
    combined = reduce(dempster_combine, discounted)
    return CombinedAssessment(combined.frame, combined.singletons, combined.frame_mass)


def importance_pipeline(items) -> CombinedAssessment:
    """Importance-discount, fold with the extended rule, fold Omega back."""
    discounted = [
        importance_discount(assessment_to_bba(item.assessment), item.weight)
        for item in items
    ]
    combined = normalize_ibba(reduce(extended_dempster_combine, discounted))
    return CombinedAssessment(combined.frame, combined.singletons, combined.frame_mass)


def two_factor_pipeline(items) -> CombinedAssessment:
    """Joint discounting, extended combination, final normalization."""
    discounted = [
        reliability_importance_discount(
            assessment_to_bba(item.assessment), item.reliability, item.importance
        )
        for item in items
    ]
    combined = normalize_ibba(reduce(extended_dempster_combine, discounted))
    return CombinedAssessment(combined.frame, combined.singletons, combined.frame_mass)


def combined_close(a: CombinedAssessment, b: CombinedAssessment, tol=1e-10):
    for x, y in zip(a.assigned, b.assigned):
        assert x == pytest.approx(y, abs=tol), (a, b)
    assert a.unassigned == pytest.approx(b.unassigned, abs=tol)


def combined_equal(a: CombinedAssessment, b: CombinedAssessment):
    """Bit-identical degrees: both results came out of the same float operations."""
    assert a.assigned == b.assigned, (a, b)
    assert a.unassigned == b.unassigned, (a, b)


# ---------------------------------------------------------------------------
# assessments and conversion
# ---------------------------------------------------------------------------


class TestAssessment:
    def test_degrees_must_not_exceed_one(self):
        with pytest.raises(ValueError):
            Assessment.from_degrees(H5, {"g0": 0.7, "g1": 0.5})

    def test_unassigned_residual(self):
        a = Assessment.from_degrees(H5, {"g3": 0.5, "g4": 0.3})
        assert a.unassigned == pytest.approx(0.2)
        assert not a.is_complete

    def test_factors_validated(self):
        a = Assessment.from_degrees(H5, {"g4": 1.0})
        with pytest.raises(ValueError):
            WeightedAssessment(a, weight=1.5)
        with pytest.raises(ValueError):
            WeightedAssessment(a, reliability=-0.1)


class TestAssessmentToBba:
    def test_complete_certain(self):
        m = assessment_to_bba(Assessment.from_degrees(H5, {"g4": 1.0}))
        assert m.mass("g4") == 1.0
        assert m.frame_mass == 0.0

    def test_probabilistic_judgment(self):
        m = assessment_to_bba(Assessment.from_degrees(H5, {"g2": 0.4, "g3": 0.6}))
        assert m.mass("g2") == pytest.approx(0.4)
        assert m.mass("g3") == pytest.approx(0.6)
        assert m.frame_mass == pytest.approx(0.0)

    def test_incomplete_judgment_leaves_frame_mass(self):
        m = assessment_to_bba(Assessment.from_degrees(H5, {"g3": 0.5, "g4": 0.3}))
        assert m.frame_mass == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# reliability-interpreted aggregation
# ---------------------------------------------------------------------------


class TestOerAggregate:
    def test_single_full_weight_item_is_identity(self):
        a = Assessment.from_degrees(H5, {"g2": 0.4, "g3": 0.6})
        result = oer_aggregate([WeightedAssessment(a, weight=1.0)])
        assert result.assigned == a.degrees
        assert result.unassigned == pytest.approx(0.0)

    def test_consensus_of_certain_assessments(self):
        a = Assessment.from_degrees(H5, {"g4": 1.0})
        result = oer_aggregate([WeightedAssessment(a, weight=1.0)] * 2)
        assert result.degree("g4") == pytest.approx(1.0)

    def test_total_conflict_raises(self):
        a = WeightedAssessment(Assessment.from_degrees(H5, {"g0": 1.0}), weight=1.0)
        b = WeightedAssessment(Assessment.from_degrees(H5, {"g4": 1.0}), weight=1.0)
        with pytest.raises(CompleteConflictError):
            oer_aggregate([a, b])

    def test_matches_reliability_pipeline(self):
        rng = np.random.default_rng(101)
        for _ in range(400):
            items = random_items(rng)
            combined_close(oer_aggregate(items), reliability_pipeline(items))


# ---------------------------------------------------------------------------
# importance-interpreted aggregation
# ---------------------------------------------------------------------------


def normalized(items):
    total = sum(item.weight for item in items)
    return [
        WeightedAssessment(i.assessment, weight=i.weight / total, reliability=i.reliability, importance=i.importance)
        for i in items
    ]


class TestMerAggregate:
    def test_weight_sum_enforced(self):
        a = Assessment.from_degrees(H5, {"g4": 1.0})
        with pytest.raises(WeightSumError):
            mer_aggregate([WeightedAssessment(a, weight=0.9)] * 2)

    def test_consensus_is_preserved(self):
        a = Assessment.from_degrees(H5, {"g4": 1.0})
        result = mer_aggregate(
            [WeightedAssessment(a, weight=0.25), WeightedAssessment(a, weight=0.75)]
        )
        assert result.degree("g4") == pytest.approx(1.0, abs=1e-9)

    def test_untouched_grade_stays_zero(self):
        items = [
            WeightedAssessment(Assessment.from_degrees(H5, {"g1": 0.5, "g2": 0.5}), weight=0.5),
            WeightedAssessment(Assessment.from_degrees(H5, {"g2": 0.7}), weight=0.5),
        ]
        result = mer_aggregate(items)
        assert result.degree("g0") == 0.0
        assert result.degree("g4") == 0.0

    def test_matches_importance_pipeline(self):
        rng = np.random.default_rng(202)
        for _ in range(400):
            items = random_items(rng, normalized_weights=True)
            combined_close(mer_aggregate(items), importance_pipeline(items))


# ---------------------------------------------------------------------------
# two-factor aggregation
# ---------------------------------------------------------------------------


class TestE2rAggregate:
    def test_full_importance_reduces_to_reliability_scheme(self):
        rng = np.random.default_rng(303)
        for _ in range(300):
            items = random_items(rng)
            as_e2r = [
                WeightedAssessment(i.assessment, reliability=i.reliability, importance=1.0)
                for i in items
            ]
            as_oer = [
                WeightedAssessment(i.assessment, weight=i.reliability) for i in items
            ]
            combined_equal(e2r_aggregate(as_e2r), oer_aggregate(as_oer))

    def test_full_reliability_reduces_to_importance_scheme(self):
        rng = np.random.default_rng(404)
        for _ in range(300):
            items = random_items(rng, normalized_weights=True)
            as_e2r = [
                WeightedAssessment(i.assessment, reliability=1.0, importance=i.weight)
                for i in items
            ]
            combined_equal(e2r_aggregate(as_e2r), mer_aggregate(items))

    def test_matches_two_factor_pipeline_on_brakes_subtree(self):
        # three basic attributes with (reliability, importance) as annotated
        # in the bundled benchmark's brakes group
        stopping = Assessment.from_degrees(H5, {"g2": 0.3, "g3": 0.6})
        braking = Assessment.from_degrees(H5, {"g3": 1.0})
        feel = Assessment.from_degrees(H5, {"g3": 0.5, "g4": 0.5})
        items = [
            WeightedAssessment(stopping, reliability=0.9, importance=0.4),
            WeightedAssessment(braking, reliability=0.7, importance=0.3),
            WeightedAssessment(feel, reliability=0.2, importance=0.3),
        ]
        combined_close(e2r_aggregate(items), two_factor_pipeline(items), 1e-12)

    def test_matches_two_factor_pipeline_randomized(self):
        rng = np.random.default_rng(505)
        for _ in range(400):
            items = random_items(rng)
            combined_close(e2r_aggregate(items), two_factor_pipeline(items))

    def test_all_zero_importance_rejected(self):
        a = Assessment.from_degrees(H5, {"g4": 1.0})
        with pytest.raises(DegenerateMassError):
            e2r_aggregate([WeightedAssessment(a, importance=0.0)] * 2)


# ---------------------------------------------------------------------------
# shared behavior
# ---------------------------------------------------------------------------


class TestInputChecks:
    @pytest.mark.parametrize("algorithm", ["oer", "mer", "e2r"])
    def test_empty_input_raises(self, algorithm):
        from erkit import AGGREGATORS

        with pytest.raises(ValueError):
            AGGREGATORS[algorithm]([])

    @pytest.mark.parametrize("algorithm", ["oer", "mer", "e2r"])
    def test_frame_mismatch_raises(self, algorithm):
        from erkit import AGGREGATORS

        # the two default weights sum to 2: for mer the frame check must come first
        a = WeightedAssessment(random_assessment(np.random.default_rng(0), H5))
        b = WeightedAssessment(random_assessment(np.random.default_rng(0), frame_of(3)))
        with pytest.raises(FrameMismatchError):
            AGGREGATORS[algorithm]([a, b])


class TestDispatch:
    def test_aggregate_by_identifier(self):
        from erkit import aggregate

        items = random_items(np.random.default_rng(3), n_items=3)
        assert aggregate("oer", items) == oer_aggregate(items)
        with pytest.raises(ValueError):
            aggregate("unknown", items)


class TestPermutationInvariance:
    @pytest.mark.parametrize("algorithm", ["oer", "mer", "e2r"])
    def test_input_order_is_immaterial(self, algorithm):
        from erkit import AGGREGATORS

        rng = np.random.default_rng(606)
        fn = AGGREGATORS[algorithm]
        for _ in range(200):
            items = random_items(
                rng, n_items=int(rng.integers(2, 7)),
                normalized_weights=algorithm == "mer",
            )
            base = fn(items)
            perm = [items[i] for i in rng.permutation(len(items))]
            combined_close(fn(perm), base, 1e-9)


class TestOutputValidity:
    @pytest.mark.parametrize("algorithm", ["oer", "mer", "e2r"])
    def test_degrees_sum_to_one(self, algorithm):
        import math

        from erkit import AGGREGATORS

        rng = np.random.default_rng(707)
        fn = AGGREGATORS[algorithm]
        for _ in range(300):
            items = random_items(rng, normalized_weights=algorithm == "mer")
            result = fn(items)
            total = math.fsum((*result.assigned, result.unassigned))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestTraces:
    def test_trace_is_opt_in(self):
        items = random_items(np.random.default_rng(1), n_items=3)
        assert isinstance(oer_aggregate(items), CombinedAssessment)

    @pytest.mark.parametrize("algorithm", ["oer", "mer", "e2r"])
    def test_trace_steps_are_valid_mass_functions(self, algorithm):
        import math

        from erkit import AGGREGATORS

        items = random_items(
            np.random.default_rng(2), n_items=4, normalized_weights=algorithm == "mer"
        )
        result, trace = AGGREGATORS[algorithm](items, with_trace=True)
        assert isinstance(trace, AggregationTrace)
        assert len(trace.steps) == len(items)
        assert trace.steps[0].normalizer == 1.0
        for step in trace.steps:
            total = math.fsum((*step.singletons, step.frame_mass, step.omega_mass))
            assert total == pytest.approx(1.0, abs=1e-9)
        # the last step carries the pre-normalization masses of the result
        last = trace.steps[-1]
        scale = 1.0 / (1.0 - last.omega_mass)
        for a, b in zip(result.assigned, last.singletons):
            assert a == pytest.approx(b * scale, abs=1e-12)
