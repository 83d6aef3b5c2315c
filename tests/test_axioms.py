"""Tests for the synthesis-axiom checker and the audit harness."""

import random

import numpy as np
import pytest

from erkit import (
    Assessment,
    AxiomInapplicableError,
    WeightedAssessment,
    audit_axioms,
    check_axiom,
    generate_axiom_instance,
)
from erkit import algorithms, axioms
from erkit.axioms import AXIOMS

from randgen import frame_of

H5 = frame_of(5)


def certain(grade, **factors):
    return WeightedAssessment(Assessment.from_degrees(H5, {grade: 1.0}), **factors)


class TestHypothesisGuards:
    def test_consensus_requires_shared_certain_grade(self):
        items = [certain("g4"), certain("g3")]
        with pytest.raises(AxiomInapplicableError):
            check_axiom("consensus", "oer", items)

    def test_independence_requires_untouched_grade(self):
        rng = np.random.default_rng(0)
        degrees = {g: 0.2 for g in H5.grades}
        items = [WeightedAssessment(Assessment.from_degrees(H5, degrees))] * 2
        with pytest.raises(AxiomInapplicableError):
            check_axiom("independence", "oer", items)

    def test_completeness_requires_complete_assessments(self):
        items = [WeightedAssessment(Assessment.from_degrees(H5, {"g0": 0.5}))]
        with pytest.raises(AxiomInapplicableError):
            check_axiom("completeness", "oer", items)

    def test_incompleteness_requires_an_incomplete_assessment(self):
        items = [certain("g0"), certain("g0")]
        with pytest.raises(AxiomInapplicableError):
            check_axiom("incompleteness", "oer", items)

    def test_unknown_axiom_and_aggregator(self):
        with pytest.raises(ValueError):
            check_axiom("monotonicity", "oer", [certain("g0")])
        with pytest.raises(ValueError):
            check_axiom("consensus", "xxx", [certain("g0")])

    def test_an_instance_needs_an_assessment(self):
        with pytest.raises(ValueError, match="at least one assessment"):
            check_axiom("consensus", "oer", [])


class TestVerdicts:
    def test_consensus_holds_for_importance_scheme(self):
        items = [certain("g4", weight=0.25), certain("g4", weight=0.75)]
        assert check_axiom("consensus", "mer", items).holds

    def test_consensus_violated_by_reliability_scheme_with_partial_weights(self):
        items = [certain("g4", weight=0.25), certain("g4", weight=0.75)]
        verdict = check_axiom("consensus", "oer", items)
        assert not verdict.holds
        assert "g4" in verdict.detail

    def test_independence_holds_for_reliability_scheme(self):
        items = [
            WeightedAssessment(Assessment.from_degrees(H5, {"g1": 0.6}), weight=0.4),
            WeightedAssessment(Assessment.from_degrees(H5, {"g2": 0.9}), weight=0.8),
        ]
        assert check_axiom("independence", "oer", items).holds

    def test_completeness_violated_by_reliability_scheme(self):
        items = [
            WeightedAssessment(Assessment.from_degrees(H5, {"g3": 0.5, "g4": 0.5}), weight=0.5),
            WeightedAssessment(Assessment.from_degrees(H5, {"g3": 1.0}), weight=0.5),
        ]
        assert check_axiom("completeness", "mer", items).holds
        assert not check_axiom("completeness", "oer", items).holds

    def test_incompleteness_witness_for_reliability_scheme(self):
        # one complete assessment at full weight wipes out the other's
        # incompleteness under the reliability interpretation
        items = [
            certain("g4", weight=1.0),
            WeightedAssessment(Assessment.from_degrees(H5, {"g4": 0.5}), weight=0.6),
        ]
        assert not check_axiom("incompleteness", "oer", items).holds
        normalized = [
            WeightedAssessment(items[0].assessment, weight=0.5),
            WeightedAssessment(items[1].assessment, weight=0.5),
        ]
        assert check_axiom("incompleteness", "mer", normalized).holds


class TestGenerators:
    @pytest.mark.parametrize("axiom", AXIOMS)
    @pytest.mark.parametrize("normalized", [False, True])
    def test_generated_instances_satisfy_hypothesis(self, axiom, normalized):
        rng = np.random.default_rng(99)
        algorithm = "mer" if normalized else "oer"
        for _ in range(100):
            items = generate_axiom_instance(
                axiom,
                rng,
                n_grades=int(rng.integers(2, 6)),
                n_items=int(rng.integers(2, 6)),
                normalized_weights=normalized,
            )
            # must not raise the inapplicable error
            check_axiom(axiom, algorithm, items)

    def test_unknown_axiom_rejected(self):
        with pytest.raises(ValueError):
            generate_axiom_instance("nope", np.random.default_rng(0))

    @pytest.mark.parametrize("axiom", AXIOMS)
    @pytest.mark.parametrize(
        "size, name",
        [
            ({"n_grades": 1}, "n_grades"),
            ({"n_grades": 0}, "n_grades"),
            ({"n_items": 0}, "n_items"),
            ({"n_items": -1}, "n_items"),
        ],
    )
    def test_a_size_too_small_is_refused_by_name(self, axiom, size, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least"):
            generate_axiom_instance(axiom, np.random.default_rng(0), **size)

    @pytest.mark.parametrize("axiom", AXIOMS)
    def test_the_smallest_sizes_give_an_instance(self, axiom):
        items = generate_axiom_instance(axiom, axioms._Uniforms(0), n_grades=2, n_items=1)
        assert len(items) == 1 and items[0].assessment.frame.size == 2
        check_axiom(axiom, "oer", items)


class TestAudit:
    def test_importance_scheme_passes_all_axioms(self):
        report = audit_axioms("mer", iterations=150, seed=7)
        for axiom in AXIOMS:
            assert report[axiom].passed, axiom
            assert report[axiom].holds == 150

    def test_reliability_scheme_passes_only_independence(self):
        report = audit_axioms("oer", iterations=150, seed=7)
        assert report["independence"].passed
        for axiom in ("consensus", "completeness", "incompleteness"):
            entry = report[axiom]
            assert entry.violations >= 1, axiom
            assert entry.first_counterexample is not None
            # the counterexample really is serialized with its factors
            items = entry.first_counterexample["instance"]
            assert all("weight" in item and "degrees" in item for item in items)

    def test_deterministic_under_fixed_seed(self):
        a = audit_axioms("oer", iterations=60, seed=123)
        b = audit_axioms("oer", iterations=60, seed=123)
        for axiom in AXIOMS:
            assert a[axiom].holds == b[axiom].holds
            assert a[axiom].first_counterexample == b[axiom].first_counterexample

    def test_iterations_must_be_positive(self):
        with pytest.raises(ValueError):
            audit_axioms("mer", iterations=0)

    def test_a_negative_seed_is_refused(self):
        # random.Random(-s) would replay the stream of s
        with pytest.raises(ValueError, match="non-negative"):
            audit_axioms("mer", iterations=5, seed=-5)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_the_ends_of_the_seed_range_run(self, seed):
        report = audit_axioms("mer", iterations=20, seed=seed)
        assert all(entry.holds == 20 for entry in report.values())


SCHEMES = ("oer", "mer", "e2r")
SIZES = [
    (n_grades, n_items)
    for n_grades in range(2, axioms.MAX_GRADES + 1)
    for n_items in range(2, axioms.MAX_ITEMS + 1)
]


def _serialized(items):
    return [
        {
            "degrees": item.assessment.belief_degrees,
            "weight": item.weight,
            "reliability": item.reliability,
            "importance": item.importance,
        }
        for item in items
    ]


class TestBatchAgainstWrappers:
    @pytest.mark.parametrize("axiom", AXIOMS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_each_batch_verdict_equals_check_axiom(self, scheme, axiom):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            for n_grades, n_items in SIZES:
                group = axioms._draw(axiom, rng, 6, n_grades, n_items, scheme != "oer")
                holds, detail = axioms._verdicts(axiom, scheme, *group)
                for j in range(6):
                    verdict = check_axiom(axiom, scheme, axioms._items(*group, j))
                    assert (verdict.holds, verdict.detail) == (holds[j], detail(j))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_audit_equals_a_per_instance_walk_in_draw_order(self, scheme):
        iterations = 90
        for seed in (3, 4, 5):
            report = audit_axioms(scheme, iterations=iterations, seed=seed)
            rng = axioms._Uniforms(seed)
            for axiom in AXIOMS:
                instances = {}
                for index, group in axioms._groups(axiom, rng, iterations, scheme != "oer"):
                    for j, i in enumerate(index):
                        instances[int(i)] = axioms._items(*group, j)
                walk = [check_axiom(axiom, scheme, instances[i]) for i in range(iterations)]
                failing = [i for i, verdict in enumerate(walk) if not verdict.holds]
                entry = report[axiom]
                assert (entry.runs, entry.holds, entry.violations) == (
                    iterations, iterations - len(failing), len(failing)
                )
                expected = None
                if failing:
                    expected = {
                        "instance": _serialized(instances[failing[0]]),
                        "detail": walk[failing[0]].detail,
                    }
                assert entry.first_counterexample == expected

    def test_audit_makes_no_per_instance_wrapper_call(self, monkeypatch):
        def per_instance(*args, **kwargs):
            raise AssertionError("per-instance call")

        monkeypatch.setattr(axioms, "generate_axiom_instance", per_instance)
        monkeypatch.setattr(axioms, "check_axiom", per_instance)
        for scheme in SCHEMES:
            monkeypatch.setitem(algorithms.AGGREGATORS, scheme, per_instance)
        report = audit_axioms("oer", iterations=40, seed=1)
        assert report["consensus"].violations == 40


class TestBulkDraws:
    @pytest.mark.parametrize("axiom", AXIOMS)
    @pytest.mark.parametrize("normalized", [False, True])
    def test_every_instance_satisfies_the_hypothesis(self, axiom, normalized):
        # the audit's stream, and a numpy Generator as generate_axiom_instance accepts
        for rng in (axioms._Uniforms(11), np.random.default_rng(11)):
            for n_grades, n_items in SIZES:
                group = axioms._draw(axiom, rng, 20, n_grades, n_items, normalized)
                for j in range(20):
                    # raises AxiomInapplicableError off the hypothesis and, under
                    # mer, WeightSumError for weights that do not sum to one
                    check_axiom(axiom, "mer" if normalized else "oer", axioms._items(*group, j))

    def test_free_weight_incompleteness_pins_complete_items_at_full_weight(self):
        group = axioms._draw("incompleteness", np.random.default_rng(0), 200, 4, 3, False)
        pinned = sum(
            any(
                item.weight == 1.0 and item.assessment.is_complete
                for item in axioms._items(*group, j)
            )
            for j in range(200)
        )
        # pinned with probability 1/2 when some item is complete (3/4 for three items)
        assert 50 <= pinned <= 100


class FixedUniforms:
    """A stand-in for the audit's stream that returns the given doubles in every shape asked."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, shape):
        return np.broadcast_to(self.values, shape)


class TestUniforms:
    """The audit's stream: uniform doubles from random.Random, and the draws built on them."""

    def test_a_seed_gives_the_same_draws(self):
        for seed in (0, 5, 2**64 - 1):
            a, b = axioms._Uniforms(seed), axioms._Uniforms(seed)
            assert np.array_equal(a.random((3, 4)), b.random((3, 4)))
            assert np.array_equal(a.random(7), b.random(7))
        assert not np.array_equal(axioms._Uniforms(0).random(8), axioms._Uniforms(1).random(8))

    def test_shapes_and_the_words_behind_them(self):
        u = axioms._Uniforms(9).random((2, 3))
        assert u.shape == (2, 3) and u.dtype == np.float64
        assert axioms._Uniforms(9).random(()).shape == ()
        # each double is the top 53 bits of one little-endian 64-bit word
        words = random.Random(9).randbytes(8 * 6)
        expected = [(int.from_bytes(words[i : i + 8], "little") >> 11) / 2**53 for i in range(0, 48, 8)]
        assert u.ravel().tolist() == expected

    def test_a_seed_that_is_not_an_integer_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            axioms._Uniforms(-1)
        with pytest.raises(TypeError):
            axioms._Uniforms(1.5)
        assert np.array_equal(axioms._Uniforms(np.int64(3)).random(4), axioms._Uniforms(3).random(4))

    def test_uniforms_lie_in_the_half_open_unit_interval(self):
        u = axioms._Uniforms(1).random(100_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert 0.49 < u.mean() < 0.51

    @pytest.mark.parametrize("low, high", [(0, 2), (1, 5), (2, 7), (0, 6)])
    def test_integers_reach_every_value_of_their_range(self, low, high):
        values = axioms._integers(axioms._Uniforms(2), low, high, 2_000)
        assert values.dtype == np.int64
        assert sorted(set(values.tolist())) == list(range(low, high))

    def test_the_largest_uniform_stays_below_the_top_integer(self):
        top = FixedUniforms(1.0 - 2.0**-53)
        for span in range(1, 65):
            assert axioms._integers(top, 0, span, 1)[0] == span - 1

    def test_exponentials_are_finite_and_non_negative(self):
        x = axioms._exponential(axioms._Uniforms(3), 100_000)
        assert np.isfinite(x).all() and (x >= 0.0).all()
        assert 0.98 < x.mean() < 1.02
        # u = 0 maps to exactly zero, the largest u < 1 to 53·log 2
        ends = FixedUniforms([0.0, 1.0 - 2.0**-53])
        assert axioms._exponential(ends, 2).tolist() == [0.0, pytest.approx(53 * np.log(2))]

    @pytest.mark.parametrize("n_items", [1, 2, 6])
    def test_dirichlet_weights_sum_to_one(self, n_items):
        group = axioms._draw("consensus", axioms._Uniforms(4), 500, 3, n_items, True)
        weights, importance = group[1][0], group[1][2]
        for simplex in (weights, importance):
            assert simplex.shape == (n_items, 500)
            assert (simplex > 0.0).all()
            assert np.allclose(simplex.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        # Dirichlet(3, …, 3) has mean 1 / n_items per component
        assert np.allclose(weights.mean(axis=1), 1.0 / n_items, atol=0.03)
