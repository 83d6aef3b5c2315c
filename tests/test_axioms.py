"""Tests for the synthesis-axiom checker and the audit harness."""

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
            rng = np.random.default_rng(seed)
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
        rng = np.random.default_rng(11)
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
