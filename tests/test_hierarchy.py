"""Tests for multi-level model validation and bottom-up evaluation."""

import numpy as np
import pytest

from erkit import (
    Assessment,
    AttributeNode,
    CompleteConflictError,
    ErkitError,
    EvaluationModel,
    FrameMismatchError,
    UtilityFunction,
    WeightedAssessment,
    derive_reliabilities,
    evaluate,
    evaluate_batch,
    motorcycle_model,
    oer_aggregate,
    validate,
)

from randgen import frame_of, random_assessment

H5 = frame_of(5)


def leaf(name, reliability, importance, assessments):
    return AttributeNode(
        name=name,
        reliability=reliability,
        importance=importance,
        assessments=assessments,
    )


def toy_model(importances=(0.5, 0.5), reliabilities=(0.8, 0.6)):
    a = Assessment.from_degrees(H5, {"g3": 0.6, "g4": 0.3})
    b = Assessment.from_degrees(H5, {"g2": 1.0})
    root = AttributeNode(
        name="root",
        children=(
            leaf("first", reliabilities[0], importances[0], {"alt": a}),
            leaf("second", reliabilities[1], importances[1], {"alt": b}),
        ),
    )
    return EvaluationModel(H5, ("alt",), root, UtilityFunction.evenly_spaced(H5))


class TestDeriveReliabilities:
    def test_engine_style_average(self):
        children = tuple(
            leaf(f"c{i}", a, 0.2, {"alt": random_assessment(np.random.default_rng(i), H5)})
            for i, a in enumerate((0.6, 0.7, 0.4, 0.9, 0.9))
        )
        model = EvaluationModel(
            H5, ("alt",), AttributeNode("engine", children=children)
        )
        derived = derive_reliabilities(model)
        assert derived.root.reliability == pytest.approx(0.7)

    def test_brakes_style_average(self):
        children = tuple(
            leaf(f"c{i}", a, 1 / 3, {"alt": random_assessment(np.random.default_rng(i), H5)})
            for i, a in enumerate((0.9, 0.7, 0.2))
        )
        model = EvaluationModel(H5, ("alt",), AttributeNode("brakes", children=children))
        assert derive_reliabilities(model).root.reliability == pytest.approx(0.6)

    def test_single_child_mean(self):
        child = leaf("only", 0.35, 1.0, {"alt": random_assessment(np.random.default_rng(0), H5)})
        model = EvaluationModel(H5, ("alt",), AttributeNode("node", children=(child,)))
        assert derive_reliabilities(model).root.reliability == pytest.approx(0.35)

    def test_idempotent(self):
        model = derive_reliabilities(toy_model())
        assert derive_reliabilities(model) == model

    def test_explicit_values_kept_and_checked_in_strict_mode(self):
        model = toy_model()
        annotated = EvaluationModel(
            H5,
            ("alt",),
            AttributeNode("root", children=model.root.children, reliability=0.9),
            model.utility,
        )
        assert derive_reliabilities(annotated).root.reliability == 0.9
        with pytest.raises(ErkitError):
            derive_reliabilities(annotated, strict=True)

    def test_missing_basic_reliability_is_an_error(self):
        child = leaf("x", None, 1.0, {"alt": random_assessment(np.random.default_rng(0), H5)})
        model = EvaluationModel(H5, ("alt",), AttributeNode("root", children=(child,)))
        with pytest.raises(ErkitError):
            derive_reliabilities(model)


class TestValidate:
    def test_bundled_benchmark_is_clean(self):
        assert validate(motorcycle_model()) == []

    def test_importance_sum_violation(self):
        model = toy_model(importances=(0.5, 0.6))
        problems = validate(model)
        assert len(problems) == 1
        assert "importances sum" in problems[0].message

    def test_missing_assessment(self):
        a = random_assessment(np.random.default_rng(0), H5)
        root = AttributeNode(
            "root", children=(leaf("x", 0.5, 1.0, {"alt": a}),)
        )
        model = EvaluationModel(H5, ("alt", "other"), root)
        problems = validate(model)
        assert any("missing assessments" in p.message and "other" in p.message for p in problems)

    def test_factor_range_violation(self):
        a = random_assessment(np.random.default_rng(0), H5)
        root = AttributeNode("root", children=(leaf("x", 1.5, 1.0, {"alt": a}),))
        model = EvaluationModel(H5, ("alt",), root)
        assert any("outside [0, 1]" in p.message for p in validate(model))

    def test_paths_locate_the_problem(self):
        model = toy_model(importances=(0.5, 0.6))
        assert validate(model)[0].path == "root"

    def test_undeclared_alternative_flagged(self):
        a = random_assessment(np.random.default_rng(0), H5)
        root = AttributeNode(
            "root", children=(leaf("x", 0.5, 1.0, {"alt": a, "ghost": a}),)
        )
        model = EvaluationModel(H5, ("alt",), root)
        assert any("undeclared" in p.message for p in validate(model))

    def test_duplicate_sibling_names_flagged(self):
        a = random_assessment(np.random.default_rng(0), H5)
        root = AttributeNode(
            "root",
            children=(
                leaf("same", 0.5, 0.5, {"alt": a}),
                leaf("same", 0.5, 0.5, {"alt": a}),
            ),
        )
        model = EvaluationModel(H5, ("alt",), root)
        assert any("duplicate names" in p.message for p in validate(model))


class TestEvaluate:
    def test_flat_tree_equals_flat_aggregator(self):
        model = toy_model()
        results = evaluate(model, "oer", "alt")
        items = [
            WeightedAssessment(c.assessments["alt"], weight=c.reliability)
            for c in model.root.children
        ]
        expected = oer_aggregate(items)
        assert results["root"].assigned == pytest.approx(expected.assigned)
        assert results["root"].unassigned == pytest.approx(expected.unassigned)
        # leaves are reported too
        assert "root/first" in results and "root/second" in results

    def test_single_child_chain_is_identity_under_e2r(self):
        a = Assessment.from_degrees(H5, {"g3": 0.6, "g4": 0.3})
        inner = AttributeNode(
            "inner",
            children=(leaf("leaf", 1.0, 1.0, {"alt": a}),),
            reliability=1.0,
            importance=1.0,
        )
        root = AttributeNode("root", children=(inner,))
        model = EvaluationModel(H5, ("alt",), root)
        results = evaluate(model, "e2r", "alt")
        for path in ("root", "root/inner", "root/inner/leaf"):
            assert results[path].assigned == pytest.approx(tuple(a.degrees), abs=1e-12)

    def test_child_order_is_immaterial(self):
        model = motorcycle_model()
        shuffled_root = AttributeNode(
            model.root.name,
            children=tuple(reversed(model.root.children)),
            reliability=model.root.reliability,
            importance=model.root.importance,
        )
        shuffled = EvaluationModel(
            model.frame, model.alternatives, shuffled_root, model.utility
        )
        for algo in ("oer", "mer", "e2r"):
            a = evaluate(model, algo, "Honda")[model.root.name]
            b = evaluate(shuffled, algo, "Honda")[model.root.name]
            assert a.assigned == pytest.approx(b.assigned, abs=1e-9)
            assert a.unassigned == pytest.approx(b.unassigned, abs=1e-9)

    def test_results_are_valid_for_every_node_and_algorithm(self):
        import math

        model = motorcycle_model()
        for algo in ("oer", "mer", "e2r"):
            for alt in model.alternatives:
                for path, combined in evaluate(model, algo, alt).items():
                    total = math.fsum((*combined.assigned, combined.unassigned))
                    assert total == pytest.approx(1.0, abs=1e-9), (algo, alt, path)

    def test_conflict_error_names_the_node(self):
        a = Assessment.from_degrees(H5, {"g0": 1.0})
        b = Assessment.from_degrees(H5, {"g4": 1.0})
        root = AttributeNode(
            "top",
            children=(
                leaf("yes", 1.0, 0.5, {"alt": a}),
                leaf("no", 1.0, 0.5, {"alt": b}),
            ),
        )
        model = EvaluationModel(H5, ("alt",), root)
        with pytest.raises(CompleteConflictError, match="'top'"):
            evaluate(model, "oer", "alt")

    def test_unknown_inputs_rejected(self):
        model = toy_model()
        with pytest.raises(ValueError):
            evaluate(model, "zzz", "alt")
        with pytest.raises(ValueError):
            evaluate(model, "oer", "nobody")

    def test_mer_uses_importance_and_oer_uses_reliability_by_default(self):
        model = toy_model(importances=(0.3, 0.7), reliabilities=(0.9, 0.4))
        items_mer = [
            WeightedAssessment(c.assessments["alt"], weight=c.importance)
            for c in model.root.children
        ]
        items_oer = [
            WeightedAssessment(c.assessments["alt"], weight=c.reliability)
            for c in model.root.children
        ]
        from erkit import mer_aggregate

        assert evaluate(model, "mer", "alt")["root"].assigned == pytest.approx(
            mer_aggregate(items_mer).assigned
        )
        assert evaluate(model, "oer", "alt")["root"].assigned == pytest.approx(
            oer_aggregate(items_oer).assigned
        )

    def test_explicit_weight_overrides_defaults(self):
        a = Assessment.from_degrees(H5, {"g3": 0.6})
        b = Assessment.from_degrees(H5, {"g2": 0.8})
        root = AttributeNode(
            "root",
            children=(
                AttributeNode("x", reliability=0.9, importance=0.5, weight=0.2,
                              assessments={"alt": a}),
                AttributeNode("y", reliability=0.1, importance=0.5, weight=0.8,
                              assessments={"alt": b}),
            ),
        )
        model = EvaluationModel(H5, ("alt",), root)
        expected = oer_aggregate(
            [WeightedAssessment(a, weight=0.2), WeightedAssessment(b, weight=0.8)]
        )
        assert evaluate(model, "oer", "alt")["root"].assigned == pytest.approx(expected.assigned)

    def test_trace_collection(self):
        model = toy_model()
        results, traces = evaluate(model, "e2r", "alt", with_trace=True)
        assert set(traces) == {"root"}
        assert len(traces["root"].steps) == 2


class TestRuntimeGuards:
    """What ``evaluate`` and ``evaluate_batch`` reject in a model nobody validated."""

    @staticmethod
    def run(kind, model, algorithm):
        if kind == "batch":
            return evaluate_batch(model, algorithm)
        return [evaluate(model, algorithm, alt) for alt in model.alternatives]

    @staticmethod
    def model(second_leaf, alternatives=("alt",)):
        a = Assessment.from_degrees(H5, {"g3": 0.6, "g4": 0.3})
        first = leaf("a", 0.8, 0.5, {alt: a for alt in alternatives})
        return EvaluationModel(H5, alternatives, AttributeNode("root", children=(first, second_leaf)))

    @pytest.mark.parametrize("kind", ["single", "batch"])
    def test_missing_assessment_names_the_leaf_and_the_alternative(self, kind):
        b = Assessment.from_degrees(H5, {"g2": 1.0})
        model = self.model(leaf("b", 0.6, 0.5, {"alt": b}), alternatives=("alt", "other"))
        with pytest.raises(ErkitError, match="'root/b' has no assessment for 'other'"):
            self.run(kind, model, "e2r")

    @pytest.mark.parametrize("kind", ["single", "batch"])
    def test_assessment_over_another_frame(self, kind):
        b = Assessment.from_degrees(frame_of(3), {"g2": 1.0})
        model = self.model(leaf("b", 0.6, 0.5, {"alt": b}))
        with pytest.raises(FrameMismatchError, match="'root/b'"):
            self.run(kind, model, "e2r")

    @pytest.mark.parametrize("kind", ["single", "batch"])
    def test_e2r_needs_every_child_importance(self, kind):
        b = Assessment.from_degrees(H5, {"g2": 1.0})
        model = self.model(leaf("b", 0.6, None, {"alt": b}))
        with pytest.raises(ErkitError, match="'root/b' has no importance"):
            self.run(kind, model, "e2r")

    @pytest.mark.parametrize("kind", ["single", "batch"])
    @pytest.mark.parametrize("algorithm", ["oer", "mer", "e2r"])
    def test_factor_out_of_range(self, kind, algorithm):
        b = Assessment.from_degrees(H5, {"g2": 1.0})
        model = self.model(AttributeNode("b", reliability=1.5, importance=-0.5, weight=1.5,
                                         assessments={"alt": b}))
        with pytest.raises(ValueError, match=r"'root/b': factor .* outside \[0, 1\]"):
            self.run(kind, model, algorithm)


def deep_chain(levels, last_degree=1.0):
    """A chain ``levels`` general nodes deep, built in code; the deepest leaf
    assesses ``last_degree`` on the top grade."""
    shallow = Assessment.from_degrees(H5, {"g2": 0.7})
    node = leaf("y", 0.9, 0.5, {"alt": Assessment.from_degrees(H5, {"g4": last_degree})})
    for _ in range(levels):
        node = AttributeNode("n", children=(leaf("x", 0.8, 0.5, {"alt": shallow}), node),
                             importance=0.5)
    return node


class TestNodeEquality:
    def test_a_3000_level_chain_equals_a_rebuilt_copy(self):
        assert (deep_chain(3000) == deep_chain(3000)) is True
        model = EvaluationModel(H5, ("alt",), deep_chain(3000))
        assert (model == EvaluationModel(H5, ("alt",), deep_chain(3000))) is True

    def test_one_deep_leaf_changed_makes_them_differ(self):
        assert (deep_chain(3000) == deep_chain(3000, last_degree=0.5)) is False
        assert (deep_chain(3000) != deep_chain(3000, last_degree=0.5)) is True

    def test_fields_and_shape_are_compared(self):
        a = Assessment.from_degrees(H5, {"g2": 1.0})
        base = leaf("x", 0.8, 0.5, {"alt": a})
        assert base == leaf("x", 0.8, 0.5, {"alt": Assessment.from_degrees(H5, {"g2": 1.0})})
        for other in (
            leaf("z", 0.8, 0.5, {"alt": a}),
            leaf("x", 0.7, 0.5, {"alt": a}),
            leaf("x", 0.8, 0.4, {"alt": a}),
            AttributeNode("x", reliability=0.8, importance=0.5, weight=0.3, assessments={"alt": a}),
            leaf("x", 0.8, 0.5, {}),
            AttributeNode("x", children=(base,), reliability=0.8, importance=0.5),
        ):
            assert base != other
        parent = AttributeNode("p", children=(base, base))
        assert parent != AttributeNode("p", children=(base,))
        assert parent == AttributeNode("p", children=(base, base))
        assert base != "x"


class TestNodeHashAndRepr:
    def test_nodes_are_honestly_unhashable(self):
        from collections.abc import Hashable

        node = leaf("x", 0.8, 0.5, {"alt": Assessment.from_degrees(H5, {"g2": 1.0})})
        assert not isinstance(node, Hashable)
        with pytest.raises(TypeError):
            hash(node)

    def test_repr_is_the_dataclass_repr(self):
        a = Assessment.from_degrees(H5, {"g2": 1.0})
        single = AttributeNode("b", children=(AttributeNode("c"),))
        root = AttributeNode("r", children=(leaf("a", 0.5, None, {"x": a}), single), weight=0.2)
        empty = "reliability=None, importance=None, weight=None, assessments={}"
        assert repr(root) == (
            "AttributeNode(name='r', children=("
            f"AttributeNode(name='a', children=(), reliability=0.5, importance=None, "
            f"weight=None, assessments={{'x': {a!r}}}), "
            f"AttributeNode(name='b', children=(AttributeNode(name='c', children=(), {empty}),), "
            f"{empty})), reliability=None, importance=None, weight=0.2, assessments={{}})"
        )

    def test_repr_of_a_3000_level_chain(self):
        text = repr(deep_chain(3000))
        assert text.startswith("AttributeNode(name='n', children=(AttributeNode(name='x'")
        assert text.count("AttributeNode(name='n'") == 3000
        assert text.count("AttributeNode(name='y'") == 1
        assert repr(EvaluationModel(H5, ("alt",), deep_chain(3000))).count("AttributeNode(") == 6001
