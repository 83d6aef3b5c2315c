"""Tests for multi-level model validation and bottom-up evaluation."""

import gc
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

import erkit.hierarchy
from erkit import (
    Assessment,
    AssessmentTable,
    AttributeNode,
    CompleteConflictError,
    ErkitError,
    EvaluationModel,
    GradeFrame,
    ModelFormatError,
    ModelValidationError,
    UtilityFunction,
    WeightedAssessment,
    WeightSumError,
    decide,
    derive_reliabilities,
    evaluate,
    evaluate_batch,
    load_model,
    motorcycle_model,
    oer_aggregate,
    save_model,
    validate,
)
from erkit.cli import EXIT_RUNTIME, main

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


def test_a_model_built_without_a_utility_has_evenly_spaced_utilities():
    model = EvaluationModel(H5, ("alt",), toy_model().root)
    assert model.utility == UtilityFunction.evenly_spaced(H5)
    assert validate(model) == []
    ranked = decide(evaluate_batch(model, "e2r"), model.utility)
    expected = decide(evaluate_batch(toy_model(), "e2r"), toy_model().utility)
    assert ranked.utilities == expected.utilities
    assert np.array_equal(ranked.degrees, expected.degrees)


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


def _renamed(model, leaf_name=None, alternative=None):
    """``model`` with its first leaf renamed ``leaf_name``, or its first
    alternative renamed ``alternative`` wherever it is named."""

    def rename(node, first):
        if node.is_basic:
            table = {
                (alternative if alternative is not None and alt == model.alternatives[0] else alt): a
                for alt, a in node.assessments.items()
            }
            name = leaf_name if first and leaf_name is not None else node.name
            return replace(node, name=name, assessments=table)
        return replace(node, children=tuple(rename(c, first and not i) for i, c in enumerate(node.children)))

    alternatives = model.alternatives if alternative is None else (alternative, *model.alternatives[1:])
    return replace(model, alternatives=alternatives, root=rename(model.root, True))


class TestValidate:
    def test_bundled_benchmark_is_clean(self):
        model = motorcycle_model()
        assert validate(model) == []
        assert load_model(save_model(model)) == model  # a model validate accepts saves and loads back

    @pytest.mark.parametrize(
        "changes, message",
        [
            pytest.param(dict(leaf_name=""), "node name must be a non-empty string", id="empty-leaf-name"),
            pytest.param(
                dict(leaf_name="\ud800"), "node name '\\ud800' does not encode as UTF-8", id="surrogate-leaf-name"
            ),
            pytest.param(
                dict(alternative="\udc80"),
                "alternatives holds a string that does not encode as UTF-8",
                id="surrogate-alternative",
            ),
        ],
    )
    def test_names_the_loader_refuses(self, changes, message):
        """A name ``load_model`` would refuse is a diagnostic, so evaluation refuses it too."""
        model = _renamed(motorcycle_model(), **changes)
        assert [d.message for d in validate(model)] == [message]
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(save_model(model))
        with pytest.raises(ModelValidationError, match=re.escape(message)):
            evaluate_batch(model, "e2r")

    @staticmethod
    def _first_leaf(**changes):
        model = toy_model()
        first, second = model.root.children
        return replace(model, root=replace(model.root, children=(replace(first, **changes), second)))

    @staticmethod
    def _integer_grades():
        frame = GradeFrame((1, 2))
        x = leaf("x", 0.5, 1.0, {"alt": Assessment(frame, (0.4, 0.6))})
        return EvaluationModel(frame, ("alt",), AttributeNode("root", children=(x,)))

    @pytest.mark.parametrize(
        "build, diagnostics",
        [
            pytest.param(
                lambda: TestValidate._first_leaf(name=["first"]),
                ["root/['first']: node name must be a non-empty string"],
                id="list-name",
            ),
            pytest.param(
                lambda: TestValidate._first_leaf(name={"first": 1}),
                ["root/{'first': 1}: node name must be a non-empty string"],
                id="dict-name",
            ),
            pytest.param(
                lambda: _renamed(toy_model(), alternative=7),
                ["root: alternatives must hold strings only, got 7"],
                id="integer-alternative",
            ),
            pytest.param(
                lambda: TestValidate._integer_grades(), ["root: frame must hold strings only, got 1"], id="integer-grades"
            ),
            *(
                pytest.param(
                    lambda factor=factor, value=value: TestValidate._first_leaf(**{factor: value}),
                    [f"root/first: {factor} must be a number, got {value!r}"],
                    id=f"{type(value).__name__}-{factor}",
                )
                for factor in ("reliability", "importance", "weight")
                for value in ("0.5", True)
            ),
        ],
    )
    def test_wrongly_typed_fields_are_diagnostics(self, build, diagnostics):
        """A model built in code with a field of the wrong type is refused by name, as
        ``load_model`` refuses a file; booleans are no factors."""
        model = build()
        assert [str(d) for d in validate(model)] == diagnostics
        with pytest.raises(ModelValidationError):
            evaluate_batch(model, "e2r")

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

    def test_leaf_rows_that_are_not_distributions_are_named_by_leaf_and_alternative(self):
        """All leaves' rows are checked in one pass; each bad row is named by its own leaf and
        alternative, whatever the order of a table's rows, and a leaf over another frame is
        reported for its frame alone."""
        complete = [0.2, 0.3, 0.5, 0.0, 0.0]

        def table(names, bad_row, bad_degrees):
            degrees = np.array([bad_degrees if i == bad_row else complete for i in range(3)])
            return AssessmentTable(H5, names, degrees, np.zeros(3))

        other_frame = Assessment.from_degrees(frame_of(3), {"g0": 1.0})
        root = AttributeNode("root", children=(
            leaf("x", 0.5, 0.25, table(("a", "b", "c"), None, None)),
            leaf("w", 0.5, 0.25, {alt: other_frame for alt in ("a", "b", "c")}),
            leaf("y", 0.5, 0.25, table(("c", "b", "a"), 1, [0.6, 0.6, 0.0, 0.0, 0.0])),
            leaf("z", 0.5, 0.25, table(("a", "b", "c"), 2, [0.2, float("nan"), 0.8, 0.0, 0.0])),
        ))
        model = EvaluationModel(H5, ("a", "b", "c"), root)
        fault = "degrees outside [0, 1] or not summing to 1"
        assert [str(d) for d in validate(model)] == [
            *(f"root/w: assessment for {alt!r} uses a different frame" for alt in ("a", "b", "c")),
            f"root/y: assessment for 'b': {fault}",
            f"root/z: assessment for 'c': {fault}",
        ]

    COMPLETE = (0.2, 0.3, 0.5, 0.0, 0.0)

    @pytest.mark.parametrize(
        "degrees, unassigned",
        [
            # Such tables once validated clean, and evaluate_batch then died on numpy's
            # ragged-array error.
            pytest.param(np.array([COMPLETE, COMPLETE]), np.zeros(2), id="extra-row"),
            # Validate's one pass over all leaves' rows stepped by names, not rows, so this
            # row's fault was blamed on the next leaf.
            pytest.param(
                np.array([COMPLETE, (0.6, 0.6, 0, 0, 0)]), np.zeros(2), id="extra-row-off-the-simplex"
            ),
            pytest.param(np.zeros((1, 5)), np.zeros(2), id="unassigned-long"),
            pytest.param(np.zeros((1, 4)), np.zeros(1), id="grades-short"),
            pytest.param(np.zeros(5), np.zeros(1), id="flat-degrees"),
        ],
    )
    def test_a_table_is_checked_against_its_own_shape(self, degrees, unassigned):
        with pytest.raises(ValueError, match=r"1 names needs \(1, 5\) degrees and \(1,\) unassigned"):
            AssessmentTable(H5, ("a",), degrees, unassigned)

    def test_in_asks_whether_the_table_lists_an_alternative(self):
        table = AssessmentTable(H5, ("a", "b"), np.array([self.COMPLETE, self.COMPLETE]), np.zeros(2))
        assert "b" in table
        assert "z" not in table

    def test_a_table_naming_an_alternative_twice_is_refused(self):
        """Its len() counts two names while a lookup finds one row, so the other row would be dropped."""
        table = AssessmentTable(H5, ("a", "a"), np.array([self.COMPLETE, self.COMPLETE]), np.zeros(2))
        root = AttributeNode("root", children=(
            leaf("x", 0.5, 0.5, table),
            leaf("y", 0.5, 0.5, {"a": Assessment(H5, self.COMPLETE)}),
        ))
        model = EvaluationModel(H5, ("a",), root)
        assert [str(d) for d in validate(model)] == ["root/x: repeated assessments for ['a']"]
        with pytest.raises(ModelValidationError, match=r"root/x: repeated assessments for \['a'\]"):
            evaluate_batch(model, "e2r")


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

    def test_mer_weights_at_a_general_node_must_sum_to_one(self, tmp_path, capsys):
        """Importances summing to one, as validate asks, but explicit weights summing to 0.5."""
        a = Assessment.from_degrees(H5, {"g3": 0.6})
        b = Assessment.from_degrees(H5, {"g2": 0.8})
        root = AttributeNode("root", children=(
            AttributeNode("x", reliability=0.9, importance=0.5, weight=0.2, assessments={"alt": a}),
            AttributeNode("y", reliability=0.1, importance=0.5, weight=0.3, assessments={"alt": b}),
        ))
        model = EvaluationModel(H5, ("alt",), root)
        message = "at node 'root': importance weights sum to 0.5, expected 1"
        with pytest.raises(WeightSumError, match=f"^{message}$"):
            evaluate_batch(model, "mer")
        with pytest.raises(WeightSumError, match=f"^{message}$"):
            evaluate(model, "mer", "alt")
        for scheme in ("oer", "e2r"):  # only mer reads weights as importances
            evaluate_batch(model, scheme)
        path = tmp_path / "half.json"
        path.write_text(save_model(model), encoding="utf-8")
        assert main(["evaluate", "--algo", "mer", str(path)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_trace_collection(self):
        model = toy_model()
        traces = evaluate_batch(model, "e2r", with_trace=True).traces
        assert set(traces) == {"root"}
        assert len(traces["root"].steps) == 2


class TestRuntimeGuards:
    """What ``evaluate`` and ``evaluate_batch`` refuse in a model nobody validated:
    compiling its plan raises ``validate``'s diagnostics, which name the node at fault."""

    @staticmethod
    def run(kind, model, algorithm, match):
        with pytest.raises(ModelValidationError, match=match) as refused:
            if kind == "batch":
                evaluate_batch(model, algorithm)
            else:
                evaluate(model, algorithm, model.alternatives[0])
        assert refused.value.diagnostics == validate(model)

    @staticmethod
    def model(second_leaf, alternatives=("alt",)):
        a = Assessment.from_degrees(H5, {"g3": 0.6, "g4": 0.3})
        first = leaf("a", 0.8, 0.5, {alt: a for alt in alternatives})
        return EvaluationModel(H5, alternatives, AttributeNode("root", children=(first, second_leaf)))

    @pytest.mark.parametrize("kind", ["single", "batch"])
    def test_missing_assessment_names_the_leaf_and_the_alternative(self, kind):
        b = Assessment.from_degrees(H5, {"g2": 1.0})
        model = self.model(leaf("b", 0.6, 0.5, {"alt": b}), alternatives=("alt", "other"))
        self.run(kind, model, "e2r", r"root/b: missing assessments for \['other'\]")

    @pytest.mark.parametrize("kind", ["single", "batch"])
    def test_assessment_over_another_frame(self, kind):
        b = Assessment.from_degrees(frame_of(3), {"g2": 1.0})
        model = self.model(leaf("b", 0.6, 0.5, {"alt": b}))
        self.run(kind, model, "e2r", "root/b: assessment for 'alt' uses a different frame")

    @pytest.mark.parametrize("kind", ["single", "batch"])
    def test_e2r_needs_every_child_importance(self, kind):
        b = Assessment.from_degrees(H5, {"g2": 1.0})
        model = self.model(leaf("b", 0.6, None, {"alt": b}))
        self.run(kind, model, "e2r", r"root: children lack importances: \['b'\]")

    @pytest.mark.parametrize("kind", ["single", "batch"])
    @pytest.mark.parametrize(
        "algorithm, problem",
        [
            ("oer", "root/b: basic attribute lacks a reliability"),
            ("mer", r"root: children lack importances: \['b'\]"),
        ],
    )
    def test_single_factor_schemes_need_a_weight_or_their_factor(self, kind, algorithm, problem):
        b = Assessment.from_degrees(H5, {"g2": 1.0})
        model = self.model(AttributeNode("b", assessments={"alt": b}))
        self.run(kind, model, algorithm, problem)

    @pytest.mark.parametrize("kind", ["single", "batch"])
    @pytest.mark.parametrize("algorithm", ["oer", "mer", "e2r"])
    def test_factor_out_of_range(self, kind, algorithm):
        b = Assessment.from_degrees(H5, {"g2": 1.0})
        model = self.model(AttributeNode("b", reliability=1.5, importance=-0.5, weight=1.5,
                                         assessments={"alt": b}))
        self.run(kind, model, algorithm, r"root/b: reliability 1\.5 outside \[0, 1\]")

    @staticmethod
    def table(degrees, unassigned):
        """A hand-built table of ``alt``: its arrays as given, which nothing checks on the way in."""
        return AssessmentTable(H5, ("alt",), np.array([degrees], dtype=float), np.array([unassigned]))

    NOT_A_DISTRIBUTION = r"assessment for 'alt': degrees outside \[0, 1\] or not summing to 1"

    @pytest.mark.parametrize("kind", ["single", "batch"])
    @pytest.mark.parametrize(
        "degrees, unassigned",
        [
            pytest.param((0.2, float("nan"), 0.3, 0.0, 0.0), 0.5, id="nan-degree"),
            pytest.param((0.6, 0.6, 0.0, 0.0, 0.0), 0.0, id="row-over-1"),
            pytest.param((0.5, 0.3, 0.0, 0.0, 0.0), 0.0, id="unassigned-short"),
        ],
    )
    def test_a_leaf_row_that_is_not_a_distribution(self, kind, degrees, unassigned):
        """No fold checks a leaf's rows, so ``validate`` does."""
        model = self.model(leaf("b", 0.6, 0.5, self.table(degrees, unassigned)))
        self.run(kind, model, "e2r", "root/b: " + self.NOT_A_DISTRIBUTION)

    @pytest.mark.parametrize("kind", ["single", "batch"])
    def test_a_root_leaf_row_that_is_not_a_distribution(self, kind):
        """A root that is a leaf is never folded at all."""
        root = leaf("root", 0.6, None, self.table((0.5, 0.3, 0, 0, 0), 0.0))
        model = EvaluationModel(H5, ("alt",), root)
        self.run(kind, model, "e2r", f"^model validation failed: root: {self.NOT_A_DISTRIBUTION}$")


class TestOneGate:
    """Compiling the plan is the one model check: evaluation refuses exactly what ``validate`` does."""

    @staticmethod
    def three_problem_model():
        """Assessments on the root, importances summing to 0.6, and an undeclared alternative."""
        a = Assessment.from_degrees(H5, {"g3": 0.6, "g4": 0.3})
        b = Assessment.from_degrees(H5, {"g2": 1.0})
        children = (leaf("a", 0.8, 0.3, {"alt": a, "zzz": a}), leaf("b", 0.6, 0.3, {"alt": b}))
        return EvaluationModel(H5, ("alt",), AttributeNode("root", children=children, assessments={"alt": b}))

    @pytest.mark.parametrize(
        "call",
        [
            *(pytest.param(lambda m, s=s: evaluate(m, s, "alt"), id=f"evaluate-{s}") for s in ("oer", "mer", "e2r")),
            *(pytest.param(lambda m, s=s: evaluate_batch(m, s), id=f"batch-{s}") for s in ("oer", "mer", "e2r")),
            pytest.param(derive_reliabilities, id="derive_reliabilities"),
        ],
    )
    def test_every_evaluation_refuses_with_the_diagnostics_of_validate(self, call):
        model = self.three_problem_model()
        assert [str(d) for d in validate(model)] == [
            "root: general attribute carries assessments",
            "root: children's importances sum to 0.6, expected 1",
            "root/a: assessments for undeclared alternatives ['zzz']",
        ]
        with pytest.raises(ModelValidationError) as refused:
            call(model)
        assert refused.value.diagnostics == validate(model)


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


class TestPlan:
    """A model compiles its plan once, and the plan keeps no reference back to it."""

    def test_one_plan_for_every_alternative_and_scheme(self, monkeypatch):
        built = []

        class Counting(erkit.hierarchy.CompiledModel):
            def __init__(self, model):
                built.append(model)
                super().__init__(model)

        model = derive_reliabilities(motorcycle_model())
        monkeypatch.setattr(erkit.hierarchy, "CompiledModel", Counting)
        for scheme in ("oer", "mer", "e2r"):
            evaluate_batch(model, scheme)
            evaluate_batch(model, scheme, with_trace=True)
            for alt in model.alternatives:
                evaluate(model, scheme, alt)
        assert len(built) == 1 and built[0] is model

    def test_the_model_is_freed_without_the_cycle_collector(self):
        model = derive_reliabilities(motorcycle_model())
        evaluate_batch(model, "e2r", with_trace=True)
        evaluate(model, "e2r", model.alternatives[0])
        ref = weakref.ref(model)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_a_derived_or_replaced_model_compiles_its_own_plan(self):
        model = motorcycle_model()
        derived = derive_reliabilities(model)
        assert derived.plan is not model.plan
        assert derived.plan.nodes[-1] is derived.root
        renamed = replace(derived, alternatives=derived.alternatives[::-1])
        assert renamed.plan is not derived.plan
        assert renamed.plan.alternatives == renamed.alternatives
        assert not hasattr(renamed.plan, "model")
