"""Tests for model and result serialization."""

import json
from dataclasses import replace

import pytest

from erkit import (
    ModelFormatError,
    ModelValidationError,
    evaluate,
    load_model,
    load_results,
    motorcycle_model,
    save_model,
    save_results,
    validate,
)
from erkit.cli import _run_algorithms
from erkit.hierarchy import derive_reliabilities


MINIMAL = {
    "schema": "er-model/1",
    "frame": ["bad", "good"],
    "alternatives": ["a"],
    "tree": {
        "name": "root",
        "children": [
            {
                "name": "x",
                "reliability": 0.8,
                "importance": 0.5,
                "assessments": {"a": {"good": 0.7}},
            },
            {
                "name": "y",
                "reliability": 0.6,
                "importance": 0.5,
                "assessments": {"a": {"bad": 0.2, "good": 0.8}},
            },
        ],
    },
}


def doc(**overrides) -> str:
    merged = {**MINIMAL, **overrides}
    return json.dumps(merged)


class TestLoadModel:
    def test_bundled_benchmark_shape(self):
        model = motorcycle_model()
        assert model.alternatives == ("Kawasaki", "Yamaha", "Honda", "BMW")
        leaves = [node for _, node in model.walk() if node.is_basic]
        assert len(leaves) == 19
        assert model.frame.grades == (
            "poor", "indifferent", "average", "good", "excellent"
        )
        assert validate(model) == []

    def test_text_and_path_sources(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(doc(), encoding="utf-8")
        from_path = load_model(path)
        from_text = load_model(doc())
        assert from_path == from_text

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_fields_reported(self):
        with pytest.raises(ModelFormatError, match="tree"):
            load_model(json.dumps({"schema": "er-model/1", "frame": ["a", "b"], "alternatives": ["x"]}))

    def test_unknown_fields_only_rejected_in_strict_mode(self):
        text = json.dumps({**MINIMAL, "comment": "hello"})
        load_model(text)  # tolerated
        with pytest.raises(ModelFormatError, match="comment"):
            load_model(text, strict=True)

    def test_overcommitted_degrees_located(self):
        bad = json.loads(doc())
        bad["tree"]["children"][0]["assessments"]["a"] = {"bad": 0.6, "good": 0.5}
        with pytest.raises(ModelFormatError, match="root/x"):
            load_model(json.dumps(bad))

    def test_importance_sum_is_a_validation_diagnostic(self):
        bad = json.loads(doc())
        bad["tree"]["children"][0]["importance"] = 0.6
        with pytest.raises(ModelValidationError) as info:
            load_model(json.dumps(bad))
        assert any("importances sum" in str(d) for d in info.value.diagnostics)

    def test_renormalize_importances_flag(self):
        bad = json.loads(doc())
        bad["tree"]["children"][0]["importance"] = 0.6
        bad["tree"]["children"][1]["importance"] = 0.6
        model = load_model(json.dumps(bad), renormalize_importances=True)
        assert [c.importance for c in model.root.children] == pytest.approx([0.5, 0.5])

    def test_incomplete_assessment_residual_is_implicit(self):
        model = load_model(doc())
        node = model.root.children[0]
        assert node.assessments["a"].unassigned == pytest.approx(0.3)

    def test_default_utilities_are_evenly_spaced(self):
        model = load_model(doc())
        assert model.utility.values == (0.5, 1.0)


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_rejected_in_models(self, constant):
        text = json.dumps(MINIMAL).replace('"reliability": 0.8', f'"reliability": {constant}', 1)
        assert constant in text
        with pytest.raises(ModelFormatError, match=f"non-finite number {constant}"):
            load_model(text)

    def test_rejected_in_result_documents(self):
        text = save_results(_run_algorithms(derive_reliabilities(motorcycle_model()), ("e2r",), False))
        with pytest.raises(ModelFormatError, match="non-finite number NaN"):
            load_results(text.replace('"utility": 0.', '"utility": NaN, "was": 0.', 1))

    def test_never_written(self):
        model = derive_reliabilities(motorcycle_model())
        (document,) = _run_algorithms(model, ("e2r",), with_trace=False)
        document.utilities["Honda"] = float("nan")
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_results(document)
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(replace(model, root=replace(model.root, reliability=float("inf"))))


def test_result_documents_nested_beyond_the_parser_limit_are_rejected():
    with pytest.raises(ModelFormatError, match="nested deeper"):
        load_results("[" * 100_000 + "]" * 100_000)


class TestSaveModel:
    def test_round_trip_preserves_model(self):
        model = motorcycle_model()
        again = load_model(save_model(model))
        assert again == model

    def test_round_trip_evaluates_identically(self):
        model = derive_reliabilities(motorcycle_model())
        again = derive_reliabilities(load_model(save_model(model)))
        for algo in ("oer", "mer", "e2r"):
            for alt in model.alternatives:
                a = evaluate(model, algo, alt)[model.root.name]
                b = evaluate(again, algo, alt)[model.root.name]
                assert a.assigned == pytest.approx(b.assigned, abs=1e-12)
                assert a.unassigned == pytest.approx(b.unassigned, abs=1e-12)

    def test_zero_degrees_are_omitted(self):
        text = save_model(motorcycle_model())
        raw = json.loads(text)
        engine = raw["tree"]["children"][0]
        responsiveness = engine["children"][0]
        assert responsiveness["assessments"]["Kawasaki"] == {"excellent": 0.8}


class TestResultDocuments:
    def _documents(self):
        model = derive_reliabilities(motorcycle_model())
        return _run_algorithms(model, ("oer", "mer", "e2r"), with_trace=False)

    def test_json_round_trip(self):
        documents = self._documents()
        again = load_results(save_results(documents, format="json"))
        assert again == documents

    def test_json_round_trip_with_traces(self):
        model = derive_reliabilities(motorcycle_model())
        (document,) = _run_algorithms(model, ("e2r",), with_trace=True)
        again = load_results(save_results(document, format="json"))
        assert again == [document]

    def test_table_mirrors_the_published_layout(self):
        text = save_results(self._documents(), format="table")
        assert "Expected utilities" in text
        assert "Ranking orders" in text
        # one distribution block per algorithm, alternatives as rows
        assert text.count("Combined assessment") == 3
        assert "Kawasaki" in text and "Unknown" in text

    def test_csv_long_format(self):
        text = save_results(self._documents(), format="csv")
        lines = text.strip().splitlines()
        assert lines[0] == "algorithm,alternative,grade,degree"
        # 3 algorithms x 4 alternatives x (5 grades + unknown)
        assert len(lines) == 1 + 3 * 4 * 6

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            save_results(self._documents(), format="xml")

    def test_numbers_survive_serialization_exactly(self):
        documents = self._documents()
        again = load_results(save_results(documents, format="json"))
        for doc_a, doc_b in zip(documents, again):
            for alt in doc_a.alternatives:
                assert doc_a.utilities[alt] == doc_b.utilities[alt]


def _saved_minimal_payload() -> dict:
    """The e2r result document of MINIMAL, with a second alternative "b" copied from "a"."""
    model = derive_reliabilities(load_model(doc()))
    payload = json.loads(save_results(_run_algorithms(model, ("e2r",), with_trace=False)))
    document = payload["documents"][0]
    document["alternatives"].append("b")
    document["results"]["b"] = json.loads(json.dumps(document["results"]["a"]))
    return payload


def _nodes(payload, alt="a"):
    return payload["documents"][0]["results"][alt]["nodes"]


def _root_first(payload):
    nodes = _nodes(payload)
    payload["documents"][0]["results"]["a"]["nodes"] = {"root": nodes.pop("root"), **nodes}


class TestMalformedResultDocuments:
    def test_the_unmutated_payload_loads(self):
        (document,) = load_results(json.dumps(_saved_minimal_payload()))
        assert document.alternatives == ("a", "b")
        assert document.paths == ("root/x", "root/y", "root")
        assert document.root_distribution("b") == document.root_distribution("a")

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda p: p.pop("documents"), id="no-documents"),
            pytest.param(lambda p: p.update(documents={}), id="documents-object"),
            pytest.param(lambda p: p.update(documents=[5]), id="document-number"),
            pytest.param(lambda p: p["documents"][0].pop("algorithm"), id="no-algorithm"),
            pytest.param(lambda p: p["documents"][0].update(frame=[0, 1]), id="frame-numbers"),
            pytest.param(lambda p: p["documents"][0].update(frame="bg"), id="frame-string"),
            pytest.param(lambda p: p["documents"][0].update(alternatives=["a", "a"]), id="repeated-alternative"),
            pytest.param(lambda p: p["documents"][0].update(alternatives=[]), id="no-alternatives"),
            pytest.param(lambda p: p["documents"][0]["alternatives"].append("c"), id="missing-results-entry"),
            pytest.param(lambda p: p["documents"][0].update(results=[]), id="results-list"),
            pytest.param(lambda p: p["documents"][0]["results"].update(a=[]), id="results-entry-list"),
            pytest.param(lambda p: p["documents"][0].update(ranking=[1]), id="ranking-numbers"),
            pytest.param(lambda p: p["documents"][0].update(traces=[]), id="traces-list"),
            pytest.param(lambda p: p["documents"][0]["results"]["a"].pop("nodes"), id="no-nodes"),
            pytest.param(lambda p: _nodes(p).clear(), id="empty-nodes"),
            pytest.param(_root_first, id="root-not-last"),
            pytest.param(lambda p: _nodes(p, "b").pop("root/y"), id="node-missing-for-one-alternative"),
            pytest.param(lambda p: _nodes(p, "b").update(extra=_nodes(p)["root"]), id="node-extra-for-one-alternative"),
            pytest.param(lambda p: _nodes(p).update(root=[0.5, 0.5]), id="node-list"),
            pytest.param(lambda p: _nodes(p)["root"].pop("assigned"), id="no-assigned"),
            pytest.param(lambda p: _nodes(p)["root"]["assigned"].pop("good"), id="missing-grade"),
            pytest.param(lambda p: _nodes(p)["root"]["assigned"].update(fair=0.0), id="extra-grade"),
            pytest.param(lambda p: _nodes(p)["root/x"]["assigned"].update(bad="0.5"), id="string-degree"),
            pytest.param(lambda p: _nodes(p)["root"].update(unassigned=True), id="boolean-unassigned"),
            pytest.param(lambda p: _nodes(p)["root"].pop("unassigned"), id="no-unassigned"),
            pytest.param(lambda p: p["documents"][0]["results"]["b"].update(utility="0.7"), id="string-utility"),
            pytest.param(lambda p: p["documents"][0]["results"]["b"].pop("utility"), id="no-utility"),
            pytest.param(lambda p: p["documents"][0]["results"]["a"].update(redistributed=[0.5, 0.5]), id="redistributed-list"),
            pytest.param(lambda p: p["documents"][0]["results"]["a"]["redistributed"].update(bad=None), id="redistributed-null"),
        ],
    )
    def test_every_schema_point_raises_model_format_error(self, mutate):
        payload = _saved_minimal_payload()
        mutate(payload)
        with pytest.raises(ModelFormatError, match="result document"):
            load_results(json.dumps(payload))

    def test_node_results_view_reads_the_arrays(self):
        (document,) = load_results(json.dumps(_saved_minimal_payload()))
        payload = _saved_minimal_payload()
        assert dict(document.node_results["b"]) == _nodes(payload, "b")
        assert list(document.node_results) == ["a", "b"]
        with pytest.raises(TypeError):
            document.node_results["a"]["root"] = {}
