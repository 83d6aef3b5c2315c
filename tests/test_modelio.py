"""Tests for model and result serialization."""

import json
from dataclasses import replace

import pytest

from erkit import (
    Assessment,
    GradeFrame,
    ModelFormatError,
    ModelValidationError,
    UtilityFunction,
    evaluate,
    load_model,
    load_results,
    motorcycle_json,
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
    document["ranking"].append("b")
    document["results"]["b"] = json.loads(json.dumps(document["results"]["a"]))
    return payload


def _nodes(payload, alt="a"):
    return payload["documents"][0]["results"][alt]["nodes"]


def _rename_b(payload, name):
    """Alternative "b" renamed ``name`` in the alternatives, the results and the ranking."""
    document = payload["documents"][0]
    document["results"][name] = document["results"].pop("b")
    for key in ("alternatives", "ranking"):
        document[key] = [name if a == "b" else a for a in document[key]]


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
            pytest.param(lambda p: p["documents"][0]["results"]["a"].update(redistributed={"zzz": 0.5}), id="redistributed-unknown-grade"),
            pytest.param(lambda p: p["documents"][0].update(ranking=["nobody"]), id="ranking-not-a-permutation"),
            pytest.param(lambda p: _rename_b(p, "\ud800"), id="lone-surrogate-alternative"),
            pytest.param(lambda p: p["documents"][0].update(algorithm="\ud800"), id="lone-surrogate-algorithm"),
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


def _with_raw_number(payload, path, number_text: str) -> str:
    """``payload`` as JSON text with the value at key ``path`` written as ``number_text``.

    ``json.dumps`` writes no ``1e400``, so the value goes in as a
    placeholder string that is then replaced.
    """
    *parents, key = path
    target = payload
    for step in parents:
        target = target[step]
    target[key] = "RAW-NUMBER"
    return json.dumps(payload).replace('"RAW-NUMBER"', number_text)


# Number literals beyond the double range: float() of the integers raises
# OverflowError, and 1e400 parses as infinity.
BEYOND_DOUBLES = [
    pytest.param("9" * 400, id="400-digit-integer"),
    pytest.param("-" + "9" * 400, id="negative-400-digit-integer"),
    pytest.param("1e400", id="1e400"),
]


class TestNumbersBeyondTheDoubleRange:
    @pytest.mark.parametrize("number", BEYOND_DOUBLES)
    @pytest.mark.parametrize(
        "where, what",
        [
            pytest.param(("tree", "children", 0, "assessments", "a", "good"), "belief degree", id="degree"),
            pytest.param(("tree", "children", 1, "reliability"), "reliability", id="reliability"),
            pytest.param(("utilities", "good"), "utility of 'good'", id="utility"),
        ],
    )
    def test_rejected_in_models(self, number, where, what):
        payload = {**json.loads(doc()), "utilities": {"bad": 0.0, "good": 1.0}}
        text = _with_raw_number(payload, where, number)
        with pytest.raises(ModelFormatError, match=f"{what} must be a finite double, got "):
            load_model(text)

    @pytest.mark.parametrize("number", BEYOND_DOUBLES)
    @pytest.mark.parametrize(
        "where, message",
        [
            pytest.param(
                ("results", "a", "nodes", "root", "assigned", "good"),
                "node degrees must be finite doubles",
                id="node-degree",
            ),
            pytest.param(
                ("results", "b", "nodes", "root/x", "unassigned"),
                "node degrees must be finite doubles",
                id="node-unassigned",
            ),
            pytest.param(("results", "b", "utility"), "utility must be a finite double", id="utility"),
            pytest.param(
                ("results", "a", "redistributed", "bad"),
                "redistributed degree must be a finite double",
                id="redistributed-degree",
            ),
        ],
    )
    def test_rejected_in_result_documents(self, number, where, message):
        text = _with_raw_number(_saved_minimal_payload(), ("documents", 0, *where), number)
        with pytest.raises(ModelFormatError, match=f"result document 0.*{message}"):
            load_results(text)

    def test_integer_literals_beyond_the_conversion_limit(self):
        text = doc().replace('"good": 0.7', '"good": ' + "1" * 5000, 1)
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            load_model(text)


def _saved_trace_payload() -> dict:
    """The e2r result document of MINIMAL, with its traces."""
    model = derive_reliabilities(load_model(doc()))
    return json.loads(save_results(_run_algorithms(model, ("e2r",), with_trace=True)))


def _trace_step(payload) -> dict:
    return payload["documents"][0]["traces"]["a"]["root"][0]


class TestMalformedTraces:
    def test_the_unmutated_payload_loads(self):
        (document,) = load_results(json.dumps(_saved_trace_payload()))
        assert document.traces["a"]["root"][0] == _trace_step(_saved_trace_payload())

    @pytest.mark.parametrize(
        "mutate, message",
        [
            pytest.param(lambda p: p["documents"][0]["traces"]["a"].update(root={}), "must be a list of steps", id="steps-object"),
            pytest.param(lambda p: p["documents"][0]["traces"]["a"]["root"].append(5), "a step must have the keys", id="step-number"),
            pytest.param(lambda p: _trace_step(p).pop("normalizer"), "a step must have the keys", id="no-normalizer"),
            pytest.param(lambda p: _trace_step(p).update(extra=1.0), "a step must have the keys", id="extra-key"),
            pytest.param(lambda p: _trace_step(p)["singletons"].pop("good"), "singletons must give one mass per grade", id="missing-grade"),
            pytest.param(lambda p: _trace_step(p).update(singletons={"bad": 0.1, "zzz": 0.1}), "singletons must give one mass per grade", id="unknown-grade"),
            pytest.param(lambda p: _trace_step(p).update(omega_mass="0.1"), "trace mass must be a number", id="string-mass"),
            pytest.param(lambda p: _trace_step(p)["singletons"].update(bad=None), "trace mass must be a number", id="null-singleton"),
        ],
    )
    def test_every_step_is_checked(self, mutate, message):
        payload = _saved_trace_payload()
        mutate(payload)
        with pytest.raises(ModelFormatError, match=f"result document 0: trace of 'root' for 'a'.*{message}"):
            load_results(json.dumps(payload))

    @pytest.mark.parametrize("number", BEYOND_DOUBLES)
    def test_masses_beyond_the_double_range_are_rejected(self, number):
        where = ("documents", 0, "traces", "a", "root", 0, "frame_mass")
        text = _with_raw_number(_saved_trace_payload(), where, number)
        with pytest.raises(ModelFormatError, match="trace mass must be a finite double"):
            load_results(text)


def _mutated(mutate):
    """MINIMAL as a fresh payload, changed by ``mutate``."""
    payload = json.loads(doc())
    mutate(payload)
    return payload


class TestModelFormatErrors:
    """Each schema rule of the loader, with the message that names it."""

    @pytest.mark.parametrize(
        "payload, message",
        [
            pytest.param([MINIMAL], "top level must be an object", id="top-level-list"),
            pytest.param(
                _mutated(lambda p: p.update(schema="er-model/9")),
                "unsupported schema 'er-model/9'",
                id="unsupported-schema",
            ),
            pytest.param(
                _mutated(lambda p: p.update(frame=["only"])),
                "bad frame: a frame needs at least two grades",
                id="one-grade-frame",
            ),
            pytest.param(
                _mutated(lambda p: p.update(frame="bg")),
                "frame must be a list of strings",
                id="frame-string",
            ),
            pytest.param(
                _mutated(lambda p: p.update(alternatives=["a", 2])),
                "alternatives must be a list of strings",
                id="non-string-alternative",
            ),
            pytest.param(
                _mutated(lambda p: p.update(utilities={"bad": 0.0})),
                r"bad utilities: utilities missing for grades \['good'\]",
                id="utility-missing",
            ),
            pytest.param(
                _mutated(lambda p: p.update(utilities={"bad": 0.0, "good": 1.5})),
                r"bad utilities: utility 1.5 outside \[0, 1\]",
                id="utility-above-one",
            ),
            pytest.param(
                _mutated(lambda p: p.update(alternatives=[])),
                "a model needs at least one alternative",
                id="no-alternatives",
            ),
            pytest.param(
                _mutated(lambda p: p.update(alternatives=["a", "a"])),
                "alternative ids must be unique",
                id="repeated-alternative",
            ),
            pytest.param(
                _mutated(lambda p: p.update(tree=5)), "node must be an object", id="tree-number"
            ),
            pytest.param(
                _mutated(lambda p: p["tree"]["children"].append("z")),
                "/root: node must be an object",
                id="child-string",
            ),
            pytest.param(
                _mutated(lambda p: p["tree"]["children"][0].update(name="")),
                "node name must be a non-empty string",
                id="empty-name",
            ),
            pytest.param(
                _mutated(lambda p: p["tree"]["children"][0].update(name="x\udc00")),
                r"/root: node name 'x\\udc00' does not encode as UTF-8",
                id="lone-surrogate-node-name",
            ),
            pytest.param(
                _mutated(lambda p: p.update(frame=["bad", "\ud800"])),
                "frame holds a string that does not encode as UTF-8",
                id="lone-surrogate-grade",
            ),
            pytest.param(
                _mutated(lambda p: p.update(alternatives=["\ud800"])),
                "alternatives holds a string that does not encode as UTF-8",
                id="lone-surrogate-alternative",
            ),
            pytest.param(
                _mutated(lambda p: p["tree"]["children"][1]["assessments"].update(a=0.5)),
                "/root/y: assessment for 'a' must be an object",
                id="assessment-number",
            ),
        ],
    )
    def test_message_names_the_rule(self, tmp_path, payload, message):
        # through a file: a text source must start with "{"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(doc().replace('"a"', '"\xe9"').encode("latin-1"))
        with pytest.raises(ModelFormatError, match="not valid JSON: 'utf-8' codec can't decode"):
            load_model(path)


class TestValidationDiagnostics:
    """Each semantic rule of ``validate``, with the path and message it reports."""

    @staticmethod
    def _model():
        return load_model(doc())

    def _diagnostics(self, model):
        return [str(d) for d in validate(model)]

    def test_the_minimal_model_is_clean(self):
        assert self._diagnostics(self._model()) == []

    def test_basic_attribute_without_reliability(self):
        payload = json.loads(doc())
        del payload["tree"]["children"][0]["reliability"]
        model = load_model(json.dumps(payload), check=False)
        assert self._diagnostics(model) == ["root/x: basic attribute lacks a reliability"]

    def test_children_without_importances(self):
        payload = json.loads(doc())
        del payload["tree"]["children"][1]["importance"]
        model = load_model(json.dumps(payload), check=False)
        assert self._diagnostics(model) == ["root: children lack importances: ['y']"]

    def test_assessment_over_another_frame(self):
        model = self._model()
        other = GradeFrame(["low", "high"])
        x, y = model.root.children
        x = replace(x, assessments={"a": Assessment.from_degrees(other, {"high": 0.7})})
        model = replace(model, root=replace(model.root, children=(x, y)))
        assert self._diagnostics(model) == ["root/x: assessment for 'a' uses a different frame"]

    def test_general_attribute_with_assessments(self):
        model = self._model()
        carried = model.root.children[0].assessments
        model = replace(model, root=replace(model.root, assessments=carried))
        assert self._diagnostics(model) == ["root: general attribute carries assessments"]

    def test_children_and_assessments_in_a_file(self, tmp_path):
        payload = json.loads(doc())
        payload["tree"]["assessments"] = {"a": {"good": 1.0}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelValidationError) as info:
            load_model(path)
        assert str(info.value) == "model validation failed: root: general attribute carries assessments"

    def test_utility_over_another_frame(self):
        model = self._model()
        model = replace(model, utility=UtilityFunction.evenly_spaced(GradeFrame(["low", "high"])))
        assert self._diagnostics(model) == ["root: utility function uses a different frame"]

    def test_node_name_with_a_slash(self):
        payload = json.loads(doc())
        payload["tree"]["children"][0]["name"] = "x/z"
        with pytest.raises(ModelValidationError) as info:
            load_model(json.dumps(payload))
        assert [str(d) for d in info.value.diagnostics] == [
            "root/x/z: node name contains '/', the path separator"
        ]


class TestRenormalizedImportances:
    def test_every_level_is_rescaled_as_it_is_parsed(self):
        payload = json.loads(motorcycle_json())
        stack = [(payload["tree"], 0)]
        while stack:
            node, depth = stack.pop()
            if "importance" in node:
                node["importance"] *= 1.3 + 0.2 * depth
            stack.extend((c, depth + 1) for c in node.get("children", []))
        text = json.dumps(payload)
        with pytest.raises(ModelValidationError, match="importances sum"):
            load_model(text)
        model = load_model(text, renormalize_importances=True)
        original = motorcycle_model()
        for (path, node), (_, before) in zip(model.walk(), original.walk()):
            if node.children:
                assert sum(c.importance for c in node.children) == pytest.approx(1.0)
                assert [c.importance for c in node.children] == pytest.approx(
                    [c.importance for c in before.children]
                )
        assert load_model(motorcycle_json(), renormalize_importances=False) == original

    def test_siblings_without_positive_importance_are_left_alone(self):
        payload = json.loads(doc())
        for child in payload["tree"]["children"]:
            child["importance"] = 0.0
        model = load_model(json.dumps(payload), renormalize_importances=True, check=False)
        assert [c.importance for c in model.root.children] == [0.0, 0.0]


class TestResultDocumentHeader:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            pytest.param(
                lambda p: p["documents"][0].update(algorithm=1),
                "result document 0: algorithm must be a string",
                id="algorithm-number",
            ),
            pytest.param(
                lambda p: p.update(schema="er-result/9"), "unsupported result document", id="wrong-schema"
            ),
            pytest.param(lambda p: p.pop("schema"), "unsupported result document", id="no-schema"),
        ],
    )
    def test_message_names_the_rule(self, mutate, message):
        payload = _saved_minimal_payload()
        mutate(payload)
        with pytest.raises(ModelFormatError, match=message):
            load_results(json.dumps(payload))
