"""Tests for model and result serialization."""

import csv
import hashlib
import importlib.util
import io
import json
import re
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from erkit import (
    Assessment,
    AttributeNode,
    ErkitError,
    EvaluationModel,
    FrameMismatchError,
    GradeFrame,
    ModelFormatError,
    ModelValidationError,
    ResultDocument,
    UtilityFunction,
    evaluate,
    evaluate_batch,
    load_model,
    load_results,
    motorcycle_json,
    motorcycle_model,
    save_model,
    save_results,
    validate,
)
from erkit.cli import _run_algorithms
from erkit.hierarchy import AssessmentTable, derive_reliabilities

from randgen import frame_of, random_assessment

GOLDEN = Path(__file__).parent / "data" / "golden"


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
        payload = json.loads(text)
        next(iter(payload["documents"][0]["results"].values()))["utility"] = float("nan")
        with pytest.raises(ModelFormatError, match="non-finite number NaN"):
            load_results(json.dumps(payload, allow_nan=True))

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

    def test_a_model_built_without_a_utility_round_trips(self):
        frame = GradeFrame(["bad", "good"])
        leaf = AttributeNode(
            "x", reliability=0.8, importance=1.0,
            assessments={"a": Assessment.from_degrees(frame, {"good": 0.7})},
        )
        model = EvaluationModel(frame, ("a",), AttributeNode("root", children=(leaf,)))
        text = save_model(model)
        assert json.loads(text)["utilities"] == {"bad": 0.5, "good": 1.0}
        assert load_model(text) == model

    def test_zero_degrees_are_omitted(self):
        text = save_model(motorcycle_model())
        raw = json.loads(text)
        engine = raw["tree"]["children"][0]
        responsiveness = engine["children"][0]
        assert responsiveness["assessments"]["Kawasaki"] == {"excellent": 0.8}

    def test_motorcycle_model_text_is_pinned(self):
        """The bundled model loaded and written back, byte for byte as recorded in
        tests/data/golden."""
        golden = (GOLDEN / "save_model_motorcycle.json").read_text(encoding="utf-8")
        assert save_model(load_model(motorcycle_json())) == golden

    def test_seeded_wide_model_text_is_pinned(self):
        """The benchmark generator's seeded wide model, 125 leaves × 50 alternatives,
        loaded and written back; pinned by length and digest, as the text is 0.8 MB."""
        spec = importlib.util.spec_from_file_location(
            "bench_gen", Path(__file__).parents[1] / "bench" / "gen.py"
        )
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        text = save_model(load_model(gen.to_json(gen.wide_model(7, 5, 5, 3, 50))))
        assert len(text) == 820953
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "253315d6fef5b604d25d5d31e9405735af9360841410b1aefdab4b24d9819a32"
        )


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

    def test_csv_quotes_names_with_commas_quotes_and_line_breaks(self):
        alternatives = ("Acme, Inc.", 'the "best"\nbike')
        document = ResultDocument(
            algorithm="e2r, traced",
            frame=("bad, really", 'good "enough"'),
            alternatives=alternatives,
            paths=("root",),
            assigned=np.array([[[0.25, 0.5], [0.125, 0.75]]]),
            unassigned=np.array([[0.25, 0.125]]),
            redistributed=np.zeros((2, 2)),
            utilities=dict.fromkeys(alternatives, 0.5),
            ranking=alternatives,
        )
        rows = list(csv.reader(io.StringIO(save_results(document, format="csv"))))
        assert rows == [
            ["algorithm", "alternative", "grade", "degree"],
            ["e2r, traced", "Acme, Inc.", "bad, really", "0.25"],
            ["e2r, traced", "Acme, Inc.", 'good "enough"', "0.5"],
            ["e2r, traced", "Acme, Inc.", "Unknown", "0.25"],
            ["e2r, traced", 'the "best"\nbike', "bad, really", "0.125"],
            ["e2r, traced", 'the "best"\nbike', 'good "enough"', "0.75"],
            ["e2r, traced", 'the "best"\nbike', "Unknown", "0.125"],
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            save_results(self._documents(), format="xml")

    @pytest.mark.parametrize(
        "format, text",
        [
            ("json", '{"schema":"er-result/1","documents":[]}'),
            (
                "table",
                "Expected utilities\nAlgorithm\n---------\n\n"
                "Ranking orders\nAlgorithm  Ranking\n---------  -------\n",
            ),
            ("csv", "algorithm,alternative,grade,degree\n"),
        ],
    )
    def test_no_documents(self, format, text):
        assert save_results([], format) == text
        if format == "json":
            assert load_results(text) == []

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


def _rename_path(payload, old, new):
    for alt in ("a", "b"):
        results = payload["documents"][0]["results"][alt]
        results["nodes"] = {new if path == old else path: node for path, node in results["nodes"].items()}


def _root_first(payload):
    nodes = _nodes(payload)
    payload["documents"][0]["results"]["a"]["nodes"] = {"root": nodes.pop("root"), **nodes}


class TestMalformedResultDocuments:
    def test_the_unmutated_payload_loads(self):
        (document,) = load_results(json.dumps(_saved_minimal_payload()))
        assert document.alternatives == ("a", "b")
        assert document.paths == ("root/x", "root/y", "root")
        assigned, unassigned = document.root_rows()
        assert (assigned[1], unassigned[1]) == (assigned[0], unassigned[0])

    def test_a_grade_named_unknown_is_refused(self):
        payload = _saved_minimal_payload()
        document = payload["documents"][0]
        document["frame"] = ["Unknown", "good"]
        for entry in document["results"].values():
            for degrees in (*(node["assigned"] for node in entry["nodes"].values()), entry["redistributed"]):
                degrees["Unknown"] = degrees.pop("bad")
        with pytest.raises(ModelFormatError, match="result document 0: grade name 'Unknown' is reserved"):
            load_results(json.dumps(payload))

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
            pytest.param(lambda p: _rename_path(p, "root/x", "root/\ud800"), id="lone-surrogate-path"),
        ],
    )
    def test_every_schema_point_raises_model_format_error(self, mutate):
        payload = _saved_minimal_payload()
        mutate(payload)
        with pytest.raises(ModelFormatError, match="result document"):
            load_results(json.dumps(payload))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            pytest.param(
                lambda p: _nodes(p)["root"]["assigned"].update(good=True),
                "results for 'a': node 'root': assigned degree of 'good' must be a number, got True",
                id="boolean-degree",
            ),
            pytest.param(
                lambda p: _nodes(p, "b")["root/y"]["assigned"].update(bad="0.5"),
                "results for 'b': node 'root/y': assigned degree of 'bad' must be a number, got '0.5'",
                id="string-degree",
            ),
            pytest.param(
                lambda p: (
                    _nodes(p)["root"]["assigned"].update(good=10**400),
                    _nodes(p, "b")["root/x"].update(unassigned="0.5"),
                ),
                f"results for 'a': node 'root': assigned degree of 'good' must be a finite double, got {10**400!r}",
                id="first-of-two-faults",
            ),
        ],
    )
    def test_a_number_fault_names_its_place_and_value(self, mutate, message):
        payload = _saved_minimal_payload()
        mutate(payload)
        with pytest.raises(ModelFormatError, match=f"^{re.escape('result document 0: ' + message)}$"):
            load_results(json.dumps(payload))


def _motorcycle_document(with_trace=False):
    model = derive_reliabilities(motorcycle_model())
    (document,) = _run_algorithms(model, ("e2r",), with_trace=with_trace)
    return document


# Every code point, lone surrogates included, and often the characters a writer must escape.
_NAMES = st.text(st.characters(exclude_categories=()) | st.sampled_from(',"%/\n'), min_size=1, max_size=6)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _result_fields(draw):
    """The fields of a result document: arbitrary names, finite numbers, and
    traces or none, keyed by some of its alternatives and paths."""
    frame = tuple(draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True)))
    alternatives = tuple(draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True)))
    root = draw(_NAMES)
    paths = (*(f"{root}/{n}" for n in draw(st.lists(_NAMES, max_size=3, unique=True))), root)
    shape = (len(paths), len(alternatives))
    step = st.fixed_dictionaries(
        {
            "singletons": st.fixed_dictionaries({g: _FINITE for g in frame}),
            "frame_mass": _FINITE,
            "omega_mass": _FINITE,
            "normalizer": _FINITE,
        }
    )
    by_path = st.dictionaries(st.sampled_from(paths), st.lists(step, min_size=1, max_size=3), max_size=2)
    traces = st.none() | st.dictionaries(st.sampled_from(alternatives), by_path, max_size=2)
    return dict(
        algorithm=draw(_NAMES),
        frame=frame,
        alternatives=alternatives,
        paths=paths,
        assigned=draw(arrays(np.float64, (*shape, len(frame)), elements=_FINITE)),
        unassigned=draw(arrays(np.float64, shape, elements=_FINITE)),
        redistributed=draw(arrays(np.float64, (len(alternatives), len(frame)), elements=_FINITE)),
        utilities={alt: draw(_FINITE) for alt in alternatives},
        ranking=tuple(draw(st.permutations(alternatives))),
        traces=draw(traces),
    )


def _root_trace(document, step) -> dict:
    """Traces of ``document``: the root's, for its first alternative, a well-formed
    step and then ``step`` changed from it."""
    good = {"singletons": dict.fromkeys(document.frame, 0.1), "frame_mass": 0.1, "omega_mass": 0.1, "normalizer": 1.0}
    return {document.alternatives[0]: {document.paths[-1]: [good, step(dict(good))]}}


class TestResultDocumentInvariants:
    """What building a result document checks, and that a document built in code loads back."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            pytest.param(
                lambda d: dict(frame=(), assigned=d.assigned[:, :, :0], redistributed=d.redistributed[:, :0]),
                "at least one grade, one node and one alternative",
                id="no-grade",
            ),
            pytest.param(
                lambda d: dict(paths=(), assigned=d.assigned[:0], unassigned=d.unassigned[:0]),
                "at least one grade, one node and one alternative",
                id="no-node",
            ),
            pytest.param(
                lambda d: dict(
                    alternatives=(), assigned=d.assigned[:, :0], unassigned=d.unassigned[:, :0],
                    redistributed=d.redistributed[:0], utilities={}, ranking=(),
                ),
                "at least one grade, one node and one alternative",
                id="no-alternative",
            ),
            pytest.param(lambda d: dict(unassigned=d.unassigned[:, :-1]), "node arrays must be", id="node-shape"),
            pytest.param(lambda d: dict(assigned=d.assigned[:, :, :-1]), "node arrays must be", id="grade-shape"),
            pytest.param(
                lambda d: dict(redistributed=d.redistributed[:-1]), "redistributed degrees must be", id="redistributed-shape"
            ),
            pytest.param(lambda d: dict(frame=(d.frame[0],) * len(d.frame)), "frame must be unique", id="repeated-grade"),
            pytest.param(
                lambda d: dict(alternatives=(d.alternatives[0], *d.alternatives[:-1])),
                "alternatives must be unique",
                id="repeated-alternative",
            ),
            pytest.param(lambda d: dict(paths=(d.paths[-1],) * len(d.paths)), "paths must be unique", id="repeated-path"),
            pytest.param(lambda d: dict(paths=d.paths[::-1]), "paths must end with the root", id="root-not-last"),
            pytest.param(lambda d: dict(ranking=d.ranking[:-1]), "ranking must be a permutation", id="ranking-short"),
            pytest.param(
                lambda d: dict(ranking=(*d.ranking[:-1], "nobody")), "ranking must be a permutation", id="ranking-stranger"
            ),
            pytest.param(
                lambda d: dict(ranking=(*d.ranking, d.ranking[0])), "ranking must be a permutation", id="ranking-repeat"
            ),
            pytest.param(
                lambda d: dict(utilities={a: d.utilities[a] for a in d.alternatives[1:]}),
                "utilities must name exactly the alternatives",
                id="utilities-missing",
            ),
            pytest.param(
                lambda d: dict(utilities={**d.utilities, "nobody": 0.5}),
                "utilities must name exactly the alternatives",
                id="utilities-extra",
            ),
            pytest.param(
                lambda d: dict(algorithm="\ud800"), r"algorithm '\\ud800' does not encode as UTF-8", id="surrogate-algorithm"
            ),
            pytest.param(
                lambda d: dict(frame=("\ud800", *d.frame[1:])),
                "frame holds a string that does not encode as UTF-8",
                id="surrogate-grade",
            ),
            pytest.param(
                lambda d: dict(alternatives=(*d.alternatives[:-1], "\udc00")),
                "alternatives holds a string that does not encode as UTF-8",
                id="surrogate-alternative",
            ),
            pytest.param(
                lambda d: dict(paths=(*d.paths[:-1], d.paths[-1] + "\ud800")),
                "paths holds a string that does not encode as UTF-8",
                id="surrogate-path",
            ),
            pytest.param(
                lambda d: dict(traces=_root_trace(d, lambda step: {"x": 1})),
                r"trace of '.*' for 'Kawasaki': a step must have the keys",
                id="trace-step-keys",
            ),
            pytest.param(
                lambda d: dict(traces=_root_trace(d, lambda step: {**step, "omega_mass": "0.1"})),
                r"trace of '.*' for 'Kawasaki': trace mass must be a number, got '0.1'",
                id="trace-string-mass",
            ),
            pytest.param(
                lambda d: dict(traces=_root_trace(d, lambda step: {**step, "frame_mass": True})),
                r"trace of '.*' for 'Kawasaki': trace mass must be a number, got True",
                id="trace-boolean-mass",
            ),
            pytest.param(
                lambda d: dict(traces={1: _root_trace(d, dict)["Kawasaki"]}),
                "traces for 1 must name the alternative and its paths by strings",
                id="trace-alternative-key",
            ),
            pytest.param(
                lambda d: dict(traces={"Kawasaki": {1: _root_trace(d, dict)["Kawasaki"][d.paths[-1]]}}),
                "traces for 'Kawasaki' must name the alternative and its paths by strings",
                id="trace-path-key",
            ),
            pytest.param(
                lambda d: dict(traces=_root_trace(d, MappingProxyType)),
                r"trace of '.*' for 'Kawasaki': a step must have the keys .* in a dict",
                id="trace-step-proxy",
            ),
            pytest.param(
                lambda d: dict(
                    traces=_root_trace(d, lambda step: {**step, "singletons": MappingProxyType(step["singletons"])})
                ),
                r"trace of '.*' for 'Kawasaki': singletons must give one mass per grade in a dict",
                id="trace-singletons-proxy",
            ),
        ],
    )
    def test_each_invariant_is_checked_when_built(self, changes, message):
        document = _motorcycle_document()
        with pytest.raises(ValueError, match=message):
            replace(document, **changes(document))

    def test_a_grade_named_unknown_is_refused(self):
        """The reports name the unassigned degree's column Unknown, so no grade may take the name."""
        document = _motorcycle_document()
        with pytest.raises(ValueError, match="grade name 'Unknown' is reserved for the unassigned degree"):
            replace(document, frame=("Unknown", *document.frame[1:]))

    def test_a_document_built_in_code_saves_and_loads_back(self):
        document = _motorcycle_document()
        reordered = replace(
            document, ranking=document.ranking[::-1], utilities=dict(reversed(document.utilities.items()))
        )
        assert reordered != document
        for format in ("json", "table", "csv"):
            assert save_results(reordered, format)
        assert load_results(save_results(reordered)) == [reordered]

    @settings(max_examples=80, deadline=None)
    @given(fields=_result_fields())
    def test_every_document_that_builds_loads_back(self, fields):
        """Built means loadable: a name the loader would refuse is refused when the document is built."""
        try:
            document = ResultDocument(**fields)
        except ValueError as exc:
            assert "does not encode as UTF-8" in str(exc)
            return
        assert load_results(save_results([document])) == [document]

    def test_traces_are_copied_to_plain_dicts(self):
        document = _motorcycle_document(with_trace=True)
        proxied = {alt: MappingProxyType(by_path) for alt, by_path in document.traces.items()}
        again = replace(document, traces=proxied)
        assert all(type(by_path) is dict for by_path in again.traces.values())
        assert again == document
        assert load_results(save_results(again)) == [document]


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
                "results for 'a': node 'root': assigned degree of 'good'",
                id="node-degree",
            ),
            pytest.param(
                ("results", "b", "nodes", "root/x", "unassigned"),
                "results for 'b': node 'root/x': unassigned degree",
                id="node-unassigned",
            ),
            pytest.param(("results", "b", "utility"), "results for 'b': utility", id="utility"),
            pytest.param(
                ("results", "a", "redistributed", "bad"),
                "results for 'a': redistributed degree",
                id="redistributed-degree",
            ),
        ],
    )
    def test_rejected_in_result_documents(self, number, where, message):
        text = _with_raw_number(_saved_minimal_payload(), ("documents", 0, *where), number)
        expected = f"result document 0: {message} must be a finite double, got {json.loads(number)!r}"
        with pytest.raises(ModelFormatError, match=f"^{re.escape(expected)}$"):
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

    def test_grade_named_unknown(self):
        """Every report names the unassigned degree "Unknown"; a grade of that name would be lost."""
        frame = GradeFrame(["bad", "Unknown", "good"])
        leaf = AttributeNode(
            "x", reliability=0.8, importance=1.0, assessments={"a": Assessment.from_degrees(frame, {"good": 0.7})}
        )
        model = EvaluationModel(frame, ("a",), AttributeNode("root", (leaf,)))
        assert self._diagnostics(model) == ["root: grade name 'Unknown' is reserved for the unassigned degree"]

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


def _random_document(seed):
    """A seeded model document whose leaves list alternatives and grades in any order.

    Rows are drawn as randgen draws assessments (some incomplete), some with
    integer ``0``/``1`` degrees, some empty; a leaf may skip a declared
    alternative or assess an undeclared one.
    """
    rng = np.random.default_rng(seed)
    frame = frame_of(int(rng.integers(2, 6)))
    alternatives = [f"a{i}" for i in range(int(rng.integers(1, 6)))]

    def row():
        kind = rng.random()
        if kind < 0.1:
            return {}
        if kind < 0.3:
            grades = [str(g) for g in rng.permutation(frame.grades)]
            return {grades[0]: 1, **{g: 0 for g in grades[1 : int(rng.integers(1, len(grades) + 1))]}}
        degrees = random_assessment(rng, frame).degrees
        kept = [i for i in rng.permutation(len(degrees)) if rng.random() < 0.8]
        return {frame.grades[i]: degrees[i] for i in kept}

    leaves = []
    for i in range(int(rng.integers(1, 5))):
        names = [a for a in rng.permutation(alternatives) if rng.random() < 0.9]
        if rng.random() < 0.2:
            names.insert(int(rng.integers(0, len(names) + 1)), "stranger")
        leaves.append(
            {
                "name": f"x{i}",
                "reliability": 0.5,
                "importance": 0.5,
                "assessments": {str(a): row() for a in names},
            }
        )
    return {
        "schema": "er-model/1",
        "frame": list(frame.grades),
        "alternatives": alternatives,
        "tree": {"name": "root", "children": leaves},
    }


def _bits(values):
    return [float(v).hex() for v in values]


def _fault_document(row):
    """Two leaves over two alternatives; the second leaf lists its alternatives
    out of order and its assessment of 'a' is the literal JSON ``row``."""
    text = json.dumps(
        {
            "schema": "er-model/1",
            "frame": ["bad", "good"],
            "alternatives": ["a", "b"],
            "tree": {
                "name": "top",
                "children": [
                    {
                        "name": "x",
                        "reliability": 0.8,
                        "importance": 0.5,
                        "assessments": {"a": {"good": 0.7}, "b": {"bad": 0.1}},
                    },
                    {
                        "name": "y",
                        "reliability": 0.6,
                        "importance": 0.5,
                        "assessments": {"b": {"good": 0.5}, "a": "ROW"},
                    },
                ],
            },
        }
    )
    return text.replace('"ROW"', row)


class TestArrayLoading:
    """The loader fills each leaf's arrays straight from the parsed document."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_degrees_are_those_of_assessment_from_degrees(self, seed):
        payload = _random_document(seed)
        frame = GradeFrame(payload["frame"])
        model = load_model(json.dumps(payload), check=False)
        for raw, node in zip(payload["tree"]["children"], model.root.children):
            table = node.assessments
            assert table.names == tuple(raw["assessments"])
            for alt, degrees in raw["assessments"].items():
                expected = Assessment.from_degrees(frame, degrees)
                row = table.rows[alt]
                assert _bits(table.degrees[row]) == _bits(expected.degrees)
                assert _bits([table.unassigned[row]]) == _bits([expected.unassigned])
                assert node.assessments[alt] == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_leaf_columns_equal_those_of_the_model_built_in_code(self, seed):
        payload = _random_document(seed)
        frame = GradeFrame(payload["frame"])
        loaded = load_model(json.dumps(payload), check=False)
        built = EvaluationModel(
            frame,
            payload["alternatives"],
            AttributeNode(
                "root",
                children=tuple(
                    AttributeNode(
                        raw["name"],
                        reliability=0.5,
                        importance=0.5,
                        assessments={
                            alt: Assessment.from_degrees(frame, d)
                            for alt, d in raw["assessments"].items()
                        },
                    )
                    for raw in payload["tree"]["children"]
                ),
            ),
            loaded.utility,
        )
        assert loaded == built
        assert validate(loaded) == validate(built)
        try:
            expected = built.plan.leaf_columns
        except ErkitError as exc:
            with pytest.raises(type(exc)) as info:
                loaded.plan.leaf_columns
            assert str(info.value) == str(exc)
            return
        columns = loaded.plan.leaf_columns
        assert columns.keys() == expected.keys()
        for i, (degrees, unassigned) in expected.items():
            assert len(columns[i][0]) == len(degrees)
            assert all(map(np.array_equal, columns[i][0], degrees))
            assert np.array_equal(columns[i][1], unassigned)

    def test_motorcycle_leaf_columns_equal_those_built_in_code(self):
        model = motorcycle_model()
        leaves = [node for _, node in model.walk() if node.is_basic]
        assert all(isinstance(node.assessments, AssessmentTable) for node in leaves)
        rebuilt = {id(node): dict(node.assessments) for node in leaves}

        def copy(node):
            if node.is_basic:
                return replace(node, assessments=rebuilt[id(node)])
            return replace(node, children=tuple(map(copy, node.children)))

        built = replace(model, root=copy(model.root))
        columns, expected = model.plan.leaf_columns, built.plan.leaf_columns
        for i, (degrees, unassigned) in expected.items():
            assert all(map(np.array_equal, columns[i][0], degrees))
            assert np.array_equal(columns[i][1], unassigned)

    @pytest.mark.parametrize(
        "row, message",
        [
            pytest.param(
                '{"bad": 0.2, "good": true}',
                "assessment for 'a': belief degree must be a number, got True",
                id="bool",
            ),
            pytest.param(
                '{"bad": 0.2, "good": "0.5"}',
                "assessment for 'a': belief degree must be a number, got '0.5'",
                id="string",
            ),
            pytest.param(
                '{"bad": 0.2, "good": 1e400}',
                "assessment for 'a': belief degree must be a finite double, got inf",
                id="1e400",
            ),
            pytest.param(
                '{"bad": 0.2, "good": -1e400}',
                "assessment for 'a': belief degree must be a finite double, got -inf",
                id="-1e400",
            ),
            pytest.param(
                '{"bad": 0.2, "good": 10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000}',
                "assessment for 'a': belief degree must be a finite double, got 10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
                id="overlong-integer",
            ),
            pytest.param(
                '{"bad": 0.2, "good": 1.5}',
                "bad assessment for 'a': belief degree 1.5 outside [0, 1]",
                id="degree-above-one",
            ),
            pytest.param(
                '{"bad": 0.6, "good": 0.5}',
                "bad assessment for 'a': belief degrees sum beyond 1",
                id="row-sum-above-one",
            ),
            pytest.param(
                '{"bad": 0.2, "fair": 0.3}',
                "bad assessment for 'a': grade 'fair' is not in the frame",
                id="unknown-grade",
            ),
            pytest.param("[0.2, 0.8]", "assessment for 'a' must be an object", id="non-object"),
        ],
    )
    def test_one_fault_gives_the_per_alternative_message(self, row, message):
        with pytest.raises(ModelFormatError) as info:
            load_model(_fault_document(row))
        assert str(info.value) == "<text>/top/y: " + message

    def test_the_first_fault_in_a_leaf_is_the_one_reported(self):
        text = _fault_document('{"bad": 0.6, "good": 0.5}').replace('{"good": 0.5}', '{"good": true}')
        with pytest.raises(ModelFormatError) as info:
            load_model(text)
        assert str(info.value) == (
            "<text>/top/y: assessment for 'b': belief degree must be a number, got True"
        )

    def test_load_model_builds_no_assessment(self, monkeypatch):
        built = []
        post_init = Assessment.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Assessment, "__post_init__", counting)
        model = derive_reliabilities(load_model(motorcycle_json()))
        model.plan.leaf_columns
        save_model(model)
        assert built == []
        model.root.children[0].children[0].assessments["Kawasaki"]
        assert len(built) == 1

    def test_a_leaf_built_over_two_frames_is_refused(self):
        other = GradeFrame(["low", "high"])
        with pytest.raises(FrameMismatchError, match="'a' and 'b' use different frames"):
            AttributeNode(
                "x",
                assessments={
                    "a": Assessment.from_degrees(frame_of(2), {"g0": 1.0}),
                    "b": Assessment.from_degrees(other, {"low": 1.0}),
                },
            )

    def test_tables_are_read_only_and_equal_in_any_order(self):
        frame = frame_of(3)
        a, b = Assessment.from_degrees(frame, {"g0": 0.5}), Assessment.from_degrees(frame, {"g2": 1})
        table = AttributeNode("x", assessments={"a": a, "b": b}).assessments
        assert table == AttributeNode("x", assessments={"b": b, "a": a}).assessments
        assert table == {"a": a, "b": b}
        assert table != AttributeNode("x", assessments={"a": b, "b": a}).assessments
        with pytest.raises(ValueError):
            table.degrees[0, 0] = 1.0


def _node(name, **fields):
    return {"name": name, "reliability": 0.8, "importance": 0.5, **fields}


def _first_fault(tree) -> str:
    with pytest.raises(ModelFormatError) as info:
        load_model(json.dumps({**MINIMAL, "tree": tree}))
    return str(info.value)


class TestParseWalk:
    """The loader's one iterative walk: each node's fields and children list are
    checked before its subtree, its assessments and factors after it."""

    def test_a_3000_level_chain_parses_and_evaluates(self):
        # A parsed document this deep cannot come from json.loads, whose nesting
        # limit is far shallower, so the tree is handed to the walk as a dict.
        from erkit.modelio import _parse_tree

        frame = GradeFrame(["bad", "good"])
        shallow, deep = {"a": {"bad": 0.3}}, {"a": {"good": 0.6, "bad": 0.1}}

        def leaf(name, degrees):
            assessments = {a: Assessment.from_degrees(frame, d) for a, d in degrees.items()}
            return AttributeNode(name, reliability=0.8, importance=0.5, assessments=assessments)

        raw, built = _node("y", assessments=deep), leaf("y", deep)
        for _ in range(3000):
            raw = {"name": "n", "importance": 0.5, "children": [_node("x", assessments=shallow), raw]}
            built = AttributeNode("n", children=(leaf("x", shallow), built), importance=0.5)
        root = _parse_tree(raw, frame, "<dict>", True, False)
        model = derive_reliabilities(EvaluationModel(frame, ("a",), root))
        expected = derive_reliabilities(EvaluationModel(frame, ("a",), built))
        assert model == expected
        assert len(model.plan.paths) == 6001
        for scheme in ("oer", "mer", "e2r"):
            batch, reference = evaluate_batch(model, scheme), evaluate_batch(expected, scheme)
            assert np.array_equal(batch.assigned, reference.assigned)
            assert np.array_equal(batch.unassigned, reference.unassigned)

    def test_a_leafs_degree_is_checked_before_a_later_siblings_name(self):
        first = _node("x", assessments={"a": {"good": "0.7"}})
        tree = {"name": "top", "children": [first, _node(5, assessments={"a": {"good": 0.7}})]}
        assert _first_fault(tree) == (
            "<text>/top/x: assessment for 'a': belief degree must be a number, got '0.7'"
        )
        first["assessments"]["a"]["good"] = 0.7
        assert _first_fault(tree) == "<text>/top: node name must be a non-empty string"

    def test_a_childs_name_is_checked_before_its_parents_reliability(self):
        child = _node("", assessments={"a": {"good": 0.7}})
        tree = {"name": "top", "children": [_node("mid", reliability="high", children=[child])]}
        assert _first_fault(tree) == "<text>/top/mid: node name must be a non-empty string"
        child["name"] = "z"
        assert _first_fault(tree) == "<text>/top/mid: reliability must be a number, got 'high'"

    def test_tables_are_read_only_views_of_one_buffer(self):
        tables = [node.assessments for _, node in motorcycle_model().walk() if node.is_basic]
        first, last = tables[0], tables[-1]
        assert first.degrees.base is last.degrees.base is not None
        assert first.unassigned.base is last.unassigned.base is not None
        with pytest.raises(ValueError):
            first.degrees[0, 0] = 0.5
        with pytest.raises(ValueError):
            last.unassigned[0] = 0.5
