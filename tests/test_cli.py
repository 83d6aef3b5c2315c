"""Tests for the command-line interface: exit codes, formats, determinism."""

import json
from pathlib import Path

import pytest

from erkit import motorcycle_json
from erkit.cli import EXIT_IO, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "motorcycle.json"
    path.write_text(motorcycle_json(), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_default_algorithm_ranks_honda_first(self, capsys, model_file):
        code, out, err = run(capsys, "evaluate", model_file)
        assert code == EXIT_OK
        assert "e2r" in out
        ranking_line = [l for l in out.splitlines() if l.startswith("e2r")][-1]
        assert ranking_line.split()[1] == "Honda"

    def test_all_algorithms_emit_three_by_four_utilities(self, capsys, model_file):
        code, out, _ = run(capsys, "evaluate", "--algo", "all", "--format", "json", model_file)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [d["algorithm"] for d in payload["documents"]] == ["oer", "mer", "e2r"]
        for document in payload["documents"]:
            assert len(document["results"]) == 4

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "evaluate", str(tmp_path / "nope.json"))
        assert code == EXIT_IO
        assert "error" in err

    def test_invalid_json_is_validation_failure(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "evaluate", str(path))
        assert code == EXIT_VALIDATION

    def test_semantic_problem_is_validation_failure(self, capsys, tmp_path, model_file):
        raw = json.loads(motorcycle_json())
        raw["tree"]["children"][0]["importance"] = 0.9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, _, err = run(capsys, "evaluate", str(path))
        assert code == EXIT_VALIDATION
        assert "importances sum" in err

    def test_total_conflict_is_runtime_failure(self, capsys, tmp_path):
        doc = {
            "schema": "er-model/1",
            "frame": ["bad", "good"],
            "alternatives": ["a"],
            "tree": {
                "name": "root",
                "children": [
                    {"name": "x", "reliability": 1.0, "importance": 0.5,
                     "assessments": {"a": {"bad": 1.0}}},
                    {"name": "y", "reliability": 1.0, "importance": 0.5,
                     "assessments": {"a": {"good": 1.0}}},
                ],
            },
        }
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--algo", "oer", str(path))
        assert code == EXIT_RUNTIME
        assert "root" in err

    def test_trace_included_on_request(self, capsys, model_file):
        code, out, _ = run(capsys, "evaluate", "--trace", "--format", "json", model_file)
        assert code == EXIT_OK
        payload = json.loads(out)
        traces = payload["documents"][0]["traces"]
        assert "motorcycle performance" in traces["Kawasaki"]

    def test_out_writes_file_instead_of_stdout(self, capsys, tmp_path, model_file):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "evaluate", "--format", "json", "--out", str(target), model_file)
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["schema"] == "er-result/1"

    def test_byte_identical_reruns(self, capsys, model_file):
        _, first, _ = run(capsys, "evaluate", "--algo", "all", "--format", "json", model_file)
        _, second, _ = run(capsys, "evaluate", "--algo", "all", "--format", "json", model_file)
        assert first == second

    def test_strict_mode_rejects_unknown_fields(self, capsys, tmp_path):
        raw = json.loads(motorcycle_json())
        raw["annotation"] = "extra"
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert run(capsys, "evaluate", str(path))[0] == EXIT_OK
        assert run(capsys, "evaluate", "--strict", str(path))[0] == EXIT_VALIDATION


class TestCheckAxioms:
    def test_importance_scheme_passes_four_of_four(self, capsys):
        code, out, _ = run(capsys, "check-axioms", "--algo", "mer", "--iterations", "100")
        assert code == EXIT_OK
        assert out.count("holds") == 4
        assert "VIOLATED" not in out

    def test_reliability_scheme_reports_counterexamples(self, capsys):
        code, out, _ = run(capsys, "check-axioms", "--algo", "oer", "--iterations", "100")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert any("independence" in l and "holds" in l for l in lines)
        for axiom in ("consensus", "completeness", "incompleteness"):
            assert any(axiom in l and "VIOLATED" in l for l in lines)
        assert "first counterexample" in out

    def test_zero_iterations_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check-axioms", "--iterations", "0"])
        assert info.value.code == 2

    def test_deterministic_under_fixed_seed(self, capsys):
        args = ("check-axioms", "--algo", "oer", "--iterations", "60", "--format", "json", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        payload = json.loads(first)
        assert payload["axioms"]["independence"]["holds"] == 60


class TestCompare:
    def test_contrasts_all_three_algorithms(self, capsys, model_file):
        code, out, _ = run(capsys, "compare", model_file)
        assert code == EXIT_OK
        for algo in ("oer", "mer", "e2r"):
            assert algo in out
        assert "e2r-mer" in out

    def test_unknown_mass_ordering_on_the_benchmark(self, capsys, model_file):
        code, out, _ = run(capsys, "compare", "--format", "json", model_file)
        assert code == EXIT_OK
        payload = json.loads(out)
        for alt, entry in payload["comparison"].items():
            assert entry["distributions"]["e2r"]["Unknown"] >= entry["distributions"]["mer"]["Unknown"]

    def test_degenerate_toy_model_agrees_across_algorithms(self, capsys, tmp_path):
        doc = {
            "schema": "er-model/1",
            "frame": ["bad", "good"],
            "alternatives": ["a"],
            "tree": {
                "name": "root",
                "children": [
                    {"name": "only", "reliability": 1.0, "importance": 1.0,
                     "assessments": {"a": {"good": 0.6}}},
                ],
            },
        }
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "compare", "--format", "json", str(path))
        assert code == EXIT_OK
        payload = json.loads(out)
        dists = payload["comparison"]["a"]["distributions"]
        for key in ("bad", "good", "Unknown"):
            assert dists["oer"][key] == pytest.approx(dists["mer"][key], abs=1e-12)
            assert dists["oer"][key] == pytest.approx(dists["e2r"][key], abs=1e-12)

    def test_csv_format(self, capsys, model_file):
        code, out, _ = run(capsys, "compare", "--format", "csv", model_file)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "algorithm,alternative,grade,degree"


def _toy_document():
    return {
        "schema": "er-model/1",
        "frame": ["l", "h"],
        "utilities": {"l": 0.0, "h": 1.0},
        "alternatives": ["a"],
        "tree": {
            "name": "root",
            "children": [
                {"name": "only", "reliability": 1.0, "importance": 1.0,
                 "assessments": {"a": {"h": 0.6}}},
            ],
        },
    }


class TestMalformedModels:
    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda d: d.update(utilities=[0.0, 1.0]), id="utilities-list"),
            pytest.param(
                lambda d: d["tree"]["children"][0].update(assessments=[{"h": 0.6}]),
                id="assessments-list",
            ),
            pytest.param(lambda d: d["tree"].update(children=5), id="children-number"),
            # one-letter grades, so a string frame would split into the same grades
            pytest.param(lambda d: d.update(frame="lh"), id="frame-string"),
            pytest.param(
                lambda d: d["tree"]["children"][0]["assessments"]["a"].update(h=True),
                id="boolean-degree",
            ),
            # grades named "0" and "1" in every other place, so only the frame's type is wrong
            pytest.param(
                lambda d: (
                    d.update(frame=[0, 1], utilities={"0": 0.0, "1": 1.0}),
                    d["tree"]["children"][0]["assessments"].update(a={"1": 0.6}),
                ),
                id="frame-numbers",
            ),
        ],
    )
    def test_schema_type_error_is_validation_failure(self, capsys, tmp_path, mutate):
        doc = _toy_document()
        path = tmp_path / "good.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(capsys, "evaluate", str(path))[0] == EXIT_OK
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "evaluate", str(path))
        assert code == EXIT_VALIDATION
        assert err.startswith("error:")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_is_validation_failure(self, capsys, tmp_path, constant):
        text = json.dumps(_toy_document()).replace('"reliability": 1.0', f'"reliability": {constant}')
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "evaluate", str(path))
        assert code == EXIT_VALIDATION
        assert err.startswith("error:") and f"non-finite number {constant}" in err

    def test_nesting_beyond_the_parser_limit_is_validation_failure(self, capsys, tmp_path):
        leaf = '{"name": "x", "reliability": 0.5, "importance": 0.5, "assessments": {"a": {"h": 0.6}}}'
        node = '{"name": "y", "reliability": 0.5, "importance": 0.5, "assessments": {"a": {"l": 0.2}}}'
        for _ in range(600):
            node = '{"name": "n", "importance": 0.5, "children": [' + leaf + ", " + node + "]}"
        path = tmp_path / "deep.json"
        path.write_text('{"frame": ["l", "h"], "alternatives": ["a"], "tree": ' + node + "}", encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--algo", "all", "--format", "json", str(path))
        assert code == EXIT_VALIDATION
        assert err.startswith("error:") and "nested deeper than the JSON parser's limit" in err
        assert "Traceback" not in err and out == ""


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["evaluate", "--algo", "all", "--format", "json"], "evaluate_all.json"),
        (["evaluate", "--algo", "all", "--format", "csv"], "evaluate_all.csv"),
        (["evaluate", "--algo", "all", "--format", "table"], "evaluate_all.txt"),
        (["evaluate", "--algo", "e2r", "--trace", "--format", "json"], "evaluate_e2r_trace.json"),
        (["compare", "--format", "json"], "compare.json"),
        (["compare", "--format", "table"], "compare.txt"),
    ],
)
def test_motorcycle_reports_match_the_golden_files(capsys, model_file, argv, golden):
    """The CLI's reports on the bundled model, byte for byte as recorded in tests/data/golden."""
    code, out, err = run(capsys, *argv, model_file)
    assert (code, err) == (EXIT_OK, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
