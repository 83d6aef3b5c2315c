"""Tests for the command-line interface: exit codes, formats, determinism."""

import json
from pathlib import Path

import pytest

import erkit.hierarchy
import erkit.modelio
from erkit import cli, errors, motorcycle_json
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


@pytest.mark.parametrize("argv", [["evaluate", "--algo", "all"], ["compare"]])
def test_a_run_validates_and_compiles_the_model_once(capsys, monkeypatch, model_file, argv):
    compiled, validated = [], []
    validate = erkit.hierarchy.validate

    class Counting(erkit.hierarchy.CompiledModel):
        def __init__(self, model):
            compiled.append(model)
            super().__init__(model)

    def counting_validate(model):
        validated.append(model)
        return validate(model)

    monkeypatch.setattr(erkit.hierarchy, "CompiledModel", Counting)
    for module in (erkit.hierarchy, erkit.modelio):
        monkeypatch.setattr(module, "validate", counting_validate)
    code, _, err = run(capsys, *argv, model_file)
    assert code == EXIT_OK, err
    assert (len(compiled), len(validated)) == (1, 1)


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

    @pytest.mark.parametrize("format, traced", [("table", False), ("csv", False), ("json", True)])
    def test_trace_folds_with_traces_only_for_json(self, capsys, monkeypatch, model_file, format, traced):
        """Only the JSON report holds traces, so the table and CSV reports fold without them."""
        calls, evaluate_batch = [], cli.evaluate_batch

        def spy(model, algorithm, with_trace=False):
            calls.append(with_trace)
            return evaluate_batch(model, algorithm, with_trace)

        monkeypatch.setattr(cli, "evaluate_batch", spy)
        code, _, _ = run(capsys, "evaluate", "--algo", "all", "--trace", "--format", format, model_file)
        assert (code, calls) == (EXIT_OK, [traced] * 3)

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

    def test_seed_beyond_64_bits_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check-axioms", "--seed", str(2**64)])
        assert info.value.code == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err

    def test_deterministic_under_fixed_seed(self, capsys):
        args = ("check-axioms", "--algo", "oer", "--iterations", "60", "--format", "json", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        payload = json.loads(first)
        assert payload["axioms"]["independence"]["holds"] == 60


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_only_check_axioms_takes_a_seed(capsys, model_file, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--seed", "1", model_file])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "unrecognized arguments: --seed" in err


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


def _slash_document():
    """A root with a leaf "x/y" and a node "x" holding a leaf "y": both are path root/x/y."""

    def leaf(name):
        return {"name": name, "reliability": 0.9, "importance": 0.5 if name == "x/y" else 1.0,
                "assessments": {"a": {"h": 0.6}}}

    doc = _toy_document()
    doc["tree"]["children"] = [
        leaf("x/y"),
        {"name": "x", "reliability": 0.9, "importance": 0.5, "children": [leaf("y")]},
    ]
    return doc


class TestInputsTheLoaderRejects:
    def _run_file(self, capsys, tmp_path, content: bytes):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "evaluate", "--algo", "all", "--format", "json", str(path))
        assert "Traceback" not in err
        return code, out, err

    @pytest.mark.parametrize(
        "number",
        [
            pytest.param("9" * 400, id="400-digit-integer"),
            pytest.param("-" + "9" * 400, id="negative-400-digit-integer"),
            pytest.param("1e400", id="1e400"),
        ],
    )
    def test_number_beyond_the_double_range_is_validation_failure(self, capsys, tmp_path, number):
        text = json.dumps(_toy_document()).replace('"h": 0.6', f'"h": {number}')
        assert number in text
        code, out, err = self._run_file(capsys, tmp_path, text.encode())
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error:") and "belief degree must be a finite double" in err

    def test_integer_literal_beyond_the_conversion_limit_is_validation_failure(self, capsys, tmp_path):
        text = json.dumps(_toy_document()).replace('"h": 0.6', '"h": ' + "1" * 5000)
        code, _, err = self._run_file(capsys, tmp_path, text.encode())
        assert code == EXIT_VALIDATION
        assert err.startswith("error:") and "not valid JSON" in err

    def test_file_that_is_not_utf8_is_validation_failure(self, capsys, tmp_path):
        content = json.dumps(_toy_document()).replace('"a"', '"\xe9"').encode("latin-1")
        code, _, err = self._run_file(capsys, tmp_path, content)
        assert code == EXIT_VALIDATION
        assert err.startswith("error:") and "not valid JSON" in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--format", "table"], id="table"),
            pytest.param(["--format", "csv"], id="csv"),
            pytest.param(["--format", "table", "--out"], id="table-out"),
            pytest.param(["--format", "csv", "--out"], id="csv-out"),
        ],
    )
    def test_name_with_a_lone_surrogate_is_validation_failure(self, capsys, tmp_path, argv):
        """The first motorcycle renamed "\\ud800" everywhere: such a name cannot be written as UTF-8."""
        text = json.dumps(json.loads(motorcycle_json())).replace('"Kawasaki"', '"\\ud800"')
        path, report = tmp_path / "model.json", tmp_path / "report"
        path.write_text(text, encoding="utf-8")
        if argv[-1] == "--out":
            argv = [*argv, str(report)]
        code, out, err = run(capsys, "evaluate", "--algo", "all", *argv, str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error:") and "alternatives holds a string that does not encode as UTF-8" in err
        assert not report.exists()

    def test_node_name_with_a_slash_is_validation_failure(self, capsys, tmp_path):
        doc = _slash_document()
        code, out, err = self._run_file(capsys, tmp_path, json.dumps(doc).encode())
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == (
            "error: model validation failed: root/x/y: node name contains '/', "
            "the path separator\n"
        )
        doc["tree"]["children"][0]["name"] = "x-y"
        code, out, _ = self._run_file(capsys, tmp_path, json.dumps(doc).encode())
        assert code == EXIT_OK
        nodes = json.loads(out)["documents"][0]["results"]["a"]["nodes"]
        assert list(nodes) == ["root/x-y", "root/x/y", "root/x", "root"]


    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_grade_named_unknown_is_validation_failure(self, capsys, tmp_path, command):
        """Reports name the unassigned degree "Unknown", so no grade may take that name."""
        doc = _toy_document()
        doc["frame"] = ["l", "Unknown", "h"]
        doc["utilities"] = {"l": 0.0, "Unknown": 0.5, "h": 1.0}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, command, "--format", "json", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == (
            "error: model validation failed: root: grade name 'Unknown' is reserved "
            "for the unassigned degree\n"
        )


class TestExitCodeMapping:
    @pytest.mark.parametrize(
        "error, expected",
        [
            (errors.CompleteConflictError("conflict"), EXIT_RUNTIME),
            (errors.DegenerateMassError("degenerate"), EXIT_RUNTIME),
            (errors.WeightSumError("weights"), EXIT_RUNTIME),
            (errors.FrameMismatchError("frames"), EXIT_RUNTIME),
            (errors.ErkitError("other"), EXIT_RUNTIME),
            (errors.ModelFormatError("format"), EXIT_VALIDATION),
            (errors.ModelValidationError(["diagnostic"]), EXIT_VALIDATION),
            (PermissionError("denied"), EXIT_IO),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
    )
    def test_each_error_maps_to_its_exit_code(self, capsys, monkeypatch, model_file, error, expected):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "evaluate_batch", fail)
        code, out, err = run(capsys, "evaluate", model_file)
        assert (code, out) == (expected, "")
        assert err == f"error: {error}\n"
