"""Fuzzed exit-code contract of the CLI.

Whatever JSON document a model file holds, ``main()`` returns 0, 1, 2 or
3 and lets no exception escape; a nonzero exit prints a stderr line that
starts with ``error:``.  Documents are arbitrary JSON values, the
motorcycle model with one value (a container or a scalar) replaced by an
arbitrary JSON value, and the motorcycle model with one alternative
renamed everywhere.  Text includes lone surrogates, which JSON escapes
allow but UTF-8 cannot encode.  One command writes its report through
``--out``.

Valid model files at extreme numbers get the same contract: near-total
conflict, factors within 1e-12 of 0 or 1, and subnormal degrees.  Each
run exits 0 or 2 with no traceback, and each report it writes is finite
and reads back through ``load_results``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from erkit import load_results, motorcycle_json
from erkit.cli import EXIT_OK, EXIT_RUNTIME, main

# Integers beyond the double range are numbers that float() cannot convert.
numbers = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=2**1024, max_value=10**400),
    st.integers(min_value=-(10**400), max_value=-(2**1024)),
)

# Every code point, surrogates included.
texts = st.text(st.characters(exclude_categories=()))

json_values = st.recursive(
    st.none() | st.booleans() | numbers | texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)


def _locations(document) -> list[tuple]:
    """The key path of every value below the top level of a JSON document."""
    found, stack = [], [((), document)]
    while stack:
        path, value = stack.pop()
        if path:
            found.append(path)
        if isinstance(value, dict):
            stack.extend((path + (k,), v) for k, v in value.items())
        elif isinstance(value, list):
            stack.extend((path + (i,), v) for i, v in enumerate(value))
    return found


LOCATIONS = _locations(json.loads(motorcycle_json()))


@st.composite
def mutated_motorcycle(draw):
    document = json.loads(motorcycle_json())
    *parents, key = draw(st.sampled_from(LOCATIONS))
    target = document
    for step in parents:
        target = target[step]
    target[key] = draw(numbers | json_values)
    return document


@st.composite
def renamed_motorcycle(draw):
    document = json.loads(motorcycle_json())
    old = draw(st.sampled_from(document["alternatives"]))
    new = draw(texts)
    document["alternatives"] = [new if a == old else a for a in document["alternatives"]]
    stack = [document["tree"]]
    while stack:
        node = stack.pop()
        stack.extend(node.get("children", []))
        if "assessments" in node:
            node["assessments"] = {new if a == old else a: d for a, d in node["assessments"].items()}
    return document


COMMANDS = [
    ["evaluate", "--algo", "all", "--format", "json"],
    ["evaluate", "--trace", "--format", "csv"],
    ["evaluate", "--format", "table", "--out"],
    ["compare", "--format", "table"],
]


def run(document, argv):
    """``main()`` on ``document`` saved as a model file; the exit code, stderr, and the report
    an ``--out`` command wrote (``None`` if it wrote none)."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        path, report = Path(scratch) / "model.json", Path(scratch) / "report"
        path.write_text(json.dumps(document), encoding="utf-8")
        if argv[-1] == "--out":
            argv = [*argv, str(report)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
        written = report.read_text(encoding="utf-8") if report.exists() else None
    assert code in (0, 1, 2, 3)
    if code:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    return code, err.getvalue(), written


@settings(max_examples=250, deadline=None)
@given(
    document=json_values | mutated_motorcycle() | renamed_motorcycle(),
    argv=st.sampled_from(COMMANDS),
)
def test_every_document_gets_a_contract_exit_code(document, argv):
    run(document, argv)


# Within 1e-12 of 0 or 1, exactly 0 or 1, or anywhere between.
tiny = st.floats(0, 1e-12)
factors = st.sampled_from([0.0, 1.0]) | tiny | tiny.map(lambda e: 1 - e) | st.floats(0, 1)
slivers = st.floats(1, 12).map(lambda e: 10.0**-e)
subnormals = st.floats(0, 2.2e-308, exclude_min=True)


@st.composite
def extreme_degrees(draw, grades):
    """Near-total conflict (all but a sliver on one grade, half the sliver on the next), one
    grade certain with subnormal degrees elsewhere, or subnormal degrees alone."""
    g = draw(st.integers(0, len(grades) - 1))
    kind = draw(st.sampled_from(["sliver", "certain", "subnormal"]))
    if kind == "sliver":
        s = draw(slivers)
        return {grades[g]: 1 - s, grades[(g + 1) % len(grades)]: s / 2}
    degrees = {grade: draw(subnormals) for grade in grades}
    if kind == "certain":
        degrees[grades[g]] = 1.0
    return degrees


@st.composite
def extreme_models(draw):
    """A valid model document: a root with 2-5 children, some general with 2-3 leaves."""
    grades = [f"g{i}" for i in range(draw(st.integers(2, 4)))]
    alternatives = [f"a{i}" for i in range(draw(st.integers(1, 3)))]

    def importances(n):
        """Even, or all but a sum of slivers within 1e-12 of 0 on one child."""
        if draw(st.booleans()):
            return [1 / n] * n
        minor = [draw(tiny) for _ in range(n - 1)]
        major = draw(st.integers(0, n - 1))
        return [*minor[:major], 1 - sum(minor), *minor[major:]]

    def leaf(name, importance):
        return {
            "name": name, "reliability": draw(factors), "importance": importance,
            "assessments": {alt: draw(extreme_degrees(grades)) for alt in alternatives},
        }

    children = []
    for i, importance in enumerate(importances(draw(st.integers(2, 5)))):
        n = draw(st.sampled_from([0, 0, 2, 3]))
        if n:
            children.append({
                "name": f"n{i}", "importance": importance,
                "children": [leaf(f"n{i}l{j}", w) for j, w in enumerate(importances(n))],
            })
        else:
            children.append(leaf(f"n{i}", importance))
    tree = {"name": "root", "children": children}
    return {"schema": "er-model/1", "frame": grades, "alternatives": alternatives, "tree": tree}


@seed(42)
@settings(max_examples=100, deadline=None)
@given(document=extreme_models(), trace=st.booleans())
def test_valid_models_at_extreme_numbers_get_a_contract_exit_code(document, trace):
    argv = ["evaluate", "--algo", "all", *(["--trace"] * trace), "--format", "json", "--out"]
    code, err, report = run(document, argv)
    assert code in (EXIT_OK, EXIT_RUNTIME) and "Traceback" not in err, err
    if code == EXIT_OK:
        json.loads(report, parse_constant=lambda name: pytest.fail(f"the report holds {name}"))
        assert len(load_results(report)) == 3
