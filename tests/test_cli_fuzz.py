"""Fuzzed exit-code contract of the CLI.

Whatever JSON document a model file holds, ``main()`` returns 0, 1, 2 or
3 and lets no exception escape; a nonzero exit prints a stderr line that
starts with ``error:``.  Documents are arbitrary JSON values, the
motorcycle model with one value (a container or a scalar) replaced by an
arbitrary JSON value, and the motorcycle model with one alternative
renamed everywhere.  Text includes lone surrogates, which JSON escapes
allow but UTF-8 cannot encode.  One command writes its report through
``--out``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from erkit import motorcycle_json
from erkit.cli import main

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


@settings(max_examples=250, deadline=None)
@given(
    document=json_values | mutated_motorcycle() | renamed_motorcycle(),
    argv=st.sampled_from(COMMANDS),
)
def test_every_document_gets_a_contract_exit_code(document, argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "model.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        if argv[-1] == "--out":
            argv = [*argv, str(Path(scratch) / "report")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
    assert code in (0, 1, 2, 3)
    if code:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
