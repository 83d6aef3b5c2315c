"""Self-tests of the benchmark's generator, oracle, span arithmetic and failure classifier."""

import json
import math

import pytest

import gen
import layers
import oracle
import workloads
from erkit.datasets import motorcycle_json
from erkit.hierarchy import derive_reliabilities, evaluate
from erkit.modelio import load_model


def test_generator_is_deterministic_per_seed():
    wide = gen.to_json(gen.wide_model(7, grades=4, branching=3, depth=2, alternatives=5))
    assert wide == gen.to_json(gen.wide_model(7, grades=4, branching=3, depth=2, alternatives=5))
    assert wide != gen.to_json(gen.wide_model(8, grades=4, branching=3, depth=2, alternatives=5))
    assert gen.to_json(gen.chain_model(7, 30)) == gen.to_json(gen.chain_model(7, 30))


def test_generated_documents_are_valid_models():
    doc = gen.wide_model(3, grades=5, branching=3, depth=2, alternatives=4)
    assert json.loads(gen.to_json(doc)) == doc
    stack = [doc["tree"]]
    while stack:
        node = stack.pop()
        children = node.get("children", [])
        if children:
            assert "reliability" not in node
            assert math.isclose(math.fsum(c["importance"] for c in children), 1.0, abs_tol=1e-12)
            stack.extend(children)
        else:
            assert 0.0 < node["reliability"] < 1.0
            assert all(math.fsum(d.values()) <= 1.0 + 1e-12 for d in node["assessments"].values())
    load_model(gen.to_json(doc))


def test_chain_text_has_no_depth_limit():
    text = gen.to_json(gen.chain_model(1, 3000))
    assert text.count('"children"') == 2999


@pytest.mark.parametrize("scheme", oracle.SCHEMES)
@pytest.mark.parametrize(
    "doc",
    [json.loads(motorcycle_json()), gen.wide_model(5, grades=4, branching=3, depth=3, alternatives=3)],
    ids=["motorcycle", "random-tree"],
)
def test_dst_oracle_matches_hierarchy_evaluate(doc, scheme):
    model = derive_reliabilities(load_model(json.dumps(doc)))
    for alt in doc["alternatives"]:
        got = evaluate(model, scheme, alt)
        want = oracle.node_results(doc, scheme, alt)
        assert set(got) == set(want)
        for path, (assigned, unassigned) in want.items():
            assert got[path].assigned == pytest.approx(assigned, abs=1e-12)
            assert got[path].unassigned == pytest.approx(unassigned, abs=1e-12)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 4.0, 0, 0],  # overlaps a: together they cover [1, 4]
        ["c", 9.0, 12.0, 0, 0],  # only [9, 10] lies inside root
        ["a.inner", 1.5, 2.5, 1, 0],
    ]
    assert layers.self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 1.0, 2.0, 3.0, 1.0])


def test_classifier_flags_a_traceback_with_exit_code_1():
    stderr = b'Traceback (most recent call last):\n  File "x.py", line 1\nRecursionError: too deep\n'
    failure = workloads.classify(1, stderr, [])
    assert "exit code 1" in failure and "traceback" in failure
    assert workloads.classify(0, stderr, []) is not None
    assert workloads.classify(0, b"", ["wrong ranking"]) == "wrong ranking"
    assert workloads.classify(0, b"", []) is None
