"""The batch path: every alternative folded at once, bit for bit the per-alternative result."""

import itertools
import json
import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erkit import (
    AGGREGATORS,
    Assessment,
    AttributeNode,
    CompiledModel,
    CompleteConflictError,
    EvaluationModel,
    GradeFrame,
    UtilityFunction,
    assessment_to_bba,
    derive_reliabilities,
    dempster_combine,
    evaluate,
    evaluate_batch,
    extended_dempster_combine,
    importance_discount,
    load_model,
    motorcycle_model,
    normalize_ibba,
    reliability_discount,
    reliability_importance_discount,
    save_results,
    validate,
)
from erkit.cli import EXIT_RUNTIME, _run_algorithms, main

from randgen import frame_of, random_assessment

#: The tolerance the acceptance suite holds the aggregators to against erkit.dst.
DST_TOL = 1e-10


def random_model(seed, depth, branching, grades, alternatives):
    """A seeded tree with 1..``branching`` children per general node, leaves at any depth."""
    rng = np.random.default_rng(seed)
    frame = frame_of(grades)
    alts = tuple(f"a{i}" for i in range(alternatives))

    def grow(name, level, importance):
        if level == depth or (level > 0 and rng.random() < 0.2):
            return AttributeNode(
                name,
                reliability=float(rng.uniform(0.05, 1.0)),
                importance=importance,
                assessments={alt: random_assessment(rng, frame) for alt in alts},
            )
        n = int(rng.integers(1, branching + 1))
        weights = [float(w) for w in rng.dirichlet(np.ones(n) * 2.0)]
        children = tuple(grow(f"{name}.{i}", level + 1, w) for i, w in enumerate(weights))
        return AttributeNode(name, children=children, importance=importance)

    return derive_reliabilities(EvaluationModel(frame, alts, grow("r", 0, None)))


def dst_results(model, scheme, alternative):
    """(assigned, unassigned) per node path, from the erkit.dst pipelines only."""

    def visit(node, path):
        if node.is_basic:
            mass = assessment_to_bba(node.assessments[alternative])
            out[path] = mass
            return mass
        parts = []
        for child in node.children:
            mass = visit(child, f"{path}/{child.name}")
            if scheme == "oer":
                parts.append(reliability_discount(mass, child.reliability))
            elif scheme == "mer":
                parts.append(importance_discount(mass, child.importance))
            else:
                parts.append(reliability_importance_discount(mass, child.reliability, child.importance))
        if scheme == "oer":
            mass = reduce(dempster_combine, parts)
        else:
            mass = normalize_ibba(reduce(extended_dempster_combine, parts))
        out[path] = mass
        return mass

    out = {}
    visit(model.root, model.root.name)
    return {path: (m.singletons, m.frame_mass) for path, m in out.items()}


def assert_batch_equals_evaluate(model, batch, plan):
    for a, alt in enumerate(model.alternatives):
        per = evaluate(plan, batch.algorithm, alt)
        assert tuple(per) == batch.paths
        for i, path in enumerate(batch.paths):
            assert tuple(batch.assigned[i][a].tolist()) == per[path].assigned, (path, alt)
            assert float(batch.unassigned[i][a]) == per[path].unassigned, (path, alt)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 3),
    branching=st.integers(1, 4),
    grades=st.integers(2, 5),
    alternatives=st.integers(1, 200),
)
def test_batch_equals_per_alternative_and_dst(seed, depth, branching, grades, alternatives):
    model = random_model(seed, depth, branching, grades, alternatives)
    plan = CompiledModel(model)
    for scheme in AGGREGATORS:
        batch = evaluate_batch(plan, scheme)
        assert batch.alternatives == model.alternatives
        assert batch.paths[-1] == model.root.name
        assert_batch_equals_evaluate(model, batch, plan)
        for a in sorted({0, alternatives // 2, alternatives - 1}):
            want = dst_results(model, scheme, model.alternatives[a])
            for i, path in enumerate(batch.paths):
                assigned, unassigned = want[path]
                assert batch.assigned[i][a] == pytest.approx(assigned, abs=DST_TOL)
                assert batch.unassigned[i][a] == pytest.approx(unassigned, abs=DST_TOL)


@pytest.mark.parametrize("scheme", AGGREGATORS)
def test_batch_equals_per_alternative_on_the_motorcycle_model(scheme):
    model = derive_reliabilities(motorcycle_model())
    plan = CompiledModel(model)
    batch = evaluate_batch(plan, scheme)
    assert_batch_equals_evaluate(model, batch, plan)
    assert batch.roots() == {alt: evaluate(model, scheme, alt)[model.root.name] for alt in model.alternatives}


def _conflict_document():
    """Three alternatives; only ``b`` meets total conflict, at root/inner."""
    good = {"a": {"l": 0.5, "h": 0.5}, "b": {"l": 1.0}, "c": {"h": 0.4}}
    bad = {"a": {"h": 0.7}, "b": {"h": 1.0}, "c": {"l": 0.3}}
    return {
        "schema": "er-model/1",
        "frame": ["l", "h"],
        "alternatives": ["a", "b", "c"],
        "tree": {
            "name": "root",
            "children": [
                {"name": "inner", "importance": 0.5, "children": [
                    {"name": "x", "reliability": 1.0, "importance": 0.5, "assessments": good},
                    {"name": "y", "reliability": 1.0, "importance": 0.5, "assessments": bad},
                ]},
                {"name": "z", "reliability": 0.5, "importance": 0.5,
                 "assessments": {"a": {"h": 0.2}, "b": {"h": 0.2}, "c": {"h": 0.2}}},
            ],
        },
    }


def test_total_conflict_of_one_alternative_names_node_and_alternative(tmp_path, capsys):
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(_conflict_document()), encoding="utf-8")
    code = main(["evaluate", "--algo", "oer", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert err.startswith("error:")
    assert "'root/inner'" in err and "alternative 'b'" in err
    assert "Traceback" not in err


def test_batch_conflict_error_names_the_first_failing_alternative():
    rng = np.random.default_rng(1)
    frame = frame_of(3)
    alts = tuple(f"a{i}" for i in range(50))
    yes = {alt: random_assessment(rng, frame) for alt in alts}
    no = {alt: random_assessment(rng, frame) for alt in alts}
    yes["a37"] = Assessment.from_degrees(frame, {"g0": 1.0})
    no["a37"] = Assessment.from_degrees(frame, {"g2": 1.0})
    root = AttributeNode("top", children=(
        AttributeNode("yes", reliability=1.0, importance=0.5, assessments=yes),
        AttributeNode("no", reliability=1.0, importance=0.5, assessments=no),
    ))
    model = EvaluationModel(frame, alts, root)
    with pytest.raises(CompleteConflictError, match="'top' for alternative 'a37'"):
        evaluate_batch(model, "oer")
    evaluate_batch(model, "mer")  # importance discounting keeps mass off the conflict


def _shift_half(assigned, unassigned):
    """Half a unit from the first grade to the second: the total holds, a degree goes negative."""
    return [assigned[0] - 0.5, assigned[1] + 0.5, *assigned[2:]], unassigned


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(_shift_half, id="negative-degree"),
        pytest.param(lambda a, u: (a, u * 0.0 + 0.9), id="total-off"),
        pytest.param(lambda a, u: (a, u * float("nan")), id="nan"),
    ],
)
def test_batch_keeps_the_combined_assessment_checks(monkeypatch, corrupt):
    from erkit import hierarchy

    kernel = hierarchy._aggregate

    def corrupt_third_alternative(degrees, factors, with_trace=False):
        assigned, unassigned, steps = kernel(degrees, factors, with_trace)
        if isinstance(unassigned, np.ndarray):
            bad_assigned, bad_unassigned = corrupt(assigned, unassigned)
            mask = np.arange(len(unassigned)) == 2
            assigned = [np.where(mask, b, a) for a, b in zip(assigned, bad_assigned)]
            unassigned = np.where(mask, bad_unassigned, unassigned)
        else:
            assigned, unassigned = corrupt(assigned, unassigned)
        return assigned, unassigned, steps

    monkeypatch.setattr(hierarchy, "_aggregate", corrupt_third_alternative)
    model = derive_reliabilities(motorcycle_model())
    with pytest.raises(ValueError, match="alternative 'Honda'"):
        evaluate_batch(model, "e2r")
    with pytest.raises(ValueError, match="combined degree"):
        evaluate(model, "e2r", "Honda")


def chain_model(levels):
    """A two-child chain built in code: every general node has a leaf and the next level."""
    frame = frame_of(3)
    alts = ("a", "b")
    rng = np.random.default_rng(levels)

    def leaf(name):
        return AttributeNode(
            name,
            reliability=float(rng.uniform(0.5, 1.0)),
            importance=0.5,
            assessments={alt: random_assessment(rng, frame) for alt in alts},
        )

    node = leaf("y")
    for _ in range(levels):
        node = AttributeNode("n", children=(leaf("x"), node), importance=0.5)
    return EvaluationModel(frame, alts, node)


def test_a_3000_level_chain_has_no_recursion_limit():
    model = chain_model(3000)
    assert validate(model) == []
    model = derive_reliabilities(model)
    plan = CompiledModel(model)
    assert len(plan.paths) == 6001
    for scheme in AGGREGATORS:
        batch = evaluate_batch(plan, scheme)
        for a, alt in enumerate(model.alternatives):
            root = evaluate(plan, scheme, alt)[model.root.name]
            assert tuple(batch.assigned[-1][a].tolist()) == root.assigned
            assert float(batch.unassigned[-1][a]) == root.unassigned


#: Names a hand-rolled JSON writer could mangle: % templates, JSON escapes, non-ASCII.
AWKWARD = ("%", "%r", '"', "\\", "\n", "\u00fc", "\u20ac %s", "\t")


def awkward_model(model):
    """``model`` with every node, grade and alternative renamed after AWKWARD, and a utility."""
    frame = GradeFrame(f"{AWKWARD[i % len(AWKWARD)]}{i}" for i in range(model.frame.size))
    alts = {a: f"{AWKWARD[-1 - i % len(AWKWARD)]}{a}" for i, a in enumerate(model.alternatives)}
    prefixes = itertools.cycle(AWKWARD)

    def rename(node):
        return replace(
            node,
            name=next(prefixes) + node.name,
            children=tuple(rename(c) for c in node.children),
            assessments={alts[a]: Assessment(frame, x.degrees) for a, x in node.assessments.items()},
        )

    return EvaluationModel(
        frame, tuple(alts.values()), rename(model.root), UtilityFunction.evenly_spaced(frame)
    )


def reference_report(model, documents):
    """The report as ``json.dumps`` wrote the nested-dict payload before the array writer,
    node results taken from per-alternative :func:`evaluate`."""
    plan = CompiledModel(model)
    payload = []
    for doc in documents:
        results = {}
        for alt in doc.alternatives:
            nodes = {
                path: {"assigned": c.assigned_degrees, "unassigned": c.unassigned}
                for path, c in evaluate(plan, doc.algorithm, alt).items()
            }
            results[alt] = {
                "nodes": nodes,
                "redistributed": doc.redistributed[alt],
                "utility": doc.utilities[alt],
            }
        out = {
            "algorithm": doc.algorithm,
            "frame": list(doc.frame),
            "alternatives": list(doc.alternatives),
            "results": results,
            "ranking": list(doc.ranking),
        }
        if doc.traces is not None:
            out["traces"] = doc.traces
        payload.append(out)
    return json.dumps({"schema": "er-result/1", "documents": payload}, indent=2, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 3),
    branching=st.integers(1, 4),
    grades=st.integers(2, 5),
    alternatives=st.integers(1, 200),
    with_trace=st.booleans(),
)
def test_json_writer_is_byte_identical_to_json_dumps(
    seed, depth, branching, grades, alternatives, with_trace
):
    model = awkward_model(random_model(seed, depth, branching, grades, alternatives))
    documents = _run_algorithms(model, AGGREGATORS, with_trace)
    assert save_results(documents) == reference_report(model, documents)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alternatives=st.integers(1, 20),
    where=st.sampled_from(["assigned", "unassigned", "utility", "redistributed"]),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
    pick=st.integers(0, 10**6),
)
def test_json_writer_rejects_non_finite_values(seed, alternatives, where, value, pick):
    model = awkward_model(random_model(seed, 2, 3, 3, alternatives))
    (document,) = _run_algorithms(model, ("e2r",), with_trace=False)
    node, alt, grade = pick % len(document.paths), pick % alternatives, pick % 3
    name = document.alternatives[alt]
    if where == "assigned":
        document.assigned[node, alt, grade] = value
    elif where == "unassigned":
        document.unassigned[node, alt] = value
    elif where == "utility":
        document.utilities[name] = value
    else:
        document.redistributed[name][document.frame[grade]] = value
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_results(document)


def _unique_keys(pairs):
    keys = [k for k, _ in pairs]
    assert len(set(keys)) == len(keys), keys
    return dict(pairs)


@pytest.mark.parametrize("with_trace", [False, True])
def test_duplicate_sibling_names_write_one_key_per_path(with_trace):
    """A model loaded unchecked with two children named x: one "root/x" key, as a dict keeps it."""
    leaf = {"reliability": 0.9, "importance": 0.25}
    text = json.dumps({
        "schema": "er-model/1",
        "frame": ["l", "h"],
        "alternatives": ["a", "b"],
        "tree": {"name": "root", "children": [
            {"name": "x", **leaf, "assessments": {"a": {"l": 0.6}, "b": {"h": 1.0}}},
            {"name": "y", **leaf, "assessments": {"a": {"h": 0.3}, "b": {"l": 0.5}}},
            {"name": "x", **leaf, "assessments": {"a": {"h": 0.8}, "b": {"l": 0.1, "h": 0.2}}},
            {"name": "z", **leaf, "assessments": {"a": {"h": 0.5}, "b": {"l": 0.5}}},
        ]},
    })
    model = derive_reliabilities(load_model(text, check=False))
    assert validate(model)
    documents = _run_algorithms(model, AGGREGATORS, with_trace)
    report = save_results(documents)
    json.loads(report, object_pairs_hook=_unique_keys)
    assert report == reference_report(model, documents)
    assert documents[0].paths == ("root/x", "root/y", "root/z", "root")
