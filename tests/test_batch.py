"""The batch path: every alternative folded at once, bit for bit the per-alternative result."""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import given, reject, settings, target
from hypothesis import strategies as st

from erkit import (
    AGGREGATORS,
    Assessment,
    AttributeNode,
    CompleteConflictError,
    DegenerateMassError,
    ErkitError,
    EvaluationModel,
    GradeFrame,
    ModelValidationError,
    TraceStep,
    UtilityFunction,
    WeightedAssessment,
    aggregate,
    decide,
    derive_reliabilities,
    evaluate,
    evaluate_batch,
    expected_utility,
    load_model,
    motorcycle_json,
    motorcycle_model,
    redistribute_unknown,
    save_results,
    validate,
)
from erkit.algorithms import _aggregate, _factor_pairs, _factors
from erkit.cli import EXIT_RUNTIME, _run_algorithms, main
from erkit.modelio import trace_to_json

import dst_reference
from randgen import frame_of, random_assessment, random_items

#: The tolerance the acceptance suite holds the aggregators to against erkit.dst.
DST_TOL = 1e-10


def random_model(seed, depth, branching, grades, alternatives):
    """:func:`random_tree_model` with its general-node reliabilities derived."""
    return derive_reliabilities(random_tree_model(seed, depth, branching, grades, alternatives))


def random_tree_model(seed, depth, branching, grades, alternatives):
    """A seeded tree with 1..``branching`` children per general node, leaves at any depth;
    no general node has a reliability.  Each sibling group draws importances summing to one
    and either no weights or weights of their own, also summing to one."""
    rng = np.random.default_rng(seed)
    frame = frame_of(grades)
    alts = tuple(f"a{i}" for i in range(alternatives))

    def simplex(n):
        return [float(w) for w in rng.dirichlet(np.ones(n) * 2.0)]

    def grow(name, level, importance, weight):
        if level == depth or (level > 0 and rng.random() < 0.2):
            return AttributeNode(
                name,
                reliability=float(rng.uniform(0.05, 1.0)),
                importance=importance,
                weight=weight,
                assessments={alt: random_assessment(rng, frame) for alt in alts},
            )
        n = int(rng.integers(1, branching + 1))
        importances = simplex(n)
        weights = simplex(n) if rng.random() < 0.5 else [None] * n
        children = tuple(
            grow(f"{name}.{i}", level + 1, imp, w) for i, (imp, w) in enumerate(zip(importances, weights))
        )
        return AttributeNode(name, children=children, importance=importance, weight=weight)

    return EvaluationModel(frame, alts, grow("r", 0, None, None))


def dst_results(model, scheme, alternative):
    """(assigned, unassigned) per node path, from the erkit.dst pipelines only (``dst_reference``)."""
    out = dst_reference.evaluate(scheme, model.root, alternative)
    return {path: (m.singletons, m.frame_mass) for path, m in out.items()}


def assert_batch_equals_evaluate(model, batch):
    for a, alt in enumerate(model.alternatives):
        per = evaluate(model, batch.algorithm, alt)
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
    for scheme in AGGREGATORS:
        batch = evaluate_batch(model, scheme)
        assert batch.alternatives == model.alternatives
        assert batch.paths[-1] == model.root.name
        assert_batch_equals_evaluate(model, batch)
        for a in sorted({0, alternatives // 2, alternatives - 1}):
            want = dst_results(model, scheme, model.alternatives[a])
            for i, path in enumerate(batch.paths):
                assigned, unassigned = want[path]
                assert batch.assigned[i][a] == pytest.approx(assigned, abs=DST_TOL)
                assert batch.unassigned[i][a] == pytest.approx(unassigned, abs=DST_TOL)


@pytest.mark.parametrize("scheme", AGGREGATORS)
def test_batch_equals_per_alternative_on_the_motorcycle_model(scheme):
    model = derive_reliabilities(motorcycle_model())
    batch = evaluate_batch(model, scheme)
    assert_batch_equals_evaluate(model, batch)


def _weighted(assessment, node):
    """``assessment`` carrying ``node``'s own weight, reliability and importance; a weight
    the node omits is omitted on the item too, and read by the same rule."""
    return WeightedAssessment(assessment, node.weight, node.reliability, node.importance)


def _step_of(step, a):
    """Alternative ``a``'s masses in a batch trace step; a mass shared by all is a float."""

    def at(x):
        return x[a].item() if isinstance(x, np.ndarray) else x

    return TraceStep(
        tuple(map(at, step.singletons)),
        at(step.frame_mass),
        at(step.omega_mass),
        at(step.normalizer),
    )


def assert_batch_equals_the_flat_aggregators(model):
    """At every general node, AGGREGATORS[scheme] on the children's batch rows gives, bit for
    bit, the node's batch row and its trace steps, alternative by alternative."""
    plan = model.plan
    for scheme in AGGREGATORS:
        batch = evaluate_batch(model, scheme, with_trace=True)
        for i, kids in enumerate(plan.children):
            if not kids:
                continue
            steps = batch.traces[plan.paths[i]].steps
            for a, alt in enumerate(model.alternatives):
                rows = [Assessment(model.frame, tuple(batch.assigned[j, a].tolist())) for j in kids]
                items = [_weighted(row, plan.nodes[j]) for row, j in zip(rows, kids)]
                result, trace = AGGREGATORS[scheme](items, with_trace=True)
                where = (scheme, plan.paths[i], alt)
                assert result.assigned == tuple(batch.assigned[i, a].tolist()), where
                assert result.unassigned == batch.unassigned[i, a].item(), where
                assert trace.steps == tuple(_step_of(step, a) for step in steps), where


def test_batch_equals_the_flat_aggregators_on_the_motorcycle_model():
    assert_batch_equals_the_flat_aggregators(derive_reliabilities(motorcycle_model()))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 3),
    branching=st.integers(1, 4),
    grades=st.integers(2, 5),
    alternatives=st.integers(1, 20),
)
def test_batch_equals_the_flat_aggregators(seed, depth, branching, grades, alternatives):
    assert_batch_equals_the_flat_aggregators(
        random_model(seed, depth, branching, grades, alternatives)
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grades=st.integers(2, 5),
    weights=st.lists(st.sampled_from(["omitted", "importance", "drawn", "one"]), min_size=1, max_size=6),
    certain=st.booleans(),
)
def test_the_flat_api_is_a_one_level_tree(seed, grades, weights, certain):
    """``aggregate(scheme, items)`` is, bit for bit, the root of a one-level tree whose leaves
    carry the items' own factors, a weight omitted on an item omitted on its leaf; where the
    flat side raises, the tree raises the same type.  ``certain`` draws one-grade assessments
    and unit reliabilities, so that total conflict can occur."""
    rng = np.random.default_rng(seed)
    frame = frame_of(grades)
    n = len(weights)
    importances = [float(b) for b in rng.dirichlet(np.ones(n) * 2.0)]
    weight_of = {
        "omitted": lambda b: None,
        "importance": lambda b: b,
        "drawn": lambda b: float(rng.uniform(0.0, 1.0)),
        "one": lambda b: 1.0,
    }
    items = [
        WeightedAssessment(
            Assessment(frame, tuple(np.eye(grades)[rng.integers(grades)].tolist()))
            if certain
            else random_assessment(rng, frame),
            weight_of[kind](b),
            1.0 if certain else float(rng.uniform(0.0, 1.0)),
            b,
        )
        for kind, b in zip(weights, importances)
    ]
    leaves = tuple(
        AttributeNode(
            f"x{i}",
            reliability=item.reliability,
            importance=item.importance,
            weight=item.weight,
            assessments={"alt": item.assessment},
        )
        for i, item in enumerate(items)
    )
    model = EvaluationModel(frame, ("alt",), AttributeNode("root", children=leaves))
    for scheme in AGGREGATORS:
        try:
            flat = aggregate(scheme, items)
        except ErkitError as exc:
            with pytest.raises(ErkitError) as raised:
                evaluate(model, scheme, "alt")
            assert type(raised.value) is type(exc), (scheme, raised.value, exc)
            continue
        assert evaluate(model, scheme, "alt")["root"] == flat, scheme


EPS = np.finfo(float).eps


def _exactly(array):
    """``array`` as an object array of the Fractions its floats are exactly."""
    return np.vectorize(Fraction, otypes=[object])(array)


def _rounding_bound(steps, items, grades, inherited=0.0):
    """A first-order bound on the float kernel's error in one fold, per alternative.

    ``steps`` is the exact fold's trace; the product of its normalizers 1/denom and
    the final 1/(1 − Omega) is the fold's conditioning.  Each of the fold's items ×
    grades masses may add 2ε, and ``inherited`` bounds the error of the blocks
    folded in.  With x that sum times the conditioning, the bound is x / (1 − x),
    and there is none once x reaches 1.
    """
    cond = reduce(mul, [s.normalizer for s in steps]) / (1 - steps[-1].omega_mass)
    x = np.asarray(cond * (2 * items * grades * EPS + inherited), dtype=float)
    return np.where(x < 1, x / np.maximum(1 - x, EPS), np.inf)


def _fraction_pairs(factors):
    return [(Fraction(alpha), Fraction(beta)) for alpha, beta in factors]


@pytest.mark.parametrize("scheme", AGGREGATORS)
def test_the_kernel_folds_fractions_exactly_and_floats_within_the_rounding_bound(monkeypatch, scheme):
    """Fraction object arrays fold exactly, flat and through the plan's fold, and the float
    kernel stays within the rounding bound of that exact run.  The exact run shares the
    kernel's formulas, so this checks rounding only; erkit.dst stays the oracle for
    correctness."""
    from erkit import hierarchy

    grades = 4
    items = random_items(np.random.default_rng(11), 5, grades, normalized_weights=scheme == "mer")
    factors = _factor_pairs(scheme, [(i.weight, i.reliability, i.importance) for i in items])
    blocks = np.array([i.assessment.degrees for i in items])
    assigned, unassigned, steps = _aggregate(_exactly(blocks), _fraction_pairs(factors), True)
    assert all(type(x) is Fraction for x in (*assigned, unassigned))
    rounded = aggregate(scheme, items)
    error = np.abs(_exactly([*rounded.assigned, rounded.unassigned]) - [*assigned, unassigned]).max()
    assert 0 < error <= _rounding_bound(steps, len(items), grades)

    model = random_model(5, 3, 3, grades, 6)
    plan = model.plan
    exact_plan = hierarchy.CompiledModel(model)
    exact_plan.leaf_columns = {i: (_exactly(b), _exactly(u)) for i, (b, u) in plan.leaf_columns.items()}
    factor_pairs = hierarchy._factor_pairs
    monkeypatch.setattr(hierarchy, "_factor_pairs", lambda *args: _fraction_pairs(factor_pairs(*args)))
    exact, traces = hierarchy._fold(exact_plan, scheme, slice(None), True)
    monkeypatch.undo()
    batch = evaluate_batch(model, scheme)
    bounds = [0.0] * len(plan.paths)
    for i, kids in enumerate(plan.children):
        if not kids:
            continue
        assigned, unassigned = exact[i]
        assert all(type(x) is Fraction for x in (*assigned.flat, *unassigned)), plan.paths[i]
        # A child's error enters each of the sums over grades.
        inherited = grades * sum(bounds[j] for j in kids)
        bounds[i] = _rounding_bound(traces[plan.paths[i]].steps, len(kids), grades, inherited)
        error = np.abs(_exactly(batch.assigned[i].T) - assigned).max(axis=0)
        error = np.maximum(error, np.abs(_exactly(batch.unassigned[i]) - unassigned))
        assert (error <= bounds[i]).all(), plan.paths[i]


_SLIVER = st.floats(1, 12).map(lambda e: 10.0**-e)


@settings(max_examples=100, deadline=None)
@given(
    grades=st.integers(2, 4),
    scheme=st.sampled_from(["oer", "e2r"]),
    items=st.lists(st.tuples(st.integers(0, 3), _SLIVER, _SLIVER, _SLIVER), min_size=2, max_size=6),
)
def test_the_float_kernel_keeps_the_rounding_bound_near_total_conflict(grades, scheme, items):
    """Each item puts all but a sliver of its mass on one grade, at factors within a sliver
    of 1 (not mer: importances summing to one keep mass off the conflict);
    hypothesis.target steers the search toward the largest error against the bound."""
    blocks = np.zeros((len(items), grades))
    factors = []
    for i, (grade, slack, unreliable, unimportant) in enumerate(items):
        blocks[i, grade % grades] = 1 - slack
        blocks[i, (grade + 1) % grades] = slack / 2
        factors.append(_factors(scheme, None, 1 - unreliable, 1 - unimportant))
    try:
        assigned, unassigned, _ = _aggregate(blocks, factors)
        exact_assigned, exact_unassigned, steps = _aggregate(_exactly(blocks), _fraction_pairs(factors), True)
    except (CompleteConflictError, DegenerateMassError):
        reject()
    error = np.abs(_exactly([*assigned, unassigned]) - [*exact_assigned, exact_unassigned]).max()
    bound = float(_rounding_bound(steps, len(items), grades))
    target(float(error) / bound if bound < math.inf else 0.0)
    assert error <= bound


def test_a_traced_report_folds_once_per_scheme(monkeypatch, capsys, tmp_path):
    from erkit import hierarchy

    fold, schemes = hierarchy._fold, []

    def counting(plan, algorithm, *args):
        schemes.append(algorithm)
        return fold(plan, algorithm, *args)

    monkeypatch.setattr(hierarchy, "_fold", counting)
    path = tmp_path / "motorcycle.json"
    path.write_text(motorcycle_json(), encoding="utf-8")
    assert main(["evaluate", "--algo", "all", "--trace", "--format", "json", str(path)]) == 0
    assert schemes == list(AGGREGATORS)
    (document, *_) = json.loads(capsys.readouterr().out)["documents"]
    assert set(document["traces"]) == set(document["alternatives"])


def test_traces_of_two_batches_compare_elementwise():
    model = derive_reliabilities(motorcycle_model())
    first, second = (evaluate_batch(model, "e2r", with_trace=True).traces for _ in range(2))
    assert first == second
    path = next(iter(first))
    step = first[path].steps[-1]
    nudged = replace(step, frame_mass=step.frame_mass + np.array([0.0, 0.0, 0.0, 1e-12]))
    second[path] = replace(second[path], steps=(*first[path].steps[:-1], nudged))
    assert first != second
    assert step != replace(step, singletons=step.singletons[:-1])


@pytest.mark.parametrize("scheme", AGGREGATORS)
def test_batches_and_decisions_compare_by_value(scheme):
    model = derive_reliabilities(motorcycle_model())
    first, second = (evaluate_batch(model, scheme, with_trace=True) for _ in range(2))
    assert first == second
    assert first != replace(second, unassigned=second.unassigned + 1e-12)
    assert first != evaluate_batch(model, scheme)  # the same arrays without the traces
    ranked = decide(first, model.utility)
    assert ranked == decide(second, model.utility)
    assert ranked != replace(ranked, degrees=ranked.degrees[::-1])
    for record in (first, ranked):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_trace_to_json_of_an_untraced_batch_says_to_trace_it():
    with pytest.raises(ValueError, match="with_trace=True"):
        trace_to_json(evaluate_batch(motorcycle_model(), "e2r"))


def test_batches_of_two_schemes_compare_unequal():
    model = derive_reliabilities(motorcycle_model())
    oer, mer = evaluate_batch(model, "oer"), evaluate_batch(model, "mer")
    assert oer != mer
    assert replace(oer, algorithm="mer") != mer  # the arrays differ too


def assert_decide_equals_the_scalar_reference(model, batch):
    """decide on the batch's root rows gives, bit for bit, what redistribute_unknown and
    expected_utility give alternative by alternative on evaluate's root."""
    ranked = decide(batch, model.utility)
    for a, alt in enumerate(model.alternatives):
        redistributed = redistribute_unknown(evaluate(model, batch.algorithm, alt)[model.root.name])
        assert ranked.degrees[a].tolist() == list(redistributed.values()), alt
        assert ranked.utilities[alt] == expected_utility(redistributed, model.utility), alt
    assert list(ranked.utilities) == list(model.alternatives)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 3),
    branching=st.integers(1, 4),
    grades=st.integers(2, 5),
    alternatives=st.integers(1, 100),
)
def test_decide_equals_the_scalar_reference(seed, depth, branching, grades, alternatives):
    model = random_model(seed, depth, branching, grades, alternatives)
    model = replace(model, utility=UtilityFunction.evenly_spaced(model.frame))
    for scheme in AGGREGATORS:
        assert_decide_equals_the_scalar_reference(model, evaluate_batch(model, scheme))


@pytest.mark.parametrize("scheme", AGGREGATORS)
def test_decide_equals_the_scalar_reference_on_the_motorcycle_model(scheme):
    model = derive_reliabilities(motorcycle_model())
    assert_decide_equals_the_scalar_reference(model, evaluate_batch(model, scheme))


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


def test_evaluate_folds_one_alternative_alone():
    """Total conflict in ``b`` neither reaches ``a`` nor goes unnamed when ``b`` is evaluated."""
    model = derive_reliabilities(load_model(json.dumps(_conflict_document())))
    for result in evaluate(model, "oer", "a").values():
        assert {type(d) for d in (*result.assigned, result.unassigned)} == {float}
    with pytest.raises(CompleteConflictError, match="at node 'root/inner' for alternative 'b'"):
        evaluate(model, "oer", "b")


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
    shifted = assigned.copy()
    shifted[0] -= 0.5
    shifted[1] += 0.5
    return shifted, unassigned


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

    def corrupt_third_alternative(blocks, factors, with_trace=False):
        """Corrupt the third column of the batch, and the one column of a single alternative."""
        assigned, unassigned, steps = kernel(blocks, factors, with_trace)
        bad_assigned, bad_unassigned = corrupt(assigned, unassigned)
        mask = np.arange(len(unassigned)) == (2 if len(unassigned) > 1 else 0)
        assigned = np.where(mask, bad_assigned, assigned)
        unassigned = np.where(mask, bad_unassigned, unassigned)
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
    assert len(model.plan.paths) == 6001
    for scheme in AGGREGATORS:
        batch = evaluate_batch(model, scheme)
        for a, alt in enumerate(model.alternatives):
            root = evaluate(model, scheme, alt)[model.root.name]
            assert tuple(batch.assigned[-1][a].tolist()) == root.assigned
            assert float(batch.unassigned[-1][a]) == root.unassigned


@pytest.mark.parametrize("scheme", ["oer", "mer", "e2r"])
def test_omitted_reliabilities_evaluate_as_derive_reliabilities_fills_them(scheme):
    """The plan takes a general node's omitted reliability as its children's mean, bit for bit
    what evaluating the model ``derive_reliabilities`` returns gives."""
    models = [random_tree_model(seed, 3, 4, 4, 7) for seed in range(8)] + [chain_model(40)]
    for model in models:
        assert any(node.reliability is None for _, node in model.walk())
        derived = derive_reliabilities(model)
        assert evaluate_batch(model, scheme, with_trace=True) == evaluate_batch(derived, scheme, with_trace=True)
        alt = model.alternatives[-1]
        assert evaluate(model, scheme, alt) == evaluate(derived, scheme, alt)


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
    node results taken from per-alternative :func:`evaluate` and the decision from
    :func:`redistribute_unknown` and :func:`expected_utility` on its root."""
    payload = []
    for doc in documents:
        results = {}
        for alt in doc.alternatives:
            per = evaluate(model, doc.algorithm, alt)
            redistributed = redistribute_unknown(per[model.root.name])
            results[alt] = {
                "nodes": {
                    path: {"assigned": c.assigned_degrees, "unassigned": c.unassigned}
                    for path, c in per.items()
                },
                "redistributed": redistributed,
                "utility": expected_utility(redistributed, model.utility),
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
        document.redistributed[alt, grade] = value
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_results(document)


def test_duplicate_sibling_names_are_rejected_when_the_plan_is_compiled():
    """A model loaded unchecked with two children named x: compiling it names the repeated name."""
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
    model = load_model(text, check=False)
    with pytest.raises(ModelValidationError, match=r"root: children have duplicate names: \['x'\]") as refused:
        derive_reliabilities(model)
    assert refused.value.diagnostics == validate(model)
