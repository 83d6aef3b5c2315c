"""Independent expected results and report checks.

Expected distributions are recomputed from a model document (a tree of
plain dicts) with the :mod:`erkit.dst` discount-and-combine primitives and
a tree walk of this file's own; nothing here calls ``erkit.algorithms`` or
``erkit.hierarchy``.  The walk is iterative, so it handles chains deeper
than the interpreter's recursion limit.

Each ``check_*`` function takes a report and returns a list of problems;
an empty list means the report is correct.
"""

from __future__ import annotations

import json
import math
import re

from erkit.dst import (
    GradeFrame,
    MassFunction,
    dempster_combine,
    extended_dempster_combine,
    importance_discount,
    normalize_ibba,
    reliability_discount,
    reliability_importance_discount,
)

SCHEMES = ("oer", "mer", "e2r")

#: Full-precision reports must match the oracle this closely.
JSON_TOL = 1e-9
#: Tables print four decimals.
TABLE_TOL = 5e-5


def _postorder(tree: dict):
    """(path, node) for every node, children before parents."""
    order = []
    stack = [(tree, tree["name"])]
    while stack:
        node, path = stack.pop()
        order.append((path, node))
        for child in node.get("children", ()):
            stack.append((child, f"{path}/{child['name']}"))
    order.reverse()
    return order


def derived_reliabilities(tree: dict) -> dict[str, float]:
    """Reliability per node path; a general node without one takes its children's mean."""
    out: dict[str, float] = {}
    for path, node in _postorder(tree):
        children = node.get("children", ())
        if node.get("reliability") is not None or not children:
            out[path] = node["reliability"]
        else:
            values = [out[f"{path}/{c['name']}"] for c in children]
            out[path] = math.fsum(values) / len(values)
    return out


def _discounted(scheme: str, mass: MassFunction, node: dict, reliability: float) -> MassFunction:
    weight = node.get("weight")
    if scheme == "oer":
        return reliability_discount(mass, reliability if weight is None else weight)
    if scheme == "mer":
        return importance_discount(mass, node["importance"] if weight is None else weight)
    return reliability_importance_discount(mass, reliability, node["importance"])


def node_results(doc: dict, scheme: str, alternative: str) -> dict[str, tuple[tuple[float, ...], float]]:
    """(assigned degrees, unassigned degree) for every node path of one alternative."""
    frame = GradeFrame(doc["frame"])
    reliability = derived_reliabilities(doc["tree"])
    masses: dict[str, MassFunction] = {}
    for path, node in _postorder(doc["tree"]):
        children = node.get("children", ())
        if not children:
            masses[path] = MassFunction.from_masses(frame, node["assessments"][alternative])
            continue
        parts = []
        for child in children:
            child_path = f"{path}/{child['name']}"
            parts.append(_discounted(scheme, masses[child_path], child, reliability[child_path]))
        combined = parts[0]
        for part in parts[1:]:
            if scheme == "oer":
                combined = dempster_combine(combined, part)
            else:
                combined = extended_dempster_combine(combined, part)
        masses[path] = combined if scheme == "oer" else normalize_ibba(combined)
    return {path: (m.singletons, m.frame_mass) for path, m in masses.items()}


def utility_values(doc: dict) -> tuple[float, ...]:
    frame = doc["frame"]
    given = doc.get("utilities")
    if given is None:
        return tuple((i + 1) / len(frame) for i in range(len(frame)))
    return tuple(given[g] for g in frame)


def expected_utility(assigned, unassigned: float, utilities) -> float:
    """Pignistic expected utility: the unassigned degree is spread evenly over the grades."""
    share = unassigned / len(assigned)
    return math.fsum((d + share) * u for d, u in zip(assigned, utilities))


class Expected:
    """Oracle results for a sample of a document's alternatives, all schemes."""

    def __init__(self, doc: dict, sample):
        self.frame = tuple(doc["frame"])
        self.alternatives = tuple(doc["alternatives"])
        self.utilities = utility_values(doc)
        self.general_children = {
            path: len(node["children"]) for path, node in _postorder(doc["tree"]) if node.get("children")
        }
        self.root = doc["tree"]["name"]
        self.sample = tuple(sample)
        self.nodes = {
            (scheme, alt): node_results(doc, scheme, alt) for scheme in SCHEMES for alt in self.sample
        }

    def root_of(self, scheme: str, alt: str):
        return self.nodes[(scheme, alt)][self.root]

    def utility(self, scheme: str, alt: str) -> float:
        assigned, unassigned = self.root_of(scheme, alt)
        return expected_utility(assigned, unassigned, self.utilities)


def _close(got: float, want: float, tol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def _check_ranking(ranking, utilities: dict, alternatives, where: str) -> list[str]:
    if sorted(ranking) != sorted(alternatives):
        return [f"{where}: ranking is not a permutation of the alternatives"]
    if ranking != sorted(alternatives, key=lambda a: -utilities[a]):
        return [f"{where}: ranking is not sorted by descending utility"]
    return []


def _check_sample_order(ranking, exp: Expected, scheme: str) -> list[str]:
    """Sampled alternatives appear in the order their oracle utilities give."""
    position = {alt: i for i, alt in enumerate(ranking)}
    for a in exp.sample:
        for b in exp.sample:
            if exp.utility(scheme, a) > exp.utility(scheme, b) + 1e-9 and position[a] > position[b]:
                return [f"{scheme}: {a} ranked below {b} against the oracle utilities"]
    return []


def check_result_json(text: str, exp: Expected, schemes, with_trace: bool = False) -> list[str]:
    report = json.loads(text)
    if report.get("schema") != "er-result/1":
        return ["unexpected result schema"]
    docs = report["documents"]
    if [d["algorithm"] for d in docs] != list(schemes):
        return [f"documents for {[d['algorithm'] for d in docs]}, expected {list(schemes)}"]
    problems: list[str] = []
    for doc in docs:
        scheme = doc["algorithm"]
        if tuple(doc["alternatives"]) != exp.alternatives or tuple(doc["frame"]) != exp.frame:
            return [f"{scheme}: alternatives or frame differ from the model"]
        results = doc["results"]
        utilities = {}
        for alt in exp.alternatives:
            root = results[alt]["nodes"][exp.root]
            assigned = [root["assigned"][g] for g in exp.frame]
            utilities[alt] = results[alt]["utility"]
            if not _close(utilities[alt], expected_utility(assigned, root["unassigned"], exp.utilities), JSON_TOL):
                problems.append(f"{scheme}/{alt}: utility is not the pignistic expected utility")
        problems += _check_ranking(doc["ranking"], utilities, exp.alternatives, scheme)
        for alt in exp.sample:
            nodes = results[alt]["nodes"]
            want = exp.nodes[(scheme, alt)]
            if set(nodes) != set(want):
                problems.append(f"{scheme}/{alt}: node paths differ from the model")
                continue
            for path, (assigned, unassigned) in want.items():
                got = nodes[path]
                if not _close(got["unassigned"], unassigned, JSON_TOL) or not all(
                    _close(got["assigned"][g], d, JSON_TOL) for g, d in zip(exp.frame, assigned)
                ):
                    problems.append(f"{scheme}/{alt}: {path} differs from the oracle")
                    break
            if with_trace:
                traces = doc.get("traces", {}).get(alt, {})
                if {p: len(steps) for p, steps in traces.items()} != exp.general_children:
                    problems.append(f"{scheme}/{alt}: traces do not have one step per child")
        if problems:
            break
    return problems


def _table_blocks(text: str) -> dict[str, list[list[str]]]:
    """Title -> data rows (split on runs of two or more spaces) of a rendered table report."""
    blocks = {}
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        blocks[lines[0]] = [re.split(r" {2,}", line.strip()) for line in lines[1:]]
    return blocks


def check_result_table(text: str, exp: Expected, schemes) -> list[str]:
    blocks = _table_blocks(text)
    problems: list[str] = []
    utilities_rows = {row[0]: row[1:] for row in blocks.get("Expected utilities", [])[2:]}
    ranking_rows = {row[0]: row[1] for row in blocks.get("Ranking orders", [])[2:]}
    for scheme in schemes:
        rows = blocks.get(f"Combined assessment ({scheme})")
        if rows is None or scheme not in utilities_rows or scheme not in ranking_rows:
            return [f"{scheme}: table report lacks a block"]
        by_alt = {row[0]: [float(v) for v in row[1:]] for row in rows[2:]}
        printed = dict(zip(exp.alternatives, map(float, utilities_rows[scheme])))
        ranking = ranking_rows[scheme].split(" > ")
        if sorted(by_alt) != sorted(exp.alternatives) or len(printed) != len(exp.alternatives):
            return [f"{scheme}: table rows do not cover the alternatives"]
        if sorted(ranking) != sorted(exp.alternatives) or any(
            printed[later] > printed[earlier] for earlier, later in zip(ranking, ranking[1:])
        ):
            problems.append(f"{scheme}: ranking is not sorted by the printed utilities")
        problems += _check_sample_order(ranking, exp, scheme)
        for alt in exp.sample:
            assigned, unassigned = exp.root_of(scheme, alt)
            if not all(_close(g, w, TABLE_TOL) for g, w in zip(by_alt[alt], (*assigned, unassigned))):
                problems.append(f"{scheme}/{alt}: printed distribution differs from the oracle")
            if not _close(printed[alt], exp.utility(scheme, alt), TABLE_TOL):
                problems.append(f"{scheme}/{alt}: printed utility differs from the oracle")
    return problems


def check_result_csv(text: str, exp: Expected, schemes) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "algorithm,alternative,grade,degree":
        return ["unexpected CSV header"]
    values = {}
    for line in lines[1:]:
        scheme, alt, grade, degree = line.rsplit(",", 3)
        values[(scheme, alt, grade)] = float(degree)
    if len(values) != len(schemes) * len(exp.alternatives) * (len(exp.frame) + 1):
        return ["CSV rows do not cover every scheme, alternative and grade"]
    for scheme in schemes:
        for alt in exp.sample:
            assigned, unassigned = exp.root_of(scheme, alt)
            want = dict(zip((*exp.frame, "Unknown"), (*assigned, unassigned)))
            if not all(_close(values[(scheme, alt, g)], w, JSON_TOL) for g, w in want.items()):
                return [f"{scheme}/{alt}: CSV degrees differ from the oracle"]
    return []


def check_compare_json(text: str, exp: Expected) -> list[str]:
    report = json.loads(text)
    if report.get("schema") != "er-comparison/1":
        return ["unexpected comparison schema"]
    problems: list[str] = []
    for scheme in SCHEMES:
        utilities = report["utilities"][scheme]
        problems += _check_ranking(report["rankings"][scheme], utilities, exp.alternatives, scheme)
        for alt in exp.sample:
            assigned, unassigned = exp.root_of(scheme, alt)
            dist = report["comparison"][alt]["distributions"][scheme]
            want = dict(zip((*exp.frame, "Unknown"), (*assigned, unassigned)))
            if not all(_close(dist[g], w, JSON_TOL) for g, w in want.items()):
                problems.append(f"{scheme}/{alt}: compared distribution differs from the oracle")
            if not _close(utilities[alt], exp.utility(scheme, alt), JSON_TOL):
                problems.append(f"{scheme}/{alt}: utility differs from the oracle")
    for alt in exp.sample:
        entry = report["comparison"][alt]
        for pair, delta in entry["deltas"].items():
            a, b = pair.split("-")
            dists = entry["distributions"]
            if not all(_close(v, dists[a][k] - dists[b][k], 1e-12) for k, v in delta.items()):
                problems.append(f"{alt}: delta {pair} is not the difference of the distributions")
    return problems


def check_audit_json(text: str, scheme: str, iterations: int, seed: int) -> list[str]:
    """Acceptance criterion 6: mer holds every axiom; oer holds independence and
    has a witnessed violation of each other axiom."""
    report = json.loads(text)
    if (report.get("schema"), report.get("algorithm"), report.get("iterations"), report.get("seed")) != (
        "er-axiom-audit/1",
        scheme,
        iterations,
        seed,
    ):
        return ["audit report header does not match the request"]
    axioms = report["axioms"]
    if sorted(axioms) != sorted(("independence", "consensus", "completeness", "incompleteness")):
        return ["audit report does not cover the four axioms"]
    problems = []
    for name, entry in axioms.items():
        if entry["runs"] != iterations or entry["holds"] + entry["violations"] != iterations:
            problems.append(f"{name}: run counts do not add up to {iterations}")
        if (entry["violations"] > 0) != (entry["first_counterexample"] is not None):
            problems.append(f"{name}: counterexample presence does not match the violations")
    if scheme == "mer" and any(e["holds"] != iterations for e in axioms.values()):
        problems.append("mer violates an axiom")
    if scheme == "oer":
        if axioms["independence"]["holds"] != iterations:
            problems.append("oer violates independence")
        if any(axioms[a]["violations"] < 1 for a in ("consensus", "completeness", "incompleteness")):
            problems.append("oer lacks a witnessed violation")
    return problems

