"""Per-module metrics from the spans of traced CLI runs and from ``-X importtime``."""

from __future__ import annotations

import re
from collections import Counter, defaultdict

#: Name, unit of every per-layer metric, in the order they are printed.
METRICS = (
    ("import.total_s", "s"),
    ("import.numpy_s", "s"),
    ("import.erkit_self_s", "s"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("modelio.load_s", "s"),
    ("modelio.validate_s", "s"),
    ("modelio.result_doc_s", "s"),
    ("modelio.save_results_s", "s"),
    ("modelio.trace_json_s", "s"),
    ("modelio.report_bytes", "bytes"),
    ("hierarchy.derive_s", "s"),
    ("hierarchy.evaluate_s", "s"),
    ("hierarchy.evaluate_self_s", "s"),
    ("hierarchy.evaluate_calls", "count"),
    ("hierarchy.node_evals", "count"),
    ("hierarchy.us_per_node_eval", "us"),
    ("algorithms.aggregate_s", "s"),
    ("algorithms.aggregate_calls", "count"),
    ("algorithms.items_folded", "count"),
    ("algorithms.us_per_call", "us"),
    ("decision.decide_s", "s"),
    ("decision.decide_calls", "count"),
    ("axioms.audit_s", "s"),
    ("axioms.generate_s", "s"),
    ("axioms.generate_calls", "count"),
    ("axioms.check_self_s", "s"),
    ("axioms.violations", "count"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_collections", "count"),
    ("trace.overhead_ratio", "ratio"),
)

AGGREGATOR_PREFIX = "algorithms."


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children[index]):
            low, high = max(child_start, reach), min(child_end, end)
            if high > low:
                covered += high - low
                reach = high
        out.append(end - start - covered)
    return out


def op_totals(op: dict) -> Counter:
    """Busy time, self time, calls and counts per span name for one traced op."""
    spans = op["spans"]
    totals = Counter()
    for (name, start, end, parent, count), own in zip(spans, self_times(spans)):
        totals[name] += end - start
        totals[name + ":self"] += own
        totals[name + ":calls"] += 1
        totals[name + ":count"] += count
        if name.startswith(AGGREGATOR_PREFIX):
            totals["aggregate"] += end - start
            totals["aggregate:calls"] += 1
            totals["aggregate:count"] += count
            if parent >= 0 and spans[parent][0] == "hierarchy.evaluate":
                totals["node_evals"] += 1
    totals["gc"] = sum(end - start for start, end in op["gc"])
    totals["gc:calls"] = len(op["gc"])
    totals["report_bytes"] = op["report_bytes"]
    return totals


def _per_million(seconds: float, calls: float) -> float:
    return seconds / calls * 1e6 if calls else 0.0


def span_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-op means over traced ops; the per-call figures are ratios of the totals."""
    total = sum((op_totals(op) for op in ops), Counter())
    n = len(ops)
    return {
        "cli.main_s": total["cli.main"] / n,
        "cli.self_s": total["cli.main:self"] / n,
        "modelio.load_s": total["modelio.load_model"] / n,
        "modelio.validate_s": total["modelio.validate"] / n,
        "modelio.result_doc_s": total["modelio.result_from_evaluation"] / n,
        "modelio.save_results_s": total["modelio.save_results"] / n,
        "modelio.trace_json_s": total["modelio.trace_to_json"] / n,
        "modelio.report_bytes": total["report_bytes"] / n,
        "hierarchy.derive_s": total["hierarchy.derive_reliabilities"] / n,
        "hierarchy.evaluate_s": total["hierarchy.evaluate"] / n,
        "hierarchy.evaluate_self_s": total["hierarchy.evaluate:self"] / n,
        "hierarchy.evaluate_calls": total["hierarchy.evaluate:calls"] / n,
        "hierarchy.node_evals": total["node_evals"] / n,
        "hierarchy.us_per_node_eval": _per_million(total["hierarchy.evaluate"], total["node_evals"]),
        "algorithms.aggregate_s": total["aggregate"] / n,
        "algorithms.aggregate_calls": total["aggregate:calls"] / n,
        "algorithms.items_folded": total["aggregate:count"] / n,
        "algorithms.us_per_call": _per_million(total["aggregate"], total["aggregate:calls"]),
        "decision.decide_s": total["decision.decide"] / n,
        "decision.decide_calls": total["decision.decide:calls"] / n,
        "axioms.audit_s": total["axioms.audit_axioms"] / n,
        "axioms.generate_s": total["axioms.generate_axiom_instance"] / n,
        "axioms.generate_calls": total["axioms.generate_axiom_instance:calls"] / n,
        "axioms.check_self_s": total["axioms.check_axiom:self"] / n,
        "axioms.violations": total["axioms.check_axiom:count"] / n,
        "runtime.gc_s": total["gc"] / n,
        "runtime.gc_collections": total["gc:calls"] / n,
    }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def import_metrics(stderr: str) -> dict[str, float]:
    """Seconds spent importing ``erkit.cli`` from one ``-X importtime`` listing."""
    total = numpy = erkit_self = 0
    for own, cumulative, indent, module in _IMPORT_LINE.findall(stderr):
        is_erkit = module == "erkit" or module.startswith("erkit.")
        if is_erkit and len(indent) == 1:
            total += int(cumulative)
        if is_erkit:
            erkit_self += int(own)
        if module == "numpy":
            numpy += int(cumulative)
    return {"import.total_s": total / 1e6, "import.numpy_s": numpy / 1e6, "import.erkit_self_s": erkit_self / 1e6}

