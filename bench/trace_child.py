"""Run the erkit CLI once with a span around each public call into a module.

Usage: python bench/trace_child.py SPANS.json CLI-ARGUMENT...

The functions are replaced from outside the package: the names
``erkit.cli`` calls, ``erkit.modelio.validate``, the instance generator and
checker of ``erkit.axioms``, and the entries of the shared
``erkit.algorithms.AGGREGATORS`` dict, which ``hierarchy.evaluate`` and
``axioms.check_axiom`` look up on every call.

A span is ``[name, start, end, parent index, count]``: ``count`` is the
number of items an aggregator folded, or 1 for an axiom verdict that does
not hold.  Spans and garbage-collector pauses stay in memory and are
written to SPANS.json when the CLI returns, also when it raises.
"""

import gc
import json
import sys
import time

import erkit.algorithms
import erkit.axioms
import erkit.cli
import erkit.modelio

clock = time.perf_counter
spans: list[list] = []
open_spans = [-1]
gc_pauses: list[list[float]] = []


def traced(name, fn, count=None):
    def wrapper(*args, **kwargs):
        span = [name, 0.0, 0.0, open_spans[-1], 0]
        open_spans.append(len(spans))
        spans.append(span)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            open_spans.pop()
        if count is not None:
            span[4] = count(args, result)
        return result

    return wrapper


def on_gc(phase, info):
    if phase == "start":
        gc_pauses.append([clock(), 0.0])
    elif gc_pauses:
        gc_pauses[-1][1] = clock()


CLI_CALLS = {
    "load_model": "modelio.load_model",
    "derive_reliabilities": "hierarchy.derive_reliabilities",
    "evaluate": "hierarchy.evaluate",
    "decide": "decision.decide",
    "result_from_evaluation": "modelio.result_from_evaluation",
    "save_results": "modelio.save_results",
    "trace_to_json": "modelio.trace_to_json",
    "audit_axioms": "axioms.audit_axioms",
}


def install() -> None:
    for attr, name in CLI_CALLS.items():
        setattr(erkit.cli, attr, traced(name, getattr(erkit.cli, attr)))
    erkit.modelio.validate = traced("modelio.validate", erkit.modelio.validate)
    erkit.axioms.generate_axiom_instance = traced(
        "axioms.generate_axiom_instance", erkit.axioms.generate_axiom_instance
    )
    erkit.axioms.check_axiom = traced(
        "axioms.check_axiom", erkit.axioms.check_axiom, lambda args, verdict: int(not verdict.holds)
    )
    aggregators = erkit.algorithms.AGGREGATORS
    for scheme, fn in aggregators.items():
        aggregators[scheme] = traced(f"algorithms.{scheme}", fn, lambda args, result: len(args[0]))
    gc.callbacks.append(on_gc)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    install()
    try:
        return traced("cli.main", erkit.cli.main)(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "gc": gc_pauses}, fh)


if __name__ == "__main__":
    sys.exit(main())
