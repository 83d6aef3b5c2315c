"""Command-line front end.

Three subcommands: ``evaluate`` runs one or all aggregation algorithms over
a model file, ``compare`` contrasts the three algorithms on the same model,
and ``check-axioms`` runs the randomized synthesis-axiom audit.

Exit codes: 0 success, 1 validation failure, 2 runtime aggregation failure
(total conflict or a degenerate mass), 3 I/O failure.  Reports go to
stdout, diagnostics to stderr; files are written only when ``--out`` is
given.  With a fixed ``--seed`` the machine-readable output is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable

from . import __version__
from .algorithms import AGGREGATORS
from .axioms import audit_axioms
from .decision import decide
from .errors import (
    CompleteConflictError,
    DegenerateMassError,
    ErkitError,
    ModelFormatError,
    ModelValidationError,
    WeightSumError,
)
from .hierarchy import (
    CompiledModel,
    EvaluationModel,
    derive_reliabilities,
    evaluate,
    evaluate_batch,
)
from .modelio import (
    ResultDocument,
    _format_row,
    result_from_evaluation,
    save_results,
    trace_to_json,
    load_model,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3

DEFAULT_SEED = 42


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erkit",
        description="Evidential-reasoning aggregation for multi-attribute decision analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("table", "json", "csv")):
        p.add_argument("--format", choices=formats, default="table", help="output format")
        p.add_argument("--out", type=Path, help="write the report to this file instead of stdout")
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="random seed")

    p_eval = sub.add_parser("evaluate", help="evaluate a model file")
    p_eval.add_argument("model", type=Path, help="model document (JSON)")
    p_eval.add_argument(
        "--algo", choices=(*AGGREGATORS, "all"), default="e2r", help="aggregation algorithm"
    )
    p_eval.add_argument("--trace", action="store_true", help="include per-step masses")
    p_eval.add_argument("--strict", action="store_true", help="reject unknown document fields")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="run all three algorithms and contrast them")
    p_cmp.add_argument("model", type=Path, help="model document (JSON)")
    p_cmp.add_argument("--strict", action="store_true", help="reject unknown document fields")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_ax = sub.add_parser("check-axioms", help="audit the synthesis axioms")
    p_ax.add_argument("--algo", choices=tuple(AGGREGATORS), default="e2r", help="algorithm to audit")
    p_ax.add_argument(
        "--iterations", type=_positive_int, default=1000, help="instances per axiom"
    )
    add_common(p_ax, formats=("table", "json"))
    p_ax.set_defaults(func=cmd_check_axioms)

    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        out.write_text(text, encoding="utf-8")


def _run_algorithms(
    model: EvaluationModel, algorithms: Iterable[str], with_trace: bool
) -> list[ResultDocument]:
    """One result document per algorithm; the model is compiled once for all of them.

    Node results always come from the batch.  With ``with_trace`` each
    alternative is also evaluated alone, for its per-step traces only.
    """
    plan = CompiledModel(model)
    documents = []
    for algorithm in algorithms:
        batch = evaluate_batch(plan, algorithm)
        traces = None
        if with_trace:
            traces = {
                alt: {
                    path: trace_to_json(trace, model.frame)
                    for path, trace in evaluate(plan, algorithm, alt, with_trace=True)[1].items()
                }
                for alt in model.alternatives
            }
        ranked = decide(batch.roots(), model.utility)
        documents.append(result_from_evaluation(batch, ranked, traces))
    return documents


def cmd_evaluate(args: argparse.Namespace) -> int:
    algorithms = tuple(AGGREGATORS) if args.algo == "all" else (args.algo,)
    # The model is bound to no name here, so it is freed before the report is encoded.
    documents = _run_algorithms(
        derive_reliabilities(load_model(args.model, strict=args.strict)), algorithms, args.trace
    )
    _emit(save_results(documents, format=args.format), args.out)
    return EXIT_OK


def _compare_report(documents: list[ResultDocument]) -> dict:
    frame = list(documents[0].frame)
    alternatives = documents[0].alternatives
    roots = {doc.algorithm: doc.root_rows() for doc in documents}
    comparison = {}
    for i, alt in enumerate(alternatives):
        dists = {
            algo: {**dict(zip(frame, assigned[i])), "Unknown": unassigned[i]}
            for algo, (assigned, unassigned) in roots.items()
        }
        deltas = {}
        for a, b in (("mer", "oer"), ("e2r", "oer"), ("e2r", "mer")):
            deltas[f"{a}-{b}"] = {
                key: dists[a][key] - dists[b][key] for key in (*frame, "Unknown")
            }
        comparison[alt] = {"distributions": dists, "deltas": deltas}
    return {
        "schema": "er-comparison/1",
        "frame": frame,
        "alternatives": list(alternatives),
        "comparison": comparison,
        "utilities": {doc.algorithm: doc.utilities for doc in documents},
        "rankings": {doc.algorithm: list(doc.ranking) for doc in documents},
    }


def _render_compare_table(report: dict) -> str:
    frame = report["frame"]
    lines = []
    for alt in report["alternatives"]:
        lines.append(f"Alternative: {alt}")
        header = ["algorithm", *frame, "Unknown"]
        widths = [max(len(h), 11) for h in header]
        lines.append(_format_row(header, widths))
        entry = report["comparison"][alt]
        for algo, dist in entry["distributions"].items():
            cells = [algo, *(f"{dist[key]:.4f}" for key in (*frame, "Unknown"))]
            lines.append(_format_row(cells, widths))
        for pair, delta in entry["deltas"].items():
            cells = [pair, *(f"{delta[key]:+.4f}" for key in (*frame, "Unknown"))]
            lines.append(_format_row(cells, widths))
        lines.append("")
    lines.append("Expected utilities")
    for algo, utils in report["utilities"].items():
        cells = "  ".join(f"{alt}={u:.4f}" for alt, u in utils.items())
        lines.append(f"  {algo}: {cells}")
    lines.append("Ranking orders")
    for algo, ranking in report["rankings"].items():
        lines.append(f"  {algo}: " + " > ".join(ranking))
    return "\n".join(lines) + "\n"


def cmd_compare(args: argparse.Namespace) -> int:
    model = derive_reliabilities(load_model(args.model, strict=args.strict))
    documents = _run_algorithms(model, AGGREGATORS, with_trace=False)
    if args.format == "csv":
        _emit(save_results(documents, format="csv"), args.out)
        return EXIT_OK
    report = _compare_report(documents)
    if args.format == "json":
        _emit(json.dumps(report, indent=2, allow_nan=False), args.out)
    else:
        _emit(_render_compare_table(report), args.out)
    return EXIT_OK


def _render_audit_table(algorithm: str, iterations: int, seed: int, report) -> str:
    lines = [f"Axiom audit: algorithm={algorithm} iterations={iterations} seed={seed}"]
    for axiom, entry in report.items():
        status = "holds" if entry.passed else "VIOLATED"
        lines.append(
            f"  {axiom:15s} {status:9s} ({entry.holds}/{entry.runs} instances hold)"
        )
        if entry.first_counterexample is not None:
            lines.append(f"    first counterexample: {entry.first_counterexample['detail']}")
            for i, item in enumerate(entry.first_counterexample["instance"]):
                degrees = {g: d for g, d in item["degrees"].items() if d}
                lines.append(
                    f"      item {i}: degrees={degrees} weight={item['weight']:.4f} "
                    f"reliability={item['reliability']:.4f} importance={item['importance']:.4f}"
                )
    return "\n".join(lines) + "\n"


def cmd_check_axioms(args: argparse.Namespace) -> int:
    report = audit_axioms(args.algo, iterations=args.iterations, seed=args.seed)
    if args.format == "json":
        payload = {
            "schema": "er-axiom-audit/1",
            "algorithm": args.algo,
            "iterations": args.iterations,
            "seed": args.seed,
            "axioms": {
                axiom: {
                    "runs": entry.runs,
                    "holds": entry.holds,
                    "violations": entry.violations,
                    "first_counterexample": entry.first_counterexample,
                }
                for axiom, entry in report.items()
            },
        }
        _emit(json.dumps(payload, indent=2, allow_nan=False), args.out)
    else:
        _emit(_render_audit_table(args.algo, args.iterations, args.seed, report), args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelFormatError, ModelValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CompleteConflictError, DegenerateMassError, WeightSumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ErkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
