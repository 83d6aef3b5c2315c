"""Command-line front end.

Three subcommands: ``evaluate`` runs one or all aggregation algorithms over
a model file, ``compare`` contrasts the three algorithms on the same model,
and ``check-axioms`` runs the randomized synthesis-axiom audit.

Each command imports only the modules it runs.  At import this module loads
``erkit`` and ``erkit.errors`` and no numpy, so ``--help``, ``--version``
and usage errors load no library module; a library name (``_LIBRARY``) is
imported from its module on first read.  ``check-axioms`` loads
``erkit.axioms`` and what it needs (``algorithms``, ``frame``, numpy and
the stdlib's ``random``), and ``evaluate`` and ``compare`` load
``modelio`` and what it needs, but not ``axioms``; no command loads the
oracle module ``erkit.dst`` or ``numpy.random``.  The commands read these
names from the CLI's own namespace, so a wrapper set on ``erkit.cli`` in
place of one is what runs, and the CLI runs as well under a runpy host such
as ``python -m cProfile -m erkit.cli``.

Exit codes: 0 success, 1 validation failure, 2 runtime aggregation failure
(total conflict or a degenerate mass), 3 I/O failure.  Reports go to
stdout, diagnostics to stderr, library warnings as one ``warning:`` line
each; files are written only when ``--out`` is given.  ``evaluate`` and
``compare`` draw no random numbers; only ``check-axioms`` takes
``--seed``, which seeds ``random.Random``, and with a fixed seed its
report is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from . import __version__
from .errors import ErkitError, ModelFormatError, ModelValidationError

if TYPE_CHECKING:
    from .hierarchy import EvaluationModel
    from .modelio import ResultDocument

#: The library names the commands read, by the module that defines each.  The
#: benchmark's hooks also read ``derive_reliabilities`` and ``evaluate`` here.
_LIBRARY = {
    "axioms": ("audit_axioms",),
    "decision": ("decide",),
    "hierarchy": ("UNASSIGNED", "derive_reliabilities", "evaluate", "evaluate_batch"),
    "modelio": ("_format_row", "load_model", "result_from_evaluation", "save_results", "trace_to_json"),
}

_HOME = {name: module for module, names in _LIBRARY.items() for name in names}

#: The aggregation schemes, as ``erkit.algorithms.AGGREGATORS`` orders them; reading
#: that table would import numpy before the arguments are parsed.
SCHEMES = ("oer", "mer", "e2r")


def __getattr__(name: str):
    """A library name, imported from its module on first read and kept in this module."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"erkit.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def _library(name: str):
    """A library name as the CLI's own namespace holds it, so that a wrapper set there
    runs; imported on first read otherwise.  Read through ``globals()``: under a runpy
    host (``python -m cProfile -m erkit.cli``) ``sys.modules[__name__]`` is the host's
    ``__main__``, and the namespace the CLI runs in is no module."""
    return globals()[name] if name in globals() else __getattr__(name)


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

    p_eval = sub.add_parser("evaluate", help="evaluate a model file")
    p_eval.add_argument("model", type=Path, help="model document (JSON)")
    p_eval.add_argument(
        "--algo", choices=(*SCHEMES, "all"), default="e2r", help="aggregation algorithm"
    )
    p_eval.add_argument("--trace", action="store_true", help="include per-step masses (JSON reports only)")
    p_eval.add_argument("--strict", action="store_true", help="reject unknown document fields")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="run all three algorithms and contrast them")
    p_cmp.add_argument("model", type=Path, help="model document (JSON)")
    p_cmp.add_argument("--strict", action="store_true", help="reject unknown document fields")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_ax = sub.add_parser("check-axioms", help="audit the synthesis axioms")
    p_ax.add_argument("--algo", choices=SCHEMES, default="e2r", help="algorithm to audit")
    p_ax.add_argument(
        "--iterations", type=_positive_int, default=1000, help="instances per axiom"
    )
    p_ax.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="random seed")
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
    """One result document per algorithm, from one batch fold each; with
    ``with_trace`` that fold also keeps the per-step traces it reports."""
    documents = []
    for algorithm in algorithms:
        batch = _library("evaluate_batch")(model, algorithm, with_trace)
        traces = _library("trace_to_json")(batch) if with_trace else None
        ranked = _library("decide")(batch, model.utility)
        documents.append(_library("result_from_evaluation")(batch, ranked, traces))
    return documents


def cmd_evaluate(args: argparse.Namespace) -> int:
    algorithms = SCHEMES if args.algo == "all" else (args.algo,)
    # Only the JSON report holds traces; the table and CSV reports fold without them.
    with_trace = args.trace and args.format == "json"
    # The model is bound to no name here, so it is freed before the report is encoded.
    documents = _run_algorithms(
        _library("load_model")(args.model, strict=args.strict), algorithms, with_trace
    )
    _emit(_library("save_results")(documents, format=args.format), args.out)
    return EXIT_OK


def _compare_report(documents: list[ResultDocument]) -> dict:
    frame = list(documents[0].frame)
    alternatives = documents[0].alternatives
    roots = {doc.algorithm: doc.root_rows() for doc in documents}
    keys = (*frame, _library("UNASSIGNED"))
    comparison = {}
    for i, alt in enumerate(alternatives):
        dists = {
            algo: dict(zip(keys, (*assigned[i], unassigned[i])))
            for algo, (assigned, unassigned) in roots.items()
        }
        deltas = {}
        for a, b in (("mer", "oer"), ("e2r", "oer"), ("e2r", "mer")):
            deltas[f"{a}-{b}"] = {key: dists[a][key] - dists[b][key] for key in keys}
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
    keys, format_row = (*report["frame"], _library("UNASSIGNED")), _library("_format_row")
    lines = []
    for alt in report["alternatives"]:
        lines.append(f"Alternative: {alt}")
        header = ["algorithm", *keys]
        widths = [max(len(h), 11) for h in header]
        lines.append(format_row(header, widths))
        entry = report["comparison"][alt]
        for algo, dist in entry["distributions"].items():
            cells = [algo, *(f"{dist[key]:.4f}" for key in keys)]
            lines.append(format_row(cells, widths))
        for pair, delta in entry["deltas"].items():
            cells = [pair, *(f"{delta[key]:+.4f}" for key in keys)]
            lines.append(format_row(cells, widths))
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
    model = _library("load_model")(args.model, strict=args.strict)
    documents = _run_algorithms(model, SCHEMES, with_trace=False)
    del model  # frees the model and its plan before the report is built
    if args.format == "csv":
        _emit(_library("save_results")(documents, format="csv"), args.out)
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
    report = _library("audit_axioms")(args.algo, iterations=args.iterations, seed=args.seed)
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


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # A warning is a diagnostic like an error: one line, not a pointer into erkit's source.
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ModelFormatError, ModelValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except ErkitError as exc:  # any other toolkit error: conflict, degenerate mass, weight sum
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
