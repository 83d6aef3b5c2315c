"""Serialization of evaluation models and result documents.

Model documents are plain JSON with four top-level keys (``frame``,
``utilities``, ``alternatives``, ``tree``) plus a ``schema`` tag.  Leaf
nodes carry per-alternative grade->degree maps; degrees are written as
decimals and missing grades mean zero, so an incomplete assessment is
stored exactly as elicited and the unassigned residual stays implicit.

Result documents bundle, per algorithm, the per-node combined
distributions, the redistributed degrees, expected utilities, the ranking,
and (optionally) aggregation traces.  JSON serialization uses the shortest
round-trip float representation, so loading a saved document reproduces
the numbers bit for bit.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .algorithms import AggregationTrace, Assessment, CombinedAssessment
from .decision import UtilityFunction
from .dst import GradeFrame
from .errors import ModelFormatError, ModelValidationError
from .hierarchy import AttributeNode, BatchEvaluation, EvaluationModel, validate

MODEL_SCHEMA = "er-model/1"
RESULT_SCHEMA = "er-result/1"

_MODEL_KEYS = {"schema", "frame", "utilities", "alternatives", "tree"}
_NODE_KEYS = {"name", "reliability", "importance", "weight", "children", "assessments"}


def _parse_json(text: str, where: str):
    """JSON text as Python values; bad syntax, non-finite numbers and deep nesting raise."""

    def reject_constant(name: str):
        raise ModelFormatError(f"{where}: non-finite number {name} is not allowed")

    try:
        return json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{where}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise ModelFormatError(
            f"{where}: nested deeper than the JSON parser's limit "
            f"(about {sys.getrecursionlimit()} levels of objects and lists)"
        ) from None


def _reject_unknown(mapping: Mapping, allowed: set[str], where: str, strict: bool) -> None:
    if not strict:
        return
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ModelFormatError(f"{where}: unknown fields {unknown}")


def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise ModelFormatError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _number(value, what: str, where: str) -> float:
    """A JSON number as a float; booleans and numeric strings are rejected."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ModelFormatError(f"{where}: {what} must be a number, got {value!r}")
    return float(value)


def _parse_factor(raw: Mapping, key: str, where: str) -> float | None:
    value = raw.get(key)
    if value is None:
        return None
    return _number(value, key, where)


def _parse_node(raw: Mapping, frame: GradeFrame, where: str, strict: bool) -> AttributeNode:
    if not isinstance(raw, Mapping):
        raise ModelFormatError(f"{where}: node must be an object")
    _reject_unknown(raw, _NODE_KEYS, where, strict)
    name = _require(raw, "name", where)
    if not isinstance(name, str) or not name:
        raise ModelFormatError(f"{where}: node name must be a non-empty string")
    here = f"{where}/{name}"
    children_raw = raw.get("children", [])
    assessments_raw = raw.get("assessments", {})
    if not isinstance(children_raw, list):
        raise ModelFormatError(f"{here}: children must be a list")
    if not isinstance(assessments_raw, Mapping):
        raise ModelFormatError(f"{here}: assessments must be an object")
    if children_raw and assessments_raw:
        raise ModelFormatError(f"{here}: a node cannot have both children and assessments")
    children = tuple(_parse_node(c, frame, here, strict) for c in children_raw)
    assessments = {}
    for alt, degrees in assessments_raw.items():
        if not isinstance(degrees, Mapping):
            raise ModelFormatError(f"{here}: assessment for {alt!r} must be an object")
        where_alt = f"{here}: assessment for {alt!r}"
        parsed = {g: _number(d, "belief degree", where_alt) for g, d in degrees.items()}
        try:
            assessments[alt] = Assessment.from_degrees(frame, parsed)
        except Exception as exc:
            raise ModelFormatError(f"{here}: bad assessment for {alt!r}: {exc}") from exc
    return AttributeNode(
        name=name,
        children=children,
        reliability=_parse_factor(raw, "reliability", here),
        importance=_parse_factor(raw, "importance", here),
        weight=_parse_factor(raw, "weight", here),
        assessments=assessments,
    )


def _renormalize_importances(node: AttributeNode) -> AttributeNode:
    if node.is_basic:
        return node
    children = tuple(_renormalize_importances(c) for c in node.children)
    total = sum(c.importance or 0.0 for c in children)
    if total > 0.0:
        children = tuple(
            replace(c, importance=(c.importance or 0.0) / total) for c in children
        )
    return replace(node, children=children)


def load_model(
    source: str | Path,
    strict: bool = False,
    check: bool = True,
    renormalize_importances: bool = False,
) -> EvaluationModel:
    """Load an evaluation model from a file path or raw JSON text.

    A string starting with ``{`` is treated as document text, anything else
    as a path.  Parse and schema problems raise
    :class:`~erkit.errors.ModelFormatError`; with ``check`` enabled (the
    default) semantic problems raise
    :class:`~erkit.errors.ModelValidationError` carrying all diagnostics.
    Sibling importances are verified, not rescaled, unless
    ``renormalize_importances`` is set.
    """
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
        where = str(source)
    elif source.lstrip().startswith("{"):
        text, where = source, "<text>"
    else:
        text = Path(source).read_text(encoding="utf-8")
        where = source
    doc = _parse_json(text, where)
    if not isinstance(doc, Mapping):
        raise ModelFormatError(f"{where}: top level must be an object")
    _reject_unknown(doc, _MODEL_KEYS, where, strict)
    schema = doc.get("schema", MODEL_SCHEMA)
    if schema != MODEL_SCHEMA:
        raise ModelFormatError(f"{where}: unsupported schema {schema!r}")

    frame_raw = _require(doc, "frame", where)
    if not isinstance(frame_raw, list) or not all(isinstance(g, str) for g in frame_raw):
        raise ModelFormatError(f"{where}: frame must be a list of grade strings")
    try:
        frame = GradeFrame(frame_raw)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: bad frame: {exc}") from exc

    alternatives = _require(doc, "alternatives", where)
    if not isinstance(alternatives, list) or not all(isinstance(a, str) for a in alternatives):
        raise ModelFormatError(f"{where}: alternatives must be a list of strings")

    utilities_raw = doc.get("utilities")
    if utilities_raw is None:
        utility = UtilityFunction.evenly_spaced(frame)
    else:
        if not isinstance(utilities_raw, Mapping):
            raise ModelFormatError(f"{where}: utilities must be an object")
        try:
            utility = UtilityFunction.from_mapping(
                frame, {g: _number(u, f"utility of {g!r}", where) for g, u in utilities_raw.items()}
            )
        except ValueError as exc:
            raise ModelFormatError(f"{where}: bad utilities: {exc}") from exc

    root = _parse_node(_require(doc, "tree", where), frame, where, strict)
    if renormalize_importances:
        root = _renormalize_importances(root)
    try:
        model = EvaluationModel(frame, tuple(alternatives), root, utility)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc
    if check:
        problems = validate(model)
        if problems:
            raise ModelValidationError(problems)
    return model


def _node_to_json(node: AttributeNode) -> dict:
    out: dict = {"name": node.name}
    for key in ("reliability", "importance", "weight"):
        value = getattr(node, key)
        if value is not None:
            out[key] = value
    if node.is_basic:
        out["assessments"] = {
            alt: {g: d for g, d in a.belief_degrees.items() if d != 0.0}
            for alt, a in node.assessments.items()
        }
    else:
        out["children"] = [_node_to_json(c) for c in node.children]
    return out


def save_model(model: EvaluationModel) -> str:
    """Serialize a model to JSON text that :func:`load_model` accepts."""
    doc = {
        "schema": MODEL_SCHEMA,
        "frame": list(model.frame.grades),
        "alternatives": list(model.alternatives),
        "tree": _node_to_json(model.root),
    }
    if model.utility is not None:
        doc["utilities"] = model.utility.by_grade
    return json.dumps(doc, indent=2, allow_nan=False)


def trace_to_json(trace: AggregationTrace, frame: GradeFrame) -> list[dict]:
    """Serialize per-step aggregation masses for reporting."""
    return [
        {
            "singletons": dict(zip(frame.grades, step.singletons)),
            "frame_mass": step.frame_mass,
            "omega_mass": step.omega_mass,
            "normalizer": step.normalizer,
        }
        for step in trace.steps
    ]


@dataclass(frozen=True)
class ResultDocument:
    """Evaluation output of one algorithm over all alternatives."""

    algorithm: str
    frame: tuple[str, ...]
    alternatives: tuple[str, ...]
    node_results: dict[str, dict[str, dict]]  # alternative -> path -> distribution
    redistributed: dict[str, dict[str, float]]
    utilities: dict[str, float]
    ranking: tuple[str, ...]
    traces: dict[str, dict[str, list[dict]]] | None = None

    def root_distribution(self, alternative: str) -> dict:
        root_path = min(self.node_results[alternative], key=len)
        return self.node_results[alternative][root_path]


def _batch_distributions(batch: BatchEvaluation) -> dict[str, dict[str, dict]]:
    """alternative -> path -> distribution, read off each node's arrays once."""
    grades = batch.frame.grades
    out: dict[str, dict[str, dict]] = {alt: {} for alt in batch.alternatives}
    for path, assigned, unassigned in zip(batch.paths, batch.assigned, batch.unassigned):
        for results, row, u in zip(out.values(), assigned.tolist(), unassigned.tolist()):
            results[path] = {"assigned": dict(zip(grades, row)), "unassigned": u}
    return out


def result_from_evaluation(
    algorithm: str,
    model: EvaluationModel,
    per_alternative: Mapping[str, Mapping[str, CombinedAssessment]] | BatchEvaluation,
    utilities: Mapping[str, float],
    redistributed: Mapping[str, Mapping[str, float]],
    ranking: Sequence[str],
    traces: Mapping[str, Mapping[str, list[dict]]] | None = None,
) -> ResultDocument:
    """Bundle one algorithm's results, from :func:`~erkit.hierarchy.evaluate`
    per alternative or from one :func:`~erkit.hierarchy.evaluate_batch`."""
    if isinstance(per_alternative, BatchEvaluation):
        node_results = _batch_distributions(per_alternative)
    else:
        node_results = {
            alt: {
                path: {
                    "assigned": combined.assigned_degrees,
                    "unassigned": combined.unassigned,
                }
                for path, combined in results.items()
            }
            for alt, results in per_alternative.items()
        }
    return ResultDocument(
        algorithm=algorithm,
        frame=model.frame.grades,
        alternatives=model.alternatives,
        node_results=node_results,
        redistributed={a: dict(r) for a, r in redistributed.items()},
        utilities=dict(utilities),
        ranking=tuple(ranking),
        traces={a: dict(t) for a, t in traces.items()} if traces is not None else None,
    )


def _document_to_json(doc: ResultDocument) -> dict:
    out = {
        "algorithm": doc.algorithm,
        "frame": list(doc.frame),
        "alternatives": list(doc.alternatives),
        "results": {
            alt: {
                "nodes": doc.node_results[alt],
                "redistributed": doc.redistributed[alt],
                "utility": doc.utilities[alt],
            }
            for alt in doc.alternatives
        },
        "ranking": list(doc.ranking),
    }
    if doc.traces is not None:
        out["traces"] = doc.traces
    return out


def _document_from_json(raw: Mapping) -> ResultDocument:
    alternatives = tuple(raw["alternatives"])
    results = raw["results"]
    return ResultDocument(
        algorithm=raw["algorithm"],
        frame=tuple(raw["frame"]),
        alternatives=alternatives,
        node_results={a: dict(results[a]["nodes"]) for a in alternatives},
        redistributed={a: dict(results[a]["redistributed"]) for a in alternatives},
        utilities={a: results[a]["utility"] for a in alternatives},
        ranking=tuple(raw["ranking"]),
        traces={a: dict(t) for a, t in raw["traces"].items()} if "traces" in raw else None,
    )


def save_results(
    documents: ResultDocument | Sequence[ResultDocument], format: str = "json"
) -> str:
    """Render result documents as ``json``, ``table``, or ``csv`` text."""
    if isinstance(documents, ResultDocument):
        documents = [documents]
    if format == "json":
        payload = {
            "schema": RESULT_SCHEMA,
            "documents": [_document_to_json(d) for d in documents],
        }
        return json.dumps(payload, indent=2, allow_nan=False)
    if format == "table":
        return render_tables(documents)
    if format == "csv":
        return render_csv(documents)
    raise ValueError(f"unknown format {format!r}; expected json, table, or csv")


def load_results(text: str) -> list[ResultDocument]:
    """Parse result documents saved in the machine-readable format."""
    raw = _parse_json(text, "result document")
    if not isinstance(raw, Mapping) or raw.get("schema") != RESULT_SCHEMA:
        raise ModelFormatError("unsupported result document")
    return [_document_from_json(d) for d in raw["documents"]]


def _format_row(cells: Iterable[str], widths: Sequence[int]) -> str:
    return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [_format_row(headers, widths)]
    lines.append(_format_row(["-" * w for w in widths], widths))
    lines.extend(_format_row(r, widths) for r in rows)
    return "\n".join(lines)


def render_tables(documents: Sequence[ResultDocument]) -> str:
    """Aligned-text report: distributions, expected utilities, rankings."""
    blocks = []
    for doc in documents:
        headers = ["Alternative", *doc.frame, "Unknown"]
        rows = []
        for alt in doc.alternatives:
            dist = doc.root_distribution(alt)
            rows.append(
                [
                    alt,
                    *(f"{dist['assigned'][g]:.4f}" for g in doc.frame),
                    f"{dist['unassigned']:.4f}",
                ]
            )
        blocks.append(
            f"Combined assessment ({doc.algorithm})\n" + _table(headers, rows)
        )
    util_headers = ["Algorithm", *documents[0].alternatives]
    util_rows = [
        [doc.algorithm, *(f"{doc.utilities[a]:.4f}" for a in doc.alternatives)]
        for doc in documents
    ]
    blocks.append("Expected utilities\n" + _table(util_headers, util_rows))
    ranking_rows = [
        [doc.algorithm, " > ".join(doc.ranking)] for doc in documents
    ]
    blocks.append("Ranking orders\n" + _table(["Algorithm", "Ranking"], ranking_rows))
    return "\n\n".join(blocks) + "\n"


def render_csv(documents: Sequence[ResultDocument]) -> str:
    """Long-format plot data: one row per algorithm, alternative, and grade."""
    lines = ["algorithm,alternative,grade,degree"]
    for doc in documents:
        for alt in doc.alternatives:
            dist = doc.root_distribution(alt)
            for g in doc.frame:
                lines.append(f"{doc.algorithm},{alt},{g},{dist['assigned'][g]!r}")
            lines.append(f"{doc.algorithm},{alt},Unknown,{dist['unassigned']!r}")
    return "\n".join(lines) + "\n"
