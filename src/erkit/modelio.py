"""Serialization of evaluation models and result documents.

Model documents are plain JSON with four top-level keys (``frame``,
``utilities``, ``alternatives``, ``tree``) plus a ``schema`` tag.  Leaf
nodes carry per-alternative grade->degree maps; degrees are written as
decimals and missing grades mean zero, so an incomplete assessment is
stored exactly as elicited and the unassigned residual stays implicit.

Result documents bundle, per algorithm, the per-node combined
distributions, the redistributed degrees, expected utilities, the ranking,
and (optionally) aggregation traces.  Node results have one
representation: arrays over nodes in post-order, root last, as
:func:`~erkit.hierarchy.evaluate_batch` gives them: ``assigned`` (nodes ×
alternatives × grades) and ``unassigned`` (nodes × alternatives).  A batch
keeps its arrays and :func:`load_results` fills them; ``node_results`` is
a read-only alternative -> path -> distribution view built on access, and
the table, CSV and comparison reports read the root row only.

The JSON report is written straight from the arrays by one ``%`` template
per document, so the per-node dicts are never built and the
pure-Python indenting encoder never walks them.  Its output is byte for
byte what ``json.dumps(payload, indent=2, allow_nan=False)`` gives for
the nested-dict payload (keys escaped as ``ensure_ascii`` escapes them,
floats through ``float.__repr__``, non-finite values rejected), so the
file format is unchanged; the test suite holds it to that.  The shortest
round-trip float representation means loading a saved document
reproduces the numbers bit for bit.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .algorithms import AggregationTrace, Assessment
from .decision import RankedResult, UtilityFunction
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


@dataclass(frozen=True, eq=False)
class ResultDocument:
    """Evaluation output of one algorithm over all alternatives.

    Node results are arrays: ``assigned`` is (nodes × alternatives ×
    grades) and ``unassigned`` (nodes × alternatives), nodes following
    ``paths`` (post-order, root last) and alternatives ``alternatives``.
    ``node_results`` reads them as alternative -> path -> distribution.
    """

    algorithm: str
    frame: tuple[str, ...]
    alternatives: tuple[str, ...]
    paths: tuple[str, ...]
    assigned: np.ndarray
    unassigned: np.ndarray
    redistributed: dict[str, dict[str, float]]
    utilities: dict[str, float]
    ranking: tuple[str, ...]
    traces: dict[str, dict[str, list[dict]]] | None = None

    def __post_init__(self):
        if not self.paths or not self.alternatives:
            raise ValueError("a result document needs at least one node and one alternative")
        shape = (len(self.paths), len(self.alternatives))
        if self.assigned.shape != (*shape, len(self.frame)) or self.unassigned.shape != shape:
            raise ValueError(
                "node arrays must be (nodes × alternatives × grades) and (nodes × alternatives)"
            )
        # Grades, alternatives and paths become JSON keys; a repeat would write a key twice.
        for name in ("frame", "alternatives", "paths"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError(f"{name} must be unique")

    def __eq__(self, other):
        if not isinstance(other, ResultDocument):
            return NotImplemented
        return (
            (self.algorithm, self.frame, self.alternatives, self.paths)
            == (other.algorithm, other.frame, other.alternatives, other.paths)
            and (self.redistributed, self.utilities, self.ranking, self.traces)
            == (other.redistributed, other.utilities, other.ranking, other.traces)
            and np.array_equal(self.assigned, other.assigned)
            and np.array_equal(self.unassigned, other.unassigned)
        )

    @cached_property
    def _column(self) -> dict[str, int]:
        return {alt: i for i, alt in enumerate(self.alternatives)}

    @property
    def node_results(self) -> Mapping[str, Mapping[str, dict]]:
        """alternative -> path -> distribution, read off the arrays on access."""
        return _NodeResults(self)

    def root_rows(self) -> tuple[list[list[float]], list[float]]:
        """The root's assigned degrees and unassigned degree, one entry per alternative."""
        return self.assigned[-1].tolist(), self.unassigned[-1].tolist()

    def root_distribution(self, alternative: str) -> dict:
        i = self._column[alternative]
        return {
            "assigned": dict(zip(self.frame, self.assigned[-1, i].tolist())),
            "unassigned": float(self.unassigned[-1, i]),
        }


class _NodeResults(Mapping):
    """Read-only alternative -> path -> distribution view of a document's arrays."""

    def __init__(self, doc: ResultDocument):
        self._doc = doc

    def __getitem__(self, alternative: str) -> Mapping[str, dict]:
        doc = self._doc
        i = doc._column[alternative]
        return MappingProxyType(
            {
                path: {"assigned": dict(zip(doc.frame, row)), "unassigned": u}
                for path, row, u in zip(
                    doc.paths, doc.assigned[:, i].tolist(), doc.unassigned[:, i].tolist()
                )
            }
        )

    def __iter__(self):
        return iter(self._doc.alternatives)

    def __len__(self) -> int:
        return len(self._doc.alternatives)


def result_from_evaluation(
    batch: BatchEvaluation,
    ranked: RankedResult,
    traces: Mapping[str, Mapping[str, list[dict]]] | None = None,
) -> ResultDocument:
    """Bundle one scheme's :func:`~erkit.hierarchy.evaluate_batch` arrays with
    its :func:`~erkit.decision.decide` summary and, optionally, its traces."""
    paths, assigned, unassigned = batch.paths, batch.assigned, batch.unassigned
    # Siblings sharing a name give one path twice.  Keep what a dict keyed
    # by path keeps, as evaluate() does: the first position, the last row.
    rows = {path: i for i, path in enumerate(paths)}
    if len(rows) < len(paths):
        paths, keep = tuple(rows), list(rows.values())
        assigned, unassigned = assigned[keep], unassigned[keep]
    return ResultDocument(
        algorithm=batch.algorithm,
        frame=batch.frame.grades,
        alternatives=batch.alternatives,
        paths=paths,
        assigned=assigned,
        unassigned=unassigned,
        redistributed={a: dict(r) for a, r in ranked.degrees.items()},
        utilities=dict(ranked.utilities),
        ranking=tuple(ranked.ranking),
        traces={a: dict(t) for a, t in traces.items()} if traces is not None else None,
    )


def _dumps(value, indent: int) -> str:
    """``json.dumps(value, indent=2)`` nested ``indent`` spaces deep.

    A JSON string never holds a raw newline, so every ``"\\n"`` replaced is a
    line break of the layout.
    """
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + " " * indent)


def _block(members: Sequence[str], indent: int) -> str:
    """A non-empty indent-2 JSON object of rendered members, closed ``indent`` spaces deep."""
    return "{\n" + ",\n".join(members) + "\n" + " " * indent + "}"


def _template_key(key: str) -> str:
    """A JSON key, escaped once, safe to embed in a ``%`` template."""
    return _escape(key).replace("%", "%%")


def _nodes_template(doc: ResultDocument) -> str:
    """The ``"nodes"`` object of one alternative: ``%r`` per degree, node after node."""
    assigned = _block([" " * 16 + _template_key(g) + ": %r" for g in doc.frame], 14)
    record = ': {\n' + " " * 14 + '"assigned": ' + assigned + ",\n"
    record += " " * 14 + '"unassigned": %r\n' + " " * 12 + "}"
    return _block([" " * 12 + _template_key(path) + record for path in doc.paths], 10)


def _write_document(doc: ResultDocument, out: list[str]) -> None:
    """Append one result document to ``out`` as ``json.dumps(indent=2)`` lays
    it out in the report's ``documents`` list."""
    values = np.concatenate([doc.assigned, doc.unassigned[:, :, None]], axis=2)
    if not np.isfinite(values).all():
        bad = float(values[~np.isfinite(values)][0])
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    # One flat row of floats per alternative, in the order of the template's %r.
    per_alternative = len(doc.paths) * (len(doc.frame) + 1)
    rows = values.transpose(1, 0, 2).reshape(len(doc.alternatives), per_alternative).tolist()
    nodes = _nodes_template(doc)
    out.append(
        '{\n      "algorithm": ' + _dumps(doc.algorithm, 6)
        + ',\n      "frame": ' + _dumps(list(doc.frame), 6)
        + ',\n      "alternatives": ' + _dumps(list(doc.alternatives), 6)
        + ',\n      "results": {'
    )
    for i, (alt, row) in enumerate(zip(doc.alternatives, rows)):
        out.append((",\n" if i else "\n") + " " * 8 + _escape(alt) + ': {\n          "nodes": ')
        out.append(nodes % tuple(row))
        out.append(
            ',\n          "redistributed": ' + _dumps(doc.redistributed[alt], 10)
            + ',\n          "utility": ' + _dumps(doc.utilities[alt], 10)
            + "\n        }"
        )
    out.append('\n      },\n      "ranking": ' + _dumps(list(doc.ranking), 6))
    if doc.traces is not None:
        out.append(',\n      "traces": ' + _dumps(doc.traces, 6))
    out.append("\n    }")


def _write_json(documents: Sequence[ResultDocument]) -> str:
    """The indent-2 JSON report: byte for byte what ``json.dumps`` gives for
    the nested-dict payload, rendered from the documents' arrays.

    Pieces are collected in one flat list and joined once, so the report is
    copied once, not once per nesting level.
    """
    out = ['{\n  "schema": ' + _dumps(RESULT_SCHEMA, 2) + ',\n  "documents": [']
    for i, doc in enumerate(documents):
        out.append((",\n" if i else "\n") + "    ")
        _write_document(doc, out)
    out.append("\n  ]\n}" if documents else "]\n}")
    return "".join(out)


def save_results(
    documents: ResultDocument | Sequence[ResultDocument], format: str = "json"
) -> str:
    """Render result documents as ``json``, ``table``, or ``csv`` text."""
    if isinstance(documents, ResultDocument):
        documents = [documents]
    if format == "json":
        return _write_json(documents)
    if format == "table":
        return render_tables(documents)
    if format == "csv":
        return render_csv(documents)
    raise ValueError(f"unknown format {format!r}; expected json, table, or csv")


def _require_object(mapping: Mapping, key: str, where: str) -> Mapping:
    value = _require(mapping, key, where)
    if not isinstance(value, Mapping):
        raise ModelFormatError(f"{where}: {key} must be an object")
    return value


def _require_strings(mapping: Mapping, key: str, where: str) -> tuple[str, ...]:
    value = _require(mapping, key, where)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ModelFormatError(f"{where}: {key} must be a list of strings")
    return tuple(value)


_NUMBER_TYPES = frozenset((int, float))


def _node_values(dist, frame: tuple[str, ...], where: str, path: str) -> list:
    """One node's degrees in frame order, then its unassigned degree; numbers only.

    Checked per node rather than per value, as a saved report holds one
    node per path and alternative; the message is built only on failure.
    """
    degrees = dist.get("assigned") if isinstance(dist, Mapping) else None
    try:
        values = [degrees[g] for g in frame] if len(degrees) == len(frame) else None
    except (KeyError, TypeError):
        values = None
    if values is None:
        raise ModelFormatError(
            f"{where}: node {path!r} needs an assigned object with one degree per grade"
        )
    values.append(dist.get("unassigned"))
    # Exact types: a JSON boolean is an int subclass and is not a degree.
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        raise ModelFormatError(f"{where}: node {path!r}: degrees must be numbers, got {values!r}")
    return values


def _document_from_json(raw, where: str) -> ResultDocument:
    """One result document, every point of its schema checked, its node results as arrays."""
    if not isinstance(raw, Mapping):
        raise ModelFormatError(f"{where}: must be an object")
    algorithm = _require(raw, "algorithm", where)
    if not isinstance(algorithm, str):
        raise ModelFormatError(f"{where}: algorithm must be a string")
    frame = _require_strings(raw, "frame", where)
    alternatives = _require_strings(raw, "alternatives", where)
    for key, values in (("frame", frame), ("alternatives", alternatives)):
        if not values or len(set(values)) != len(values):
            raise ModelFormatError(f"{where}: {key} must be non-empty and must not repeat an entry")
    results = _require_object(raw, "results", where)
    ranking = _require_strings(raw, "ranking", where)
    traces = raw.get("traces")
    if traces is not None and not (
        isinstance(traces, Mapping) and all(isinstance(t, Mapping) for t in traces.values())
    ):
        raise ModelFormatError(f"{where}: traces must map alternatives to objects")

    paths: tuple[str, ...] = ()
    values, redistributed, utilities = [], {}, {}
    for alt in alternatives:
        if alt not in results:
            raise ModelFormatError(f"{where}: no results for alternative {alt!r}")
        here = f"{where}: results for {alt!r}"
        entry = results[alt]
        if not isinstance(entry, Mapping):
            raise ModelFormatError(f"{here}: must be an object")
        nodes = _require_object(entry, "nodes", here)
        if not paths:
            paths = tuple(nodes)
            if not paths or not all(p.startswith(paths[-1] + "/") for p in paths[:-1]):
                raise ModelFormatError(
                    f"{here}: nodes must end with the root, the path every other path extends"
                )
        elif len(nodes) != len(paths) or not all(p in nodes for p in paths):
            raise ModelFormatError(f"{here}: nodes must name the same paths for every alternative")
        for path in paths:
            values.extend(_node_values(nodes[path], frame, here, path))
        redistributed[alt] = {
            g: _number(d, "redistributed degree", here)
            for g, d in _require_object(entry, "redistributed", here).items()
        }
        utilities[alt] = _number(_require(entry, "utility", here), "utility", here)

    grades = len(frame)
    stacked = np.array(values, dtype=float).reshape(len(alternatives), len(paths), grades + 1)
    return ResultDocument(
        algorithm=algorithm,
        frame=frame,
        alternatives=alternatives,
        paths=paths,
        assigned=stacked[:, :, :grades].transpose(1, 0, 2),
        unassigned=stacked[:, :, grades].T,
        redistributed=redistributed,
        utilities=utilities,
        ranking=ranking,
        traces={a: dict(t) for a, t in traces.items()} if traces is not None else None,
    )


def load_results(text: str) -> list[ResultDocument]:
    """Parse result documents saved in the machine-readable format.

    Any departure from the schema raises
    :class:`~erkit.errors.ModelFormatError`.
    """
    raw = _parse_json(text, "result document")
    if not isinstance(raw, Mapping) or raw.get("schema") != RESULT_SCHEMA:
        raise ModelFormatError("unsupported result document")
    documents = _require(raw, "documents", "result document")
    if not isinstance(documents, list):
        raise ModelFormatError("result document: documents must be a list")
    return [_document_from_json(d, f"result document {i}") for i, d in enumerate(documents)]


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
        rows = [
            [alt, *(f"{d:.4f}" for d in row), f"{u:.4f}"]
            for alt, row, u in zip(doc.alternatives, *doc.root_rows())
        ]
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
        for alt, row, u in zip(doc.alternatives, *doc.root_rows()):
            for g, d in zip(doc.frame, row):
                lines.append(f"{doc.algorithm},{alt},{g},{d!r}")
            lines.append(f"{doc.algorithm},{alt},Unknown,{u!r}")
    return "\n".join(lines) + "\n"
