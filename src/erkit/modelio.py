"""Serialization of evaluation models and result documents.

Model documents are plain JSON with four top-level keys (``frame``,
``utilities``, ``alternatives``, ``tree``) plus a ``schema`` tag.  Leaf
nodes carry per-alternative grade->degree maps; degrees are written as
decimals and missing grades mean zero, so an incomplete assessment is
stored exactly as elicited and the unassigned residual stays implicit.
:func:`load_model` parses the tree in one iterative walk, in document
order, and keeps the degrees as arrays: it checks each attribute's
degrees in bulk (types, range, per-alternative exactly rounded sums),
gathers them as flat lists, fills one buffer per model, and then builds
the nodes, each table a read-only view of its rows, so no per-alternative
:class:`~erkit.algorithms.Assessment` is built.  A faulty attribute is
checked again one alternative at a time, so the first fault is reported
as that check words it.  :func:`save_model` writes each leaf from its
table's rows.

Result documents bundle, per algorithm, the per-node combined
distributions, the redistributed degrees, expected utilities, the ranking,
and (optionally) aggregation traces, which :func:`trace_to_json` reads off
a traced batch as alternative -> path -> steps.  Node results have one
representation: arrays over nodes in post-order, root last, as
:func:`~erkit.hierarchy.evaluate_batch` gives them: ``assigned`` (nodes ×
alternatives × grades) and ``unassigned`` (nodes × alternatives), and the
redistributed degrees (alternatives × grades) as :func:`~erkit.decision.decide`
gives them.  :func:`load_results` fills them, and the table, CSV and
comparison reports read the root row only.  A :class:`ResultDocument`
checks its structural invariants when it is built, the layout of its
traces included, so any document that can be built, with finite node
numbers, can be saved and loaded back; the loader only turns JSON into
its fields.  Documents compare by value.

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

import io
import json
import math
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import NoReturn

import numpy as np

from .algorithms import DEGREE_SUM_TOL, Assessment, _fields_equal
from .decision import RankedResult, UtilityFunction
from .errors import ModelFormatError
from .frame import GradeFrame
from .hierarchy import (
    UNASSIGNED,
    AssessmentTable,
    AttributeNode,
    BatchEvaluation,
    EvaluationModel,
    _encodes,
    _name_fault,
    _strings_fault,
)
from .hierarchy import validate  # noqa: F401  the benchmark's traced child wraps this name

MODEL_SCHEMA = "er-model/1"
RESULT_SCHEMA = "er-result/1"

_MODEL_KEYS = {"schema", "frame", "utilities", "alternatives", "tree"}
_NODE_KEYS = {"name", "reliability", "importance", "weight", "children", "assessments"}
_NUMBER_TYPES = frozenset((int, float))
_OBJECT_TYPES = frozenset((dict,))


def _parse_json(text: str | bytes, where: str):
    """JSON text, or UTF-8 bytes, as Python values; bad syntax or encoding, integer
    literals too long to convert, non-finite constants and deep nesting raise."""

    def reject_constant(name: str):
        raise ModelFormatError(f"{where}: non-finite number {name} is not allowed")

    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text, parse_constant=reject_constant)
    except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError, the int digit limit
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


def _double(value, what: str) -> float:
    """A number as a finite float; booleans, numeric strings and numbers beyond
    the double range (``1e400`` parses as infinity) raise ``ValueError``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite double, got {value!r}")
    return number


def _number(value, what: str, where: str) -> float:
    """A JSON number as a finite float, as :func:`_double` takes it; a fault
    raises :class:`~erkit.errors.ModelFormatError` prefixed with ``where``."""
    try:
        return _double(value, what)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from None


def _parse_factor(raw: Mapping, key: str, where: str) -> float | None:
    value = raw.get(key)
    if value is None:
        return None
    return _number(value, key, where)


class _Leaves:
    """Every assessment a model's parse walk meets, checked one attribute at a
    time, gathered as flat lists and written into one buffer at the end."""

    def __init__(self, frame: GradeFrame):
        self.frame = frame
        self.grade_index = {g: i for i, g in enumerate(frame.grades)}
        self.cells: list[int] = []
        self.values: list = []
        self.counts: list[int] = []
        self.sums: list[float] = []

    def add(self, raw: Mapping, here: str) -> slice:
        """One attribute's assessments, checked with C builtins only, as the span
        of buffer rows they will fill; on a fault the per-alternative checks run
        again to report the first one."""
        rows = list(raw.values())
        lo, hi = -DEGREE_SUM_TOL, 1.0 + DEGREE_SUM_TOL
        if _OBJECT_TYPES.issuperset(map(type, rows)):
            grades = list(chain.from_iterable(rows))
            values = list(chain.from_iterable(map(dict.values, rows)))
            # Exact types: a JSON boolean is an int subclass and is not a degree.  The
            # range check also rejects infinities and integers beyond the double range.
            if (
                self.grade_index.keys() >= set(grades)
                and _NUMBER_TYPES.issuperset(map(type, values))
                and lo <= min(values, default=0.0)
                and max(values, default=0.0) <= hi
            ):
                # The exactly rounded sum Assessment.unassigned takes: padding zeros add nothing.
                sums = list(map(math.fsum, map(dict.values, rows)))
                if max(sums, default=0.0) <= hi:
                    start = len(self.counts)
                    self.cells += map(self.grade_index.__getitem__, grades)
                    self.values += values
                    self.counts += map(len, rows)
                    self.sums += sums
                    return slice(start, len(self.counts))
        _raise_first_fault(raw, self.frame, here)

    def fill(self) -> tuple[np.ndarray, np.ndarray]:
        """Every gathered degree in one (assessments × grades) buffer, and the
        unassigned degrees."""
        size = self.frame.size
        degrees = np.zeros((len(self.counts), size))
        starts = np.repeat(np.arange(0, degrees.size, size), self.counts)
        degrees.ravel()[starts + np.array(self.cells, dtype=np.intp)] = self.values
        return degrees, np.maximum(0.0, 1.0 - np.array(self.sums))


def _raise_first_fault(raw: Mapping, frame: GradeFrame, here: str) -> NoReturn:
    """Raise the error of an attribute's first faulty assessment, checking one
    alternative at a time."""
    for alt, degrees in raw.items():
        if not isinstance(degrees, Mapping):
            raise ModelFormatError(f"{here}: assessment for {alt!r} must be an object")
        where_alt = f"{here}: assessment for {alt!r}"
        parsed = {g: _number(d, "belief degree", where_alt) for g, d in degrees.items()}
        try:
            Assessment.from_degrees(frame, parsed)
        except Exception as exc:
            raise ModelFormatError(f"{here}: bad assessment for {alt!r}: {exc}") from exc
    raise AssertionError(f"{here}: the assessments failed a check that none of them fails")


def _parse_tree(raw, frame: GradeFrame, where: str, strict: bool, renormalize: bool) -> AttributeNode:
    """The tree under ``raw``, parsed by one iterative walk; with ``renormalize``
    each set of siblings' importances is rescaled to sum to one.

    A node's fields, children list and assessments type are checked before its
    children, its assessments and factors after them, so the first fault in
    document order is raised.  Once the one buffer is filled, the nodes are
    built children first, each table a view of its buffer rows.
    """
    leaves = _Leaves(frame)
    records: list[tuple] = []  # post-order: name, child positions, alternatives, rows, factors
    # A node to check (children None), or to finish once its children are (their positions).
    stack: list = [(raw, where, [], None)]
    while stack:
        raw, where, siblings, kids = stack.pop()
        if kids is None:
            if not isinstance(raw, Mapping):
                raise ModelFormatError(f"{where}: node must be an object")
            _reject_unknown(raw, _NODE_KEYS, where, strict)
            name = _require(raw, "name", where)
            if fault := _name_fault(name):
                raise ModelFormatError(f"{where}: {fault}")
            here = f"{where}/{name}"
            children_raw = raw.get("children", [])
            if not isinstance(children_raw, list):
                raise ModelFormatError(f"{here}: children must be a list")
            if not isinstance(raw.get("assessments", {}), Mapping):
                raise ModelFormatError(f"{here}: assessments must be an object")
            kids = []
            stack.append((raw, here, siblings, kids))
            stack.extend((c, here, kids, None) for c in reversed(children_raw))
            continue
        assessments = raw.get("assessments", {})
        rows = leaves.add(assessments, where) if assessments else None
        factors = {k: _parse_factor(raw, k, where) for k in ("reliability", "importance", "weight")}
        if renormalize:
            shares = [records[k][-1] for k in kids]
            total = sum(f["importance"] or 0.0 for f in shares)
            if total > 0.0:
                for f in shares:
                    f["importance"] = (f["importance"] or 0.0) / total
        siblings.append(len(records))
        records.append((raw["name"], kids, tuple(assessments), rows, factors))

    degrees, unassigned = leaves.fill()
    built: list[AttributeNode] = []
    for name, kids, names, rows, factors in records:
        table = {} if rows is None else AssessmentTable(frame, names, degrees[rows], unassigned[rows])
        built.append(AttributeNode(name, tuple(built[k] for k in kids), assessments=table, **factors))
    return built[-1]


def load_model(
    source: str | Path,
    strict: bool = False,
    check: bool = True,
    renormalize_importances: bool = False,
) -> EvaluationModel:
    """Load an evaluation model from a file path or raw JSON text.

    A string starting with ``{`` is treated as document text, anything else
    as a path to a UTF-8 file.  Parse and schema problems raise
    :class:`~erkit.errors.ModelFormatError`.  With ``check`` enabled (the
    default) the model's plan is compiled here, and kept for evaluation, so
    semantic problems raise :class:`~erkit.errors.ModelValidationError`
    carrying all diagnostics; unchecked, they raise when it is evaluated.
    Sibling importances are verified, not rescaled, unless
    ``renormalize_importances`` is set: then the walk that parses a general
    node's children divides their importances by the siblings' total (left
    as they are when no sibling has a positive importance).
    """
    if isinstance(source, Path) or not source.lstrip().startswith("{"):
        text, where = Path(source).read_bytes(), str(source)
    else:
        text, where = source, "<text>"
    doc = _parse_json(text, where)
    if not isinstance(doc, Mapping):
        raise ModelFormatError(f"{where}: top level must be an object")
    _reject_unknown(doc, _MODEL_KEYS, where, strict)
    schema = doc.get("schema", MODEL_SCHEMA)
    if schema != MODEL_SCHEMA:
        raise ModelFormatError(f"{where}: unsupported schema {schema!r}")

    try:
        frame = GradeFrame(_require_strings(doc, "frame", where))
    except ValueError as exc:
        raise ModelFormatError(f"{where}: bad frame: {exc}") from exc
    alternatives = _require_strings(doc, "alternatives", where)

    utilities_raw = doc.get("utilities")
    utility = None  # the model's default: evenly spaced
    if utilities_raw is not None:
        if not isinstance(utilities_raw, Mapping):
            raise ModelFormatError(f"{where}: utilities must be an object")
        try:
            utility = UtilityFunction.from_mapping(
                frame, {g: _number(u, f"utility of {g!r}", where) for g, u in utilities_raw.items()}
            )
        except ValueError as exc:
            raise ModelFormatError(f"{where}: bad utilities: {exc}") from exc

    root = _parse_tree(_require(doc, "tree", where), frame, where, strict, renormalize_importances)
    try:
        model = EvaluationModel(frame, alternatives, root, utility)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc
    if check:
        model.plan  # compiling validates the model
    return model


def _node_to_json(node: AttributeNode) -> dict:
    out: dict = {"name": node.name}
    for key in ("reliability", "importance", "weight"):
        value = getattr(node, key)
        if value is not None:
            out[key] = value
    if node.is_basic:
        table = node.assessments
        grades = table.frame.grades if table else ()
        out["assessments"] = {
            alt: {g: d for g, d in zip(grades, row) if d != 0.0}
            for alt, row in zip(table.names, table.degrees.tolist())
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
        "utilities": model.utility.by_grade,
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def trace_to_json(batch: BatchEvaluation) -> dict[str, dict[str, list[dict]]]:
    """A traced batch's per-step aggregation masses as alternative -> path ->
    steps, for reporting; each step's masses are read off its arrays at once."""
    if batch.traces is None:
        raise ValueError("the batch holds no traces; evaluate it with_trace=True")
    grades = batch.frame.grades
    n = len(grades)
    out: dict[str, dict[str, list[dict]]] = {alt: {} for alt in batch.alternatives}
    for path, trace in batch.traces.items():
        masses = [(*s.singletons, s.frame_mass, s.omega_mass, s.normalizer) for s in trace.steps]
        # One (alternatives × masses) table per step; a mass all alternatives share is a float.
        tables = [np.column_stack(np.broadcast_arrays(*m)).tolist() for m in masses]
        for alt, rows in zip(batch.alternatives, zip(*tables)):
            out[alt][path] = [
                {
                    "singletons": dict(zip(grades, row[:n])),
                    "frame_mass": row[n],
                    "omega_mass": row[n + 1],
                    "normalizer": row[n + 2],
                }
                for row in rows
            ]
    return out


_TRACE_KEYS = {"singletons", "frame_mass", "omega_mass", "normalizer"}


def _check_traces(traces, frame: tuple[str, ...]) -> None:
    """Every trace step as :func:`trace_to_json` writes it, so that it saves and
    loads back: string keys, each step a dict of its four keys, the singletons a
    dict keyed by the frame's grades, finite numbers; the first fault raises ``ValueError``."""
    if not (isinstance(traces, Mapping) and all(isinstance(t, Mapping) for t in traces.values())):
        raise ValueError("traces must map alternatives to objects")
    for alt, by_path in traces.items():
        if not (isinstance(alt, str) and all(isinstance(path, str) for path in by_path)):
            raise ValueError(f"traces for {alt!r} must name the alternative and its paths by strings")
        for path, steps in by_path.items():
            here = f"trace of {path!r} for {alt!r}"
            if not isinstance(steps, list):
                raise ValueError(f"{here}: must be a list of steps")
            what = f"{here}: trace mass"
            for step in steps:
                if not isinstance(step, dict) or step.keys() != _TRACE_KEYS:
                    raise ValueError(f"{here}: a step must have the keys {sorted(_TRACE_KEYS)} in a dict")
                masses = _in_frame_order(step["singletons"], frame)
                if masses is None:
                    raise ValueError(f"{here}: singletons must give one mass per grade in a dict")
                for mass in (*masses, step["frame_mass"], step["omega_mass"], step["normalizer"]):
                    _double(mass, what)


@dataclass(frozen=True, eq=False)
class ResultDocument:
    """Evaluation output of one algorithm over all alternatives.

    Node results are arrays: ``assigned`` is (nodes × alternatives ×
    grades) and ``unassigned`` (nodes × alternatives), nodes following
    ``paths`` (post-order, root last) and alternatives ``alternatives``.
    ``redistributed`` is (alternatives × grades).  Every structural
    invariant of the result schema is checked here, names that do not
    encode as UTF-8, a grade named ``Unknown`` and traces not laid out as
    :func:`trace_to_json` lays them out included, so a document that can be
    built can be saved and loaded back; the writer alone refuses non-finite
    node numbers.  Documents are equal when their fields are, arrays
    elementwise.
    """

    algorithm: str
    frame: tuple[str, ...]
    alternatives: tuple[str, ...]
    paths: tuple[str, ...]
    assigned: np.ndarray
    unassigned: np.ndarray
    redistributed: np.ndarray
    utilities: dict[str, float]
    ranking: tuple[str, ...]
    traces: dict[str, dict[str, list[dict]]] | None = None

    __eq__ = _fields_equal

    def __post_init__(self):
        if not self.frame or not self.paths or not self.alternatives:
            raise ValueError("a result document needs at least one grade, one node and one alternative")
        shape = (len(self.paths), len(self.alternatives))
        if self.assigned.shape != (*shape, len(self.frame)) or self.unassigned.shape != shape:
            raise ValueError(
                "node arrays must be (nodes × alternatives × grades) and (nodes × alternatives)"
            )
        if self.redistributed.shape != self.assigned.shape[1:]:
            raise ValueError("redistributed degrees must be (alternatives × grades)")
        if UNASSIGNED in self.frame:
            raise ValueError(f"grade name {UNASSIGNED!r} is reserved for the unassigned degree")
        # Grades, alternatives and paths become JSON keys; a repeat would write a key twice.
        for name in ("frame", "alternatives", "paths"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be unique")
            if fault := _strings_fault(name, values):
                raise ValueError(fault)
        if not _encodes(self.algorithm):
            raise ValueError(f"algorithm {self.algorithm!r} does not encode as UTF-8")
        if not all(p.startswith(self.paths[-1] + "/") for p in self.paths[:-1]):
            raise ValueError("paths must end with the root, the path every other path extends")
        if len(self.ranking) != len(self.alternatives) or set(self.ranking) != set(self.alternatives):
            raise ValueError("ranking must be a permutation of the alternatives")
        if self.utilities.keys() != set(self.alternatives):
            raise ValueError("utilities must name exactly the alternatives")
        if self.traces is not None:
            _check_traces(self.traces, self.frame)
            object.__setattr__(self, "traces", {a: dict(t) for a, t in self.traces.items()})

    def root_rows(self) -> tuple[list[list[float]], list[float]]:
        """The root's assigned degrees and unassigned degree, one entry per alternative."""
        return self.assigned[-1].tolist(), self.unassigned[-1].tolist()


def result_from_evaluation(
    batch: BatchEvaluation,
    ranked: RankedResult,
    traces: Mapping[str, Mapping[str, list[dict]]] | None = None,
) -> ResultDocument:
    """Bundle one scheme's :func:`~erkit.hierarchy.evaluate_batch` arrays with
    its :func:`~erkit.decision.decide` summary and, optionally, its traces."""
    return ResultDocument(
        algorithm=batch.algorithm,
        frame=batch.frame.grades,
        alternatives=batch.alternatives,
        paths=batch.paths,
        assigned=batch.assigned,
        unassigned=batch.unassigned,
        redistributed=ranked.degrees,
        utilities=ranked.utilities,
        ranking=ranked.ranking,
        traces=traces,
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


def _entry_template(doc: ResultDocument) -> str:
    """One alternative's entry after its key: ``%r`` per degree, node after node,
    then per redistributed degree, then for the utility."""
    assigned = _block([" " * 16 + _template_key(g) + ": %r" for g in doc.frame], 14)
    record = ': {\n' + " " * 14 + '"assigned": ' + assigned + ",\n"
    record += " " * 14 + '"unassigned": %r\n' + " " * 12 + "}"
    nodes = _block([" " * 12 + _template_key(path) + record for path in doc.paths], 10)
    redistributed = _block([" " * 12 + _template_key(g) + ": %r" for g in doc.frame], 10)
    return (
        ': {\n          "nodes": ' + nodes + ',\n          "redistributed": ' + redistributed
        + ',\n          "utility": %r\n        }'
    )


def _write_document(doc: ResultDocument, out: list[str]) -> None:
    """Append one result document to ``out`` as ``json.dumps(indent=2)`` lays
    it out in the report's ``documents`` list."""
    # One flat row of floats per alternative, in the order of the template's %r.
    nodes = np.concatenate([doc.assigned, doc.unassigned[:, :, None]], axis=2).transpose(1, 0, 2)
    utilities = [[doc.utilities[alt]] for alt in doc.alternatives]
    values = np.hstack([nodes.reshape(len(doc.alternatives), -1), doc.redistributed, utilities])
    if not np.isfinite(values).all():
        bad = float(values[~np.isfinite(values)][0])
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    entry = _entry_template(doc)
    out.append(
        '{\n      "algorithm": ' + _dumps(doc.algorithm, 6)
        + ',\n      "frame": ' + _dumps(list(doc.frame), 6)
        + ',\n      "alternatives": ' + _dumps(list(doc.alternatives), 6)
        + ',\n      "results": {'
    )
    for i, (alt, row) in enumerate(zip(doc.alternatives, values.tolist())):
        out.append((",\n" if i else "\n") + " " * 8 + _escape(alt) + entry % tuple(row))
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
    if fault := _strings_fault(key, value):
        raise ModelFormatError(f"{where}: {fault}")
    return tuple(value)


def _in_frame_order(degrees, frame: tuple[str, ...]) -> list | None:
    """The values of a grade -> value dict in frame order; ``None`` unless it is
    a dict naming exactly the frame's grades."""
    if isinstance(degrees, dict) and len(degrees) == len(frame) and all(g in degrees for g in frame):
        return [degrees[g] for g in frame]
    return None


def _node_values(dist, frame: tuple[str, ...], where: str, path: str) -> list:
    """One node's degrees in frame order, then its unassigned degree; numbers only.

    Checked per node rather than per value, as a saved report holds one
    node per path and alternative; the message is built only on failure.
    """
    values = _in_frame_order(dist.get("assigned") if isinstance(dist, Mapping) else None, frame)
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
    results = _require_object(raw, "results", where)
    ranking = _require_strings(raw, "ranking", where)

    paths: tuple[str, ...] = ()
    values, utilities = [], {}
    for i, alt in enumerate(alternatives):
        if alt not in results:
            raise ModelFormatError(f"{where}: no results for alternative {alt!r}")
        here = f"{where}: results for {alt!r}"
        entry = results[alt]
        if not isinstance(entry, Mapping):
            raise ModelFormatError(f"{here}: must be an object")
        nodes = _require_object(entry, "nodes", here)
        if not i:
            paths = tuple(nodes)
        elif len(nodes) != len(paths) or not all(p in nodes for p in paths):
            raise ModelFormatError(f"{here}: nodes must name the same paths for every alternative")
        for path in paths:
            values.extend(_node_values(nodes[path], frame, here, path))
        redistributed = _in_frame_order(_require_object(entry, "redistributed", here), frame)
        if redistributed is None:
            raise ModelFormatError(f"{here}: redistributed must give one degree per grade")
        if not _NUMBER_TYPES.issuperset(map(type, redistributed)):
            for d in redistributed:
                _number(d, "redistributed degree", here)  # raises for the first non-number
        values.extend(redistributed)  # one more frame-ordered block of the alternative's row
        utilities[alt] = _number(_require(entry, "utility", here), "utility", here)

    try:
        stacked = np.array(values, dtype=float)
        finite = np.isfinite(stacked).all()
    except OverflowError:  # an integer beyond the double range
        finite = False
    if not finite:
        for alt in alternatives:  # a redistributed degree at fault is named as such
            for d in results[alt]["redistributed"].values():
                _number(d, "redistributed degree", f"{where}: results for {alt!r}")
        raise ModelFormatError(f"{where}: node degrees must be finite doubles")
    grades, per_node = len(frame), len(paths) * (len(frame) + 1)
    stacked = stacked.reshape(len(alternatives), per_node + grades)
    node_rows = stacked[:, :per_node].reshape(len(alternatives), len(paths), grades + 1)
    try:
        return ResultDocument(
            algorithm=algorithm,
            frame=frame,
            alternatives=alternatives,
            paths=paths,
            assigned=node_rows[:, :, :grades].transpose(1, 0, 2),
            unassigned=node_rows[:, :, grades].T,
            redistributed=stacked[:, per_node:],
            utilities=utilities,
            ranking=ranking,
            traces=raw.get("traces"),
        )
    except ValueError as exc:  # the checks ResultDocument makes of itself
        raise ModelFormatError(f"{where}: {exc}") from exc


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
        headers = ["Alternative", *doc.frame, UNASSIGNED]
        rows = [
            [alt, *(f"{d:.4f}" for d in row), f"{u:.4f}"]
            for alt, row, u in zip(doc.alternatives, *doc.root_rows())
        ]
        blocks.append(
            f"Combined assessment ({doc.algorithm})\n" + _table(headers, rows)
        )
    util_headers = ["Algorithm", *(documents[0].alternatives if documents else ())]
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
    """Long-format plot data: one row per algorithm, alternative, and grade.

    Names holding a comma, a quote or a line break are quoted as
    :mod:`csv` quotes them; degrees are written with ``repr``.
    """
    import csv  # only this report needs it, so no other command loads it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("algorithm", "alternative", "grade", "degree"))
    for doc in documents:
        for alt, row, u in zip(doc.alternatives, *doc.root_rows()):
            writer.writerows((doc.algorithm, alt, g, d) for g, d in zip(doc.frame, row))
            writer.writerow((doc.algorithm, alt, UNASSIGNED, u))
    return out.getvalue()
