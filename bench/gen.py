"""Seeded model documents for the benchmark.

Two shapes are generated:

* a *wide* model: ``grades`` grades, every general node has ``branching``
  children, leaves sit ``depth`` levels below the root, and every leaf
  assesses ``alternatives`` alternatives;
* a *chain*: every general node has one leaf child and one general child,
  down to ``levels`` tree levels, with the last general node holding two
  leaves.

A model is returned both as a plain tree of dicts (what the oracle walks)
and as JSON text.  The text is written directly, without ``json.dumps``,
because the stdlib encoder recurses once per nesting level and every tree
level is two nesting levels (the node object and its ``children`` array).

Sibling importances sum to one.  Reliabilities sit on the leaves only, so
``derive_reliabilities`` has to fill in every general node.  Degrees are
written with four decimals, as elicited assessments usually are; some
assessments are incomplete, none assigns more than a total of one.
"""

from __future__ import annotations

import random

FIVE_GRADES = ("poor", "indifferent", "average", "good", "excellent")

#: Belief degrees are drawn in units of 1/DEGREE_UNITS.
DEGREE_UNITS = 10_000


def frame_of(grades: int) -> tuple[str, ...]:
    if grades == len(FIVE_GRADES):
        return FIVE_GRADES
    return tuple(f"g{i}" for i in range(grades))


def alternatives_of(count: int) -> tuple[str, ...]:
    width = len(str(count))
    return tuple(f"alt{i:0{width}d}" for i in range(count))


def _assessment(rng: random.Random, frame: tuple[str, ...]) -> dict[str, float]:
    """One distributed assessment on 1-3 grades; a third are incomplete."""
    support = sorted(rng.sample(range(len(frame)), rng.randint(1, min(3, len(frame)))))
    total = DEGREE_UNITS if rng.random() < 2 / 3 else rng.randint(DEGREE_UNITS // 2, DEGREE_UNITS - 1)
    cuts = sorted(rng.randint(0, total) for _ in range(len(support) - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return {frame[g]: units / DEGREE_UNITS for g, units in zip(support, parts) if units}


def _importances(rng: random.Random, count: int) -> list[float]:
    raw = [rng.uniform(0.5, 1.5) for _ in range(count)]
    total = sum(raw)
    return [r / total for r in raw]


def _leaf(rng, name, importance, frame, alternatives) -> dict:
    return {
        "name": name,
        "importance": importance,
        "reliability": round(rng.uniform(0.3, 0.95), 4),
        "assessments": {alt: _assessment(rng, frame) for alt in alternatives},
    }


def wide_model(seed: int, grades: int, branching: int, depth: int, alternatives: int) -> dict:
    """Balanced tree: ``branching**depth`` leaves under ``depth`` general levels."""
    rng = random.Random(f"wide:{seed}:{grades}:{branching}:{depth}:{alternatives}")
    frame = frame_of(grades)
    alts = alternatives_of(alternatives)

    def build(name: str, importance: float | None, level: int) -> dict:
        if level == depth:
            return _leaf(rng, name, importance, frame, alts)
        node = {"name": name} if importance is None else {"name": name, "importance": importance}
        weights = _importances(rng, branching)
        node["children"] = [build(f"{name}.{i}", w, level + 1) for i, w in enumerate(weights)]
        return node

    return _document(frame, alts, build("n", None, 0))


def chain_model(seed: int, levels: int, alternatives: int = 4, grades: int = 5) -> dict:
    """Two-child chain ``levels`` tree levels deep (``levels - 1`` general nodes)."""
    if levels < 2:
        raise ValueError("a chain needs at least two levels")
    rng = random.Random(f"chain:{seed}:{levels}:{alternatives}:{grades}")
    frame = frame_of(grades)
    alts = alternatives_of(alternatives)
    root = {"name": "c0"}
    node = root
    for level in range(1, levels):
        weights = _importances(rng, 2)
        leaf = _leaf(rng, f"leaf{level}", weights[0], frame, alts)
        if level == levels - 1:
            below = _leaf(rng, f"last{level}", weights[1], frame, alts)
        else:
            below = {"name": f"c{level}", "importance": weights[1]}
        node["children"] = [leaf, below]
        node = below
    return _document(frame, alts, root)


def _document(frame, alternatives, tree) -> dict:
    return {
        "schema": "er-model/1",
        "frame": list(frame),
        "alternatives": list(alternatives),
        "tree": tree,
    }


def _scalar(value) -> str:
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return repr(value)


def _flat(mapping: dict) -> str:
    return "{" + ", ".join(f"{_scalar(k)}: {_scalar(v)}" for k, v in mapping.items()) + "}"


def to_json(doc: dict) -> str:
    """Serialize a generated document; iterative, so any depth works."""
    head = (
        f'{{"schema": {_scalar(doc["schema"])},\n'
        f'"frame": [{", ".join(map(_scalar, doc["frame"]))}],\n'
        f'"alternatives": [{", ".join(map(_scalar, doc["alternatives"]))}],\n'
        '"tree": '
    )
    out = [head]
    # Stack entries are either a node still to open or a literal to emit.
    stack: list = [doc["tree"]]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        fields = [f'"name": {_scalar(item["name"])}']
        for key in ("importance", "reliability", "weight"):
            if key in item:
                fields.append(f'"{key}": {_scalar(item[key])}')
        if "assessments" in item:
            rows = ",\n".join(
                f"{_scalar(alt)}: {_flat(degrees)}" for alt, degrees in item["assessments"].items()
            )
            out.append("{" + ", ".join(fields) + ', "assessments": {\n' + rows + "}}")
            continue
        out.append("{" + ", ".join(fields) + ', "children": [\n')
        children = item["children"]
        stack.append("]}")
        for i, child in enumerate(reversed(children)):
            stack.append(child)
            if i < len(children) - 1:
                stack.append(",\n")
    out.append("}\n")
    return "".join(out)
