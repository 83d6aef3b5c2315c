"""The independent oracle of the aggregation kernel, built from ``erkit.dst`` alone.

Each scheme discounts every attribute's mass and folds the results:

* ``oer``: reliability discounting by the weight, or by the reliability when
  the weight is ``None``; folded by Dempster's rule.
* ``mer``: importance discounting by the weight, or by the importance when
  the weight is ``None``; folded by the extended rule, Omega then folded back.
* ``e2r``: reliability-then-importance discounting by the reliability and the
  importance, the weight unread; folded as ``mer``.

Nothing here calls ``erkit.algorithms`` or ``erkit.hierarchy``: items and
nodes are read only through their attributes.
"""

from functools import reduce

from erkit.dst import (
    MassFunction,
    assessment_to_bba,
    dempster_combine,
    extended_dempster_combine,
    importance_discount,
    normalize_ibba,
    reliability_discount,
    reliability_importance_discount,
)


def discount(scheme: str, mass: MassFunction, weight, reliability, importance) -> MassFunction:
    """``mass`` discounted by the factors ``scheme`` reads from an attribute."""
    if scheme == "oer":
        return reliability_discount(mass, reliability if weight is None else weight)
    if scheme == "mer":
        return importance_discount(mass, importance if weight is None else weight)
    return reliability_importance_discount(mass, reliability, importance)


def combine(scheme: str, parts) -> MassFunction:
    """Discount each (mass, weight, reliability, importance) of ``parts`` and fold them."""
    discounted = [discount(scheme, *part) for part in parts]
    if scheme == "oer":
        return reduce(dempster_combine, discounted)
    return normalize_ibba(reduce(extended_dempster_combine, discounted))


def aggregate(scheme: str, items) -> MassFunction:
    """The oracle's result for flat weighted assessments."""
    return combine(
        scheme,
        [(assessment_to_bba(i.assessment), i.weight, i.reliability, i.importance) for i in items],
    )


def evaluate(scheme: str, root, alternative: str) -> dict[str, MassFunction]:
    """Every node's mass for ``alternative``, keyed by path, walking the tree from ``root``.

    A leaf's assessment is read as a BBA; a general node combines its children
    by their own weight, reliability and importance.
    """
    out = {}

    def visit(node, path):
        if node.is_basic:
            mass = assessment_to_bba(node.assessments[alternative])
        else:
            mass = combine(
                scheme,
                [
                    (visit(c, f"{path}/{c.name}"), c.weight, c.reliability, c.importance)
                    for c in node.children
                ],
            )
        out[path] = mass
        return mass

    visit(root, root.name)
    return out
