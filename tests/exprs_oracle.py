"""Reference writers: text and JSON through ``items()``, one value per term.

These are the five writers of ``postlie.exprs`` as they stood before they
read the stored numerators through ``ordered_terms``, kept below this
header as the oracle for ``tests/test_exprs_oracle.py``.  Each sorts
``x.items()`` by ``(degree, text)``, written out rather than read from
``forest.ORDER_KEY``, so a combination with ``den > 1`` hands out one
``Fraction`` per term, and ``_signed_sum`` takes ``abs``, compares and
calls ``str`` on each.  They accept any object with ``items()``, so
``tests/test_lincomb_oracle.py`` renders its reference combinations here.
"""

from __future__ import annotations

from typing import Iterable

from postlie.forest import OrderedForest, forest_to_json
from postlie.lincomb import Coeff, LinComb, Tensor
from postlie.regstruct import RegTree, reg_tree_to_json


def _signed_sum(terms: Iterable[tuple[str, Coeff]]) -> str:
    """``terms``, pairs of body text and nonzero coefficient, as one signed
    sum; ``0`` when there are none."""
    parts: list[str] = []
    for body, c in terms:
        mag = abs(c)
        if mag != 1:
            body = f"{str(mag)}*{body}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts) or "0"


def render_lincomb(x: LinComb) -> str:
    """Canonical text of a linear combination, terms in compare-order."""
    items = sorted(x.items(), key=lambda kv: (kv[0].degree, kv[0].text))
    return _signed_sum((key.text, c) for key, c in items)


def render_tensor(t: Tensor) -> str:
    """Canonical text of a tensor, legs separated by (x)."""
    items = sorted(t.items(), key=lambda kv: tuple(
        (k.degree, k.text) for k in kv[0]))
    return _signed_sum((" (x) ".join(k.text for k in key), c)
                       for key, c in items)


def lincomb_to_json(x: LinComb) -> dict:
    items = sorted(x.items(), key=lambda kv: (kv[0].degree, kv[0].text))
    return {"terms": [{"coeff": str(c), "forest": forest_to_json(f)}
                      for f, c in items]}


def reg_lincomb_to_json(x: LinComb) -> dict:
    items = sorted(x.items(), key=lambda kv: (kv[0].degree, kv[0].text))
    return {"terms": [{"coeff": str(c), "tree": reg_tree_to_json(t)}
                      for t, c in items]}


def _leg_json(key) -> object:
    if isinstance(key, OrderedForest):
        return forest_to_json(key)
    if isinstance(key, RegTree):
        return reg_tree_to_json(key)
    raise TypeError(f"no JSON form for {type(key).__name__}")


def tensor_to_json(t: Tensor) -> dict:
    items = sorted(t.items(), key=lambda kv: tuple(
        (k.degree, k.text) for k in kv[0]))
    return {"terms": [{"coeff": str(c), "legs": [_leg_json(k) for k in key]}
                      for key, c in items]}
