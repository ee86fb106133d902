"""Reference vertex surgery: one preorder index per vertex, one rebuild per term.

This is natural growth (planar, from ``postlie.growth``, and nonplanar, from
``postlie.bck``) as it stood before it became a structural recursion, and
the deformed unit raise and letter graft that ``postlie.regstruct`` once
ran by vertex surgery and now gets from the Guin-Oudom recursion on the
right operand (``reg_raise`` is the product ``X^l * t``; ``reg_graft`` of
a planted letter into ``plant(b, s)`` plants the product with ``s``).  The
kernels are kept verbatim below this header as the oracle for
``tests/test_growth_oracle.py``, together with the by-index raise
``raise_at`` and its preorder walker ``_map_vertex``, which the library
no longer has.  Each kernel numbers the vertices of the right operand in
depth-first preorder and rebuilds the whole tree once per vertex and term,
through a mutable counter.  Its caches are ``functools.cache``, so they
stay out of the library's memo registry.
"""

from __future__ import annotations

from functools import cache as memo
from itertools import product as iproduct
from typing import Iterator

from postlie.bck import np_forest, np_of_forest, np_of_tree
from postlie.forest import OrderedForest, PlanarTree, forest, tree
from postlie.lincomb import LinComb, _shuffle_words
from postlie.regstruct import (MultiIndex, RegTree, mi_add, mi_binom, mi_sub,
                               mi_unit, plant, reg_tree)


# -- planar growth (postlie.growth) -----------------------------------------

def _vertex_children(f: OrderedForest) -> list[tuple[PlanarTree, ...]]:
    # Children tuples in depth-first preorder, matching _replace_at numbering.
    out: list = []

    def walk(t: PlanarTree) -> None:
        out.append(t.children)
        for c in t.children:
            walk(c)

    for t in f.trees:
        walk(t)
    return out


def _replace_at(t: PlanarTree, target: int, newkids: tuple, counter: list) -> PlanarTree:
    my = counter[0]
    counter[0] += 1
    if my == target:
        return tree(t.decoration, newkids)
    return tree(t.decoration, tuple(_replace_at(c, target, newkids, counter)
                                    for c in t.children))


@memo
def _growth_forests(w1: OrderedForest, w2: OrderedForest) -> LinComb:
    if w2.is_empty:
        return LinComb.zero()
    if w1.is_empty:
        return LinComb.basis(w2)
    acc: dict = {}
    for vi, existing in enumerate(_vertex_children(w2)):
        for newkids, mult in _shuffle_words(w1.trees, existing).items():
            counter = [0]
            rebuilt = forest(_replace_at(t, vi, newkids, counter)
                             for t in w2.trees)
            acc[rebuilt] = acc.get(rebuilt, 0) + mult
    # Integer counts over one shared denominator |w2|.
    return LinComb._make(acc, w2.degree)


# -- nonplanar growth (postlie.bck) -----------------------------------------

@memo
def _np_growth_forests(w1: OrderedForest, w2: OrderedForest) -> LinComb:
    if w2.is_empty:
        return LinComb.zero()
    if w1.is_empty:
        return LinComb.basis(np_of_forest(w2))
    acc: dict = {}
    for vi, existing in enumerate(_vertex_children(w2)):
        kids = existing + w1.trees
        counter = [0]
        rebuilt = np_forest(np_of_tree(_replace_at(t, vi, kids, counter))
                            for t in w2.trees)
        acc[rebuilt] = acc.get(rebuilt, 0) + 1
    return LinComb._make(acc, w2.degree)


# -- deformed raise and letter graft (postlie.regstruct) --------------------

def vertex_count(t: RegTree) -> int:
    return 1 + sum(vertex_count(sub) for _, sub in t.edges)


def _map_vertex(node: RegTree, target: int, fn, idx: int = 0):
    # fn(dec, edges) -> (dec, edges), applied at the preorder target vertex.
    my = idx
    idx += 1
    kids = []
    for a, sub in node.edges:
        ns, idx = _map_vertex(sub, target, fn, idx)
        kids.append((a, ns))
    dec, eds = node.dec, tuple(kids)
    if my == target:
        dec, eds = fn(dec, eds)
    return reg_tree(dec, eds), idx


def raise_at(t: RegTree, v: int, l: MultiIndex) -> RegTree:
    """Add ``l`` to the decoration of preorder vertex ``v``."""
    l = tuple(int(a) for a in l)
    if len(l) != t.dim:
        raise ValueError("raise amount has the wrong dimension")
    if any(a < 0 for a in l):
        raise ValueError("raise amount must be componentwise nonnegative")
    out, count = _map_vertex(t, v, lambda dec, eds: (mi_add(dec, l), eds))
    if not 0 <= v < count:
        raise ValueError(f"vertex index {v} out of range")
    return out


def _preorder_decs(t: RegTree) -> Iterator[MultiIndex]:
    """Vertex decorations in depth-first preorder (root first)."""
    yield t.dec
    for _, sub in t.edges:
        yield from _preorder_decs(sub)


def _raise_unit(t: RegTree, j: int) -> LinComb:
    e = mi_unit(t.dim, j)
    return LinComb.from_terms(
        (raise_at(t, v, e), 1) for v in range(vertex_count(t)))


def _graft_letters(t1: RegTree, t2: RegTree) -> LinComb:
    # Both arguments are single letters; t2 is not the unit.
    if not t2.edges:
        return LinComb.zero()
    b, sigma = t2.edges[0]
    if not t1.edges:
        j = next(k for k, a in enumerate(t1.dec) if a)
        e = mi_unit(t1.dim, j)
        return LinComb.from_terms(
            (plant(b, raise_at(sigma, v, e)), 1)
            for v in range(vertex_count(sigma)))
    a, tau = t1.edges[0]
    acc: dict = {}
    for v, nv in enumerate(_preorder_decs(sigma)):
        for l in iproduct(*[range(min(p, q) + 1) for p, q in zip(nv, a)]):
            w = mi_binom(nv, l)
            na = mi_sub(a, l)
            attached, _ = _map_vertex(
                sigma, v,
                lambda dec, eds: (mi_sub(dec, l), ((na, tau),) + eds))
            planted = plant(b, attached)
            acc[planted] = acc.get(planted, 0) + w
    return LinComb._make(acc)
