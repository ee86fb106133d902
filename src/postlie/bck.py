"""Nonplanar rooted forests: the commutative counterpart of the planar theory.

Children carry no order here, so a nonplanar forest is stored as its
canonical planar forest: every child tuple and the word of trees are sorted
by ``(degree, text)``.  Canonical forests are ordinary interned
``OrderedForest`` values, so equal shapes are the same object, render as the
same text and key the same memo entries; the product is commutative.  The
product, coproduct, antipode and projection read their operands through
``forget_planarity``, so a planar forest gives the result of its shape.
The coproduct is the admissible-cut one, the MKW recursion on the last tree
(``B-`` cuts its root off, ``B+`` puts it back) with the commutative
product on both legs:

    coproduct(w t) = coproduct(w) . (t (x) 1 + (id (x) B+)(coproduct(B- t)))

Natural growth grafts all roots of the left argument onto one vertex of the
right, averaged over vertices; no shuffling happens because added children
have no position.  It is the planar growth recursion (``growth._grow_words``)
with the commutative join ``v + A`` in place of the shuffle and ``np_tree``
as the node builder, run on canonical operands; equal result forests are
summed.  The induced projection onto primitives differs visibly from the
planar one: the product of a vertex and a two-vertex ladder projects to
zero here but not planarly.
"""

from __future__ import annotations

from typing import Iterable

from .forest import (FOREST_ONE, ORDER_KEY, OrderedForest, PlanarTree,
                     enumerate_forests, enumerate_trees, forest, parse_forest,
                     tree)
from .growth import _grow_words
from .lincomb import LinComb, Tensor
from .memo import memo


def np_tree(decoration: str, children: Iterable[PlanarTree] = ()) -> PlanarTree:
    """Canonical tree with the given root and canonical children."""
    return tree(decoration, sorted(children, key=ORDER_KEY))


def np_forest(trees: Iterable[PlanarTree]) -> OrderedForest:
    """Canonical forest of the given canonical trees."""
    return forest(sorted(trees, key=ORDER_KEY))


NP_ONE = FOREST_ONE


def np_single(t: PlanarTree) -> OrderedForest:
    return np_forest((t,))


def _np_product(f1: OrderedForest, f2: OrderedForest) -> LinComb:
    """Commutative forest product: multiset union of the trees."""
    return LinComb.basis(np_forest(f1.trees + f2.trees))


def np_bplus(f: OrderedForest, decoration: str) -> PlanarTree:
    return np_tree(decoration, f.trees)


def np_bminus(t: PlanarTree) -> OrderedForest:
    return np_forest(t.children)


@memo
def np_of_tree(t: PlanarTree) -> PlanarTree:
    """Canonical representative of a planar tree's unordered shape."""
    return np_tree(t.decoration, map(np_of_tree, t.children))


def np_of_forest(f: OrderedForest) -> OrderedForest:
    return np_forest(map(np_of_tree, f.trees))


def _np_basis(f: OrderedForest) -> LinComb:
    return LinComb.basis(np_of_forest(f))


def forget_planarity(x: LinComb) -> LinComb:
    """Linear map sending each planar forest to its unordered shape."""
    return x.map_basis(_np_basis)


def np_parse(text: str, alphabet: Iterable[str] | None = None) -> OrderedForest:
    return np_of_forest(parse_forest(text, alphabet=alphabet))


def np_mul(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear commutative forest product of the operands' shapes."""
    return forget_planarity(x).map_pairs(forget_planarity(y), _np_product)


@memo
def bck_coproduct_forest(f: OrderedForest) -> Tensor:
    if f.is_empty:
        return Tensor.basis((NP_ONE, NP_ONE))
    last = f.trees[-1]
    grown = bck_coproduct_forest(np_bminus(last)).apply_linear(
        1, lambda r: LinComb.basis(np_single(np_bplus(r, last.decoration))))
    return bck_coproduct_forest(forest(f.trees[:-1])).legwise(
        grown + Tensor.basis((np_single(last), NP_ONE)), _np_product)


def bck_coproduct(x: LinComb) -> Tensor:
    return forget_planarity(x).apply_coproduct(bck_coproduct_forest)


def bck_reduced_forest(f: OrderedForest) -> Tensor:
    if f.is_empty:
        raise ValueError("reduced coproduct of the unit is undefined")
    return (bck_coproduct_forest(f)
            - Tensor.basis((f, NP_ONE))
            - Tensor.basis((NP_ONE, f)))


def bck_reduced(x: LinComb) -> Tensor:
    if x.coeff(NP_ONE):
        raise ValueError("reduced coproduct needs an augmentation-ideal element")
    return forget_planarity(x).apply_coproduct(bck_reduced_forest)


@memo
def _bck_antipode_forest(f: OrderedForest) -> LinComb:
    if f.is_empty:
        return LinComb.basis(NP_ONE)
    return -(LinComb.basis(f) + bck_reduced_forest(f).contract(
        _bck_antipode_forest, LinComb.basis, _np_product))


def bck_antipode(x: LinComb) -> LinComb:
    return forget_planarity(x).map_basis(_bck_antipode_forest)


@memo
def _np_growth_forests(w1: OrderedForest, w2: OrderedForest) -> LinComb:
    if w2.is_empty:
        return LinComb.zero()
    if w1.is_empty:
        return LinComb.basis(np_of_forest(w2))
    acc: dict = {}
    for f, m in _grow_words(np_of_forest(w1).trees, np_of_forest(w2).trees,
                            lambda a, v: {v + a: 1}, np_tree).items():
        key = np_forest(f)
        acc[key] = acc.get(key, 0) + m
    return LinComb._make(acc, w2.degree)


def bck_natural_growth(x: LinComb, y: LinComb) -> LinComb:
    """Graft all roots of x onto one vertex of y, averaged over vertices."""
    return x.map_pairs(y, _np_growth_forests)


def bck_is_primitive(x: LinComb) -> bool:
    if x.is_zero:
        return True
    if x.coeff(NP_ONE):
        return False
    return bck_reduced(x).is_zero


@memo
def _np_pi_forest(f: OrderedForest) -> LinComb:
    if f.is_empty:
        return LinComb.zero()
    return LinComb.basis(f) - bck_reduced_forest(f).map_basis(
        lambda key: bck_natural_growth(LinComb.basis(key[0]), _np_pi_forest(key[1])))


def bck_primitive_projection(x: LinComb) -> LinComb:
    """Same recursion as the planar projection, run in the commutative theory."""
    return forget_planarity(x).map_basis(_np_pi_forest)


def enumerate_np_trees(n: int, alphabet: Iterable[str]) -> tuple[PlanarTree, ...]:
    """All nonplanar trees with n vertices, in (degree, text) order."""
    return tuple(sorted(set(map(np_of_tree, enumerate_trees(n, alphabet))),
                        key=ORDER_KEY))


def enumerate_np_forests(n: int, alphabet: Iterable[str]) -> tuple[OrderedForest, ...]:
    """All nonplanar forests of total degree n, in (degree, text) order."""
    return tuple(sorted(set(map(np_of_forest, enumerate_forests(n, alphabet))),
                        key=ORDER_KEY))
