"""The planar (MKW) Hopf algebra: shuffle product with the cut coproduct.

The coproduct of a tree sums over left-admissible cuts: a set of edges such
that every root-to-leaf path meets at most one cut edge and, at each vertex,
the cut edges form a leftmost prefix of the outgoing edges.  Enumeration is
by recursive descent: at each trunk vertex choose a prefix length ``p``; the
first ``p`` subtrees are pruned whole and the recursion continues into the
remaining children only.  The pruned subtrees cut at one vertex stay
concatenated in their planar order; groups cut at different vertices are
shuffled together.  The tensor ``pruned (x) trunk`` is summed over all cuts,
plus the extreme term ``tree (x) 1``.

Forest coproducts reduce to the tree case by grafting onto a reserved root:
``D(w) = (id (x) B-)(D(B+(w)) - B+(w) (x) 1)``.

This Hopf algebra is the graded dual of the Grossman-Larson one; the
``duality_failures`` sweep checks ``<A * B, x> = <A (x) B, D(x)>`` on graded
pieces and is the main cross-validation between the two modules.
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterable

from .forest import (FOREST_ONE, OrderedForest, PlanarTree, b_minus,
                     enumerate_forests, forest, single, tree)
from .grafting import gl_forests
from .lincomb import (LinComb, Tensor, duality_mismatches, shuffle,
                      shuffle_words)
from .memo import memo

_RESERVED = "\x00"

# (pruned groups, trunk) pairs per tree; groups are forests cut at distinct
# vertices, to be shuffled together.
@memo
def _cut_configs(t: PlanarTree) -> tuple[tuple[tuple[OrderedForest, ...], PlanarTree], ...]:
    kids = t.children
    out: list[tuple[tuple[OrderedForest, ...], PlanarTree]] = []
    for p in range(len(kids) + 1):
        pruned_here = forest(kids[:p])
        combos: list[tuple[list[OrderedForest], list[PlanarTree]]] = [([], [])]
        for child in kids[p:]:
            nxt = []
            for groups, trunk_kids in combos:
                for g2, trunk_child in _cut_configs(child):
                    nxt.append((groups + list(g2), trunk_kids + [trunk_child]))
            combos = nxt
        for groups, trunk_kids in combos:
            all_groups = ([pruned_here] if p else []) + groups
            out.append((tuple(all_groups), tree(t.decoration, trunk_kids)))
    return tuple(out)


@memo
def mkw_coproduct_tree(t: PlanarTree) -> Tensor:
    acc: dict = {}
    for groups, trunk in _cut_configs(t):
        left = LinComb.basis(FOREST_ONE)
        for g in groups:
            left = shuffle(left, LinComb.basis(g))
        for f, m in left.items():
            key = (f, single(trunk))
            acc[key] = acc.get(key, 0) + m
    acc[(single(t), FOREST_ONE)] = 1  # the only term with an empty trunk
    return Tensor._make(2, acc)


def _b_minus(f: OrderedForest) -> LinComb:
    return LinComb.basis(b_minus(f.trees[0]))


@memo
def mkw_coproduct_forest(f: OrderedForest) -> Tensor:
    if f.is_empty:
        return Tensor.basis((FOREST_ONE, FOREST_ONE))
    if len(f) == 1:
        return mkw_coproduct_tree(f.trees[0])
    big = tree(_RESERVED, f.trees)
    return (mkw_coproduct_tree(big) - Tensor.basis((single(big), FOREST_ONE))
            ).apply_linear(1, _b_minus)


def mkw_coproduct(x: LinComb | OrderedForest) -> Tensor:
    if isinstance(x, OrderedForest):
        return mkw_coproduct_forest(x)
    return x.apply_coproduct(mkw_coproduct_forest)


@memo
def reduced_coproduct_forest(f: OrderedForest) -> Tensor:
    """Reduced coproduct of a nonempty basis forest."""
    if f.is_empty:
        raise ValueError("reduced coproduct of the unit is undefined")
    return (mkw_coproduct_forest(f)
            - Tensor.basis((f, FOREST_ONE))
            - Tensor.basis((FOREST_ONE, f)))


def reduced_coproduct(x: LinComb) -> Tensor:
    """D(x) - x (x) 1 - 1 (x) x; a unit component is dropped with a warning."""
    if x.coeff(FOREST_ONE):
        warnings.warn("reduced coproduct: dropping unit component", stacklevel=2)
        x = x - x.coeff(FOREST_ONE) * LinComb.basis(FOREST_ONE)
    return x.apply_coproduct(reduced_coproduct_forest)


def iterated_reduced(x: LinComb, k: int) -> Tensor:
    """k-fold reduced coproduct, landing in k+1 tensor legs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = reduced_coproduct(x)
    for _ in range(k - 1):
        out = out.apply_coproduct(0, reduced_coproduct_forest)
    return out


@memo
def _antipode_forest(f: OrderedForest) -> LinComb:
    if f.is_empty:
        return LinComb.basis(FOREST_ONE)
    return -(LinComb.basis(f) + reduced_coproduct_forest(f).contract(
        _antipode_forest, LinComb.basis, shuffle_words))


def mkw_antipode(x: LinComb) -> LinComb:
    """Antipode of the MKW Hopf algebra: S(x) = -x - S(x^(1)) sh x^(2)."""
    return x.map_basis(_antipode_forest)


def duality_failures(maxdeg: int, alphabet: Iterable[str],
                     coproduct: Callable[[OrderedForest], Tensor] | None = None,
                     ) -> list[tuple[OrderedForest, OrderedForest, OrderedForest]]:
    """Witnesses (A, B, x) with <A * B, x> != <A (x) B, D(x)>: per degree,
    the support of ``D(x)`` minus the `graded_transpose` of the product."""
    cop = coproduct or mkw_coproduct_forest
    alpha = tuple(sorted(set(alphabet)))
    return [(a, b, x)
            for n in range(maxdeg + 1)
            for x, a, b, _, _ in duality_mismatches(
                n, lambda i: enumerate_forests(i, alpha), gl_forests, cop)]
