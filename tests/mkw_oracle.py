"""Reference MKW coproduct: the enumeration of left-admissible cuts.

This is the coproduct of ``postlie.mkw`` as it stood before it became the
Munthe-Kaas--Wright recursion on the last tree, kept verbatim below this
header as the oracle for ``tests/test_mkw_oracle.py``.  A tree's coproduct
sums over its cuts by recursive descent: at each trunk vertex choose a
prefix length ``p``; the first ``p`` subtrees are pruned whole and the
recursion continues into the remaining children only.  The pruned subtrees
cut at one vertex stay concatenated in their planar order; groups cut at
different vertices are shuffled together.  The tensor ``pruned (x) trunk``
is summed over all cuts, plus the extreme term ``tree (x) 1``.  Forests are
grafted onto a reserved root:
``D(w) = (id (x) B-)(D(B+(w)) - B+(w) (x) 1)``; the reserved root is
``_``, a decoration token that no test alphabet uses (trees refuse a
decoration that is not a token).  Its caches are
``functools.cache``, so they stay out of the library's memo registry.
"""

from __future__ import annotations

from functools import cache as memo

from postlie.forest import (FOREST_ONE, OrderedForest, PlanarTree, b_minus,
                            forest, single, tree)
from postlie.lincomb import LinComb, Tensor, shuffle

_RESERVED = "_"

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
