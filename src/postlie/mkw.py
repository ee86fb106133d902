"""The planar (MKW) Hopf algebra: shuffle product with the cut coproduct.

The coproduct is the Munthe-Kaas--Wright recursion on the last tree of a
forest.  For a forest ``w`` followed by the tree ``B+_d(v)``,

    D(w B+_d(v)) = w B+_d(v) (x) 1 + D(w) . (id (x) B+_d) D(v),

where the product of two tensors shuffles the left legs and concatenates
the right legs, and ``D(1) = 1 (x) 1``.  Unfolded, this sums over the
left-admissible cuts of each tree: every root-to-leaf path meets at most one
cut edge and, at each vertex, the cut edges form a leftmost prefix.

This Hopf algebra is the graded dual of the Grossman-Larson one; the
``gl-duality`` suite of :mod:`postlie.verify` checks
``<A * B, x> = <A (x) B, D(x)>`` on graded pieces.
"""

from __future__ import annotations

from .forest import FOREST_ONE, OrderedForest, b_minus, b_plus, forest, single
from .lincomb import LinComb, Tensor, _concat_product, shuffle_words
from .memo import memo


@memo
def mkw_coproduct_forest(f: OrderedForest) -> Tensor:
    if f.is_empty:
        return Tensor.basis((FOREST_ONE, FOREST_ONE))
    last = f.trees[-1]
    grown = mkw_coproduct_forest(b_minus(last)).apply_linear(
        1, lambda v: LinComb.basis(single(b_plus(v, last.decoration))))
    return (mkw_coproduct_forest(forest(f.trees[:-1])).legwise(
        grown, shuffle_words, _concat_product)
        + Tensor.basis((f, FOREST_ONE)))


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
    """D(x) - x (x) 1 - 1 (x) x; a unit component raises ``ValueError``."""
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

