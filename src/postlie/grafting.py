"""Left grafting of planar forests and the Grossman-Larson product.

``A < B`` sums over all ways to attach every root of the left forest ``A``
to a vertex of the right forest ``B``.  Each assignment of roots to target
vertices contributes one term: the grafted subtrees arrive as a leftmost
block at their target, keeping their mutual order, in front of the existing
children.  There are ``nv^k`` assignments for ``k`` roots and ``nv``
vertices, but when roots repeat most of them give the same forest.

``graft_forests`` therefore never enumerates assignments.  It runs the
Guin-Oudom recursion over the deshuffle ``A_(1) (x) A_(2)`` of the left
forest,

    1 < W = W,          A < 1 = 0 for A != 1,
    A < B+_d(w) = B+_d(A_(1) . (A_(2) < w)),
    A < (t . W) = (A_(1) < t)(A_(2) < W),

summing over the distinct deshuffle pairs with integer multiplicities and
memoizing ``(A, W)`` within one call.  Its cost follows the number of
distinct intermediate and final terms rather than ``nv^k``; grafting seven
single vertices onto a seven-vertex ladder gives 1,716 terms from 823,543
assignments.

On top of grafting sit the Grossman-Larson product
``A * B = A_(1) . (A_(2) < B)``, the concatenation antipode, and the
Grossman-Larson antipode with its induced inverse of concatenation.
"""

from __future__ import annotations

from fractions import Fraction

from .forest import FOREST_ONE, OrderedForest, forest, tree
from .lincomb import (LinComb, _concat_product, _deshuffle_words, concat,
                      counit, deshuffle_forest)
from .memo import memo


def _graft_words(a: tuple, w: tuple, memo: dict, splits: dict) -> dict:
    # a < w on plain tuples of trees, with integer multiplicities.
    got = memo.get((a, w))
    if got is not None:
        return got
    out: dict = {}
    if not a:
        out[w] = 1
    elif w:
        split = splits.get(a)
        if split is None:
            split = splits[a] = _deshuffle_words(a)
        if len(w) == 1:
            # A < B+_d(v) = B+_d(A_(1) . (A_(2) < v))
            t = w[0]
            for (a1, a2), m in split.items():
                for f, c in _graft_words(a2, t.children, memo, splits).items():
                    key = (tree(t.decoration, a1 + f),)
                    out[key] = out.get(key, 0) + m * c
        else:
            # A < (t . W) = (A_(1) < t)(A_(2) < W)
            head, rest = w[:1], w[1:]
            for (a1, a2), m in split.items():
                right = _graft_words(a2, rest, memo, splits)
                for f1, c1 in _graft_words(a1, head, memo, splits).items():
                    for f2, c2 in right.items():
                        key = f1 + f2
                        out[key] = out.get(key, 0) + m * c1 * c2
    memo[a, w] = out
    return out


@memo
def graft_forests(w1: OrderedForest, w2: OrderedForest) -> LinComb:
    """Left grafting of basis forests through the deshuffle recursion."""
    terms = _graft_words(w1.trees, w2.trees, {}, {})
    return LinComb._adopt({forest(f): c for f, c in terms.items()})


def left_graft(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear left grafting (Guin-Oudom extension on both slots)."""
    return x.map_pairs(y, graft_forests)


@memo
def gl_forests(a: OrderedForest, b: OrderedForest) -> LinComb:
    return deshuffle_forest(a).contract(
        LinComb.basis, lambda a2: graft_forests(a2, b), _concat_product)


def gl_product(x: LinComb, y: LinComb) -> LinComb:
    """Grossman-Larson product A * B = A_(1) . (A_(2) < B)."""
    return x.map_pairs(y, gl_forests)


def _reversal(f: OrderedForest) -> LinComb:
    return LinComb._make({forest(reversed(f.trees)): -1 if len(f) % 2 else 1})


def concat_antipode(x: LinComb) -> LinComb:
    """Antipode of the concatenation/deshuffle Hopf algebra: signed reversal."""
    return x.map_basis(_reversal)


@memo
def _gl_antipode_forest(a: OrderedForest) -> LinComb:
    # S*(a1) < S(a2) over the pairs with two nonempty legs, plus S(a) on the
    # right of `+`, which copies its left operand
    return deshuffle_forest(a).map_basis(
        lambda k: left_graft(_gl_antipode_forest(k[0]),
                             concat_antipode(LinComb.basis(k[1])))
        if k[0] and k[1] else LinComb.zero()) + _reversal(a)


def gl_antipode(x: LinComb) -> LinComb:
    """Antipode of the Grossman-Larson Hopf algebra.

    Satisfies S*(A) = S(A) + S*(A^(1)) < S(A^(2)) over the reduced
    deshuffle, with S the concatenation antipode.
    """
    return x.map_basis(_gl_antipode_forest)


def gl_inverse_product(x: LinComb, y: LinComb) -> LinComb:
    """Recover concatenation from * : A . B = A_(1) * (S*(A_(2)) < B)."""
    return x.map_basis(lambda f: deshuffle_forest(f).contract(
        LinComb.basis, lambda a2: left_graft(_gl_antipode_forest(a2), y),
        gl_forests))


def jacobi_bracket(x: LinComb, y: LinComb) -> LinComb:
    """Post-Lie bracket [x, y] = x < y - y < x + x y - y x."""
    return (left_graft(x, y) - left_graft(y, x)
            + concat(x, y) - concat(y, x))


def gl_exp(x: LinComb, maxdeg: int) -> LinComb:
    """Truncated *-exponential of an augmentation-ideal element."""
    if counit(x):
        raise ValueError("gl_exp needs a series with zero unit component")
    xt = x.truncate(maxdeg)
    out = LinComb.basis(FOREST_ONE)
    term = out
    k = 1
    while True:
        term = gl_product(term, xt).truncate(maxdeg) * Fraction(1, k)
        if term.is_zero:
            break
        out = out + term
        k += 1
    return out
