"""Natural growth on planar forests and the primitive-element machinery.

The growth operation ``x T y`` grafts all roots of ``x`` onto a single vertex
of ``y``, shuffling the arriving block with that vertex's existing children,
then averages over the choice of vertex.  Summed over the vertices before
that division, growth ``G(A, W)`` is one recursion on the word ``W``:

    G(A, 1) = 0,
    G(A, B+_d(v) W') = B+_d(A sh v + G(A, v)) W' + B+_d(v) G(A, W'),

whose three terms graft onto the root of the first tree (the block ``A``
shuffled with its children ``v``), onto a vertex below that root, and onto
a vertex of a later tree; then ``x T y = G(x, y) / |y|``.  No vertex is
numbered, and a term builds new nodes only on the path from a root to its
vertex.  The nonplanar growth of ``bck`` is the same recursion with a
commutative join in place of the shuffle.  Against the cut coproduct
growth satisfies

    reduced(x T y) = x (x) y + x^(1) (x) (x^(2) T y)

whenever ``y`` is primitive, which makes the iterated fold

    fold(p_k, ..., p_1) = (...(p_k T p_(k-1)) T ...) T p_1

behave like word concatenation: the reduced coproduct deconcatenates folds.
Everything else here rides on that fact: the projection onto primitives, the
fold decomposition witnessing cofreeness, primitive-space bases, the interval
comodules, and the classification of coalgebra endomorphisms by their action
on primitives.

Leg order ties tensors to folds throughout: leg 0 is the outermost (leftmost)
fold factor, and iterating the reduced coproduct peels legs off in the same
order.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .forest import (FOREST_ONE, OrderedForest, _canon_alphabet,
                     enumerate_forests, forest, tree)
from .lincomb import LinComb, Tensor, _shuffle_words, tensor_of
from .linalg import kernel_basis, rank
from .memo import memo
from .mkw import reduced_coproduct, reduced_coproduct_forest


def _grow_words(a: tuple, w: tuple, join, node) -> dict:
    # G(A, W) on plain tuples of trees, with integer multiplicities, for A
    # not empty.  The recursion on W' runs as a loop over positions: the
    # tree B+_d(v) at position i grows at its root (A join v) or below it.
    out: dict = {}
    for i, t in enumerate(w):
        kids = t.children
        grown = join(a, kids)
        if kids:
            grown = {**grown, **_grow_words(a, kids, join, node)}
        for k, m in grown.items():
            key = w[:i] + (node(t.decoration, k),) + w[i + 1:]
            out[key] = out.get(key, 0) + m
    return out


@memo
def _growth_forests(w1: OrderedForest, w2: OrderedForest) -> LinComb:
    if w2.is_empty:
        return LinComb.zero()
    if w1.is_empty:
        return LinComb.basis(w2)
    terms = _grow_words(w1.trees, w2.trees, _shuffle_words, tree)
    # Integer counts over one shared denominator |w2|.
    return LinComb._make({forest(f): m for f, m in terms.items()}, w2.degree)


def natural_growth(x: LinComb, y: LinComb) -> LinComb:
    """Graft the roots of x onto one vertex of y, averaged over vertices.

    The grafted block is shuffled with the target vertex's children.  The
    empty forest acts as identity on the left and absorbs to zero on the
    right.
    """
    return x.map_pairs(y, _growth_forests)


def growth_fold(factors: Sequence[LinComb]) -> LinComb:
    """Left-nested growth fold; the first factor is outermost."""
    if not factors:
        return LinComb.basis(FOREST_ONE)
    return reduce(natural_growth, factors)


@memo
def _fold_key(key: tuple) -> LinComb:
    # The same left fold on basis elements.  It reduces with natural_growth
    # rather than calling growth_fold, so a fault in the public fold shows up
    # apart from the fold of tensors.
    return reduce(natural_growth, map(LinComb.basis, key))


def fold_tensor(t: Tensor) -> LinComb:
    """Growth fold applied legwise to a tensor, leg 0 outermost."""
    return t.map_basis(_fold_key)


def is_primitive(x: LinComb) -> bool:
    if x.is_zero:
        return True
    if x.coeff(FOREST_ONE):
        return False
    return reduced_coproduct(x).is_zero


@memo
def _pi_forest(f: OrderedForest) -> LinComb:
    if f.is_empty:
        return LinComb.zero()
    return LinComb.basis(f) - reduced_coproduct_forest(f).map_basis(
        lambda key: natural_growth(LinComb.basis(key[0]), _pi_forest(key[1])))


def primitive_projection(x: LinComb) -> LinComb:
    """Projection onto primitives: pi(x) = x - x^(1) T pi(x^(2)).

    Constants project to zero.  Single trees of degree two or more also
    vanish, since any such tree is itself a growth onto a one-vertex tree.
    """
    return x.map_basis(_pi_forest)


def primitive_degree(x: LinComb) -> int:
    """Number of fold factors needed to express x; 0 for constants."""
    if x.coeff(FOREST_ONE):
        if len(x) == 1:
            return 0
        raise ValueError("mixed constant and augmentation-ideal components")
    return max(f_decompose(x), default=0)


def f_decompose(x: LinComb) -> dict[int, Tensor]:
    """Split x into levels: x = sum over k of fold_tensor(levels[k]).

    Expanding pi(x) = x - x^(1) T pi(x^(2)) on its left leg gives every level
    in closed form: levels[k] is pi applied to each of the k legs of the
    (k-1)-fold reduced coproduct of x, iterated on leg 0.  One pass lifts x
    to a one-leg tensor and splits leg 0 until the tensor vanishes, which it
    does because each split lowers the degree of leg 0.  Zero levels are
    dropped and the rest returned top level first.  Raises ValueError on a
    constant component.
    """
    if x.coeff(FOREST_ONE):
        raise ValueError("constants have no fold decomposition")
    levels: dict[int, Tensor] = {}
    t = tensor_of(x)
    while not t.is_zero:
        level = t
        for leg in range(t.arity):
            level = level.apply_linear(leg, _pi_forest)
        if not level.is_zero:
            levels[t.arity] = level
        t = t.apply_coproduct(0, reduced_coproduct_forest)
    return dict(reversed(levels.items()))


def f_recompose(levels: Mapping[int, Tensor]) -> LinComb:
    out = LinComb.zero()
    for t in levels.values():
        out = out + fold_tensor(t)
    return out


def primitive_basis(n: int, alphabet: Iterable[str]) -> tuple[LinComb, ...]:
    """Basis of the primitive subspace in homogeneous degree n.

    Computed as the kernel of the reduced coproduct on the span of all
    degree-n forests; the coordinate order follows the canonical forest
    enumeration, so the result is deterministic.
    """
    return _primitive_basis(n, _canon_alphabet(alphabet))


@memo
def _primitive_basis(n: int, alphabet: tuple[str, ...]) -> tuple[LinComb, ...]:
    if n <= 0:
        return ()
    return kernel_basis(enumerate_forests(n, alphabet), reduced_coproduct_forest)


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Every ordered splitting of n into positive parts; ``()`` for 0."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def comodule_coaction(n: int, family: Mapping[tuple[int, int], LinComb]) -> list[dict[int, LinComb]]:
    """Coaction rows of the comodule built from a triangular primitive family.

    ``family`` maps (i, j) with 1 <= i <= j <= n to primitive elements.  Row i
    of the result sends basis vector i to ``sum_j row[i][j] (x) e_j``: the
    coefficient of e_j collects, over every splitting of [j+1..i] into
    consecutive blocks, the growth fold of the blocks' primitives taken from
    the last block outward.
    """
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            p = family.get((i, j))
            if p is None:
                raise ValueError(f"family is missing entry {(i, j)}")
            if not is_primitive(p):
                raise ValueError(f"family entry {(i, j)} is not primitive")
    rows: list = []
    for i in range(n + 1):
        row = {i: LinComb.basis(FOREST_ONE)}
        for j in range(i):
            total = LinComb.zero()
            for comp in compositions(i - j):
                blocks = [(j + e - a + 1, j + e)
                          for a, e in zip(comp, accumulate(comp))]
                total = total + growth_fold([family[b] for b in reversed(blocks)])
            if not total.is_zero:
                row[j] = total
        rows.append(row)
    return rows


def coalgebra_endomorphism(u: Mapping[int, Callable[[Tensor], LinComb]],
                           x: LinComb) -> LinComb:
    """Apply the coalgebra endomorphism classified by the family ``u``.

    ``u[a]`` eats a tensor of ``a`` primitive legs and returns a primitive;
    missing arities act as zero.  Level k of the fold decomposition is mapped
    by summing, over all splittings of its legs into consecutive blocks, the
    fold of the blockwise images.  The result is bijective exactly when
    ``u[1]`` is invertible on primitives.
    """
    out = x.coeff(FOREST_ONE) * LinComb.basis(FOREST_ONE)
    for nlevel, t in f_decompose(x - out).items():
        for comp in compositions(nlevel):
            if any(a not in u for a in comp):
                continue
            ends = tuple(accumulate(comp))
            out = out + t.map_basis(lambda key: fold_tensor(tensor_of(
                *(u[a](Tensor.basis(key[e - a:e])) for a, e in zip(comp, ends)))))
    return out


def u1_rank_by_degree(u1: Callable[[Tensor], LinComb], maxdeg: int,
                      alphabet: Iterable[str]) -> dict[int, tuple[int, int]]:
    """(rank, dimension) of a degree-preserving arity-one map on primitives.

    Raises ValueError if the map moves a primitive out of its degree, since
    per-degree ranks then say nothing about bijectivity.
    """
    alphabet = tuple(alphabet)
    out: dict = {}
    for d in range(1, maxdeg + 1):
        basis = primitive_basis(d, alphabet)
        images = [u1(tensor_of(p)) for p in basis]
        if any(f.degree != d for img in images for f in img.support()):
            raise ValueError("arity-one map does not preserve degree")
        out[d] = (rank(images), len(basis))
    return out
