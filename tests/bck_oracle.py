"""Reference nonplanar forests: a tree type and a forest type of their own.

This is ``postlie.bck`` as it stood before nonplanar forests became
canonical planar forests, kept verbatim below this header as the slow oracle
for ``tests/test_bck_oracle.py``: its own interned ``NonplanarTree`` and
``NonplanarForest``, enumeration and vertex surgery.  Its caches are
``functools.cache``, so they stay out of the library's memo registry.
"""

from __future__ import annotations

from functools import cache as memo
from typing import Iterable, Iterator

from postlie.forest import OrderedForest, PlanarTree, parse_forest
from postlie.lincomb import LinComb, Tensor, _add_into


class NonplanarTree:
    """Decorated rooted tree with unordered (canonically sorted) children."""

    __slots__ = ("decoration", "children", "degree", "_hash", "_text")

    def __init__(self, decoration: str, children: tuple, degree: int):
        self.decoration = decoration
        self.children = children
        self.degree = degree
        self._hash: int | None = None
        self._text: str | None = None

    @property
    def text(self) -> str:
        t = self._text
        if t is None:
            t = "[" + self.decoration + "".join(c.text for c in self.children) + "]"
            self._text = t
        return t

    def sort_key(self) -> tuple[int, str]:
        return (self.degree, self.text)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, NonplanarTree):
            return NotImplemented
        return (self.degree == other.degree and self.decoration == other.decoration
                and self.children == other.children)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.decoration, self.children))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"NonplanarTree({self.text!r})"


_NP_TREES: dict = {}


def np_tree(decoration: str, children: Iterable[NonplanarTree] = ()) -> NonplanarTree:
    kids = tuple(sorted(children, key=NonplanarTree.sort_key))
    key = (decoration, kids)
    got = _NP_TREES.get(key)
    if got is None:
        got = NonplanarTree(decoration, kids, 1 + sum(c.degree for c in kids))
        _NP_TREES[key] = got
    return got


class NonplanarForest:
    """Commutative word of nonplanar trees, kept sorted."""

    __slots__ = ("trees", "degree", "_hash", "_text")

    def __init__(self, trees: tuple, degree: int):
        self.trees = trees
        self.degree = degree
        self._hash: int | None = None
        self._text: str | None = None

    @property
    def text(self) -> str:
        t = self._text
        if t is None:
            t = "".join(x.text for x in self.trees) if self.trees else "1"
            self._text = t
        return t

    @property
    def is_empty(self) -> bool:
        return not self.trees

    def sort_key(self) -> tuple[int, str]:
        return (self.degree, self.text)

    def __len__(self) -> int:
        return len(self.trees)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, NonplanarForest):
            return NotImplemented
        return self.degree == other.degree and self.trees == other.trees

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.trees)
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"NonplanarForest({self.text!r})"


_NP_FORESTS: dict = {}


def np_forest(trees: Iterable[NonplanarTree]) -> NonplanarForest:
    ts = tuple(sorted(trees, key=NonplanarTree.sort_key))
    got = _NP_FORESTS.get(ts)
    if got is None:
        got = NonplanarForest(ts, sum(t.degree for t in ts))
        _NP_FORESTS[ts] = got
    return got


NP_ONE = np_forest(())


def np_single(t: NonplanarTree) -> NonplanarForest:
    return np_forest((t,))


def np_word(f1: NonplanarForest, f2: NonplanarForest) -> NonplanarForest:
    """Commutative forest product: multiset union of the trees."""
    return np_forest(f1.trees + f2.trees)


def np_bplus(f: NonplanarForest, decoration: str) -> NonplanarTree:
    return np_tree(decoration, f.trees)


def np_bminus(t: NonplanarTree) -> NonplanarForest:
    return np_forest(t.children)


def np_of_tree(t: PlanarTree) -> NonplanarTree:
    return np_tree(t.decoration, (np_of_tree(c) for c in t.children))


def np_of_forest(f: OrderedForest) -> NonplanarForest:
    return np_forest(np_of_tree(t) for t in f.trees)


def forget_planarity(x: LinComb) -> LinComb:
    """Linear map sending each planar forest to its unordered shape."""
    acc: dict = {}
    for f, c in x.items():
        _add_into(acc, np_of_forest(f), c)
    return LinComb._adopt(acc)


def np_parse(text: str, alphabet: Iterable[str] | None = None) -> NonplanarForest:
    return np_of_forest(parse_forest(text, alphabet=alphabet))


def np_mul(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear commutative forest product."""
    acc: dict = {}
    for f1, c1 in x.items():
        for f2, c2 in y.items():
            _add_into(acc, np_word(f1, f2), c1 * c2)
    return LinComb._adopt(acc)


@memo
def bck_coproduct_tree(t: NonplanarTree) -> Tensor:
    acc: dict = {(np_single(t), NP_ONE): 1}
    for (l, r), c in bck_coproduct_forest(np_forest(t.children)).items():
        _add_into(acc, (l, np_single(np_tree(t.decoration, r.trees))), c)
    return Tensor._adopt(2, acc)


@memo
def bck_coproduct_forest(f: NonplanarForest) -> Tensor:
    acc: dict = {(NP_ONE, NP_ONE): 1}
    for t in f.trees:
        nxt: dict = {}
        for (l1, r1), c1 in acc.items():
            for (l2, r2), c2 in bck_coproduct_tree(t).items():
                _add_into(nxt, (np_word(l1, l2), np_word(r1, r2)), c1 * c2)
        acc = nxt
    return Tensor._adopt(2, acc)


def bck_coproduct(x: LinComb) -> Tensor:
    return x.apply_coproduct(bck_coproduct_forest)


@memo
def bck_reduced_forest(f: NonplanarForest) -> Tensor:
    if f.is_empty:
        raise ValueError("reduced coproduct of the unit is undefined")
    return (bck_coproduct_forest(f)
            - Tensor.basis((f, NP_ONE))
            - Tensor.basis((NP_ONE, f)))


def bck_reduced(x: LinComb) -> Tensor:
    if x.coeff(NP_ONE):
        raise ValueError("reduced coproduct needs an augmentation-ideal element")
    return x.apply_coproduct(bck_reduced_forest)


@memo
def _bck_antipode_forest(f: NonplanarForest) -> LinComb:
    if f.is_empty:
        return LinComb.basis(NP_ONE)
    if len(f.trees) > 1:
        # S is an algebra morphism here since the product is commutative.
        out = LinComb.basis(NP_ONE)
        for t in f.trees:
            out = np_mul(out, _bck_antipode_forest(np_single(t)))
        return out
    acc: dict = {f: -1}
    for (l, r), c in bck_reduced_forest(f).items():
        for f2, c2 in np_mul(_bck_antipode_forest(l), LinComb.basis(r)).items():
            _add_into(acc, f2, -c * c2)
    return LinComb._adopt(acc)


def bck_antipode(x: LinComb) -> LinComb:
    return x.map_basis(_bck_antipode_forest)


def _np_vertex_children(f: NonplanarForest) -> list[tuple]:
    out: list = []

    def walk(t: NonplanarTree) -> None:
        out.append(t.children)
        for c in t.children:
            walk(c)

    for t in f.trees:
        walk(t)
    return out


def _np_replace_at(t: NonplanarTree, target: int, newkids: tuple, counter: list) -> NonplanarTree:
    my = counter[0]
    counter[0] += 1
    if my == target:
        return np_tree(t.decoration, newkids)
    return np_tree(t.decoration, tuple(_np_replace_at(c, target, newkids, counter)
                                       for c in t.children))


@memo
def _np_growth_forests(w1: NonplanarForest, w2: NonplanarForest) -> LinComb:
    if w2.is_empty:
        return LinComb.zero()
    if w1.is_empty:
        return LinComb.basis(w2)
    acc: dict = {}
    for vi, existing in enumerate(_np_vertex_children(w2)):
        counter = [0]
        rebuilt = np_forest(_np_replace_at(t, vi, existing + w1.trees, counter)
                            for t in w2.trees)
        _add_into(acc, rebuilt, 1)
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
def _np_pi_forest(f: NonplanarForest) -> LinComb:
    if f.is_empty:
        return LinComb.zero()
    got = LinComb.basis(f)
    for (l, r), c in bck_reduced_forest(f).items():
        got = got - c * bck_natural_growth(LinComb.basis(l), _np_pi_forest(r))
    return got


def bck_primitive_projection(x: LinComb) -> LinComb:
    """Same recursion as the planar projection, run in the commutative theory."""
    return x.map_basis(_np_pi_forest)


def enumerate_np_trees(n: int, alphabet: Iterable[str]) -> tuple[NonplanarTree, ...]:
    """All nonplanar trees with n vertices, in (degree, text) order."""
    return _np_tree_basis(n, tuple(alphabet))


@memo
def _np_tree_basis(n: int, alphabet: tuple[str, ...]) -> tuple[NonplanarTree, ...]:
    if n <= 0:
        return ()
    out = [np_tree(d, f.trees)
           for d in alphabet
           for f in enumerate_np_forests(n - 1, alphabet)]
    return tuple(sorted(set(out), key=NonplanarTree.sort_key))


def enumerate_np_forests(n: int, alphabet: Iterable[str]) -> tuple[NonplanarForest, ...]:
    """All nonplanar forests of total degree n, in (degree, text) order."""
    return _np_forest_basis(n, tuple(alphabet))


@memo
def _np_forest_basis(n: int, alphabet: tuple[str, ...]) -> tuple[NonplanarForest, ...]:
    if n < 0:
        return ()
    if n == 0:
        return (NP_ONE,)
    pool: list = []
    for d in range(1, n + 1):
        pool.extend(enumerate_np_trees(d, alphabet))
    out: list = []

    def rec(remaining: int, start: int, acc: list) -> None:
        if remaining == 0:
            out.append(np_forest(acc))
            return
        for i in range(start, len(pool)):
            t = pool[i]
            if t.degree <= remaining:
                rec(remaining - t.degree, i, acc + [t])

    rec(n, 0, [])
    return tuple(sorted(set(out), key=NonplanarForest.sort_key))
