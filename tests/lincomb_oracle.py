"""Reference ``LinComb``/``Tensor``: one ``int | Fraction`` value per term.

This is the representation ``postlie.lincomb`` used before it moved to
integer numerators over one shared denominator, kept verbatim as the slow
oracle for ``tests/test_lincomb_oracle.py``.  Every operation here stores
the coefficients exactly as the arithmetic produced them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from postlie.forest import FOREST_ONE, OrderedForest, forest, word

Coeff = int | Fraction

_EXACT = frozenset((int, Fraction))


def _reject_inexact(values: Iterable) -> None:
    # Called once ``_EXACT.issuperset(map(type, values))`` has failed.
    bad = next(v for v in values if type(v) not in _EXACT)
    raise TypeError(f"coefficient {bad!r} is not exact: "
                    "use an int or a Fraction")


def as_coeff(value: int | str | Fraction) -> Coeff:
    """Exact coefficient: an ``int``, or a ``Fraction`` with denominator > 1.

    Strings parse as ``Fraction`` does; a ``float`` raises ``TypeError``.
    """
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if isinstance(value, float):
            _reject_inexact((value,))
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(num: int, den: int) -> Coeff:
    # num / den exactly: an int when den divides num.
    q, rem = divmod(num, den)
    return Fraction(num, den) if rem else q


def _add_into(acc: dict, key: Hashable, coeff: Coeff) -> None:
    c = acc.get(key)
    if c is None:
        if coeff:
            acc[key] = coeff
    else:
        c = c + coeff
        if c:
            acc[key] = c
        else:
            del acc[key]


class LinComb:
    """Immutable sparse linear combination with exact coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Hashable, Coeff] | None = None):
        data = {k: v for k, v in (terms or {}).items() if v}
        if not _EXACT.issuperset(map(type, data.values())):
            _reject_inexact(data.values())
        self._terms = data
        self._hash: int | None = None

    # construction ---------------------------------------------------------

    @staticmethod
    def zero() -> "LinComb":
        return _ZERO

    @staticmethod
    def basis(key: Hashable) -> "LinComb":
        return LinComb({key: 1})

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Hashable, int | Fraction]]) -> "LinComb":
        acc: dict = {}
        for k, c in pairs:
            _add_into(acc, k, as_coeff(c))
        return LinComb(acc)

    # accessors ------------------------------------------------------------

    def items(self) -> Iterator[tuple[Hashable, Coeff]]:
        return iter(self._terms.items())

    def support(self):
        return self._terms.keys()

    def coeff(self, key: Hashable) -> Coeff:
        return self._terms.get(key, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms.items():
            _add_into(acc, k, c)
        return LinComb(acc)

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms.items():
            _add_into(acc, k, -c)
        return LinComb(acc)

    def __neg__(self) -> "LinComb":
        return LinComb({k: -c for k, c in self._terms.items()})

    def scale(self, scalar: int | Fraction) -> "LinComb":
        s = as_coeff(scalar)
        if not s:
            return _ZERO
        return LinComb({k: c * s for k, c in self._terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def map_basis(self, fn: Callable[[Hashable], "LinComb"]) -> "LinComb":
        """Linear extension of a basis-valued map."""
        acc: dict = {}
        for k, c in self._terms.items():
            for k2, c2 in fn(k)._terms.items():
                _add_into(acc, k2, c * c2)
        return LinComb(acc)

    def map_pairs(self, other: "LinComb",
                  fn: Callable[[Hashable, Hashable], "LinComb"]) -> "LinComb":
        """Bilinear extension of a map on pairs of basis keys."""
        acc: dict = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                for k3, c3 in fn(k1, k2)._terms.items():
                    _add_into(acc, k3, c1 * c2 * c3)
        return LinComb(acc)

    def apply_coproduct(self, fn: Callable[[Hashable], "Tensor"]) -> "Tensor":
        """Linear extension of a basis-valued two-leg map."""
        acc: dict = {}
        for k, c in self._terms.items():
            for key, c2 in fn(k)._terms.items():
                _add_into(acc, key, c * c2)
        return Tensor(2, acc)

    # degree-aware helpers (keys must expose .degree) ----------------------

    def degrees(self) -> set[int]:
        return {k.degree for k in self._terms}

    def homogeneous(self, n: int) -> "LinComb":
        return LinComb({k: c for k, c in self._terms.items() if k.degree == n})

    def truncate(self, maxdeg: int) -> "LinComb":
        return LinComb({k: c for k, c in self._terms.items() if k.degree <= maxdeg})

    def max_degree(self) -> int:
        return max((k.degree for k in self._terms), default=0)

    # equality -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            self._hash = h
        return h

    def __repr__(self) -> str:
        if not self._terms:
            return "LinComb(0)"
        bits = ", ".join(f"{k!r}: {c}" for k, c in self._terms.items())
        return f"LinComb({{{bits}}})"


_ZERO = LinComb({})


class Tensor:
    """Sparse tensor of fixed arity; terms keyed by tuples of basis keys."""

    __slots__ = ("arity", "_terms", "_hash")

    def __init__(self, arity: int, terms: Mapping[tuple, Coeff] | None = None):
        self.arity = arity
        self._terms = {k: v for k, v in (terms or {}).items() if v}
        if not _EXACT.issuperset(map(type, self._terms.values())):
            _reject_inexact(self._terms.values())
        self._hash: int | None = None

    @staticmethod
    def zero(arity: int) -> "Tensor":
        return Tensor(arity)

    @staticmethod
    def basis(key: tuple) -> "Tensor":
        return Tensor(len(key), {key: 1})

    @staticmethod
    def from_terms(arity: int, pairs: Iterable[tuple[tuple, int | Fraction]]) -> "Tensor":
        acc: dict = {}
        for k, c in pairs:
            _add_into(acc, k, as_coeff(c))
        return Tensor(arity, acc)

    def items(self) -> Iterator[tuple[tuple, Coeff]]:
        return iter(self._terms.items())

    def coeff(self, key: tuple) -> Coeff:
        return self._terms.get(key, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor) or other.arity != self.arity:
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms.items():
            _add_into(acc, k, c)
        return Tensor(self.arity, acc)

    def __sub__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor) or other.arity != self.arity:
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms.items():
            _add_into(acc, k, -c)
        return Tensor(self.arity, acc)

    def __neg__(self) -> "Tensor":
        return Tensor(self.arity, {k: -c for k, c in self._terms.items()})

    def scale(self, scalar: int | Fraction) -> "Tensor":
        s = as_coeff(scalar)
        if not s:
            return Tensor(self.arity)
        return Tensor(self.arity, {k: c * s for k, c in self._terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def apply_linear(self, leg: int, fn: Callable[[Hashable], LinComb]) -> "Tensor":
        """Apply a linear map to one leg, keeping the arity."""
        acc: dict = {}
        for key, c in self._terms.items():
            for k2, c2 in fn(key[leg]).items():
                _add_into(acc, key[:leg] + (k2,) + key[leg + 1:], c * c2)
        return Tensor(self.arity, acc)

    def apply_coproduct(self, leg: int, fn: Callable[[Hashable], "Tensor"]) -> "Tensor":
        """Apply a two-leg coproduct to one leg, raising the arity by one."""
        acc: dict = {}
        for key, c in self._terms.items():
            for (l, r), c2 in fn(key[leg]).items():
                _add_into(acc, key[:leg] + (l, r) + key[leg + 1:], c * c2)
        return Tensor(self.arity + 1, acc)

    def merge_legs(self, i: int, j: int,
                   product: Callable[[Hashable, Hashable], LinComb]) -> "Tensor":
        """Multiply legs ``i`` and ``j`` (i < j); the product lands in leg ``i``."""
        if not 0 <= i < j < self.arity:
            raise ValueError("need 0 <= i < j < arity")
        acc: dict = {}
        for key, c in self._terms.items():
            rest = key[:j] + key[j + 1:]
            for k2, c2 in product(key[i], key[j]).items():
                _add_into(acc, rest[:i] + (k2,) + rest[i + 1:], c * c2)
        return Tensor(self.arity - 1, acc)

    def legwise(self, other: "Tensor",
                product: Callable[[Hashable, Hashable], LinComb],
                right_product: Callable[[Hashable, Hashable], LinComb] | None = None,
                ) -> "Tensor":
        """Product of two rank-2 tensors, leg by leg: ``product`` on leg 0,
        ``right_product`` (default ``product``) on leg 1."""
        second = product if right_product is None else right_product
        acc: dict = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                c = c1 * c2
                for a, ca in product(a1, a2).items():
                    cca = c * ca
                    for b, cb in second(b1, b2).items():
                        _add_into(acc, (a, b), cca * cb)
        return Tensor(2, acc)

    def contract(self, left: Callable[[Hashable], LinComb],
                 right: Callable[[Hashable], LinComb],
                 product: Callable[[Hashable, Hashable], LinComb]) -> LinComb:
        """``sum c product(left(x), right(y))`` over the terms ``c x (x) y``."""
        acc: dict = {}
        for (x, y), c in self._terms.items():
            for k1, c1 in left(x).items():
                for k2, c2 in right(y).items():
                    for k3, c3 in product(k1, k2).items():
                        _add_into(acc, k3, c * c1 * c2 * c3)
        return LinComb(acc)

    def counit_legs(self, is_unit: Callable[[Hashable], bool],
                    ) -> tuple[LinComb, LinComb]:
        """``(counit (x) id)`` and ``(id (x) counit)`` of a rank-2 tensor,
        for the counit that keeps exactly the keys ``is_unit`` accepts."""
        pairs = self._terms.items()
        return (LinComb.from_terms((b, c) for (a, b), c in pairs if is_unit(a)),
                LinComb.from_terms((a, c) for (a, b), c in pairs if is_unit(b)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.arity == other.arity and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.arity, frozenset(self._terms.items())))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"Tensor(arity={self.arity}, nterms={len(self._terms)})"


def graded_transpose(n: int, basis: Callable[[int], Iterable[Hashable]],
                     product: Callable[[Hashable, Hashable], LinComb],
                     ) -> dict[Hashable, Tensor]:
    """Map each ``x`` in ``basis(n)`` to ``sum <product(a, b), x> a (x) b``.

    Pairs run over ``basis(i) x basis(n - i)``, ``i = 0..n``, and each is
    multiplied once, its terms scattered into their targets: the degree
    costs ``sum_i |B_i| |B_(n-i)|`` products.  Terms outside ``basis(n)``
    are dropped, so a filtered product transposes its graded part.
    """
    acc: dict = {x: {} for x in basis(n)}
    for i in range(n + 1):
        right = basis(n - i)
        for a in basis(i):
            for b in right:
                for x, c in product(a, b).items():
                    terms = acc.get(x)
                    if terms is not None:
                        terms[(a, b)] = c
    for x, terms in acc.items():
        acc[x] = Tensor(2, terms)  # in place: one degree's terms held once
    return acc


def duality_mismatches(n: int, basis: Callable[[int], Iterable[Hashable]],
                       product: Callable[[Hashable, Hashable], LinComb],
                       coproduct: Callable[[Hashable], Tensor]):
    """``(x, a, b, <a (x) b, coproduct(x)>, <product(a, b), x>)`` over the
    support of ``coproduct(x)`` minus the transpose, on degree ``n``."""
    for x, dual in graded_transpose(n, basis, product).items():
        cop = coproduct(x)
        for key, _ in (cop - dual).items():
            yield (x, key[0], key[1], cop.coeff(key), dual.coeff(key))


def tensor_of(*factors: LinComb) -> Tensor:
    """Outer product of LinCombs as a Tensor."""
    acc: dict = {(): 1}
    for f in factors:
        nxt: dict = {}
        for key, c in acc.items():
            for k, c2 in f.items():
                nxt[key + (k,)] = c * c2
        acc = nxt
    return Tensor(len(factors), acc)


# -- word operations on ordered forests ------------------------------------

def concat(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear concatenation of forests as words of trees."""
    acc: dict = {}
    for f1, c1 in x.items():
        for f2, c2 in y.items():
            _add_into(acc, word(f1, f2), c1 * c2)
    return LinComb(acc)


def shuffle_words(f1: OrderedForest, f2: OrderedForest) -> LinComb:
    """Shuffle two forests as words of trees (multiplicities included)."""
    t1, t2 = f1.trees, f2.trees
    n1, n2 = len(t1), len(t2)
    if not n1:
        return LinComb.basis(f2)
    if not n2:
        return LinComb.basis(f1)
    acc: dict = {}
    slots = range(n1 + n2)
    for pick in combinations(slots, n1):
        out: list = [None] * (n1 + n2)
        for idx, p in enumerate(pick):
            out[p] = t1[idx]
        it = iter(t2)
        for p in slots:
            if out[p] is None:
                out[p] = next(it)
        _add_into(acc, forest(out), 1)
    return LinComb(acc)


def shuffle(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear shuffle product of forest words."""
    return x.map_pairs(y, shuffle_words)


def _deshuffle_words(trees_: tuple) -> dict[tuple[tuple, tuple], int]:
    """Distinct (picked, rest) subsequence pairs of a word of trees.

    Values are integer multiplicities: the number of position subsets that
    give the pair.
    """
    n = len(trees_)
    acc: dict = {}
    for r in range(n + 1):
        for pick in combinations(range(n), r):
            picked = set(pick)
            key = (tuple(trees_[i] for i in pick),
                   tuple(trees_[i] for i in range(n) if i not in picked))
            acc[key] = acc.get(key, 0) + 1
    return acc


def deshuffle_forest(f: OrderedForest) -> Tensor:
    """Unshuffle coproduct of one forest: sum over subsets of tree positions."""
    return Tensor(2, {(forest(left), forest(right)): m
                      for (left, right), m in _deshuffle_words(f.trees).items()})


def deshuffle(x: LinComb) -> Tensor:
    return x.apply_coproduct(deshuffle_forest)


def deconcat_forest(f: OrderedForest) -> Tensor:
    """Deconcatenation coproduct: split the word of trees at every position."""
    trees_ = f.trees
    acc: dict = {}
    for i in range(len(trees_) + 1):
        _add_into(acc, (forest(trees_[:i]), forest(trees_[i:])), 1)
    return Tensor(2, acc)


def deconcat(x: LinComb) -> Tensor:
    return x.apply_coproduct(deconcat_forest)


def pairing(x: LinComb, y: LinComb) -> Coeff:
    """Kronecker pairing: basis forests are orthonormal."""
    a, b = (x, y) if len(x) <= len(y) else (y, x)
    total = 0
    for k, c in a.items():
        total += c * b.coeff(k)
    return total


def counit(x: LinComb) -> Coeff:
    """Coefficient of the empty forest."""
    return x.coeff(FOREST_ONE)
