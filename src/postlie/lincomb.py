"""Sparse linear combinations with exact coefficients, and small tensors.

:class:`LinComb` maps basis keys to nonzero exact coefficients.  It stores
them as integer numerators over one shared denominator: ``num`` maps each key
to a nonzero ``int``, ``den >= 1`` and ``gcd(den, *num.values()) == 1``, so
every value has exactly one stored form, and a value stores nothing else.
The combinatorial kernels (grafting, the cut and BCK coproducts, shuffles and
deshuffles) emit integer multiplicities, so ``den == 1`` is the common case;
it costs plain ``int`` arithmetic and nothing else.  Where the maths divides
(growth shares ``1/|w|``, exponentials, characters, translations, linear
algebra) the linear and bilinear extensions bring every image to the lcm of
the images' denominators, sum plain integers, and divide out one gcd at the
end, so no ``Fraction`` is made per term.

Outside this module the form does not show: ``items()`` and ``coeff()`` hand
out each coefficient as an ``int`` when it is integral and as a ``Fraction``
otherwise, and ``==``, ``hash`` and ``str`` agree with those values.  So memo
keys and every other consumer see the same numbers whatever arithmetic
produced them.  The text and JSON writers read the ordered-terms reader
instead: ``ordered_terms(key)`` hands out the terms in ``key`` order as
``(key, negative, magnitude)``, the magnitude already as the text ``str``
would give its value, formatted off the numerator with one ``gcd`` against
the shared denominator, so writing a combination builds no ``Fraction``.  A
``float`` is refused with ``TypeError`` wherever a coefficient enters.

Keys are any hashable basis values; the degree-aware helpers additionally
expect a ``.degree`` attribute (forests and decorated trees qualify).
Instances are immutable and hashable (the hash is computed on each call, as
few values are ever hashed), so a LinComb can itself be a letter of a word.

:class:`Tensor` is the flat sparse analogue for tensor products, stored the
same way: terms are keyed by tuples of basis keys, one per leg.

Maps defined on basis keys extend through one method each: linearly with
``map_basis`` (on a LinComb, or on a Tensor whose basis keys are its tuples
of legs; ``apply_coproduct`` for a two-leg value), bilinearly with
``LinComb.map_pairs`` (over the term pairs in iteration order), and on the
legs of a Tensor with ``apply_linear`` and ``apply_coproduct`` (one leg),
``merge_legs`` (two legs multiplied into one) and ``legwise`` (two rank-2
tensors, leg by leg).  ``Tensor.contract`` sums ``c product(left(x),
right(y))`` over the terms ``c x (x) y`` of a two-leg tensor in one pass;
the Guin-Oudom products and the antipode recursions are each one such
expression.

Every extension sums through one step, ``_add_image``: widen ``big``, the
lcm of the images' denominators so far, to the next image's, scale, and
``_add_into`` its terms, each under a given left leg if ``legwise`` passes
one (it adds ``left (x) second`` as one image of ``second`` per term of
``left``, building no Tensor per pair).  The leg maps share one loop,
``Tensor._legs``, which takes the same step but splices each image key into
the term's key: one leg for a LinComb image, a tuple of legs for a Tensor
image.  Only
``concat`` keeps its own loop: its image is one key with coefficient 1, and
building a LinComb per pair for it would only cost.  The accumulator lives
in this module alone.  Combinatorial kernels elsewhere create terms by
counting positive integer multiplicities into a fresh dict, which they hand
to the trusted constructors ``_adopt`` (a fresh dict of nonzero exact
coefficients) or ``_make`` (integer numerators over a denominator); these
skip the public constructors' copy and checks.  Every composite of those
kernels is an expression over the extensions.

Word operations on forests (concatenation, shuffle, deshuffle,
deconcatenation, Kronecker pairing) live here as module functions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .forest import FOREST_ONE, OrderedForest, forest, word

Coeff = int | Fraction

_EXACT = frozenset((int, Fraction))
_INT = frozenset((int,))


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


def _split(terms: dict) -> tuple[dict, int]:
    """Integer numerators and their least common denominator for a dict of
    nonzero exact coefficients; the dict itself when they are all ints."""
    if _INT.issuperset(map(type, terms.values())):
        return terms, 1
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den


def _widen(acc: dict, den: int, d: int) -> int:
    """Rescale numerators over ``den`` to ``lcm(den, d)`` and return it."""
    new = lcm(den, d)
    r = new // den
    for k in acc:
        acc[k] *= r
    return new


def _add_image(acc: dict, big: int, n: int, img: "_Exact", d0: int = 1,
               left: Hashable = None) -> int:
    """Add ``n / d0`` times ``img`` into ``acc`` over ``big``; return ``big``,
    widened.  With ``left`` given, each image key ``k`` lands at ``(left, k)``."""
    d = d0 * img._den
    if big % d:
        big = _widen(acc, big, d)
    s = n * big // d
    if left is None:
        for k, c in img._num.items():
            _add_into(acc, k, s * c)
    else:
        for k, c in img._num.items():
            _add_into(acc, (left, k), s * c)
    return big


class _Exact:
    """Storage and arithmetic shared by :class:`LinComb` and :class:`Tensor`:
    the numerators ``_num`` over ``_den``, and no cached hash."""

    __slots__ = ("_num", "_den")

    def _checked(self, terms: Mapping | None) -> None:
        data = {k: v for k, v in (terms or {}).items() if v}
        if not _EXACT.issuperset(map(type, data.values())):
            _reject_inexact(data.values())
        self._num, self._den = _split(data)

    def _set(self, num: dict, den: int):
        # Store num / den in normal form: divide out their common factor.
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: n // g for k, n in num.items()}
        self._num = num
        self._den = den
        return self

    def items(self) -> Iterator[tuple[Hashable, Coeff]]:
        den = self._den
        if den == 1:
            return iter(self._num.items())
        return ((k, _quotient(n, den)) for k, n in self._num.items())

    def coeff(self, key: Hashable) -> Coeff:
        n = self._num.get(key, 0)
        return _quotient(n, self._den) if n and self._den != 1 else n

    def ordered_terms(self, key: Callable[[Hashable], object],
                      ) -> Iterator[tuple[Hashable, bool, str]]:
        """The terms in ``key`` order as ``(key, negative, magnitude)``, the
        magnitude as ``str`` gives it (``"3"``, ``"1/2"``): read off the
        numerators with one ``gcd`` per term, no coefficient built."""
        num, den = self._num, self._den
        if den == 1:
            for k in sorted(num, key=key):
                n = num[k]
                yield (k, True, str(-n)) if n < 0 else (k, False, str(n))
            return
        for k in sorted(num, key=key):
            n = num[k]
            g = gcd(n, den)
            m = (-n if n < 0 else n) // g
            d = den // g
            yield k, n < 0, f"{m}/{d}" if d != 1 else str(m)

    def support(self):
        """The keys, read without building a coefficient."""
        return self._num.keys()

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __len__(self) -> int:
        return len(self._num)

    def _plus(self, other: "_Exact", sign: int):
        d1, d2 = self._den, other._den
        if d1 == d2:
            den, acc = d1, dict(self._num)
        else:
            den = lcm(d1, d2)
            r = den // d1
            acc = {k: n * r for k, n in self._num.items()}
        s = sign * (den // d2)
        for k, n in other._num.items():
            _add_into(acc, k, s * n)
        return self._like(acc, den)

    def __add__(self, other):
        return self._plus(other, 1) if self._matches(other) else NotImplemented

    def __sub__(self, other):
        return self._plus(other, -1) if self._matches(other) else NotImplemented

    def __neg__(self):
        return self._like({k: -n for k, n in self._num.items()}, self._den)

    def scale(self, scalar: int | Fraction):
        s = as_coeff(scalar)
        p = s.numerator
        return self._like({k: n * p for k, n in self._num.items()} if p else {},
                          self._den * s.denominator)

    __mul__ = scale
    __rmul__ = scale

    def _linear(self, fn: Callable[[Hashable], "_Exact"]) -> tuple[dict, int]:
        # Numerators and denominator of sum(c * fn(key)).
        acc: dict = {}
        big = 1
        for k, n in self._num.items():
            big = _add_image(acc, big, n, fn(k))
        return acc, self._den * big

    def map_basis(self, fn: Callable[[Hashable], "LinComb"]) -> "LinComb":
        """Linear extension of a basis-valued map; on a Tensor the basis
        keys are its tuples of legs."""
        return LinComb._make(*self._linear(fn))


class LinComb(_Exact):
    """Immutable sparse linear combination with exact coefficients."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Hashable, Coeff] | None = None):
        self._checked(terms)

    # construction ---------------------------------------------------------

    @staticmethod
    def _make(num: dict, den: int = 1) -> "LinComb":
        """Trusted: adopt ``num``, nonzero ints, as the numerators over ``den``."""
        return LinComb.__new__(LinComb)._set(num, den)

    @staticmethod
    def _adopt(terms: dict) -> "LinComb":
        """Trusted: adopt ``terms``, a fresh dict of nonzero exact values."""
        return LinComb._make(*_split(terms))

    def _like(self, num: dict, den: int) -> "LinComb":
        return LinComb._make(num, den)

    def _matches(self, other) -> bool:
        return isinstance(other, LinComb)

    @staticmethod
    def zero() -> "LinComb":
        return _ZERO

    @staticmethod
    def basis(key: Hashable) -> "LinComb":
        return LinComb._make({key: 1})

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Hashable, int | Fraction]]) -> "LinComb":
        acc: dict = {}
        for k, c in pairs:
            _add_into(acc, k, as_coeff(c))
        return LinComb._adopt(acc)

    # bilinear and coproduct extensions ----------------------------------

    def map_pairs(self, other: "LinComb",
                  fn: Callable[[Hashable, Hashable], "LinComb"]) -> "LinComb":
        """Bilinear extension of a map on pairs of basis keys."""
        acc: dict = {}
        big = 1
        right = other._num.items()
        for k1, n1 in self._num.items():
            for k2, n2 in right:
                big = _add_image(acc, big, n1 * n2, fn(k1, k2))
        return LinComb._make(acc, self._den * other._den * big)

    def apply_coproduct(self, fn: Callable[[Hashable], "Tensor"]) -> "Tensor":
        """Linear extension of a basis-valued two-leg map."""
        return Tensor._make(2, *self._linear(fn))

    # degree-aware helpers (keys must expose .degree) ----------------------

    def degrees(self) -> set[int]:
        return {k.degree for k in self._num}

    def homogeneous(self, n: int) -> "LinComb":
        return LinComb._make({k: c for k, c in self._num.items()
                              if k.degree == n}, self._den)

    def truncate(self, maxdeg: int) -> "LinComb":
        return LinComb._make({k: c for k, c in self._num.items()
                              if k.degree <= maxdeg}, self._den)

    def max_degree(self) -> int:
        return max((k.degree for k in self._num), default=0)

    # equality -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __repr__(self) -> str:
        if not self._num:
            return "LinComb(0)"
        bits = ", ".join(f"{k!r}: {c}" for k, c in self.items())
        return f"LinComb({{{bits}}})"


_ZERO = LinComb._make({})


class Tensor(_Exact):
    """Sparse tensor of fixed arity; terms keyed by tuples of basis keys."""

    __slots__ = ("arity",)

    def __init__(self, arity: int, terms: Mapping[tuple, Coeff] | None = None):
        self.arity = arity
        self._checked(terms)

    @staticmethod
    def _make(arity: int, num: dict, den: int = 1) -> "Tensor":
        """Trusted: adopt ``num``, nonzero ints, as the numerators over ``den``."""
        t = Tensor.__new__(Tensor)
        t.arity = arity
        return t._set(num, den)

    @staticmethod
    def _adopt(arity: int, terms: dict) -> "Tensor":
        """Trusted: adopt ``terms``, a fresh dict of nonzero exact values."""
        return Tensor._make(arity, *_split(terms))

    def _like(self, num: dict, den: int) -> "Tensor":
        return Tensor._make(self.arity, num, den)

    def _matches(self, other) -> bool:
        return isinstance(other, Tensor) and other.arity == self.arity

    @staticmethod
    def zero(arity: int) -> "Tensor":
        return Tensor._make(arity, {})

    @staticmethod
    def basis(key: tuple) -> "Tensor":
        return Tensor._make(len(key), {key: 1})

    @staticmethod
    def from_terms(arity: int, pairs: Iterable[tuple[tuple, int | Fraction]]) -> "Tensor":
        acc: dict = {}
        for k, c in pairs:
            _add_into(acc, k, as_coeff(c))
        return Tensor._adopt(arity, acc)

    def _legs(self, i: int, j: int, fn: Callable, arity: int) -> "Tensor":
        # Legs i..j-1 become fn(*legs); a Tensor image's keys are leg tuples.
        acc: dict = {}
        big = 1
        for key, n in self._num.items():
            img = fn(*key[i:j])
            d = img._den
            if big % d:
                big = _widen(acc, big, d)
            s = n * big // d
            head, tail = key[:i], key[j:]
            if type(img) is Tensor:
                for legs, c in img._num.items():
                    _add_into(acc, head + legs + tail, s * c)
            else:
                for k, c in img._num.items():
                    _add_into(acc, head + (k,) + tail, s * c)
        return Tensor._make(arity, acc, self._den * big)

    def apply_linear(self, leg: int, fn: Callable[[Hashable], LinComb]) -> "Tensor":
        """Apply a linear map to one leg, keeping the arity."""
        return self._legs(leg, leg + 1, fn, self.arity)

    def apply_coproduct(self, leg: int, fn: Callable[[Hashable], "Tensor"]) -> "Tensor":
        """Apply a two-leg coproduct to one leg, raising the arity by one."""
        return self._legs(leg, leg + 1, fn, self.arity + 1)

    def merge_legs(self, i: int, j: int,
                   product: Callable[[Hashable, Hashable], LinComb]) -> "Tensor":
        """Multiply legs ``i`` and ``j`` (i < j); the product lands in leg ``i``."""
        if not 0 <= i < j < self.arity:
            raise ValueError("need 0 <= i < j < arity")
        t = self if j == i + 1 else self._legs(  # rotate leg j next to leg i
            i + 1, j + 1, lambda *g: Tensor.basis(g[-1:] + g[:-1]), self.arity)
        return t._legs(i, i + 2, product, self.arity - 1)

    def legwise(self, other: "Tensor",
                product: Callable[[Hashable, Hashable], LinComb],
                right_product: Callable[[Hashable, Hashable], LinComb] | None = None,
                ) -> "Tensor":
        """Product of two rank-2 tensors, leg by leg: ``product`` on leg 0,
        ``right_product`` (default ``product``) on leg 1."""
        second = right_product or product
        acc: dict = {}
        big = 1
        right = other._num.items()
        for (a1, b1), n1 in self._num.items():
            for (a2, b2), n2 in right:
                left = product(a1, a2)
                if left._num:
                    # left (x) sec as one image of sec per term of left,
                    # keyed under it: no Tensor is built per pair.
                    sec = second(b1, b2)
                    if sec._num:
                        d0 = left._den
                        for a, ca in left._num.items():
                            big = _add_image(acc, big, n1 * n2 * ca, sec, d0, a)
        return Tensor._make(2, acc, self._den * other._den * big)

    def contract(self, left: Callable[[Hashable], LinComb],
                 right: Callable[[Hashable], LinComb],
                 product: Callable[[Hashable, Hashable], LinComb]) -> LinComb:
        """``sum c product(left(x), right(y))`` over the terms ``c x (x) y``
        of a rank-2 tensor, ``product`` extended bilinearly, in one pass;
        ``right`` is not called where ``left`` vanishes."""
        acc: dict = {}
        big = 1
        for (x, y), n in self._num.items():
            lx = left(x)
            if not lx._num:
                continue
            ry = right(y)
            d0 = lx._den * ry._den
            pairs = ry._num.items()
            for k1, n1 in lx._num.items():
                s1 = n * n1
                for k2, n2 in pairs:
                    big = _add_image(acc, big, s1 * n2, product(k1, k2), d0)
        return LinComb._make(acc, self._den * big)

    def counit_legs(self, is_unit: Callable[[Hashable], bool],
                    ) -> tuple[LinComb, LinComb]:
        """``(counit (x) id)`` and ``(id (x) counit)`` of a rank-2 tensor,
        for the counit that keeps exactly the keys ``is_unit`` accepts."""
        return (LinComb.from_terms((b, c) for (a, b), c in self.items() if is_unit(a)),
                LinComb.from_terms((a, c) for (a, b), c in self.items() if is_unit(b)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.arity == other.arity and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.items())))

    def __repr__(self) -> str:
        return f"Tensor(arity={self.arity}, nterms={len(self._num)})"


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
        acc[x] = Tensor._adopt(2, terms)  # in place: one degree's terms held once
    return acc


def duality_mismatches(n: int, basis: Callable[[int], Iterable[Hashable]],
                       product: Callable[[Hashable, Hashable], LinComb],
                       coproduct: Callable[[Hashable], Tensor]):
    """``(x, a, b, <a (x) b, coproduct(x)>, <product(a, b), x>)`` over the
    support of ``coproduct(x)`` minus the transpose, on degree ``n``."""
    for x, dual in graded_transpose(n, basis, product).items():
        cop = coproduct(x)
        for key in (cop - dual).support():
            yield (x, key[0], key[1], cop.coeff(key), dual.coeff(key))


def tensor_of(*factors: LinComb) -> Tensor:
    """Outer product of LinCombs as a Tensor."""
    acc: dict = {(): 1}
    den = 1
    for f in factors:
        acc = {key + (k,): n * n2 for key, n in acc.items()
               for k, n2 in f._num.items()}
        den *= f._den
    return Tensor._make(len(factors), acc, den)


# -- word operations on ordered forests ------------------------------------

def concat(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear concatenation of forests as words of trees."""
    acc: dict = {}
    right = y._num.items()
    for f1, n1 in x._num.items():
        for f2, n2 in right:
            _add_into(acc, word(f1, f2), n1 * n2)
    return LinComb._make(acc, x._den * y._den)


def _concat_product(f1: OrderedForest, f2: OrderedForest) -> LinComb:
    # Concatenation of two basis forests, as a product for the extensions.
    return LinComb.basis(word(f1, f2))


def _shuffle_words(u: tuple, v: tuple) -> dict[tuple, int]:
    """Distinct shuffles of two words given as tuples, with their integer
    multiplicities: the number of position subsets that give each."""
    nu, n = len(u), len(u) + len(v)
    acc: dict = {}
    for pick in combinations(range(n), nu):
        out: list = [None] * n
        for idx, p in enumerate(pick):
            out[p] = u[idx]
        it = iter(v)
        for p in range(n):
            if out[p] is None:
                out[p] = next(it)
        key = tuple(out)
        acc[key] = acc.get(key, 0) + 1
    return acc


def shuffle_words(f1: OrderedForest, f2: OrderedForest) -> LinComb:
    """Shuffle two forests as words of trees (multiplicities included)."""
    if f1.is_empty:
        return LinComb.basis(f2)
    if f2.is_empty:
        return LinComb.basis(f1)
    return LinComb._make({forest(w): m for w, m in
                          _shuffle_words(f1.trees, f2.trees).items()})


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
    return Tensor._make(2, {(forest(left), forest(right)): m
                            for (left, right), m in _deshuffle_words(f.trees).items()})


def deshuffle(x: LinComb) -> Tensor:
    return x.apply_coproduct(deshuffle_forest)


def deconcat_forest(f: OrderedForest) -> Tensor:
    """Deconcatenation coproduct: split the word of trees at every position."""
    trees_ = f.trees
    acc: dict = {}
    for i in range(len(trees_) + 1):
        _add_into(acc, (forest(trees_[:i]), forest(trees_[i:])), 1)
    return Tensor._make(2, acc)


def deconcat(x: LinComb) -> Tensor:
    return x.apply_coproduct(deconcat_forest)


def pairing(x: LinComb, y: LinComb) -> Coeff:
    """Kronecker pairing: basis forests are orthonormal."""
    a, b = (x, y) if len(x) <= len(y) else (y, x)
    other = b._num
    total = 0
    for k, n in a._num.items():
        total += n * other.get(k, 0)
    return _quotient(total, a._den * b._den)


def counit(x: LinComb) -> Coeff:
    """Coefficient of the empty forest."""
    return x.coeff(FOREST_ONE)
