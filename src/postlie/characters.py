"""Embedding planar forests into a word Hopf algebra, and truncated characters.

``phi`` is the algebra isomorphism that turns the associative product built
on grafting into plain word concatenation, fixing single trees.  On a forest
it follows the rewriting

    phi(t w) = t . phi(w) - phi(t <| w),

where ``t <| w`` grafts the tree ``t`` onto each tree of ``w`` in turn.  The
rewriting terminates because every term on the right has fewer trees.  Its
inverse rebuilds with the grafting product instead: a word t.w maps to
t * phi_inverse(w).  Both preserve degree and are unitriangular with respect
to tree count, as the graded matrix from ``phi_matrix`` shows.

``TruncChar`` is a linear functional on forests of bounded degree, stored
extensionally.  Both flavors are multiplicative for the shuffle of forests;
they differ in which coproduct drives convolution: the cut coproduct for the
"mkw" flavor, deconcatenation for the "tensor" flavor.  Convolution, its
inverse and the exponential ``canonical_lift`` are one pass over that
coproduct.  ``embed_rough_path`` moves a lift to the tensor flavor by
pushing its representing series through ``phi``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .exprs import _json_coeff
from .forest import (FOREST_ONE, ORDER_KEY, ForestSyntaxError,
                     OrderedForest, enumerate_forests, forest, leaf,
                     letters_in, parse_forest, single)
from .grafting import gl_product, graft_forests
from .laws import forests
from .lincomb import (Coeff, LinComb, as_coeff, concat, deconcat_forest,
                      deshuffle, shuffle_words, tensor_of)
from .memo import memo
from .mkw import mkw_coproduct_forest


@memo
def _phi_forest(f: OrderedForest) -> LinComb:
    ts = f.trees
    if len(ts) <= 1:
        return LinComb.basis(f)
    # f = t * w - t <| w for its first tree t, and phi(t * w) = t . phi(w)
    head = single(ts[0])
    rest = forest(ts[1:])
    return (concat(LinComb.basis(head), _phi_forest(rest))
            - graft_forests(head, rest).map_basis(_phi_forest))


def phi(x: LinComb) -> LinComb:
    """Isomorphism onto the word side: trees are fixed, * becomes concat."""
    return x.map_basis(_phi_forest)


@memo
def _phi_inv_forest(f: OrderedForest) -> LinComb:
    ts = f.trees
    if len(ts) <= 1:
        return LinComb.basis(f)
    return gl_product(LinComb.basis(single(ts[0])), _phi_inv_forest(forest(ts[1:])))


def phi_inverse(x: LinComb) -> LinComb:
    """Inverse of ``phi``: a word rebuilds as head * phi_inverse(tail)."""
    return x.map_basis(_phi_inv_forest)


def phi_matrix(n: int, alphabet: Iterable[str]) -> tuple[tuple[OrderedForest, ...], list[list[Coeff]]]:
    """Matrix of ``phi`` on degree n, basis sorted by tree count then text.

    Entry [i][j] is the coefficient of basis forest i in the image of basis
    forest j; with this ordering the matrix is unitriangular.
    """
    basis = tuple(sorted(enumerate_forests(n, tuple(alphabet)),
                         key=lambda f: (len(f.trees), ORDER_KEY(f))))
    index = {f: i for i, f in enumerate(basis)}
    mat = [[0] * len(basis) for _ in basis]
    for j, f in enumerate(basis):
        for g, c in _phi_forest(f).items():
            mat[index[g]][j] = c
    return basis, mat


MKW_FLAVOR = "mkw-character"
TENSOR_FLAVOR = "tensor-character"

_FLAVORS = {"mkw": MKW_FLAVOR, MKW_FLAVOR: MKW_FLAVOR,
            "tensor": TENSOR_FLAVOR, TENSOR_FLAVOR: TENSOR_FLAVOR}


class TruncChar:
    """Functional on forests of degree <= N, unit value pinned to 1."""

    __slots__ = ("N", "flavor", "_values")

    def __init__(self, N: int, values: Mapping[OrderedForest, int | Fraction],
                 flavor: str = MKW_FLAVOR):
        if type(N) is not int:
            raise TypeError(f"truncation degree must be an int, "
                            f"not {type(N).__name__}")
        if N < 0:
            raise ValueError("truncation degree must be nonnegative")
        canon = _FLAVORS.get(flavor)
        if canon is None:
            raise ValueError(f"unknown flavor {flavor!r}")
        vals: dict = {}
        for f, c in values.items():
            if not isinstance(f, OrderedForest):
                raise TypeError(f"character key must be an OrderedForest, "
                                f"not {type(f).__name__}")
            if f.degree > N:
                raise ValueError(f"value on {f.text} exceeds truncation {N}")
            cc = as_coeff(c)
            if f.is_empty:
                if cc != 1:
                    raise ValueError("value on the unit must be 1")
                continue
            if cc:
                vals[f] = cc
        self.N = N
        self.flavor = canon
        self._values = vals

    def value(self, f: OrderedForest) -> Coeff:
        if f.degree > self.N:
            raise ValueError(f"{f.text} lies beyond truncation {self.N}")
        if f.is_empty:
            return 1
        return self._values.get(f, 0)

    def pair(self, x: LinComb) -> Coeff:
        total = 0
        for f, c in x.items():
            total += c * self.value(f)
        return total

    def support(self):
        return self._values.keys()

    def series(self) -> LinComb:
        """Representing series: the unit plus all stored values."""
        acc = {FOREST_ONE: 1}
        acc.update(self._values)
        return LinComb._adopt(acc)

    def letters(self) -> tuple[str, ...]:
        return letters_in(*self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncChar):
            return NotImplemented
        return (self.N == other.N and self.flavor == other.flavor
                and self._values == other._values)

    def __repr__(self) -> str:
        return f"TruncChar(N={self.N}, flavor={self.flavor!r}, nvalues={len(self._values)})"


def counit_char(N: int, flavor: str = MKW_FLAVOR) -> TruncChar:
    return TruncChar(N, {}, flavor)


def character_failures(X: TruncChar) -> list[tuple]:
    """Witnesses against shuffle multiplicativity, over pairs within degree N.

    Returns (f, g, X(f shuffle g), X(f)X(g)) triples-with-values; empty means
    X is a character as far as the truncation can see.
    """
    bad: list = []
    for f, g in forests(X.letters(), X.N, 1, 2, ascending=True):
        lhs = X.pair(shuffle_words(f, g))
        rhs = X.value(f) * X.value(g)
        if lhs != rhs:
            bad.append((f, g, lhs, rhs))
    return bad


def group_like_failures(series: LinComb, N: int) -> list[tuple]:
    """Split failures of deshuffle(series) = series (x) series below degree N."""
    lhs = deshuffle(series.truncate(N))
    rhs = tensor_of(series, series)
    keys = sorted((lhs - rhs).support(),
                  key=lambda p: (ORDER_KEY(p[0]), ORDER_KEY(p[1])))
    return [(l, r, lhs.coeff((l, r)), rhs.coeff((l, r)))
            for l, r in keys if l.degree + r.degree <= N]


def _convolved(N: int, flavor: str, letters: tuple[str, ...], left: Callable | None,
               right: Callable, scale: Callable = lambda n: 1) -> TruncChar:
    """``f -> scale(|f|) sum c left(l) right(r)`` over the flavor's coproduct
    ``sum c l (x) r``, degree by degree; ``left=None`` reads the values found
    so far and 1 on the unit, so ``right`` must then vanish on the unit."""
    split = mkw_coproduct_forest if flavor == MKW_FLAVOR else deconcat_forest
    vals: dict = {}
    if left is None:
        left = lambda l: vals.get(l, 0) if l else 1
    for n in range(1, N + 1):
        for f in enumerate_forests(n, letters):
            total = sum(c * left(l) * v for (l, r), c in split(f).items()
                        if (v := right(r)))
            if total:
                vals[f] = scale(n) * total
    return TruncChar(N, vals, flavor)


def char_convolve(X: TruncChar, Y: TruncChar) -> TruncChar:
    """Convolution against the flavor's coproduct: cut for mkw, split for tensor."""
    if X.N != Y.N:
        raise ValueError("truncation degrees differ")
    if X.flavor != Y.flavor:
        raise ValueError("flavors differ")
    return _convolved(X.N, X.flavor, letters_in(*X.support(), *Y.support()),
                      X.value, Y.value)


def char_inverse(X: TruncChar) -> TruncChar:
    """Convolution inverse of any functional, degree by degree: ``X^-1(f) =
    -sum X^-1(l) X(r)`` over the coproduct terms with ``r != 1``."""
    return _convolved(X.N, X.flavor, X.letters(), None,
                      lambda r: -X.value(r) if r else 0)


def canonical_lift(increments: Mapping[str, int | Fraction], N: int) -> TruncChar:
    """``X = exp(x)`` for letter increments ``x`` on single vertices, as an
    mkw-flavor character: ``|f| X(f) = (X * x)(f)``, its derivative in degree."""
    if N < 1:
        raise ValueError("truncation degree must be at least 1")
    inc = {single(leaf(d)): c for d, v in increments.items()
           if (c := as_coeff(v))}
    return _convolved(N, MKW_FLAVOR, letters_in(*inc), None,
                      lambda r: inc.get(r, 0), lambda n: Fraction(1, n))


def embed_rough_path(X: TruncChar) -> TruncChar:
    """Move an mkw-flavor character to the tensor flavor along ``phi``."""
    if X.flavor != MKW_FLAVOR:
        raise ValueError("embedding starts from the mkw flavor")
    return TruncChar(X.N, dict(phi(X.series()).items()), TENSOR_FLAVOR)


def unembed_rough_path(Y: TruncChar) -> TruncChar:
    if Y.flavor != TENSOR_FLAVOR:
        raise ValueError("un-embedding starts from the tensor flavor")
    return TruncChar(Y.N, dict(phi_inverse(Y.series()).items()), MKW_FLAVOR)


def char_to_json(X: TruncChar) -> str:
    rows = sorted(X._values.items(), key=lambda kv: ORDER_KEY(kv[0]))
    return json.dumps({"N": X.N, "flavor": X.flavor,
                       "values": {f.text: str(c) for f, c in rows}}, indent=2)


def _json_object(pairs: list) -> dict:
    # A key written twice is refused, not overwritten by its later value.
    out: dict = {}
    for k, v in pairs:
        if k in out:
            raise ValueError(f"key {k!r} is given twice")
        out[k] = v
    return out


def char_from_json(text: str) -> TruncChar:
    """Read `char_to_json` output; malformed input raises ``ValueError``.

    Values are integers or exact strings such as ``"-1/3"``; a JSON float
    is refused, so no binary fraction enters a coefficient.  Two keys that
    name one forest (``"[a]"`` and ``" [a]"``, or one key written twice)
    are refused rather than one value overwriting the other.
    """
    data = json.loads(text, object_pairs_hook=_json_object)
    if not isinstance(data, dict):
        raise ValueError("character file must hold a JSON object")
    N, values, flavor = (data.get(k) for k in ("N", "values", "flavor"))
    if type(N) is not int:
        raise ValueError(f"character 'N' must be an integer, got {N!r}")
    if not isinstance(values, dict):
        raise ValueError("character 'values' must be an object of "
                         "forest: value pairs")
    if not isinstance(flavor, str):
        raise ValueError(
            f"character 'flavor' must be a string, got {flavor!r}")
    vals, keys = {}, {}
    for k, v in values.items():
        try:
            f = parse_forest(k)
            vals[f] = _json_coeff(v)
        except ForestSyntaxError as err:
            raise ForestSyntaxError(f"key {k!r}: {err.message}",
                                    err.position) from None
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError(f"value {v!r} on {k} is not an integer or an "
                             "exact fraction string") from None
        if f in keys:
            raise ValueError(f"keys {keys[f]!r} and {k!r} both name the "
                             f"forest {f.text}")
        keys[f] = k
    return TruncChar(N, vals, flavor)


def char_to_csv(X: TruncChar) -> str:
    lines = ["forest,value"]
    rows = sorted(X._values.items(), key=lambda kv: ORDER_KEY(kv[0]))
    lines.extend(f"{f.text},{c}" for f, c in rows)
    return "\n".join(lines) + "\n"
