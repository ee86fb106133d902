"""Doubly decorated planar trees and their deformed operations.

Trees here carry two decoration layers over a fixed dimension d: every
vertex holds a multi-index (polynomial content) and every edge holds a
multi-index (a derivative order riding on the edge).  A tree whose root is
decorated by m and carries planted branches s_1 ... s_k stands for the
product word X^m s_1 ... s_k in normal form, so a single interned type
covers the polynomial generators, the planted generators, and every word
built from them.

The operations:

* raising by l is the product X^l * x, adding l over the vertices with
  multinomial weights; lowering subtracts a unit from one root-adjacent
  edge decoration per term, dropping what would go negative;
* deformed grafting recurses on the right operand as planar grafting
  does: a word splits over the deshuffle of the left operand, and a
  planted tree plant(b, s) becomes plant(b, A * s), with * the
  Grossman-Larson style product below; its word product carries the
  componentwise binomial decoration transfers, and polynomial generators
  on the left act by raising;
* the associative word product (roots merge left to right; a unit vertex
  commutes past planted letters at the cost of one lowering term) and the
  Grossman-Larson style product built on it by deshuffling the left
  factor through the deformed graft;
* the dual coproduct, obtained by transposing the product, and the
  isomorphism between the two products that is the identity on single
  letters.

A note on grading.  Degree counts edges plus the norms of all decorations.
Both products are filtered but not graded for it: commuting a unit vertex
past a planted letter drops the degree by exactly two, so a full transpose
of the product would be an infinite sum.  The dual coproduct therefore
transposes the degree-preserving part (the associated graded product);
duality against the product is exact on degree-complementary pairs.
"""

from __future__ import annotations

import re
from itertools import product as iproduct
from math import comb
from typing import Iterator

from .forest import (ORDER_KEY, ForestSyntaxError, _check_text, _descend,
                     _json_list, _skip_ws)
from .lincomb import LinComb, Tensor, _deshuffle_words, graded_transpose
from .memo import memo

MultiIndex = tuple[int, ...]


# -- multi-index helpers ----------------------------------------------------

def mi_zero(d: int) -> MultiIndex:
    return (0,) * d


def mi_unit(d: int, j: int) -> MultiIndex:
    if not 0 <= j < d:
        raise ValueError(f"unit coordinate {j} outside dimension {d}")
    return tuple(1 if i == j else 0 for i in range(d))


def mi_add(m: MultiIndex, n: MultiIndex) -> MultiIndex:
    return tuple(a + b for a, b in zip(m, n))


def mi_sub(m: MultiIndex, n: MultiIndex) -> MultiIndex | None:
    """Componentwise difference, or None when any entry would go negative."""
    out = tuple(a - b for a, b in zip(m, n))
    return None if any(a < 0 for a in out) else out


def mi_norm(m: MultiIndex) -> int:
    return sum(m)


def mi_binom(m: MultiIndex, n: MultiIndex) -> int:
    """Componentwise product of binomial coefficients; zero unless n <= m."""
    out = 1
    for a, b in zip(m, n):
        if b > a:
            return 0
        out *= comb(a, b)
    return out


def mi_splits(m: MultiIndex) -> Iterator[tuple[MultiIndex, MultiIndex]]:
    """All componentwise decompositions m = n1 + n2."""
    for n1 in iproduct(*[range(a + 1) for a in m]):
        yield n1, tuple(a - b for a, b in zip(m, n1))


def _multi_index(entries, what: str) -> MultiIndex:
    """``entries`` as a tuple; an entry that is not an ``int``, a ``bool``
    included, raises ``ValueError`` naming ``what``."""
    m = tuple(entries)
    if any(type(a) is not int for a in m):
        raise ValueError(f"{what} must hold integers, got {m!r}")
    return m


def multiindices(d: int, norm: int) -> list[MultiIndex]:
    """All d-tuples of naturals with the given l1 norm."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if d == 1:
        return [(norm,)]
    out = []
    for first in range(norm + 1):
        for rest in multiindices(d - 1, norm - first):
            out.append((first,) + rest)
    return out


# -- the tree type ----------------------------------------------------------

class RegTree:
    """Interned planar rooted tree with vertex and edge decorations.

    ``dec`` is the root's multi-index, ``edges`` the ordered tuple of
    (edge decoration, subtree) pairs.  ``degree`` counts edges plus the
    norms of every decoration below and including this vertex, and ``text``
    is the canonical text: both are built once, from the subtrees' own.
    Instances are unique per shape (built only through ``_node``, the
    intern step behind ``reg_tree``, whose table is never cleared), so
    equality and hashing are Python's identity ones.
    """

    __slots__ = ("dec", "edges", "degree", "text")

    def __init__(self, dec: MultiIndex, edges: tuple):
        self.dec = dec
        self.edges = edges
        degree = sum(dec)
        parts = ["[o{", _render_mi(dec), "}"]
        for a, sub in edges:
            degree += 1 + sum(a) + sub.degree
            parts.append(sub.text)
            parts.append("{" + _render_mi(a) + "}")
        parts.append("]")
        self.degree = degree
        self.text = "".join(parts)

    @property
    def dim(self) -> int:
        return len(self.dec)

    @property
    def is_unit(self) -> bool:
        return self.degree == 0

    @property
    def letters(self) -> int:
        """Length of the word this tree denotes: root norm plus branch count."""
        return mi_norm(self.dec) + len(self.edges)

    def __repr__(self) -> str:
        return f"RegTree({self.text!r})"


_REG_TREES: dict[tuple, RegTree] = {}


def reg_tree(dec: MultiIndex, edges=()) -> RegTree:
    """Check, then intern, the tree with the given root decoration and child
    edges.  Every call checks, hits included: an entry that only compares
    equal to an int (1.0, True) is refused, not matched to that int's tree.
    Kernels that build from checked trees call ``_node`` instead."""
    dec = _multi_index(dec, "vertex decoration")
    edges = tuple((_multi_index(e, "edge decoration"), sub) for e, sub in edges)
    d = len(dec)
    if d < 1:
        raise ValueError("decoration dimension must be at least 1")
    if any(a < 0 for a in dec):
        raise ValueError("negative vertex decoration")
    for e, sub in edges:
        if not isinstance(sub, RegTree) or len(e) != d or sub.dim != d:
            raise ValueError("edge decoration or subtree dimension mismatch")
        if any(a < 0 for a in e):
            raise ValueError("negative edge decoration")
    return _node(dec, edges)


def _node(dec: MultiIndex, edges: tuple) -> RegTree:
    """Trusted: intern the tree of ``dec`` and ``edges``, int tuples of one
    dimension with nonnegative entries over interned subtrees, as kernels
    build them from trees they were given."""
    key = (dec, edges)
    got = _REG_TREES.get(key)
    if got is None:
        got = _REG_TREES.setdefault(key, RegTree(dec, edges))
    return got


def reg_one(d: int) -> RegTree:
    """The empty word: a bare zero-decorated root."""
    return reg_tree(mi_zero(d))


def x_power(m: MultiIndex) -> RegTree:
    """A single vertex decorated by m: the polynomial generator power."""
    return reg_tree(m)


def plant(a: MultiIndex, t: RegTree) -> RegTree:
    """Hang ``t`` under a fresh zero-decorated root via an edge decorated ``a``."""
    return reg_tree(mi_zero(len(a)), ((tuple(a), t),))


def _as_lin(x: LinComb | RegTree) -> LinComb:
    return x if isinstance(x, LinComb) else LinComb.basis(x)


def _check_dim(t1: RegTree, t2: RegTree) -> None:
    if t1.dim != t2.dim:
        raise ValueError(
            f"decoration dimension mismatch: {t1.dim} vs {t2.dim}")


# -- text and JSON ----------------------------------------------------------

def _render_mi(m: MultiIndex) -> str:
    return ",".join(str(a) for a in m)


def render_reg_tree(t: RegTree) -> str:
    """Canonical text: vertices as ``o{m}``, each child followed by ``{a}``."""
    return t.text


_INT = re.compile(r"\d+")


def _parse_group(text: str, pos: int) -> tuple[MultiIndex, int]:
    # text[pos] is '{'; accepts an optional 'a=' prefix and optional parens.
    pos = _skip_ws(text, pos + 1)
    if text.startswith("a", pos):
        nxt = _skip_ws(text, pos + 1)
        if nxt < len(text) and text[nxt] == "=":
            pos = _skip_ws(text, nxt + 1)
    paren = pos < len(text) and text[pos] == "("
    if paren:
        pos = _skip_ws(text, pos + 1)
    entries = []
    while True:
        m = _INT.match(text, pos)
        if m is None:
            raise ForestSyntaxError("expected a decoration number", pos)
        entries.append(int(m.group(0)))
        pos = _skip_ws(text, m.end())
        if pos < len(text) and text[pos] == ",":
            pos = _skip_ws(text, pos + 1)
        else:
            break
    if paren:
        if pos >= len(text) or text[pos] != ")":
            raise ForestSyntaxError("expected ')'", pos)
        pos = _skip_ws(text, pos + 1)
    if pos >= len(text) or text[pos] != "}":
        raise ForestSyntaxError("expected '}'", pos)
    return tuple(entries), pos + 1


_NO_DIM = "cannot infer the decoration dimension; give d or decorate something"


class _Decorations:
    """Vertex and edge decorations: after ``[`` an optional ``o`` and group
    ``{m}``, after each child an optional group ``{a}``; whitespace anywhere.
    ``dim`` is given or fixed by the first group in text order; subtrees
    read before that are bare, built at dimension 1 and widened later."""

    def __init__(self, d: int | None):
        self.dim = d

    def _group(self, text: str, pos: int) -> tuple[MultiIndex | None, int]:
        if not text.startswith("{", pos):
            return None, pos
        m, end = _parse_group(text, pos)
        if self.dim is None:
            self.dim = len(m)
        elif len(m) != self.dim:
            raise ForestSyntaxError(
                f"decoration has {len(m)} entries, expected {self.dim}", pos)
        return m, _skip_ws(text, end)

    def vertex(self, text: str, pos: int) -> tuple[MultiIndex | None, int]:
        pos = _skip_ws(text, pos)
        if text.startswith("o", pos):
            pos = _skip_ws(text, pos + 1)
        return self._group(text, pos)

    def edge(self, text: str, pos: int, kid: RegTree) -> tuple[tuple, int]:
        a, pos = self._group(text, _skip_ws(text, pos))
        return (a, kid), pos

    def node(self, dec: MultiIndex | None, kids: list) -> RegTree:
        d = 1 if self.dim is None else self.dim
        zero = mi_zero(d)
        return reg_tree(zero if dec is None else dec,
                        [(zero if a is None else a, _widen(kid, d))
                         for a, kid in kids])

    def word(self, text: str, pos: int) -> tuple[RegTree, int]:
        """One tree from ``text[pos] == '['``; a second one is trailing."""
        t, end = _descend(self, text, pos)
        nxt = _skip_ws(text, end)
        if text.startswith("[", nxt):
            raise ForestSyntaxError("trailing input after tree", nxt)
        if self.dim is None:
            raise ForestSyntaxError(_NO_DIM, pos)
        return t, end


def _widen(t: RegTree, d: int) -> RegTree:
    """An undecorated tree read before the dimension was known, at ``d``."""
    if t.dim == d:
        return t
    zero = mi_zero(d)
    return reg_tree(zero, [(zero, _widen(kid, d)) for _, kid in t.edges])


def parse_reg_tree(text: str, d: int | None = None) -> RegTree:
    """Parse decorated bracket text into a tree.

    Vertices read as ``o{m}`` and each child subtree may be followed by an
    edge annotation ``{a}``; an ``a=`` prefix and parentheses around the
    numbers are tolerated, as is omitting the ``o``.  Omitted decorations
    are zero.  The dimension comes from ``d`` or, failing that, from the
    first explicit multi-index.  Raises :class:`ForestSyntaxError` with a
    position on malformed input, and :class:`TypeError` when ``text`` is not
    a ``str``.
    """
    _check_text(text)
    reader = _Decorations(d)
    pos = _skip_ws(text, 0)
    if not text.startswith("[", pos):
        raise ForestSyntaxError("expected '['", pos)
    t, pos = _descend(reader, text, pos)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ForestSyntaxError("trailing input after tree", pos)
    if reader.dim is None:
        raise ForestSyntaxError(_NO_DIM, 0)
    return t


def reg_tree_to_json(t: RegTree) -> dict:
    return {"n": list(t.dec),
            "e": [{"a": list(a), "t": reg_tree_to_json(sub)} for a, sub in t.edges]}


def reg_tree_from_json(obj: dict) -> RegTree:
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValueError(f"not a decorated tree object: {obj!r}")
    edges = []
    for e in _json_list(obj.get("e", []), "tree edges 'e' must be a list"):
        if not isinstance(e, dict) or "a" not in e or "t" not in e:
            raise ValueError("each edge needs 'a' and 't' entries")
        edges.append((_json_list(e["a"], "edge decoration 'a' must be a list"),
                      reg_tree_from_json(e["t"])))
    return reg_tree(_json_list(obj["n"], "vertex decoration 'n' must be a list"),
                    edges)


# -- raising and lowering ---------------------------------------------------

def reg_raise(x: LinComb | RegTree, l: MultiIndex) -> LinComb:
    """Raise by ``l``: the product ``X^l * x`` of :func:`reg_gl_product`.

    The deshuffle of ``X^l`` splits it into ``X^n`` times ``X^(l-n)``
    with binomial weights; the first factor raises the root and the
    second grafts into the branches, raising each vertex below, so the
    sum over vertices picks up multinomial multiplicities.
    """
    l = _multi_index(l, "raise amount")
    if any(a < 0 for a in l):
        raise ValueError("raise amount must be componentwise nonnegative")
    lx = _as_lin(x)
    if any(t.dim != len(l) for t in lx.support()):
        raise ValueError("raise amount has the wrong dimension")
    return reg_gl_product(x_power(l), lx)


def _lower_tree(t: RegTree, i: MultiIndex) -> LinComb:
    # lower_root_adjacent on one tree, for a unit ``i`` of its dimension;
    # lowering different edges gives different trees.
    out: dict = {}
    for k, (a, sub) in enumerate(t.edges):
        na = mi_sub(a, i)
        if na is not None:
            eds = t.edges[:k] + ((na, sub),) + t.edges[k + 1:]
            out[_node(t.dec, eds)] = 1
    return LinComb._make(out)


def lower_root_adjacent(x: LinComb | RegTree, i: MultiIndex) -> LinComb:
    """Subtract the unit ``i`` from one root-adjacent edge decoration per term.

    Terms whose edge decoration would go negative vanish.
    """
    i = _multi_index(i, "lowering index")
    if mi_norm(i) != 1 or any(a < 0 for a in i):
        raise ValueError("lowering needs a unit multi-index")

    def lower(t: RegTree) -> LinComb:
        if len(i) != t.dim:
            raise ValueError("lowering index has the wrong dimension")
        return _lower_tree(t, i)

    return _as_lin(x).map_basis(lower)


# -- the associative word product -------------------------------------------

@memo
def reg_mul_trees(t1: RegTree, t2: RegTree) -> LinComb:
    _check_dim(t1, t2)
    j = next((k for k, a in enumerate(t2.dec) if a), None)
    if j is None:
        return LinComb.basis(_node(t1.dec, t1.edges + t2.edges))
    e = mi_unit(t1.dim, j)
    rest = _node(mi_sub(t2.dec, e), t2.edges)
    stepped = (LinComb.basis(_node(mi_add(t1.dec, e), t1.edges))
               + _lower_tree(t1, e))
    return stepped.map_basis(lambda s: reg_mul_trees(s, rest))


def reg_assoc_product(x: LinComb | RegTree, y: LinComb | RegTree) -> LinComb:
    """Associative product of normal-form words.

    A zero-rooted right factor merges roots keeping left-right branch
    order; a unit vertex on the right commutes past the left factor's
    planted letters, adding to the root decoration and spawning one
    root-adjacent lowering term.  The empty word is the unit.
    """
    return _as_lin(x).map_pairs(_as_lin(y), reg_mul_trees)


# -- deshuffle of words -----------------------------------------------------

@memo
def reg_deshuffle_tree(t: RegTree) -> Tensor:
    splits = _deshuffle_words(t.edges).items()
    acc: dict = {}
    for n1, n2 in mi_splits(t.dec):
        w = mi_binom(t.dec, n1)
        for (left, right), m in splits:
            key = (_node(n1, left), _node(n2, right))
            acc[key] = acc.get(key, 0) + w * m
    return Tensor._make(2, acc)


def reg_deshuffle(x: LinComb | RegTree) -> Tensor:
    """Unshuffle a word: letters are primitive, branch order is kept, and
    repeated unit vertices contribute componentwise binomial weights."""
    return _as_lin(x).apply_coproduct(reg_deshuffle_tree)


def _peel(t: RegTree) -> tuple[RegTree, RegTree]:
    # First letter of a nonempty word and the remaining word.
    j = next((k for k, a in enumerate(t.dec) if a), None)
    if j is not None:
        e = mi_unit(t.dim, j)
        return _node(e, ()), _node(mi_sub(t.dec, e), t.edges)
    return _node(mi_zero(t.dim), t.edges[:1]), _node(t.dec, t.edges[1:])


# -- deformed grafting ------------------------------------------------------

@memo
def reg_graft_trees(t1: RegTree, t2: RegTree) -> LinComb:
    _check_dim(t1, t2)
    if t1.is_unit:
        return LinComb.basis(t2)
    if t2.letters >= 2:
        u2, r2 = _peel(t2)
        return reg_deshuffle_tree(t1).contract(
            lambda a1: reg_graft_trees(a1, u2),
            lambda a2: reg_graft_trees(a2, r2), reg_mul_trees)
    if not t2.edges:
        return LinComb.zero()
    (b, sigma), = t2.edges
    root = mi_zero(t1.dim)
    return LinComb._adopt({_node(root, ((b, s),)): c
                           for s, c in reg_gl_trees(t1, sigma).items()})


def reg_graft(x: LinComb | RegTree, y: LinComb | RegTree) -> LinComb:
    """Deformed grafting, extended to whole words on both sides.

    The planar Guin-Oudom recursion on the right operand: the empty word
    acts as the identity; anything else sends the empty word and a
    polynomial generator to zero; a right word of two or more letters
    splits as u w into (A_(1) > u) . (A_(2) > w) over the deshuffle of
    the left operand A; and on a planted letter
    A > plant(b, s) = plant(b, A * s), with * the product of
    :func:`reg_gl_product`.  The word product inside ``A * s`` commutes
    the root decoration of ``s`` past the branches of ``A``, which gives
    the binomially weighted decoration transfers; a polynomial generator
    X_j as A raises every vertex of ``s`` by the unit j.
    """
    return _as_lin(x).map_pairs(_as_lin(y), reg_graft_trees)


def is_v_letter(t: RegTree) -> bool:
    """Generators of the deformed post-Lie algebra: a single planted tree
    (one root edge, zero root decoration) or a unit-decorated vertex."""
    if t.edges:
        return len(t.edges) == 1 and not any(t.dec)
    return mi_norm(t.dec) == 1


def _check_v(x: LinComb, op: str) -> None:
    for t in x.support():
        if not is_v_letter(t):
            raise ValueError(
                f"{op} needs operands in the span of planted trees "
                f"and unit vertices; got {t.text}")


def deformed_graft(x: LinComb | RegTree, y: LinComb | RegTree) -> LinComb:
    """The deformed post-Lie product on generator combinations.

    Same action as :func:`reg_graft` but restricted to the span of planted
    trees and unit vertices, which it preserves.
    """
    lx, ly = _as_lin(x), _as_lin(y)
    _check_v(lx, "deformed_graft")
    _check_v(ly, "deformed_graft")
    return reg_graft(lx, ly)


def _bracket_trees(t1: RegTree, t2: RegTree) -> LinComb:
    _check_dim(t1, t2)
    if t1.edges and t2.edges:
        return reg_mul_trees(t1, t2) - reg_mul_trees(t2, t1)
    if t1.edges:
        return _lower_tree(t1, t2.dec)
    if t2.edges:
        return -_lower_tree(t2, t1.dec)
    return LinComb.zero()


def bracket0(x: LinComb | RegTree, y: LinComb | RegTree) -> LinComb:
    """Lie bracket on generator combinations.

    Two planted trees bracket to the root-merge commutator; a planted tree
    against a unit vertex lowers a root-adjacent edge; two unit vertices
    commute.  Against the word product this is just the commutator, which
    the nested-bracket identities rely on.
    """
    lx, ly = _as_lin(x), _as_lin(y)
    _check_v(lx, "bracket0")
    _check_v(ly, "bracket0")
    return lx.map_pairs(ly, _bracket_trees)


# -- the Grossman-Larson style product --------------------------------------

@memo
def reg_gl_trees(a: RegTree, b: RegTree) -> LinComb:
    return reg_deshuffle_tree(a).contract(
        LinComb.basis, lambda a2: reg_graft_trees(a2, b), reg_mul_trees)


def reg_gl_product(x: LinComb | RegTree, y: LinComb | RegTree) -> LinComb:
    """Product A * B = A_(1) . (A_(2) grafted into B).

    Associative with the empty word as unit.  Not free: polynomial
    generators commute exactly, X^i * X^j = X^{i+j} = X^j * X^i.
    """
    return _as_lin(x).map_pairs(_as_lin(y), reg_gl_trees)


# -- graded enumeration -----------------------------------------------------

def enumerate_reg_trees(n: int, d: int,
                        max_norm: int | None = None) -> tuple[RegTree, ...]:
    """All decorated trees of degree ``n`` over dimension ``d``, sorted.

    ``max_norm`` caps each individual decoration norm (None means exact,
    no cap).  Only ``reg-basis --max-norm`` caps; the sweeps and the dual
    coproduct always enumerate exactly.
    """
    return _reg_tree_basis(n, d, max_norm)


@memo
def _reg_tree_basis(n: int, d: int,
                    max_norm: int | None) -> tuple[RegTree, ...]:
    if n < 0:
        return ()
    acc = []
    for p in range(n + 1):
        if max_norm is not None and p > max_norm:
            break
        for m in multiindices(d, p):
            for eds in _branch_seqs(n - p, d, max_norm):
                acc.append(_node(m, eds))
    return tuple(sorted(acc, key=ORDER_KEY))


def _branch_seqs(total: int, d: int, max_norm: int | None) -> list[tuple]:
    if total == 0:
        return [()]
    out = []
    for first_deg in range(1, total + 1):
        rests = _branch_seqs(total - first_deg, d, max_norm)
        for b in _branches(first_deg, d, max_norm):
            for r in rests:
                out.append((b,) + r)
    return out


def _branches(deg: int, d: int, max_norm: int | None) -> list[tuple]:
    # One (edge decoration, subtree) pair of degree deg = 1 + |a| + deg(sub).
    out = []
    top = deg - 1 if max_norm is None else min(deg - 1, max_norm)
    for q in range(top + 1):
        for a in multiindices(d, q):
            for sub in enumerate_reg_trees(deg - 1 - q, d, max_norm):
                out.append((a, sub))
    return out


def enumerate_v_letters(n: int, d: int) -> tuple[RegTree, ...]:
    """Degree ``n`` generators: unit vertices and planted trees."""
    return tuple(filter(is_v_letter, enumerate_reg_trees(n, d)))


# -- dual coproduct ---------------------------------------------------------

def _capped(x: LinComb | RegTree, maxdeg: int) -> LinComb:
    """``x`` as a combination, refused when its degree exceeds ``maxdeg``."""
    lx = _as_lin(x)
    top = lx.max_degree()
    if top > maxdeg:
        raise ValueError(f"degree overflow: input has degree {top}, cap {maxdeg}")
    return lx


@memo
def _reg_gl_transpose(n: int, d: int) -> dict[RegTree, Tensor]:
    return graded_transpose(n, lambda i: enumerate_reg_trees(i, d),
                            reg_gl_trees)


def deformed_mkw_tree(t: RegTree) -> Tensor:
    """Transpose of ``reg_gl_trees`` at ``t``, read off the transpose of
    its whole degree, which is computed once per degree and dimension."""
    return _reg_gl_transpose(t.degree, t.dim)[t]


def deformed_mkw_coproduct(x: LinComb | RegTree, maxdeg: int) -> Tensor:
    """Transpose of the degree-preserving part of the product.

    The product is filtered, not graded (commuting a unit vertex past a
    planted letter drops two degrees), so only degree-complementary dual
    pairs are summed; on those the duality with the product is exact, and
    the coproduct is coassociative as the dual of the associated graded.
    ``maxdeg`` only refuses input above it: each tree's transpose is taken
    at the tree's own degree.
    """
    return _capped(x, maxdeg).apply_coproduct(deformed_mkw_tree)


# -- isomorphism between the two products -----------------------------------

@memo
def _phi_tree(t: RegTree) -> LinComb:
    if t.letters <= 1:
        return LinComb.basis(t)
    # t = b * w - (b grafted into w), with b the first letter, so the
    # image is b . phi(w) - phi(b grafted into w).
    b, w = _peel(t)
    return (_phi_tree(w).map_basis(lambda s: reg_mul_trees(b, s))
            - reg_graft_trees(b, w).map_basis(_phi_tree))


@memo
def _psi_tree(t: RegTree) -> LinComb:
    if t.letters <= 1:
        return LinComb.basis(t)
    b, w = _peel(t)
    return _psi_tree(w).map_basis(lambda s: reg_gl_trees(b, s))


def phi_reg(x: LinComb | RegTree, maxdeg: int) -> LinComb:
    """Isomorphism from the deformed product onto the word product.

    The identity on single letters, computed by peeling the leading
    letter b of each word, which lowers the letter count at every step:
    phi(b * w) = b . phi(w) along those decompositions.  A coalgebra
    morphism for the deshuffle coproduct and bijective per graded piece.
    Not multiplicative on arbitrary pairs; the GL product envelops a
    different bracket on letters than the word product, so no
    identity-on-letters map can be (see X * I_0(.) vs I_0(.) * X).
    ``maxdeg`` guards the input degree.
    """
    return _capped(x, maxdeg).map_basis(_phi_tree)


def phi_reg_inverse(x: LinComb | RegTree, maxdeg: int) -> LinComb:
    """Inverse isomorphism: rebuilds each word as a left-nested * product."""
    return _capped(x, maxdeg).map_basis(_psi_tree)

