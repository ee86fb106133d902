"""Decorated planar rooted trees and ordered forests.

A tree is written in bracket form as ``[d ...]`` where ``d`` is the root
decoration and ``...`` is the (ordered) list of child subtrees.  A forest
is a juxtaposition of trees read left to right; the empty forest renders
as ``1``.  Examples: ``[a]``, ``[a[b][c[d]]]``, ``[a[b]][c]``.

When the session alphabet has a single letter the decoration token may be
omitted, so ``[[][]]`` parses as ``[o[o][o]]`` over alphabet ``{"o"}``.

Trees and forests are immutable and hash-consed: structurally equal values
are the same object, and child order is load-bearing (``[a[b][c]]`` differs
from ``[a[c][b]]``).  So equality and hashing are Python's identity ones.
That rests on every instance being built through ``tree`` or ``forest`` and
on their intern tables never being cleared.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .memo import memo


class ForestSyntaxError(ValueError):
    """Raised on malformed bracket text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class PlanarTree:
    __slots__ = ("decoration", "children", "degree", "text")

    def __init__(self, decoration: str, children: tuple["PlanarTree", ...]):
        self.decoration = decoration
        self.children = children
        degree = 1
        parts = ["[", decoration]
        for c in children:
            if not isinstance(c, PlanarTree):
                raise TypeError(f"tree child must be a PlanarTree, "
                                f"not {type(c).__name__}")
            degree += c.degree
            parts.append(c.text)
        parts.append("]")
        self.degree = degree
        self.text = "".join(parts)

    def __repr__(self) -> str:
        return f"PlanarTree({self.text!r})"


_TREES: dict[tuple[str, tuple[PlanarTree, ...]], PlanarTree] = {}


def tree(decoration: str, children: Iterable[PlanarTree] = ()) -> PlanarTree:
    """Intern and return the tree with the given root decoration and children."""
    kids = tuple(children)
    key = (decoration, kids)
    t = _TREES.get(key)
    if t is None:
        t = _TREES.setdefault(key, PlanarTree(_token(decoration), kids))
    return t


@memo
def _token(decoration: str) -> str:
    """``decoration`` if it is one decoration token, so that every tree's
    text parses back; else ``TypeError`` or ``ValueError``."""
    if not isinstance(decoration, str):
        raise TypeError(f"tree decoration must be a str, "
                        f"not {type(decoration).__name__}")
    if TOKEN.fullmatch(decoration) is None:
        raise ValueError(
            f"tree decoration {decoration!r} is not one decoration token")
    return decoration


def leaf(decoration: str) -> PlanarTree:
    return tree(decoration, ())


class OrderedForest:
    __slots__ = ("trees", "degree", "text")

    def __init__(self, trees_: tuple[PlanarTree, ...]):
        self.trees = trees_
        degree = 0
        parts = []
        for t in trees_:
            if not isinstance(t, PlanarTree):
                raise TypeError(f"forest tree must be a PlanarTree, "
                                f"not {type(t).__name__}")
            degree += t.degree
            parts.append(t.text)
        self.degree = degree
        self.text = "".join(parts) or "1"

    @property
    def is_empty(self) -> bool:
        return not self.trees

    def __len__(self) -> int:
        return len(self.trees)

    def __repr__(self) -> str:
        return f"OrderedForest({self.text!r})"


_FORESTS: dict[tuple[PlanarTree, ...], OrderedForest] = {}


def forest(trees_: Iterable[PlanarTree]) -> OrderedForest:
    """Intern and return the ordered forest with the given trees."""
    kids = tuple(trees_)
    f = _FORESTS.get(kids)
    if f is None:
        f = _FORESTS.setdefault(kids, OrderedForest(kids))
    return f


FOREST_ONE = forest(())


def single(t: PlanarTree) -> OrderedForest:
    return forest((t,))


def word(f1: OrderedForest, f2: OrderedForest) -> OrderedForest:
    """Concatenate two forests as words of trees."""
    if f1.is_empty:
        return f2
    if f2.is_empty:
        return f1
    return forest(f1.trees + f2.trees)


def letters_in(*forests: OrderedForest) -> tuple[str, ...]:
    """Sorted decorations that occur anywhere in the given forests."""
    out: set[str] = set()
    stack = [t for f in forests for t in f.trees]
    while stack:
        t = stack.pop()
        out.add(t.decoration)
        stack.extend(t.children)
    return tuple(sorted(out))


def b_plus(f: OrderedForest, decoration: str) -> PlanarTree:
    """Graft every tree of ``f`` onto a new root carrying ``decoration``."""
    return tree(decoration, f.trees)


def b_minus(t: PlanarTree) -> OrderedForest:
    """Remove the root, returning the ordered forest of its branches."""
    return forest(t.children)


# Compare-order, by degree and then by canonical text: the one key to sort
# trees, forests and decorated trees by, read at C level.
ORDER_KEY = attrgetter("degree", "text")


# The one decoration token of plain forests: a letter of an alphabet.
TOKEN = re.compile(r"[A-Za-z0-9_]+")

# Deepest bracket or parenthesis nesting the recursive parsers accept; far
# beyond any computable degree, and well inside Python's recursion limit.
MAX_NESTING = 100
NESTING_ERROR = f"nesting deeper than {MAX_NESTING}"


def _check_text(text) -> None:
    """Refuse parser input that is not a ``str`` before anything reads it."""
    if not isinstance(text, str):
        raise TypeError(f"text must be a str, not {type(text).__name__}")


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _descend(reader, text: str, pos: int, depth: int = 1):
    """The bracket tree opening at ``text[pos]``, and the position after it:
    ``[``, what ``reader.vertex`` reads, each child followed by what
    ``reader.edge`` reads, ``]``.  ``reader.node`` builds the tree."""
    if depth > MAX_NESTING:
        raise ForestSyntaxError(NESTING_ERROR, pos)
    dec, pos = reader.vertex(text, pos + 1)
    kids = []
    while text.startswith("[", pos):
        kid, pos = _descend(reader, text, pos, depth + 1)
        kid, pos = reader.edge(text, pos, kid)
        kids.append(kid)
    if not text.startswith("]", pos):
        raise ForestSyntaxError("expected ']'", pos)
    return reader.node(dec, kids), pos + 1


class _Letters:
    """Plain decorations: one letter token right after ``[``, or none over a
    one-letter alphabet; whitespace only between trees."""

    def __init__(self, alphabet: Iterable[str] | None):
        self.alphabet = None if alphabet is None else frozenset(alphabet)
        self.default = (next(iter(self.alphabet)) if self.alphabet
                        and len(self.alphabet) == 1 else None)

    def vertex(self, text: str, pos: int) -> tuple[str, int]:
        m = TOKEN.match(text, pos)
        if m is None:
            if self.default is None:
                raise ForestSyntaxError("missing decoration token", pos)
            return self.default, pos
        letter = m.group()
        if self.alphabet is not None and letter not in self.alphabet:
            raise ForestSyntaxError(f"decoration {letter!r} not in alphabet", pos)
        return letter, m.end()

    edge = staticmethod(lambda text, pos, kid: (kid, pos))
    node = staticmethod(tree)

    def word(self, text: str, pos: int) -> tuple[OrderedForest, int]:
        """The trees from ``text[pos] == '['`` on, whitespace between them."""
        trees_ = []
        while True:
            t, end = _descend(self, text, pos)
            trees_.append(t)
            pos = _skip_ws(text, end)
            if not text.startswith("[", pos):
                return forest(trees_), end


def parse_forest(text: str, alphabet: Iterable[str] | None = None) -> OrderedForest:
    """Parse bracket text into an ordered forest.

    ``alphabet`` restricts the admissible decoration tokens; with a singleton
    alphabet the token may be omitted inside brackets.  ``1`` (or an empty
    string of trees) is the empty forest.  Raises :class:`ForestSyntaxError`
    with a position on malformed input, and :class:`TypeError` when
    ``text`` is not a ``str``.
    """
    _check_text(text)
    pos = _skip_ws(text, 0)
    unit = text.startswith("1", pos)
    if unit:
        pos = _skip_ws(text, pos + 1)
    f = FOREST_ONE
    if text.startswith("[", pos):
        f, pos = _Letters(alphabet).word(text, pos)
        pos = _skip_ws(text, pos)
    if pos < len(text):
        raise ForestSyntaxError(f"unexpected character {text[pos]!r}", pos)
    if unit and f.trees:
        raise ForestSyntaxError("unit '1' mixed with trees", 0)
    return f


def render_forest(f: OrderedForest) -> str:
    """Canonical bracket text; inverse of :func:`parse_forest` on its image."""
    return f.text


# -- enumeration ------------------------------------------------------------

def _canon_alphabet(alphabet: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(alphabet)))


def enumerate_trees(n: int, alphabet: Iterable[str]) -> tuple[PlanarTree, ...]:
    """All decorated planar trees with exactly ``n`` vertices, in compare-order."""
    return _tree_basis(n, _canon_alphabet(alphabet))


@memo
def _tree_basis(n: int, alpha: tuple[str, ...]) -> tuple[PlanarTree, ...]:
    if n <= 0:
        return ()
    return tuple(
        sorted(
            (tree(d, f.trees)
             for d in alpha
             for f in enumerate_forests(n - 1, alpha)),
            key=ORDER_KEY,
        )
    )


def enumerate_forests(n: int, alphabet: Iterable[str]) -> tuple[OrderedForest, ...]:
    """All ordered forests with exactly ``n`` vertices, in compare-order.

    Over a one-letter alphabet the count at degree ``n`` is the Catalan
    number C(n); decorations multiply that by ``len(alphabet) ** n``.
    """
    return _forest_basis(n, _canon_alphabet(alphabet))


@memo
def _forest_basis(n: int, alpha: tuple[str, ...]) -> tuple[OrderedForest, ...]:
    if n < 0:
        return ()
    if n == 0:
        return (FOREST_ONE,)
    found = [
        forest((first,) + rest.trees)
        for k in range(1, n + 1)
        for first in enumerate_trees(k, alpha)
        for rest in enumerate_forests(n - k, alpha)
    ]
    return tuple(sorted(found, key=ORDER_KEY))


def forests_up_to(n: int, alphabet: Iterable[str]) -> Iterator[OrderedForest]:
    for k in range(n + 1):
        yield from enumerate_forests(k, alphabet)


# -- JSON -------------------------------------------------------------------

def tree_to_json(t: PlanarTree) -> dict:
    return {"d": t.decoration, "c": [tree_to_json(c) for c in t.children]}


def _json_list(obj, message: str) -> Sequence:
    """``obj`` when it is a JSON list (a sequence, not text); else ValueError."""
    if not isinstance(obj, Sequence) or isinstance(obj, (str, bytes)):
        raise ValueError(message)
    return obj


def tree_from_json(obj: dict) -> PlanarTree:
    if not isinstance(obj, dict) or "d" not in obj:
        raise ValueError(f"not a tree object: {obj!r}")
    children = _json_list(obj.get("c", []), "tree children must be a list")
    dec = obj["d"]
    if not isinstance(dec, str):
        raise ValueError(f"tree decoration {dec!r} is not one decoration token")
    return tree(dec, (tree_from_json(c) for c in children))


def forest_to_json(f: OrderedForest) -> list:
    return [tree_to_json(t) for t in f.trees]


def forest_from_json(obj: list) -> OrderedForest:
    _json_list(obj, "forest must be a list of trees")
    return forest(tree_from_json(t) for t in obj)
