"""Text and JSON forms for linear combinations and tensors.

Rendering is canonical: terms are sorted in compare-order (degree, then
text), coefficients are exact rationals, and the empty word prints as 1.
The parser accepts sums with rational coefficients, juxtaposed bracket
groups as words, ``sh`` for the shuffle product, and ``(x)`` separating
tensor legs, so coproduct displays round-trip through text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable

from .forest import (FOREST_ONE, MAX_NESTING, NESTING_ERROR,
                     ForestSyntaxError, OrderedForest, _Letters,
                     forest_from_json, forest_to_json)
from .lincomb import Coeff, LinComb, Tensor, shuffle, tensor_of
from .regstruct import (RegTree, _Decorations, mi_zero, reg_tree,
                        reg_tree_from_json, reg_tree_to_json)

__all__ = [
    "render_lincomb", "render_tensor", "parse_lincomb", "parse_tensor",
    "parse_reg_lincomb", "lincomb_to_json", "lincomb_from_json",
    "reg_lincomb_to_json", "reg_lincomb_from_json", "tensor_to_json",
    "tensor_from_json",
]


# -- rendering ---------------------------------------------------------------

def _signed_sum(terms: Iterable[tuple[str, Coeff]]) -> str:
    """``terms``, pairs of body text and nonzero coefficient, as one signed
    sum; ``0`` when there are none."""
    parts: list[str] = []
    for body, c in terms:
        mag = abs(c)
        if mag != 1:
            body = f"{str(mag)}*{body}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts) or "0"


def render_lincomb(x: LinComb) -> str:
    """Canonical text of a linear combination, terms in compare-order."""
    items = sorted(x.items(), key=lambda kv: kv[0].sort_key())
    return _signed_sum((key.text, c) for key, c in items)


def render_tensor(t: Tensor) -> str:
    """Canonical text of a tensor, legs separated by (x)."""
    items = sorted(t.items(), key=lambda kv: tuple(k.sort_key() for k in kv[0]))
    return _signed_sum((" (x) ".join(k.text for k in key), c)
                       for key, c in items)


# -- parsing -----------------------------------------------------------------

_NUMBER = re.compile(r"\d+(?:/\d+)?")


class _Lexer:
    """Splits an expression into operators, rationals and word tokens.

    At ``[`` the lexer hands the text to ``word``, the bracket reader of
    the expression's keys, which reads a whole word (the forest
    ``[a[b]] [c]`` is one) and returns its value and end; the word token
    keeps that value.  A word that runs off the end of the text is an
    unbalanced ``[`` at the word's start.
    """

    def __init__(self, text: str, word: Callable[[str, int], tuple]):
        self.text = text
        self.tokens: list[tuple] = []
        self._scan(word)
        self.index = 0

    def _scan(self, word) -> None:
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if text.startswith("(x)", i):
                self.tokens.append(("otimes", "(x)", i))
                i += 3
                continue
            if text.startswith("sh", i) and (i + 2 == n or not text[i + 2].isalnum()):
                self.tokens.append(("sh", "sh", i))
                i += 2
                continue
            if ch in "+-*()":
                kind = {"+": "plus", "-": "minus", "*": "times",
                        "(": "lparen", ")": "rparen"}[ch]
                self.tokens.append((kind, ch, i))
                i += 1
                continue
            if ch == "[":
                try:
                    value, end = word(text, i)
                except ForestSyntaxError as err:
                    if err.position < n:
                        raise
                    raise ForestSyntaxError("unbalanced [", i) from None
                self.tokens.append(("word", text[i:end], i, value))
                i = end
                continue
            m = _NUMBER.match(text, i)
            if m:
                self.tokens.append(("number", m.group(0), i))
                i = m.end()
                continue
            raise ForestSyntaxError(f"unexpected character {ch!r}", i)

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ForestSyntaxError("unexpected end of expression", len(self.text))
        self.index += 1
        return tok


class _Parser:
    """Sum / tensor-term / shuffle-term / factor grammar over word atoms.
    ``unit()`` builds what a bare number scales, after the lexer has read
    every word, so a decorated unit takes the dimension they fixed."""

    def __init__(self, lexer: _Lexer,
                 shuffle_fn: Callable[[LinComb, LinComb], LinComb] | None,
                 unit: Callable[[], LinComb]):
        self.lex = lexer
        self.shuffle_fn = shuffle_fn
        self.unit = unit
        self.depth = 0

    def parse(self) -> Tensor:
        out = self.sum()
        tok = self.lex.peek()
        if tok is not None:
            raise ForestSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return out

    def sum(self) -> Tensor:
        negate = False
        tok = self.lex.peek()
        if tok is not None and tok[0] == "minus":
            self.lex.next()
            negate = True
        acc = self.tensor_term()
        if negate:
            acc = -acc
        while True:
            tok = self.lex.peek()
            if tok is None or tok[0] not in ("plus", "minus"):
                return acc
            self.lex.next()
            nxt = self.tensor_term()
            if nxt.arity != acc.arity:
                raise ForestSyntaxError("mixed tensor arity in sum", tok[2])
            acc = acc - nxt if tok[0] == "minus" else acc + nxt

    def tensor_term(self) -> Tensor:
        legs = [self.shuffle_term()]
        while True:
            tok = self.lex.peek()
            if tok is None or tok[0] != "otimes":
                break
            self.lex.next()
            legs.append(self.shuffle_term())
        return tensor_of(*legs)

    def shuffle_term(self) -> LinComb:
        acc = self.factor()
        while True:
            tok = self.lex.peek()
            if tok is None or tok[0] != "sh":
                return acc
            if self.shuffle_fn is None:
                raise ForestSyntaxError("shuffle is not defined here", tok[2])
            self.lex.next()
            acc = self.shuffle_fn(acc, self.factor())

    def factor(self) -> LinComb:
        # A run of "number *" prefixes folds into one coefficient.
        coeff = Fraction(1)
        while True:
            tok = self.lex.peek()
            if tok is None:
                raise ForestSyntaxError("expected a term", len(self.lex.text))
            if tok[0] != "number":
                out = self.atomic()
                return out if coeff == 1 else out.scale(coeff)
            self.lex.next()
            try:
                coeff *= Fraction(tok[1])
            except ZeroDivisionError:
                raise ForestSyntaxError("zero denominator", tok[2]) from None
            nxt = self.lex.peek()
            if nxt is None or nxt[0] != "times":
                return self.unit().scale(coeff)
            self.lex.next()

    def atomic(self) -> LinComb:
        tok = self.lex.next()
        if tok[0] == "word":
            return LinComb.basis(tok[3])
        if tok[0] == "lparen":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ForestSyntaxError(NESTING_ERROR, tok[2])
            inner = self.sum()
            self.depth -= 1
            close = self.lex.next()
            if close[0] != "rparen":
                raise ForestSyntaxError("expected )", close[2])
            if inner.arity != 1:
                raise ForestSyntaxError("tensor inside parentheses", tok[2])
            return _one_leg(inner)
        raise ForestSyntaxError(f"unexpected token {tok[1]!r}", tok[2])


def _one_leg(t: Tensor) -> LinComb:
    """A tensor of arity one as the combination it is."""
    return LinComb({key[0]: c for key, c in t.items()})


def _parse(text: str, word, shuffle_fn, unit: Callable[[], LinComb]) -> Tensor:
    return _Parser(_Lexer(text, word), shuffle_fn, unit).parse()


def _forest_unit() -> LinComb:
    return LinComb.basis(FOREST_ONE)


def parse_lincomb(text: str, alphabet=None) -> LinComb:
    """Parse a sum of forest words with rational coefficients."""
    out = _parse(text, _Letters(alphabet).word, shuffle, _forest_unit)
    if out.arity != 1:
        raise ForestSyntaxError("expected a plain sum, found tensor legs", 0)
    return _one_leg(out)


def parse_tensor(text: str, alphabet=None) -> Tensor:
    """Parse a sum of (x)-separated tensor terms over forest words."""
    return _parse(text, _Letters(alphabet).word, shuffle, _forest_unit)


def parse_reg_lincomb(text: str, d: int | None = None) -> LinComb:
    """Parse a sum of decorated words; dimension inferred when not given."""
    reader = _Decorations(d)
    out = _parse(text, reader.word, None,
                 lambda: LinComb.basis(reg_tree(mi_zero(reader.dim or 1))))
    if out.arity != 1:
        raise ForestSyntaxError("expected a plain sum, found tensor legs", 0)
    return _one_leg(out)


# -- JSON --------------------------------------------------------------------

def lincomb_to_json(x: LinComb) -> dict:
    items = sorted(x.items(), key=lambda kv: kv[0].sort_key())
    return {"terms": [{"coeff": str(c), "forest": forest_to_json(f)}
                      for f, c in items]}


def lincomb_from_json(obj: dict) -> LinComb:
    return LinComb.from_terms(
        (forest_from_json(t["forest"]), t["coeff"])
        for t in obj["terms"])


def reg_lincomb_to_json(x: LinComb) -> dict:
    items = sorted(x.items(), key=lambda kv: kv[0].sort_key())
    return {"terms": [{"coeff": str(c), "tree": reg_tree_to_json(t)}
                      for t, c in items]}


def reg_lincomb_from_json(obj: dict) -> LinComb:
    return LinComb.from_terms(
        (reg_tree_from_json(t["tree"]), t["coeff"])
        for t in obj["terms"])


def _leg_json(key) -> object:
    if isinstance(key, OrderedForest):
        return forest_to_json(key)
    if isinstance(key, RegTree):
        return reg_tree_to_json(key)
    raise TypeError(f"no JSON form for {type(key).__name__}")


def tensor_to_json(t: Tensor) -> dict:
    items = sorted(t.items(), key=lambda kv: tuple(k.sort_key() for k in kv[0]))
    return {"terms": [{"coeff": str(c), "legs": [_leg_json(k) for k in key]}
                      for key, c in items]}


def _leg_from_json(obj) -> OrderedForest | RegTree:
    # A list is a forest, an object a decorated tree: ``_leg_json`` reversed.
    return reg_tree_from_json(obj) if isinstance(obj, dict) else forest_from_json(obj)


def tensor_from_json(obj: dict) -> Tensor:
    terms = [(tuple(map(_leg_from_json, t["legs"])), t["coeff"])
             for t in obj["terms"]]
    arity = len(terms[0][0]) if terms else 2
    return Tensor.from_terms(arity, terms)
