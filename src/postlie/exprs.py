"""Text and JSON forms for linear combinations and tensors.

Rendering is canonical: terms are sorted in compare-order (degree, then
text), coefficients are exact rationals, and the empty word prints as 1.
The parser accepts sums with rational coefficients, juxtaposed bracket
groups as words, ``sh`` for the shuffle product, and ``(x)`` separating
tensor legs, so coproduct displays round-trip through text.

``parse_lincomb`` is a memo on the text and the alphabet as a set: equal
text parses once per process, and every later call returns the same
``LinComb``.  Malformed text is not cached, so it raises the same error on
every call.  The other parsers read their text afresh each time.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable

from .forest import (FOREST_ONE, MAX_NESTING, NESTING_ERROR, ORDER_KEY,
                     ForestSyntaxError, OrderedForest, _check_text, _Letters,
                     forest_from_json, forest_to_json)
from .lincomb import Coeff, LinComb, Tensor, as_coeff, shuffle
from .memo import memo
from .regstruct import (RegTree, _Decorations, mi_zero, reg_tree,
                        reg_tree_from_json, reg_tree_to_json)

__all__ = [
    "render_lincomb", "render_tensor", "parse_lincomb", "parse_tensor",
    "parse_reg_lincomb", "lincomb_to_json", "lincomb_from_json",
    "reg_lincomb_to_json", "reg_lincomb_from_json", "tensor_to_json",
    "tensor_from_json",
]


# -- rendering ---------------------------------------------------------------

def _leg_order(legs: tuple) -> tuple:
    return tuple(map(ORDER_KEY, legs))


def _signed_sum(terms: Iterable[tuple[str, bool, str]]) -> str:
    """``terms``, triples of body text, sign and magnitude text, as one
    signed sum; ``0`` when there are none."""
    out = "".join((" - " if negative else " + ")
                  + (body if mag == "1" else f"{mag}*{body}")
                  for body, negative, mag in terms)
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


def render_lincomb(x: LinComb) -> str:
    """Canonical text of a linear combination, terms in compare-order."""
    return _signed_sum((key.text, negative, mag)
                       for key, negative, mag in x.ordered_terms(ORDER_KEY))


def render_tensor(t: Tensor) -> str:
    """Canonical text of a tensor, legs separated by (x)."""
    return _signed_sum((" (x) ".join([k.text for k in legs]), negative, mag)
                       for legs, negative, mag in t.ordered_terms(_leg_order))


# -- parsing -----------------------------------------------------------------

_NUMBER = re.compile(r"\d+(?:/\d+)?")
_OPERATORS = {"+": "plus", "-": "minus", "*": "times", "(": "lparen",
              ")": "rparen"}


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
        append = self.tokens.append
        i = 0
        while i < n:
            ch = text[i]
            if ch == "[":
                try:
                    value, end = word(text, i)
                except ForestSyntaxError as err:
                    if err.position < n:
                        raise
                    raise ForestSyntaxError("unbalanced [", i) from None
                append(("word", text[i:end], i, value))
                i = end
            elif ch.isspace():
                i += 1
            elif ch in _OPERATORS:
                if ch == "(" and text.startswith("(x)", i):
                    append(("otimes", "(x)", i))
                    i += 3
                else:
                    append((_OPERATORS[ch], ch, i))
                    i += 1
            elif ch == "s" and text.startswith("sh", i) and (
                    i + 2 == n or not text[i + 2].isalnum()):
                append(("sh", "sh", i))
                i += 2
            else:
                m = _NUMBER.match(text, i)
                if m is None:
                    raise ForestSyntaxError(f"unexpected character {ch!r}", i)
                append(("number", m.group(0), i))
                i = m.end()

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

    Each rule returns its terms as a list of ``(key, coefficient)`` pairs:
    a basis key for one leg, a tuple of leg keys for more; like terms are
    summed only where a parenthesised sum ends, and the caller builds the
    value once from the whole sum.  A coefficient stays an ``int`` unless a
    number token holds ``/``.  ``unit()`` gives the key a bare number
    scales, called after the lexer has read every word, so a decorated unit
    takes the dimension they fixed."""

    def __init__(self, lexer: _Lexer,
                 shuffle_fn: Callable[[LinComb, LinComb], LinComb] | None,
                 unit: Callable[[], object]):
        self.lex = lexer
        self.shuffle_fn = shuffle_fn
        self.unit = unit
        self.depth = 0

    def parse(self) -> tuple[int, list]:
        out = self.sum()
        tok = self.lex.peek()
        if tok is not None:
            raise ForestSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return out

    def sum(self) -> tuple[int, list]:
        negate = False
        tok = self.lex.peek()
        if tok is not None and tok[0] == "minus":
            self.lex.next()
            negate = True
        arity, terms = self.tensor_term()
        if negate:
            terms = [(k, -c) for k, c in terms]
        while True:
            tok = self.lex.peek()
            if tok is None or tok[0] not in ("plus", "minus"):
                return arity, terms
            self.lex.next()
            nxt_arity, nxt = self.tensor_term()
            if nxt_arity != arity:
                raise ForestSyntaxError("mixed tensor arity in sum", tok[2])
            terms += [(k, -c) for k, c in nxt] if tok[0] == "minus" else nxt

    def tensor_term(self) -> tuple[int, list]:
        terms = self.shuffle_term()
        tok = self.lex.peek()
        if tok is None or tok[0] != "otimes":
            return 1, terms
        legs = [terms]
        while tok is not None and tok[0] == "otimes":
            self.lex.next()
            legs.append(self.shuffle_term())
            tok = self.lex.peek()
        terms = [((), 1)]
        for leg in legs:
            terms = [(key + (k,), c * c2) for key, c in terms for k, c2 in leg]
        return len(legs), terms

    def shuffle_term(self) -> list:
        acc = self.factor()
        while True:
            tok = self.lex.peek()
            if tok is None or tok[0] != "sh":
                return acc
            if self.shuffle_fn is None:
                raise ForestSyntaxError("shuffle is not defined here", tok[2])
            self.lex.next()
            acc = list(self.shuffle_fn(LinComb.from_terms(acc),
                                       LinComb.from_terms(self.factor())).items())

    def factor(self) -> list:
        # A run of "number *" prefixes folds into one coefficient.
        coeff = 1
        while True:
            tok = self.lex.peek()
            if tok is None:
                raise ForestSyntaxError("expected a term", len(self.lex.text))
            if tok[0] != "number":
                out = self.atomic()
                return out if coeff == 1 else [(k, c * coeff) for k, c in out]
            self.lex.next()
            if "/" in tok[1]:
                try:
                    coeff *= Fraction(tok[1])
                except ZeroDivisionError:
                    raise ForestSyntaxError("zero denominator", tok[2]) from None
            else:
                coeff *= int(tok[1])
            nxt = self.lex.peek()
            if nxt is None or nxt[0] != "times":
                return [(self.unit(), coeff)]
            self.lex.next()

    def atomic(self) -> list:
        tok = self.lex.next()
        if tok[0] == "word":
            return [(tok[3], 1)]
        if tok[0] == "lparen":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ForestSyntaxError(NESTING_ERROR, tok[2])
            arity, inner = self.sum()
            self.depth -= 1
            close = self.lex.next()
            if close[0] != "rparen":
                raise ForestSyntaxError("expected )", close[2])
            if arity != 1:
                raise ForestSyntaxError("tensor inside parentheses", tok[2])
            return list(LinComb.from_terms(inner).items())
        raise ForestSyntaxError(f"unexpected token {tok[1]!r}", tok[2])


def _parse(text: str, word, shuffle_fn, unit: Callable[[], object]
           ) -> tuple[int, list]:
    return _Parser(_Lexer(text, word), shuffle_fn, unit).parse()


def _one_leg(arity: int, terms: list) -> LinComb:
    """A parsed plain sum as the combination it is."""
    if arity != 1:
        raise ForestSyntaxError("expected a plain sum, found tensor legs", 0)
    return LinComb.from_terms(terms)


def _forest_unit() -> OrderedForest:
    return FOREST_ONE


def parse_lincomb(text: str, alphabet=None) -> LinComb:
    """Parse a sum of forest words with rational coefficients.

    The value is remembered per text and alphabet set (``"ab"``, ``["b",
    "a"]`` and ``{"a", "b"}`` are one key), so repeated text returns the
    same object; an error is raised afresh on every call."""
    _check_text(text)
    return _parse_lincomb(text, None if alphabet is None else frozenset(alphabet))


@memo
def _parse_lincomb(text: str, letters: frozenset | None) -> LinComb:
    return _one_leg(*_parse(text, _Letters(letters).word, shuffle, _forest_unit))


def parse_tensor(text: str, alphabet=None) -> Tensor:
    """Parse a sum of (x)-separated tensor terms over forest words."""
    _check_text(text)
    arity, terms = _parse(text, _Letters(alphabet).word, shuffle, _forest_unit)
    if arity == 1:
        terms = [((k,), c) for k, c in terms]
    return Tensor.from_terms(arity, terms)


def parse_reg_lincomb(text: str, d: int | None = None) -> LinComb:
    """Parse a sum of decorated words; dimension inferred when not given."""
    _check_text(text)
    reader = _Decorations(d)
    return _one_leg(*_parse(text, reader.word, None,
                            lambda: reg_tree(mi_zero(reader.dim or 1))))


# -- JSON --------------------------------------------------------------------

def _coeff_text(negative: bool, mag: str) -> str:
    return "-" + mag if negative else mag


def lincomb_to_json(x: LinComb) -> dict:
    return {"terms": [{"coeff": _coeff_text(negative, mag),
                       "forest": forest_to_json(f)}
                      for f, negative, mag in x.ordered_terms(ORDER_KEY)]}


def _json_coeff(value) -> Coeff:
    """An integer or an exact fraction string, as an exact coefficient; a
    float raises ``TypeError`` as in ``as_coeff``, any other value
    ``ValueError``."""
    if type(value) is int or isinstance(value, (str, float)):
        try:
            return as_coeff(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"term coefficient {value!r} is not an integer or an "
                     "exact fraction string")


def _json_terms(obj: dict, field: str, read) -> list[tuple]:
    """``(read(term[field]), coefficient)`` for each term of a JSON sum;
    a malformed shape or coefficient raises ``ValueError``."""
    terms = obj.get("terms") if isinstance(obj, dict) else None
    if not isinstance(terms, list) or not all(
            isinstance(t, dict) and "coeff" in t and field in t for t in terms):
        raise ValueError(f'expected a "terms" list, each term with "coeff" '
                         f'and "{field}"')
    return [(read(t[field]), _json_coeff(t["coeff"])) for t in terms]


def lincomb_from_json(obj: dict) -> LinComb:
    return LinComb.from_terms(_json_terms(obj, "forest", forest_from_json))


def reg_lincomb_to_json(x: LinComb) -> dict:
    return {"terms": [{"coeff": _coeff_text(negative, mag),
                       "tree": reg_tree_to_json(t)}
                      for t, negative, mag in x.ordered_terms(ORDER_KEY)]}


def reg_lincomb_from_json(obj: dict) -> LinComb:
    return LinComb.from_terms(_json_terms(obj, "tree", reg_tree_from_json))


def _leg_json(key) -> object:
    if isinstance(key, OrderedForest):
        return forest_to_json(key)
    if isinstance(key, RegTree):
        return reg_tree_to_json(key)
    raise TypeError(f"no JSON form for {type(key).__name__}")


def tensor_to_json(t: Tensor) -> dict:
    return {"terms": [{"coeff": _coeff_text(negative, mag),
                       "legs": [_leg_json(k) for k in legs]}
                      for legs, negative, mag in t.ordered_terms(_leg_order)]}


def _legs_from_json(legs: list) -> tuple:
    # A list is a forest, an object a decorated tree: ``_leg_json`` reversed.
    if not isinstance(legs, list) or not legs:
        raise ValueError("tensor legs must be a nonempty list")
    return tuple(reg_tree_from_json(leg) if isinstance(leg, dict)
                 else forest_from_json(leg) for leg in legs)


def tensor_from_json(obj: dict) -> Tensor:
    terms = _json_terms(obj, "legs", _legs_from_json)
    arities = {len(legs) for legs, _ in terms}
    if len(arities) > 1:
        raise ValueError("mixed tensor arity in sum")
    return Tensor.from_terms(arities.pop() if arities else 2, terms)
