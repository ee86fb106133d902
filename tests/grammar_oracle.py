"""Reference bracket-text parsers: the three scanners the grammar replaced.

These are the parsers of ``postlie.forest``, ``postlie.regstruct`` and
``postlie.exprs`` as they stood before one recursive descent read all
bracket text, kept verbatim below this header as the oracle for
``tests/test_grammar.py``:

* ``parse_forest`` reads whitespace-separated trees by ``_parse_tree``;
* ``parse_reg_tree`` reads decorated text into raw nodes by ``_parse_reg``
  and ``_parse_group``, takes the dimension from ``_first_width`` and
  builds the tree by ``_build_reg``;
* ``_Lexer`` matches brackets to cut out word tokens, and ``_atom`` hands
  each word to one of the two parsers above, moving its error positions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable

from postlie.forest import (MAX_NESTING, NESTING_ERROR, ForestSyntaxError,
                            OrderedForest, PlanarTree, forest, tree)
from postlie.lincomb import LinComb, Tensor, shuffle, tensor_of
from postlie.regstruct import MultiIndex, RegTree, mi_zero, reg_tree


# -- postlie.forest ---------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z0-9_]+")

def _parse_tree(text: str, pos: int, alphabet: frozenset[str] | None,
                default: str | None, depth: int = 1) -> tuple[PlanarTree, int]:
    if pos >= len(text) or text[pos] != "[":
        raise ForestSyntaxError("expected '['", pos)
    if depth > MAX_NESTING:
        raise ForestSyntaxError(NESTING_ERROR, pos)
    pos += 1
    m = _TOKEN.match(text, pos)
    if m is not None:
        decoration = m.group(0)
        pos = m.end()
        if alphabet is not None and decoration not in alphabet:
            raise ForestSyntaxError(f"decoration {decoration!r} not in alphabet", m.start())
    elif default is not None:
        decoration = default
    else:
        raise ForestSyntaxError("missing decoration token", pos)
    children = []
    while pos < len(text) and text[pos] == "[":
        child, pos = _parse_tree(text, pos, alphabet, default, depth + 1)
        children.append(child)
    if pos >= len(text) or text[pos] != "]":
        raise ForestSyntaxError("expected ']'", pos)
    return tree(decoration, children), pos + 1


def parse_forest(text: str, alphabet: Iterable[str] | None = None) -> OrderedForest:
    """Parse bracket text into an ordered forest.

    ``alphabet`` restricts the admissible decoration tokens; with a singleton
    alphabet the token may be omitted inside brackets.  ``1`` (or an empty
    string of trees) is the empty forest.  Raises :class:`ForestSyntaxError`
    with a position on malformed input.
    """
    alpha = frozenset(alphabet) if alphabet is not None else None
    default = next(iter(alpha)) if alpha is not None and len(alpha) == 1 else None
    trees_: list[PlanarTree] = []
    pos = 0
    n = len(text)
    seen_unit = False
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch == "[":
            t, pos = _parse_tree(text, pos, alpha, default)
            trees_.append(t)
        elif ch == "1" and not trees_ and not seen_unit:
            seen_unit = True
            pos += 1
        else:
            raise ForestSyntaxError(f"unexpected character {ch!r}", pos)
    if seen_unit and trees_:
        raise ForestSyntaxError("unit '1' mixed with trees", 0)
    return forest(trees_)



# -- postlie.regstruct -----------------------------------------------------

_INT = re.compile(r"\d+")

# Raw parse nodes: (dec | None, dec_position, [(child_node, ann | None, ann_position)])


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


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


def _parse_reg(text: str, pos: int, depth: int = 1):
    if pos >= len(text) or text[pos] != "[":
        raise ForestSyntaxError("expected '['", pos)
    if depth > MAX_NESTING:
        raise ForestSyntaxError(NESTING_ERROR, pos)
    pos = _skip_ws(text, pos + 1)
    if pos < len(text) and text[pos] == "o":
        pos = _skip_ws(text, pos + 1)
    dec, dec_pos = None, pos
    if pos < len(text) and text[pos] == "{":
        dec, pos = _parse_group(text, pos)
        pos = _skip_ws(text, pos)
    kids = []
    while pos < len(text) and text[pos] == "[":
        child, pos = _parse_reg(text, pos, depth + 1)
        pos = _skip_ws(text, pos)
        ann, ann_pos = None, pos
        if pos < len(text) and text[pos] == "{":
            ann, pos = _parse_group(text, pos)
            pos = _skip_ws(text, pos)
        kids.append((child, ann, ann_pos))
    if pos >= len(text) or text[pos] != "]":
        raise ForestSyntaxError("expected ']'", pos)
    return (dec, dec_pos, kids), pos + 1


def _first_width(node) -> int | None:
    dec, _, kids = node
    if dec is not None:
        return len(dec)
    for child, ann, _ in kids:
        if ann is not None:
            return len(ann)
        got = _first_width(child)
        if got is not None:
            return got
    return None


def _build_reg(node, d: int) -> RegTree:
    dec, dec_pos, kids = node
    if dec is None:
        dec = mi_zero(d)
    elif len(dec) != d:
        raise ForestSyntaxError(
            f"decoration has {len(dec)} entries, expected {d}", dec_pos)
    edges = []
    for child, ann, ann_pos in kids:
        if ann is None:
            ann = mi_zero(d)
        elif len(ann) != d:
            raise ForestSyntaxError(
                f"decoration has {len(ann)} entries, expected {d}", ann_pos)
        edges.append((ann, _build_reg(child, d)))
    return reg_tree(dec, edges)


def parse_reg_tree(text: str, d: int | None = None) -> RegTree:
    """Parse decorated bracket text into a tree.

    Vertices read as ``o{m}`` and each child subtree may be followed by an
    edge annotation ``{a}``; an ``a=`` prefix and parentheses around the
    numbers are tolerated, as is omitting the ``o``.  Omitted decorations
    are zero.  The dimension comes from ``d`` or, failing that, from the
    first explicit multi-index.  Raises :class:`ForestSyntaxError` with a
    position on malformed input.
    """
    node, pos = _parse_reg(text, _skip_ws(text, 0))
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ForestSyntaxError("trailing input after tree", pos)
    width = d if d is not None else _first_width(node)
    if width is None:
        raise ForestSyntaxError(
            "cannot infer the decoration dimension; give d or decorate something", 0)
    return _build_reg(node, width)



# -- postlie.exprs ----------------------------------------------------------

_NUMBER = re.compile(r"\d+(?:/\d+)?")


class _Lexer:
    """Splits an expression into operators, rationals and word tokens.

    A word token is a maximal run of balanced bracket groups, so the
    whole forest [a[b]][c] comes out as one token and any decoration
    syntax inside the brackets is passed through untouched.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.index = 0

    def _scan(self) -> None:
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
                start = i
                depth = 0
                while i < n:
                    if text[i] == "[":
                        depth += 1
                    elif text[i] == "]":
                        depth -= 1
                        if depth < 0:
                            raise ForestSyntaxError("unbalanced ]", i)
                        if depth == 0:
                            j = i + 1
                            while j < n and text[j].isspace():
                                j += 1
                            if j < n and text[j] == "[":
                                i = j
                                continue
                            i += 1
                            break
                    i += 1
                else:
                    raise ForestSyntaxError("unbalanced [", start)
                self.tokens.append(("word", text[start:i], start))
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
    """Sum / tensor-term / shuffle-term / factor grammar over word atoms."""

    def __init__(self, lexer: _Lexer, atom: Callable[[str, int], LinComb],
                 shuffle_fn: Callable[[LinComb, LinComb], LinComb] | None,
                 unit: LinComb):
        self.lex = lexer
        self.atom = atom
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
                return self.unit.scale(coeff)
            self.lex.next()

    def atomic(self) -> LinComb:
        tok = self.lex.next()
        if tok[0] == "word":
            return self.atom(tok[1], tok[2])
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


def _atom(parse: Callable[[str], object]) -> Callable[[str, int], LinComb]:
    """The basis element of ``parse(token)``, a syntax error in the token
    moved to its position in the whole expression."""
    def atom(text: str, pos: int) -> LinComb:
        try:
            return LinComb.basis(parse(text))
        except ForestSyntaxError as err:
            raise ForestSyntaxError(err.message, pos + err.position) from None
    return atom


def _forest_atom(alphabet) -> Callable[[str, int], LinComb]:
    return _atom(lambda text: parse_forest(text, alphabet))


def _one_leg(t: Tensor) -> LinComb:
    """A tensor of arity one as the combination it is."""
    return LinComb({key[0]: c for key, c in t.items()})


def _parse(text: str, atom, shuffle_fn, unit) -> Tensor:
    return _Parser(_Lexer(text), atom, shuffle_fn, unit).parse()


def parse_lincomb(text: str, alphabet=None) -> LinComb:
    """Parse a sum of forest words with rational coefficients."""
    out = _parse(text, _forest_atom(alphabet), shuffle,
                 LinComb.basis(parse_forest("1")))
    if out.arity != 1:
        raise ForestSyntaxError("expected a plain sum, found tensor legs", 0)
    return _one_leg(out)


def parse_tensor(text: str, alphabet=None) -> Tensor:
    """Parse a sum of (x)-separated tensor terms over forest words."""
    return _parse(text, _forest_atom(alphabet), shuffle,
                  LinComb.basis(parse_forest("1")))


def parse_reg_lincomb(text: str, d: int | None = None) -> LinComb:
    """Parse a sum of decorated words; dimension inferred when not given."""
    dim = [d]

    def parse(tok: str) -> RegTree:
        t = parse_reg_tree(tok, dim[0])
        dim[0] = t.dim
        return t

    unit_text = "[o{" + ",".join("0" for _ in range(d or 1)) + "}]"
    out = _parse(text, _atom(parse), None,
                 LinComb.basis(parse_reg_tree(unit_text)))
    if out.arity != 1:
        raise ForestSyntaxError("expected a plain sum, found tensor legs", 0)
    return _one_leg(out)

