"""The one bracket grammar: error table, oracle comparison, robustness.

Every parse error text and position below is the one the library gave
before forests, decorated trees and expression words shared one recursive
descent; ``tests/grammar_oracle.py`` keeps those three scanners, and the
new parsers must accept exactly the texts they accepted, with equal values.
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grammar_oracle as oracle
import postlie
from postlie.exprs import render_lincomb
from postlie.forest import MAX_NESTING, ForestSyntaxError, forests_up_to
from postlie.lincomb import LinComb
from postlie.regstruct import enumerate_reg_trees

SRC = Path(postlie.__file__).parent

DEEP = "[o" * (MAX_NESTING + 1) + "]" * (MAX_NESTING + 1)
DEEP_REG = "[o" * (MAX_NESTING + 1) + "{1}" + "]" * (MAX_NESTING + 1)
DEEP_PARENS = "(" * (MAX_NESTING + 1) + "[o]" + ")" * (MAX_NESTING + 1)
NO_DIM = "cannot infer the decoration dimension; give d or decorate something"

# One single-fault input per error message: parser, text, its alphabet or
# dimension, message, position.  "unbalanced ]" has no row: no text
# reaches it, here or at the commit that recorded this table.
ERRORS = [
    ("parse_forest", "[a]x", None, "unexpected character 'x'", 3),
    ("parse_forest", "1[a]", None, "unit '1' mixed with trees", 0),
    ("parse_forest", "[a]1", None, "unexpected character '1'", 3),
    ("parse_forest", "[]", None, "missing decoration token", 1),
    ("parse_forest", "[a][z]", ("a", "b"), "decoration 'z' not in alphabet", 4),
    ("parse_forest", "[ab]", ("a", "b"), "decoration 'ab' not in alphabet", 1),
    ("parse_forest", "[a", None, "expected ']'", 2),
    ("parse_forest", "[a x]", None, "expected ']'", 2),
    ("parse_forest", "[a[b]", None, "expected ']'", 5),
    ("parse_forest", "[o]]", None, "unexpected character ']'", 3),
    ("parse_forest", "[[o]]", ("o", "a"), "missing decoration token", 1),
    ("parse_forest", DEEP, None, "nesting deeper than 100", 200),
    ("parse_reg_tree", "o{1}", None, "expected '['", 0),
    ("parse_reg_tree", "", None, "expected '['", 0),
    ("parse_reg_tree", "[o{x}]", None, "expected a decoration number", 3),
    ("parse_reg_tree", "[o{1,}]", None, "expected a decoration number", 5),
    ("parse_reg_tree", "[o{(1}]", None, "expected ')'", 5),
    ("parse_reg_tree", "[o{1]", None, "expected '}'", 4),
    ("parse_reg_tree", "[o{a=1 0}]", None, "expected '}'", 7),
    ("parse_reg_tree", "[o{1}] x", None, "trailing input after tree", 7),
    ("parse_reg_tree", "[o{1}][o{1}]", None, "trailing input after tree", 6),
    ("parse_reg_tree", "[o{1}[o{1,0}]]", None,
     "decoration has 2 entries, expected 1", 7),
    ("parse_reg_tree", "[o{1}[o]{1,0}]", None,
     "decoration has 2 entries, expected 1", 8),
    ("parse_reg_tree", "[o[o]]", None, NO_DIM, 0),
    ("parse_reg_tree", "[o{1}[o]{1}]", 2,
     "decoration has 1 entries, expected 2", 2),
    ("parse_reg_tree", "[o{1} x]", None, "expected ']'", 6),
    ("parse_reg_tree", "[o{1}", None, "expected ']'", 5),
    ("parse_reg_tree", DEEP_REG, None, "nesting deeper than 100", 200),
    ("parse_lincomb", "[a", None, "unbalanced [", 0),
    ("parse_lincomb", "[a] [b", None, "unbalanced [", 0),
    ("parse_lincomb", "[a] + [b", None, "unbalanced [", 6),
    ("parse_lincomb", "[a]]", None, "unexpected character ']'", 3),
    ("parse_lincomb", "[a] & [b]", None, "unexpected character '&'", 4),
    ("parse_lincomb", "([a]", None, "unexpected end of expression", 4),
    ("parse_lincomb", "[a])", None, "unexpected token ')'", 3),
    ("parse_tensor", "[a] (x) [b] + [c]", None, "mixed tensor arity in sum", 12),
    ("parse_tensor", "[a] - [a] (x) [b]", None, "mixed tensor arity in sum", 4),
    ("parse_reg_lincomb", "[o{1}] sh [o{0}]", None,
     "shuffle is not defined here", 7),
    ("parse_lincomb", "2*", None, "expected a term", 2),
    ("parse_lincomb", "1/0*[a]", None, "zero denominator", 0),
    ("parse_lincomb", "(2*1/0)", None, "zero denominator", 3),
    ("parse_lincomb", "([a] + [b] 2)", None, "expected )", 11),
    ("parse_tensor", "([a] (x) [b])", None, "tensor inside parentheses", 0),
    ("parse_lincomb", "[a] (x) [b]", None,
     "expected a plain sum, found tensor legs", 0),
    ("parse_lincomb", DEEP_PARENS, None, "nesting deeper than 100", 100),
    ("parse_lincomb", "2*[a x]", None, "expected ']'", 4),
    ("parse_lincomb", "[a] + [z]", ("a", "b"), "decoration 'z' not in alphabet", 7),
    ("parse_lincomb", "[a] + []", None, "missing decoration token", 7),
    ("parse_lincomb", "[a] + " + DEEP, None, "nesting deeper than 100", 206),
    ("parse_reg_lincomb", "2*[o]", None, NO_DIM, 2),
    ("parse_reg_lincomb", "[o{1}] [o{1}]", None, "trailing input after tree", 7),
    ("parse_reg_lincomb", "[o{1}] + [o{1,0}]", None,
     "decoration has 2 entries, expected 1", 11),
    ("parse_reg_lincomb", "[o{1}]", 2, "decoration has 1 entries, expected 2", 2),
    ("parse_reg_lincomb", "[o{1]", None, "expected '}'", 4),
    ("parse_reg_lincomb", "[o{1", None, "unbalanced [", 0),
    ("parse_reg_lincomb", "[o{1}] + [o{x}]", None,
     "expected a decoration number", 12),
    ("parse_reg_lincomb", "[o{1}] + " + DEEP_REG, None,
     "nesting deeper than 100", 209),
]


def _call(module, name, text, arg):
    fn = getattr(module, name)
    return fn(text) if arg is None else fn(text, arg)


@pytest.mark.parametrize("name,text,arg,message,position", ERRORS,
                         ids=[f"{r[0]}:{r[1][:24]}" for r in ERRORS])
def test_every_error_message_keeps_its_text_and_position(name, text, arg,
                                                         message, position):
    for module in (postlie, oracle):
        with pytest.raises(ForestSyntaxError) as err:
            _call(module, name, text, arg)
        assert (err.value.message, err.value.position) == (message, position)


def test_width_comes_from_the_first_multi_index_in_text_order():
    with pytest.raises(ForestSyntaxError) as err:
        postlie.parse_reg_tree("[o[o{1,0}]{1}]")
    assert (err.value.message, err.value.position) == (
        "decoration has 1 entries, expected 2", 10)
    got = postlie.parse_reg_tree("[o[o][o{1,0}]{0,1}]")
    assert got.dim == 2 and got.edges[1][0] == (0, 1)
    assert got is postlie.parse_reg_tree("[o{0,0}[o{0,0}]{0,0}[o{1,0}]{0,1}]")


def test_a_word_with_an_inner_fault_reports_that_fault():
    with pytest.raises(ForestSyntaxError) as err:
        postlie.parse_lincomb("[a x")
    assert (err.value.message, err.value.position) == ("expected ']'", 2)


# -- the new parsers against the oracle ---------------------------------------

_MUTATIONS = "[]{}(),=ao01 +-*/xb"


def _mutants(text: str, rng: random.Random, count: int):
    """``text``, whitespace-padded variants and single-character edits."""
    yield text
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(4)
        c = rng.choice(_MUTATIONS)
        if kind == 0:
            yield text[:i] + rng.choice(" \t\n") + text[i:]
        elif kind == 1:
            yield text[:i] + c + text[i:]
        elif kind == 2 and i < len(text):
            yield text[:i] + text[i + 1:]
        elif i < len(text):
            yield text[:i] + c + text[i + 1:]


def _outcome(module, name, text, arg):
    try:
        return True, _call(module, name, text, arg)
    except ForestSyntaxError:
        return False, None


_FORESTS = [f.text for a in (("a", "b"), ("o",))
            for f in forests_up_to(3, a) if f.degree]
_REG_TREES = [t.text for d in (1, 2) for n in range(3)
              for t in enumerate_reg_trees(n, d)]


def _sums(texts, rng, count):
    for _ in range(count):
        terms = rng.sample(texts, rng.randint(1, 3))
        yield " + ".join(f"{rng.randint(1, 3)}*{t}" for t in terms)


def _forest_texts():
    rng = random.Random(16)
    bases = _FORESTS + list(_sums(_FORESTS, rng, 40)) + [
        "[a] [b]", "1 + [o]", "[a] (x) [b][a] - 1/2*[b] (x) 1",
        "[a] sh [b] (x) [a]", "(1 + [a]) sh [b]"]
    return [m for b in bases for m in _mutants(b, rng, 12)]


def _reg_texts():
    rng = random.Random(61)
    odd = ["[{1}]", "[ o { a = ( 1 , 0 ) } [o] { 1, 1 } ]",
           "[o[o][o{1,0}]{0,1}]", "[o[o{1,0}]{1}]", "[o] + [o{1}]",
           "[o{1}] + [o]", "[o{1}][o{1}]", "[o{1}] [o{0}]"]
    bases = _REG_TREES + list(_sums(_REG_TREES[:12], rng, 20)) + odd
    return [m for b in bases for m in _mutants(b, rng, 12)]


@pytest.mark.parametrize("name,args", [
    ("parse_forest", (None, ("a", "b"), ("o",))),
    ("parse_lincomb", (None, ("a", "b"), ("o",))),
    ("parse_tensor", (None, ("a", "b"))),
])
def test_forest_parsers_agree_with_the_oracle(name, args):
    for text in _forest_texts():
        for arg in args:
            assert _outcome(postlie, name, text, arg) == \
                _outcome(oracle, name, text, arg), (text, arg)


@pytest.mark.parametrize("name", ["parse_reg_tree", "parse_reg_lincomb"])
def test_decorated_parsers_agree_with_the_oracle(name):
    for text in _reg_texts():
        for d in (None, 1, 2):
            assert _outcome(postlie, name, text, d) == \
                _outcome(oracle, name, text, d), (text, d)


def test_units_are_the_parsed_ones():
    assert postlie.parse_lincomb("2") == oracle.parse_lincomb("2")
    assert postlie.parse_tensor("3") == oracle.parse_tensor("3")
    for d in (None, 1, 3):
        assert postlie.parse_reg_lincomb("2", d) == \
            oracle.parse_reg_lincomb("2", d)
    x = LinComb.basis(postlie.parse_reg_tree("[o{0,0}]")).scale(2)
    assert render_lincomb(postlie.parse_reg_lincomb("2", 2)) == \
        render_lincomb(x)


# -- robustness ---------------------------------------------------------------

_PIECES = list("[]{}(),=ao01 +-*/") + ["sh", "(x)"]
_PARSERS = [(n, a) for n in ("parse_forest", "parse_lincomb", "parse_tensor")
            for a in (None, ("o",))] + [
    (n, d) for n in ("parse_reg_tree", "parse_reg_lincomb") for d in (None, 2)]


@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_fails_with_a_position_inside_it(text):
    for name, arg in _PARSERS:
        try:
            _call(postlie, name, text, arg)
        except ForestSyntaxError as err:
            assert 0 <= err.position <= len(text), (name, arg, err)


def test_nesting_is_bounded_in_one_descent_and_one_parenthesis_rule():
    """``MAX_NESTING`` is compared in the bracket descent and in
    ``_Parser.atomic`` only, so no other scanner of bracket text exists."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = scope + (node.name,)
            if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Name) and n.id == "MAX_NESTING"
                    for n in ast.walk(node)):
                found.add(".".join((path.stem,) + scope))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    assert found == {"forest._descend", "exprs._Parser.atomic"}
