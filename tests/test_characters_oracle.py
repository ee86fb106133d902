"""Rough-path characters by one recursion, against the series and antipode.

``characters_oracle`` keeps the lift as the Grossman-Larson exponential and
the inverse as the pairing with the flavor's antipode.  On characters the
recursion must give the same functionals: the lifts of increments on ``o``
at N = 6, ``a,b`` at N = 5 and ``a,b,c`` at N = 4, their inverses, and the
inverses of their tensor-flavor embeddings.  On functionals that are not
characters only the recursion is a convolution inverse.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import characters_oracle as ref
from postlie.characters import (TruncChar, canonical_lift, char_convolve,
                                char_inverse, counit_char, embed_rough_path)
from postlie.forest import forests_up_to

SRC = Path(__file__).parent.parent / "src" / "postlie"

LIFTS = [({"o": Fraction(1, 2)}, 6),
         ({"a": 1, "b": Fraction(-1, 3)}, 5),
         ({"a": Fraction(2, 3), "b": -1, "c": Fraction(1, 4)}, 4)]


@pytest.mark.parametrize("increments,N", LIFTS)
def test_lift_is_the_exponential_series(increments, N):
    assert canonical_lift(increments, N) == ref.canonical_lift(increments, N)


@pytest.mark.parametrize("increments,N", LIFTS)
def test_inverse_of_a_character_is_its_antipode_pairing(increments, N):
    X = canonical_lift(increments, N)
    for Y in (X, embed_rough_path(X)):
        assert char_inverse(Y) == ref.char_inverse(Y), Y.flavor


AB_FORESTS = [f for f in forests_up_to(3, ("a", "b")) if not f.is_empty]


@given(st.dictionaries(st.sampled_from(AB_FORESTS),
                       st.fractions(-3, 3, max_denominator=4), max_size=8),
       st.sampled_from(["mkw", "tensor"]))
@settings(max_examples=40, deadline=None)
def test_inverse_of_any_functional_inverts_on_both_sides(values, flavor):
    X = TruncChar(3, values, flavor)
    inv = char_inverse(X)
    one = counit_char(3, flavor)
    assert char_convolve(X, inv) == one
    assert char_convolve(inv, X) == one


def _names(tree: ast.AST) -> list[tuple[str, str]]:
    """(enclosing top-level function or "", name) for every name read."""
    found = []
    for top in tree.body:
        scope = top.name if isinstance(top, ast.FunctionDef) else ""
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.append((scope, node.id))
            elif isinstance(node, ast.Attribute):
                found.append((scope, node.attr))
            elif isinstance(node, ast.alias):
                found.append((scope, node.name))
    return found


def test_characters_use_one_coproduct_pass():
    """No series exponential and no antipode; the flavor's coproduct is
    picked once, inside the recursion."""
    names = _names(ast.parse((SRC / "characters.py").read_text()))
    assert not {n for _, n in names} & {"gl_exp", "mkw_antipode",
                                        "concat_antipode"}
    picks = [(scope, n) for scope, n in names
             if n in {"mkw_coproduct_forest", "deconcat_forest"} and scope]
    assert picks == [("_convolved", "mkw_coproduct_forest"),
                     ("_convolved", "deconcat_forest")]
