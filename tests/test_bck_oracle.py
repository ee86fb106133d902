"""Nonplanar forests as canonical planar forests, against the reference.

``bck_oracle`` keeps the earlier ``postlie.bck`` with its own nonplanar tree
and forest types.  Every operation must agree with it through the rendered
text on every forest of degree <= 5 over ``o`` and <= 4 over ``a,b``, and on
every pair of them within that degree.
"""

import pytest

import bck_oracle as ref
from postlie import bck as new
from postlie.exprs import render_lincomb, render_tensor
from postlie.forest import forests_up_to
from postlie.lincomb import LinComb

CASES = [(("o",), 5), (("a", "b"), 4)]


def texts(forests):
    return [f.text for f in forests]


def basis_pair(text, alphabet):
    return (LinComb.basis(new.np_parse(text, alphabet)),
            LinComb.basis(ref.np_parse(text, alphabet)))


@pytest.mark.parametrize("alphabet,maxdeg", CASES)
def test_enumerations_match_values_and_order(alphabet, maxdeg):
    for n in range(-1, maxdeg + 1):
        assert texts(new.enumerate_np_trees(n, alphabet)) \
            == texts(ref.enumerate_np_trees(n, alphabet))
        assert texts(new.enumerate_np_forests(n, alphabet)) \
            == texts(ref.enumerate_np_forests(n, alphabet))


@pytest.mark.parametrize("alphabet,maxdeg", CASES)
def test_forget_planarity_matches(alphabet, maxdeg):
    for f in forests_up_to(maxdeg, alphabet):
        x = LinComb.basis(f)
        assert render_lincomb(new.forget_planarity(x)) \
            == render_lincomb(ref.forget_planarity(x))


@pytest.mark.parametrize("alphabet,maxdeg", CASES)
def test_unary_operations_match(alphabet, maxdeg):
    for n in range(maxdeg + 1):
        for f in ref.enumerate_np_forests(n, alphabet):
            x, y = basis_pair(f.text, alphabet)
            assert render_tensor(new.bck_coproduct(x)) \
                == render_tensor(ref.bck_coproduct(y))
            assert render_lincomb(new.bck_antipode(x)) \
                == render_lincomb(ref.bck_antipode(y))
            assert render_lincomb(new.bck_primitive_projection(x)) \
                == render_lincomb(ref.bck_primitive_projection(y))
            if n:
                assert render_tensor(new.bck_reduced(x)) \
                    == render_tensor(ref.bck_reduced(y))


@pytest.mark.parametrize("alphabet,maxdeg", CASES)
def test_binary_operations_match(alphabet, maxdeg):
    pool = [f.text for n in range(maxdeg + 1)
            for f in ref.enumerate_np_forests(n, alphabet)]
    pairs = 0
    for s in pool:
        for t in pool:
            x1, y1 = basis_pair(s, alphabet)
            x2, y2 = basis_pair(t, alphabet)
            if x1.max_degree() + x2.max_degree() > maxdeg:
                continue
            pairs += 1
            assert render_lincomb(new.bck_natural_growth(x1, x2)) \
                == render_lincomb(ref.bck_natural_growth(y1, y2))
            assert render_lincomb(new.np_mul(x1, x2)) \
                == render_lincomb(ref.np_mul(y1, y2))
    assert pairs > len(pool)
