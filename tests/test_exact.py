"""Exact coefficients: no float enters, combinatorial kernels emit int."""

from fractions import Fraction

import pytest

import postlie as pl
from postlie.bck import bck_coproduct
from postlie.exprs import lincomb_from_json, lincomb_to_json
from postlie.forest import forests_up_to, parse_forest
from postlie.grafting import gl_forests, graft_forests
from postlie.lincomb import LinComb, Tensor, as_coeff
from postlie.mkw import mkw_antipode, mkw_coproduct
from postlie.regstruct import (deformed_graft, deformed_mkw_coproduct,
                               enumerate_reg_trees, is_v_letter,
                               reg_assoc_product,
                               reg_deshuffle, reg_gl_product, reg_graft)

KEY = parse_forest("[o]")
ONE_TERM = LinComb.basis(KEY)


@pytest.mark.parametrize("make", [
    lambda: LinComb({KEY: 0.5}),
    lambda: Tensor(1, {(KEY,): 0.5}),
    lambda: LinComb.from_terms([(KEY, 0.5)]),
    lambda: Tensor.from_terms(1, [((KEY,), 0.5)]),
    lambda: ONE_TERM.scale(0.5),
    lambda: 0.5 * ONE_TERM,
    lambda: Tensor.basis((KEY,)).scale(0.5),
    lambda: as_coeff(0.5),
    lambda: lincomb_from_json(
        {"terms": [dict(lincomb_to_json(ONE_TERM)["terms"][0], coeff=0.5)]}),
], ids=["LinComb", "Tensor", "LinComb.from_terms", "Tensor.from_terms",
        "LinComb.scale", "rmul", "Tensor.scale", "as_coeff",
        "lincomb_from_json"])
def test_float_coefficient_raises(make):
    with pytest.raises(TypeError):
        make()


def test_as_coeff_keeps_ints_and_demotes_whole_fractions():
    assert type(as_coeff(3)) is int
    assert type(as_coeff(Fraction(6, 3))) is int
    assert type(as_coeff("4/2")) is int
    assert as_coeff("-1/3") == Fraction(-1, 3)
    assert type(as_coeff(Fraction(1, 3))) is Fraction
    assert type(ONE_TERM.coeff(KEY)) is int
    assert type(ONE_TERM.coeff(parse_forest("[o[o]]"))) is int


def _types(out):
    return {type(c) for _, c in out.items()}


def _forests(maxdeg, alpha):
    return [f for f in forests_up_to(maxdeg, alpha) if not f.is_empty]


STREAM_BINARY = ("left_graft", "gl_product", "natural_growth", "bck_natural_growth")
STREAM_UNARY = ("primitive_projection", "phi", "mkw_coproduct", "rho_graft",
                "bck_primitive_projection")


@pytest.mark.parametrize("alpha, maxdeg", [(("o",), 3), (("a", "b"), 2)])
def test_stream_ops_give_exact_coefficients(alpha, maxdeg):
    pool = _forests(maxdeg, alpha)
    mixed = [LinComb.basis(f) + LinComb.basis(g).scale(Fraction(-1, 3))
             for f, g in zip(pool, pool[1:])]
    operands = [LinComb.basis(f) for f in pool] + mixed
    for op in STREAM_BINARY:
        fn = getattr(pl, op)
        args = ([pl.forget_planarity(x) for x in operands]
                if op.startswith("bck_") else operands)
        for x in args:
            for y in args:
                assert _types(fn(x, y)) <= {int, Fraction}, (op, x, y)
    for op in STREAM_UNARY:
        fn = getattr(pl, op)
        args = ([pl.forget_planarity(x) for x in operands]
                if op.startswith("bck_") else operands)
        for x in args:
            assert _types(fn(x)) <= {int, Fraction}, (op, x)


@pytest.mark.parametrize("alpha, maxdeg", [(("o",), 3), (("a", "b"), 2)])
def test_combinatorial_ops_give_int(alpha, maxdeg):
    pool = _forests(maxdeg, alpha)
    for f in pool:
        x = LinComb.basis(f)
        for g in pool:
            assert _types(graft_forests(f, g)) == {int}
            assert _types(gl_forests(f, g)) == {int}
        assert _types(mkw_coproduct(x)) == {int}
        assert _types(mkw_antipode(x)) == {int}
        assert _types(pl.rho_graft(x)) == {int}
        assert _types(bck_coproduct(pl.forget_planarity(x))) == {int}


@pytest.mark.parametrize("d, maxdeg", [(1, 3), (2, 2)])
def test_reg_products_give_exact_coefficients(d, maxdeg):
    pool = [t for n in range(1, maxdeg + 1) for t in enumerate_reg_trees(n, d)]
    for t1 in pool:
        for t2 in pool:
            for fn in (reg_assoc_product, reg_graft):
                assert _types(fn(t1, t2)) <= {int}, (fn.__name__, t1, t2)
            assert _types(reg_gl_product(t1, t2)) == {int}
            if is_v_letter(t1) and is_v_letter(t2):
                assert _types(deformed_graft(t1, t2)) <= {int}
        assert _types(reg_deshuffle(t1)) == {int}
        assert _types(deformed_mkw_coproduct(t1, maxdeg)) == {int}
