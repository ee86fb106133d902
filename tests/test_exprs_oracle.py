"""The text layer against its per-term oracle.

``exprs_oracle`` keeps the writers that sorted ``items()`` and formatted one
``int | Fraction`` per term.  The writers of ``postlie.exprs`` read the
stored numerators through ``ordered_terms`` instead, and must give the same
text and JSON on seeded combinations and tensors that cover denominators
above one, negative terms, coefficients of magnitude one, integral
fractions, zero, decorated keys and three legs.  The parser must read every
rendering back to the value it came from.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import exprs_oracle as oracle
import postlie
from postlie import exprs
from postlie.exprs import (lincomb_to_json, parse_lincomb, parse_reg_lincomb,
                           parse_tensor, reg_lincomb_to_json, render_lincomb,
                           render_tensor, tensor_to_json)
from postlie.forest import forests_up_to, parse_forest
from postlie.lincomb import LinComb, Tensor
from postlie.regstruct import enumerate_reg_trees

SRC = Path(postlie.__file__).parent
FORESTS = list(forests_up_to(3, ("a", "b")))
REG_TREES = [t for d in (1, 2) for n in range(3)
             for t in enumerate_reg_trees(n, d)]
SEEDS = range(40)
WRITERS = ("render_lincomb", "render_tensor", "lincomb_to_json",
           "reg_lincomb_to_json", "tensor_to_json")


def coefficient(rng: random.Random):
    """Nonzero exact value: +-1, other ints, fractions, integral fractions."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((1, -1))
    if kind == 1:
        return rng.choice((-12, -3, -2, 2, 5, 144))
    if kind == 2:
        return Fraction(rng.randint(-9, 9) or 7, rng.randint(2, 12))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 4) * 6, 6)


def terms(rng: random.Random, keys, size: int) -> list:
    return [(rng.choice(keys), coefficient(rng)) for _ in range(size)]


def lincomb(rng: random.Random, keys) -> LinComb:
    # Repeated keys sum and may cancel, so some results are zero.
    return LinComb.from_terms(terms(rng, keys, rng.randint(0, 7)))


def tensor(rng: random.Random, keys, arity: int) -> Tensor:
    legs = [tuple(rng.choice(keys) for _ in range(arity)) for _ in range(6)]
    return Tensor.from_terms(arity, terms(rng, legs, rng.randint(0, 7)))


def same_writers(x, *names):
    for name in names:
        assert getattr(exprs, name)(x) == getattr(oracle, name)(x), name


@pytest.mark.parametrize("seed", SEEDS)
def test_writers_match_the_oracle(seed):
    rng = random.Random(seed)
    for _ in range(5):
        same_writers(lincomb(rng, FORESTS), "render_lincomb", "lincomb_to_json")
        same_writers(lincomb(rng, REG_TREES), "render_lincomb",
                     "reg_lincomb_to_json")
        for arity in (1, 2, 3):
            same_writers(tensor(rng, FORESTS, arity), "render_tensor",
                         "tensor_to_json")
        same_writers(tensor(rng, REG_TREES, 2), "render_tensor", "tensor_to_json")


def test_writers_match_the_oracle_on_edge_values():
    f, g = parse_forest("[a]"), parse_forest("[b[a]]")
    cases = [LinComb.zero(), LinComb({f: 1}), LinComb({f: -1}),
             LinComb({f: Fraction(-1, 3), g: Fraction(2, 3)}),
             LinComb({f: Fraction(1, 2), g: 3}),
             LinComb({f: Fraction(10, 5), g: -Fraction(9, 3)}),
             LinComb({f: 10 ** 30, g: Fraction(-1, 10 ** 20)})]
    for x in cases:
        same_writers(x, "render_lincomb", "lincomb_to_json")
        same_writers(Tensor.from_terms(3, (((k, k, f), c) for k, c in x.items())),
                     "render_tensor", "tensor_to_json")
    assert render_lincomb(LinComb.zero()) == "0"
    assert render_tensor(Tensor.zero(2)) == "0"


@pytest.mark.parametrize("seed", SEEDS)
def test_parse_reads_back_every_rendering(seed):
    rng = random.Random(1000 + seed)
    for _ in range(5):
        x = lincomb(rng, FORESTS)
        assert parse_lincomb(render_lincomb(x)) == x
        r = lincomb(rng, REG_TREES[:9])  # dimension one
        assert parse_reg_lincomb(render_lincomb(r)) == r
        for arity in (2, 3):
            t = tensor(rng, FORESTS, arity)
            if not t.is_zero:  # "0" reads back with one leg
                assert parse_tensor(render_tensor(t)) == t


def test_an_integral_quotient_parses_to_an_int():
    key = parse_forest("[o]")
    for text in ("4/2*[o]", "2*3/6*2*[o]", "1/2*[o] + 3/2*[o]"):
        c = parse_lincomb(text).coeff(key)
        assert c == 2 and type(c) is int, text
    assert parse_lincomb("1/2*[o] - 1/2*[o]").is_zero
    c = parse_lincomb("2/4*[o]").coeff(key)
    assert c == Fraction(1, 2) and type(c) is Fraction


def test_writers_read_coefficients_only_through_ordered_terms():
    """Each writer of ``exprs`` takes its terms from ``ordered_terms``,
    which formats the stored numerators; reading ``items()`` or ``coeff()``
    there would build a ``Fraction`` per term again."""
    module = ast.parse((SRC / "exprs.py").read_text())
    defs = {node.name: node for node in module.body
            if isinstance(node, ast.FunctionDef)}
    for name in WRITERS:
        attrs = {node.attr for node in ast.walk(defs[name])
                 if isinstance(node, ast.Attribute)}
        assert "ordered_terms" in attrs, name
        assert not attrs & {"items", "coeff"}, name
    helpers = {node.attr for name in ("_signed_sum", "_coeff_text")
               for node in ast.walk(defs[name]) if isinstance(node, ast.Attribute)}
    assert not helpers & {"items", "coeff"}
