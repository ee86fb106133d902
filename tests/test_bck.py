"""Nonplanar mirror: sorted forests, symmetrized growth, BCK coproduct."""

import pytest

from postlie.bck import (bck_antipode, bck_coproduct, bck_is_primitive,
                         bck_natural_growth, bck_primitive_projection,
                         bck_reduced, bck_reduced_forest,
                         enumerate_np_forests,
                         enumerate_np_trees, forget_planarity, np_mul,
                         np_parse)
from postlie.forest import FOREST_ONE, parse_forest
from postlie.lincomb import LinComb


def nb(text):
    return LinComb.basis(np_parse(text))


@pytest.mark.parametrize("reduce, message", [
    (lambda: bck_reduced(LinComb.basis(FOREST_ONE) + nb("[a[b]]")),
     "reduced coproduct needs an augmentation-ideal element"),
    (lambda: bck_reduced_forest(FOREST_ONE),
     "reduced coproduct of the unit is undefined"),
])
def test_bck_reduced_refuses_the_unit(reduce, message):
    with pytest.raises(ValueError) as err:
        reduce()
    assert str(err.value) == message


def test_parse_sorts_canonically():
    assert np_parse("[b][a]") is np_parse("[a][b]")
    assert np_parse("[a[c][b]]") is np_parse("[a[b][c]]")
    assert str(np_parse("[b][a]").text) == "[a][b]"


def test_forget_planarity_merges_orders():
    x = forget_planarity(LinComb.basis(parse_forest("[b][a]")))
    y = forget_planarity(LinComb.basis(parse_forest("[a][b]")))
    assert x == y == nb("[a][b]")


def test_np_mul_is_commutative():
    assert np_mul(nb("[a]"), nb("[b]")) == np_mul(nb("[b]"), nb("[a]")) \
        == nb("[a][b]")


def test_symmetrized_growth():
    assert bck_natural_growth(nb("[o]"), nb("[o]")) == nb("[o[o]]")


def test_growth_by_the_unit_gives_the_canonical_forest():
    planar = LinComb.basis(parse_forest("[o[o]][o]"))
    got = bck_natural_growth(LinComb.basis(FOREST_ONE), planar)
    assert got == nb("[o][o[o]]") == forget_planarity(planar)


@pytest.mark.parametrize("text", ["[b][a]", "[o[o]][o]", "[o[o[o]][o]]"])
def test_planar_input_gives_the_result_of_its_shape(text):
    planar = LinComb.basis(parse_forest(text))
    shape = forget_planarity(planar)
    assert planar != shape
    assert bck_coproduct(planar) == bck_coproduct(shape)
    assert bck_reduced(planar) == bck_reduced(shape)
    assert bck_antipode(planar) == bck_antipode(shape)
    assert bck_primitive_projection(planar) == bck_primitive_projection(shape)


def test_product_reads_planar_operands_as_their_shapes():
    planar = LinComb.basis(parse_forest("[o[o[o]][o]]"))
    one = LinComb.basis(FOREST_ONE)
    assert np_mul(planar, one) == np_mul(one, planar) == nb("[o[o][o[o]]]")
    assert np_mul(planar, nb("[o]")) == nb("[o][o[o][o[o]]]")


def test_projection_two_and_three_nodes():
    got2 = bck_primitive_projection(nb("[o][o]"))
    assert got2 == nb("[o][o]") - nb("[o[o]]") * 2
    got3 = bck_primitive_projection(nb("[o][o][o]"))
    assert got3 == nb("[o][o][o]") - nb("[o][o[o]]") * 3 + nb("[o[o[o]]]") * 3
    assert bck_is_primitive(got2) and bck_is_primitive(got3)


def test_projection_kills_grown_trees():
    from postlie.bck import np_single

    for n in (2, 3):
        for t in enumerate_np_trees(n, ("o",)):
            assert bck_primitive_projection(LinComb.basis(np_single(t))).is_zero


def test_enumeration_counts():
    # rooted trees on one label: 1, 1, 2, 4 nodes worth
    assert [len(enumerate_np_trees(n, ("o",))) for n in (1, 2, 3, 4)] == \
        [1, 1, 2, 4]
    assert [len(enumerate_np_forests(n, ("o",))) for n in range(5)] == \
        [1, 1, 2, 4, 9]


def test_coproduct_counit_legs():
    for n in range(4):
        for f in enumerate_np_forests(n, ("o",)):
            x = LinComb.basis(f)
            t = bck_coproduct(x)
            left = LinComb.from_terms(
                (b, c) for (a, b), c in t.items() if a.is_empty)
            right = LinComb.from_terms(
                (a, c) for (a, b), c in t.items() if b.is_empty)
            assert left == x and right == x


def test_antipode_convolution():
    for text in ("[o]", "[o][o]", "[o[o]]", "[o][o][o]"):
        x = nb(text)
        conv = LinComb.zero()
        for (f1, f2), c in bck_coproduct(x).items():
            conv = conv + np_mul(bck_antipode(LinComb.basis(f1)),
                                 LinComb.basis(f2)) * c
        assert conv.is_zero
