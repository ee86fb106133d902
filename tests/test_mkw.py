"""Admissible-cut coproduct, its antipode, and the product/coproduct duality."""

import pytest

from postlie.forest import (FOREST_ONE, enumerate_forests, forests_up_to,
                            parse_forest)
from postlie.grafting import gl_forests
from postlie.lincomb import (LinComb, duality_mismatches, pairing, shuffle,
                             tensor_of)
from postlie.mkw import (iterated_reduced, mkw_antipode, mkw_coproduct,
                         mkw_coproduct_forest, reduced_coproduct)


def b(text):
    return LinComb.basis(parse_forest(text))


def one():
    return LinComb.basis(FOREST_ONE)


def test_coproduct_on_unit_and_letter():
    assert mkw_coproduct(one()) == tensor_of(one(), one())
    assert mkw_coproduct(b("[a]")) == \
        tensor_of(one(), b("[a]")) + tensor_of(b("[a]"), one())


def test_coproduct_ladder():
    got = mkw_coproduct(b("[a[b]]"))
    want = tensor_of(one(), b("[a[b]]")) + tensor_of(b("[b]"), b("[a]")) \
        + tensor_of(b("[a[b]]"), one())
    assert got == want


def test_reduced_coproduct_strips_trivial_cuts():
    assert reduced_coproduct(b("[a[b]]")) == tensor_of(b("[b]"), b("[a]"))
    assert reduced_coproduct(b("[a]")).is_zero


@pytest.mark.parametrize("reduce", [reduced_coproduct,
                                    lambda x: iterated_reduced(x, 2)])
def test_reduced_coproduct_refuses_a_unit_component(reduce):
    with pytest.raises(ValueError, match="reduced coproduct of the unit"):
        reduce(one() + b("[a[b]]"))


def test_coproduct_word_counts():
    # a two-letter word has the deconcatenation piece besides the graft cuts
    t = mkw_coproduct(b("[a][b]"))
    assert t.coeff((parse_forest("[a]"), parse_forest("[b]"))) == 1
    assert t.coeff((parse_forest("[b]"), parse_forest("[a]"))) == 0
    assert t.coeff((FOREST_ONE, parse_forest("[a][b]"))) == 1


def test_antipode_small_values():
    assert mkw_antipode(one()) == one()
    assert mkw_antipode(b("[a]")) == -b("[a]")
    # cut formula: S([a[b]]) = -[a[b]] + sh(S([b]), [a]) with the graft leg
    got = mkw_antipode(b("[a[b]]"))
    assert got == -b("[a[b]]") + shuffle(b("[b]"), b("[a]"))


def test_antipode_convolution_identity():
    for text in ("[a]", "[a][b]", "[a[b]]", "[a[b][c]]"):
        x = b(text)
        conv = LinComb.zero()
        for (f1, f2), c in mkw_coproduct(x).items():
            conv = conv + shuffle(mkw_antipode(LinComb.basis(f1)),
                                  LinComb.basis(f2)) * c
        assert conv.is_zero


def test_gl_duality_exhaustive():
    for letters, top in ((("a",), 3), (("a", "b"), 2)):
        for n in range(top + 1):
            assert not list(duality_mismatches(
                n, lambda i: enumerate_forests(i, letters), gl_forests,
                mkw_coproduct_forest))


def test_duality_spot_check():
    from postlie.grafting import gl_product

    A, B = b("[a]"), b("[b]")
    for f in forests_up_to(2, ("a", "b")):
        x = LinComb.basis(f)
        lhs = pairing(gl_product(A, B), x)
        rhs = sum(c * pairing(A, LinComb.basis(f1)) * pairing(B, LinComb.basis(f2))
                  for (f1, f2), c in mkw_coproduct(x).items())
        assert lhs == rhs
