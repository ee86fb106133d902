"""Geometric-embedding map, truncated characters, and their serializations."""

from fractions import Fraction

import pytest

from postlie.characters import (TruncChar, canonical_lift, char_convolve,
                                char_from_json, char_inverse, char_to_csv,
                                char_to_json, character_failures, counit_char,
                                embed_rough_path, group_like_failures, phi,
                                phi_inverse, phi_matrix, unembed_rough_path)
from postlie.forest import forests_up_to, parse_forest
from postlie.grafting import gl_product
from postlie.lincomb import LinComb, concat


def b(text):
    return LinComb.basis(parse_forest(text))


def test_phi_fixes_trees():
    for text in ("[a]", "[a[b]]", "[a[b][c]]", "[a[b[c]]]"):
        assert phi(b(text)) == b(text)


def test_phi_small_words():
    assert phi(b("[a][b]")) == b("[a][b]") - b("[b[a]]")
    assert phi_inverse(b("[a][b]")) == b("[a][b]") + b("[b[a]]")


def test_phi_turns_gl_product_into_concat():
    for xt, yt in (("[a]", "[b]"), ("[a][b]", "[c]"), ("[a[b]]", "[c]")):
        x, y = b(xt), b(yt)
        assert phi(gl_product(x, y)) == concat(phi(x), phi(y))


def test_phi_round_trip():
    for f in forests_up_to(4, ("a",)):
        x = LinComb.basis(f)
        assert phi_inverse(phi(x)) == x
        assert phi(phi_inverse(x)) == x


def test_phi_matrix_unitriangular():
    basis, rows = phi_matrix(3, ("a",))
    n = len(basis)
    assert len(rows) == n and all(len(r) == n for r in rows)
    for i in range(n):
        assert rows[i][i] == 1


def test_canonical_lift_values():
    X = canonical_lift({"o": Fraction(1, 2)}, 3)
    assert X.N == 3 and X.flavor == "mkw-character"
    assert X.value(parse_forest("[o]")) == Fraction(1, 2)
    assert X.value(parse_forest("[o[o]]")) == Fraction(1, 8)
    assert character_failures(X) == []


def test_canonical_lift_needs_positive_order():
    with pytest.raises(ValueError):
        canonical_lift({"o": 1}, 0)


def test_chen_identity_one_letter():
    X = canonical_lift({"o": Fraction(1, 2)}, 3)
    Y = canonical_lift({"o": Fraction(1, 3)}, 3)
    assert char_convolve(X, Y) == canonical_lift({"o": Fraction(5, 6)}, 3)


def test_char_inverse():
    X = canonical_lift({"a": 1, "b": Fraction(-1, 2)}, 3)
    assert char_convolve(X, char_inverse(X)) == counit_char(3)
    assert char_convolve(char_inverse(X), X) == counit_char(3)


def test_char_serialization_round_trips():
    X = canonical_lift({"o": Fraction(1, 2)}, 3)
    assert char_from_json(char_to_json(X)) == X
    lines = char_to_csv(X).splitlines()
    assert lines[0] == "forest,value"
    assert "[o],1/2" in lines


@pytest.mark.parametrize("text", [
    '[1, 2]',
    '"N"',
    '{"N": 2}',
    '{"values": {}, "flavor": "mkw"}',
    '{"N": "2", "values": {}, "flavor": "mkw"}',
    '{"N": true, "values": {}, "flavor": "mkw"}',
    '{"N": 2, "values": [["[o]", 1]], "flavor": "mkw"}',
    '{"N": 2, "values": {}, "flavor": 1}',
    '{"N": 2, "values": {}}',
    '{"N": 2, "values": {"[o]": "half"}, "flavor": "mkw"}',
    '{"N": 2, "values": {"[o]": "1/0"}, "flavor": "mkw"}',
    '{"N": 2, "values": {"[o]": null}, "flavor": "mkw"}',
    '{"N": 2, "values": {"[o]": 0.1}, "flavor": "mkw"}',
])
def test_char_from_json_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        char_from_json(text)


@pytest.mark.parametrize("N, values, named", [
    (2.5, {}, "float"),
    (True, {}, "bool"),
    ("3", {}, "str"),
    (3, {"[a]": 1}, "str"),
    (3, {parse_forest("[a]").trees[0]: 1}, "PlanarTree"),
])
def test_truncchar_refuses_what_it_cannot_hold(N, values, named):
    # a character the JSON reader would refuse is not built in the first place
    with pytest.raises(TypeError, match=named):
        TruncChar(N, values)


def test_embed_unembed_round_trip():
    X = canonical_lift({"a": Fraction(2, 3)}, 3)
    E = embed_rough_path(X)
    assert E.flavor == "tensor-character"
    assert unembed_rough_path(E) == X


def test_group_like_detector():
    X = canonical_lift({"o": 1}, 3)
    assert group_like_failures(X.series(), 3) == []
    bad = X.series() + b("[o][o]")
    assert group_like_failures(bad, 3) != []
