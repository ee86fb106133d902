"""Planar trees and ordered forests: construction, order, parsing."""

import pytest

from postlie.bck import bck_primitive_projection, np_parse, np_tree
from postlie.characters import TruncChar, canonical_lift
from postlie.exprs import parse_lincomb
from postlie.forest import (FOREST_ONE, ORDER_KEY, ForestSyntaxError,
                            OrderedForest, PlanarTree, b_minus, b_plus,
                            enumerate_forests, enumerate_trees, forest,
                            forest_from_json, forest_to_json, leaf,
                            letters_in, parse_forest, render_forest, single,
                            tree, word)
from postlie.grafting import left_graft
from postlie.memo import clear_caches
from postlie.verify import run_suite


def test_unit_forest():
    assert FOREST_ONE.is_empty
    assert FOREST_ONE.degree == 0
    assert FOREST_ONE.text == "1"
    assert parse_forest("1") is FOREST_ONE


def test_interning():
    a = parse_forest("[a[b][c]]")
    b = single(tree("a", (leaf("b"), leaf("c"))))
    assert a is b


def test_child_order_matters():
    assert parse_forest("[a[b][c]]") is not parse_forest("[a[c][b]]")


def test_bplus_bminus_inverse():
    f = parse_forest("[a][b[c]]")
    t = b_plus(f, "r")
    assert render_forest(single(t)) == "[r[a][b[c]]]"
    assert b_minus(t) is f


def test_word_concatenation():
    ab = word(parse_forest("[a]"), parse_forest("[b]"))
    assert ab is parse_forest("[a][b]")
    assert word(FOREST_ONE, ab) is ab


def test_compare_is_graded_then_textual():
    small = parse_forest("[a][b]")
    big = parse_forest("[a][b][c]")
    assert ORDER_KEY(small) < ORDER_KEY(big)
    assert ORDER_KEY(parse_forest("[a[b]]")) < ORDER_KEY(parse_forest("[a][b]"))
    assert ORDER_KEY(small) == ORDER_KEY(parse_forest("[a] [b]"))


def test_parse_rejects_malformed():
    for bad in ("[a", "a]", "[]", "[a]x", "[a[b]"):
        with pytest.raises(ForestSyntaxError):
            parse_forest(bad)


def test_parse_error_carries_position():
    try:
        parse_forest("[a][b")
        raise AssertionError("expected a syntax error")
    except ForestSyntaxError as err:
        assert err.position == 5
        assert "position 5" in str(err)


def test_alphabet_restriction():
    assert parse_forest("[a]", alphabet=("a",)) is parse_forest("[a]")
    with pytest.raises(ForestSyntaxError):
        parse_forest("[b]", alphabet=("a",))


def test_catalan_counts_single_letter():
    # trees of degree n follow the Catalan numbers shifted by one
    assert [len(enumerate_trees(n, ("o",))) for n in range(1, 6)] \
        == [1, 1, 2, 5, 14]
    # forests of degree n follow the Catalan numbers
    assert [len(enumerate_forests(n, ("o",))) for n in range(6)] \
        == [1, 1, 2, 5, 14, 42]


def test_counts_two_letters():
    assert len(enumerate_trees(2, ("a", "b"))) == 4
    assert len(enumerate_forests(2, ("a", "b"))) == 8


def test_enumeration_sorted_and_interned():
    forests = enumerate_forests(3, ("o",))
    keys = [ORDER_KEY(f) for f in forests]
    assert keys == sorted(keys)
    assert all(parse_forest(f.text) is f for f in forests)


def test_json_round_trip():
    for f in enumerate_forests(3, ("a", "b")):
        assert forest_from_json(forest_to_json(f)) is f


def test_forest_from_iterable():
    f = forest([tree("a"), tree("b", (leaf("c"),))])
    assert f is parse_forest("[a][b[c]]")


def test_equality_and_hash_are_identity():
    for cls in (PlanarTree, OrderedForest):
        assert cls.__eq__ is object.__eq__
        assert cls.__hash__ is object.__hash__
        assert "_hash" not in cls.__slots__


def _built_every_way():
    # the forest [d][a[b][c]], from text, from nodes, from JSON and as the
    # canonical form of a nonplanar shape written in another order
    by_nodes = forest([leaf("d"), tree("a", [leaf("b"), leaf("c")])])
    return [parse_forest("[d][a[b][c]]"), parse_forest(" [d] [a[b][c]] "),
            by_nodes, forest_from_json(forest_to_json(by_nodes)),
            forest_from_json([{"d": "d", "c": []},
                              {"d": "a", "c": [{"d": "b"}, {"d": "c"}]}]),
            np_parse("[a[c][b]][d]"),
            word(single(leaf("d")), parse_forest("[a[b][c]]"))]


def test_equal_shapes_are_one_object_however_built():
    first, *rest = _built_every_way()
    assert all(f is first for f in rest)
    assert all(f.trees[1] is first.trees[1] for f in rest)
    assert len({*_built_every_way(), *_built_every_way()}) == 1


def test_identity_survives_clear_caches():
    before = _built_every_way()[0]
    basis = enumerate_forests(3, ("a", "b"))
    clear_caches()
    assert all(f is before for f in _built_every_way())
    again = enumerate_forests(3, ("a", "b"))
    assert again is not basis
    assert all(x is y for x, y in zip(again, basis, strict=True))
    assert all(parse_forest(f.text) is f for f in basis)


def test_one_letter_walk_for_coaction_and_characters():
    f, g = parse_forest("[b[c]][a]"), parse_forest("[d[a[e]]]")
    assert letters_in(f) == ("a", "b", "c")
    assert letters_in() == letters_in(FOREST_ONE) == ()
    X = TruncChar(5, {f: 1, g: 2})
    assert X.letters() == letters_in(f, g) == ("a", "b", "c", "d", "e")


@pytest.mark.parametrize("dec", ["a]b", "", "a b", 3, None, ["a"]])
def test_json_decoration_must_be_one_token(dec):
    # the CLI and parse_forest take one decoration token; so does JSON, so
    # every tree it reads renders as text that parses back
    with pytest.raises(ValueError, match="not one decoration token"):
        forest_from_json([{"d": dec, "c": []}])


@pytest.mark.parametrize("obj", [["o"], "[o]", None, {"c": []}])
def test_json_tree_must_be_an_object_with_a_decoration(obj):
    with pytest.raises(ValueError) as err:
        forest_from_json([obj])
    assert str(err.value) == f"not a tree object: {obj!r}"


# -- the intern step: degree and text, computed once from the children ------

def _render(t: PlanarTree) -> str:
    return "[" + t.decoration + "".join(_render(c) for c in t.children) + "]"


def _vertices(t: PlanarTree) -> int:
    return 1 + sum(_vertices(c) for c in t.children)


def _assert_interned_right(forests, alphabet):
    # every forest, and every tree in it at any depth, carries the degree
    # and text the recursive definitions give, and its text parses back to it
    for f in forests:
        assert f.text == ("".join(map(_render, f.trees)) or "1")
        assert f.degree == sum(map(_vertices, f.trees))
        assert parse_forest(f.text, alphabet) is f
        stack = list(f.trees)
        while stack:
            t = stack.pop()
            assert (t.text, t.degree) == (_render(t), _vertices(t))
            assert parse_forest(t.text, alphabet) is single(t)
            stack.extend(t.children)


@pytest.mark.parametrize("alphabet,top", [(("o",), 7), (("a", "b"), 5)])
def test_enumerated_trees_and_forests_carry_their_text_and_degree(alphabet, top):
    for n in range(top + 1):
        _assert_interned_right(enumerate_forests(n, alphabet), alphabet)
        _assert_interned_right(map(single, enumerate_trees(n, alphabet)), alphabet)


def test_kernel_built_forests_carry_their_text_and_degree():
    # a five-on-six graft over a,b (756 terms) and a degree-6 commutative
    # primitive projection (203 terms) build thousands of fresh forests
    ab = ("a", "b")
    graft = left_graft(parse_lincomb("[a][b][b][b][b]", ab),
                       parse_lincomb("[b[b[a[b]][b]][a]]", ab))
    pi = bck_primitive_projection(parse_lincomb("[b[a[b][b]]][a[b]]", ab))
    assert (len(graft.support()), len(pi.support())) == (756, 203)
    _assert_interned_right(graft.support(), ab)
    _assert_interned_right(pi.support(), ab)


@pytest.mark.parametrize("dec", [5, None, b"a"])
def test_tree_refuses_a_decoration_that_is_not_text(dec):
    # text is built at the intern step, so a bad decoration fails there
    with pytest.raises(TypeError):
        tree(dec)
    with pytest.raises(TypeError):
        tree(dec, (leaf("a"),))


@pytest.mark.parametrize("dec", ["a]b", "", "a b"])
def test_tree_refuses_a_decoration_that_does_not_parse_back(dec):
    # without the check, single(tree("a]b")).text is "[a]b]", which
    # parse_forest rejects
    with pytest.raises(ValueError, match="not one decoration token"):
        tree(dec)
    with pytest.raises(ValueError, match="not one decoration token"):
        tree(dec, (leaf("a"),))


def test_constructors_refuse_what_is_not_a_tree():
    with pytest.raises(TypeError, match="not int"):
        tree("a", (5,))
    with pytest.raises(TypeError, match="not str"):
        tree("a", (leaf("b"), "[c]"))
    with pytest.raises(TypeError, match="not str"):
        forest(["[a]"])
    assert forest([leaf("a")]) is parse_forest("[a]")


def test_library_entry_points_refuse_a_decoration_that_does_not_parse_back():
    with pytest.raises(ValueError, match="'a b' is not one decoration token"):
        canonical_lift({"a b": 1}, 2)
    with pytest.raises(ValueError, match="'x y' is not one decoration token"):
        np_tree("x y")
    with pytest.raises(ValueError, match="'a b' is not one decoration token"):
        run_suite("hopf-axioms", 2, ("a b",))
