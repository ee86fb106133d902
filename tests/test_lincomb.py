"""Linear combinations, tensors, and the word-level (co)products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie.forest import FOREST_ONE, enumerate_forests, parse_forest
from postlie.lincomb import (LinComb, Tensor, _Exact, concat, counit,
                             deconcat, deshuffle, deshuffle_forest, pairing,
                             shuffle, shuffle_words, tensor_of)

FORESTS = enumerate_forests(0, ("a", "b")) + enumerate_forests(1, ("a", "b")) \
    + enumerate_forests(2, ("a", "b"))

forests_st = st.sampled_from(FORESTS)
coeffs_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
lincombs_st = st.lists(st.tuples(forests_st, coeffs_st), max_size=4).map(
    LinComb.from_terms)


def test_zero_and_basis():
    z = LinComb.zero()
    assert z.is_zero
    x = LinComb.basis(parse_forest("[a]"))
    assert not x.is_zero
    assert x.coeff(parse_forest("[a]")) == 1
    assert (x - x).is_zero


def test_values_store_no_hash_and_hash_by_value():
    assert _Exact.__slots__ == ("_num", "_den")
    assert LinComb.__slots__ == () and Tensor.__slots__ == ("arity",)
    # equality and hashing are stated once, on the shared stored form
    for cls in (LinComb, Tensor):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    a, b = parse_forest("[a]"), parse_forest("[b]")
    x = LinComb.from_terms([(a, Fraction(1, 2)), (b, 2)])
    y = LinComb.basis(a).scale(Fraction(1, 2)) + LinComb.basis(b) * 2
    assert x == y and hash(x) == hash(y) == hash(x)
    assert {x: 1}[y] == 1
    t = tensor_of(x, LinComb.basis(b))
    assert hash(t) == hash(Tensor.from_terms(2, t.items()))
    assert Tensor.zero(2) != Tensor.zero(3)
    assert tensor_of(x) != tensor_of(x, LinComb.basis(FOREST_ONE))
    # a LinComb never equals a Tensor, even one storing the same numbers
    pairs = LinComb.from_terms((legs, c) for legs, c in t.items())
    assert pairs._num == t._num and pairs._den == t._den
    assert pairs != t and t != pairs


def test_protocol_builds_no_coefficient(monkeypatch):
    a, b = parse_forest("[a]"), parse_forest("[b]")
    x = LinComb.from_terms([(a, Fraction(1, 2)), (b, Fraction(-1, 3))])
    y = LinComb.from_terms([(b, Fraction(-1, 3)), (a, Fraction(1, 2))])
    t = deshuffle(x)
    legs = (x, x)
    hashes = hash(x), hash(t)

    def refuse(*_):
        raise AssertionError("a coefficient was built")

    monkeypatch.setattr(_Exact, "items", refuse)
    monkeypatch.setattr(_Exact, "coeff", refuse)
    assert x == y and x != y * 2 and t == deshuffle(y)
    assert (hash(x), hash(t)) == hashes and hash(y) == hash(x)
    assert t.counit_legs(lambda f: f.is_empty) == legs


def test_terms_drop_zero_coefficients():
    f = parse_forest("[a]")
    x = LinComb.from_terms([(f, Fraction(1)), (f, Fraction(-1))])
    assert x.is_zero
    assert len(x) == 0


@given(lincombs_st, lincombs_st, lincombs_st)
@settings(max_examples=60, deadline=None)
def test_module_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x - y == -(y - x)
    assert (x * Fraction(2, 3)) * 3 == x * 2


@given(lincombs_st, lincombs_st)
@settings(max_examples=40, deadline=None)
def test_shuffle_commutative(x, y):
    assert shuffle(x, y) == shuffle(y, x)


@given(lincombs_st, lincombs_st, lincombs_st)
@settings(max_examples=25, deadline=None)
def test_products_associative(x, y, z):
    assert shuffle(shuffle(x, y), z) == shuffle(x, shuffle(y, z))
    assert concat(concat(x, y), z) == concat(x, concat(y, z))


def test_shuffle_words_count():
    # two one-letter words shuffle into two interleavings
    out = shuffle_words(parse_forest("[a]"), parse_forest("[b]"))
    assert out == LinComb.from_terms([
        (parse_forest("[a][b]"), 1), (parse_forest("[b][a]"), 1)])
    # equal letters double up
    out = shuffle_words(parse_forest("[a]"), parse_forest("[a]"))
    assert out == LinComb.from_terms([(parse_forest("[a][a]"), 2)])


@given(forests_st)
@settings(max_examples=40, deadline=None)
def test_deshuffle_counit_legs(f):
    x = LinComb.basis(f)
    t = deshuffle(x)
    left = LinComb.from_terms((b, c) for (a, b), c in t.items() if a.is_empty)
    right = LinComb.from_terms((a, c) for (a, b), c in t.items() if b.is_empty)
    assert left == x and right == x


@given(forests_st)
@settings(max_examples=40, deadline=None)
def test_coproducts_coassociative(f):
    for cop in (deshuffle, deconcat):
        t = cop(LinComb.basis(f))
        lhs = t.apply_coproduct(0, lambda g: cop(LinComb.basis(g)))
        rhs = t.apply_coproduct(1, lambda g: cop(LinComb.basis(g)))
        assert lhs == rhs


def test_pairing_and_counit():
    x = LinComb.basis(parse_forest("[a]")) * Fraction(2, 3)
    assert pairing(x, LinComb.basis(parse_forest("[a]"))) == Fraction(2, 3)
    assert pairing(x, LinComb.basis(parse_forest("[b]"))) == 0
    assert counit(LinComb.basis(FOREST_ONE)) == 1
    assert counit(x) == 0


def test_tensor_operations():
    x = LinComb.basis(parse_forest("[a]"))
    y = LinComb.basis(parse_forest("[b]"))
    t = tensor_of(x + y, x)
    assert t.arity == 2
    assert t.coeff((parse_forest("[b]"), parse_forest("[a]"))) == 1
    merged = t.merge_legs(0, 1, shuffle_words)
    assert merged.arity == 1
    doubled = t.apply_linear(1, lambda f: LinComb.basis(f) * 2)
    assert doubled == t * 2


def test_merge_legs_validates_indices():
    t = tensor_of(LinComb.basis(parse_forest("[a]")),
                  LinComb.basis(parse_forest("[b]")))
    with pytest.raises(ValueError):
        t.merge_legs(1, 1, shuffle_words)


A = parse_forest("[a]")


@pytest.mark.parametrize("make, key, arity", [
    (lambda: Tensor(2, {(A,): 1}), (A,), 2),
    (lambda: Tensor(2, {(A, A, A): 1}), (A, A, A), 2),
    (lambda: Tensor(2, {"ab": 1}), "ab", 2),
    (lambda: Tensor(1, {A: 1}), A, 1),
    # a key is refused even where its coefficient is zero
    (lambda: Tensor(2, {(A,): 0}), (A,), 2),
    (lambda: Tensor.from_terms(2, [("ab", 1)]), "ab", 2),
    (lambda: Tensor.from_terms(2, [((A, A), 1), ((A,), 1)]), (A,), 2),
], ids=["short", "long", "text", "bare", "zero", "from_terms-text",
        "from_terms-short"])
def test_tensor_keys_have_the_tensor_arity(make, key, arity):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == f"tensor key {key!r} is not a {arity}-leg tuple"


@pytest.mark.parametrize("leg", [-1, 2, 5])
def test_leg_maps_refuse_a_leg_outside_the_arity(leg):
    t = tensor_of(LinComb.basis(A), LinComb.basis(parse_forest("[b]")))
    with pytest.raises(ValueError, match=f"leg {leg} is outside"):
        t.apply_linear(leg, LinComb.basis)
    with pytest.raises(ValueError, match=f"leg {leg} is outside"):
        t.apply_coproduct(leg, deshuffle_forest)


def test_truncate_and_max_degree():
    x = LinComb.from_terms([
        (parse_forest("[a]"), 1), (parse_forest("[a][b]"), 1)])
    assert x.max_degree() == 2
    assert x.truncate(1) == LinComb.basis(parse_forest("[a]"))
