"""Expression parsing, rendering, and JSON serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie.exprs import (lincomb_from_json, lincomb_to_json, parse_lincomb,
                           parse_reg_lincomb, parse_tensor,
                           reg_lincomb_from_json, reg_lincomb_to_json,
                           render_lincomb, render_tensor, tensor_from_json,
                           tensor_to_json)
from postlie.forest import ForestSyntaxError, forests_up_to, parse_forest
from postlie.lincomb import LinComb, Tensor, tensor_of
from postlie.regstruct import (deformed_mkw_coproduct, enumerate_reg_trees,
                               parse_reg_tree)


def test_parse_basic_sum():
    x = parse_lincomb("2*[a] - 1/3*[b] + [a][b]")
    assert x.coeff(parse_forest("[a]")) == 2
    assert x.coeff(parse_forest("[b]")) == Fraction(-1, 3)
    assert x.coeff(parse_forest("[a][b]")) == 1


def test_parse_constant_and_parens():
    x = parse_lincomb("3*(1/2*[a] + [b])")
    assert x == parse_lincomb("3/2*[a] + 3*[b]")
    assert parse_lincomb("2").coeff(parse_forest("")) == 2


def test_infix_shuffle():
    assert parse_lincomb("[a] sh [b]") == parse_lincomb("[a][b] + [b][a]")


def test_parse_tensor_terms():
    t = parse_tensor("[a] (x) [b] + 1 (x) [a][b]")
    b = lambda s: LinComb.basis(parse_forest(s))
    assert t == tensor_of(b("[a]"), b("[b]")) + tensor_of(b(""), b("[a][b]"))


def test_render_parse_round_trip_tensor():
    t = parse_tensor("[a] (x) [b] - 2*[b] (x) [a][a]")
    assert parse_tensor(render_tensor(t)) == t


def test_error_positions():
    with pytest.raises(ForestSyntaxError) as e:
        parse_lincomb("2**[a]")
    assert e.value.position == 2
    with pytest.raises(ForestSyntaxError) as e:
        parse_tensor("[a] (x) [b] + [c]")
    assert "arity" in str(e.value)
    with pytest.raises(ForestSyntaxError) as e:
        parse_tensor("([a] (x) [b])")
    assert "parentheses" in str(e.value)


def test_long_coefficient_chain_folds():
    x = parse_lincomb("2*" * 3000 + "[a]")
    assert x == LinComb.basis(parse_forest("[a]")).scale(2 ** 3000)
    assert parse_lincomb("2*3") == parse_lincomb("6")


def test_alphabet_violation_keeps_position():
    with pytest.raises(ForestSyntaxError) as e:
        parse_lincomb("[a][z]", ("a", "b"))
    assert e.value.position == 4
    assert str(e.value).count("at position") == 1


def test_reg_parsing():
    x = parse_reg_lincomb("[o{1}] + 2*[o{0}[o{0}]{0}]")
    assert len(x) == 2
    assert reg_lincomb_from_json(reg_lincomb_to_json(x)) == x
    # shuffle has no meaning on decorated words
    with pytest.raises(ForestSyntaxError):
        parse_reg_lincomb("[o{1}] sh [o{0}]")


@pytest.mark.parametrize("text,want", [
    ("1 + [o{1,0}]", "[o{0,0}] + [o{1,0}]"),
    ("1 + [o{0,1}]", "[o{0,0}] + [o{0,1}]"),
    ("2 + [o{1,0}]", "2*[o{0,0}] + [o{1,0}]"),
])
def test_reg_unit_takes_the_dimension_of_the_words(text, want):
    assert render_lincomb(parse_reg_lincomb(text)) == want
    assert render_lincomb(parse_reg_lincomb("2")) == "2*[o{0}]"


def test_json_round_trips():
    x = parse_lincomb("1/2*[a[b]] - [b][a]")
    assert lincomb_from_json(lincomb_to_json(x)) == x
    t = parse_tensor("[a] (x) [b][b]")
    assert tensor_from_json(tensor_to_json(t)) == t
    # legs of decorated trees are read by their JSON shape
    r = deformed_mkw_coproduct(parse_reg_tree("[o{1}[o{0}]{1}]"), 5)
    assert len(r) > 1 and tensor_from_json(tensor_to_json(r)) == r


def test_tensor_from_json_refuses_mixed_leg_counts():
    two = tensor_to_json(parse_tensor("[a] (x) [b]"))
    one = tensor_to_json(parse_tensor("2*[a]"))
    # refused as parse_tensor refuses the same sum
    with pytest.raises(ValueError, match="mixed tensor arity"):
        tensor_from_json({"terms": two["terms"] + one["terms"]})


@pytest.mark.parametrize("read", [lincomb_from_json, reg_lincomb_from_json,
                                  tensor_from_json])
@pytest.mark.parametrize("obj", [
    [], "terms", None, {}, {"terms": 5}, {"terms": [5]},
    {"terms": [{"coeff": "1"}]}, {"terms": [{"forest": [], "tree": {},
                                             "legs": []}]},
    # a coefficient that is not an integer or an exact fraction string
    *({"terms": [{"coeff": c, "forest": [], "tree": {"n": [0]},
                  "legs": [[], []]}]}
      for c in ("1/0", [1], None, True, "one", {"n": 1})),
    # decorated trees of two dimensions in one sum, as parse_reg_lincomb
    # refuses "[o{1}] + [o{1,0}]"
    {"terms": [{"coeff": "1", "tree": {"n": [1]}, "legs": [{"n": [1]}] * 2},
               {"coeff": "1", "tree": {"n": [1, 0]},
                "legs": [{"n": [1, 0]}] * 2}]},
])
def test_malformed_json_sums_raise_value_error(read, obj):
    with pytest.raises(ValueError, match="term"):
        read(obj)


def test_tensor_to_json_refuses_legs_without_a_json_form():
    t = Tensor.basis((parse_forest("[a]").trees[0], parse_forest("[b]")))
    with pytest.raises(TypeError) as err:
        tensor_to_json(t)
    assert str(err.value) == "no JSON form for PlanarTree"


@pytest.mark.parametrize("legs", [5, "[a]", []])
def test_tensor_legs_must_be_a_nonempty_list(legs):
    with pytest.raises(ValueError, match="legs must be a nonempty list"):
        tensor_from_json({"terms": [{"coeff": "1", "legs": legs}]})


coeffs_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
forests_st = st.sampled_from(tuple(forests_up_to(3, ("a", "b"))))


@given(st.lists(st.tuples(forests_st, coeffs_st), max_size=5))
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip_random(terms):
    x = LinComb.from_terms(terms)
    assert parse_lincomb(render_lincomb(x)) == x


reg_trees_st = st.sampled_from(
    [t for n in range(3) for t in enumerate_reg_trees(n, 1)])


@given(st.lists(st.tuples(reg_trees_st, coeffs_st), max_size=4))
@settings(max_examples=40, deadline=None)
def test_reg_render_parse_round_trip_random(terms):
    x = LinComb.from_terms(terms)
    assert parse_reg_lincomb(render_lincomb(x)) == x


@pytest.mark.parametrize("text,position", [
    ("1/0*[a]", 0), ("[a] + 2*0/0*[b]", 8), ("3/0", 0)])
def test_zero_denominator_is_a_syntax_error(text, position):
    with pytest.raises(ForestSyntaxError) as e:
        parse_lincomb(text)
    assert e.value.position == position
    assert e.value.message == "zero denominator"


@pytest.mark.parametrize("parse", [parse_lincomb, parse_tensor,
                                   parse_reg_lincomb, parse_forest,
                                   parse_reg_tree])
@pytest.mark.parametrize("text,kind", [
    (b"[o]", "bytes"), (["[o]"], "list"), (None, "NoneType"), (3, "int")])
def test_parsers_refuse_text_that_is_not_a_str(parse, text, kind):
    with pytest.raises(TypeError) as err:
        parse(text)
    assert str(err.value) == f"text must be a str, not {kind}"
