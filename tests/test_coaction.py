"""Grafting coaction, translation maps, and the separation witness."""

from fractions import Fraction

import pytest

from postlie.coaction import (compose_vectors, disjointness_witness,
                              rho_forest, rho_graft,
                              shuffle_primitive_failures, translate)
from postlie.exprs import parse_lincomb, render_lincomb
from postlie.forest import FOREST_ONE, enumerate_forests, parse_forest
from postlie.grafting import graft_forests
from postlie.lincomb import LinComb, duality_mismatches, tensor_of
from postlie.verify import DegreeCapError, run_suite


def b(text):
    return LinComb.basis(parse_forest(text))


def exp_word(c, letter, maxdeg):
    out = LinComb.basis(FOREST_ONE)
    coeff, word = Fraction(1), ""
    for n in range(1, maxdeg + 1):
        coeff /= n
        word += f"[{letter}]"
        out = out + b(word) * (coeff * c ** n)
    return out


def test_rho_small_values():
    assert rho_graft(b("[a]")) == tensor_of(LinComb.basis(FOREST_ONE), b("[a]"))
    got = rho_graft(b("[a[b]]"))
    want = tensor_of(LinComb.basis(FOREST_ONE), b("[a[b]]")) \
        + tensor_of(b("[b]"), b("[a]"))
    assert got == want


def test_rho_graft_duality_exhaustive():
    for letters, top in ((("a",), 3), (("a", "b"), 2)):
        for n in range(1, top + 1):
            assert not list(duality_mismatches(
                n, lambda i: enumerate_forests(i, letters), graft_forests,
                rho_forest))


def test_translate_empty_vector_is_identity():
    x = b("[o[o]]") + b("[o][o]") * 2
    assert translate({}, x, 3) == x


def test_translate_shifts_letters():
    v = {"o": b("[o]") + b("[o[o]]")}
    assert translate(v, b("[o]"), 3) == b("[o]") * 2 + b("[o[o]]")


def test_translation_vector_validation():
    translate({"o": b("[o]")}, b("[o]"), 2)
    with pytest.raises(ValueError, match="constant part"):
        translate({"o": LinComb.basis(FOREST_ONE)}, b("[o]"), 2)
    with pytest.raises(ValueError, match="not primitive"):
        translate({"o": b("[o][o]")}, b("[o]"), 2)


def test_compose_vectors_matches_composition():
    v = {"o": b("[o]") * Fraction(1, 2) + b("[o[o]]")}
    u = {"o": b("[o]") * Fraction(1, 3)}
    w = compose_vectors(v, u, 3)
    for text in ("[o]", "[o[o]]", "[o][o]"):
        x = b(text)
        assert translate(v, translate(u, x, 3), 3) == translate(w, x, 3)


def test_shuffle_primitive_failures():
    assert shuffle_primitive_failures(b("[a]")) == []
    assert shuffle_primitive_failures(b("[a][a]")) != []


def test_cointeraction_reports_pass():
    rep = run_suite("cointeraction", 3)
    assert rep["ok"] and all(c["status"] == "pass" for c in rep["checks"])
    rep = run_suite("cotranslation", 3)
    assert rep["ok"]


@pytest.mark.parametrize("suite", ["cointeraction", "cotranslation"])
def test_coaction_suites_refuse_a_degree_past_the_cap(suite):
    # The one way in to the coaction laws is run_suite, which caps the
    # degree before any law runs.
    with pytest.raises(DegreeCapError):
        run_suite(suite, 40)


def test_disjointness_unit_series():
    rep = disjointness_witness(None, LinComb.basis(FOREST_ONE), 3)
    assert rep["ok"] and rep["xi_is_unit"]
    assert "unit" in rep["conclusion"]


def test_disjointness_separating_series():
    rep = disjointness_witness(None, exp_word(Fraction(1), "i", 3), 3)
    assert not rep["xi_is_unit"]
    assert rep["conclusion"] == "actions differ"
    # agreement survives on single vertices, breaks on the chain
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["agree-on-single-vertex"]["status"] == "pass"
    assert by_name["agree-on-two-vertex-chain"]["status"] == "fail"


def test_disjointness_witness_with_a_negative_coefficient_parses_back():
    rep = disjointness_witness(None, exp_word(Fraction(-1, 2), "i", 3), 3)
    by_name = {c["name"]: c for c in rep["checks"]}
    witness = by_name["agree-on-two-vertex-chain"]["witness"]
    label, _, text = witness.partition(" ")
    assert label == "difference"
    diff = parse_lincomb(text)
    assert any(c < 0 for _, c in diff.items())
    assert render_lincomb(diff) == text


def test_disjointness_rejects_bad_series():
    with pytest.raises(ValueError):
        disjointness_witness(None, b("[i]"), 3)
    with pytest.raises(ValueError):
        disjointness_witness(None, LinComb.basis(FOREST_ONE) + b("[i]"), 3)


def test_translate_checks_each_vector_once(monkeypatch):
    import postlie.coaction as coaction
    calls = []
    check = coaction.shuffle_primitive_failures
    monkeypatch.setattr(coaction, "shuffle_primitive_failures",
                        lambda x: calls.append(x) or check(x))
    v = {"o": b("[o]") * Fraction(1, 7)}
    for text in ("[o]", "[o[o]]", "[o][o]"):
        translate(v, b(text), 3)
    assert calls == [v["o"]]


def test_failing_translation_vector_is_not_cached():
    from postlie.memo import cache_sizes
    bad = {"o": b("[o][o]")}
    before = cache_sizes()["coaction._checked_vector"]
    for _ in range(2):
        with pytest.raises(ValueError) as e:
            translate(bad, b("[o]"), 3)
        assert str(e.value) == ("translation term for decoration 'o' is not "
                                "primitive: [o] (x) [o]: 2")
    assert cache_sizes()["coaction._checked_vector"] == before
