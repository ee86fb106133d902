"""Suite runner: names, report schema, the degree cap, and the post-Lie rows
shared by the planar and deformed suites."""

import pytest

from postlie.forest import enumerate_trees, single
from postlie.grafting import left_graft
from postlie.growth import natural_growth
from postlie.laws import pool, run_laws, tuples
from postlie.lincomb import concat
from postlie.regstruct import (bracket0, deformed_graft, enumerate_v_letters,
                               reg_assoc_product, reg_graft)
from postlie.verify import (DEFAULT_DEGREE_CAP, DegreeCapError, _postlie_axioms,
                            degree_cap, run_suite, suite_names)

EXPECTED = (
    "hopf-axioms", "post-lie-axioms", "gl-duality", "natural-growth",
    "primitives", "phi-iso", "cointeraction", "cotranslation", "translation",
    "disjointness", "regstruct-postlie", "regstruct-phi", "paper-examples",
)


def test_suite_names():
    assert tuple(suite_names()) == EXPECTED


def test_unknown_suite():
    with pytest.raises(ValueError) as e:
        run_suite("no-such-suite")
    assert "unknown suite" in str(e.value)


def test_report_schema():
    rep = run_suite("post-lie-axioms", maxdeg=2)
    assert rep["suite"] == "post-lie-axioms"
    assert rep["max_degree"] == 2
    assert isinstance(rep["ok"], bool)
    for entry in rep["checks"]:
        assert set(entry) >= {"name", "range", "status"}
        assert entry["status"] in ("pass", "fail")
        if entry["status"] == "fail":
            assert "witness" in entry and "failures" in entry


def test_reports_serialize():
    import json

    for name in ("gl-duality", "translation", "paper-examples"):
        rep = run_suite(name, maxdeg=2 if name != "paper-examples" else None)
        json.dumps(rep)


def test_every_suite_passes_at_small_degree():
    for name in EXPECTED:
        rep = run_suite(name, maxdeg=2 if name != "paper-examples" else None)
        assert rep["ok"], (name, [c for c in rep["checks"]
                                  if c["status"] == "fail"])


def test_degree_cap_default_and_override(monkeypatch):
    monkeypatch.delenv("POSTLIE_DEGREE_CAP", raising=False)
    assert degree_cap() == DEFAULT_DEGREE_CAP == 7
    with pytest.raises(DegreeCapError) as e:
        run_suite("gl-duality", maxdeg=8)
    assert "POSTLIE_DEGREE_CAP" in str(e.value)
    monkeypatch.setenv("POSTLIE_DEGREE_CAP", "9")
    assert degree_cap() == 9


@pytest.mark.parametrize("raw, message", [
    ("seven", "POSTLIE_DEGREE_CAP must be an integer, got 'seven'"),
    ("7.5", "POSTLIE_DEGREE_CAP must be an integer, got '7.5'"),
    ("0", "POSTLIE_DEGREE_CAP must be at least 1"),
    ("-3", "POSTLIE_DEGREE_CAP must be at least 1"),
])
def test_bad_degree_cap_is_refused(monkeypatch, raw, message):
    monkeypatch.setenv("POSTLIE_DEGREE_CAP", raw)
    with pytest.raises(DegreeCapError) as e:
        degree_cap()
    assert str(e.value) == message


def test_degree_cap_is_an_argument_error():
    assert issubclass(DegreeCapError, ValueError)


def test_alphabet_threads_through():
    rep = run_suite("hopf-axioms", maxdeg=2, alphabet=("a", "b"))
    assert tuple(rep["alphabet"]) == ("a", "b")
    assert rep["ok"]


@pytest.mark.parametrize("name, maxdeg", [("hopf-axioms", 1), ("phi-iso", 3)])
def test_alphabet_is_read_as_a_sorted_set(name, maxdeg):
    # a repeated letter is one letter: the laws and the report see {a, b}
    assert (run_suite(name, maxdeg, ("b", "a", "b"))
            == run_suite(name, maxdeg, ("a", "b")))


def test_cap_degree_messages(monkeypatch):
    from postlie.verify import cap_degree
    monkeypatch.delenv("POSTLIE_DEGREE_CAP", raising=False)
    assert cap_degree(3, "degree") == 3
    with pytest.raises(ValueError) as e:
        run_suite("translation", -1)
    assert str(e.value) == "max degree must be nonnegative, got -1"
    with pytest.raises(DegreeCapError) as e:
        cap_degree(8, "degree of X")
    assert str(e.value) == ("degree of X 8 exceeds the degree cap 7; "
                            "set POSTLIE_DEGREE_CAP to raise it")


def _concat_commutator(x, y):
    return concat(x, y) - concat(y, x)


def _word_commutator(x, y):
    return reg_assoc_product(x, y) - reg_assoc_product(y, x)


# both rows at degree sum 5: tree triples on one letter, and generator
# triples in dimension one
def _planar_axioms(product):
    trees = pool(lambda n: map(single, enumerate_trees(n, ("o",))), 1, 3)
    return _postlie_axioms("r", lambda: tuples(5, trees, trees, trees),
                           product, product, _concat_commutator,
                           _concat_commutator)


def _deformed_axioms(graft, inner):
    vlets = pool(lambda n: enumerate_v_letters(n, 1), 1, 3)
    return _postlie_axioms("r", lambda: tuples(5, vlets, vlets, vlets),
                           graft, inner, bracket0, _word_commutator)


@pytest.mark.parametrize("laws, failures", [
    (lambda: _planar_axioms(left_graft), [0, 0]),
    (lambda: _planar_axioms(natural_growth), [8, 8]),
    (lambda: _deformed_axioms(reg_graft, deformed_graft), [0, 0]),
    (lambda: _deformed_axioms(reg_assoc_product, reg_assoc_product),
     [148, 100]),
], ids=["grafting", "growth", "deformed-grafting", "word-product"])
def test_shared_postlie_rows_fail_on_a_product_that_is_not_post_lie(
        laws, failures):
    checks = run_laws("axioms", 5, ("o",), laws())["checks"]
    assert [c["name"] for c in checks] == ["graft-derives-bracket",
                                           "bracket-measures-associator"]
    assert [c.get("failures", 0) for c in checks] == failures
    assert [c["status"] for c in checks] == [
        "fail" if n else "pass" for n in failures]
