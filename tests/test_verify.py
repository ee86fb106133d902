"""Suite runner: names, report schema, and the degree cap."""

import pytest

from postlie.verify import (DEFAULT_DEGREE_CAP, DegreeCapError, degree_cap,
                            run_suite, suite_names)

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


def test_degree_cap_is_an_argument_error():
    assert issubclass(DegreeCapError, ValueError)


def test_alphabet_threads_through():
    rep = run_suite("hopf-axioms", maxdeg=2, alphabet=("a", "b"))
    assert tuple(rep["alphabet"]) == ("a", "b")
    assert rep["ok"]

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
