"""The law table: sweeps, the one runner, and where reports are built."""

import ast
from pathlib import Path

import pytest

import postlie
from postlie import verify
from postlie.laws import ONCE, Law, graded, pool, run_laws, tuples
from postlie.verify import run_suite, suite_names

SRC = Path(postlie.__file__).parent


def test_graded_walks_degree_compositions_then_products():
    basis = {0: ("e",), 1: ("a", "b"), 2: ("c",)}.get
    assert list(graded(basis, 2, 1)) == [("a",), ("b",), ("c",)]
    assert list(graded(basis, 2, 1, 2)) == [("a", "a"), ("a", "b"),
                                            ("b", "a"), ("b", "b")]
    assert list(graded(lambda n: (n,), 3, 1, 2, ascending=True)) == [
        (1, 1), (1, 2)]
    assert [sum(c) for c in graded(lambda n: (n,), 2, k=2)] == [
        0, 1, 2, 1, 2, 2]


def test_tuples_walk_pools_in_product_order_under_the_budget():
    small = pool({1: ("a",), 2: ("b",)}.get, 1, 2)
    assert small == [(1, "a"), (2, "b")]
    assert list(tuples(3, small, small)) == [("a", "a"), ("a", "b"),
                                             ("b", "a")]
    assert list(tuples(0)) == [()]


def test_runner_counts_every_witness_and_keeps_the_first():
    laws = [Law("holds", "r", ONCE, lambda: None),
            Law("many", "r", graded(lambda n: (n,), 3),
                lambda n: [f"n={n}"] * (n % 2) or f"even {n}"),
            Law("none", "r", (), lambda: "never")]
    rep = run_laws("demo", 3, ("o",), laws)
    assert rep == {
        "suite": "demo", "max_degree": 3, "alphabet": ["o"], "ok": False,
        "checks": [
            {"name": "holds", "range": "r", "status": "pass"},
            {"name": "many", "range": "r", "status": "fail",
             "witness": "even 0", "failures": 4},
            {"name": "none", "range": "r", "status": "pass"}]}


def test_only_guarded_suites_turn_exceptions_into_failures(monkeypatch):
    def broken():
        raise KeyError("gone")

    laws = [Law("raises", "r", ONCE, broken)]
    rep = run_laws("demo", 0, ("o",), laws, guarded=True)
    assert rep["checks"][0]["witness"] == "KeyError: 'gone'"
    with pytest.raises(KeyError):
        run_laws("demo", 0, ("o",), [Law("raises", "r", ONCE, broken)])

    monkeypatch.setattr(verify, "_load_fixture", lambda: {})
    rep = run_suite("paper-examples")
    assert not rep["ok"]
    assert rep["checks"][0]["witness"] == "KeyError: 'graft.tree.args'"
    assert all(c["failures"] == 1 for c in rep["checks"])

    def refuse(*args):
        raise RuntimeError("kernel refused")

    monkeypatch.setattr(verify, "mkw_coproduct_forest", refuse)
    with pytest.raises(RuntimeError):
        run_suite("hopf-axioms", 2)


@pytest.mark.parametrize("name", suite_names())
def test_empty_alphabet_is_refused(name):
    with pytest.raises(ValueError, match="alphabet must list at least one"):
        run_suite(name, None, ())


def _builds(node: ast.AST, key: str) -> bool:
    return isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value == key for k in node.keys)


def test_the_runner_alone_builds_check_entries_and_reports():
    """A suite states laws as rows; a hand-written loop that formats its
    own entries or reports would bypass the runner."""
    entries, reports, appends = [], [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _builds(node, "status"):
                entries.append(path.stem)
            if _builds(node, "checks"):
                reports.append(path.stem)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "checks"):
                appends.append(path.stem)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_entry"):
                appends.append(path.stem)
    assert entries == ["laws"]
    assert reports == ["laws"]
    assert set(appends) <= {"laws"}


@pytest.mark.parametrize("maxdeg", range(5))
def test_polynomial_generators_commute_sweeps_its_labelled_range(maxdeg):
    law = next(law for law in verify._reg_postlie_laws(maxdeg, ("o",))
               if law.name == "polynomial-generators-commute")
    assert law.rng == f"exponent sum <= {maxdeg + 1}"
    pairs = {(a[0], b[0]) for a, b, *rest in law.sweep if rest[1:]}
    assert pairs == {(i, j) for i in range(maxdeg + 2)
                     for j in range(maxdeg + 2 - i)}


@pytest.mark.parametrize("alphabet", [("o",), ("a", "b")])
@pytest.mark.parametrize("maxdeg", [0, 1])
def test_disjointness_below_degree_two_is_ok(maxdeg, alphabet):
    rep = run_suite("disjointness", maxdeg, alphabet)
    assert rep["ok"]
    forced = rep["checks"][-1]
    assert forced["name"] == "forced-form-flagged"
    assert forced["range"].startswith(f"cutoff {maxdeg}:")
