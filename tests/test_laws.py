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


def test_tuples_walk_degree_compositions_then_products():
    # two items at degree 1, so product order and composition order differ
    left = pool({1: ("a", "b"), 2: ("c",)}.get, 1, 2)
    right = pool({0: ("e",), 1: ("x",), 2: ("y",)}.get, 0, 1)
    assert list(tuples(3, left, right)) == [
        ("a", "e"), ("b", "e"), ("a", "x"), ("b", "x"), ("c", "e"),
        ("c", "x")]
    assert list(tuples(1, left, right)) == [("a", "e"), ("b", "e")]
    assert list(tuples(0, left)) == []
    assert list(tuples(0)) == [()]


def test_ascending_keeps_nondecreasing_compositions_in_the_same_order():
    basis = {1: ("a", "b"), 2: ("c",)}.get
    assert list(graded(basis, 3, 1, 2, ascending=True)) == [
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("a", "c"),
        ("b", "c")]
    assert list(graded(basis, 3, 1, 2)) == [
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("a", "c"),
        ("b", "c"), ("c", "a"), ("c", "b")]


@pytest.mark.parametrize("budget,lo,k", [
    (0, 0, 1), (3, 0, 1), (4, 1, 2), (3, 0, 2), (5, 1, 3), (2, 1, 3)])
def test_graded_is_tuples_over_copies_of_one_pool(budget, lo, k):
    table = {0: ("e",), 1: ("a", "b"), 2: ("c", "d"), 3: ("f",)}

    def basis(n):
        return table.get(n, ())

    assert list(graded(basis, budget, lo, k)) == list(
        tuples(budget, *[pool(basis, lo, budget)] * k))


def test_bases_are_called_only_at_reachable_degrees():
    calls = []

    def basis(n):
        calls.append(n)
        return (n,)

    p = pool(basis, 1, 5)
    assert calls == []  # a pool is a descriptor; nothing is enumerated yet
    assert list(tuples(3, p, p, p)) == [(1, 1, 1)]
    assert set(calls) == {1}
    calls.clear()
    assert len(list(graded(basis, 4, 1, 2))) == 6
    assert max(calls) == 3
    calls.clear()
    assert list(tuples(2, p, pool(basis, 2, 3))) == []
    assert calls == []


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
