"""The memo registry: one decorator behind every cache of the library."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import postlie
from postlie import bck, cache_sizes, clear_caches, regstruct
from postlie.bck import bck_coproduct, np_parse
from postlie.coaction import delta_star_forest, translate
from postlie.exprs import parse_lincomb
from postlie.forest import ForestSyntaxError, enumerate_forests, parse_forest
from postlie.grafting import gl_antipode, graft_forests
from postlie.growth import fold_tensor, primitive_basis, primitive_projection
from postlie.lincomb import LinComb, Tensor
from postlie.mkw import mkw_antipode, mkw_coproduct_forest
from postlie.regstruct import deformed_mkw_tree, enumerate_reg_trees, phi_reg

SRC = Path(postlie.__file__).parent

# Tree and forest types intern their instances so that equal text parses to
# the same object; these tables are not memos and are never cleared.
INTERN_TABLES = {("forest", "_TREES"), ("forest", "_FORESTS"),
                 ("regstruct", "_REG_TREES")}


def module_attr(module: str, attr: str):
    return getattr(importlib.import_module(f"postlie.{module}"), attr)


def test_memoised_functions_stay_plain_module_functions():
    for name in cache_sizes():
        module, attr = name.split(".")
        fn = module_attr(module, attr)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == f"postlie.{module}", name
        assert fn.__name__ == attr, name


def test_cache_sizes_names_one_entry_per_memo():
    decorated = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "memo"
                    for d in node.decorator_list):
                decorated.append(f"{path.stem}.{node.name}")
    assert sorted(cache_sizes()) == sorted(decorated)
    assert len(decorated) == 32


def sample_values():
    a = parse_forest("[a[b]][a]")
    b = parse_forest("[b[a][b]]")
    x = LinComb.from_terms([(a, 2), (b, -1)])
    t = regstruct.parse_reg_tree("[o{1}[o{0}]{1}]")
    return {
        "graft": graft_forests(a, b),
        "coproduct": mkw_coproduct_forest(b),
        "antipodes": (mkw_antipode(x), gl_antipode(x)),
        "pi": primitive_projection(x),
        "fold": fold_tensor(Tensor.basis((a, b))),
        "primitives": primitive_basis(3, ("a", "b")),
        "delta-star": delta_star_forest(a),
        "translate": translate({"a": LinComb.basis(parse_forest("[b]"))}, x, 4),
        "deformed": deformed_mkw_tree(t),
        "phi-reg": phi_reg(t, 4),
        "bases": (enumerate_forests(4, "ba"), enumerate_reg_trees(3, 1),
                  bck.enumerate_np_forests(3, ("a",))),
        "bck": bck_coproduct(LinComb.basis(np_parse("[a[b][a]]"))),
        "parse": parse_lincomb("2*[a[b]] - 1/3*[b] sh [a]", "ab"),
    }


def test_clear_caches_empties_every_memo_and_keeps_the_intern_tables():
    before = sample_values()
    assert sum(cache_sizes().values()) > 0
    interned = {key: len(module_attr(*key)) for key in INTERN_TABLES}
    same_tree = parse_forest("[a[b]]")

    clear_caches()

    assert set(cache_sizes().values()) == {0}
    assert {key: len(module_attr(*key)) for key in INTERN_TABLES} == interned
    assert parse_forest("[a[b]]") is same_tree
    assert sample_values() == before
    assert sum(cache_sizes().values()) > 0


def test_no_module_level_cache_outside_the_intern_tables():
    """A module-level dict that starts empty is a hand-rolled cache; the
    ``memo`` decorator is the one place caches live."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            empty = ((isinstance(value, ast.Dict) and not value.keys)
                     or (isinstance(value, ast.Call)
                         and isinstance(value.func, ast.Name)
                         and value.func.id in ("dict", "defaultdict")))
            if empty:
                found.update((path.stem, t.id) for t in targets
                             if isinstance(t, ast.Name))
    assert found == INTERN_TABLES


def test_arguments_are_normalised_before_the_memo():
    clear_caches()
    basis = enumerate_forests(3, "ba")
    assert enumerate_forests(3, ["a", "b", "a"]) is basis
    assert enumerate_reg_trees(2, 1) is enumerate_reg_trees(2, 1, None)
    assert primitive_basis(2, ["o"]) is primitive_basis(2, ("o",))
    prims = primitive_basis(3, "ab")
    assert primitive_basis(3, ("b", "a")) is prims
    assert primitive_basis(3, ["a", "b", "a"]) is prims
    text = "[a] + 1/2*[b[a]]"
    parsed = parse_lincomb(text, "ab")
    for alphabet in ("ab", ["a", "b"], ("b", "a"), {"a", "b"}, frozenset("ba")):
        assert parse_lincomb(text, alphabet) is parsed
    assert parse_lincomb(text) is parse_lincomb(text, None)
    sizes = cache_sizes()
    assert sizes["regstruct._reg_tree_basis"] == 3  # degrees 0, 1, 2
    assert sizes["growth._primitive_basis"] == 2  # (2, o) and (3, ab)
    assert sizes["exprs._parse_lincomb"] == 2  # alphabet {a, b}, and none


@pytest.mark.parametrize("text,position", [
    ("[a] + ", 6), ("2**[a]", 2), ("[a[b]", 0), ("[c]", 1)])
def test_malformed_text_raises_the_same_error_and_is_not_cached(text, position):
    parse_lincomb("[a]", "ab")
    before = cache_sizes()["exprs._parse_lincomb"]
    errors = []
    for _ in range(2):
        with pytest.raises(ForestSyntaxError) as err:
            parse_lincomb(text, "ab")
        errors.append((type(err.value), str(err.value), err.value.position))
    assert errors[0] == errors[1]
    assert errors[0][2] == position
    assert cache_sizes()["exprs._parse_lincomb"] == before
