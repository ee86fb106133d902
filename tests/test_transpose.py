"""The graded-transpose kernel against the per-target transposition oracle.

The oracle is the loop the library used before the kernel: for one target
``x`` of degree n, multiply every degree-complementary pair and read the
coefficient of ``x``.  It costs ``|B_n|`` times more products per degree,
so it only runs here, on small degrees.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import postlie
from postlie import clear_caches
from postlie.coaction import delta_star_forest, rho_forest
from postlie.forest import enumerate_forests, letters_in, parse_forest, word
from postlie.grafting import gl_forests, graft_forests
from postlie.lincomb import (LinComb, Tensor, deconcat_forest,
                             duality_mismatches, graded_transpose)
from postlie.mkw import mkw_coproduct_forest
from postlie.regstruct import (deformed_mkw_tree, enumerate_reg_trees,
                               reg_gl_trees)

AB = ("a", "b")


def oracle_transpose(x, basis, product) -> Tensor:
    n = x.degree
    acc: dict = {}
    for i in range(n + 1):
        for a in basis(i):
            for b in basis(n - i):
                c = product(a, b).coeff(x)
                if c:
                    acc[(a, b)] = c
    return Tensor(2, acc)


def oracle_duality(maxdeg, letters, product, coproduct, start=0):
    """(a, b, x, <a (x) b, coproduct(x)>, <product(a, b), x>) mismatches."""
    def basis(i):
        return enumerate_forests(i, letters)

    bad = []
    for n in range(start, maxdeg + 1):
        for x in basis(n):
            t = coproduct(x)
            for i in range(n + 1):
                for a in basis(i):
                    for b in basis(n - i):
                        lhs = t.coeff((a, b))
                        rhs = product(a, b).coeff(x)
                        if lhs != rhs:
                            bad.append((a, b, x, lhs, rhs))
    return bad


def forest_basis(letters):
    return lambda i: enumerate_forests(i, letters)


def same(got: Tensor, want: Tensor) -> bool:
    """Equal values and equal iteration order."""
    return got == want and list(got.items()) == list(want.items())


def test_delta_star_matches_the_gl_transpose_in_value():
    # the coproduct dual to the Grossman-Larson product is the MKW coproduct;
    # the oracle reads it off the product over the letters of each forest
    for letters, top in ((AB, 4), (("o",), 6)):
        for n in range(top + 1):
            for f in enumerate_forests(n, letters):
                want = oracle_transpose(f, forest_basis(letters_in(f)),
                                        gl_forests)
                assert delta_star_forest(f) == want, f.text


def test_delta_concat_matches_oracle_values_and_order():
    def concat_product(a, b):
        return LinComb.basis(word(a, b))

    # the transpose of concatenation is deconcatenation
    for letters, top in ((AB, 3), (("o",), 5)):
        basis = forest_basis(letters)
        for n in range(top + 1):
            got = graded_transpose(n, basis, concat_product)
            assert list(got) == list(basis(n))
            for f in basis(n):
                want = oracle_transpose(f, basis, concat_product)
                assert same(got[f], want), f.text
                assert got[f] == deconcat_forest(f)


def test_graft_transpose_matches_oracle_values_and_order():
    basis = forest_basis(AB)
    for n in range(5):
        got = graded_transpose(n, basis, graft_forests)
        assert list(got) == list(basis(n))
        for x in basis(n):
            assert same(got[x], oracle_transpose(x, basis, graft_forests)), \
                x.text


def test_deformed_mkw_matches_oracle_values_and_order():
    clear_caches()

    def basis(i):
        return enumerate_reg_trees(i, 1)

    for n in range(5):
        for t in basis(n):
            want = oracle_transpose(t, basis, reg_gl_trees)
            assert same(deformed_mkw_tree(t), want), t.text


def test_only_the_duality_sweep_and_the_deformed_coproduct_transpose():
    """A dual coproduct is read off a transpose only where no recursion
    gives it: the pairing sweep and the deformed coproduct.  The coproduct
    dual to the planar Grossman-Larson product is the MKW coproduct, so no
    second transposed planar coproduct belongs in the package."""
    users = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == "graded_transpose":
                users.add(f"{path.stem}.{owner}")
            visit(child, owner)

    for path in sorted(Path(postlie.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    assert users == {"lincomb.duality_mismatches",
                     "regstruct._reg_gl_transpose"}


def test_filtered_terms_outside_the_degree_are_dropped():
    # a toy filtered product: a (x) b goes to the basis key of degree
    # n = deg a + deg b, plus a term two degrees lower
    def basis(i):
        return (i,) if i >= 0 else ()

    def product(a, b):
        return LinComb.from_terms([(a + b, 1), (a + b - 2, 5)])

    got = graded_transpose(3, basis, product)
    assert list(got) == [3]
    assert same(got[3], Tensor.from_terms(
        2, [((0, 3), 1), ((1, 2), 1), ((2, 1), 1), ((3, 0), 1)]))


@pytest.mark.parametrize("basis,top", [
    (forest_basis(AB), 4),
    (forest_basis(("o",)), 6),
    (lambda i: enumerate_reg_trees(i, 1), 4),
])
def test_kernel_multiplies_each_pair_once(basis, top):
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return LinComb.basis(a)

    for n in range(top + 1):
        calls[0] = 0
        graded_transpose(n, basis, counted)
        assert calls[0] == sum(len(basis(i)) * len(basis(n - i))
                               for i in range(n + 1))


def _corrupt(cop, target, bump, drop):
    """A coproduct with one wrong coefficient and one missing term on
    ``target``."""
    def wrong(x):
        t = cop(x)
        if x != target:
            return t
        assert t.coeff(bump) and t.coeff(drop) and bump != drop
        return t + Tensor.basis(bump).scale(Fraction(1, 2)) - \
            Tensor.basis(drop).scale(t.coeff(drop))
    return wrong


def sweep(maxdeg, product, coproduct, start=0):
    """`duality_mismatches` over the degrees ``start..maxdeg`` of the
    ``a,b`` forests, as ``(a, b, x, lhs, rhs)`` like `oracle_duality`."""
    return [(a, b, x, lhs, rhs) for n in range(start, maxdeg + 1)
            for x, a, b, lhs, rhs in duality_mismatches(
                n, forest_basis(AB), product, coproduct)]


def test_duality_failures_detects_a_wrong_coproduct():
    x = parse_forest("[a[b]][a]")
    keys = [k for k, _ in mkw_coproduct_forest(x).items()]
    wrong = _corrupt(mkw_coproduct_forest, x, keys[1], keys[2])
    got = sweep(3, gl_forests, wrong)
    assert got and set(got) == set(oracle_duality(3, AB, gl_forests, wrong))
    assert {(a, b, y) for a, b, y, _, _ in got} == {keys[1] + (x,),
                                                    keys[2] + (x,)}


def test_graft_duality_failures_detects_a_wrong_rho():
    x = parse_forest("[a[b][a]]")
    keys = [k for k, _ in rho_forest(x).items()]
    wrong = _corrupt(rho_forest, x, keys[0], keys[-1])
    got = sweep(3, graft_forests, wrong, start=1)
    assert len(got) == 2
    assert set(got) == set(oracle_duality(3, AB, graft_forests, wrong,
                                          start=1))


def test_duality_sweeps_pass_on_the_library_maps():
    assert sweep(4, gl_forests, mkw_coproduct_forest) == []
    assert sweep(4, graft_forests, rho_forest, start=1) == []
    assert oracle_duality(3, AB, gl_forests, mkw_coproduct_forest) == []
