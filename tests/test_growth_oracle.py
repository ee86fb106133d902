"""Vertex surgery as structural recursion, against preorder indexing.

``growth_oracle`` keeps the earlier kernels, which number the vertices of
the right operand in preorder and rebuild the tree once per vertex and
term.  Planar natural growth must give the same combination, denominator
and term order included, on every pair of forests with ``o`` up to degree
sum 7, ``a,b`` up to 5 and ``a,b,c`` up to 4; nonplanar growth the same
combination on those pairs, which include non-canonical planar operands.
The library's ``reg_graft`` on letter pairs and ``reg_raise`` by a unit,
both now the Guin-Oudom recursion on the right operand, must agree with the
oracle's letter graft and unit raise on every letter pair and every tree of
bounded degree in dimensions 1 to 3.  An AST pin keeps preorder indexing
and vertex surgery out of the library.
"""

import ast
from pathlib import Path

import pytest

import growth_oracle as ref
import postlie
from postlie.bck import _np_growth_forests
from postlie.forest import forests_up_to
from postlie.growth import _growth_forests
from postlie.regstruct import (enumerate_reg_trees, enumerate_v_letters,
                               mi_unit, reg_graft, reg_raise)

SRC = Path(postlie.__file__).parent

FORESTS = [(("o",), 7), (("a", "b"), 5), (("a", "b", "c"), 4)]
# (dimension, degree bound of a letter pair, degree bound of a raised tree)
DECORATED = [(1, 7, 6), (2, 6, 5), (3, 5, 5)]


def pairs(alphabet, maxdeg):
    fs = list(forests_up_to(maxdeg, alphabet))
    return [(a, b) for a in fs for b in fs if a.degree + b.degree <= maxdeg]


def test_the_sweeps_cover_the_stated_pairs():
    assert sum(len(pairs(*case)) for case in FORESTS) == 10920


@pytest.mark.parametrize("alphabet,maxdeg", FORESTS)
def test_planar_growth_matches_preorder_surgery(alphabet, maxdeg):
    for w1, w2 in pairs(alphabet, maxdeg):
        got, want = _growth_forests(w1, w2), ref._growth_forests(w1, w2)
        assert got._den == want._den, (w1.text, w2.text)
        assert list(got.items()) == list(want.items()), (w1.text, w2.text)


@pytest.mark.parametrize("alphabet,maxdeg", FORESTS)
def test_nonplanar_growth_matches_preorder_surgery(alphabet, maxdeg):
    # The planar forests swept here are mostly not canonical.
    for w1, w2 in pairs(alphabet, maxdeg):
        got, want = _np_growth_forests(w1, w2), ref._np_growth_forests(w1, w2)
        assert got._den == want._den, (w1.text, w2.text)
        assert got == want, (w1.text, w2.text)


def _upto(enum, maxdeg, d):
    return [t for n in range(maxdeg + 1) for t in enum(n, d)]


@pytest.mark.parametrize("d,pair_deg,tree_deg", DECORATED)
def test_letter_graft_matches_preorder_surgery(d, pair_deg, tree_deg):
    letters = _upto(enumerate_v_letters, pair_deg, d)
    for t1 in letters:
        for t2 in letters:
            if t1.degree + t2.degree <= pair_deg:
                assert reg_graft(t1, t2) == ref._graft_letters(t1, t2), \
                    (t1.text, t2.text)


@pytest.mark.parametrize("d,pair_deg,tree_deg", DECORATED)
def test_unit_raise_matches_preorder_surgery(d, pair_deg, tree_deg):
    for t in _upto(enumerate_reg_trees, tree_deg, d):
        for j in range(d):
            assert reg_raise(t, mi_unit(d, j)) == ref._raise_unit(t, j), \
                (t.text, j)


def _callers(path: Path, name: str) -> set[str]:
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name):
            found.add(".".join((path.stem,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


SURGERY = {"_map_vertex", "raise_at", "_at_each_vertex", "_graft_letters"}


def test_no_kernel_numbers_vertices_in_preorder():
    """Growth and the deformed graft recurse on the tree; no module of the
    library walks a preorder counter or rebuilds a tree vertex by vertex."""
    defined, callers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
        for name in SURGERY:
            callers |= _callers(path, name)
    assert not defined & ({"_vertex_children", "_replace_at",
                           "_preorder_decs", "vertex_count"} | SURGERY)
    assert callers == set()
