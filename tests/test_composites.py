"""Composite kernels against the hand-written loops they replaced.

Each composite in the library is one expression over the extensions of
``postlie.lincomb`` (``map_basis``, ``map_pairs``, ``apply_linear``,
``legwise``, ``contract``).  The oracles here are the earlier loops, which
sum term by term into a dict (the recursive ones through their own memo): the
Guin-Oudom products on planar forests and on decorated trees, the MKW and
Grossman-Larson antipodes and ``phi`` in its per-tree replacement form
``phi(t w) = t . phi(w) - sum_j phi(w with s_j replaced by t < s_j)``.  The
deformed graft's oracle is its earlier form, which splits a right word over
the deshuffle, peels the left word and subtracts,
``(u w) > t = u > (w > t) - (u > w) > t``, and grafts single letters by the
preorder surgery of ``growth_oracle``; the library now recurses on the right
operand alone.
"""

from functools import cache

import pytest

from growth_oracle import _graft_letters
from postlie.characters import _phi_forest
from postlie.forest import forest, forests_up_to, single, word
from postlie.grafting import (_gl_antipode_forest, concat_antipode,
                              gl_forests, graft_forests, left_graft)
from postlie.lincomb import (LinComb, _add_into, concat, deshuffle_forest,
                             shuffle_words)
from postlie.mkw import _antipode_forest, reduced_coproduct_forest
from postlie.regstruct import (_peel, enumerate_reg_trees, reg_deshuffle_tree,
                               reg_gl_trees, reg_graft_trees, reg_mul_trees)

AB = ("a", "b")


@cache
def phi_oracle(f):
    ts = f.trees
    if len(ts) <= 1:
        return LinComb.basis(f)
    out = concat(LinComb.basis(single(ts[0])), phi_oracle(forest(ts[1:])))
    for j in range(1, len(ts)):
        for g, c in graft_forests(single(ts[0]), single(ts[j])).items():
            out = out - c * phi_oracle(forest(ts[1:j] + g.trees + ts[j + 1:]))
    return out


def gl_oracle(a, b):
    acc: dict = {}
    for (a1, a2), c in deshuffle_forest(a).items():
        for f, c2 in graft_forests(a2, b).items():
            _add_into(acc, word(a1, f), c * c2)
    return LinComb(acc)


@cache
def antipode_oracle(f):
    if f.is_empty:
        return LinComb.basis(f)
    acc: dict = {f: -1}
    for (left, right), c in reduced_coproduct_forest(f).items():
        for fl, cl in antipode_oracle(left).items():
            for fs, cs in shuffle_words(fl, right).items():
                _add_into(acc, fs, -c * cl * cs)
    return LinComb(acc)


@cache
def gl_antipode_oracle(a):
    out = concat_antipode(LinComb.basis(a))
    if not a.is_empty:
        for (a1, a2), c in deshuffle_forest(a).items():
            if a1.is_empty or a2.is_empty:
                continue
            out = out + c * left_graft(
                gl_antipode_oracle(a1), concat_antipode(LinComb.basis(a2)))
    return out


@cache
def reg_graft_oracle(t1, t2):
    if t1.is_unit:
        return LinComb.basis(t2)
    if t2.is_unit:
        return LinComb.zero()
    if t2.letters >= 2:
        u2, r2 = _peel(t2)
        acc: dict = {}
        for (a1, a2), c in reg_deshuffle_tree(t1).items():
            for f1, c1 in reg_graft_oracle(a1, u2).items():
                for f2, c2 in reg_graft_oracle(a2, r2).items():
                    for f3, c3 in reg_mul_trees(f1, f2).items():
                        _add_into(acc, f3, c * c1 * c2 * c3)
        return LinComb(acc)
    if t1.letters <= 1:
        return _graft_letters(t1, t2)
    u, w = _peel(t1)
    inner = reg_graft_oracle(w, t2).map_basis(lambda f: reg_graft_oracle(u, f))
    outer = reg_graft_oracle(u, w).map_basis(lambda f: reg_graft_oracle(f, t2))
    return inner - outer


def reg_gl_oracle(a, b):
    acc: dict = {}
    for (a1, a2), c in reg_deshuffle_tree(a).items():
        for f, c2 in reg_graft_oracle(a2, b).items():
            for f3, c3 in reg_mul_trees(a1, f).items():
                _add_into(acc, f3, c * c2 * c3)
    return LinComb(acc)


@pytest.mark.parametrize("alphabet,maxdeg", [(("o",), 7), (AB, 5)])
def test_phi_matches_the_replacement_form(alphabet, maxdeg):
    for f in forests_up_to(maxdeg, alphabet):
        assert _phi_forest(f) == phi_oracle(f), f.text


@pytest.mark.parametrize("alphabet,maxdeg", [(("o",), 7), (AB, 5)])
def test_mkw_antipode_matches_the_loop(alphabet, maxdeg):
    for f in forests_up_to(maxdeg, alphabet):
        assert _antipode_forest(f) == antipode_oracle(f), f.text


@pytest.mark.parametrize("alphabet,maxdeg", [(("o",), 7), (AB, 5)])
def test_gl_antipode_matches_the_loop(alphabet, maxdeg):
    for f in forests_up_to(maxdeg, alphabet):
        assert _gl_antipode_forest(f) == gl_antipode_oracle(f), f.text


def test_gl_products_match_the_loop_on_every_pair():
    forests = forests_up_to(5, AB)
    for a in forests:
        for b in forests:
            if a.degree + b.degree <= 5:
                assert gl_forests(a, b) == gl_oracle(a, b), (a.text, b.text)


@pytest.mark.parametrize("dim,maxdeg", [(1, 5), (2, 4)])
def test_deformed_products_match_the_loops_on_every_pair(dim, maxdeg):
    trees = [t for n in range(maxdeg + 1)
             for t in enumerate_reg_trees(n, dim)]
    for a in trees:
        for b in trees:
            if a.degree + b.degree <= maxdeg:
                assert reg_graft_trees(a, b) == reg_graft_oracle(a, b), \
                    (a.text, b.text)
                assert reg_gl_trees(a, b) == reg_gl_oracle(a, b), \
                    (a.text, b.text)
