"""Left grafting, the Grossman-Larson product, and its antipode."""

import time
from fractions import Fraction
from itertools import product as iproduct

import pytest

from postlie.forest import FOREST_ONE, forest, forests_up_to, parse_forest, tree
from postlie.grafting import (gl_antipode, gl_exp, gl_inverse_product,
                              gl_product, graft_forests, jacobi_bracket,
                              left_graft)
from postlie.lincomb import LinComb, _add_into, concat, counit


def b(text):
    return LinComb.basis(parse_forest(text))


def _rebuild(t, idx, extra):
    # Vertices are numbered in depth-first preorder; grafted blocks go leftmost.
    my = idx
    idx += 1
    kids = []
    for c in t.children:
        nc, idx = _rebuild(c, idx, extra)
        kids.append(nc)
    add = extra[my]
    return tree(t.decoration, add + kids if add else kids), idx


def graft_by_assignment(w1, w2):
    """Oracle: one term for each of the nv^k root-to-vertex assignments."""
    if w1.is_empty:
        return LinComb.basis(w2)
    nv = w2.degree
    acc: dict = {}
    for assign in iproduct(range(nv), repeat=len(w1)):
        extra = [[] for _ in range(nv)]
        for t, v in zip(w1.trees, assign):
            extra[v].append(t)
        idx = 0
        new_trees = []
        for t in w2.trees:
            nt, idx = _rebuild(t, idx, extra)
            new_trees.append(nt)
        _add_into(acc, forest(new_trees), Fraction(1))
    return LinComb(acc)


def coeff_sum(x):
    return sum(c for _, c in x.items())


def test_graft_matches_assignment_oracle_two_letters():
    pool = list(forests_up_to(3, ("a", "b")))
    for w1 in pool:
        for w2 in pool:
            got = graft_forests(w1, w2)
            assert got == graft_by_assignment(w1, w2), (w1, w2)
            if not w1.is_empty:
                assert coeff_sum(got) == w2.degree ** len(w1)
            assert all(type(c) is int for _, c in got.items())


def test_graft_seven_vertices_onto_seven_vertex_ladder():
    roots = parse_forest("[o]" * 7)
    ladder = parse_forest("[o[o[o[o[o[o[o]]]]]]]")
    start = time.perf_counter()
    got = graft_forests(roots, ladder)
    elapsed = time.perf_counter() - start
    assert len(got) == 1716
    assert coeff_sum(got) == 7 ** 7
    # 823,543 assignments take seconds to enumerate; the recursion takes ms
    assert elapsed < 1.0


def test_left_graft_single_targets():
    assert left_graft(b("[a]"), b("[b]")) == b("[b[a]]")
    # one summand per node of the target, attached leftmost
    assert left_graft(b("[a]"), b("[b[c]]")) == b("[b[a][c]]") + b("[b[c[a]]]")


def test_left_graft_forest_acts_as_one_block():
    # a two-tree forest grafts without splitting
    assert left_graft(b("[a][b]"), b("[c]")) == b("[c[a][b]]")


def test_left_graft_unit_laws():
    one = LinComb.basis(FOREST_ONE)
    assert left_graft(one, b("[a]")) == b("[a]")
    assert left_graft(b("[a]"), one).is_zero


def test_gl_product_small():
    assert gl_product(b("[a]"), b("[b]")) == b("[a][b]") + b("[b[a]]")
    one = LinComb.basis(FOREST_ONE)
    assert gl_product(one, b("[a]")) == b("[a]")
    assert gl_product(b("[a]"), one) == b("[a]")


def test_gl_antipode_values():
    assert gl_antipode(b("[a]")) == -b("[a]")
    assert gl_antipode(b("[a][b]")) == b("[b][a]") + b("[a[b]]") + b("[b[a]]")


def test_gl_antipode_is_convolution_inverse():
    from postlie.lincomb import deshuffle

    for text in ("[a]", "[a][b]", "[a[b]]", "[a][b][c]"):
        x = b(text)
        conv = LinComb.zero()
        for (f1, f2), c in deshuffle(x).items():
            conv = conv + gl_product(gl_antipode(LinComb.basis(f1)),
                                     LinComb.basis(f2)) * c
        assert conv.is_zero  # epsilon vanishes away from the unit


def test_gl_inverse_product_recovers_concat():
    for xt, yt in (("[a]", "[b]"), ("[a][b]", "[c]"), ("[a[b]]", "[c][d]")):
        x, y = b(xt), b(yt)
        assert gl_inverse_product(x, y) == concat(x, y)


def test_jacobi_bracket_antisymmetric():
    x, y = b("[a]"), b("[b[c]]")
    assert jacobi_bracket(x, y) == -jacobi_bracket(y, x)
    assert jacobi_bracket(x, x).is_zero


def test_gl_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        gl_exp(LinComb.basis(FOREST_ONE), 3)


def test_gl_exp_truncation():
    e = gl_exp(b("[a]"), 2)
    assert e.coeff(FOREST_ONE) == 1
    assert e.coeff(parse_forest("[a]")) == 1
    assert e.coeff(parse_forest("[a][a]")) == Fraction(1, 2)
    assert e.coeff(parse_forest("[a[a]]")) == Fraction(1, 2)
    assert e.max_degree() == 2
