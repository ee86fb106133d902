"""Natural growth, primitive projection, and fold decomposition."""

import random
from fractions import Fraction

import pytest

from postlie import coalgebra_endomorphism, comodule_coaction, u1_rank_by_degree
from postlie.forest import FOREST_ONE, forests_up_to, parse_forest, word
from postlie.growth import (f_decompose, f_recompose, growth_fold,
                            is_primitive, natural_growth, primitive_basis,
                            primitive_degree, primitive_projection)
from postlie.lincomb import LinComb, Tensor, counit, tensor_of
from postlie.mkw import mkw_coproduct


def b(text):
    return LinComb.basis(parse_forest(text))


def test_growth_on_single_node_target():
    assert natural_growth(b("[a]"), b("[b]")) == b("[b[a]]")
    assert natural_growth(b("[a][b]"), b("[c]")) == b("[c[a][b]]")


def test_growth_averages_over_target_vertices():
    got = natural_growth(b("[a]"), b("[b[c]]"))
    want = (b("[b[a][c]]") + b("[b[c[a]]]") + b("[b[c][a]]")) * Fraction(1, 2)
    assert got == want


def test_growth_fold_is_left_iterated():
    xs = [b("[a]"), b("[b]"), b("[c]")]
    assert growth_fold(xs) == b("[c[b[a]]]")
    assert growth_fold(xs[:1]) == b("[a]")


def test_projection_values():
    assert primitive_projection(b("[a]")) == b("[a]")
    assert primitive_projection(b("[a[b]]")).is_zero
    assert primitive_projection(b("[a][b]")) == b("[a][b]") - b("[b[a]]")


def test_projection_output_is_primitive_and_idempotent():
    for f in forests_up_to(3, ("a",)):
        if f.is_empty:
            continue
        p = primitive_projection(LinComb.basis(f))
        assert is_primitive(p)
        assert primitive_projection(p) == p


def test_primitive_basis_small():
    assert [v for v in primitive_basis(1, ("a", "b"))] == [b("[a]"), b("[b]")]
    (p,) = primitive_basis(2, ("a",))
    assert p == b("[a][a]") - b("[a[a]]")
    assert is_primitive(p)


def test_primitive_degree_counts_fold_level():
    (p,) = primitive_basis(2, ("a",))
    assert primitive_degree(p) == 1
    assert primitive_degree(growth_fold([b("[a]"), b("[b]")])) == 2


def test_fold_decomposition_round_trip():
    x = growth_fold([b("[a]"), b("[b]")]) + b("[a]") * 3
    levels = f_decompose(x)
    assert set(levels) == {1, 2}
    assert levels[2] == tensor_of(b("[a]"), b("[b]"))
    assert f_recompose(levels) == x


def test_fold_decomposition_total():
    # every constant-free element decomposes, not only fold images
    x = b("[a][b]")
    assert f_recompose(f_decompose(x)) == x


def test_fold_decomposition_rejects_constants():
    with pytest.raises(ValueError):
        f_decompose(LinComb.basis(FOREST_ONE) + b("[a]"))


def _require_primitive_legs(t):
    from postlie.mkw import reduced_coproduct_forest
    for leg in range(t.arity):
        if not t.apply_coproduct(leg, reduced_coproduct_forest).is_zero:
            raise RuntimeError("decomposition produced a non-primitive leg")


def _primitive_degree_two_pass(r):
    # The m with a nonzero (m-1)-fold and a zero m-fold iterated reduced
    # coproduct, counted without the library's primitive_degree.
    from postlie.mkw import iterated_reduced
    m = 1
    while not iterated_reduced(r, m).is_zero:
        m += 1
    return m


def _f_decompose_two_pass(x):
    # Reference: primitive degree and iterated reduced coproduct computed
    # apart, as separate passes over each remainder, stripping the top
    # level each time.
    from postlie.growth import fold_tensor
    from postlie.lincomb import Tensor
    from postlie.mkw import iterated_reduced
    levels = {}
    r = x
    while not r.is_zero:
        m = _primitive_degree_two_pass(r)
        t = (Tensor(1, {(f,): c for f, c in r.items()}) if m == 1
             else iterated_reduced(r, m - 1))
        _require_primitive_legs(t)
        levels[m] = t
        r = r - fold_tensor(t)
        assert r.is_zero or _primitive_degree_two_pass(r) < m
    return levels


def _assert_matches_two_pass(x):
    got, want = f_decompose(x), _f_decompose_two_pass(x)
    assert list(got) == list(want), x
    assert got == want, x
    assert primitive_degree(x) == max(want, default=0)


def test_fold_decomposition_matches_two_pass_reference():
    pool = [f for f in forests_up_to(4, ("a", "b")) if not f.is_empty]
    for f, g in zip(pool[::9], pool[5::9]):
        x = LinComb.basis(f) + LinComb.basis(g) * Fraction(-2, 3)
        got, want = f_decompose(x), _f_decompose_two_pass(x)
        assert got == want and list(got) == list(want)
    # Every forest with o <= 6 and a,b <= 4, and seeded rational combinations.
    for alphabet, top in ((("o",), 6), (("a", "b"), 4)):
        for f in forests_up_to(top, alphabet):
            if not f.is_empty:
                _assert_matches_two_pass(LinComb.basis(f))
    rng = random.Random(20)
    pool = [f for f in forests_up_to(5, ("a", "b")) if not f.is_empty]
    for _ in range(60):
        _assert_matches_two_pass(LinComb.from_terms(
            (f, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)))
            for f in rng.sample(pool, rng.randint(1, 5))))


def test_primitive_degree_of_zero_and_constants():
    assert primitive_degree(LinComb.zero()) == 0
    assert primitive_degree(LinComb.basis(FOREST_ONE)) == 0
    assert primitive_degree(LinComb.basis(FOREST_ONE) * Fraction(2, 3)) == 0
    with pytest.raises(ValueError, match="mixed constant"):
        primitive_degree(LinComb.basis(FOREST_ONE) + b("[a]"))


def test_fold_decomposition_of_zero_is_empty():
    assert f_decompose(LinComb.zero()) == {}


def test_fold_decomposition_levels_are_top_first_and_nonzero():
    # A grown tree has zero levels below its top; [a][b] has two levels.
    assert list(f_decompose(b("[c[b[a]]]"))) == [3]
    x = b("[a][b]") + b("[c[b[a]]]") * Fraction(-1, 4)
    levels = f_decompose(x)
    assert list(levels) == [3, 2, 1]
    assert levels[3] == tensor_of(b("[a]"), b("[b]"), b("[c]")) * Fraction(-1, 4)
    assert levels[2] == tensor_of(b("[a]"), b("[b]"))
    assert levels[1] == tensor_of(b("[a][b]") - b("[b[a]]"))
    assert f_recompose(levels) == x


# -- comodules and coalgebra endomorphisms ------------------------------------

def _arity_one(t):
    return t.map_basis(lambda key: LinComb.basis(key[0]))


def _concat_legs(t):
    return t.map_basis(lambda key: LinComb.basis(word(*key)))


def _endomorphism_sweep(u, alphabet, maxdeg):
    def phi(f):
        return coalgebra_endomorphism(u, LinComb.basis(f))

    moved = failed = 0
    for f in forests_up_to(maxdeg, alphabet):
        if f.is_empty:
            continue
        x = LinComb.basis(f)
        y = phi(f)
        moved += y != x
        failed += (mkw_coproduct(y)
                   != mkw_coproduct(x).apply_linear(0, phi).apply_linear(1, phi))
    return moved, failed


def test_endomorphism_from_primitive_family_commutes_with_coproduct():
    u = {1: _arity_one, 2: lambda t: primitive_projection(_concat_legs(t))}
    assert _endomorphism_sweep(u, ("a", "b"), 3) == (48, 0)


def test_endomorphism_from_non_primitive_family_breaks_coproduct():
    _, failed = _endomorphism_sweep({1: _arity_one, 2: _concat_legs},
                                       ("a", "b"), 3)
    assert failed > 0


def test_u1_rank_by_degree_of_identity():
    assert u1_rank_by_degree(_arity_one, 3, "ab") \
        == {1: (2, 2), 2: (4, 4), 3: (16, 16)}


def _degree_one_family(n):
    return {(i, j): b("[a]") * i + b("[b]") * j
            for i in range(1, n + 1) for j in range(i, n + 1)}


def test_comodule_coaction_counit_and_coassociativity():
    n = 3
    rows = comodule_coaction(n, _degree_one_family(n))
    zero = Tensor(2)
    for i in range(n + 1):
        for k in range(i + 1):
            c = rows[i].get(k, LinComb.zero())
            assert counit(c) == (1 if k == i else 0)
            split = sum((tensor_of(rows[i][j], rows[j][k])
                         for j in range(k, i + 1)
                         if j in rows[i] and k in rows[j]), zero)
            assert mkw_coproduct(c) == split
    assert all(j in rows[i] for i in range(n + 1) for j in range(i + 1))


@pytest.mark.parametrize("entry", [None, "[a[b]]"])
def test_comodule_coaction_refuses_bad_family(entry):
    family = _degree_one_family(2)
    if entry is None:
        del family[(1, 2)]
    else:
        family[(1, 2)] = b(entry)
    with pytest.raises(ValueError):
        comodule_coaction(2, family)


def test_u1_rank_by_degree_refuses_a_map_that_moves_the_degree():
    def shifted(t):  # grafts each primitive onto a new root: degree + 1
        return t.map_basis(lambda key: b(f"[o{key[0].text}]"))
    with pytest.raises(ValueError, match="does not preserve degree"):
        u1_rank_by_degree(shifted, 2, "o")
