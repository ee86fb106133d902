"""Deformed layer: decorated trees, word product, graft, bracket, phi."""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from postlie import linalg
from postlie.exprs import parse_reg_lincomb
from postlie.lincomb import LinComb, Tensor
from postlie.memo import clear_caches
from postlie.regstruct import (RegTree, bracket0, deformed_graft, deformed_mkw_coproduct,
                               deformed_mkw_tree, enumerate_reg_trees,
                               enumerate_v_letters, is_v_letter,
                               lower_root_adjacent, parse_reg_tree, phi_reg,
                               phi_reg_inverse, plant,
                               reg_assoc_product, reg_deshuffle, reg_gl_product,
                               reg_graft, reg_one, reg_raise, reg_tree,
                               reg_tree_from_json, reg_tree_to_json, x_power,
                               _peel, _phi_tree)

L = LinComb.basis

ONE = reg_one(1)
X = x_power((1,))
X2 = x_power((2,))
BULLET = plant((0,), ONE)            # zero-decorated branch over a bare vertex
I1 = plant((1,), ONE)
VTX1 = x_power((1,))
I0V1 = plant((0,), VTX1)


@pytest.mark.parametrize("build,message", [
    (lambda: reg_tree(()), "decoration dimension must be at least 1"),
    (lambda: x_power((-1,)), "negative vertex decoration"),
    (lambda: plant((0, 0), ONE), "edge decoration or subtree dimension mismatch"),
    (lambda: reg_tree((0,), [((0,), "[o]")]),
     "edge decoration or subtree dimension mismatch"),
    (lambda: plant((-1,), ONE), "negative edge decoration"),
    (lambda: reg_tree_from_json({"n": [0], "e": [{"a": [-1], "t": {"n": [0]}}]}),
     "negative edge decoration"),
    # an entry that is not an int is refused, never rounded or coerced
    (lambda: reg_tree((1.7,)), "vertex decoration must hold integers"),
    (lambda: reg_tree((0,), [((True,), ONE)]),
     "edge decoration must hold integers"),
    # ... also when an equal int tree is interned already (X, I1 above)
    (lambda: reg_tree((True,)), "vertex decoration must hold integers"),
    (lambda: reg_tree((1.0,)), "vertex decoration must hold integers"),
    (lambda: reg_tree((0,), (((True,), ONE),)),
     "edge decoration must hold integers"),
    (lambda: reg_tree_from_json({"n": [1.9]}),
     "vertex decoration must hold integers"),
    (lambda: reg_tree_from_json({"n": ["2"]}),
     "vertex decoration must hold integers"),
    (lambda: reg_tree_from_json({"n": [True]}),
     "vertex decoration must hold integers"),
    (lambda: reg_tree_from_json({"n": [0], "e": [{"a": [0.0], "t": {"n": [0]}}]}),
     "edge decoration must hold integers"),
    # a JSON field that is not a list is refused by name
    (lambda: reg_tree_from_json({"n": 5}), "'n' must be a list"),
    (lambda: reg_tree_from_json({"n": [0], "e": 3}), "'e' must be a list"),
    (lambda: reg_tree_from_json({"n": [0], "e": [{"a": 5, "t": {"n": [0]}}]}),
     "'a' must be a list"),
    (lambda: lower_root_adjacent(I1, (1.2,)), "lowering index must hold integers"),
    (lambda: lower_root_adjacent(I1, (True,)), "lowering index must hold integers")])
def test_bad_decorations_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _degree(t: RegTree) -> int:
    return sum(t.dec) + sum(1 + sum(a) + _degree(sub) for a, sub in t.edges)


def test_kernel_built_trees_are_the_validated_trees():
    """Kernels intern their trees without the checks of ``reg_tree``; every
    tree they build is the one ``reg_tree`` accepts from the same parts,
    with the degree counted from scratch."""
    trees = [t for n in range(3) for t in enumerate_reg_trees(n, 2)]
    built = set()
    for t1, t2 in iproduct(trees, repeat=2):
        for x in (reg_gl_product(t1, t2), reg_assoc_product(t1, t2)):
            built.update(x.support())
    for t in trees:
        built.update(k for legs in reg_deshuffle(t).support() for k in legs)
        for unit in ((1, 0), (0, 1)):
            built.update(lower_root_adjacent(t, unit).support())
        if not t.is_unit:
            built.update(_peel(t))
    stack = list(built)
    while stack:
        t = stack.pop()
        stack.extend(sub for _, sub in t.edges)
        assert reg_tree(list(t.dec), [(list(a), sub) for a, sub in t.edges]) is t
        assert t.degree == _degree(t)


def test_enumeration_counts():
    assert [len(enumerate_reg_trees(n, 1)) for n in range(4)] == [1, 2, 6, 22]


def test_degrees():
    assert (ONE.degree, X.degree, X2.degree, BULLET.degree, I1.degree,
            I0V1.degree) == (0, 1, 2, 1, 2, 2)


def test_parse_render_round_trip():
    t = parse_reg_tree("[o{0}[o{1}]{a=(1)}]")
    assert t is plant((1,), VTX1)
    assert t.text == "[o{0}[o{1}]{1}]"
    for n in range(4):
        for s in enumerate_reg_trees(n, 1):
            assert parse_reg_tree(s.text) is s


def test_parse_two_dimensional():
    t = parse_reg_tree("[o{1,0}[o{0,2}]{0,1}]")
    assert t.dim == 2 and t.degree == 5


def test_json_round_trip():
    for n in range(4):
        for t in enumerate_reg_trees(n, 1):
            assert reg_tree_from_json(reg_tree_to_json(t)) is t


def test_raise_and_lower():
    r = reg_raise(plant((0,), ONE), (1,))
    assert len(r) == 2 and all(c == 1 for _, c in r.items())
    assert reg_raise(ONE, (2,)) == L(X2)
    assert lower_root_adjacent(BULLET, (1,)).is_zero
    assert lower_root_adjacent(I1, (1,)) == L(BULLET)


@pytest.mark.parametrize("text,amount,message", [
    ("[o{0,0}[o{0,0}]{0,0}]", (1,), "raise amount has the wrong dimension"),
    ("[o{0}[o{0}]{0}]", (0, 1), "raise amount has the wrong dimension"),
    ("[o{0}]", (-1,), "raise amount must be componentwise nonnegative"),
    ("[o{0}]", (1.5,), "raise amount must hold integers"),
    ("[o{0}]", ("1",), "raise amount must hold integers"),
    ("[o{0}]", (True,), "raise amount must hold integers")])
def test_raise_refuses_a_bad_amount(text, amount, message):
    with pytest.raises(ValueError, match=message):
        reg_raise(parse_reg_tree(text), amount)


def test_word_product_lowers_the_commuted_coordinate():
    # X_1 commutes past a branch whose edge carries (0,1): the lowering
    # term takes the unit from coordinate 1, the one that commuted.
    left, right = (parse_reg_tree(t) for t in ("[o{0,0}[o{0,0}]{0,1}]",
                                                "[o{0,1}]"))
    assert reg_assoc_product(left, right) == parse_reg_lincomb(
        "[o{0,1}[o{0,0}]{0,1}] + [o{0,0}[o{0,0}]{0,0}]")


def test_word_product_oracles():
    assert reg_assoc_product(X, X) == L(X2)
    XI = reg_tree((1,), (((0,), ONE),))
    assert reg_assoc_product(X, BULLET) == L(XI)
    XI1 = reg_tree((1,), (((1,), ONE),))
    assert reg_assoc_product(I1, X) == L(XI1) + L(BULLET)
    merge = reg_tree((0,), (((1,), ONE), ((0,), ONE)))
    assert reg_assoc_product(I1, BULLET) == L(merge)


def test_word_product_associative_and_unital():
    pool = [t for n in range(3) for t in enumerate_reg_trees(n, 1)]
    for a, b, c in iproduct(pool, repeat=3):
        if a.degree + b.degree + c.degree > 4:
            continue
        assert reg_assoc_product(reg_assoc_product(a, b), c) == \
            reg_assoc_product(a, reg_assoc_product(b, c))
    for t in pool:
        assert reg_assoc_product(ONE, t) == L(t) == reg_assoc_product(t, ONE)


def test_graft_oracles():
    assert reg_graft(ONE, I1) == L(I1)
    assert reg_graft(I1, ONE).is_zero
    assert reg_graft(X, X).is_zero
    assert reg_graft(BULLET, X).is_zero
    # grafting a polynomial vertex only raises decorations
    assert reg_graft(X, BULLET) == L(I0V1)


def test_graft_deformation_terms():
    g = reg_graft(I1, I0V1)
    term_hi = plant((0,), reg_tree((1,), (((1,), ONE),)))
    term_lo = plant((0,), reg_tree((0,), (((0,), ONE),)))
    assert g == L(term_hi) + L(term_lo)


def test_graft_zero_decorations_plain_and_leftmost():
    g0 = reg_graft(BULLET, plant((0,), BULLET))
    att_root = plant((0,), reg_tree((0,), (((0,), ONE), ((0,), ONE))))
    att_leaf = plant((0,), plant((0,), plant((0,), ONE)))
    assert g0 == L(att_root) + L(att_leaf)
    sigma = reg_tree((0,), (((0,), ONE),))
    gl = reg_graft(I1, plant((0,), sigma))
    lead = plant((0,), reg_tree((0,), (((1,), ONE), ((0,), ONE))))
    assert gl.coeff(lead) == 1


def test_gl_product_polynomial_sector_commutes():
    assert reg_gl_product(X, X) == L(X2)
    assert reg_gl_product(x_power((1, 0)), x_power((0, 1))) \
        == reg_gl_product(x_power((0, 1)), x_power((1, 0))) \
        == L(x_power((1, 1)))


def test_gl_product_planted_letters_do_not_commute():
    assert reg_gl_product(BULLET, I1) != reg_gl_product(I1, BULLET)


def test_gl_product_displays():
    XI = reg_tree((1,), (((0,), ONE),))
    assert reg_gl_product(X, BULLET) == L(XI) + L(I0V1)
    XI1 = reg_tree((1,), (((1,), ONE),))
    assert reg_gl_product(I1, X) == L(XI1) + L(BULLET)
    assert reg_gl_product(ONE, I1) == L(I1) == reg_gl_product(I1, ONE)


def test_bracket_oracles():
    assert bracket0(X, X).is_zero
    assert bracket0(I1, X) == L(BULLET)
    assert bracket0(X, I1) == -L(BULLET)
    merge = reg_tree((0,), (((1,), ONE), ((0,), ONE)))
    swap = reg_tree((0,), (((0,), ONE), ((1,), ONE)))
    assert bracket0(I1, BULLET) == L(merge) - L(swap)


def test_bracket_is_word_commutator_on_letters():
    letters = [t for n in range(1, 3) for t in enumerate_v_letters(n, 1)]
    for a in letters:
        for b in letters:
            if a.degree + b.degree > 4:
                continue
            assert bracket0(a, b) == \
                reg_assoc_product(a, b) - reg_assoc_product(b, a)


def test_bracket_lowering_identity():
    Ia, Ib = plant((1,), ONE), plant((0,), VTX1)
    Y = bracket0(Ia, Ib)
    lhs = reg_assoc_product(Y, X) - reg_assoc_product(X, Y)
    rhs = bracket0(lower_root_adjacent(Ia, (1,)), Ib) \
        + bracket0(Ia, lower_root_adjacent(Ib, (1,)))
    assert lhs == rhs == lower_root_adjacent(Y, (1,))


def test_validation_errors():
    with pytest.raises(ValueError):
        deformed_graft(X2, BULLET)
    merge = reg_tree((0,), (((1,), ONE), ((0,), ONE)))
    with pytest.raises(ValueError):
        bracket0(merge, X)


def test_post_lie_axioms_on_letters():
    letters = [t for n in range(1, 3) for t in enumerate_v_letters(n, 1)]
    for x, y, z in iproduct(letters, repeat=3):
        if x.degree + y.degree + z.degree > 4:
            continue
        lx, ly, lz = L(x), L(y), L(z)
        a1 = reg_graft(lx, bracket0(ly, lz))
        a2 = (reg_assoc_product(deformed_graft(lx, ly), lz)
              - reg_assoc_product(lz, deformed_graft(lx, ly))
              + reg_assoc_product(ly, deformed_graft(lx, lz))
              - reg_assoc_product(deformed_graft(lx, lz), ly))
        assert a1 == a2
        b1 = reg_graft(bracket0(lx, ly), lz)
        b2 = (reg_graft(lx, deformed_graft(ly, lz))
              - reg_graft(deformed_graft(lx, ly), lz)
              - reg_graft(ly, deformed_graft(lx, lz))
              + reg_graft(deformed_graft(ly, lx), lz))
        assert b1 == b2


def test_deshuffle_binomial_and_coassociativity():
    assert reg_deshuffle(X2) == Tensor.from_terms(2, [
        ((ONE, X2), 1), ((X, X), 2), ((X2, ONE), 1)])
    for n in range(4):
        for t in enumerate_reg_trees(n, 1):
            ds = reg_deshuffle(t)
            assert ds.apply_coproduct(0, reg_deshuffle) == \
                ds.apply_coproduct(1, reg_deshuffle)


def test_dual_coproduct_oracles():
    dm = deformed_mkw_coproduct(BULLET, 4)
    assert dm == Tensor.from_terms(2, [((ONE, BULLET), 1), ((BULLET, ONE), 1)])
    dm2 = deformed_mkw_coproduct(X2, 4)
    assert dm2 == Tensor.from_terms(2, [
        ((ONE, X2), 1), ((X, X), 1), ((X2, ONE), 1)])


def test_dual_coproduct_matches_gl_coefficients():
    for n in range(4):
        for t in enumerate_reg_trees(n, 1):
            dt = deformed_mkw_tree(t)
            for i in range(n + 1):
                for a in enumerate_reg_trees(i, 1):
                    for b in enumerate_reg_trees(n - i, 1):
                        assert reg_gl_product(a, b).coeff(t) == dt.coeff((a, b))


def test_dual_coproduct_overflow_guard():
    with pytest.raises(ValueError):
        deformed_mkw_coproduct(X2, 1)


def test_phi_identity_on_letters_and_unit():
    assert phi_reg(ONE, 3) == L(ONE)
    assert phi_reg(X2, 3) == L(X2)
    for n in range(1, 3):
        for t in enumerate_v_letters(n, 1):
            assert phi_reg(t, 3) == L(t)


def test_phi_round_trips():
    for n in range(4):
        for t in enumerate_reg_trees(n, 1):
            assert phi_reg(phi_reg_inverse(t, 3), 6) == L(t)
            assert phi_reg_inverse(phi_reg(t, 3), 6) == L(t)


def test_phi_matrix_full_rank():
    for n in range(4):
        basis = enumerate_reg_trees(n, 1)
        images = [_phi_tree(t).homogeneous(n) for t in basis]
        assert linalg.rank(images) == len(basis)


def test_phi_is_filtered_not_graded():
    T = reg_assoc_product(I1, I0V1)
    low = [t for t, _ in phi_reg(T, 6).items() if t.degree < 4]
    assert low


def test_phi_obstruction_fact():
    # the starred commutator of the degree-one generators is a letter,
    # their word-product commutator vanishes, so no identity-on-letters
    # map can be multiplicative for every pair
    comm_star = reg_gl_product(X, BULLET) - reg_gl_product(BULLET, X)
    comm_word = reg_assoc_product(L(X), L(BULLET)) \
        - reg_assoc_product(L(BULLET), L(X))
    assert comm_star == L(I0V1)
    assert comm_word.is_zero


def test_planted_product_has_single_letter_corrections():
    words = [t for n in range(3) for t in enumerate_reg_trees(n, 1)]
    small = [t for n in range(2) for t in enumerate_reg_trees(n, 1)]
    for a in ((0,), (1,)):
        for c in ((0,), (1,)):
            for w1 in words:
                for w2 in small:
                    ya, yb = plant(a, w1), plant(c, w2)
                    corr = reg_graft(ya, yb)
                    assert reg_gl_product(ya, yb) == \
                        reg_assoc_product(L(ya), L(yb)) + corr
                    assert all(is_v_letter(s) for s in corr.support())


def test_equality_and_hash_are_identity():
    assert RegTree.__eq__ is object.__eq__
    assert RegTree.__hash__ is object.__hash__
    assert "_hash" not in RegTree.__slots__
    # degree and text are plain slots, filled at the intern step
    assert RegTree.__slots__ == ("dec", "edges", "degree", "text")
    assert not isinstance(RegTree.__dict__["text"], property)


def _reg_built_every_way():
    # [o{1,0}[o{0,2}]{0,1}[o{0,0}]{0,0}] from text, nodes and JSON
    by_nodes = reg_tree((1, 0), [((0, 1), x_power((0, 2))),
                                 ((0, 0), reg_one(2))])
    return [parse_reg_tree("[o{1,0}[o{0,2}]{0,1}[o{0,0}]{0,0}]"),
            parse_reg_tree("[{1,0} [o{a=(0,2)}]{0,1} []]"),
            parse_reg_tree("[o{1,0}[o{0,2}]{a=0,1}[o]]", 2),
            by_nodes, reg_tree_from_json(reg_tree_to_json(by_nodes)),
            reg_tree_from_json({"n": [1, 0], "e": [
                {"a": [0, 1], "t": {"n": [0, 2]}},
                {"a": [0, 0], "t": {"n": [0, 0], "e": []}}]}),
            next(iter(parse_reg_lincomb(
                "[o{1,0}[o{0,2}]{0,1}[o{0,0}]{0,0}]").support()))]


def test_equal_shapes_are_one_object_however_built():
    first, *rest = _reg_built_every_way()
    assert all(t is first for t in rest)
    assert all(t.edges[0][1] is x_power((0, 2)) for t in rest)
    assert len({*_reg_built_every_way(), *_reg_built_every_way()}) == 1


def test_identity_survives_clear_caches():
    before = _reg_built_every_way()[0]
    basis = enumerate_reg_trees(3, 2)
    clear_caches()
    assert all(t is before for t in _reg_built_every_way())
    again = enumerate_reg_trees(3, 2)
    assert again is not basis
    assert all(x is y for x, y in zip(again, basis, strict=True))
    assert all(parse_reg_tree(t.text) is t for t in basis)


def test_reg_tree_normalises_outside_input_on_hits_and_misses():
    t = reg_tree((1, 0), (((0, 1), x_power((0, 2))),))
    assert reg_tree([1, 0], [([0, 1], x_power([0, 2]))]) is t
    assert reg_tree(iter((1, 0)), iter([((0, 1), x_power((0, 2)))])) is t
    fresh = reg_tree([7, 5])
    assert type(fresh.dec) is tuple and fresh.dec == (7, 5)
    assert reg_tree((7, 5)) is fresh
    # entries are never coerced: a string or a float is refused on a miss
    with pytest.raises(ValueError, match="must hold integers"):
        reg_tree(["8", 5.0])


@pytest.mark.parametrize("dec, edges", [
    ((), ()),
    ((-1,), ()),
    ([-1, 0], ()),
    ((0,), (((-1,), reg_one(1)),)),
    ((0,), (((0, 0), reg_one(1)),)),
    ((0, 0), (((0, 0), reg_one(1)),)),
    ((0,), (((0,), "[o]"),)),
])
def test_reg_tree_refuses_invalid_trees(dec, edges):
    with pytest.raises(ValueError):
        reg_tree(dec, edges)


def test_overflow_guards_share_one_message():
    msg = "degree overflow: input has degree 2, cap 1"
    for op in (deformed_mkw_coproduct, phi_reg, phi_reg_inverse):
        with pytest.raises(ValueError) as err:
            op(X2, 1)
        assert str(err.value) == msg
