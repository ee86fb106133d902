"""Shared-denominator LinComb/Tensor against the per-term reference.

``lincomb_oracle`` keeps the earlier form, one ``int | Fraction`` per term,
as the slow oracle.  Every operation runs on seeded random combinations with
rational, negative and cancelling coefficients on both sides and must agree
through ``items()`` (values and order), ``coeff``, ``==``, ``hash`` and the
canonical rendering.  Results must also be in normal form: integer
numerators, ``den >= 1``, no common factor, and ``int`` handed out exactly
when a coefficient is integral.
"""

import ast
import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

import exprs_oracle
import lincomb_oracle as ref
import postlie
from postlie import lincomb as new
from postlie.exprs import render_lincomb, render_tensor
from postlie.forest import enumerate_forests, forests_up_to, parse_forest

SRC = Path(postlie.__file__).parent
KEYS = list(forests_up_to(2, ("a", "b")))  # 15 keys: collisions are common
SEEDS = range(30)


def coefficient(rng: random.Random):
    """Small exact coefficient: an int, or a fraction over 2..6."""
    if rng.random() < 0.4:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(rng.randint(-6, 6) or 1, rng.randint(2, 6))


def terms(rng: random.Random, keys, size: int) -> dict:
    return {rng.choice(keys): coefficient(rng) for _ in range(size)}


def both(data: dict, arity: int | None = None):
    if arity is None:
        return new.LinComb(data), ref.LinComb(data)
    return new.Tensor(arity, data), ref.Tensor(arity, data)


def random_pair(rng, size=None):
    return both(terms(rng, KEYS, rng.randint(0, 6) if size is None else size))


def random_tensor(rng, arity=2):
    keys = [tuple(rng.choice(KEYS) for _ in range(arity)) for _ in range(8)]
    return both(terms(rng, keys, rng.randint(0, 6)), arity)


def table(seed: int, arity: int | None = None):
    """A basis map given twice, as new and as reference images.

    Images are seeded by the key text, so both sides see the same values;
    one key in five maps to zero and one in three to integers only.
    """
    def images(*args):
        label = "|".join(a.text for a in args)
        rng = random.Random(f"{seed}:{arity}:{label}")
        if rng.random() < 0.2:
            return {}
        keys = KEYS if arity is None else [
            tuple(rng.choice(KEYS) for _ in range(arity)) for _ in range(6)]
        data = terms(rng, keys, rng.randint(1, 5))
        if rng.random() < 0.3:
            data = {k: Fraction(c).numerator for k, c in data.items()}
        return data

    if arity is None:
        return (lambda *a: new.LinComb(images(*a)),
                lambda *a: ref.LinComb(images(*a)))
    return (lambda *a: new.Tensor(arity, images(*a)),
            lambda *a: ref.Tensor(arity, images(*a)))


def assert_normal(x) -> None:
    num, den = x._num, x._den
    assert type(den) is int and den >= 1
    assert all(type(n) is int and n for n in num.values())
    assert gcd(den, *num.values()) == 1
    for _, c in x.items():
        assert (type(c) is int) == (Fraction(c).denominator == 1)


def assert_same(got, want) -> None:
    """``got`` (shared denominator) equals ``want`` (reference) exactly."""
    assert_normal(got)
    assert list(got.items()) == list(want.items())
    assert len(got) == len(want) and got.is_zero == want.is_zero
    for key, _ in want.items():
        c = got.coeff(key)
        assert c == want.coeff(key)
        assert (type(c) is int) == (Fraction(c).denominator == 1)
    absent = (parse_forest("[a[b[a]]]"),) * getattr(got, "arity", 1)
    assert got.coeff(absent if isinstance(got, new.Tensor) else absent[0]) == 0
    assert hash(got) == hash(want)
    if isinstance(got, new.LinComb):
        assert got == new.LinComb(dict(want.items()))
        assert render_lincomb(got) == exprs_oracle.render_lincomb(want)
    else:
        assert got.arity == want.arity
        assert got == new.Tensor(want.arity, dict(want.items()))
        assert render_tensor(got) == exprs_oracle.render_tensor(want)


@pytest.mark.parametrize("seed", SEEDS)
def test_module_operations_match_the_reference(seed):
    rng = random.Random(seed)
    (x, rx), (y, ry) = random_pair(rng), random_pair(rng)
    assert_same(x, rx)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(x - x, rx - rx)
    assert_same(-x, -rx)
    for s in (3, -2, 0, 1, Fraction(2, 3), Fraction(-5, 4), Fraction(6, 3)):
        assert_same(x.scale(s), rx.scale(s))
        assert_same(s * x, s * rx)
    for n in range(3):
        assert_same(x.homogeneous(n), rx.homogeneous(n))
        assert_same(x.truncate(n), rx.truncate(n))
    assert (x == y) == (rx == ry)
    assert x.degrees() == rx.degrees() and x.max_degree() == rx.max_degree()


@pytest.mark.parametrize("seed", SEEDS)
def test_extensions_match_the_reference(seed):
    rng = random.Random(seed)
    (x, rx), (y, ry) = random_pair(rng), random_pair(rng)
    f, rf = table(seed)
    assert_same(x.map_basis(f), rx.map_basis(rf))
    assert_same(x.map_pairs(y, f), rx.map_pairs(ry, rf))
    g, rg = table(seed, arity=2)
    assert_same(x.apply_coproduct(g), rx.apply_coproduct(rg))
    assert_same(new.tensor_of(x, y), ref.tensor_of(rx, ry))
    assert_same(new.concat(x, y), ref.concat(rx, ry))
    assert_same(new.shuffle(x, y), ref.shuffle(rx, ry))
    assert_same(new.deshuffle(x), ref.deshuffle(rx))
    assert_same(new.deconcat(x), ref.deconcat(rx))
    p, rp = new.pairing(x, y), ref.pairing(rx, ry)
    assert p == rp and (type(p) is int) == (Fraction(p).denominator == 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_tensor_operations_match_the_reference(seed):
    rng = random.Random(seed)
    (t, rt), (u, ru) = random_tensor(rng), random_tensor(rng)
    f, rf = table(seed)
    g, rg = table(seed, arity=2)
    assert_same(t + u, rt + ru)
    assert_same(t - u, rt - ru)
    assert_same(-t, -rt)
    assert_same(t.scale(Fraction(-3, 2)), rt.scale(Fraction(-3, 2)))
    for leg in (0, 1):
        assert_same(t.apply_linear(leg, f), rt.apply_linear(leg, rf))
        assert_same(t.apply_coproduct(leg, g), rt.apply_coproduct(leg, rg))
    assert_same(t.merge_legs(0, 1, f), rt.merge_legs(0, 1, rf))
    assert_same(t.map_basis(lambda k: f(*k)),
                ref.LinComb(dict(rt.items())).map_basis(lambda k: rf(*k)))
    assert_same(t.legwise(u, f), rt.legwise(ru, rf))
    h, rh = table(seed + 100)
    assert_same(t.legwise(u, f, h), rt.legwise(ru, rf, rh))
    unit = KEYS[0]
    for got, want in zip(t.counit_legs(lambda k: k == unit),
                         rt.counit_legs(lambda k: k == unit)):
        assert_same(got, want)
    (w, rw) = random_tensor(rng, arity=3)
    assert_same(w.merge_legs(0, 2, f), rw.merge_legs(0, 2, rf))
    assert_same(w.apply_coproduct(1, g), rw.apply_coproduct(1, rg))
    (v, rv) = random_tensor(rng, arity=4)
    for leg in range(4):
        assert_same(v.apply_linear(leg, f), rv.apply_linear(leg, rf))
        assert_same(v.apply_coproduct(leg, g), rv.apply_coproduct(leg, rg))
    for i, j in combinations(range(4), 2):  # j > i + 1 re-keys leg j first
        assert_same(v.merge_legs(i, j, f), rv.merge_legs(i, j, rf))


def leg_maps(t, left, right, product):
    """``contract`` spelled with the leg maps: map each leg, then merge."""
    merged = t.apply_linear(0, left).apply_linear(1, right).merge_legs(
        0, 1, product)
    return new.LinComb({k: c for (k,), c in merged.items()})


@pytest.mark.parametrize("seed", SEEDS)
def test_contract_matches_the_reference_and_the_leg_maps(seed):
    rng = random.Random(seed)
    t, rt = random_tensor(rng)
    (left, rleft), (right, rright) = table(seed), table(seed + 100)
    product, rproduct = table(seed + 200)
    got = t.contract(left, right, product)
    assert_same(got, rt.contract(rleft, rright, rproduct))
    assert got == leg_maps(t, left, right, product)


def test_contract_widens_the_denominator_and_skips_empty_left_images():
    a, b, c = KEYS[1:4]
    t = new.Tensor(2, {(a, b): Fraction(1, 7), (b, c): 2, (c, a): -1})
    lefts = {a: new.LinComb({a: Fraction(1, 2), b: 1}),
             b: new.LinComb({c: Fraction(2, 3)}), c: new.LinComb()}
    rights = {a: new.LinComb({b: Fraction(3, 5)}),
              b: new.LinComb({a: 1, c: Fraction(-1, 4)}),
              c: new.LinComb({a: Fraction(5, 6)})}
    called = []

    def right(k):
        called.append(k)
        return rights[k]

    def product(k1, k2):
        return new.LinComb({k1: Fraction(1, 3), k2: Fraction(-2, 9)})

    got = t.contract(lefts.__getitem__, right, product)
    assert called == [b, c]  # not the right leg of (c, a): its left is zero
    ref_t = ref.Tensor(2, dict(t.items()))
    assert_same(got, ref_t.contract(
        lambda k: ref.LinComb(dict(lefts[k].items())),
        lambda k: ref.LinComb(dict(rights[k].items())),
        lambda k1, k2: ref.LinComb(dict(product(k1, k2).items()))))
    assert got == leg_maps(t, lefts.__getitem__, rights.__getitem__, product)
    assert t.contract(lambda k: new.LinComb(), right, product).is_zero
    assert called == [b, c]


@pytest.mark.parametrize("seed", range(6))
def test_graded_transpose_matches_the_reference(seed):
    f, rf = table(seed)
    basis = lambda n: enumerate_forests(n, ("a", "b"))
    got = new.graded_transpose(2, basis, f)
    want = ref.graded_transpose(2, basis, rf)
    assert list(got) == list(want)
    for x in want:
        assert_same(got[x], want[x])


def test_trusted_constructors_normalise():
    a, b, c = KEYS[1:4]
    counts = new.LinComb._make({a: 2, b: 4, c: 6}, 4)
    assert list(counts.items()) == [(a, Fraction(1, 2)), (b, 1),
                                    (c, Fraction(3, 2))]
    assert (counts._num, counts._den) == ({a: 1, b: 2, c: 3}, 2)
    assert_normal(new.LinComb._make({a: 3, b: 6}, 3))
    mixed = {a: Fraction(1, 6), b: 2, c: Fraction(-3, 4)}
    assert new.LinComb._adopt(dict(mixed)) == new.LinComb(mixed)
    assert new.Tensor._adopt(1, {(a,): Fraction(4, 2)}) == new.Tensor.basis((a,)) * 2
    ints = {a: 1, b: -2}
    assert new.LinComb._adopt(ints)._num is ints  # the den == 1 path keeps the dict
    assert new.LinComb._make({}, 5)._den == 1


def test_only_lincomb_names_the_accumulator_or_the_stored_form():
    """Composites elsewhere are expressions over the extensions and read
    coefficients through ``items()``; a hand-written accumulator loop or a
    read of the numerators would name one of these."""
    private = {"_add_into", "_linear", "_num", "_den", "_terms"}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lincomb.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & private, f"{path.name} names {sorted(names & private)}"


def test_only_the_accumulator_step_and_the_leg_loop_widen():
    """The widening step of the accumulator is written out twice: in
    ``_add_image``, which every extension sums through, and in
    ``Tensor._legs``, which splices image keys into tensor keys."""
    callers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
            else:
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Name)
                        and child.func.id == "_widen"):
                    callers.add(owner)
                visit(child, owner)

    visit(ast.parse((SRC / "lincomb.py").read_text()), None)
    assert callers == {"_add_image", "_legs"}
