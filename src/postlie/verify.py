"""Property suites over the whole library, reported as machine-readable dicts.

Each suite sweeps basis elements up to a degree bound and records one entry
per property: name, the swept range, pass or fail, and a witness for the
first failure.  ``run_suite`` is the single entry point; the degree bound
defaults per suite and is capped by the ``POSTLIE_DEGREE_CAP`` environment
variable (default 7) because basis sizes grow like Catalan numbers.

The ``paper-examples`` suite replays the worked displays stored in
``data/golden_examples.txt`` and ignores the degree bound.
"""

from __future__ import annotations

import os
from fractions import Fraction
from importlib import resources
from typing import Callable

from . import linalg
from .bck import NP_ONE, bck_primitive_projection, np_parse
from .characters import (canonical_lift, char_convolve, character_failures,
                         embed_rough_path, phi, phi_inverse, phi_matrix,
                         unembed_rough_path)
from .coaction import (_entry, _finish, compose_vectors, disjointness_witness,
                       graft_duality_failures, rho_graft, translate,
                       verify_cointeraction,
                       verify_cotranslation_cosubstitution)
from .exprs import (_parse, parse_lincomb, parse_reg_lincomb, parse_tensor,
                    render_lincomb)
from .forest import (FOREST_ONE, ForestSyntaxError, enumerate_forests,
                     enumerate_trees, leaf, single, tree)
from .grafting import (gl_antipode, gl_forests, gl_product, jacobi_bracket,
                       left_graft)
from .growth import (f_decompose, f_recompose, fold_tensor, growth_fold,
                     is_primitive, natural_growth, primitive_basis,
                     primitive_projection)
from .lincomb import (LinComb, Tensor, _add_into, concat, deconcat_forest,
                      deshuffle, deshuffle_forest, duality_mismatches,
                      shuffle_words, tensor_of)
from .mkw import (duality_failures, mkw_antipode, mkw_coproduct,
                  mkw_coproduct_forest, reduced_coproduct)
from .regstruct import (bracket0, deformed_graft, deformed_mkw_coproduct,
                        deformed_mkw_tree, enumerate_reg_trees,
                        enumerate_v_letters, lower_root_adjacent, mi_unit,
                        phi_reg, phi_reg_inverse, phi_reg_matrix, plant,
                        reg_assoc_product, reg_deshuffle, reg_deshuffle_tree,
                        reg_gl_product, reg_gl_trees, reg_graft,
                        reg_mul_trees, reg_one, x_power, _peel, _phi_tree)

DEFAULT_DEGREE_CAP = 7


class DegreeCapError(ValueError):
    """A requested sweep bound exceeds the configured degree cap."""


def degree_cap() -> int:
    """The active degree cap, from POSTLIE_DEGREE_CAP (default 7)."""
    raw = os.environ.get("POSTLIE_DEGREE_CAP")
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise DegreeCapError(
            f"POSTLIE_DEGREE_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise DegreeCapError("POSTLIE_DEGREE_CAP must be at least 1")
    return cap


def _basis(f) -> LinComb:
    return LinComb.basis(f)


def _flatten1(t: Tensor) -> LinComb:
    return LinComb({key[0]: c for key, c in t.items()})


def _tensor_mul(ta: Tensor, tb: Tensor, mul) -> Tensor:
    # componentwise product of two rank-2 tensors over basis keys
    acc: dict = {}
    for (a1, a2), c in ta.items():
        for (b1, b2), c2 in tb.items():
            for s1, d1 in mul(a1, b1).items():
                for s2, d2 in mul(a2, b2).items():
                    _add_into(acc, (s1, s2), c * c2 * d1 * d2)
    return Tensor(2, acc)


def _deg_range(maxdeg: int) -> str:
    return f"degree <= {maxdeg}"


def _pair_range(maxdeg: int) -> str:
    return f"degree pairs summing to <= {maxdeg}"


def _tuples(pool: list, k: int, budget: int):
    """``k``-tuples of pool items with degree sum <= budget, in product order.

    ``pool`` holds ``(degree, item)`` pairs sorted by degree, so each loop
    stops at the budget left by the items before it.
    """
    if k == 0:
        yield ()
        return
    for n, x in pool:
        if n > budget:
            break
        for rest in _tuples(pool, k - 1, budget - n):
            yield (x,) + rest


# -- cut Hopf algebra axioms -------------------------------------------------

def _suite_hopf(maxdeg: int, letters: tuple[str, ...]) -> dict:
    checks: list[dict] = []

    fails: list[str] = []
    for n in range(maxdeg + 1):
        for f in enumerate_forests(n, letters):
            t = mkw_coproduct_forest(f)
            left = LinComb.from_terms(
                (b, c) for (a, b), c in t.items() if a.is_empty)
            right = LinComb.from_terms(
                (a, c) for (a, b), c in t.items() if b.is_empty)
            if left != _basis(f) or right != _basis(f):
                fails.append(f"x={f.text}")
    checks.append(_entry("counit-legs", _deg_range(maxdeg), fails))

    fails = []
    for n in range(maxdeg + 1):
        for f in enumerate_forests(n, letters):
            t = mkw_coproduct_forest(f)
            if (t.apply_coproduct(0, mkw_coproduct_forest)
                    != t.apply_coproduct(1, mkw_coproduct_forest)):
                fails.append(f"x={f.text}")
    checks.append(_entry("coassociativity", _deg_range(maxdeg), fails))

    fails = []
    for d1 in range(1, maxdeg):
        for d2 in range(d1, maxdeg - d1 + 1):
            for x in enumerate_forests(d1, letters):
                for y in enumerate_forests(d2, letters):
                    lhs = mkw_coproduct(shuffle_words(x, y))
                    rhs = _tensor_mul(mkw_coproduct_forest(x),
                                      mkw_coproduct_forest(y), shuffle_words)
                    if lhs != rhs:
                        fails.append(f"x={x.text} y={y.text}")
    checks.append(_entry("coproduct-shuffle-multiplicative",
                         _pair_range(maxdeg), fails))

    fails = []
    anti = lambda g: mkw_antipode(_basis(g))
    for n in range(maxdeg + 1):
        for f in enumerate_forests(n, letters):
            t = mkw_coproduct_forest(f)
            lhs = _flatten1(t.apply_linear(0, anti)
                            .merge_legs(0, 1, shuffle_words))
            rhs = _flatten1(t.apply_linear(1, anti)
                            .merge_legs(0, 1, shuffle_words))
            want = _basis(FOREST_ONE) if f.is_empty else LinComb.zero()
            if lhs != want or rhs != want:
                fails.append(f"x={f.text}")
    checks.append(_entry("antipode-both-sides", _deg_range(maxdeg), fails))

    return _finish("hopf-axioms", maxdeg, letters, checks)


# -- post-Lie axioms for left grafting ---------------------------------------

def _suite_postlie(maxdeg: int, letters: tuple[str, ...]) -> dict:
    checks: list[dict] = []
    trees = [(n, single(t)) for n in range(1, maxdeg - 1)
             for t in enumerate_trees(n, letters)]

    def br(x: LinComb, y: LinComb) -> LinComb:
        return concat(x, y) - concat(y, x)

    fails: list[str] = []
    for fx, fy, fz in _tuples(trees, 3, maxdeg):
        x, y, z = _basis(fx), _basis(fy), _basis(fz)
        lhs = left_graft(x, br(y, z))
        rhs = br(left_graft(x, y), z) + br(y, left_graft(x, z))
        if lhs != rhs:
            fails.append(f"x={fx.text} y={fy.text} z={fz.text}")
    checks.append(_entry("graft-derives-bracket",
                         f"tree triples, degree sum <= {maxdeg}", fails))

    fails = []
    for fx, fy, fz in _tuples(trees, 3, maxdeg):
        x, y, z = _basis(fx), _basis(fy), _basis(fz)
        lhs = left_graft(br(x, y), z)
        rhs = (left_graft(x, left_graft(y, z))
               - left_graft(left_graft(x, y), z)
               - left_graft(y, left_graft(x, z))
               + left_graft(left_graft(y, x), z))
        if lhs != rhs:
            fails.append(f"x={fx.text} y={fy.text} z={fz.text}")
    checks.append(_entry("bracket-measures-associator",
                         f"tree triples, degree sum <= {maxdeg}", fails))

    fails = []
    for fx, fy, fz in _tuples(trees, 3, maxdeg):
        x, y, z = _basis(fx), _basis(fy), _basis(fz)
        j = (jacobi_bracket(jacobi_bracket(x, y), z)
             + jacobi_bracket(jacobi_bracket(y, z), x)
             + jacobi_bracket(jacobi_bracket(z, x), y))
        if not j.is_zero:
            fails.append(f"x={fx.text} y={fy.text} z={fz.text}")
    checks.append(_entry("derived-bracket-jacobi",
                         f"tree triples, degree sum <= {maxdeg}", fails))

    fails = []
    for na in range(maxdeg + 1):
        for nb in range(maxdeg - na + 1):
            for nc in range(maxdeg - na - nb + 1):
                for a in enumerate_forests(na, letters):
                    for b in enumerate_forests(nb, letters):
                        for c in enumerate_forests(nc, letters):
                            lhs = left_graft(gl_forests(a, b), _basis(c))
                            rhs = left_graft(_basis(a),
                                             left_graft(_basis(b), _basis(c)))
                            if lhs != rhs:
                                fails.append(
                                    f"A={a.text} B={b.text} C={c.text}")
    checks.append(_entry("product-shifts-action",
                         f"forest triples, degree sum <= {maxdeg}", fails))

    return _finish("post-lie-axioms", maxdeg, letters, checks)


# -- product/coproduct dualities ---------------------------------------------

def _suite_gl_duality(maxdeg: int, letters: tuple[str, ...]) -> dict:
    checks: list[dict] = []

    bad = duality_failures(maxdeg, letters)
    checks.append(_entry(
        "gl-product-vs-cut-coproduct", _deg_range(maxdeg),
        [f"A={a.text} B={b.text} x={x.text}" for a, b, x in bad]))

    checks.append(_entry("graft-vs-coaction", _deg_range(maxdeg),
                         graft_duality_failures(maxdeg, letters)))

    for name, product, coproduct in (
            ("concat-vs-deconcat",
             lambda a, b: concat(_basis(a), _basis(b)), deconcat_forest),
            ("shuffle-vs-deshuffle", shuffle_words, deshuffle_forest)):
        fails = [f"a={a.text} b={b.text} x={x.text}"
                 for n in range(maxdeg + 1)
                 for x, a, b, _, _ in duality_mismatches(
                     n, lambda i: enumerate_forests(i, letters), product,
                     coproduct)]
        checks.append(_entry(name, _deg_range(maxdeg), fails))

    return _finish("gl-duality", maxdeg, letters, checks)


# -- the growth operation against the cut coproduct --------------------------

def _suite_growth(maxdeg: int, letters: tuple[str, ...]) -> dict:
    checks: list[dict] = []
    prims = {n: primitive_basis(n, letters) for n in range(1, maxdeg + 1)}

    fails: list[str] = []
    for nx in range(1, maxdeg):
        for x in enumerate_forests(nx, letters):
            X = _basis(x)
            rx = reduced_coproduct(X)
            for m in range(1, maxdeg - nx + 1):
                for p in prims[m]:
                    lhs = reduced_coproduct(natural_growth(X, p))
                    rhs = tensor_of(X, p) + rx.apply_linear(
                        1, lambda g: natural_growth(_basis(g), p))
                    if lhs != rhs:
                        fails.append(
                            f"x={x.text} p={render_lincomb(p)}")
    checks.append(_entry("growth-cocycle-for-cuts",
                         _pair_range(maxdeg), fails))

    fails = []
    pool = [(n, p) for n, ps in prims.items() for p in ps]
    for k in (2, 3):
        for ps in _tuples(pool, k, maxdeg):
            folded = growth_fold(ps)
            levels = f_decompose(folded)
            want = {k: tensor_of(*ps)}
            got = {a: t for a, t in levels.items() if not t.is_zero}
            if got != want:
                fails.append("factors "
                             + " | ".join(render_lincomb(p) for p in ps))
    checks.append(_entry("folds-deconcatenate",
                         f"primitive tuples, degree sum <= {maxdeg}", fails))

    fails = []
    for n in range(1, maxdeg + 1):
        for f in enumerate_forests(n, letters):
            X = _basis(f)
            levels = f_decompose(X)
            if f_recompose(levels) != X:
                fails.append(f"x={f.text}")
            if any(fold_tensor(t).is_zero and not t.is_zero
                   for t in levels.values()):
                fails.append(f"degenerate level on {f.text}")
    checks.append(_entry("decompose-recompose", _deg_range(maxdeg), fails))

    return _finish("natural-growth", maxdeg, letters, checks)


# -- the projection onto primitives ------------------------------------------

def _suite_primitives(maxdeg: int, letters: tuple[str, ...]) -> dict:
    checks: list[dict] = []

    fails: list[str] = []
    for n in range(maxdeg + 1):
        for f in enumerate_forests(n, letters):
            if not is_primitive(primitive_projection(_basis(f))):
                fails.append(f"x={f.text}")
    checks.append(_entry("projection-lands-on-primitives",
                         _deg_range(maxdeg), fails))

    fails = []
    for n in range(1, maxdeg + 1):
        for p in primitive_basis(n, letters):
            if primitive_projection(p) != p:
                fails.append(f"p={render_lincomb(p)}")
    checks.append(_entry("projection-fixes-primitives",
                         _deg_range(maxdeg), fails))

    fails = []
    for n in range(2, maxdeg + 1):
        for t in enumerate_trees(n, letters):
            if not primitive_projection(_basis(single(t))).is_zero:
                fails.append(f"x={single(t).text}")
    checks.append(_entry("projection-kills-grown-trees",
                         f"single trees, 2 <= degree <= {maxdeg}", fails))

    fails = []
    ideg = min(maxdeg, 4)
    for n in range(ideg + 1):
        for f in enumerate_forests(n, letters):
            pf = primitive_projection(_basis(f))
            if primitive_projection(pf) != pf:
                fails.append(f"x={f.text}")
    checks.append(_entry("projection-idempotent", _deg_range(ideg), fails))

    fails = []
    fdeg = min(maxdeg, 4)
    for n in range(1, fdeg + 1):
        for f in enumerate_forests(n, letters):
            X = _basis(f)
            if f_recompose(f_decompose(X)) != X:
                fails.append(f"x={f.text}")
    checks.append(_entry("fold-round-trip", _deg_range(fdeg), fails))

    return _finish("primitives", maxdeg, letters, checks)


# -- the word-side isomorphism and rough-path characters ---------------------

def _suite_phi(maxdeg: int, letters: tuple[str, ...]) -> dict:
    checks: list[dict] = []

    fails: list[str] = []
    for d1 in range(maxdeg + 1):
        for d2 in range(maxdeg - d1 + 1):
            for a in enumerate_forests(d1, letters):
                for b in enumerate_forests(d2, letters):
                    lhs = phi(gl_forests(a, b))
                    rhs = concat(phi(_basis(a)), phi(_basis(b)))
                    if lhs != rhs:
                        fails.append(f"A={a.text} B={b.text}")
    checks.append(_entry("product-to-concat-morphism",
                         _pair_range(maxdeg), fails))

    fails = []
    for n in range(maxdeg + 1):
        for f in enumerate_forests(n, letters):
            lhs = deshuffle(phi(_basis(f)))
            rhs = (deshuffle_forest(f)
                   .apply_linear(0, lambda g: phi(_basis(g)))
                   .apply_linear(1, lambda g: phi(_basis(g))))
            if lhs != rhs:
                fails.append(f"x={f.text}")
    checks.append(_entry("deshuffle-coalgebra-morphism",
                         _deg_range(maxdeg), fails))

    fails = []
    for n in range(1, maxdeg + 1):
        basis, rows = phi_matrix(n, letters)
        if any(rows[i][i] != 1 for i in range(len(basis))):
            fails.append(f"degree {n}: diagonal entry differs from 1")
        if linalg.rank([row[:] for row in rows]) != len(basis):
            fails.append(f"degree {n}: graded matrix is singular")
    checks.append(_entry("graded-unitriangular", _deg_range(maxdeg), fails))

    fails = []
    for n in range(maxdeg + 1):
        for f in enumerate_forests(n, letters):
            X = _basis(f)
            if phi_inverse(phi(X)) != X or phi(phi_inverse(X)) != X:
                fails.append(f"x={f.text}")
    checks.append(_entry("round-trip", _deg_range(maxdeg), fails))

    N = max(1, min(maxdeg, 4))
    fails = []
    incs = {letters[0]: Fraction(1, 2)}
    if len(letters) > 1:
        incs[letters[1]] = Fraction(-1, 3)
    X = canonical_lift(incs, N)
    Y = embed_rough_path(X)
    for f, g, lv, rv in character_failures(X):
        fails.append(f"cut side: f={f.text} g={g.text}")
    for f, g, lv, rv in character_failures(Y):
        fails.append(f"word side: f={f.text} g={g.text}")
    if unembed_rough_path(Y).series() != X.series():
        fails.append("embedding does not round trip")
    checks.append(_entry("character-transport", f"truncation N = {N}", fails))

    N = max(1, min(maxdeg, 3))
    fails = []
    A = canonical_lift({letters[0]: Fraction(1, 2)}, N)
    B = canonical_lift({letters[0]: Fraction(1, 3)}, N)
    AB = canonical_lift({letters[0]: Fraction(5, 6)}, N)
    if char_convolve(A, B).series() != AB.series():
        fails.append("one-letter flow property fails on the cut side")
    if (char_convolve(embed_rough_path(A), embed_rough_path(B)).series()
            != embed_rough_path(AB).series()):
        fails.append("one-letter flow property fails on the word side")
    checks.append(_entry("chen-one-letter", f"truncation N = {N}", fails))

    return _finish("phi-iso", maxdeg, letters, checks)


# -- coaction suites ---------------------------------------------------------

def _suite_cointeraction(maxdeg: int, letters: tuple[str, ...]) -> dict:
    return verify_cointeraction(maxdeg, letters)


def _suite_cotranslation(maxdeg: int, letters: tuple[str, ...]) -> dict:
    report = verify_cotranslation_cosubstitution(maxdeg, letters)
    report["suite"] = "cotranslation"
    return report


def _suite_translation(maxdeg: int, letters: tuple[str, ...]) -> dict:
    checks: list[dict] = []

    v = {d: _basis(single(leaf(d))) * Fraction(1, 2)
         + _basis(single(tree(d, (leaf(d),)))) for d in letters}
    u = {d: _basis(single(leaf(d))) * Fraction(1, 3) for d in letters}

    fails: list[str] = []
    for n in range(maxdeg + 1):
        for f in enumerate_forests(n, letters):
            if translate({}, _basis(f), maxdeg) != _basis(f):
                fails.append(f"x={f.text}")
    checks.append(_entry("zero-vector-is-identity", _deg_range(maxdeg), fails))

    fails = []
    vu = compose_vectors(v, u, maxdeg)
    for n in range(maxdeg + 1):
        for f in enumerate_forests(n, letters):
            lhs = translate(v, translate(u, _basis(f), maxdeg), maxdeg)
            rhs = translate(vu, _basis(f), maxdeg)
            if lhs != rhs:
                fails.append(f"x={f.text}")
    checks.append(_entry("composition-law", _deg_range(maxdeg), fails))

    fails = []
    for d1 in range(1, maxdeg):
        for d2 in range(d1, maxdeg - d1 + 1):
            for x in enumerate_forests(d1, letters):
                for y in enumerate_forests(d2, letters):
                    lhs = translate(v, gl_forests(x, y), maxdeg)
                    rhs = gl_product(translate(v, _basis(x), maxdeg),
                                     translate(v, _basis(y), maxdeg)
                                     ).truncate(maxdeg)
                    if lhs != rhs:
                        fails.append(f"x={x.text} y={y.text}")
    checks.append(_entry("gl-product-morphism", _pair_range(maxdeg), fails))

    return _finish("translation", maxdeg, letters, checks)


def _suite_disjointness(maxdeg: int, letters: tuple[str, ...]) -> dict:
    checks: list[dict] = []
    seed = letters[0]

    unit = _basis(FOREST_ONE)
    rep = disjointness_witness(None, unit, maxdeg)
    fails = ([] if rep["ok"] and rep["xi_is_unit"]
             else [rep["conclusion"]])
    checks.append(_entry("unit-series-agreement", _deg_range(maxdeg), fails))

    for label, c in (("full", Fraction(1)), ("half", Fraction(1, 2))):
        xi = _exp_series(c, seed, maxdeg)
        rep = disjointness_witness(None, xi, maxdeg)
        if maxdeg < 3:
            fails = []
            rng = f"cutoff {maxdeg}: too low to separate the actions"
        else:
            fails = ([] if rep["conclusion"] == "actions differ"
                     else [rep["conclusion"]])
            rng = _deg_range(maxdeg)
        checks.append(_entry(f"{label}-weight-series-separates", rng, fails))

    xi = _exp_series(Fraction(1), seed, maxdeg)
    rep = disjointness_witness({}, xi, maxdeg)
    forced = next((e for e in rep["checks"]
                   if e["name"] == "vector-has-forced-form"), None)
    fails = ([] if forced is not None and forced["status"] == "fail"
             else ["an empty vector was not flagged against the forced form"])
    checks.append(_entry("forced-form-flagged", _deg_range(maxdeg), fails))

    return _finish("disjointness", maxdeg, letters, checks)


def _exp_series(c: Fraction, letter: str, maxdeg: int) -> LinComb:
    # sum over n of c^n/n! times the n-letter word, group-like for deshuffle
    from .forest import word
    acc: dict = {FOREST_ONE: Fraction(1)}
    w = FOREST_ONE
    coeff = Fraction(1)
    for n in range(1, maxdeg + 1):
        w = word(w, single(leaf(letter)))
        coeff = Fraction(coeff * c, n)  # TypeError, never a float
        acc[w] = coeff
    return LinComb(acc)


# -- deformed structures -----------------------------------------------------

def _suite_reg_postlie(maxdeg: int, letters: tuple[str, ...]) -> dict:
    checks: list[dict] = []
    one = reg_one(1)
    pool = [t for n in range(maxdeg) for t in enumerate_reg_trees(n, 1)]
    graded = [(t.degree, t) for t in pool]
    vlets = [(n, t) for n in range(1, maxdeg)
             for t in enumerate_v_letters(n, 1)]
    L = LinComb.basis

    # the inner products of each associator come from the tree-level memo
    for label, prod, inner in (
            ("word-product", reg_assoc_product, reg_mul_trees),
            ("gl-product", reg_gl_product, reg_gl_trees)):
        fails = [f"a={a.text} b={b.text} c={c.text}"
                 for a, b, c in _tuples(graded, 3, maxdeg + 1)
                 if prod(inner(a, b), c) != prod(a, inner(b, c))]
        checks.append(_entry(f"{label}-associative",
                             f"degree sum <= {maxdeg + 1}", fails))
        fails = []
        for t in pool:
            if prod(one, t) != L(t) or prod(t, one) != L(t):
                fails.append(f"t={t.text}")
        checks.append(_entry(f"{label}-unital", _deg_range(maxdeg - 1), fails))

    fails = []
    for i in range(maxdeg + 1):
        for j in range(maxdeg + 1 - i):
            xi, xj = x_power((i,)), x_power((j,))
            prod = reg_gl_product(xi, xj)
            if prod != reg_gl_product(xj, xi) or prod != L(x_power((i + j,))):
                fails.append(f"i={i} j={j}")
    if (reg_gl_product(x_power((1, 0)), x_power((0, 1)))
            != reg_gl_product(x_power((0, 1)), x_power((1, 0)))):
        fails.append("mixed-coordinate pair")
    checks.append(_entry("polynomial-generators-commute",
                         f"exponent sum <= {maxdeg + 1}", fails))

    fails = []
    fa, fb = parse_lincomb("[a]"), parse_lincomb("[b]")
    if gl_product(fa, fb) == gl_product(fb, fa):
        fails.append("planar letters commute, freeness is broken")
    checks.append(_entry("planar-letters-do-not-commute",
                         "single pair of distinct letters", fails))

    fails1: list[str] = []
    fails2: list[str] = []
    for x, y, z in _tuples(vlets, 3, maxdeg + 1):
        lx, ly, lz = L(x), L(y), L(z)
        a1 = reg_graft(lx, bracket0(ly, lz))
        a2 = (reg_assoc_product(deformed_graft(lx, ly), lz)
              - reg_assoc_product(lz, deformed_graft(lx, ly))
              + reg_assoc_product(ly, deformed_graft(lx, lz))
              - reg_assoc_product(deformed_graft(lx, lz), ly))
        if a1 != a2:
            fails1.append(f"x={x.text} y={y.text} z={z.text}")
        b1 = reg_graft(bracket0(lx, ly), lz)
        b2 = (reg_graft(lx, deformed_graft(ly, lz))
              - reg_graft(deformed_graft(lx, ly), lz)
              - reg_graft(ly, deformed_graft(lx, lz))
              + reg_graft(deformed_graft(ly, lx), lz))
        if b1 != b2:
            fails2.append(f"x={x.text} y={y.text} z={z.text}")
    rng = f"generator triples, degree sum <= {maxdeg + 1}"
    checks.append(_entry("graft-derives-bracket", rng, fails1))
    checks.append(_entry("bracket-measures-associator", rng, fails2))

    fails = []
    for a, b in _tuples(vlets, 2, maxdeg + 1):
        if (bracket0(a, b)
                != reg_assoc_product(a, b) - reg_assoc_product(b, a)):
            fails.append(f"a={a.text} b={b.text}")
    checks.append(_entry("bracket-is-word-commutator",
                         f"generator pairs, degree sum <= {maxdeg + 1}",
                         fails))

    fails = []
    for t in pool:
        ds = reg_deshuffle(t)
        left = LinComb.from_terms(
            (b, c) for (a, b), c in ds.items() if a.is_unit)
        right = LinComb.from_terms(
            (a, c) for (a, b), c in ds.items() if b.is_unit)
        if left != L(t) or right != L(t):
            fails.append(f"t={t.text} (counit)")
            continue
        if (ds.apply_coproduct(0, reg_deshuffle_tree)
                != ds.apply_coproduct(1, reg_deshuffle_tree)):
            fails.append(f"t={t.text} (coassociativity)")
    checks.append(_entry("deshuffle-counit-coassociative",
                         _deg_range(maxdeg - 1), fails))

    fails = []
    for a in pool:
        for b in pool:
            if a.degree + b.degree > maxdeg:
                continue
            for prod_t, prod_l in ((reg_mul_trees, reg_assoc_product),
                                   (reg_gl_trees, reg_gl_product)):
                lhs = reg_deshuffle(prod_l(a, b))
                rhs = _tensor_mul(reg_deshuffle_tree(a),
                                  reg_deshuffle_tree(b), prod_t)
                if lhs != rhs:
                    fails.append(f"a={a.text} b={b.text}")
    checks.append(_entry("deshuffle-multiplicative", _pair_range(maxdeg),
                         fails))

    fails = []
    for n in range(maxdeg + 1):
        live: dict = {}
        for t in enumerate_reg_trees(n, 1):
            dt = deformed_mkw_tree(t)
            right = LinComb.from_terms(
                (a, c) for (a, b), c in dt.items() if b.is_unit)
            left = LinComb.from_terms(
                (b, c) for (a, b), c in dt.items() if a.is_unit)
            if right != L(t) or left != L(t):
                fails.append(f"t={t.text} (counit)")
            elif (dt.apply_coproduct(0, deformed_mkw_tree)
                    != dt.apply_coproduct(1, deformed_mkw_tree)):
                fails.append(f"t={t.text} (coassociativity)")
            else:
                live[t] = dt
        # each complementary pair is multiplied once; every product term
        # on a passing tree must be a dual term, and a count of the matches
        # shows whether a dual term is left over
        matched = 0
        for i in range(n + 1):
            for a in enumerate_reg_trees(i, 1):
                for b in enumerate_reg_trees(n - i, 1):
                    for t, c in reg_gl_product(a, b).items():
                        if t in live:
                            if live[t].coeff((a, b)) == c:
                                matched += 1
                            else:
                                fails.append(
                                    f"a={a.text} b={b.text} t={t.text}")
        if matched != sum(len(dt) for dt in live.values()):
            fails.extend(f"a={a.text} b={b.text} t={t.text}"
                         for t, dt in live.items() for (a, b), _ in dt.items()
                         if a.degree + b.degree != n
                         or not reg_gl_product(a, b).coeff(t))
    checks.append(_entry("dual-coproduct-exact", _deg_range(maxdeg), fails))

    fails = []
    try:
        deformed_mkw_coproduct(x_power((2,)), 1)
        fails.append("degree overflow was not flagged")
    except ValueError:
        pass
    checks.append(_entry("degree-overflow-guard", "single probe", fails))

    return _finish("regstruct-postlie", maxdeg, ("dim=1",), checks)


def _suite_reg_phi(maxdeg: int, letters: tuple[str, ...]) -> dict:
    checks: list[dict] = []
    L = LinComb.basis
    one = reg_one(1)

    fails: list[str] = []
    vlets = [t for n in range(1, maxdeg + 1)
             for t in enumerate_v_letters(n, 1)]
    if phi_reg(one, maxdeg) != L(one):
        fails.append("unit moves")
    for t in vlets:
        if phi_reg(t, maxdeg) != L(t):
            fails.append(f"t={t.text}")
    checks.append(_entry("identity-on-letters", _deg_range(maxdeg), fails))

    fails = []
    for n in range(1, maxdeg + 2):
        for t in enumerate_reg_trees(n, 1):
            if t.letters < 2:
                continue
            b, w = _peel(t)
            lhs = phi_reg(reg_gl_product(b, w), 2 * maxdeg + 2)
            rhs = reg_assoc_product(L(b), phi_reg(w, maxdeg + 1))
            if lhs != rhs:
                fails.append(f"t={t.text}")
    checks.append(_entry("leading-letter-morphism",
                         _deg_range(maxdeg + 1), fails))

    fails = []
    for i in range(maxdeg + 2):
        for j in range(maxdeg + 2 - i):
            lhs = phi_reg(reg_gl_product(x_power((i,)), x_power((j,))),
                          2 * maxdeg + 2)
            rhs = reg_assoc_product(L(x_power((i,))), L(x_power((j,))))
            if lhs != rhs:
                fails.append(f"i={i} j={j}")
    checks.append(_entry("polynomial-sector-morphism",
                         f"exponent sum <= {maxdeg + 1}", fails))

    fails = []
    peel_deg = min(maxdeg, 2)
    for j in (0, 1):
        u = x_power(mi_unit(2, j))
        for n in range(peel_deg + 1):
            for t in enumerate_reg_trees(n, 2):
                lhs = phi_reg(reg_gl_product(u, t), 2 * peel_deg + 2)
                rhs = reg_assoc_product(L(u), phi_reg(t, peel_deg))
                if lhs != rhs:
                    fails.append(f"coordinate {j}, t={t.text}")
    checks.append(_entry("unit-peel-order-independent",
                         f"two coordinates, degree <= {peel_deg}", fails))

    fails = []
    for n in range(1, maxdeg + 1):
        basis, rows = phi_reg_matrix(n, 1)
        if any(rows[i][i] != 1 for i in range(len(basis))):
            fails.append(f"degree {n}: diagonal entry differs from 1")
        if linalg.rank([row[:] for row in rows]) != len(basis):
            fails.append(f"degree {n}: graded matrix is singular")
    checks.append(_entry("graded-unitriangular", _deg_range(maxdeg), fails))

    fails = []
    for n in range(maxdeg + 1):
        for t in enumerate_reg_trees(n, 1):
            if (phi_reg(phi_reg_inverse(t, maxdeg), 2 * maxdeg) != L(t)
                    or phi_reg_inverse(phi_reg(t, maxdeg), 2 * maxdeg)
                    != L(t)):
                fails.append(f"t={t.text}")
    checks.append(_entry("round-trip", _deg_range(maxdeg), fails))

    fails = []
    for n in range(maxdeg + 1):
        for t in enumerate_reg_trees(n, 1):
            lhs = reg_deshuffle(phi_reg(t, maxdeg))
            rhs = (reg_deshuffle_tree(t)
                   .apply_linear(0, _phi_tree).apply_linear(1, _phi_tree))
            if lhs != rhs:
                fails.append(f"t={t.text}")
    checks.append(_entry("deshuffle-coalgebra-morphism",
                         _deg_range(maxdeg), fails))

    fails = []
    X = x_power((1,))
    bullet = plant((0,), one)
    comm_star = reg_gl_product(X, bullet) - reg_gl_product(bullet, X)
    comm_word = (reg_assoc_product(X, bullet)
                 - reg_assoc_product(bullet, X))
    raised = plant((0,), x_power((1,)))
    if comm_star != L(raised) or not comm_word.is_zero:
        fails.append("commutators do not separate the two products")
    checks.append(_entry("bracket-obstruction-witness", "single probe",
                         fails))

    return _finish("regstruct-phi", maxdeg, ("dim=1",), checks)


# -- worked examples from the fixture ----------------------------------------

def _load_fixture() -> dict[str, str]:
    text = (resources.files("postlie") / "data"
            / "golden_examples.txt").read_text(encoding="utf-8")
    out: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition(":")
        out[key.strip()] = val.strip()
    return out


def _split_args(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(" ; ")]


def _np_lincomb(text: str) -> LinComb:
    def atom(tok: str, pos: int) -> LinComb:
        try:
            return LinComb.basis(np_parse(tok))
        except ForestSyntaxError as err:
            raise ForestSyntaxError(err.message, pos + err.position) from None
    out = _parse(text, atom, None, LinComb.basis(NP_ONE))
    return LinComb({key[0]: c for key, c in out.items()})


def _suite_examples(maxdeg: int, letters: tuple[str, ...]) -> dict:
    fx = _load_fixture()
    checks: list[dict] = []

    def run(name: str, fn: Callable[[], list[str]]) -> None:
        try:
            fails = fn()
        except Exception as err:  # a broken fixture line is a failure too
            fails = [f"{type(err).__name__}: {err}"]
        checks.append(_entry(name, "fixture", fails))

    def eq(lhs, rhs) -> list[str]:
        if lhs == rhs:
            return []
        return ["computed value differs from the transcribed display"]

    def graft_case(key: str) -> list[str]:
        a, b = (parse_lincomb(s) for s in _split_args(fx[f"{key}.args"]))
        return eq(left_graft(a, b), parse_lincomb(fx[f"{key}.out"]))

    run("graft-tree", lambda: graft_case("graft.tree"))
    run("graft-forest", lambda: graft_case("graft.forest"))

    def gl_triple() -> list[str]:
        a, b, c = (parse_lincomb(s) for s in _split_args(fx["gl.triple.args"]))
        out = parse_lincomb(fx["gl.triple.out"])
        return (eq(gl_product(gl_product(a, b), c), out)
                + eq(gl_product(a, gl_product(b, c)), out))

    run("gl-triple-product", gl_triple)

    def anti_single() -> list[str]:
        arg = parse_lincomb(fx["glantipode.single.arg"])
        return eq(gl_antipode(arg), parse_lincomb(fx["glantipode.single.out"]))

    run("gl-antipode-single", anti_single)

    def anti_pair() -> list[str]:
        f1, f2 = (parse_lincomb(s)
                  for s in _split_args(fx["glantipode.pair.args"]))
        lhs = gl_antipode(concat(f1, f2))
        rhs = gl_product(f2, f1) + left_graft(f1, f2)
        return eq(lhs, rhs)

    run("gl-antipode-two-word", anti_pair)

    def cop_case(key: str) -> list[str]:
        arg = parse_lincomb(fx[f"{key}.arg"])
        return eq(mkw_coproduct(arg), parse_tensor(fx[f"{key}.out"]))

    run("cut-coproduct-tree", lambda: cop_case("mkw.tree"))
    run("cut-coproduct-forest", lambda: cop_case("mkw.forest"))

    def growth_case() -> list[str]:
        a, b = (parse_lincomb(s) for s in _split_args(fx["growth.args"]))
        scale = Fraction(fx["growth.scale"])
        return eq(natural_growth(a, b) * scale, parse_lincomb(fx["growth.out"]))

    run("natural-growth-average", growth_case)

    def pi_case() -> list[str]:
        arg = parse_lincomb(fx["pi.mkw.arg"])
        return eq(primitive_projection(arg), parse_lincomb(fx["pi.mkw.out"]))

    run("primitive-projection", pi_case)

    def rho_case() -> list[str]:
        arg = parse_lincomb(fx["rho.arg"])
        return eq(rho_graft(arg), parse_tensor(fx["rho.out"]))

    run("graft-coaction", rho_case)

    def bck_case(key: str) -> list[str]:
        arg = _np_lincomb(fx[f"{key}.arg"])
        return eq(bck_primitive_projection(arg), _np_lincomb(fx[f"{key}.out"]))

    run("nonplanar-projection-two", lambda: bck_case("bck.pi2"))
    run("nonplanar-projection-three", lambda: bck_case("bck.pi3"))

    def bck_zeros() -> list[str]:
        fails = []
        for raw in _split_args(fx["bck.zero.args"]):
            if not bck_primitive_projection(_np_lincomb(raw)).is_zero:
                fails.append(f"projection of {raw} is nonzero")
        return fails

    run("nonplanar-projection-zeros", bck_zeros)

    def reg_xx() -> list[str]:
        a, b = (parse_reg_lincomb(s) for s in _split_args(fx["reg.xx.args"]))
        out = parse_reg_lincomb(fx["reg.xx.out"])
        fails = eq(reg_gl_product(a, b), out)
        c, d = (parse_reg_lincomb(s)
                for s in _split_args(fx["reg.xx.commute.args"]))
        fails += eq(reg_gl_product(c, d), reg_gl_product(d, c))
        return fails

    run("polynomial-product", reg_xx)

    def reg_bracket() -> list[str]:
        t1, t2, x = (parse_reg_lincomb(s)
                     for s in _split_args(fx["reg.bracket.args"]))
        (xt,) = x.support()
        why = bracket0(t1, t2)
        lhs = reg_assoc_product(why, x) - reg_assoc_product(x, why)
        lowered = lower_root_adjacent(why, xt.dec)
        out = parse_reg_lincomb(fx["reg.bracket.out"])
        return eq(lhs, lowered) + eq(lowered, out)

    run("bracket-lowering", reg_bracket)

    def reg_xstar() -> list[str]:
        x, y = (parse_reg_lincomb(s)
                for s in _split_args(fx["reg.xstar.args"]))
        return eq(reg_gl_product(x, y), parse_reg_lincomb(fx["reg.xstar.out"]))

    run("polynomial-times-planted", reg_xstar)

    return _finish("paper-examples", maxdeg, letters, checks)


# -- registry ----------------------------------------------------------------

_SUITES: dict[str, tuple[Callable[[int, tuple[str, ...]], dict], int]] = {
    "hopf-axioms": (_suite_hopf, 4),
    "post-lie-axioms": (_suite_postlie, 4),
    "gl-duality": (_suite_gl_duality, 4),
    "natural-growth": (_suite_growth, 4),
    "primitives": (_suite_primitives, 4),
    "phi-iso": (_suite_phi, 4),
    "cointeraction": (_suite_cointeraction, 3),
    "cotranslation": (_suite_cotranslation, 3),
    "translation": (_suite_translation, 3),
    "disjointness": (_suite_disjointness, 3),
    "regstruct-postlie": (_suite_reg_postlie, 3),
    "regstruct-phi": (_suite_reg_phi, 3),
    "paper-examples": (_suite_examples, 0),
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(name: str, maxdeg: int | None = None,
              alphabet: tuple[str, ...] = ("o",)) -> dict:
    """Run one suite and return its report.

    ``maxdeg`` falls back to the suite's default and must stay within
    :func:`degree_cap`; ``alphabet`` feeds the planar sweeps and is ignored
    by the decorated suites, which fix dimension one.
    """
    try:
        fn, default = _SUITES[name]
    except KeyError:
        known = ", ".join(_SUITES)
        raise ValueError(f"unknown suite {name!r}; choose one of {known}") \
            from None
    if maxdeg is None:
        maxdeg = default
    if maxdeg < 0:
        raise ValueError("max degree must be nonnegative")
    cap = degree_cap()
    if maxdeg > cap:
        raise DegreeCapError(
            f"max degree {maxdeg} exceeds the degree cap {cap}; "
            "set POSTLIE_DEGREE_CAP to raise it")
    return fn(maxdeg, tuple(alphabet))
