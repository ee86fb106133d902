"""Property suites over the whole library, reported as machine-readable dicts.

Each suite is a table of laws (see :mod:`postlie.laws`): one row per
property, holding its name, the label of the range it sweeps, a graded
sweep of basis elements and a predicate that returns the failure witnesses
of one case.  A suite's builder sets up what its rows share (primitive
bases, translation vectors, pools of decorated trees) once and returns the
rows, which ``run_laws`` checks.  A law that two suites share is stated
once: ``_postlie_axioms`` builds the two post-Lie rows of both the planar
and the deformed suite, ``_unitriangular`` the triangularity row of both
phi suites, and pairings are swept by ``lincomb.duality_mismatches``.

``run_suite`` is the single entry point; the degree bound defaults per
suite and is capped by the ``POSTLIE_DEGREE_CAP`` environment variable
(default 7) because basis sizes grow like Catalan numbers.  The
``paper-examples`` suite replays the worked displays stored in
``data/golden_examples.txt`` and ignores the degree bound; most of its
rows are one ``display`` check, and a fixture line that raises fails its
row instead of the suite.
"""

from __future__ import annotations

import os
from fractions import Fraction
from importlib import resources
from itertools import chain, product
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

from . import linalg
from .bck import bck_primitive_projection, forget_planarity
from .characters import (_phi_forest, canonical_lift, char_convolve,
                         character_failures, embed_rough_path, phi,
                         phi_inverse, unembed_rough_path)
from .coaction import (compose_vectors, cointeraction_laws,
                       cotranslation_laws, disjointness_witness, rho_forest,
                       rho_graft, translate)
from .exprs import (parse_lincomb, parse_reg_lincomb, parse_tensor,
                    render_lincomb)
from .forest import (FOREST_ONE, _canon_alphabet, enumerate_forests,
                     enumerate_trees, leaf, single, tree, word)
from .grafting import (gl_antipode, gl_forests, gl_product, graft_forests,
                       jacobi_bracket, left_graft)
from .growth import (f_decompose, f_recompose, fold_tensor, growth_fold,
                     is_primitive, natural_growth, primitive_basis,
                     primitive_projection)
from .laws import (ONCE, Law, deg_range, forests, graded, pair_range, pool,
                   run_laws, tuples)
from .lincomb import (LinComb, concat, deconcat_forest, deshuffle,
                      deshuffle_forest, duality_mismatches, shuffle_words,
                      tensor_of)
from .mkw import (mkw_antipode, mkw_coproduct, mkw_coproduct_forest,
                  reduced_coproduct)
from .regstruct import (bracket0, deformed_graft, deformed_mkw_coproduct,
                        deformed_mkw_tree, enumerate_reg_trees,
                        enumerate_v_letters, lower_root_adjacent, mi_unit,
                        phi_reg, phi_reg_inverse, plant, reg_assoc_product,
                        reg_deshuffle, reg_deshuffle_tree, reg_gl_product,
                        reg_gl_trees, reg_graft, reg_mul_trees, reg_one,
                        x_power, _peel, _phi_tree)

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


def cap_degree(n: int, what: str) -> int:
    """``n``, refused when negative or above :func:`degree_cap`; ``what``
    names it in the message."""
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")
    cap = degree_cap()
    if n > cap:
        raise DegreeCapError(f"{what} {n} exceeds the degree cap {cap}; "
                             "set POSTLIE_DEGREE_CAP to raise it")
    return n


_basis = LinComb.basis
_is_empty = attrgetter("is_empty")
_is_unit = attrgetter("is_unit")


def _degree(n: int) -> tuple[int]:
    # the one case of degree n in a sweep over degrees or exponents
    return (n,)


def _unitriangular(maxdeg: int, basis: Callable[[int], tuple],
                   image: Callable) -> Law:
    """On each ``basis(n)``, ``image`` is 1 on the diagonal and its degree-n
    part has full rank."""
    def check(n: int):
        bs = basis(n)
        images = [image(b) for b in bs]
        if any(img.coeff(b) != 1 for b, img in zip(bs, images)):
            yield f"degree {n}: diagonal entry differs from 1"
        if linalg.rank(img.homogeneous(n) for img in images) != len(bs):
            yield f"degree {n}: graded matrix is singular"
    return Law("graded-unitriangular", deg_range(maxdeg),
               graded(_degree, maxdeg, 1), check)


# -- cut Hopf algebra axioms -------------------------------------------------

def _hopf_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    anti = lambda g: mkw_antipode(_basis(g))

    def counit_legs(f):
        if mkw_coproduct_forest(f).counit_legs(_is_empty) != (_basis(f),) * 2:
            return f"x={f.text}"

    def coassociative(f):
        t = mkw_coproduct_forest(f)
        if (t.apply_coproduct(0, mkw_coproduct_forest)
                != t.apply_coproduct(1, mkw_coproduct_forest)):
            return f"x={f.text}"

    def shuffle_multiplicative(x, y):
        if (mkw_coproduct(shuffle_words(x, y))
                != mkw_coproduct_forest(x).legwise(mkw_coproduct_forest(y),
                                                   shuffle_words)):
            return f"x={x.text} y={y.text}"

    def antipode(f):
        t = mkw_coproduct_forest(f)
        lhs = t.contract(anti, _basis, shuffle_words)
        rhs = t.contract(_basis, anti, shuffle_words)
        want = _basis(FOREST_ONE) if f.is_empty else LinComb.zero()
        if lhs != want or rhs != want:
            return f"x={f.text}"

    return [
        Law("counit-legs", deg_range(maxdeg), forests(letters, maxdeg),
            counit_legs),
        Law("coassociativity", deg_range(maxdeg), forests(letters, maxdeg),
            coassociative),
        Law("coproduct-shuffle-multiplicative", pair_range(maxdeg),
            forests(letters, maxdeg, 1, 2, ascending=True),
            shuffle_multiplicative),
        Law("antipode-both-sides", deg_range(maxdeg), forests(letters, maxdeg),
            antipode),
    ]


# -- post-Lie axioms ---------------------------------------------------------

def _postlie_axioms(rng: str, sweep: Callable[[], Iterable[tuple]],
                    graft: Callable, inner: Callable, bracket: Callable,
                    commutator: Callable) -> list[Law]:
    """The two post-Lie axioms, stated once for every carrier, on the basis
    triples of ``sweep()``: ``graft`` is the product applied last, ``inner``
    the same product where its value is taken further, and ``bracket`` on
    the left-hand sides must agree with ``commutator`` on the right."""
    def derives_bracket(a, b, c):
        x, y, z = _basis(a), _basis(b), _basis(c)
        if graft(x, bracket(y, z)) != (commutator(inner(x, y), z)
                                       + commutator(y, inner(x, z))):
            return f"x={a.text} y={b.text} z={c.text}"

    def measures_associator(a, b, c):
        x, y, z = _basis(a), _basis(b), _basis(c)
        if graft(bracket(x, y), z) != (graft(x, inner(y, z))
                                       - graft(inner(x, y), z)
                                       - graft(y, inner(x, z))
                                       + graft(inner(y, x), z)):
            return f"x={a.text} y={b.text} z={c.text}"

    return [Law("graft-derives-bracket", rng, sweep(), derives_bracket),
            Law("bracket-measures-associator", rng, sweep(),
                measures_associator)]


def _postlie_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    trees = pool(lambda n: map(single, enumerate_trees(n, letters)),
                 1, maxdeg - 2)
    triples = f"tree triples, degree sum <= {maxdeg}"

    def br(x: LinComb, y: LinComb) -> LinComb:
        return concat(x, y) - concat(y, x)

    def jacobi(fx, fy, fz):
        x, y, z = _basis(fx), _basis(fy), _basis(fz)
        j = (jacobi_bracket(jacobi_bracket(x, y), z)
             + jacobi_bracket(jacobi_bracket(y, z), x)
             + jacobi_bracket(jacobi_bracket(z, x), y))
        if not j.is_zero:
            return f"x={fx.text} y={fy.text} z={fz.text}"

    def shifts_action(a, b, c):
        lhs = left_graft(gl_forests(a, b), _basis(c))
        rhs = left_graft(_basis(a), left_graft(_basis(b), _basis(c)))
        if lhs != rhs:
            return f"A={a.text} B={b.text} C={c.text}"

    return [
        *_postlie_axioms(triples, lambda: tuples(maxdeg, trees, trees, trees),
                         left_graft, left_graft, br, br),
        Law("derived-bracket-jacobi", triples,
            tuples(maxdeg, trees, trees, trees), jacobi),
        Law("product-shifts-action",
            f"forest triples, degree sum <= {maxdeg}",
            forests(letters, maxdeg, k=3), shifts_action),
    ]


# -- product/coproduct dualities ---------------------------------------------

def _gl_duality_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    """``<product(a, b), x> = <a (x) b, coproduct(x)>`` for four pairs, one
    degree per case; a mismatch fills ``witness`` with the texts of ``a``,
    ``b`` and ``x`` and the two pairings ``lhs`` and ``rhs``."""
    def row(name, lo, product, coproduct, witness):
        def check(n):
            return [witness.format(a=a.text, b=b.text, x=x.text, lhs=lhs,
                                   rhs=rhs)
                    for x, a, b, lhs, rhs in duality_mismatches(
                        n, lambda i: enumerate_forests(i, letters), product,
                        coproduct)]
        return Law(name, deg_range(maxdeg), graded(_degree, maxdeg, lo), check)

    pair = "a={a} b={b} x={x}"
    return [
        row("gl-product-vs-cut-coproduct", 0, gl_forests, mkw_coproduct_forest,
            "A={a} B={b} x={x}"),
        row("graft-vs-coaction", 1, graft_forests, rho_forest,
            "<{a} (x) {b}, rho({x})> = {lhs}, but <{a} graft {b}, {x}> = {rhs}"),
        row("concat-vs-deconcat", 0, lambda a, b: concat(_basis(a), _basis(b)),
            deconcat_forest, pair),
        row("shuffle-vs-deshuffle", 0, shuffle_words, deshuffle_forest, pair),
    ]


# -- the growth operation against the cut coproduct --------------------------

def _growth_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    prims = pool(lambda n: primitive_basis(n, letters), 1, maxdeg)

    def cocycle(x, p):
        X = _basis(x)
        lhs = reduced_coproduct(natural_growth(X, p))
        rhs = tensor_of(X, p) + reduced_coproduct(X).apply_linear(
            1, lambda g: natural_growth(_basis(g), p))
        if lhs != rhs:
            return f"x={x.text} p={render_lincomb(p)}"

    def folds(*ps):
        levels = f_decompose(growth_fold(ps))
        got = {a: t for a, t in levels.items() if not t.is_zero}
        if got != {len(ps): tensor_of(*ps)}:
            return "factors " + " | ".join(render_lincomb(p) for p in ps)

    def recomposes(f):
        X = _basis(f)
        levels = f_decompose(X)
        if f_recompose(levels) != X:
            yield f"x={f.text}"
        if any(fold_tensor(t).is_zero and not t.is_zero
               for t in levels.values()):
            yield f"degenerate level on {f.text}"

    return [
        Law("growth-cocycle-for-cuts", pair_range(maxdeg),
            tuples(maxdeg, pool(lambda n: enumerate_forests(n, letters),
                                 1, maxdeg - 1), prims), cocycle),
        Law("folds-deconcatenate",
            f"primitive tuples, degree sum <= {maxdeg}",
            chain(tuples(maxdeg, prims, prims),
                  tuples(maxdeg, prims, prims, prims)), folds),
        Law("decompose-recompose", deg_range(maxdeg),
            forests(letters, maxdeg, 1), recomposes),
    ]


# -- the projection onto primitives ------------------------------------------

def _primitive_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    small = min(maxdeg, 4)

    def lands(f):
        if not is_primitive(primitive_projection(_basis(f))):
            return f"x={f.text}"

    def fixes(p):
        if primitive_projection(p) != p:
            return f"p={render_lincomb(p)}"

    def kills(t):
        if not primitive_projection(_basis(single(t))).is_zero:
            return f"x={single(t).text}"

    def idempotent(f):
        pf = primitive_projection(_basis(f))
        if primitive_projection(pf) != pf:
            return f"x={f.text}"

    def fold_round_trip(f):
        X = _basis(f)
        if f_recompose(f_decompose(X)) != X:
            return f"x={f.text}"

    return [
        Law("projection-lands-on-primitives", deg_range(maxdeg),
            forests(letters, maxdeg), lands),
        Law("projection-fixes-primitives", deg_range(maxdeg),
            graded(lambda n: primitive_basis(n, letters), maxdeg, 1), fixes),
        Law("projection-kills-grown-trees",
            f"single trees, 2 <= degree <= {maxdeg}",
            graded(lambda n: enumerate_trees(n, letters), maxdeg, 2), kills),
        Law("projection-idempotent", deg_range(small),
            forests(letters, small), idempotent),
        Law("fold-round-trip", deg_range(small), forests(letters, small, 1),
            fold_round_trip),
    ]


# -- the word-side isomorphism and rough-path characters ---------------------

def _phi_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    phi_basis = lambda g: phi(_basis(g))
    n_transport = max(1, min(maxdeg, 4))
    n_chen = max(1, min(maxdeg, 3))

    def morphism(a, b):
        if phi(gl_forests(a, b)) != concat(phi(_basis(a)), phi(_basis(b))):
            return f"A={a.text} B={b.text}"

    def coalgebra_morphism(f):
        lhs = deshuffle(phi(_basis(f)))
        rhs = (deshuffle_forest(f)
               .apply_linear(0, phi_basis)
               .apply_linear(1, phi_basis))
        if lhs != rhs:
            return f"x={f.text}"

    def round_trip(f):
        X = _basis(f)
        if phi_inverse(phi(X)) != X or phi(phi_inverse(X)) != X:
            return f"x={f.text}"

    def character_transport():
        incs = {letters[0]: Fraction(1, 2)}
        if len(letters) > 1:
            incs[letters[1]] = Fraction(-1, 3)
        X = canonical_lift(incs, n_transport)
        Y = embed_rough_path(X)
        for f, g, _, _ in character_failures(X):
            yield f"cut side: f={f.text} g={g.text}"
        for f, g, _, _ in character_failures(Y):
            yield f"word side: f={f.text} g={g.text}"
        if unembed_rough_path(Y).series() != X.series():
            yield "embedding does not round trip"

    def chen_one_letter():
        A = canonical_lift({letters[0]: Fraction(1, 2)}, n_chen)
        B = canonical_lift({letters[0]: Fraction(1, 3)}, n_chen)
        AB = canonical_lift({letters[0]: Fraction(5, 6)}, n_chen)
        if char_convolve(A, B).series() != AB.series():
            yield "one-letter flow property fails on the cut side"
        if (char_convolve(embed_rough_path(A), embed_rough_path(B)).series()
                != embed_rough_path(AB).series()):
            yield "one-letter flow property fails on the word side"

    return [
        Law("product-to-concat-morphism", pair_range(maxdeg),
            forests(letters, maxdeg, k=2), morphism),
        Law("deshuffle-coalgebra-morphism", deg_range(maxdeg),
            forests(letters, maxdeg), coalgebra_morphism),
        _unitriangular(maxdeg, lambda n: enumerate_forests(n, letters),
                       _phi_forest),
        Law("round-trip", deg_range(maxdeg), forests(letters, maxdeg),
            round_trip),
        Law("character-transport", f"truncation N = {n_transport}", ONCE,
            character_transport),
        Law("chen-one-letter", f"truncation N = {n_chen}", ONCE,
            chen_one_letter),
    ]


# -- translations ------------------------------------------------------------

def _translation_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    v = {d: _basis(single(leaf(d))) * Fraction(1, 2)
         + _basis(single(tree(d, (leaf(d),)))) for d in letters}
    u = {d: _basis(single(leaf(d))) * Fraction(1, 3) for d in letters}
    vu = compose_vectors(v, u, maxdeg)

    def zero_is_identity(f):
        if translate({}, _basis(f), maxdeg) != _basis(f):
            return f"x={f.text}"

    def composition(f):
        lhs = translate(v, translate(u, _basis(f), maxdeg), maxdeg)
        if lhs != translate(vu, _basis(f), maxdeg):
            return f"x={f.text}"

    def gl_morphism(x, y):
        lhs = translate(v, gl_forests(x, y), maxdeg)
        rhs = gl_product(translate(v, _basis(x), maxdeg),
                         translate(v, _basis(y), maxdeg)).truncate(maxdeg)
        if lhs != rhs:
            return f"x={x.text} y={y.text}"

    return [
        Law("zero-vector-is-identity", deg_range(maxdeg),
            forests(letters, maxdeg), zero_is_identity),
        Law("composition-law", deg_range(maxdeg), forests(letters, maxdeg),
            composition),
        Law("gl-product-morphism", pair_range(maxdeg),
            forests(letters, maxdeg, 1, 2, ascending=True), gl_morphism),
    ]


def _disjointness_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    seed = letters[0]

    def unit_series():
        rep = disjointness_witness(None, _basis(FOREST_ONE), maxdeg)
        if not (rep["ok"] and rep["xi_is_unit"]):
            return rep["conclusion"]

    def separates(label: str, c: Fraction) -> Law:
        def check():
            rep = disjointness_witness(None, _exp_series(c, seed, maxdeg),
                                       maxdeg)
            if rep["conclusion"] != "actions differ":
                return rep["conclusion"]
        name = f"{label}-weight-series-separates"
        if maxdeg < 3:
            return Law(name, f"cutoff {maxdeg}: too low to separate the "
                       "actions", (), check)
        return Law(name, deg_range(maxdeg), ONCE, check)

    def forced_form_flagged():
        rep = disjointness_witness({}, _exp_series(Fraction(1), seed, maxdeg),
                                   maxdeg)
        forced = next((e for e in rep["checks"]
                       if e["name"] == "vector-has-forced-form"), None)
        if forced is None or forced["status"] != "fail":
            return "an empty vector was not flagged against the forced form"

    # below degree 2 the forced shifts truncate to zero: nothing to flag
    forced_sweep = ((deg_range(maxdeg), ONCE) if maxdeg >= 2 else
                    (f"cutoff {maxdeg}: forced shifts truncate to zero", ()))
    return [
        Law("unit-series-agreement", deg_range(maxdeg), ONCE, unit_series),
        separates("full", Fraction(1)),
        separates("half", Fraction(1, 2)),
        Law("forced-form-flagged", *forced_sweep, forced_form_flagged),
    ]


def _exp_series(c: Fraction, letter: str, maxdeg: int) -> LinComb:
    # sum over n of c^n/n! times the n-letter word, group-like for deshuffle
    acc: dict = {FOREST_ONE: Fraction(1)}
    w = FOREST_ONE
    coeff = Fraction(1)
    for n in range(1, maxdeg + 1):
        w = word(w, single(leaf(letter)))
        coeff = Fraction(coeff * c, n)  # TypeError, never a float
        acc[w] = coeff
    return LinComb._adopt(acc)


# -- deformed structures -----------------------------------------------------

def _reg_trees(n: int) -> tuple:
    return enumerate_reg_trees(n, 1)


def _reg_postlie_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    one = reg_one(1)
    L = LinComb.basis
    trees = pool(_reg_trees, 0, maxdeg - 1)
    vlets = pool(lambda n: enumerate_v_letters(n, 1), 1, maxdeg - 1)

    # the inner products of each associator come from the tree-level memo
    def product_laws(label, prod, inner) -> list[Law]:
        def associative(a, b, c):
            if prod(inner(a, b), c) != prod(a, inner(b, c)):
                return f"a={a.text} b={b.text} c={c.text}"

        def unital(t):
            if prod(one, t) != L(t) or prod(t, one) != L(t):
                return f"t={t.text}"

        return [Law(f"{label}-associative", f"degree sum <= {maxdeg + 1}",
                    tuples(maxdeg + 1, trees, trees, trees), associative),
                Law(f"{label}-unital", deg_range(maxdeg - 1),
                    graded(_reg_trees, maxdeg - 1), unital)]

    # one-coordinate powers must commute and add their exponents to
    # ``total``; the mixed-coordinate pair is only checked to commute
    def commute(a, b, witness, total=None):
        xa, xb = x_power(a), x_power(b)
        prod = reg_gl_product(xa, xb)
        if prod != reg_gl_product(xb, xa) or (
                total is not None and prod != L(x_power(total))):
            return witness

    def planar_letters():
        fa, fb = parse_lincomb("[a]"), parse_lincomb("[b]")
        if gl_product(fa, fb) == gl_product(fb, fa):
            return "planar letters commute, freeness is broken"

    def commutator(x, y):
        return reg_assoc_product(x, y) - reg_assoc_product(y, x)

    def word_commutator(a, b):
        if bracket0(a, b) != commutator(a, b):
            return f"a={a.text} b={b.text}"

    def deshuffle_bialgebra(t):
        ds = reg_deshuffle(t)
        if ds.counit_legs(_is_unit) != (L(t),) * 2:
            return f"t={t.text} (counit)"
        if (ds.apply_coproduct(0, reg_deshuffle_tree)
                != ds.apply_coproduct(1, reg_deshuffle_tree)):
            return f"t={t.text} (coassociativity)"

    def deshuffle_multiplicative(a, b):
        for prod_t, prod_l in ((reg_mul_trees, reg_assoc_product),
                               (reg_gl_trees, reg_gl_product)):
            if (reg_deshuffle(prod_l(a, b)) != reg_deshuffle_tree(a)
                    .legwise(reg_deshuffle_tree(b), prod_t)):
                yield f"a={a.text} b={b.text}"

    def dual_coproduct_exact(n):
        live = set()
        for t in _reg_trees(n):
            dt = deformed_mkw_tree(t)
            if dt.counit_legs(_is_unit) != (L(t),) * 2:
                yield f"t={t.text} (counit)"
            elif (dt.apply_coproduct(0, deformed_mkw_tree)
                    != dt.apply_coproduct(1, deformed_mkw_tree)):
                yield f"t={t.text} (coassociativity)"
            else:
                live.add(t)
        # the pairing on the passing trees, every pair multiplied afresh
        yield from (f"a={a.text} b={b.text} t={t.text}"
                    for t, a, b, _, _ in duality_mismatches(
                        n, _reg_trees, reg_gl_product, deformed_mkw_tree)
                    if t in live)

    def overflow_guard():
        try:
            deformed_mkw_coproduct(x_power((2,)), 1)
        except ValueError:
            return None
        return "degree overflow was not flagged"

    exponents = (((i,), (j,), f"i={i} j={j}", (i + j,))
                 for i, j in graded(_degree, maxdeg + 1, k=2))
    return [
        *product_laws("word-product", reg_assoc_product, reg_mul_trees),
        *product_laws("gl-product", reg_gl_product, reg_gl_trees),
        Law("polynomial-generators-commute", f"exponent sum <= {maxdeg + 1}",
            chain(exponents, [((1, 0), (0, 1), "mixed-coordinate pair")]),
            commute),
        Law("planar-letters-do-not-commute", "single pair of distinct letters",
            ONCE, planar_letters),
        *_postlie_axioms(f"generator triples, degree sum <= {maxdeg + 1}",
                         lambda: tuples(maxdeg + 1, vlets, vlets, vlets),
                         reg_graft, deformed_graft, bracket0, commutator),
        Law("bracket-is-word-commutator",
            f"generator pairs, degree sum <= {maxdeg + 1}",
            tuples(maxdeg + 1, vlets, vlets), word_commutator),
        Law("deshuffle-counit-coassociative", deg_range(maxdeg - 1),
            graded(_reg_trees, maxdeg - 1), deshuffle_bialgebra),
        Law("deshuffle-multiplicative", pair_range(maxdeg),
            tuples(maxdeg, trees, trees), deshuffle_multiplicative),
        Law("dual-coproduct-exact", deg_range(maxdeg),
            graded(_degree, maxdeg), dual_coproduct_exact),
        Law("degree-overflow-guard", "single probe", ONCE, overflow_guard),
    ]


def _reg_phi_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    L = LinComb.basis
    one = reg_one(1)
    peel_deg = min(maxdeg, 2)
    dim_two = [t for n in range(peel_deg + 1)
               for t in enumerate_reg_trees(n, 2)]

    def identity_on_letters(t):
        if phi_reg(t, maxdeg) != L(t):
            return "unit moves" if t.is_unit else f"t={t.text}"

    def leading_letter(t):
        if t.letters < 2:
            return None
        b, w = _peel(t)
        lhs = phi_reg(reg_gl_product(b, w), 2 * maxdeg + 2)
        if lhs != reg_assoc_product(L(b), phi_reg(w, maxdeg + 1)):
            return f"t={t.text}"

    def polynomial_sector(i, j):
        lhs = phi_reg(reg_gl_product(x_power((i,)), x_power((j,))),
                      2 * maxdeg + 2)
        if lhs != reg_assoc_product(L(x_power((i,))), L(x_power((j,)))):
            return f"i={i} j={j}"

    def unit_peel(j, t):
        u = x_power(mi_unit(2, j))
        lhs = phi_reg(reg_gl_product(u, t), 2 * peel_deg + 2)
        if lhs != reg_assoc_product(L(u), phi_reg(t, peel_deg)):
            return f"coordinate {j}, t={t.text}"

    def round_trip(t):
        if (phi_reg(phi_reg_inverse(t, maxdeg), 2 * maxdeg) != L(t)
                or phi_reg_inverse(phi_reg(t, maxdeg), 2 * maxdeg) != L(t)):
            return f"t={t.text}"

    def coalgebra_morphism(t):
        lhs = reg_deshuffle(phi_reg(t, maxdeg))
        rhs = (reg_deshuffle_tree(t)
               .apply_linear(0, _phi_tree).apply_linear(1, _phi_tree))
        if lhs != rhs:
            return f"t={t.text}"

    def bracket_obstruction():
        X = x_power((1,))
        bullet = plant((0,), one)
        comm_star = reg_gl_product(X, bullet) - reg_gl_product(bullet, X)
        comm_word = (reg_assoc_product(X, bullet)
                     - reg_assoc_product(bullet, X))
        if comm_star != L(plant((0,), x_power((1,)))) or not comm_word.is_zero:
            return "commutators do not separate the two products"

    return [
        Law("identity-on-letters", deg_range(maxdeg),
            chain([(one,)],
                  graded(lambda n: enumerate_v_letters(n, 1), maxdeg, 1)),
            identity_on_letters),
        Law("leading-letter-morphism", deg_range(maxdeg + 1),
            graded(_reg_trees, maxdeg + 1, 1), leading_letter),
        Law("polynomial-sector-morphism", f"exponent sum <= {maxdeg + 1}",
            graded(_degree, maxdeg + 1, k=2), polynomial_sector),
        Law("unit-peel-order-independent",
            f"two coordinates, degree <= {peel_deg}",
            product((0, 1), dim_two), unit_peel),
        _unitriangular(maxdeg, lambda n: enumerate_reg_trees(n, 1), _phi_tree),
        Law("round-trip", deg_range(maxdeg), graded(_reg_trees, maxdeg),
            round_trip),
        Law("deshuffle-coalgebra-morphism", deg_range(maxdeg),
            graded(_reg_trees, maxdeg), coalgebra_morphism),
        Law("bracket-obstruction-witness", "single probe", ONCE,
            bracket_obstruction),
    ]


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
    return forget_planarity(parse_lincomb(text))


def _example_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    fx = _load_fixture()

    def row(name: str, check: Callable, *case) -> Law:
        return Law(name, "fixture", (case,), check)

    def args(key: str, parse=parse_lincomb) -> list[LinComb]:
        return [parse(s) for s in _split_args(fx[key])]

    def eq(lhs, rhs) -> list[str]:
        if lhs == rhs:
            return []
        return ["computed value differs from the transcribed display"]

    def display(op, key, arg, parse=parse_lincomb, parse_out=parse_lincomb):
        return eq(op(*args(f"{key}.{arg}", parse)), parse_out(fx[f"{key}.out"]))

    def gl_triple():
        a, b, c = args("gl.triple.args")
        out = parse_lincomb(fx["gl.triple.out"])
        return (eq(gl_product(gl_product(a, b), c), out)
                + eq(gl_product(a, gl_product(b, c)), out))

    def anti_pair():
        f1, f2 = args("glantipode.pair.args")
        lhs = gl_antipode(concat(f1, f2))
        return eq(lhs, gl_product(f2, f1) + left_graft(f1, f2))

    def growth_case():
        a, b = args("growth.args")
        scale = Fraction(fx["growth.scale"])
        return eq(natural_growth(a, b) * scale, parse_lincomb(fx["growth.out"]))

    def bck_zeros():
        for raw in _split_args(fx["bck.zero.args"]):
            if not bck_primitive_projection(_np_lincomb(raw)).is_zero:
                yield f"projection of {raw} is nonzero"

    def reg_xx():
        a, b = args("reg.xx.args", parse_reg_lincomb)
        out = parse_reg_lincomb(fx["reg.xx.out"])
        product_differs = eq(reg_gl_product(a, b), out)
        c, d = args("reg.xx.commute.args", parse_reg_lincomb)
        return product_differs + eq(reg_gl_product(c, d), reg_gl_product(d, c))

    def reg_bracket():
        t1, t2, x = args("reg.bracket.args", parse_reg_lincomb)
        (xt,) = x.support()
        why = bracket0(t1, t2)
        lhs = reg_assoc_product(why, x) - reg_assoc_product(x, why)
        lowered = lower_root_adjacent(why, xt.dec)
        out = parse_reg_lincomb(fx["reg.bracket.out"])
        return eq(lhs, lowered) + eq(lowered, out)

    return [
        row("graft-tree", display, left_graft, "graft.tree", "args"),
        row("graft-forest", display, left_graft, "graft.forest", "args"),
        row("gl-triple-product", gl_triple),
        row("gl-antipode-single", display, gl_antipode, "glantipode.single",
            "arg"),
        row("gl-antipode-two-word", anti_pair),
        row("cut-coproduct-tree", display, mkw_coproduct, "mkw.tree", "arg",
            parse_lincomb, parse_tensor),
        row("cut-coproduct-forest", display, mkw_coproduct, "mkw.forest",
            "arg", parse_lincomb, parse_tensor),
        row("natural-growth-average", growth_case),
        row("primitive-projection", display, primitive_projection, "pi.mkw",
            "arg"),
        row("graft-coaction", display, rho_graft, "rho", "arg", parse_lincomb,
            parse_tensor),
        row("nonplanar-projection-two", display, bck_primitive_projection,
            "bck.pi2", "arg", _np_lincomb, _np_lincomb),
        row("nonplanar-projection-three", display, bck_primitive_projection,
            "bck.pi3", "arg", _np_lincomb, _np_lincomb),
        row("nonplanar-projection-zeros", bck_zeros),
        row("polynomial-product", reg_xx),
        row("bracket-lowering", reg_bracket),
        row("polynomial-times-planted", display, reg_gl_product, "reg.xstar",
            "args", parse_reg_lincomb, parse_reg_lincomb),
    ]


# -- registry ----------------------------------------------------------------

class _Suite(NamedTuple):
    laws: Callable[[int, tuple[str, ...]], list[Law]]
    default: int
    alphabet: tuple[str, ...] | None = None  # reported instead of the letters
    guarded: bool = False  # a raising row fails instead of the suite


_DIM_ONE = ("dim=1",)

_SUITES: dict[str, _Suite] = {
    "hopf-axioms": _Suite(_hopf_laws, 4),
    "post-lie-axioms": _Suite(_postlie_laws, 4),
    "gl-duality": _Suite(_gl_duality_laws, 4),
    "natural-growth": _Suite(_growth_laws, 4),
    "primitives": _Suite(_primitive_laws, 4),
    "phi-iso": _Suite(_phi_laws, 4),
    "cointeraction": _Suite(cointeraction_laws, 3),
    "cotranslation": _Suite(cotranslation_laws, 3),
    "translation": _Suite(_translation_laws, 3),
    "disjointness": _Suite(_disjointness_laws, 3),
    "regstruct-postlie": _Suite(_reg_postlie_laws, 3, _DIM_ONE),
    "regstruct-phi": _Suite(_reg_phi_laws, 3, _DIM_ONE),
    "paper-examples": _Suite(_example_laws, 0, guarded=True),
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(name: str, maxdeg: int | None = None,
              alphabet: tuple[str, ...] = ("o",)) -> dict:
    """Run one suite and return its report.

    ``maxdeg`` falls back to the suite's default and must stay within
    :func:`degree_cap`; ``alphabet``, read as a sorted set, must list at
    least one letter.  It feeds the planar sweeps and is ignored by the
    decorated suites, which fix dimension one.
    """
    try:
        suite = _SUITES[name]
    except KeyError:
        known = ", ".join(_SUITES)
        raise ValueError(f"unknown suite {name!r}; choose one of {known}") \
            from None
    letters = _canon_alphabet(alphabet)
    if not letters:
        raise ValueError("alphabet must list at least one letter")
    maxdeg = cap_degree(suite.default if maxdeg is None else maxdeg,
                        "max degree")
    return run_laws(name, maxdeg, suite.alphabet or letters,
                    suite.laws(maxdeg, letters), suite.guarded)
