"""Coaction dual to left grafting, its interaction laws, translations.

Left grafting consumes its whole left argument: every tree of it gets
attached somewhere, none survives as a concatenation factor.  Dually,
the coaction implemented here is the part of the full coproduct where
nothing is deconcatenated.  On one tree it keeps all admissible cuts
except the one pruning the entire tree; on a longer forest it cuts each
tree separately, shuffles all pruned groups into the left leg and keeps
the trimmed trees concatenated in their original order on the right.
The ``graft-vs-coaction`` row of the ``gl-duality`` suite checks it
against the transpose of grafting.

The coproduct dual to the Grossman-Larson product, needed by the
cosubstitution identity, is the MKW coproduct: by the paper's main result
the Guin-Oudom extension on planar forests yields the dual of the MKW
Hopf algebra (the `gl-duality` suite checks it against the product).

The interaction identities are stated as rows of laws (see
:mod:`postlie.laws`): ``cointeraction_laws`` and ``cotranslation_laws``
feed the ``cointeraction`` and ``cotranslation`` suites of
:mod:`postlie.verify`, whose ``run_suite`` caps their degree.

Translations act on the dual side: ``translate`` shifts every vertex
decoration ``i`` by a chosen primitive element and extends over trees by
grafting and over forests by concatenation, as the Guin-Oudom morphism it
is.  The images of basis forests are memoised per vector and cutoff, so
the calls of a suite, one per basis forest with one vector, share them.  The
``disjointness_witness`` report replays the argument showing that a
translation can agree with grafting by a fixed group-like series only
when that series is trivial; its checks are rows of laws as well.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Mapping

from .characters import group_like_failures
from .exprs import render_lincomb
from .forest import (FOREST_ONE, OrderedForest, b_minus, b_plus, forest,
                     leaf, single, tree)
from .grafting import left_graft
from .laws import ONCE, Law, deg_range, forests, pair_range, run_laws
from .lincomb import (LinComb, Tensor, _concat_product, concat,
                      deconcat_forest, deshuffle, shuffle_words, tensor_of)
from .memo import memo
from .mkw import mkw_coproduct_forest

TranslationVector = Mapping[str, LinComb]

_ONE = LinComb.basis(FOREST_ONE)


# -- the grafting coaction -------------------------------------------------

@memo
def rho_forest(f: OrderedForest) -> Tensor:
    """Coaction of a basis forest: pruned groups left, trimmed trees right."""
    if f.is_empty:
        return Tensor.basis((FOREST_ONE, FOREST_ONE))
    if len(f) == 1:
        # all cuts except the one removing the whole tree
        return mkw_coproduct_forest(f) - Tensor.basis((f, FOREST_ONE))
    return rho_forest(single(f.trees[0])).legwise(
        rho_forest(forest(f.trees[1:])), shuffle_words, _concat_product)


def rho_graft(x: LinComb | OrderedForest) -> Tensor:
    """Linear extension of `rho_forest`."""
    if isinstance(x, OrderedForest):
        return rho_forest(x)
    return x.apply_coproduct(rho_forest)


# -- the coproduct dual to the Grossman-Larson product ---------------------

def delta_star_forest(f: OrderedForest) -> Tensor:
    """Coproduct dual to the Grossman-Larson product: the MKW coproduct.
    Nothing in the package calls it; it is kept as a public synonym."""
    return mkw_coproduct_forest(f)


# -- interaction axioms ----------------------------------------------------

def cointeraction_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    """The four interaction axioms of the grafting coaction, as rows.

    The coaction should fix the unit, be multiplicative for the shuffle
    product leg by leg, leave no residue under the right-leg counit, and
    commute with the deconcatenation coproduct up to a shuffle of the
    outer legs.
    """
    def unit_is_fixed():
        if rho_forest(FOREST_ONE) != Tensor.basis((FOREST_ONE, FOREST_ONE)):
            return "rho(1) != 1 (x) 1"

    def multiplicative(x, y):
        if (shuffle_words(x, y).apply_coproduct(rho_forest)
                != rho_forest(x).legwise(rho_forest(y), shuffle_words)):
            return f"x={x.text} y={y.text}"

    def counit_annihilates(f):
        if not rho_forest(f).counit_legs(attrgetter("is_empty"))[1].is_zero:
            return f"right-leg counit residue on {f.text}"

    def deconcat_compatible(f):
        lhs = rho_forest(f).apply_coproduct(1, deconcat_forest)
        rhs = (deconcat_forest(f)
               .apply_coproduct(0, rho_forest)
               .apply_coproduct(2, rho_forest)
               .merge_legs(0, 2, shuffle_words))
        if lhs != rhs:
            return f.text

    return [
        Law("unit-is-fixed", "degree 0", ONCE, unit_is_fixed),
        Law("shuffle-multiplicative", pair_range(maxdeg),
            forests(letters, maxdeg, 1, 2, ascending=True), multiplicative),
        Law("counit-annihilates", deg_range(maxdeg),
            forests(letters, maxdeg, 1), counit_annihilates),
        Law("deconcat-compatible", deg_range(maxdeg),
            forests(letters, maxdeg), deconcat_compatible),
    ]


def cotranslation_laws(maxdeg: int, letters: tuple[str, ...]) -> list[Law]:
    """The two ways of iterating the grafting coaction, as rows.

    Re-expanding the right leg must agree with first splitting the left
    leg by deconcatenation, coacting on the middle piece and shuffling
    the two left legs back together; it must also agree with splitting
    the left leg by the coproduct dual to the Grossman-Larson product,
    which is the MKW coproduct.
    """
    def iterated(f: OrderedForest) -> Tensor:
        return rho_forest(f).apply_coproduct(1, rho_forest)

    def translation(f):
        rhs = (rho_forest(f).apply_coproduct(0, deconcat_forest)
               .apply_coproduct(1, rho_forest)
               .merge_legs(0, 1, shuffle_words))
        if iterated(f) != rhs:
            return f.text

    def substitution(f):
        if iterated(f) != rho_forest(f).apply_coproduct(0, mkw_coproduct_forest):
            return f.text

    return [
        Law("translation-identity", deg_range(maxdeg),
            forests(letters, maxdeg), translation),
        Law("substitution-identity", deg_range(maxdeg),
            forests(letters, maxdeg), substitution),
    ]


# -- translations ----------------------------------------------------------

def shuffle_primitive_failures(x: LinComb) -> list[str]:
    """Nonzero terms of the reduced deshuffle coproduct, rendered."""
    if x.coeff(FOREST_ONE):
        return ["has a constant part"]
    red = deshuffle(x) - tensor_of(x, _ONE) - tensor_of(_ONE, x)
    return [f"{a.text} (x) {b.text}: {c}" for (a, b), c in red.items()]


def translate(v: TranslationVector, x: LinComb | OrderedForest,
              maxdeg: int) -> LinComb:
    """Shift every decoration ``i`` of ``x`` by ``v[i]``, up to ``maxdeg``.

    Single vertices go to themselves plus their shift.  A tree is peeled
    into its children forest grafted onto its root vertex, and the root
    vertex is shifted.  A forest goes to the concatenation of the images
    of its trees: each image is primitive for the deshuffle, so this is
    the Guin-Oudom recursion ``T(t w) = T(t) * T(w) - T(t > w)``, and
    truncation commutes with products that add degrees.  The result is a
    morphism for both products, up to the cutoff.

    Missing decorations shift by zero; every present shift must be
    primitive for the deshuffle coproduct.
    """
    _checked_vector(tuple(v.items()))
    if isinstance(x, OrderedForest):
        x = LinComb.basis(x)
    items = tuple(sorted(v.items()))
    return x.truncate(maxdeg).map_basis(
        lambda f: _translate_forest(items, maxdeg, f))


@memo
def _checked_vector(items: tuple) -> bool:
    """Refuse a vector with a shift that is not primitive for the deshuffle,
    naming the first bad decoration in the order of ``items``; checked once
    per vector, and a failure raises and is not cached."""
    for key, val in items:
        bad = shuffle_primitive_failures(val)
        if bad:
            raise ValueError(
                f"translation term for decoration {key!r} is not "
                f"primitive: {bad[0]}")
    return True


@memo
def _translate_forest(v: tuple, maxdeg: int, f: OrderedForest) -> LinComb:
    """Translation of a basis forest of degree <= ``maxdeg``, truncated;
    ``v`` holds the vector's items sorted, so equal vectors share entries."""
    if f.is_empty:
        return _ONE
    if len(f) == 1:
        t = f.trees[0]
        target = (LinComb.basis(single(leaf(t.decoration)))
                  + dict(v).get(t.decoration, LinComb.zero()))
        return left_graft(_translate_forest(v, maxdeg, b_minus(t)),
                          target).truncate(maxdeg)
    return concat(_translate_forest(v, maxdeg, single(f.trees[0])),
                  _translate_forest(v, maxdeg, forest(f.trees[1:]))
                  ).truncate(maxdeg)


def compose_vectors(v: TranslationVector, u: TranslationVector,
                    maxdeg: int) -> dict[str, LinComb]:
    """The vector of the composite translation: v plus the v-shift of u."""
    out: dict[str, LinComb] = {}
    for key in sorted(set(v) | set(u)):
        shifted = translate(v, u[key], maxdeg) if key in u else LinComb.zero()
        combined = v.get(key, LinComb.zero()) + shifted
        if not combined.is_zero:
            out[key] = combined
    return out


# -- the two coactions meet only trivially ---------------------------------

def disjointness_witness(v: TranslationVector | None, xi: LinComb,
                         maxdeg: int) -> dict:
    """Compare translating with grafting a fixed group-like series.

    Agreement on single vertices forces each shift to be the series,
    minus its constant term, grown onto a new root with the matching
    decoration; the report records that step, then tests the forced
    translation against grafting on the two-vertex chain, where the two
    sides differ unless the series is the unit.  Passing ``v`` checks
    the supplied shifts against the forced ones first; ``v=None`` uses
    the forced shifts directly.
    """
    if xi.coeff(FOREST_ONE) != 1:
        raise ValueError("series must have constant term 1")
    if group_like_failures(xi, maxdeg):
        raise ValueError("series is not group-like up to the cutoff")

    letters = i, j = ("i", "j")
    forced = {d: LinComb.from_terms((single(b_plus(f, d)), c)
                                    for f, c in xi.items() if not f.is_empty
                                    ).truncate(maxdeg)
              for d in letters}

    used = forced if v is None else dict(v)

    def agrees(f: OrderedForest):
        diff = (left_graft(xi, LinComb.basis(f)).truncate(maxdeg)
                - translate(used, LinComb.basis(f), maxdeg))
        if not diff.is_zero:
            return f"difference {render_lincomb(diff)}"

    def forced_form():
        return [f"shift for {d!r} differs from the forced one" for d in forced
                if v.get(d, LinComb.zero()).truncate(maxdeg) != forced[d]]

    vertex, chain = single(leaf(i)), single(tree(i, (leaf(j),)))
    laws = [Law("agree-on-single-vertex", vertex.text, ((vertex,),), agrees),
            Law("agree-on-two-vertex-chain", chain.text, ((chain,),), agrees)]
    if v is not None:
        laws.insert(0, Law("vector-has-forced-form",
                           f"decorations {sorted(forced)}", ONCE, forced_form))

    xi_is_unit = xi.truncate(maxdeg) == _ONE
    report = run_laws("disjointness", maxdeg, letters, laws)
    report["xi_is_unit"] = xi_is_unit
    report["conclusion"] = (
        "series is the unit; both actions are the identity" if xi_is_unit
        else "actions differ" if not report["ok"]
        else "actions agree below the cutoff; raise it to separate them")
    return report
