"""The memoised translation against the per-call recursion it replaced.

``translate_oracle`` is the earlier ``translate``: it rebuilds the image of
every subforest in a dict held by one call, and splits a forest by the
Grossman-Larson recursion ``T(t w) = T(t) * T(w) - T(t > w)``, where the
library concatenates ``T(t) T(w)``.  ``translate`` keeps one memo per
vector and cutoff for the life of the process, so the sweep interleaves
vectors and cutoffs without clearing caches, runs once more after
``clear_caches()``, and includes equal vectors built in different key
orders, which must share their memo entries.  The concatenation form rests
on every shift being primitive, so a second sweep shifts by commutators of
trees, the Lie polynomials beyond single trees.
"""

import random
from fractions import Fraction

import pytest

from postlie import cache_sizes, clear_caches
from postlie.coaction import shuffle_primitive_failures, translate
from postlie.exprs import parse_lincomb
from postlie.forest import (FOREST_ONE, OrderedForest, b_minus,
                            enumerate_forests, forest, forests_up_to, leaf,
                            parse_forest, single)
from postlie.grafting import gl_product, graft_forests, left_graft
from postlie.lincomb import LinComb, concat

MEMO = "coaction._translate_forest"
CUTOFFS = range(6)


def translate_oracle(v, x, maxdeg):
    assert not any(shuffle_primitive_failures(s) for s in v.values())
    if isinstance(x, OrderedForest):
        x = LinComb.basis(x)
    memo: dict = {}

    def t_forest(f):
        got = memo.get(f)
        if got is not None:
            return got
        if f.is_empty:
            out = LinComb.basis(FOREST_ONE)
        elif len(f) == 1:
            t = f.trees[0]
            target = (LinComb.basis(single(leaf(t.decoration)))
                      + v.get(t.decoration, LinComb.zero()))
            out = left_graft(t_lin(LinComb.basis(b_minus(t))),
                             target).truncate(maxdeg)
        else:
            head = single(f.trees[0])
            rest = forest(f.trees[1:])
            out = (gl_product(t_forest(head), t_forest(rest)).truncate(maxdeg)
                   - t_lin(graft_forests(head, rest)))
        memo[f] = out
        return out

    def t_lin(y):
        return y.truncate(maxdeg).map_basis(t_forest).truncate(maxdeg)

    return t_lin(x)


def seeded_vectors(letters, count, seed):
    """Sums of single trees of degree <= 3 with rational coefficients, hence
    shuffle-primitive; one vector in five leaves out a letter."""
    rng = random.Random(seed)
    trees = [f for n in (1, 2, 3) for f in enumerate_forests(n, letters)
             if len(f) == 1]
    out = []
    for i in range(count):
        present = letters[1:] if i % 5 == 4 else letters
        out.append({d: LinComb.from_terms(
            (rng.choice(trees), Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))) for d in present})
    return out


def commutator(s, t) -> LinComb:
    """``s t - t s`` under concatenation: shuffle-primitive when ``s`` and
    ``t`` are."""
    return concat(s, t) - concat(t, s)


def bracket_vectors(letters, count, seed):
    """A tree plus a commutator of two trees of degree <= 2, with rational
    coefficients, for each letter."""
    rng = random.Random(seed)
    trees = [LinComb.basis(f) for n in (1, 2)
             for f in enumerate_forests(n, letters) if len(f) == 1]
    return [{d: rng.choice(trees) * Fraction(rng.randint(-2, 2),
                                             rng.randint(1, 3))
             + commutator(*rng.sample(trees, 2))
             * Fraction(rng.randint(1, 3), rng.randint(1, 4))
             for d in letters} for _ in range(count)]


# Lie-polynomial shifts written out, one per letter set
BRACKETS = {("a", "b"): {"a": "[a][b] - [b][a]",
                         "b": "[a[b]][a] - [a][a[b]]"},
            ("o",): {"o": "[o[o]][o] - [o][o[o]]"}}


@pytest.mark.parametrize("letters,maxdeg,seed", [(("o",), 5, 3),
                                                 (("a", "b"), 4, 4)])
def test_translate_matches_the_recursion_on_bracket_shifts(letters, maxdeg,
                                                           seed):
    fixed = {d: parse_lincomb(text) for d, text in BRACKETS[letters].items()}
    vectors = [fixed] + bracket_vectors(letters, 3, seed)
    basis = list(forests_up_to(maxdeg, letters))
    for cutoff in range(maxdeg + 1):
        for v in vectors:
            for f in basis:
                assert translate(v, f, cutoff) == \
                    translate_oracle(v, f, cutoff), (v, f.text, cutoff)


@pytest.mark.parametrize("letters,maxdeg,seed", [(("o",), 5, 1),
                                                 (("a", "b"), 4, 2)])
def test_translate_matches_the_per_call_recursion(letters, maxdeg, seed):
    vectors = seeded_vectors(letters, 5, seed)
    vectors.append(dict(reversed(list(vectors[0].items()))))
    basis = list(forests_up_to(maxdeg, letters))
    mixed = LinComb.from_terms((f, Fraction(i % 7 - 3, i % 3 + 1))
                               for i, f in enumerate(basis))
    for rerun in (False, True):
        if rerun:
            clear_caches()
            assert cache_sizes()[MEMO] == 0
        for cutoff in CUTOFFS:
            for v in vectors:
                for f in basis:
                    assert translate(v, f, cutoff) == \
                        translate_oracle(v, f, cutoff), (v, f.text, cutoff)
                assert translate(v, mixed, cutoff) == \
                    translate_oracle(v, mixed, cutoff), (v, cutoff)
    assert cache_sizes()[MEMO] > 0


def test_equal_vectors_share_their_memo_entries():
    a, ba = LinComb.basis(parse_forest("[a]")), LinComb.basis(
        parse_forest("[b[a]]"))
    v = {"a": a * Fraction(1, 2), "b": ba - a}
    w = {"b": ba - a, "a": a * Fraction(1, 2)}
    assert list(v) != list(w) and v == w
    x = LinComb.from_terms((f, 1) for f in forests_up_to(4, "ab"))
    clear_caches()
    want = translate(v, x, 4)
    size = cache_sizes()[MEMO]
    assert size > 0
    assert translate(w, x, 4) == want
    assert cache_sizes()[MEMO] == size
    clear_caches()
    assert cache_sizes()[MEMO] == 0
