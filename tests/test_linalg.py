"""The sparse elimination against dense Gauss-Jordan over Fraction."""

import random
from fractions import Fraction

import pytest

from postlie.forest import enumerate_forests
from postlie.growth import primitive_basis
from postlie.lincomb import LinComb, Tensor
from postlie.linalg import SingularMatrixError, invert, kernel_basis, rank, rref
from postlie.mkw import reduced_coproduct_forest


# -- the oracle: Gauss-Jordan elimination over Fraction ---------------------

def rref_oracle(matrix):
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def kernel_oracle(matrix, ncols):
    if not matrix:
        return [[Fraction(i == j) for i in range(ncols)] for j in range(ncols)]
    reduced, pivots = rref_oracle(matrix)
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -reduced[prow][free]
        out.append(v)
    return out


def invert_oracle(matrix):
    n = len(matrix)
    aug = [list(row) + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(matrix)]
    reduced, pivots = rref_oracle(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


# -- seeded matrices ----------------------------------------------------------

def _entry(rng):
    kind = rng.random()
    if kind < 0.35:
        return 0
    if kind < 0.7:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


def random_matrix(rng, nrows, ncols):
    rows = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [0] * ncols          # a zero row
    if nrows >= 2 and rng.random() < 0.4:                 # a dependent row
        i, j = rng.sample(range(nrows), 2)
        k = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    return rows


def _cases():
    rng = random.Random(20231)
    for _ in range(400):
        yield random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))


def columns(m):
    """The matrix's columns as vectors keyed by row index."""
    return [LinComb(dict(enumerate(col))) for col in zip(*m)]


def as_vectors(dense):
    return tuple(LinComb.from_terms(enumerate(vec)) for vec in dense)


def test_rref_and_kernel_match_oracle():
    for m in _cases():
        ncols = len(m[0])
        got = rref(m)
        assert got == rref_oracle(m), m
        assert all(type(v) in (int, Fraction) for row in got[0] for v in row)
        cols = columns(m)
        kernel = kernel_basis(range(ncols), cols.__getitem__)
        assert kernel == as_vectors(kernel_oracle(m, ncols)), m
        for vec in kernel:  # terms in basis order
            assert list(vec.support()) == sorted(vec.support())
        want = len(rref_oracle(m)[1])
        assert rank(cols) == want
        assert rank(LinComb(dict(enumerate(row))) for row in m) == want


def test_invert_matches_oracle_or_raises():
    rng = random.Random(7)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        m = random_matrix(rng, n, n)
        try:
            want = invert_oracle(m)
        except SingularMatrixError:
            singular += 1
            with pytest.raises(SingularMatrixError):
                invert(m)
        else:
            assert invert(m) == want, m
    assert singular > 20  # the sweep covers both outcomes


def test_edge_shapes():
    assert rref([]) == ([], [])
    zero = LinComb.zero()
    assert kernel_basis("ab", lambda _: zero) == (LinComb.basis("a"),
                                                  LinComb.basis("b"))
    assert kernel_basis((), lambda _: zero) == ()
    assert rank([]) == 0
    assert rref([[0, 0], [0, 0]]) == rref_oracle([[0, 0], [0, 0]])
    assert invert([[Fraction(1, 2)]]) == [[2]]
    with pytest.raises(SingularMatrixError):
        invert([[1, 2], [2, 4]])


def test_float_entries_are_refused():
    with pytest.raises(TypeError):
        rref([[1, 0.5]])


def _dense_images(forests, image):
    """Rows: the image keys in sorted order; columns: the forests."""
    images = [image(f) for f in forests]
    targets = sorted({k for img in images for k in img.support()},
                     key=lambda p: tuple((k.degree, k.text) for k in p))
    return [[Fraction(img.coeff(t)) for img in images] for t in targets]


def _oracle_primitive_basis(n, alphabet):
    forests = enumerate_forests(n, alphabet)
    matrix = _dense_images(forests, reduced_coproduct_forest)
    return tuple(LinComb.from_terms(zip(forests, vec))
                 for vec in kernel_oracle(matrix, len(forests)))


@pytest.mark.parametrize("maxdeg, alphabet", [(5, ("o",)), (4, ("a", "b"))])
def test_primitive_basis_matches_oracle(maxdeg, alphabet):
    for n in range(1, maxdeg + 1):
        got = primitive_basis(n, alphabet)
        want = _oracle_primitive_basis(n, alphabet)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert sorted(g.items(), key=lambda kv: (kv[0].degree, kv[0].text)) == \
                sorted(w.items(), key=lambda kv: (kv[0].degree, kv[0].text))


def test_tensor_images_with_denominators():
    third = Fraction(1, 3)
    for n, alphabet in [(4, ("o",)), (3, ("a", "b"))]:
        forests = enumerate_forests(n, alphabet)
        image = lambda f: third * reduced_coproduct_forest(f)
        assert any(type(c) is Fraction  # images with den > 1 are exercised
                   for f in forests for _, c in image(f).items())
        matrix = _dense_images(forests, image)
        got = kernel_basis(forests, image)
        assert got == tuple(LinComb.from_terms(zip(forests, vec))
                            for vec in kernel_oracle(matrix, len(forests)))
        assert got == primitive_basis(n, alphabet)
        assert rank(map(image, forests)) == len(rref_oracle(matrix)[1])


def test_rank_takes_a_generator():
    t = lambda *legs: Tensor.basis(legs)
    vectors = (v for v in [t("a", "b"), t("a", "b") * Fraction(2, 5),
                           t("b", "a") - t("a", "b"), t("b", "a")])
    assert rank(vectors) == 2
