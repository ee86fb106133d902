"""Exact fraction-free Gauss-Jordan elimination, sized for graded basis work.

Matrices hold ``int`` or ``Fraction`` entries (a ``float`` raises
``TypeError``).  ``rref`` scales each row to integers by the lcm of its
denominators, eliminates by integer cross-multiplication, and keeps every
row primitive by dividing out the gcd of its entries, so no ``Fraction`` is
built while eliminating (the integer-preserving idea of Bareiss, *Sylvester's
identity and multistep integer-preserving Gaussian elimination*, 1968).  Each
pivot row is divided by its pivot once, at the end.  The reduced row echelon
form is unique and row scaling keeps the row space, so the result is the one
Gauss-Jordan elimination over the rationals gives; entries that are whole
numbers come back as ``int``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .lincomb import _EXACT, Coeff, _quotient, _reject_inexact


class SingularMatrixError(ValueError):
    pass


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _integral(row: Sequence[Coeff]) -> list[int]:
    # The row scaled to coprime integers; a zero row stays zero.
    if not _EXACT.issuperset(map(type, row)):
        _reject_inexact(row)
    den = lcm(*(v.denominator for v in row))
    return _primitive([v.numerator * (den // v.denominator) for v in row])


def rref(matrix: Sequence[Sequence[Coeff]]) -> tuple[list[list[Coeff]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [_integral(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i, col in enumerate(pivots):
        p = rows[i][col]
        rows[i] = [_quotient(v, p) for v in rows[i]]
    return rows, pivots


def rank(matrix: Sequence[Sequence[Coeff]]) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix: Sequence[Sequence[Coeff]], ncols: int) -> list[list[Coeff]]:
    """Basis of {v : M v = 0} for M given as rows of length ``ncols``.

    The basis is the canonical free-column one from the RREF, so it is
    deterministic for a fixed row and column order.
    """
    if not matrix:
        return [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for prow, pcol in enumerate(pivots):
            v[pcol] = -reduced[prow][free]
        out.append(v)
    return out


def invert(matrix: Sequence[Sequence[Coeff]]) -> list[list[Coeff]]:
    """Inverse of a square matrix; raises SingularMatrixError if singular."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in reduced[:n]]
