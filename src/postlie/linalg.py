"""Exact sparse elimination on the library's own vectors.

One elimination, ``_reduce``, serves every entry point.  It takes the images
a caller already has, ``LinComb`` or ``Tensor`` values, in order, and reduces
each against the pivots stored so far, earliest first, with their own
arithmetic.  A nonzero residue is stored as a pivot, scaled to 1 at a key of
its support and already reduced against every earlier pivot.  A vector that
reduces to zero equals a unique combination of the earlier vectors; that is
the canonical free-column kernel vector of the matrix whose columns are the
images, whichever pivot keys were chosen.  ``rref`` and ``invert`` are dense
adapters: columns become vectors keyed by row index, the pivot columns are
the independent ones, and a dependent column's entry in pivot row ``i`` is
minus its tracked combination at pivot column ``i``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .lincomb import Coeff, LinComb, Tensor


class SingularMatrixError(ValueError):
    pass


def _reduce(vectors: Iterable[LinComb | Tensor], track: bool,
            ) -> Iterator[tuple[bool, LinComb | None]]:
    """Per vector: whether it became a pivot and, with ``track``, the
    combination of input positions its residue equals (zero residue for a
    dependent vector)."""
    pivots: list = []   # (key, monic residue, its combination of inputs)
    index: dict = {}    # pivot key -> position in ``pivots``
    for j, v in enumerate(vectors):
        combo = LinComb.basis(j) if track else None
        todo = [index[k] for k in v.support() if k in index]
        heapify(todo)
        while todo:
            i = heappop(todo)
            key, p, pc = pivots[i]
            c = v.coeff(key)
            if not c:
                continue
            v = v - c * p
            if track:
                combo = combo - c * pc
            for k in p.support():  # only later pivots' keys can come in
                later = index.get(k, i)
                if later > i:
                    heappush(todo, later)
        if v.is_zero:
            yield False, combo
            continue
        key = next(iter(v.support()))
        s = Fraction(1) / v.coeff(key)
        index[key] = len(pivots)
        pivots.append((key, s * v, s * combo if track else None))
        yield True, combo


def rank(vectors: Iterable[LinComb | Tensor]) -> int:
    """Dimension of the span of ``vectors``."""
    return sum(pivot for pivot, _ in _reduce(vectors, False))


def kernel_basis(basis: Iterable[Hashable],
                 image: Callable[[Hashable], LinComb | Tensor],
                 ) -> tuple[LinComb, ...]:
    """Kernel of the linear extension of ``image``: for each ``b`` whose
    image depends on the earlier ones, ``b`` minus the earlier basis
    elements' combination with that image, terms in basis order."""
    basis = tuple(basis)
    return tuple(
        LinComb.from_terms((basis[i], c) for i, c in sorted(combo.items()))
        for pivot, combo in _reduce(map(image, basis), True) if not pivot)


def rref(matrix: Sequence[Sequence[Coeff]]) -> tuple[list[list[Coeff]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    if not matrix:
        return [], []
    rows: list[list[Coeff]] = [[0] * len(matrix[0]) for _ in matrix]
    row_of: dict[int, int] = {}   # pivot column -> its row
    columns = [LinComb(dict(enumerate(col))) for col in zip(*matrix)]
    for col, (pivot, combo) in enumerate(_reduce(columns, True)):
        if pivot:
            rows[len(row_of)][col] = 1
            row_of[col] = len(row_of)
            continue
        for p, c in combo.items():
            if p != col:
                rows[row_of[p]][col] = -c
    return rows, list(row_of)


def invert(matrix: Sequence[Sequence[Coeff]]) -> list[list[Coeff]]:
    """Inverse of a square matrix; raises SingularMatrixError if singular."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in reduced[:n]]
