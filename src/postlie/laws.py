"""Laws as rows of a table, and the one runner that turns rows into reports.

A law is one row: a check name, the label of the range it sweeps, a
sweep of cases and a predicate.  The predicate receives one case, unpacked
into its arguments, and returns what failed on it: ``None`` or an empty
sequence when the law holds, otherwise one witness string or an iterable
of them.  ``run_laws`` walks the rows in order and is the only place that
builds check entries and reports.  A check entry records its name, range
and status, plus, when it fails, its first witness and its failure count.
A law that holds on several carriers is one row builder that takes the
carrier's operations (``verify._postlie_axioms``, ``verify._unitriangular``).

Sweeps stream their cases.  ``graded`` walks degree compositions (and
``forests`` the planar forests that way), ``tuples`` walks pools in
product order under a degree budget, and ``ONCE`` is the single case of a
law with no arguments.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .forest import enumerate_forests


class Law(NamedTuple):
    name: str
    rng: str
    sweep: Iterable[tuple]
    check: Callable[..., str | Iterable[str] | None]


ONCE = ((),)


def deg_range(maxdeg: int) -> str:
    return f"degree <= {maxdeg}"


def pair_range(maxdeg: int) -> str:
    return f"degree pairs summing to <= {maxdeg}"


def _compositions(k: int, budget: int, lo: int,
                  ascending: bool) -> Iterator[tuple[int, ...]]:
    if k == 0:
        yield ()
        return
    for d in range(lo, budget + 1):
        for rest in _compositions(k - 1, budget - d, d if ascending else lo,
                                  ascending):
            yield (d,) + rest


def graded(basis: Callable[[int], Iterable], budget: int, lo: int = 0,
           k: int = 1, ascending: bool = False) -> Iterator[tuple]:
    """``k``-tuples from ``basis(degree)`` with degrees ``>= lo`` summing
    to at most ``budget``.

    Degree compositions run outermost, in lexicographic order, and the
    elements of one composition in product order.  ``ascending`` keeps
    only nondecreasing compositions, for laws symmetric in their arguments.
    """
    for degrees in _compositions(k, budget, lo, ascending):
        yield from product(*map(basis, degrees))


def forests(letters: tuple[str, ...], budget: int, lo: int = 0, k: int = 1,
            ascending: bool = False) -> Iterator[tuple]:
    """`graded` over the planar forests decorated by ``letters``."""
    return graded(lambda n: enumerate_forests(n, letters), budget, lo, k,
                  ascending)


def pool(basis: Callable[[int], Iterable], lo: int,
         hi: int) -> list[tuple[int, object]]:
    """``(degree, element)`` pairs of ``basis`` for ``lo <= degree <= hi``."""
    return [(n, x) for n in range(lo, hi + 1) for x in basis(n)]


def tuples(budget: int, *pools: Sequence[tuple[int, object]]) -> Iterator[tuple]:
    """Tuples with one item from each pool and degree sum <= budget, in
    product order.

    Each pool holds ``(degree, item)`` pairs sorted by degree, so each
    loop stops at the budget left by the items before it.
    """
    if not pools:
        yield ()
        return
    for n, x in pools[0]:
        if n > budget:
            break
        for rest in tuples(budget - n, *pools[1:]):
            yield (x,) + rest


def _failures(law: Law) -> list[str]:
    fails: list[str] = []
    for case in law.sweep:
        got = law.check(*case)
        if not got:
            continue
        if isinstance(got, str):
            fails.append(got)
        else:
            fails.extend(got)
    return fails


def _entry(name: str, rng: str, failures: list[str]) -> dict:
    out: dict = {"name": name, "range": rng,
                 "status": "pass" if not failures else "fail"}
    if failures:
        out["witness"] = failures[0]
        out["failures"] = len(failures)
    return out


def run_laws(suite: str, maxdeg: int, alphabet: Sequence[str],
             laws: Iterable[Law], guarded: bool = False) -> dict:
    """Check each law over its sweep and return the suite report.

    With ``guarded`` an exception raised while checking a law fails that
    law, with the exception as its one witness, instead of propagating.
    """
    checks = []
    for law in laws:
        try:
            fails = _failures(law)
        except Exception as err:
            if not guarded:
                raise
            fails = [f"{type(err).__name__}: {err}"]
        checks.append(_entry(law.name, law.rng, fails))
    return {"suite": suite, "max_degree": maxdeg, "alphabet": list(alphabet),
            "checks": checks, "ok": all(c["status"] == "pass" for c in checks)}
