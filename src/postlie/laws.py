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

Sweeps stream their cases from one walker, ``tuples``.  A ``pool`` is a
lazy ``(basis, lo, hi)`` descriptor; ``tuples`` walks the degree
compositions of its pools under a budget in lexicographic order and, for
each, the product of the pools' items at those degrees.  ``graded`` is
that walk over copies of one pool (``forests`` over the planar forests),
and ``ONCE`` is the single case of a law with no arguments.
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


def pool(basis: Callable[[int], Iterable], lo: int, hi: int) -> tuple:
    """The items of ``basis(n)`` for ``lo <= n <= hi``, as the lazy
    descriptor ``(basis, lo, hi)``: `tuples` calls ``basis`` only at the
    degrees of the compositions it walks."""
    return basis, lo, hi


def _walk(budget: int, pools: Sequence[tuple],
          ascending: bool = False) -> Iterator[tuple]:
    ranges = [range(lo, min(hi, budget) + 1) for _, lo, hi in pools]
    for degrees in product(*ranges):
        if sum(degrees) <= budget and (not ascending
                                       or list(degrees) == sorted(degrees)):
            yield from product(*[basis(n) for (basis, _, _), n
                                 in zip(pools, degrees)])


def tuples(budget: int, *pools: tuple) -> Iterator[tuple]:
    """One item from each pool, degree sum <= budget: degree compositions
    outermost, in lexicographic order, then each one's items in product
    order."""
    return _walk(budget, pools)


def graded(basis: Callable[[int], Iterable], budget: int, lo: int = 0,
           k: int = 1, ascending: bool = False) -> Iterator[tuple]:
    """`tuples` over ``k`` copies of ``pool(basis, lo, budget)``;
    ``ascending`` keeps only nondecreasing compositions, for laws symmetric
    in their arguments."""
    return _walk(budget, (pool(basis, lo, budget),) * k, ascending)


def forests(letters: tuple[str, ...], budget: int, lo: int = 0, k: int = 1,
            ascending: bool = False) -> Iterator[tuple]:
    """`graded` over the planar forests decorated by ``letters``."""
    return graded(lambda n: enumerate_forests(n, letters), budget, lo, k,
                  ascending)


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
