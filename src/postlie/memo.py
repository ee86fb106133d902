"""One memo mechanism for the library's recursions over trees and forests.

``@memo`` caches a function of hashable positional arguments for the life
of the process, keyed on the argument itself when there is one and on the
tuple of arguments otherwise.  The wrapper is a plain function carrying the
wrapped one's name and module, so it reads and traces as the original.
Every cache is registered here: ``cache_sizes`` reports their entry counts
and ``clear_caches`` empties them.  The intern tables of the tree and forest
types are not memos and are never cleared: those types compare and hash by
identity, which is sound only while equal shapes stay one object.
"""

from __future__ import annotations

import functools
from typing import Callable

_REGISTRY: list[tuple[str, dict]] = []


def memo(fn: Callable) -> Callable:
    """Cache ``fn``, a pure function of positional hashable arguments that
    never returns ``None``."""
    cache: dict = {}
    _REGISTRY.append((f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}",
                      cache))
    if fn.__code__.co_argcount == 1:
        def cached(arg):
            got = cache.get(arg)
            if got is None:
                got = cache[arg] = fn(arg)
            return got
    else:
        def cached(*args):
            got = cache.get(args)
            if got is None:
                got = cache[args] = fn(*args)
            return got
    return functools.wraps(fn)(cached)


def clear_caches() -> None:
    """Empty every memo cache; the intern tables are left alone."""
    for _, cache in _REGISTRY:
        cache.clear()


def cache_sizes() -> dict[str, int]:
    """Entry count of each memo cache, keyed ``module.function``."""
    return {name: len(cache) for name, cache in _REGISTRY}
