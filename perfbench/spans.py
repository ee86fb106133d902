"""Span tracing of the postlie layers, installed from outside the package.

``Tracer.install()`` replaces every public, non-generator function of the
traced modules with a wrapper that records one span per call: the
function's name, start, end and the span that was open when it was called.
The wrapper is bound at every place the original is bound -- the defining
module, every ``from .x import f`` binding in another postlie module, and
the package namespace -- so calls between modules are traced too.  Nothing
under ``src/`` changes.

Spans live in flat arrays in memory and are written out once, at the end.
``self_times`` turns them into per-function call counts and self time: a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("forest", "lincomb", "grafting", "mkw", "growth", "characters",
           "coaction", "bck", "regstruct", "linalg", "exprs", "cli", "verify")

NO_PARENT = -1


def public_functions(package: str = "postlie") -> dict:
    """Map each public function of the traced modules to its span name."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"{package}.{short}")
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)):
                continue
            found[obj] = f"{short}.{name}"
    return found


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self._bindings: list[tuple] = []
        # Work counters measured at the layer boundary (see _counting).
        self.graft_pairs: set = set()
        self.graft_assignments = 0
        self.graft_terms = 0
        self.linalg_cells = 0

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        ids, parents = self.name_id.append, self.parent.append
        starts, ends_append, ends = self.start, self.end.append, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            ids(nid)
            parents(stack[-1])
            ends_append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _counting(self, fn, name: str):
        """Add the work counters that some layers are sized by."""
        if name == "grafting.graft_forests":
            def counted(w1, w2):
                out = fn(w1, w2)
                key = (w1, w2)
                if key not in self.graft_pairs:
                    self.graft_pairs.add(key)
                    if not (w1.is_empty or w2.is_empty):
                        self.graft_assignments += w2.degree ** len(w1.trees)
                        self.graft_terms += len(out)
                return out
        elif name == "linalg.rref":
            def counted(matrix):
                if matrix:
                    self.linalg_cells += len(matrix) * len(matrix[0])
                return fn(matrix)
        else:
            return fn
        return functools.update_wrapper(counted, fn)

    def install(self, package: str = "postlie") -> int:
        """Wrap every public function at each of its bindings; return count."""
        originals = public_functions(package)
        wrappers = {id(fn): self._wrap(self._counting(fn, name), name)
                    for fn, name in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and obj in originals:
                    setattr(mod, attr, w)
                    self._bindings.append((mod, attr, obj))
        return len(wrappers)

    def uninstall(self) -> None:
        """Put every original function back where ``install`` found it."""
        for mod, attr, obj in self._bindings:
            setattr(mod, attr, obj)
        self._bindings.clear()

    @property
    def span_count(self) -> int:
        return len(self.start)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as name table plus four flat binary arrays."""
        with open(path, "wb") as fh:
            header = json.dumps({"names": self.names,
                                 "spans": self.span_count,
                                 "arrays": ["name_id:I", "parent:i",
                                            "start:d", "end:d"]})
            fh.write(header.encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)

    def self_times(self) -> dict[str, dict]:
        return self_times(self.names, self.name_id, self.parent,
                          self.start, self.end)


def self_times(names, name_id, parent, start, end) -> dict[str, dict]:
    """Per-name ``calls`` and ``self_s`` from spans.

    A span's self time is its duration minus the time its direct child
    spans cover; children nest inside their parent, so that is the sum of
    the children's durations.
    """
    n = len(start)
    child = array("d", bytes(8 * n))
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            child[p] += end[i] - start[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for i, k in enumerate(name_id):
        calls[k] += 1
        self_s[k] += end[i] - start[i] - child[i]
    return {name: {"calls": calls[k], "self_s": self_s[k]}
            for k, name in enumerate(names)}
