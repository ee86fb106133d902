"""Every annotation in the package resolves.

The modules use ``from __future__ import annotations``, so an annotation
naming something the module never imports stays a string until a tool asks
for it; ``typing.get_type_hints`` then raises ``NameError``.
"""

import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import postlie

SRC = str(Path(postlie.__file__).parent)


def defined_functions():
    """``(qualified name, function)`` for every function and method whose
    code lives in a ``postlie`` source file (not, say, the ``__new__`` that
    ``NamedTuple`` generates)."""
    for info in pkgutil.iter_modules(postlie.__path__):
        mod = importlib.import_module(f"postlie.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # imported: swept where it is defined
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, fn in members:
                if isinstance(fn, (staticmethod, classmethod)):
                    fn = fn.__func__
                elif isinstance(fn, property):
                    fn = fn.fget
                if inspect.isfunction(fn) and fn.__code__.co_filename.startswith(SRC):
                    yield f"{mod.__name__}.{name}" + (attr and f".{attr}"), fn


def test_every_function_annotation_resolves():
    found = dict(defined_functions())
    assert len(found) > 300
    unresolved = []
    for name, fn in found.items():
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert not unresolved
