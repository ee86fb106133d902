"""Every function the benchmark's per-layer metrics name still exists.

``BENCHMARK.json`` declares per-function metrics ``<module>.<function>.self_s``
and ``.calls``; the trace reads them off the public, non-generator functions
defined in ``postlie.<module>``, and fails with ``KeyError`` on a name that
is gone.  This keeps such a function from being deleted or renamed while the
benchmark still names it.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _pinned_functions():
    spec = json.loads(BENCHMARK.read_text())
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("self_s", "calls"):
            yield parts[0], parts[1]


def test_pinned_names_are_public_functions():
    pinned = sorted(set(_pinned_functions()))
    assert ("linalg", "invert") in pinned  # the spec is read as intended
    for module, name in pinned:
        mod = importlib.import_module(f"postlie.{module}")
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn), f"postlie.{module}.{name} is gone"
        assert fn.__module__ == mod.__name__, f"{module}.{name} is re-exported"
        assert not inspect.isgeneratorfunction(fn), f"{module}.{name}"
