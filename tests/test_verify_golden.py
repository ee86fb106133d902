"""Verify reports pinned byte for byte, on sound and on corrupted kernels.

``data/verify_reports.json`` holds the report of every suite at small
degrees and the two coaction reports.  ``data/verify_failures.json``
holds the reports of the suites that catch a deliberately corrupted
kernel: the corruption is bound at every place in the package that holds
the kernel, so every caller sees it, and the memo caches are emptied
around it.  Both files pin check order, names, ranges, statuses, witness
strings and failure counts.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from postlie import clear_caches
from postlie.coaction import cointeraction_laws, cotranslation_laws
from postlie.laws import run_laws
from postlie.verify import run_suite, suite_names

DATA = Path(__file__).parent / "data"


def reports() -> dict:
    """Every suite at degrees 0-4 on ``o`` and 0-3 on ``a,b``; all pass."""
    out = {}
    for name in suite_names():
        if name == "paper-examples":
            out[name] = run_suite(name)
            continue
        for alphabet, top in ((("o",), 4), (("a", "b"), 3)):
            for d in range(top + 1):
                out[f"{name} {','.join(alphabet)} {d}"] = \
                    run_suite(name, d, alphabet)
    # The two keys name the coaction reports retired from the package;
    # their bytes are kept by building them with run_laws as those did.
    out["verify_cointeraction(3)"] = run_laws(
        "cointeraction", 3, ("o",), cointeraction_laws(3, ("o",)))
    out["verify_cotranslation_cosubstitution(3)"] = run_laws(
        "cotranslation-cosubstitution", 3, ("o",), cotranslation_laws(3, ("o",)))
    return out


def _rho_doubled_on_degree_two(rho):
    return lambda f: rho(f) * 2 if f.degree == 2 else rho(f)


def _graft_plus_low_part(graft):
    return lambda x, y: graft(x, y) + graft(x, y).truncate(2)


def _doubled(fn):
    return lambda *args: fn(*args) * 2


# corruption name: (defining module, kernel, wrapper of the original)
CORRUPTIONS = {
    "rho_forest doubled on degree 2":
        ("coaction", "rho_forest", _rho_doubled_on_degree_two),
    "left_graft plus its part of degree <= 2":
        ("grafting", "left_graft", _graft_plus_low_part),
}
# Doubling these kernels makes suites fail without raising; corrupting
# mkw_coproduct_forest, phi or natural_growth raises instead.
CORRUPTIONS.update(
    (f"{kernel} doubled", (module, kernel, _doubled)) for module, kernel in (
        ("mkw", "mkw_antipode"), ("growth", "primitive_projection"),
        ("growth", "growth_fold"), ("grafting", "gl_forests"),
        ("lincomb", "concat"), ("lincomb", "deconcat_forest"),
        ("regstruct", "reg_gl_product"), ("regstruct", "reg_assoc_product"),
        ("regstruct", "reg_graft"), ("regstruct", "bracket0"),
        ("regstruct", "reg_deshuffle"), ("regstruct", "deformed_mkw_tree"),
        ("regstruct", "phi_reg")))


def corrupt(mp: pytest.MonkeyPatch, module: str, kernel: str, wrap) -> None:
    """Bind ``wrap(kernel)`` at every postlie binding of the kernel."""
    original = getattr(importlib.import_module(f"postlie.{module}"), kernel)
    bad = wrap(original)
    for modname, mod in list(sys.modules.items()):
        if modname == "postlie" or modname.startswith("postlie."):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    mp.setattr(mod, attr, bad)


def failing_reports(corruption: str) -> dict:
    """Reports at degree 3 of every suite the corruption makes fail."""
    out = {}
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            corrupt(mp, *CORRUPTIONS[corruption])
            for name in suite_names():
                rep = run_suite(name, None if name == "paper-examples" else 3)
                if not rep["ok"]:
                    out[name] = rep
    finally:
        clear_caches()
    return out


def _dumped(reports: dict) -> dict:
    return {key: json.dumps(rep) for key, rep in reports.items()}


def test_reports_match_the_golden():
    want = json.loads((DATA / "verify_reports.json").read_text())
    got = reports()
    assert list(got) == list(want)
    assert _dumped(got) == _dumped(want)


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_failing_reports_match_the_golden(corruption):
    want = json.loads((DATA / "verify_failures.json").read_text())[corruption]
    got = failing_reports(corruption)
    assert list(got) == list(want)
    assert _dumped(got) == _dumped(want)
    assert got and not any(rep["ok"] for rep in got.values())
