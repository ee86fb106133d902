"""Reference rough-path kernels: the exponential series and the antipode.

These are ``canonical_lift`` and ``char_inverse`` of ``postlie.characters``
as they stood before both became one recursion over the flavor's
coproduct, kept as the oracle for ``tests/test_characters_oracle.py``.
The lift is the truncated Grossman-Larson exponential of the increment
element, read as a functional by duality with the cut coproduct.  The
inverse pairs ``X`` with the flavor's antipode, ``X^-1 = X o S``, which is
the convolution inverse only when ``X`` is a character.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from postlie.characters import MKW_FLAVOR, TruncChar
from postlie.forest import enumerate_forests, leaf, single
from postlie.grafting import concat_antipode, gl_exp
from postlie.lincomb import LinComb, as_coeff
from postlie.mkw import mkw_antipode


def char_inverse(X: TruncChar) -> TruncChar:
    """Convolution inverse: precompose with the flavor's antipode."""
    anti = mkw_antipode if X.flavor == MKW_FLAVOR else concat_antipode
    letters = X.letters()
    vals: dict = {}
    for n in range(1, X.N + 1):
        for f in enumerate_forests(n, letters):
            v = X.pair(anti(LinComb.basis(f)))
            if v:
                vals[f] = v
    return TruncChar(X.N, vals, X.flavor)


def canonical_lift(increments: Mapping[str, int | Fraction], N: int) -> TruncChar:
    """Exponential lift of letter increments, as an mkw-flavor character."""
    if N < 1:
        raise ValueError("truncation degree must be at least 1")
    gen = LinComb.from_terms(
        (single(leaf(d)), as_coeff(c)) for d, c in increments.items() if as_coeff(c))
    series = gl_exp(gen, N)
    return TruncChar(N, dict(series.items()), MKW_FLAVOR)
