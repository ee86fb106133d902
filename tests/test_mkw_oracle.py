"""The MKW coproduct as its recursion, against the cut enumeration.

``mkw_oracle`` keeps the earlier coproduct, which lists the left-admissible
cuts of each tree and reaches forests through a reserved root.  The
recursion must give the same tensor on every forest with ``o`` up to degree
7, ``a,b`` up to 5 and ``a,b,c`` up to 4, and the same term order on every
forest of degree at most 4: the failure goldens of ``verify`` report the
first witness in that order.
"""

import pytest

import mkw_oracle as ref
from postlie.forest import forests_up_to
from postlie.mkw import mkw_coproduct_forest


@pytest.mark.parametrize("alphabet,maxdeg",
                         [(("o",), 7), (("a", "b"), 5), (("a", "b", "c"), 4)])
def test_coproduct_matches_the_cut_enumeration(alphabet, maxdeg):
    for f in forests_up_to(maxdeg, alphabet):
        assert mkw_coproduct_forest(f) == ref.mkw_coproduct_forest(f), f.text


@pytest.mark.parametrize("alphabet", [("o",), ("a", "b"), ("a", "b", "c")])
def test_terms_come_in_the_order_of_the_cut_enumeration(alphabet):
    for f in forests_up_to(4, alphabet):
        assert list(mkw_coproduct_forest(f).items()) \
            == list(ref.mkw_coproduct_forest(f).items()), f.text
