"""The package's one door to sympy, imported on first use.

No module of galint imports sympy at its top level: ``import galint``,
building inputs and running the pipeline take no sympy at all.  The few
callers that need sympy import this module inside the function that needs
it, so sympy is loaded the first time one of these runs:

* :func:`prs_cofactors`, the subresultant PRS gcd, when the kernel's
  heuristic gcd fails (``scalars._general_cofactors``);
* :func:`factor_list`, for a polynomial that involves a parameter or whose
  factorization over Z the kernel leaves open (``GroundField._poly_factors``
  and ``GroundField.nth_root``);
* :func:`poly_ring` and :func:`frac_field`, behind the ``numer``/``denom``
  and ``as_expr`` views of a scalar and the kernel's sympy twin
  (``PackedRing.sympy``);
* ``SympifyError`` and ``ExactQuotientFailed``, raised by a scalar refused
  by ``sympify`` and by a failed exact division of kernel polynomials.
"""

from sympy import ZZ
from sympy.core.sympify import SympifyError
from sympy.polys.euclidtools import dmp_rr_prs_gcd
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import PolyRing

__all__ = ["ExactQuotientFailed", "SympifyError", "factor_list",
           "frac_field", "poly_ring", "prs_cofactors"]


def poly_ring(names):
    """sympy's ring over ZZ on ``names`` in lex order."""
    return PolyRing(names, ZZ, lex)


def frac_field(names):
    """sympy's field of fractions over ZZ on ``names`` in lex order."""
    return FracField(names, ZZ, lex)


def prs_cofactors(a, b):
    """``a.cofactors(b)`` for nonzero kernel polynomials by the subresultant
    PRS gcd on their dense forms, which always has an answer."""
    ring = a.ring
    f, g = ring.to_sympy(a), ring.to_sympy(b)
    R = f.ring
    got = dmp_rr_prs_gcd(f.to_dense(), g.to_dense(), R.ngens - 1, R.domain)
    return tuple(ring.from_sympy(R.from_dense(h)) for h in got)


def factor_list(p):
    """sympy's ``factor_list`` of the kernel polynomial p: its content as
    an int and its irreducible factors over Z, as kernel polynomials, with
    their multiplicities, in sympy's order."""
    ring = p.ring
    content, facs = ring.to_sympy(p).factor_list()
    return int(content), [(ring.from_sympy(f), k) for f, k in facs]
