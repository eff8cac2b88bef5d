"""Rational first integrals from the resonance lattice.

Each basis relation k with witness y (a rational solution of y'/y = <k, h>)
yields the integral F = y^{-1} prod_j Phi_j^{k_j}, where Phi is the inverse
of the flow map: in flow-box coordinates F is just y^{-1} u^k, killed by the
dynamics because the witness cancels the H-drift.  Negative entries of k go
to the denominator — F is carried as an exact quotient, and its check
(``check.integral_defect``, on the dense engine) is a cross-multiplied
polynomial identity.
"""

from ..check import integral_defect
from ..errors import InputError, OrderExceedsTable, VerificationFailed
from ..galois.resonance import relation_lattice
from ..series import RatioSeries, TruncSeries
from .flows import FormalFlow, invert_flow


class FirstIntegral:
    """One lattice relation turned into a rational first integral.

    ``exponent`` is the lattice row, ``witness`` the rational cofactor,
    ``series`` the integral as a RatioSeries in the reduced chart, and
    ``order`` the largest degree through which the Lie-derivative residual
    was checked to vanish.
    """

    __slots__ = ("exponent", "witness", "series", "order")

    def __init__(self, exponent, witness, series, order):
        self.exponent = tuple(exponent)
        self.witness = witness
        self.series = series
        self.order = int(order)

    def __repr__(self):
        return f"FirstIntegral(exponent={self.exponent}, order={self.order})"


def first_integrals(flow, report=None, *, order=None, conditions=None):
    """Integrals of the reduced dynamics, one per lattice basis relation.

    A missing lattice ``report`` is computed at the flow order.

    ``order`` extends the residual verification beyond the flow order (the
    reduction table must reach that far); the default checks at the flow
    order.  Residual cells inside the flow's certified range must vanish —
    anything else is an internal inconsistency and raises.  Cells between
    the flow order and ``order`` are measured and reported through the
    integral's ``order`` attribute (a partial flow can still produce exact
    integrals when the structure truncates).
    """
    if not isinstance(flow, FormalFlow):
        raise InputError("first_integrals expects a FormalFlow")
    R = flow.system
    tower = R.tower
    basis = flow.basis
    if report is None:
        report = relation_lattice(list(basis.hs), flow.N, conditions=conditions)
    order = flow.N if order is None else int(order)
    if order > R.order:
        raise OrderExceedsTable(
            f"verification order {order} exceeds the reduction order "
            f"{R.order}"
        )
    M = max(order, flow.N)

    Phi = [p.truncate(M) for p in invert_flow(flow)]
    one = TruncSeries.constant(basis, "q", M, tower.one)

    out = []
    for row in report.basis:
        y = report.witnesses[tuple(row)]
        num = one.scale(tower.invert(y))
        den = one
        for j, k in enumerate(row):
            for _ in range(k, 0, -1):
                num = num * Phi[j]
            for _ in range(-k, 0, -1):
                den = den * Phi[j]
        F = RatioSeries(num, den)
        bad = integral_defect(R, F, M)
        if bad is not None and bad <= flow.N:
            raise VerificationFailed(
                f"integral residual for {tuple(row)} fails inside the "
                f"flow's certified range (degree {bad})"
            )
        verified = M if bad is None else bad - 1
        out.append(FirstIntegral(row, y, F, verified))
    return tuple(out)
