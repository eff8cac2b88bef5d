"""Exact arithmetic in the coefficient field: rational functions in s over a
formal-parameter scalar field, extended by a radical tower, with derivation,
Galois action, local exponents, and the rational linear-ODE solver."""

from .linode import fe_integrate_rational, rational_ode_solve, solve_rational_system
from .places import Exponent, SingularPlace, evaluate_at, fe_local_exponent, fiber_tower
from .scalars import GroundField, SPoly
from .tower import AlgebraicTower, FieldElem

__all__ = [
    "GroundField",
    "SPoly",
    "AlgebraicTower",
    "FieldElem",
    "Exponent",
    "SingularPlace",
    "fe_local_exponent",
    "fe_integrate_rational",
    "rational_ode_solve",
    "solve_rational_system",
    "fiber_tower",
    "evaluate_at",
]
