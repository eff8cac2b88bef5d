"""Exact arithmetic in the coefficient field: rational functions in s over a
formal-parameter scalar field, extended by a radical tower, with derivation,
Galois action, local exponents, and the rational linear-ODE solver."""

from ..errors import DivisionByZero
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
    "fe_arith",
    "fe_derive",
    "fe_galois",
    "fe_local_exponent",
    "fe_integrate_rational",
    "rational_ode_solve",
    "solve_rational_system",
    "fiber_tower",
    "evaluate_at",
]

_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def fe_arith(a, b, op):
    """Field arithmetic dispatch; ``op`` one of ``+ - * /``."""
    try:
        fn = _OPS[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None
    return fn(a, b)


def fe_derive(a):
    """d/ds extended to the tower (w' = b' w / (d b))."""
    return a.derive()


def fe_galois(a, g):
    """Apply the declared Galois generator named ``g``."""
    return a.galois(g)
