"""galint: formal integrability of vector fields near algebraic solution curves.

Certified symbolic pipeline: radical function-field towers, variational
equations along a curve, resonance lattices, the recursive formal flow with
obstruction detection, first integrals / commuting fields, linearization,
and Galois descent to the base curve.
"""

from .algebra import (
    AlgebraicTower,
    Exponent,
    FieldElem,
    GroundField,
    SingularPlace,
    fe_integrate_rational,
    fe_local_exponent,
    rational_ode_solve,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicTower",
    "Exponent",
    "FieldElem",
    "GroundField",
    "SingularPlace",
    "fe_integrate_rational",
    "fe_local_exponent",
    "rational_ode_solve",
    "__version__",
]
