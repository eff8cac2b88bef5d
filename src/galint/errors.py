"""Exception hierarchy.

Two kinds of "failure" show up in this package and they are kept apart:

* genuine errors (bad input, undeclared generators, singular gauges) raise
  exceptions derived from :class:`GalintError`;
* mathematically meaningful negative outcomes (no solution in the coefficient
  field, an obstruction in the recursion, a covering being required) are
  *results*, not errors, but a few of them travel as exceptions because they
  abort a computation in progress — :class:`NoTowerSolution` and
  :class:`DegreeBoundExceeded` are the prominent ones.  ``DegreeBoundExceeded``
  is never conflated with "no solution": it means the solver's configured
  bounds were too small to decide.
"""


class GalintError(Exception):
    """Base class for all package errors."""


class InputError(GalintError):
    """Malformed user input (problem file, expression, declaration)."""


class TowerError(GalintError):
    """Structural problem with a radical tower declaration."""


class DivisionByZero(GalintError):
    """Division by the zero element."""


class ZeroDivisor(GalintError):
    """The tower is not a field for this element.

    ``witness`` is a nonzero element annihilating the offending one, so the
    failure is reproducible: ``elem * witness == 0``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UndeclaredGenerator(GalintError):
    """A Galois generator index that was never declared on the tower."""


class NotExpandable(GalintError):
    """Local expansion failed: identically vanishing radicand, undeclared
    branch data, or a cancellation deeper than the provable valuation cap."""


class NoTowerSolution(GalintError):
    """The linear ODE has *no* solution in the tower (proved within sound
    bounds).  Upstream this signals a logarithmic obstruction."""

    def __init__(self, message="no solution in the coefficient field", detail=None):
        super().__init__(message)
        self.detail = detail


class DegreeBoundExceeded(GalintError):
    """Solver bounds were heuristic or exceeded the configured caps; the
    question is *undecided*.  First-class inconclusive verdict."""

    def __init__(self, message="degree/pole bounds exceeded; inconclusive", detail=None):
        super().__init__(message)
        self.detail = detail


class IntegrationIncomplete(GalintError):
    """fe_integrate_rational could not express the integral with the
    configured rational-part + constant-residue-log ansatz."""


class AlphabetMismatch(GalintError):
    """Series operands live over different variable alphabets or bases."""


class NonzeroConstantTerm(GalintError):
    """Composition target must have zero constant term."""


class NotTangentToIdentity(GalintError):
    """Map inversion requires phi_j = u_j + (order >= 2)."""


class NotTangent(GalintError):
    """Declared curve is not invariant under the declared field."""

    def __init__(self, message, component=None, residual=None):
        super().__init__(message)
        self.component = component
        self.residual = residual


class TangentiallySingular(GalintError):
    """Tangential speed X_n(s,0) vanishes identically: the curve consists of
    equilibria.  Use the linearization pipeline (declare the system in
    time-dependent form with last equation = 1) instead of time reduction."""


class SingularGauge(GalintError):
    """Gauge matrix is not invertible over the tower."""


class NotDiagonalAfterGauge(GalintError):
    """User asserted the gauge diagonalizes the linear part; it does not."""


class OrderExceedsTable(GalintError):
    """Requested jet order exceeds the stored nonlinear table."""


class NotTimeReduced(GalintError):
    """Operation requires a time-reduced system."""


class NonFuchsian(GalintError):
    """A diagonal exponent has a pole of order > 1 (after ramification
    normalization).  Carries the offending place and pole order."""

    def __init__(self, message, place=None, order=None):
        super().__init__(message)
        self.place = place
        self.order = order


class BasePointSingular(GalintError):
    """Chosen base point s0 is one of the singular places."""


class VerificationFailed(GalintError):
    """An internal residual that must vanish did not — never silenced."""


class RankDeficiency(GalintError):
    """V-space / Jacobian rank differs from the expected count."""


class GaugeRequired(GalintError):
    """Pipeline step needs a diagonalizing gauge that was not supplied."""


class OrbitIncomplete(GalintError):
    """Declared Galois generators do not close the orbit data needed."""


class PrecisionLoss(GalintError):
    """Numeric evaluator could not separate a quantity from 0 at the working
    precision."""
