"""Bounded-horizon evaluation of the small-divisor condition.

The convergence theory needs the quantity

    sum_nu 2^{-nu} * ln( 1 / eps(2^nu) ),
    eps(K) = min over 1-based j and |k| in [2, K] of
             max_i | lambda_i^k - lambda_{i,j} |,

to be finite, where lambda is a matrix of unit-modulus eigenvalues — one row
per group generator, one column per basis element.  Deciding that is a
number-theoretic statement about the angles; no finite computation settles
it.  What this module does instead, and says so in its verdicts, is sweep the
shells |k| <= 2^nu up to a requested nu_max, track the exact minima and the
partial sums, and classify the observed growth:

* ``resonant-hit``      — some eps is zero (exactly, or within ``hit_tol``);
* ``divergence-suspected`` — log2(1/eps) grows faster than
  ``_RATIO_THRESHOLD`` times nu at some shell from ``_MIN_SHELL`` on, the
  bounded-horizon signature of a Liouville-type angle;
* ``diophantine-up-to-nu_max`` — neither event within the horizon.

Arithmetic is two-layered.  Angles are held exactly (inputs are converted
through ``fractions.Fraction``, so a float contributes its exact binary
value), and each shell evaluates a few candidate (j, k) exactly, so
reported minima are exact evaluations and zero detection never rides on
rounding.  The candidates come from one of two sources:

* one generator with one eigenvalue e^{2 pi i theta}: eps(2^nu) is the
  minimum of ||m theta|| over 1 <= m < 2^nu, with k = m + 1, and the
  smallest m attaining it is a continued-fraction denominator of theta
  (Lagrange's best-approximation theorem; Khinchin, *Continued Fractions*,
  Thms 16-17).  A shell's candidates are the denominators it covers, so the
  whole horizon costs O(nu_max) exact evaluations;
* several generators or eigenvalues: a vectorized float64 sweep of every k
  (numpy, imported only when such a sweep runs, so importing galint does
  not load it) whose near-minimal band is re-evaluated exactly.

Candidates are evaluated in increasing (j, k), and the running minimum
moves only on a strict improvement, so among equal distances the smallest
k wins; the first candidate that is a hit ends the sweep.  Eigenvalues given
as complex numbers only determine their angles to roughly double precision;
such inputs get a nonzero default ``hit_tol`` and a ``PrecisionLoss`` error
when a shell's minimum falls below what that provenance can distinguish
from zero.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction

from ..errors import InputError, PrecisionLoss
from ..algebra.places import Exponent

__all__ = ["DiophantineReport", "angles_from_places", "diophantine_eval"]


ShellRow = namedtuple(
    "ShellRow",
    "nu horizon eps_min arg_j arg_k increment partial ratio",
)

_BAND_CAP = 256          # exact rechecks per shell
_RATIO_THRESHOLD = 2.0   # log2(1/eps)/nu that suggests divergence ...
_MIN_SHELL = 6           # ... from this shell on
_FLOAT_SLACK = 1e-10     # float-guided selection band half-width


def angles_from_places(places, params=None):
    """Monodromy angle matrix from per-place exponent data.

    One generator row per place; each affine local exponent alpha
    contributes the angle of its eigenvalue e^{2 pi i alpha} after the
    parameter values in ``params`` are substituted (exact rationals, or
    floats used at their exact binary value).
    """
    params = {str(k): Fraction(v) for k, v in dict(params or {}).items()}
    rows = []
    for pl in places:
        row = []
        for e in pl.exponents:
            if not isinstance(e, Exponent):
                raise InputError(
                    f"exponent {e!r} at {pl.location!r} is not affine "
                    "in the parameters"
                )
            th = Fraction(e.rational)
            for name, coeff in e.param:
                if name not in params:
                    raise InputError(
                        f"no numeric value supplied for parameter {name!r}"
                    )
                th += coeff * params[name]
            row.append(th % 1)
        rows.append(tuple(row))
    if len({len(r) for r in rows}) > 1:
        raise InputError("places carry exponent vectors of different lengths")
    return rows


class DiophantineReport:
    """Shell-by-shell record of the bounded sweep.

    ``shells`` holds one :data:`ShellRow` per completed shell (minima are
    exact evaluations; ``partial`` is the clamped, nondecreasing partial
    sum), ``verdict`` one of the three labels above, ``hit`` the witnessing
    (j, k, eps) triple when resonant.  ``nu_reached`` can fall short of
    ``nu_max`` when the work budget runs out; ``notes`` says so.
    """

    def __init__(self, *, params, nu_max, nu_reached, shells, verdict,
                 hit, hit_tol, ratio_threshold, notes):
        self.params = dict(params)
        self.nu_max = int(nu_max)
        self.nu_reached = int(nu_reached)
        self.shells = list(shells)
        self.verdict = str(verdict)
        self.hit = hit
        self.hit_tol = float(hit_tol)
        self.ratio_threshold = float(ratio_threshold)
        self.notes = list(notes)

    @property
    def partial_sums(self):
        return [row.partial for row in self.shells]

    def to_json_dict(self):
        rows = []
        for r in self.shells:
            rows.append({
                "nu": r.nu,
                "horizon": r.horizon,
                "eps_min": _json_float(r.eps_min),
                "arg": {"j": r.arg_j, "k": list(r.arg_k)},
                "increment": _json_float(r.increment),
                "partial_sum": _json_float(r.partial),
                "growth_ratio": _json_float(r.ratio),
            })
        out = {
            "params": {k: str(v) for k, v in self.params.items()},
            "nu_max": self.nu_max,
            "nu_reached": self.nu_reached,
            "verdict": self.verdict,
            "hit_tol": self.hit_tol,
            "ratio_threshold": self.ratio_threshold,
            "shells": rows,
            "notes": list(self.notes),
        }
        if self.hit is not None:
            j, k, eps = self.hit
            out["hit"] = {"j": j, "k": list(k), "eps": _json_float(eps)}
        else:
            out["hit"] = None
        return out

    def __repr__(self):
        return (f"DiophantineReport(verdict={self.verdict!r}, "
                f"nu_reached={self.nu_reached}, shells={len(self.shells)})")


def _json_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        return str(x)
    return x


def _angle_rows(x):
    def conv(v):
        if isinstance(v, Exponent):
            if v.param:
                raise InputError(
                    "angles must be numeric; substitute parameters first"
                )
            return Fraction(v.rational) % 1
        return Fraction(v) % 1

    return _as_rows(x, conv)


def _eigen_rows(x):
    def conv(v):
        z = complex(v)
        if abs(abs(z) - 1) > 1e-9:
            raise InputError(
                f"eigenvalue {v!r} is off the unit circle; the sweep "
                "compares angles only"
            )
        return Fraction(cmath.phase(z) / (2 * math.pi)) % 1

    return _as_rows(x, conv)


def _as_rows(x, conv):
    if isinstance(x, (str, bytes)):
        raise InputError("eigenvalue data must be numeric")
    try:
        xs = list(x)
    except TypeError:
        return ((conv(x),),)
    if not xs:
        raise InputError("empty eigenvalue data")

    def is_row(v):
        return hasattr(v, "__iter__") and not isinstance(v, (str, bytes))

    if is_row(xs[0]):
        rows = [tuple(conv(v) for v in r) for r in xs]
    else:
        rows = [tuple(conv(v) for v in xs)]
    if len({len(r) for r in rows}) != 1 or not rows[0]:
        raise InputError("eigenvalue rows must be nonempty and equal-length")
    return tuple(rows)


def _eps_from_dist(dist):
    """|e^{2 pi i d} - 1| = 2 sin(pi d) for an exact circle distance."""
    x = float(dist)
    if x < 1e-8:
        y = math.pi * x
        return 2.0 * y * (1.0 - y * y / 6.0)
    return 2.0 * math.sin(math.pi * x)


def _exact_dist(theta, j, k):
    """max_i || k . theta_i - theta_{i,j} ||, exactly."""
    worst = Fraction(0)
    for row in theta:
        v = -row[j - 1]
        for c, th in zip(k, row):
            if c:
                v += c * th
        r = v % 1
        d = min(r, 1 - r)
        if d > worst:
            worst = d
    return worst


def _compositions(t, d):
    """The k in N^d (d >= 2) with |k| = t as rows of an int64 array, in
    lexicographic order: recursive on the first coordinate, so the work is
    the C(t+d-1, d-1) rows themselves."""
    import numpy as np

    if d == 2:
        k1 = np.arange(t + 1, dtype=np.int64)
        return np.stack([k1, t - k1], axis=1)
    blocks = []
    for k in range(t + 1):
        rest = _compositions(t - k, d - 1)
        blocks.append(np.column_stack(
            [np.full(len(rest), k, dtype=np.int64), rest]))
    return np.concatenate(blocks)


def _shell_vectors(d, lo, hi, work_left):
    """Integer vector batches with |k| in (lo, hi], budget-limited.

    Yields (K, exhausted_flag) arrays; consumes from work_left[0].
    """
    import numpy as np

    if d == 1:
        start = lo + 1
        while start <= hi:
            if work_left[0] <= 0:
                yield None, True
                return
            stop = min(hi, start + (1 << 19) - 1, start + work_left[0] - 1)
            work_left[0] -= stop - start + 1
            yield np.arange(start, stop + 1, dtype=np.int64)[:, None], False
            start = stop + 1
        return
    for t in range(max(lo + 1, 2), hi + 1):
        n = math.comb(t + d - 1, d - 1)
        if work_left[0] < n:
            yield None, True
            return
        work_left[0] -= n
        yield _compositions(t, d), False


def _band_candidates(theta, noise):
    """Candidate source for several generators or eigenvalues.

    ``shell(lo, hi, work_left)`` yields, per batch of ``_shell_vectors``,
    the set of (j, k) whose float64 distance is within
    ``_FLOAT_SLACK + noise(hi)`` of the batch minimum (at most ``_BAND_CAP``
    per j), then ``None`` if the work budget runs out inside the shell.
    """
    import numpy as np

    d = len(theta[0])
    thf = np.array([[float(v) for v in row] for row in theta])

    def shell(lo, hi, work_left):
        for K, exhausted in _shell_vectors(d, lo, hi, work_left):
            if exhausted:
                yield None
                return
            proj = K.astype(np.float64) @ thf.T   # (n, rows): k . theta_i
            cands = set()
            for j in range(1, d + 1):
                f = proj - thf[:, j - 1][None, :]
                f -= np.floor(f)
                dist = np.minimum(f, 1.0 - f).max(axis=1)
                band = float(dist.min()) + _FLOAT_SLACK + noise(hi)
                idx = np.nonzero(dist <= band)[0]
                for t in idx[:_BAND_CAP]:
                    cands.add((j, tuple(int(v) for v in K[t])))
            yield cands

    return shell


def _convergent_candidates(theta):
    """Candidate source for one generator with one angle ``theta``.

    The shell (lo, hi] yields one set: the k = q + 1 it covers, q running
    over the continued-fraction denominators of ``theta`` (exact, so the
    expansion ends at its denominator; q_1 = q_0 = 1 when theta > 1/2).
    The work budget is charged per covered k, as the sweep charges it, and
    ``None`` follows when it runs out inside the shell.
    """
    qs, q_prev = [1], 0
    n, d = theta.numerator, theta.denominator
    while n:                        # theta = n/d -> d/n = a + (d % n)/n
        a, n, d = d // n, d % n, n
        qs.append(a * qs[-1] + q_prev)
        q_prev = qs[-2]

    def shell(lo, hi, work_left):
        end = lo + max(0, min(hi - lo, work_left[0]))
        work_left[0] -= end - lo
        yield {(1, (q + 1,)) for q in qs if lo <= q < end}
        if end < hi:
            yield None

    return shell


def diophantine_eval(eigenvalues=None, *, angles=None, places=None,
                     params=None, nu_max=24, hit_tol=None,
                     work_limit=(1 << 25)):
    """Sweep the small-divisor shells and classify the observed growth.

    Exactly one of ``eigenvalues`` (complex matrix / row / scalar),
    ``angles`` (rational angle matrix, lambda = e^{2 pi i theta}), or
    ``places`` (SingularPlace list plus numeric ``params``) describes the
    generators.  Shells nu = 1 .. nu_max cover |k| <= 2^nu; the report
    records each shell's exact minimum, the clamped partial sums of
    2^{-nu} ln(1/eps), and a verdict that is explicitly a bounded-horizon
    heuristic.  Among multi-indices at equal distance the smallest k is
    reported.  One generator with one eigenvalue takes its candidates from
    the continued-fraction denominators of its angle (Lagrange's
    best-approximation theorem; Khinchin, *Continued Fractions*,
    Thms 16-17); any other shape sweeps every k in float64 and rechecks the
    near-minimal band exactly.  ``work_limit`` caps the number of
    multi-indices the shells cover, counted the same way on both routes;
    hitting it truncates the sweep (recorded in ``notes``), it never aborts.
    """
    modes = [eigenvalues is not None, angles is not None, places is not None]
    if sum(modes) != 1:
        raise InputError(
            "supply exactly one of eigenvalues=, angles=, places="
        )
    inexact = False
    if eigenvalues is not None:
        theta = _eigen_rows(eigenvalues)
        inexact = True
    elif angles is not None:
        theta = _angle_rows(angles)
    else:
        theta = tuple(angles_from_places(places, params))
        if not theta:
            raise InputError("no places supplied")
    nu_max = int(nu_max)
    if nu_max < 1:
        raise InputError("nu_max must be at least 1")
    if hit_tol is None:
        hit_tol = 1e-9 if inexact else 0.0
    hit_tol = float(hit_tol)

    d = len(theta[0])
    # float-guided selection needs a bound on the rounding of k.theta
    def noise(hi):
        return 4.0 * (hi * d + 2.0) * 2.0 ** -52

    if len(theta) == d == 1:
        candidates = _convergent_candidates(theta[0][0])
    else:
        candidates = _band_candidates(theta, noise)
    shells = []
    notes = []
    hit = None
    partial = 0.0
    best = None          # (dist_exact, j, k)
    work_left = [int(work_limit)]
    nu_reached = 0
    for nu in range(1, nu_max + 1):
        lo = 1 << (nu - 1) if nu > 1 else 1
        hi = 1 << nu
        truncated = False
        for cands in candidates(lo, hi, work_left):
            if cands is None:
                truncated = True
                break
            for j, k in sorted(cands):
                dx = _exact_dist(theta, j, k)
                if best is None or dx < best[0]:
                    best = (dx, j, k)
                eps = _eps_from_dist(dx)
                if dx == 0 or eps < hit_tol:
                    hit = (j, k, eps)
                    break
            if hit:
                break
        if truncated and not hit:
            notes.append(
                f"work budget exhausted inside shell {nu}; sweep truncated"
            )
            break
        nu_reached = nu
        dx, j, k = best
        eps = hit[2] if hit else _eps_from_dist(dx)
        if inexact and hit is None and eps < 2 * math.pi * noise(hi):
            raise PrecisionLoss(
                f"shell {nu}: minimum {eps:.3e} is below what "
                "complex-eigenvalue inputs can distinguish from zero; "
                "supply exact angles or loosen hit_tol"
            )
        if eps == 0.0:
            increment = float("inf")
            ratio = float("inf")
        else:
            increment = max(0.0, math.log(1.0 / eps)) * 2.0 ** -nu
            ratio = max(0.0, math.log2(1.0 / eps)) / nu
        partial += increment
        shells.append(ShellRow(nu, hi, eps, j, k, increment, partial, ratio))
        if hit:
            break

    if hit is not None:
        verdict = "resonant-hit"
    elif any(r.ratio >= _RATIO_THRESHOLD and r.nu >= _MIN_SHELL
             for r in shells):
        verdict = "divergence-suspected"
    else:
        verdict = "diophantine-up-to-nu_max"
    if nu_reached < nu_max and hit is None:
        notes.append(f"horizon reached nu={nu_reached} of {nu_max}")
    return DiophantineReport(
        params=dict(params or {}), nu_max=nu_max, nu_reached=nu_reached,
        shells=shells, verdict=verdict, hit=hit, hit_tol=hit_tol,
        ratio_threshold=_RATIO_THRESHOLD, notes=notes,
    )
