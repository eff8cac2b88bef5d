"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of galint's modules (and
sympy's ``PolyElement.cancel``, where every ground-field normalisation
lands).  Each wrapped call is a span with a name, start, end, parent span
and the case (request) it ran for; spans stay in memory and are written out
by :meth:`Tracer.dump`.  A function's self time is its span time minus the
time of the wrapped calls it made.  Calls too frequent to keep one record
each (``HOT``) are only counted and timed.

Installing rebinds every module attribute that holds the original object,
so ``from``-imported aliases such as ``resonance.rational_ode_solve`` or
``descent.rref`` are traced too; :meth:`Tracer.uninstall` puts every
original back.
"""

import functools
import importlib
import json
import sys
import time

from galint.errors import DegreeBoundExceeded, NoTowerSolution

# (metric prefix, module, attribute path); the prefix names the layer.
TARGETS = (
    ("scalars.cancel", "sympy.polys.rings", "PolyElement.cancel"),
    ("scalars.monic_s_factors", "galint.algebra.scalars",
     "GroundField.monic_s_factors"),
    ("tower.mul", "galint.algebra.tower", "FieldElem.__mul__"),
    ("tower.invert", "galint.algebra.tower", "AlgebraicTower.invert"),
    ("linalg.rref", "galint.algebra.linalg", "rref"),
    ("linalg.solve", "galint.algebra.linalg", "solve"),
    ("linode.rational_ode_solve", "galint.algebra.linode",
     "rational_ode_solve"),
    ("linode.solve_rational_system", "galint.algebra.linode",
     "solve_rational_system"),
    ("places.fe_local_exponent", "galint.algebra.places", "fe_local_exponent"),
    ("series.compose", "galint.series", "TruncSeries.compose"),
    ("series.mul", "galint.series", "TruncSeries.__mul__"),
    ("reduction.reduce_to_curve", "galint.reduction", "reduce_to_curve"),
    ("reduction.time_reduce", "galint.reduction", "time_reduce"),
    ("reduction.apply_gauge", "galint.reduction", "apply_gauge"),
    ("reduction.fuchsian_scan", "galint.reduction", "fuchsian_scan"),
    ("resonance.relation_lattice", "galint.galois.resonance",
     "relation_lattice"),
    ("resonance.resonance_test", "galint.galois.resonance", "resonance_test"),
    ("diophantine.diophantine_eval", "galint.galois.diophantine",
     "diophantine_eval"),
    ("flows.formal_flow", "galint.integrability.flows", "formal_flow"),
    ("integrals.first_integrals", "galint.integrability.integrals",
     "first_integrals"),
    ("fields.commuting_fields", "galint.integrability.fields",
     "commuting_fields"),
    ("fields.stabilize_frame", "galint.integrability.fields",
     "stabilize_frame"),
    ("certificates.build_certificate", "galint.integrability.certificates",
     "build_certificate"),
    ("certificates.verify_certificate", "galint.integrability.certificates",
     "verify_certificate"),
    ("descent.galois_descent", "galint.integrability.descent",
     "galois_descent"),
    ("descent.point_rank", "galint.integrability.descent", "_point_rank"),
)

# Called up to millions of times per pass: counted and timed, no span kept.
HOT = frozenset({"scalars.cancel", "tower.mul", "series.mul"})

# Spans kept only to attribute time (the rank-sampling share of
# verify_certificate); their own time stays in the caller's self time, so
# build_certificate.self_s is the rank sampling plus bookkeeping.
TRANSPARENT = frozenset({"descent.point_rank"})

# The per-layer metrics, in report order: (name, unit).
PER_LAYER = (
    ("scalars.cancel.calls", "count"),
    ("scalars.cancel.self_s", "s"),
    ("scalars.monic_s_factors.calls", "count"),
    ("scalars.monic_s_factors.self_s", "s"),
    ("scalars.factor_cache.hit_ratio", "ratio"),
    ("tower.mul.calls", "count"),
    ("tower.mul.self_s", "s"),
    ("tower.invert.calls", "count"),
    ("tower.invert.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.entries", "count"),
    ("linalg.solve.calls", "count"),
    ("linode.rational_ode_solve.calls", "count"),
    ("linode.rational_ode_solve.self_s", "s"),
    ("linode.rational_ode_solve.no_solution", "count"),
    ("linode.rational_ode_solve.inconclusive", "count"),
    ("linode.solve_rational_system.dim", "count"),
    ("places.fe_local_exponent.calls", "count"),
    ("places.fe_local_exponent.self_s", "s"),
    ("series.compose.calls", "count"),
    ("series.compose.self_s", "s"),
    ("series.compose.cells_out", "count"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("reduction.reduce_to_curve.s", "s"),
    ("reduction.time_reduce.s", "s"),
    ("reduction.apply_gauge.s", "s"),
    ("reduction.fuchsian_scan.s", "s"),
    ("resonance.relation_lattice.s", "s"),
    ("resonance.resonance_test.calls", "count"),
    ("diophantine.diophantine_eval.s", "s"),
    ("flows.formal_flow.s", "s"),
    ("integrals.first_integrals.s", "s"),
    ("fields.commuting_fields.s", "s"),
    ("fields.stabilize_frame.s", "s"),
    ("certificates.build_certificate.self_s", "s"),
    ("certificates.verify_certificate.s", "s"),
    ("certificates.verify_certificate.rank_share", "ratio"),
    ("descent.galois_descent.s", "s"),
    ("linalg.rref.self_share", "ratio"),
    ("trace.overhead", "ratio"),
)

# Counts that repeat exactly across traced runs and PYTHONHASHSEED values.
EXACT = tuple(name for name, unit in PER_LAYER
              if unit == "count" or name.endswith("hit_ratio"))


class Stat:
    """Totals for one target; ``extra`` is the target's own work count."""

    __slots__ = ("calls", "s", "self_s", "extra", "no_solution",
                 "inconclusive")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.extra = 0
        self.no_solution = 0
        self.inconclusive = 0


def _resolve(modname, path):
    owner = importlib.import_module(modname)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counts for one traced pass; see the module docstring."""

    def __init__(self):
        self.stats = {prefix: Stat() for prefix, _, _ in TARGETS}
        self.spans = []      # (id, name, start, end, parent id, request)
        self.request = None  # the case the next spans belong to
        self._stack = []     # [child time, span id] per open call
        self._next_id = 0
        self._saved = []     # (owner, attribute, original)
        self._fields = {}    # id(GroundField) -> (field, cache size at first use)

    # -- installation ----------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every target wherever the original object is bound."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("galint") and m is not None]
        modules += list(extra_modules)
        for prefix, modname, path in TARGETS:
            owner, attr = _resolve(modname, path)
            orig = getattr(owner, attr)
            wrapper = self._wrap(prefix, orig)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is orig:
                        self._saved.append((holder, name, orig))
                        setattr(holder, name, wrapper)

    def uninstall(self):
        for holder, name, orig in reversed(self._saved):
            setattr(holder, name, orig)
        self._saved = []

    @staticmethod
    def leftovers(extra_modules=()):
        """(holder, attribute) pairs still bound to a benchmark wrapper."""
        holders = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("galint") and m is not None]
        holders += list(extra_modules)
        for _, modname, path in TARGETS:
            owner, _ = _resolve(modname, path)
            if isinstance(owner, type):
                holders.append(owner)
        return [(getattr(h, "__name__", h), name)
                for h in holders for name, value in list(vars(h).items())
                if getattr(value, "__bench_wrapped__", False)]

    def _wrap(self, prefix, orig):
        st = self.stats[prefix]
        hot = prefix in HOT
        transparent = prefix in TRANSPARENT
        on_args = {
            "scalars.monic_s_factors": self._note_field,
            "linalg.rref": _rref_entries,
            "linode.solve_rational_system": _system_dim,
        }.get(prefix)
        on_result = _compose_cells if prefix == "series.compose" else None
        on_error = _ode_outcome if prefix == "linode.rational_ode_solve" else None
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kw):
            st.calls += 1
            if on_args is not None:
                on_args(st, args)
            parent = stack[-1][1] if stack else None
            if hot:  # no span of its own: calls inside keep the parent
                sid = parent
            else:
                sid = self._next_id
                self._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kw)
            except (NoTowerSolution, DegreeBoundExceeded) as err:
                if on_error is not None:
                    on_error(st, err)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st.s += dur
                st.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += frame[0] if transparent else dur
                if not hot:
                    spans.append((sid, prefix, t0, t1, parent, self.request))
            if on_result is not None:
                on_result(st, result)
            return result

        wrapper.__bench_wrapped__ = True
        return wrapper

    def _note_field(self, st, args):
        gf = args[0]
        if id(gf) not in self._fields:
            self._fields[id(gf)] = (gf, len(gf._factor_cache))

    # -- results -----------------------------------------------------------

    def rank_share(self, request=None):
        """Share of verify_certificate time spent in descent._point_rank,
        over all cases or over one."""
        by_id = {sp[0]: sp for sp in self.spans}
        verify = ranked = 0.0
        for sid, name, t0, t1, parent, req in self.spans:
            if request is not None and req != request:
                continue
            if name == "certificates.verify_certificate":
                verify += t1 - t0
            elif name == "descent.point_rank":
                while parent is not None:
                    up = by_id[parent]
                    if up[1] == "certificates.verify_certificate":
                        ranked += t1 - t0
                        break
                    parent = up[4]
        return ranked / verify if verify else 0.0

    def metrics(self, traced_wall, untraced_wall):
        st = self.stats
        growth = sum(len(gf._factor_cache) - size0
                     for gf, size0 in self._fields.values())
        msf = st["scalars.monic_s_factors"].calls
        values = {
            "scalars.factor_cache.hit_ratio":
                1 - growth / (2 * msf) if msf else 0.0,
            "linalg.rref.entries": st["linalg.rref"].extra,
            "linode.solve_rational_system.dim":
                st["linode.solve_rational_system"].extra,
            "series.compose.cells_out": st["series.compose"].extra,
            "certificates.verify_certificate.rank_share": self.rank_share(),
            # both walls are 0 only when every case failed
            "linalg.rref.self_share":
                st["linalg.rref"].self_s / traced_wall if traced_wall else 0.0,
            "trace.overhead":
                traced_wall / untraced_wall if untraced_wall else 0.0,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name not in values:
                prefix, what = name.rsplit(".", 1)
                values[name] = getattr(st[prefix], what)
            out[name] = {"value": values[name], "unit": unit}
        return out

    def dump(self, path):
        """Write the spans and per-target totals as JSON."""
        data = {
            "spans": [dict(zip(("id", "name", "start", "end", "parent",
                                "request"), sp)) for sp in self.spans],
            "stats": {p: {"calls": s.calls, "s": s.s, "self_s": s.self_s}
                      for p, s in self.stats.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data))


def _rref_entries(st, args):
    M = args[0]
    st.extra += len(M) * (len(M[0]) if M else 0)


def _system_dim(st, args):
    st.extra += len(args[1])


def _compose_cells(st, result):
    st.extra += len(result.table)


def _ode_outcome(st, err):
    if isinstance(err, NoTowerSolution):
        st.no_solution += 1
    else:
        st.inconclusive += 1
