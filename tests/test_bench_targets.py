"""Every name the benchmark's tracer wraps still exists.

``bench/tracing.py`` wraps galint functions and methods by dotted name
(``TruncSeries.__mul__``, ``TruncSeries.compose``, ``descent._point_rank``,
``stabilize_frame``, ...); a rename in ``src/`` would break the traced
benchmark.  The check resolves each target as the tracer does and runs
nothing.  Two things the tracer reads without wrapping are checked too: the
size of ``GroundField._factor_cache`` and the matrix that
``solve_rational_system`` takes as its second positional argument."""

import importlib.util
import inspect
from pathlib import Path

from galint.algebra import GroundField, solve_rational_system

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _tracing()
    assert tracing.TARGETS
    for prefix, modname, path in tracing.TARGETS:
        owner, attr = tracing._resolve(modname, path)
        assert callable(getattr(owner, attr, None)), (prefix, modname, path)


def test_factor_cache_grows_on_a_miss():
    # the tracer's hit ratio is 1 - (cache growth) / calls
    gf = GroundField(params=("alpha",))
    s, alpha = gf.s, gf.gen("alpha")
    before = len(gf._factor_cache)
    gf.monic_s_factors(1 / (s**2 + alpha))
    assert len(gf._factor_cache) == before + 1
    gf.monic_s_factors(alpha / (s**2 + alpha))
    assert len(gf._factor_cache) == before + 1


def test_solve_rational_system_takes_the_matrix_second():
    # the tracer's system dimension is len(args[1])
    params = list(inspect.signature(solve_rational_system).parameters.values())
    assert params[1].name == "M"
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
