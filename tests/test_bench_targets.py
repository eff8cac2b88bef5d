"""Every name the benchmark's tracer wraps still exists.

``bench/tracing.py`` wraps galint functions and methods by dotted name
(``TruncSeries.__mul__``, ``TruncSeries.compose``, ``descent._point_rank``,
``stabilize_frame``, ...); a rename in ``src/`` would break the traced
benchmark.  The check resolves each target as the tracer does and runs
nothing."""

import importlib.util
from pathlib import Path

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
