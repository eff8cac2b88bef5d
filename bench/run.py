"""galint's benchmark: time to a checked verdict on three fixed workloads.

    python3 bench/run.py --workload flow-deep --seed 0 --seconds 6 --trace 0
    python3 bench/run.py --workload all

A single-threaded closed loop: one client, each case starts only after the
previous one returned.  A pass runs every case of the workload cold (sympy's
cache cleared, ground field, towers and systems rebuilt) from input to a
verdict checked against the pinned one; passes repeat for ``--seconds``
(at least three).  Time metrics are the mean over passes, scaled for machine
speed by a reference computation timed between the cases (see
REF_NOMINAL_S).  ``setup_s`` is the median over fresh processes of
importing galint and building the workload's inputs.

With ``--trace 1`` the passes are followed by one traced pass, which reports
the per-layer metrics of ``bench/tracing.py`` and writes its spans to
``bench/out/``.  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero when a
case's verdict differs from the pinned one, raises, or fails verification.
See bench/README.md for the workloads and what each metric should move.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
MIN_PASSES = 3
WORKLOADS = ("flow-deep", "certify-suite", "lattice-towers")

# Calibration.  On a shared host, machine speed can drift by half or more,
# over seconds and over minutes, and the drift moves every timing of a run
# together.  So after each case a run also times a fixed rational-function
# computation in Q(a, b, s) done by sympy alone (reference_s) -- the same kind
# of work as galint's ground field, in code that no change to galint
# touches -- for at least REF_SHARE of the case's time.  Times are reported
# at the speed of a machine on which the reference takes REF_NOMINAL_S:
#     reported = mean over passes * REF_NOMINAL_S / mean reference time.
REF_NOMINAL_S = 0.15
REF_SHARE = 0.1


def reference_s():
    """Seconds taken by the calibration computation."""
    from sympy import QQ
    from sympy.polys.fields import field

    K, a, b, s = field("a,b,s", QQ)
    t0 = time.perf_counter()
    acc = K.zero
    for k in range(1, 12):
        acc += (a + k * s) / (b * s**2 + k) * (s - a) / (s + k * b)
    return time.perf_counter() - t0


def import_galint():
    """Import galint from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import galint

    if Path(galint.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"galint imported from {galint.__file__}, not {SRC}")


def setup_once(workload, seed):
    """Import galint and build every case's inputs.  Returns the seconds and
    the mean of two reference timings taken right after."""
    t0 = time.perf_counter()
    import_galint()
    import cases

    for case in cases.cases(workload, seed):
        case.build()
    elapsed = time.perf_counter() - t0
    return elapsed, statistics.mean(reference_s() for _ in range(2))


def setup_s(workload, seed):
    """Median set-up time over fresh processes: (scaled, measured)."""
    runs = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=120)
        elapsed, ref = map(float, out.stdout.split()[-2:])
        runs.append((elapsed * REF_NOMINAL_S / ref, elapsed))
    return (statistics.median(r[0] for r in runs),
            statistics.median(r[1] for r in runs))


def run_pass(workload, seed, small=False, tracer=None, refs=None):
    """One cold pass over the workload's cases.

    Returns {case name: (wall, verdict, verify) seconds, or None if the
    case failed} and the result terms of the cases that passed.  When
    ``refs`` is a list, reference timings are appended after each case.
    """
    import sympy.core.cache

    import cases

    sympy.core.cache.clear_cache()
    gc.collect()
    times, terms = {}, 0
    for case in cases.cases(workload, seed, small):
        if tracer is not None:
            tracer.request = case.name
        clock = cases.Clock()
        t0 = time.perf_counter()
        try:
            result = case.decide(case.build(), clock)
            case.check(result)
        except Exception as err:  # a failed case is counted, never dropped
            print(f"FAILED {workload}/{case.name}: {type(err).__name__}: {err}",
                  file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            times[case.name] = None
        else:
            times[case.name] = (time.perf_counter() - t0, clock.verdict_s,
                                clock.verify_s)
            terms += cases.terms(result)
        if refs is not None:
            budget = REF_SHARE * (time.perf_counter() - t0)
            while True:
                refs.append(reference_s())
                budget -= refs[-1]
                if budget <= 0:
                    break
    return times, terms


def measure(workload, seed, seconds, small=False):
    """Untraced passes for ``seconds`` (at least MIN_PASSES), and the
    reference timings taken between their cases."""
    passes, refs = [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(workload, seed, small, refs=refs))
    return passes, refs


def traced_pass(workload, seed, small=False):
    import cases
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(extra_modules=[cases])
    try:
        times, _ = run_pass(workload, seed, small, tracer=tracer)
    finally:
        tracer.uninstall()
    left = Tracer.leftovers(extra_modules=[cases])
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")
    size = "-small" if small else ""
    tracer.dump(HERE / "out" / f"trace-{workload}{size}-seed{seed}.json")
    return tracer, times


def mean_case_sum(passes, k):
    """Sum over cases of the case's mean time k (0 wall, 1 verdict,
    2 verify) over the passes where it succeeded."""
    per_case = {}
    for times in passes:
        for name, t in times.items():
            if t is not None:
                per_case.setdefault(name, []).append(t[k])
    return sum(statistics.mean(v) for v in per_case.values())


def summarize(passes, terms, scale=1.0):
    """Attempted and failed counts, and the end-to-end metrics as
    {name: (value, unit, measured value)}; times are multiplied by scale."""
    attempted = sum(len(times) for times in passes)
    failed = sum(t is None for times in passes for t in times.values())
    e2e = {}
    for k, name in enumerate(("wall_s", "verdict_s", "verify_s")):
        t = mean_case_sum(passes, k)
        e2e[name] = (t * scale, "s", t)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e["peak_rss_mb"] = (rss, "MB", rss)
    e2e["failed_frac"] = (failed / attempted, "ratio", failed / attempted)
    e2e["result_terms"] = (terms, "count", terms)
    return attempted, failed, e2e


# End-to-end metrics in the JSON line.  verify_s is 0 off certify-suite and
# failed_frac is 0 on a correct run, so both are printed but not gated; the
# JSON's ``failed`` and ``correct`` keys carry the failures.
GATED = ("setup_s", "wall_s", "verdict_s", "peak_rss_mb", "result_terms")


def report(workload, seed, seconds, trace, small=False):
    """Run, print the metrics by name and unit, and return the JSON result;
    ``small`` runs every case at its smallest size (the smoke test)."""
    passes, refs = measure(workload, seed, seconds, small)
    # an exact count: passes where every case succeeded must agree on it
    terms = {t for times, t in passes if None not in times.values()}
    if len(terms) > 1:
        raise RuntimeError(f"result terms differ between passes: {terms}")
    ref = statistics.mean(refs)
    attempted, failed, e2e = summarize([times for times, _ in passes],
                                       terms.pop() if terms else 0,
                                       REF_NOMINAL_S / ref)
    print(f"# {workload} seed={seed}: {len(passes)} passes, "
          f"{attempted} cases attempted, {failed} failed; mean reference "
          f"{ref:.4f} s over {len(refs)}, times scaled to {REF_NOMINAL_S} s")
    if trace:
        tracer, traced = traced_pass(workload, seed, small)
        t_attempted, t_failed, t_e2e = summarize([traced], 0)
        attempted += t_attempted
        failed += t_failed
        metrics = tracer.metrics(t_e2e["wall_s"][0], e2e["wall_s"][2])
        for name, m in metrics.items():
            print(f"{workload}  {name:44s} {m['value']:.6g} {m['unit']}")
        if not small:
            print_facts(workload, tracer, metrics)
    else:
        scaled, measured = setup_s(workload, seed)
        e2e = {"setup_s": (scaled, "s", measured), **e2e}
        for name, (value, unit, raw) in e2e.items():
            note = f"  (measured {raw:.6g} {unit})" if unit == "s" else ""
            print(f"{workload}  {name:12s} {value:.6g} {unit}{note}")
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]}
                   for name in GATED}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_facts(workload, tracer, metrics):
    """Confirm or refute the two profile facts the benchmark was built on."""
    if workload == "certify-suite":
        share = tracer.rank_share("1dw-alpha-N4")
        verdict = "confirmed" if share > 0.5 else "refuted"
        print(f"# fact {verdict}: rank sampling is {share:.0%} of "
              "verify_certificate time for 1dw-alpha (claim: dominates)")
    if workload == "flow-deep":
        share = metrics["linalg.rref.self_share"]["value"]
        verdict = "confirmed" if share < 0.2 else "refuted"
        print(f"# fact {verdict}: linalg.rref self time is {share:.0%} of "
              "the traced flow-deep pass (claim: a minor share)")


def run_all(seed, seconds, trace):
    """Every workload in its own process, so peak memory stays per workload."""
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], timeout=900)
        ok = ok and proc.returncode == 0
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_probe:
        print(*setup_once(args.workload, args.seed))
        return 0
    import_galint()
    result = report(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
