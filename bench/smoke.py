"""Smoke test of the benchmark itself, at each workload's smallest size.

    python3 bench/smoke.py

Checks that an untraced run emits every end-to-end metric and a traced run
every per-layer metric, that every verdict is correct, that no wrapper stays
installed after the traced pass, and that the exact counts repeat across two
traced runs and across two PYTHONHASHSEED values.  Exits nonzero on failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
HASH_SEEDS = ("1", "1", "2")


def child(workload):
    """One traced small run; prints its metrics as JSON."""
    result = run.report(workload, 0, 0, 1, small=True)
    print(json.dumps(result))


def traced_counts(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(HERE / "smoke.py"), "--child", workload],
        check=True, capture_output=True, text=True, env=env, timeout=600)
    result = json.loads(out.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    run.import_galint()
    import cases
    from tracing import EXACT, PER_LAYER, Tracer

    problems = []
    for workload in run.WORKLOADS:
        plain = run.report(workload, 0, 0, 0, small=True)
        if set(plain["metrics"]) != set(run.GATED):
            problems.append(f"{workload}: end-to-end metrics "
                            f"{sorted(plain['metrics'])}")
        traced = run.report(workload, 0, 0, 1, small=True)
        if list(traced["metrics"]) != [name for name, _ in PER_LAYER]:
            problems.append(f"{workload}: per-layer metrics "
                            f"{sorted(traced['metrics'])}")
        for res in (plain, traced):
            if not res["correct"]:
                problems.append(f"{workload}: {res['failed']} cases failed")
        left = Tracer.leftovers(extra_modules=[cases])
        if left:
            problems.append(f"{workload}: wrappers left installed: {left}")

        runs = [traced_counts(workload, h) for h in HASH_SEEDS]
        for name in EXACT:
            values = [r[name] for r in runs]
            if len(set(values)) != 1:
                problems.append(
                    f"{workload}: {name} differs across traced runs "
                    f"(PYTHONHASHSEED {', '.join(HASH_SEEDS)}): {values}")
    for p in problems:
        print("SMOKE FAILED:", p)
    print("smoke ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run.import_galint()
        child(sys.argv[2])
    else:
        sys.exit(main())
