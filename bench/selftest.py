"""Self-test of the benchmark harness.

Usage::

    python3 bench/selftest.py

1. Smoke: every workload at ``--tiny`` sizes, untraced and traced; the
   result line must name exactly the metrics ``BENCHMARK.json`` declares
   and show no unexpected failure.
2. Repeatability: two traced runs of one seed must give exactly the same
   counts (``series.terms``, ``criteria.series_evals_per_root``,
   ``montecarlo.draws``, ``gamble.factor_table_len``).
3. Baseline cross-check: terms of ``time_average_growth(100, 2)`` at
   p = 0.5, 0.05 and 0.01, series evaluations per break-even root at
   wealth 100, and the peak RSS of ``simulate --rounds 20000000`` in a
   fresh interpreter, printed beside the ROADMAP Baseline figures.

Exits 1 if any check of parts 1 and 2 fails; part 3 reports.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path

import run
import tracing

EXACT = ("series.terms", "criteria.series_evals_per_root", "montecarlo.draws",
         "gamble.factor_table_len")
SEED = 7


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_and_repeat(spec: dict) -> list:
    problems = []
    for workload in run.workloads.WORKLOADS:
        untraced = _bench(workload, 0)
        first, second = _bench(workload, 1), _bench(workload, 1)
        for result, kind in ((untraced, "end_to_end"), (first, "per_layer")):
            names = {m["name"] for m in spec[kind]}
            if set(result["metrics"]) != names:
                problems.append(f"{workload}: {kind} metrics {sorted(result['metrics'])}")
            if not result["correct"] or result["attempted"] < 1 or result["failed"]:
                problems.append(f"{workload}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload:>9} {name:<32} {a!r:>14} {b!r:>14} {status}")
            if a != b:
                problems.append(f"{workload}: {name} {a!r} != {b!r}")
    return problems


def baseline() -> None:
    modules = run.load_library()
    cli = run.Cli(modules["cli"].main)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for p, expected in (("0.5", 38), ("0.05", 566), ("0.01", 3057)):
            start = len(tracer.spans)
            cli(["evaluate", "--wealth", "100", "--price", "2", "--geom-p", p])
            terms = [s[4]["terms"] for s in tracer.spans[start:]
                     if s[0] == "series.time_average_growth"]
            print(f"baseline time_average_growth(100, 2) p={p:<5} terms {terms[0]:>6} "
                  f"(ROADMAP {expected})")
        start = len(tracer.spans)
        cli(["breakeven", "--wealth", "100"])
        per_root = tracing.layer_metrics(tracer.spans, start, len(tracer.spans), 1)
        print(f"baseline breakeven_price(100) series evaluations per root "
              f"{per_root['criteria.series_evals_per_root']:.0f} (ROADMAP 58-59)")
    finally:
        tracer.uninstall()
    child = run._CHILD
    subprocess.run([sys.executable, "-c", child, str(run.SRC), "simulate", "--wealth", "100",
                    "--price", "2", "--rounds", "20000000"],
                   capture_output=True, timeout=300, check=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"baseline simulate --rounds 20000000 peak RSS {peak:.0f} MB (ROADMAP 647 MB)")


def main() -> int:
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    problems = smoke_and_repeat(spec)
    baseline()
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
