"""Benchmark of the ``petersburg`` command line, end to end and per layer.

Usage::

    python3 bench/run.py --workload decide --seed 1 --seconds 30 --trace 0

One process drives ``petersburg.cli.main(argv)`` in-process, one command
at a time (a closed loop with one client), on the seeded op set of the
workload (see ``workloads.py``).  A run goes:

1. with ``--trace 0``, timed passes over the op set until ``--seconds``
   have elapsed (whole passes, at least one); between its ops, at times
   spread evenly over the run, a fresh interpreter runs the workload's
   first op, for set-up time (``SetupClock``);
2. with ``--trace 1``, plain passes alternating with passes that have
   the boundary wrappers of ``tracing.py`` installed, plus, for simulate
   commands, one untimed pass under ``tracemalloc`` for allocation peaks.

Every execution is checked outside its timing: the first one of each op
against the oracle (``checks.py``), later ones against the first.  Times
are medians over passes, in reference seconds for Python-loop ops; see
``Timings``.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name with its unit, the failures by class and the machine.  Spans and a
full record go to ``bench/out/``.

An execution that shows one of the library's known defects
(``checks.KNOWN_CLASSES``) at an op where that defect is documented has
met that op's reference outcome: it is tallied and printed as a known
defect, not counted in ``failed``.  Any other failure is counted in
``failed`` and makes ``correct`` false.  So ``failed`` stays 0 until the
program's outputs change for the worse, and a fixed defect (a correct
value where the defect was) is accepted as well.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters started to measure set-up time; the median is reported.
SETUP_SPAWNS = 9

_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "from petersburg.cli import main; sys.exit(main(sys.argv[2:]))")


def load_library() -> dict:
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "petersburg" / "cli.py").is_file():
        raise SystemExit(f"bench: no petersburg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from petersburg import cli, criteria, gamble, montecarlo, series

    if Path(cli.__file__).resolve().parent != SRC / "petersburg":
        raise SystemExit(f"bench: imported petersburg from {cli.__file__}, not {SRC}")
    return {"cli": cli, "criteria": criteria, "gamble": gamble,
            "montecarlo": montecarlo, "series": series}


def machine() -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(), "caches": caches}


class Cli:
    """Runs one command in-process and captures exit code, stdout and stderr.

    The capture buffers are reused: click caches a text wrapper per stream
    object that keeps the stream alive, so a fresh buffer per command
    would grow the process by one buffer per command.
    """

    def __init__(self, main) -> None:
        self.main = main
        self._out, self._err = io.StringIO(), io.StringIO()

    def __call__(self, argv):
        for buffer in (self._out, self._err):
            buffer.seek(0)
            buffer.truncate()
        with contextlib.redirect_stdout(self._out), contextlib.redirect_stderr(self._err):
            rc = self.main(list(argv))
        return rc, self._out.getvalue(), self._err.getvalue()


def _digest(path) -> str:
    if path is None:
        return ""
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Judge:
    """Checks every execution and tallies attempts, known defects and failures.

    The first execution of an op is judged by the oracle; later ones are
    compared with it (stdout, exit code and the wealth-path file digest),
    and judged again if they differ.  ``known`` and ``failures`` map
    ``(class, op index)`` to executions: ``known`` the documented defects,
    ``failures`` everything else.
    """

    def __init__(self, ops) -> None:
        self.ops = ops
        self.verified = [None] * len(ops)
        self.attempted = 0
        self.known = {}
        self.failures = {}
        self.examples = {}

    def __call__(self, i: int, rc: int, out: str, err: str) -> None:
        op = self.ops[i]
        if self.verified[i] is None:
            failure = checks.check(op, rc, out, err)
            if failure is None and op.params.get("same_as_previous"):
                if (rc, out) != self.verified[i - 1][:2]:
                    failure = checks.Failure("wrong", "stdout differs from the --workers 1 run")
            self.verified[i] = (rc, out, _digest(op.path_out), failure)
        else:
            rc0, out0, digest0, failure = self.verified[i]
            if (rc, out) != (rc0, out0) or _digest(op.path_out) != digest0:
                failure = checks.check(op, rc, out, err) or checks.Failure(
                    "wrong", "output differs between runs of one command")
        self.attempted += 1
        if failure is not None:
            key = (failure.cls, i)
            tally = self.known if failure.cls in checks.KNOWN_CLASSES else self.failures
            tally[key] = tally.get(key, 0) + 1
            self.examples.setdefault(key, failure.detail)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failures


class Timings:
    """Op latencies of each pass, in reference seconds where they apply.

    The latencies of ``python_loop`` ops are divided by the host slowness
    measured during their pass (``calibrate``); the others are kept in
    seconds.  Figures are medians over passes.  On a shared host,
    best-of-N or plain times of Python loops wander with the host's speed
    from run to run; see ``calibrate`` for the numbers.
    """

    def __init__(self, ops) -> None:
        self.scaled = [op.python_loop for op in ops]
        self.passes = []

    def add(self, latencies, slowness: float) -> None:
        self.passes.append([dt / slowness if scaled else dt
                            for dt, scaled in zip(latencies, self.scaled)])

    def wall(self) -> float:
        return statistics.median(sum(p) for p in self.passes)

    def per_op(self):
        return [statistics.median(column) for column in zip(*self.passes)]


def timed_pass(ops, run, judge: Judge, timings: Timings, between=None) -> float:
    """One pass over ``ops``; returns the host slowness measured during it.

    ``between``, if given, is called before each op, outside its timing.
    """
    speed = calibrate.Speed()
    latencies = []
    for i, op in enumerate(ops):
        if between is not None:
            between()
        speed.sample()
        t0 = time.perf_counter()
        rc, out, err = run(op.argv)
        latencies.append(time.perf_counter() - t0)
        judge(i, rc, out, err)
    slowness = speed.slowness()
    timings.add(latencies, slowness)
    return slowness


class SetupClock:
    """Set-up time: a fresh interpreter running ``op`` to completion.

    The ``SETUP_SPAWNS`` spawns are spread evenly over the timed run, one
    between two ops whenever the next is due, and the median is reported
    in seconds.  In ten probe runs on a shared 2-vCPU VM, nine spawns
    spread over 20 s of work had a quartile spread of 0.09 of the median
    (across runs), nine spawns in a row before the work 0.30, and the
    same nine divided by the calibration kernel's slowness 0.20.
    """

    def __init__(self, op, judge: Judge, seconds: float) -> None:
        self.op, self.judge = op, judge
        self.due = [(k + 0.5) * seconds / SETUP_SPAWNS for k in range(SETUP_SPAWNS)]
        self.times = []
        self.start = time.perf_counter()

    def __call__(self) -> None:
        """Spawn if the next spawn is due."""
        done = len(self.times)
        if done < SETUP_SPAWNS and time.perf_counter() - self.start >= self.due[done]:
            self.spawn()

    def spawn(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _CHILD, str(SRC)] + self.op.argv,
                              capture_output=True, text=True, timeout=120)
        self.times.append(time.perf_counter() - t0)
        self.judge(0, proc.returncode, proc.stdout, proc.stderr)

    def seconds(self) -> float:
        """Median spawn time, after the spawns a short run left undone."""
        while len(self.times) < SETUP_SPAWNS:
            self.spawn()
        return statistics.median(self.times)


def timed_passes(ops, run, judge: Judge, seconds: float):
    """Whole passes over ``ops`` until ``seconds`` elapse (at least one).

    Returns the pass timings and the set-up time measured between ops.
    """
    timings = Timings(ops)
    setup = SetupClock(ops[0], judge, seconds)
    timed_pass(ops, run, judge, timings, setup)
    while time.perf_counter() - setup.start < seconds:
        timed_pass(ops, run, judge, timings, setup)
    return timings, setup.seconds()


def end_to_end(ops, timings: Timings, setup_s: float) -> dict:
    per_op = timings.per_op()
    wall = timings.wall()
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_p90_ms": 1e3 * statistics.quantiles(per_op, n=10)[-1],
        "work_per_s": sum(op.work for op in ops) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops, run, judge: Judge, seconds: float, modules: dict, span_file: Path) -> dict:
    """Per-layer metrics from traced passes, alternating with plain ones."""
    tracer = tracing.Tracer()
    traced_run = tracer.span("cli.main", run,
                             lambda a, k, r: {"stdout_bytes": len(r[1].encode())})
    plain, traced = Timings(ops), Timings(ops)
    ranges = []
    start = time.perf_counter()
    while not ranges or time.perf_counter() - start < seconds:
        timed_pass(ops, run, judge, plain)
        first = len(tracer.spans)
        tracer.install(modules)
        try:
            slowness = timed_pass(ops, traced_run, judge, traced)
        finally:
            tracer.uninstall()
        ranges.append((first, len(tracer.spans), slowness))
    tracer.write(span_file)

    block = getattr(modules["montecarlo"], "_BLOCK_SIZE", 1 << 16)
    metrics = tracing.median_metrics([
        tracing.layer_metrics(tracer.spans, a, b, block, slowness) for a, b, slowness in ranges])
    metrics["trace.overhead_frac"] = traced.wall() / plain.wall() - 1.0

    # allocation peaks: tracemalloc slows Python loops, so this pass is untimed
    sampled = [i for i, op in enumerate(ops) if op.argv[0] == "simulate"]
    metrics["montecarlo.alloc_peak_mb"] = 0.0
    if sampled:
        import tracemalloc

        alloc = tracing.Tracer(alloc=True)
        tracemalloc.start()
        alloc.install(modules)
        try:
            for i in sampled:
                judge(i, *run(ops[i].argv))
        finally:
            alloc.uninstall()
            tracemalloc.stop()
        metrics["montecarlo.alloc_peak_mb"] = tracing.alloc_peak_mb(alloc.spans)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (self-test only; not comparable)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modules = load_library()
    run = Cli(modules["cli"].main)
    OUT.mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed, OUT, args.tiny)

    judge = Judge(ops)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    if args.trace:
        values = per_layer(ops, run, judge, args.seconds, modules, OUT / f"spans-{tag}.jsonl")
        declared = spec["per_layer"]
    else:
        values = end_to_end(ops, *timed_passes(ops, run, judge, args.seconds))
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    info = machine()
    for name, m in metrics.items():
        print(f"{args.workload:>9} {name:<32} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:>9} {'ops_per_pass':<32} {len(ops):>16d}")
    defects = sum(judge.known.values())
    print(f"{args.workload:>9} {'fail_frac':<32} "
          f"{(defects + judge.failed) / judge.attempted:>16.6g} "
          f"({defects} known-defect + {judge.failed} failed / {judge.attempted})")
    for label, tally in (("known defect", judge.known), ("FAILED", judge.failures)):
        for cls in sorted({cls for cls, _ in tally}):
            hits = sorted((i, n) for (c, i), n in tally.items() if c == cls)
            print(f"  {label} {cls}: {sum(n for _, n in hits)} runs of {len(hits)} ops, "
                  f"e.g. {' '.join(ops[hits[0][0]].argv)}\n"
                  f"       {judge.examples[(cls, hits[0][0])]}")
    print(f"  machine {json.dumps(info, sort_keys=True)}")

    result = {"correct": judge.correct, "attempted": judge.attempted,
              "failed": judge.failed, "metrics": metrics}
    record = dict(result, known_defects=defects, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, tiny=args.tiny, machine=info,
                  ops=len(ops))
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
