"""Seeded operation sets for the three benchmark workloads.

Every op is one ``petersburg`` command line.  Inputs are drawn from
``random.Random`` seeded with the workload name and ``--seed``, so one
seed always gives the same ops.  Parameters that drive cost (the
geometric ``p``, wealth) are stratified: each op draws from the middle
half of its own equal-width slice of the log range, so a seed changes
the values but not their spread, and the measured cost stays comparable
across seeds.

The op at index 0 of every workload is a small one; set-up time is
measured up to its completion in a fresh interpreter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from oracle import Gamble

WORKLOADS = ("decide", "breakeven", "simulate")


@dataclass
class Op:
    """One command line plus what the checker needs to judge its output.

    ``work`` counts the units of the workload's throughput metric:
    evaluations, break-even roots, or simulated rounds plus samples.
    ``python_loop`` marks an op whose time goes to Python code (loops or
    per-command overhead), which slows down with the calibration kernel;
    its times are scaled to reference seconds (see ``calibrate``).  The
    others are the large simulate commands bound by numpy and page
    faults, which do not follow the kernel: their times are plain seconds.
    """

    kind: str
    argv: List[str]
    gamble: Gamble
    work: int
    params: dict = field(default_factory=dict)
    path_out: Optional[Path] = None
    python_loop: bool = True


def _f(x: float) -> str:
    return repr(float(x))


def _stratified(rng: random.Random, k: int, lo: float, hi: float) -> List[float]:
    """``k`` log-spread values, one from the middle half of each equal slice
    of ``[lo, hi]``, shuffled."""
    a, b = math.log(lo), math.log(hi)
    values = [math.exp(a + (i + rng.uniform(0.25, 0.75)) * (b - a) / k) for i in range(k)]
    rng.shuffle(values)
    return values


def _gamble_argv(g: Gamble, table_path: Optional[Path]) -> List[str]:
    if g.rule == "table":
        return ["--payout", f"table:{table_path}"]
    token = f"capped:{_f(g.cap)}" if g.rule == "capped" else g.rule
    return ["--payout", token, "--geom-p", _f(g.p)]


def _write_table(rng: random.Random, path: Path, rows: int) -> Gamble:
    """A payout table with one zero payout and log-spread others."""
    weights = [rng.random() + 0.05 for _ in range(rows)]
    total = sum(weights)
    probs = [x / total for x in weights]
    payouts = [0.0] + sorted(float(round(math.exp(rng.uniform(0.0, math.log(1e5))), 2))
                             for _ in range(rows - 1))
    lines = ["probability,payout"] + [f"{_f(p)},{_f(m)}" for p, m in zip(probs, payouts)]
    path.write_text("\n".join(lines) + "\n")
    # the library reads the file back with float(), which round-trips repr
    return Gamble("table", rows=tuple(zip(probs, payouts)))


def _price(rng: random.Random, g: Gamble, w: float, regime: str) -> float:
    """A ticket price for one regime.

    ``normal``: a fraction of wealth; ``near_ruin``: just below wealth;
    ``brink``: between wealth and the ruin price ``w + min payout``, where
    the time criterion still exists but the literal one does not (rules
    whose smallest payout is 0 have no such gap and get ``near_ruin``);
    ``ruinous``: at least the ruin price.
    """
    ruin = w + g.min_payout(w)
    closeness = 10.0 ** -rng.uniform(1.0, 8.0)
    if regime == "normal":
        return w * math.exp(rng.uniform(math.log(1e-4), math.log(0.5)))
    if regime == "near_ruin" or ruin == w:
        return w * (1.0 - closeness)
    if regime == "brink":
        return ruin - (ruin - w) * closeness
    return ruin * (1.0 + 10.0 ** -rng.uniform(0.0, 3.0))


#: Price regimes and utilities are dealt out in p order, so every slice of
#: the p range gets the same mix whatever the seed: a ruinous price or an
#: extra utility series changes an op's cost several-fold.
_REGIMES = ("normal", "near_ruin", "normal", "normal", "ruinous",
            "normal", "brink", "normal", "near_ruin", "normal")
_UTILITIES = (None, "log", None, "sqrt", None, None)


def decide(seed: int, outdir: Path, tiny: bool) -> List[Op]:
    """``evaluate`` over four payout rules, p log-spread in [0.002, 0.5]."""
    rng = random.Random(f"decide:{seed}")
    table_path = outdir / f"table-decide-{seed}.csv"
    table = _write_table(rng, table_path, 10)
    counts = {"bernoulli": 120, "capped": 60, "menger": 40, "table": 40}
    if tiny:
        counts = {rule: k // 10 for rule, k in counts.items()}
    ops = []
    for rule, k in counts.items():
        ps = sorted(_stratified(rng, k, 0.002, 0.5))
        wealths = _stratified(rng, k, 1.0, 1e6)
        caps = _stratified(rng, k, 10.0, 1e9)
        for i in range(k):
            g = table if rule == "table" else Gamble(
                rule, p=ps[i], cap=caps[i] if rule == "capped" else 0.0)
            w = wealths[i]
            c = _price(rng, g, w, _REGIMES[i % len(_REGIMES)])
            ops.append(_evaluate_op(g, w, c, _UTILITIES[i % len(_UTILITIES)],
                                    "csv" if i % 4 == 3 else "json", table_path))
    rng.shuffle(ops)
    w0 = math.exp(rng.uniform(0.0, math.log(1e4)))
    ops.insert(0, _evaluate_op(Gamble("bernoulli"), w0, w0 * 0.02, None, "json", None))
    return ops


def _evaluate_op(g: Gamble, w: float, c: float, utility: Optional[str], fmt: str,
                 table_path: Optional[Path]) -> Op:
    argv = ["evaluate", "--wealth", _f(w), "--price", _f(c)] + _gamble_argv(g, table_path)
    if utility:
        argv += ["--utility", utility]
    argv += ["--format", fmt]
    return Op("evaluate", argv, g, 1, {"wealth": w, "price": c, "utility": utility,
                                       "format": fmt})


def breakeven(seed: int, outdir: Path, tiny: bool) -> List[Op]:
    """Single roots over bernoulli and capped at p in {0.5, 0.2, 0.05}, plus two grids."""
    rng = random.Random(f"breakeven:{seed}")
    points = 5 if tiny else 100
    specs = []
    for rule, k in (("bernoulli", 40), ("capped", 28)):
        k = 2 if tiny else k
        for p in (0.5, 0.2, 0.05):
            caps = _stratified(rng, k, 10.0, 1e9)
            for w in _stratified(rng, k, 1.0, 1e6):
                g = Gamble(rule, p=p, cap=caps.pop() if rule == "capped" else 0.0)
                specs.append((g, w))
    rng.shuffle(specs)
    specs.insert(0, (Gamble("bernoulli"), math.exp(rng.uniform(0.0, math.log(1e4)))))

    ops = []
    for i, (g, w) in enumerate(specs):
        fmt = "csv" if i % 3 == 2 else "json"
        argv = ["breakeven", "--wealth", _f(w)] + _gamble_argv(g, None) + ["--format", fmt]
        ops.append(Op("breakeven", argv, g, 1, {"wealth": w, "format": fmt, "price_tol": 1e-10}))
    grid = {"wmin": 10.0, "wmax": 1e4, "points": points, "price_tol": 1e-10}
    ops.append(Op("grid", ["breakeven", "--points", str(points)], Gamble("bernoulli"),
                  points, grid))
    ops.append(Op("inset", ["breakeven", "--inset", "--points", str(points)],
                  Gamble("bernoulli"), 0, dict(grid, price=2.0)))
    return ops


def simulate(seed: int, outdir: Path, tiny: bool) -> List[Op]:
    """The fixed large simulate commands plus seeded small ones for latency."""
    rng = random.Random(f"simulate:{seed}")
    big = 200_000 if tiny else 20_000_000
    mid = 10_000 if tiny else 1_000_000
    bern = Gamble("bernoulli")
    base = ["--wealth", "100.0", "--price", "2.0"]

    def op(kind, g, work, extra, params, path_out=None, run_seed=seed, python_loop=True):
        argv = ["simulate"] + extra + ["--seed", str(run_seed)]
        return Op(kind, argv, g, work, dict({"wealth": 100.0, "price": 2.0}, **params),
                  path_out, python_loop)

    path_out = outdir / f"path-{seed}.csv"
    ops = [
        op("time", bern, 1000, base + ["--rounds", "1000"], {"rounds": 1000}),
        op("time", bern, big, base + ["--rounds", str(big), "--workers", "1"],
           {"rounds": big, "vs_analytic": True}, python_loop=False),
        op("time", bern, big, base + ["--rounds", str(big), "--workers", "2"],
           {"rounds": big, "vs_analytic": True, "same_as_previous": True}, python_loop=False),
        op("ensemble", Gamble("capped", cap=1e6), big,
           ["--wealth", "100.0", "--price", "8.0", "--mode", "ensemble",
            "--samples", str(big), "--payout", "capped:1000000.0"],
           {"price": 8.0, "samples": big}, python_loop=False),
        op("subinterval", bern, mid, base + ["--mode", "subinterval", "--rounds", str(mid)],
           {"q": mid, "vs_analytic": True}, python_loop=False),
        op("time", bern, mid,
           base + ["--rounds", str(mid), "--wealth-path-out", str(path_out)],
           {"rounds": mid, "vs_analytic": True}, path_out),
        # its cost is the factor table up to the largest of 10 draws, which
        # ranges from 1.4e5 to 5.4e5 across seeds: one sampler seed keeps it
        # at 286 360 (the library's default seed 0)
        op("time", Gamble("bernoulli", p=1e-5), 10,
           base + ["--geom-p", "1e-05", "--rounds", "10"], {"rounds": 10, "vs_analytic": True},
           run_seed=0),
        op("time", Gamble("menger"), 1000,
           ["--wealth", "100.0", "--payout", "menger", "--rounds", "1000"],
           {"price": 0.0, "rounds": 1000}),
    ]
    small = 12 if tiny else 120
    sizes = _stratified(rng, small, 2.0 ** 10, 2.0 ** 16)
    ps = _stratified(rng, small, 0.3, 0.7)
    wealths = _stratified(rng, small, 1.0, 1e4)
    for i in range(small):
        n = int(sizes[i])
        w = wealths[i]
        c = w * rng.uniform(0.0, 0.5)
        rule = "capped" if i % 2 else "bernoulli"
        g = Gamble(rule, p=ps[i], cap=10.0 ** rng.uniform(1, 6) if rule == "capped" else 0.0)
        mode = ("time", "ensemble", "subinterval")[i % 3]
        size_flag = "--samples" if mode == "ensemble" else "--rounds"
        argv = (["simulate", "--wealth", _f(w), "--price", _f(c), "--mode", mode,
                 size_flag, str(n), "--seed", str(rng.randrange(2 ** 31))]
                + _gamble_argv(g, None))
        params = {"wealth": w, "price": c, "rounds": n, "samples": n, "q": n}
        ops.append(Op(mode, argv, g, n, params))
    return ops


def build(name: str, seed: int, outdir: Path, tiny: bool = False) -> List[Op]:
    return {"decide": decide, "breakeven": breakeven, "simulate": simulate}[name](
        seed, outdir, tiny)
