"""Spans around the library's module boundaries, recorded from outside.

The library is not changed: :func:`install` replaces public functions
with timing wrappers at the module attributes where their callers look
them up, and :func:`uninstall` puts the originals back.  Only functions
called a few times per command are wrapped; per-term and per-factor
functions (``growth_factor``, the series term values) are not, since a
wrapper there costs more than the work it times.

Spans live in memory as ``[name, start, end, parent, attrs]`` lists;
``parent`` is the index of the enclosing span or -1.  The wrapped
functions run on the thread that calls the CLI, so one stack suffices.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional


def _series_attrs(args, kwargs, result) -> dict:
    return {"terms": result.terms_used}


def _trajectory_attrs(args, kwargs, result) -> dict:
    # the factor table is built up to the longest waiting time drawn
    return {"table": int(result.waiting_times.max())}


def _stats_attrs(args, kwargs, result) -> dict:
    return {"table": result.max_n}


def _draw_attrs(args, kwargs, result) -> dict:
    return {"draws": len(result)}


def _ensemble_attrs(args, kwargs, result) -> dict:
    return {"table": result.max_n, "draws": result.count}


#: (layer, function, modules whose attribute is replaced, attrs from the result)
_BOUNDARIES = [
    ("series", "time_average_growth", ("criteria", "cli"), _series_attrs),
    ("series", "expected_payout", ("criteria", "cli"), _series_attrs),
    ("series", "ensemble_average_growth", ("criteria",), _series_attrs),
    ("series", "expected_utility_change", ("criteria",), _series_attrs),
    ("series", "bernoulli_literal_lhs", ("criteria", "cli"), _series_attrs),
    ("criteria", "evaluate", ("criteria",), None),
    ("criteria", "evaluate_state", ("cli",), None),
    ("criteria", "breakeven_price", ("criteria", "cli"), None),
    ("criteria", "breakeven_curve", ("criteria", "cli"), None),
    ("montecarlo", "draw_waiting_times", ("montecarlo",), _draw_attrs),
    ("montecarlo", "simulate_trajectory", ("montecarlo", "cli"), _trajectory_attrs),
    ("montecarlo", "time_average_estimate", ("montecarlo", "cli"), None),
    ("montecarlo", "subinterval_estimate", ("montecarlo", "cli"), _stats_attrs),
    ("montecarlo", "ensemble_average_estimate", ("montecarlo", "cli"), _ensemble_attrs),
]

#: Montecarlo entry points whose allocation peak the alloc pass records.
_ESTIMATORS = ("simulate_trajectory", "time_average_estimate", "subinterval_estimate",
               "ensemble_average_estimate")


class Tracer:
    """In-memory span recorder.

    With ``alloc`` set, montecarlo estimator spans also record the peak of
    ``tracemalloc`` memory above its level at entry; the caller starts
    ``tracemalloc`` and keeps such passes out of any timing.
    """

    def __init__(self, alloc: bool = False) -> None:
        self.spans: List[list] = []
        self.alloc = alloc
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def span(self, name: str, fn: Callable, attrs: Optional[Callable] = None,
             alloc: bool = False) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            if alloc:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[2] = time.perf_counter()
                record[4] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            record[2] = time.perf_counter()
            extra = attrs(args, kwargs, result) if attrs else {}
            if alloc:
                extra["alloc"] = tracemalloc.get_traced_memory()[1] - base
            record[4] = extra
            return result

        return wrapper

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap every boundary function found in ``modules`` (name -> module)."""
        wrappers: Dict[int, Callable] = {}
        for layer, func, owners, attrs in _BOUNDARIES:
            for owner in owners:
                module = modules[owner]
                original = getattr(module, func, None)
                if original is None:
                    continue
                # one wrapper per function object, so re-exported names share it
                if id(original) not in wrappers:
                    alloc = self.alloc and func in _ESTIMATORS
                    wrappers[id(original)] = self.span(
                        f"{layer}.{original.__name__}", original, attrs, alloc)
                self._patched.append((module, func, original))
                setattr(module, func, wrappers[id(original)])

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patched):
            setattr(module, func, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, attrs in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "attrs": attrs}) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: List[list], first: int, last: int, block_size: int,
                  slowness: float = 1.0) -> dict:
    """Per-layer counts and times for the spans ``first..last-1`` of one pass.

    Times are divided by the pass's host ``slowness`` (see ``calibrate``).
    """
    child = {}
    for i in range(first, last):
        parent = spans[i][3]
        if parent >= first:
            child[parent] = child.get(parent, 0.0) + (spans[i][2] - spans[i][1]) / slowness

    m = dict.fromkeys(
        ["series.calls", "series.busy_s", "series.terms", "series.inconclusive",
         "criteria.roots", "criteria.no_root", "criteria.self_s", "montecarlo.draws",
         "montecarlo.blocks", "montecarlo.draw_s", "montecarlo.reduce_s",
         "gamble.factor_table_len", "cli.ops", "cli.self_s", "cli.stdout_bytes"], 0)
    results = result_s = draw_draws = root_evals = 0
    for i in range(first, last):
        name, start, end, parent, attrs = spans[i]
        attrs = attrs or {}
        dur = (end - start) / slowness
        self_s = dur - child.get(i, 0.0)
        layer = _layer(name)
        if layer == "series":
            m["series.calls"] += 1
            m["series.busy_s"] += dur
            if "terms" in attrs:
                m["series.terms"] += attrs["terms"]
                results += 1
                result_s += dur
            elif attrs.get("error") == "TruncationInconclusiveError":
                m["series.inconclusive"] += 1
            if parent >= first and spans[parent][0] == "criteria.breakeven_price" \
                    and "error" not in (spans[parent][4] or {}):
                root_evals += 1
        elif layer == "criteria":
            m["criteria.self_s"] += self_s
            if name == "criteria.breakeven_price":
                if "error" in attrs:
                    m["criteria.no_root"] += attrs["error"] == "NoSignChangeError"
                else:
                    m["criteria.roots"] += 1
        elif layer == "montecarlo":
            draws = attrs.get("draws", 0)
            m["montecarlo.draws"] += draws
            m["montecarlo.blocks"] += -(-draws // block_size)
            m["gamble.factor_table_len"] += attrs.get("table", 0)
            if name == "montecarlo.draw_waiting_times":
                m["montecarlo.draw_s"] += dur
                draw_draws += draws
            else:
                m["montecarlo.reduce_s"] += self_s
        elif layer == "cli":
            m["cli.ops"] += 1
            m["cli.self_s"] += self_s
            m["cli.stdout_bytes"] += attrs.get("stdout_bytes", 0)

    m["series.terms_per_result"] = m["series.terms"] / results if results else 0.0
    m["series.terms_per_s"] = m["series.terms"] / result_s if result_s else 0.0
    m["criteria.series_evals_per_root"] = (root_evals / m["criteria.roots"]
                                           if m["criteria.roots"] else 0.0)
    m["montecarlo.draws_per_s"] = draw_draws / m["montecarlo.draw_s"] \
        if m["montecarlo.draw_s"] else 0.0
    m["cli.self_ms"] = 1e3 * m.pop("cli.self_s") / m["cli.ops"] if m["cli.ops"] else 0.0
    return m


def alloc_peak_mb(spans: List[list]) -> float:
    peaks = [(s[4] or {}).get("alloc", 0) for s in spans]
    return max(peaks, default=0) / 2 ** 20


def median_metrics(per_pass: List[dict]) -> dict:
    """Median of each metric over passes (counts repeat exactly, so stay exact)."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
