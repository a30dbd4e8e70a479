"""Command-line interface.

Four subcommands: ``evaluate`` (all decision criteria for one state),
``breakeven`` (prices solving the time criterion, plus growth-vs-wealth
data for plot insets), ``simulate`` (Monte Carlo estimates), and
``menger`` (price analysis of the unbounded variant).  JSON output is a
stable envelope ``{command, parameters, results, version}`` with sorted
keys; the worker count never appears in it, so runs differing only in
parallelism are byte-identical.  CSV output is a plain data table on
stdout with the same determinism guarantee.

JSON is strict: a result that is not a finite number fails the command
instead of printing ``Infinity`` or ``NaN``.

Exit codes: 0 on success; 1 for usage, I/O, or evaluation errors; 2
when the evaluated state has no defined recommendation, a simulated
trajectory went bankrupt, or a sampled return was nonpositive.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from typing import Iterable, Optional

import click

from . import __version__
from .criteria import (
    Recommendation,
    breakeven_curve,
    breakeven_price,
    evaluate as evaluate_state,
    menger_partial_sum_price,
    recommendation_for,
    wealth_grid,
)
from .gamble import (
    BernoulliOriginal,
    Capped,
    GambleSpec,
    Menger,
    PayoutRule,
    PlayerState,
    load_table,
)
from .series import (
    SeriesResult,
    TruncationInconclusiveError,
    TruncationPolicy,
    bernoulli_literal_lhs,
    expected_payout,
    time_average_growth,
)

#: Default wealth grid of the break-even table: four decades.
_GRID_DEFAULTS = (10.0, 10_000.0, 4)

#: Wealth fractions probed by ``menger`` with the literal criterion.
_LITERAL_PRICE_FRACTIONS = (0.5, 0.9, 0.999, 1.0)


def parse_payout(token: str) -> PayoutRule:
    """Build a payout rule from a CLI token.

    Accepted forms: ``bernoulli``, ``menger``, ``capped:<amount>``,
    ``table:<csv-path>``.
    """
    text = token.strip()
    head, sep, arg = text.partition(":")
    kind = head.lower()
    if kind == "bernoulli" and not sep:
        return BernoulliOriginal()
    if kind == "menger" and not sep:
        return Menger()
    if kind == "capped" and sep:
        try:
            cap = float(arg)
        except ValueError:
            raise ValueError(f"capped payout needs a numeric limit, got {arg!r}") from None
        return Capped(max_payout=cap)
    if kind == "table" and sep and arg:
        return load_table(arg)
    raise ValueError(
        f"unknown payout rule {token!r}; expected bernoulli, menger, "
        f"capped:<amount>, or table:<csv-path>"
    )


class _PayoutParam(click.ParamType):
    name = "payout"

    def convert(self, value, param, ctx):
        if isinstance(value, str):
            try:
                return parse_payout(value)
            except (ValueError, OSError) as exc:
                self.fail(str(exc), param, ctx)
        return value


_PAYOUT = _PayoutParam()


def _gamble_options(f):
    f = click.option(
        "--geom-p",
        type=float,
        default=0.5,
        show_default=True,
        help="Per-round stopping probability of the waiting-time law.",
    )(f)
    f = click.option(
        "--payout",
        "payout_rule",
        type=_PAYOUT,
        default="bernoulli",
        show_default=True,
        help="Payout rule: bernoulli, menger, capped:<amount>, table:<csv-path>.",
    )(f)
    return f


def _policy_options(f):
    f = click.option(
        "--max-terms",
        type=int,
        default=10_000,
        show_default=True,
        help="Hard cap on series terms before giving up.",
    )(f)
    f = click.option(
        "--tol",
        type=float,
        default=1e-10,
        show_default=True,
        help="Tail bound a series must reach to count as converged.",
    )(f)
    return f


def _format_option(f):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv"]),
        default="json",
        show_default=True,
        help="Output format.",
    )(f)


def _series_dict(result: SeriesResult) -> dict:
    out = {
        "classification": result.classification.value,
        "terms_used": result.terms_used,
    }
    if result.value is not None:
        out["value"] = result.value
    if result.tail_bound is not None:
        out["tail_bound"] = result.tail_bound
    if result.reason is not None:
        out["reason"] = result.reason.value
    return out


def _r(x) -> str:
    """Shortest round-tripping decimal text for a float CSV cell."""
    return repr(float(x))


def _series_row(label: str, result: SeriesResult) -> list:
    return [
        label,
        result.classification.value,
        "" if result.value is None else _r(result.value),
        "" if result.tail_bound is None else _r(result.tail_bound),
        str(result.terms_used),
        "" if result.reason is None else result.reason.value,
    ]


def _frequency_pairs(stats) -> list:
    """Census as ``[n, count]`` pairs in ascending ``n`` (JSON-stable)."""
    return [[n, stats.frequencies[n]] for n in sorted(stats.frequencies)]


def _emit(fmt: str, command: str, parameters: dict, results: dict, rows) -> None:
    if fmt == "json":
        envelope = {
            "command": command,
            "parameters": parameters,
            "results": results,
            "version": __version__,
        }
        click.echo(json.dumps(envelope, sort_keys=True, allow_nan=False))
    else:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        click.echo(buffer.getvalue(), nl=False)


@click.group()
@click.version_option(version=__version__, prog_name="petersburg")
def cli() -> None:
    """Growth-rate analysis of lotteries with heavy-tailed payouts."""


@cli.command("evaluate")
@click.option("--wealth", type=float, required=True, help="Player wealth before the round.")
@click.option("--price", type=float, default=0.0, show_default=True, help="Ticket price.")
@click.option(
    "--utility",
    type=click.Choice(["log", "sqrt"]),
    default=None,
    help="Also report the expected change of this utility.",
)
@_gamble_options
@_policy_options
@_format_option
def evaluate_cmd(wealth, price, utility, payout_rule, geom_p, tol, max_terms, fmt):
    """Evaluate every decision criterion for one state and gamble."""
    spec = GambleSpec(payout_rule=payout_rule, probability_parameter=geom_p)
    state = PlayerState(wealth=wealth, ticket_price=price)
    policy = TruncationPolicy(tolerance=tol, max_terms=max_terms)
    report = evaluate_state(state, spec, policy, utility)

    results = {
        "naive_expected_payout": _series_dict(report.naive_expected_payout),
        "ensemble_growth": _series_dict(report.ensemble_growth),
        "time_growth": _series_dict(report.time_growth),
        "bernoulli_literal": _series_dict(report.bernoulli_literal),
        "recommendation": report.recommendation.value,
    }
    rows = [
        ["quantity", "classification", "value", "tail_bound", "terms_used", "reason"],
        _series_row("naive_expected_payout", report.naive_expected_payout),
        _series_row("ensemble_growth", report.ensemble_growth),
        _series_row("time_growth", report.time_growth),
        _series_row("bernoulli_literal", report.bernoulli_literal),
    ]
    if report.utility_change is not None:
        results["utility_change"] = _series_dict(report.utility_change)
        rows.append(_series_row("utility_change", report.utility_change))
    rows.append(["recommendation", report.recommendation.value, "", "", "", ""])

    parameters = {
        "wealth": wealth,
        "price": price,
        "payout": payout_rule.token,
        "geom_p": geom_p,
        "tol": tol,
        "max_terms": max_terms,
    }
    if utility is not None:
        parameters["utility"] = utility
    _emit(fmt, "evaluate", parameters, results, rows)
    if report.recommendation is Recommendation.UNDEFINED:
        raise click.exceptions.Exit(2)


@cli.command("breakeven")
@click.option("--wealth", type=float, default=None,
              help="Solve a single wealth level instead of the grid.")
@click.option("--wmin", type=float, default=None,
              help=f"Smallest grid wealth.  [default: {_GRID_DEFAULTS[0]:g}]")
@click.option("--wmax", type=float, default=None,
              help=f"Largest grid wealth.  [default: {_GRID_DEFAULTS[1]:g}]")
@click.option("--points", type=int, default=None,
              help=f"Log-spaced grid points.  [default: {_GRID_DEFAULTS[2]}]")
@click.option(
    "--inset",
    is_flag=True,
    help="Emit time-average growth at a fixed --price over the wealth "
         "grid instead of break-even prices.",
)
@click.option("--price", type=float, default=2.0, show_default=True,
              help="Ticket price for --inset growth data.")
@click.option(
    "--price-tol",
    type=float,
    default=1e-10,
    show_default=True,
    help="Absolute tolerance on each solved price.",
)
@_gamble_options
@_policy_options
@_format_option
def breakeven_cmd(wealth, wmin, wmax, points, inset, price, price_tol,
                  payout_rule, geom_p, tol, max_terms, fmt):
    """Break-even ticket prices over a wealth grid (or one wealth).

    By default solves the time criterion for zero growth on a
    log-spaced wealth grid; ``--wealth`` solves a single level, and
    ``--inset`` tabulates the growth rate itself at a fixed price,
    the data behind the classic decay-to-ruin plot inset.
    """
    grid_flags = (wmin, wmax, points)
    if wealth is not None and (inset or any(v is not None for v in grid_flags)):
        raise click.UsageError("--wealth solves one point; drop the grid/--inset flags")
    spec = GambleSpec(payout_rule=payout_rule, probability_parameter=geom_p)
    policy = TruncationPolicy(tolerance=tol, max_terms=max_terms)

    parameters = {
        "payout": payout_rule.token,
        "geom_p": geom_p,
        "tol": tol,
        "max_terms": max_terms,
    }

    if wealth is not None:
        parameters["wealth"] = wealth
        parameters["price_tol"] = price_tol
        solved = breakeven_price(wealth, spec, policy, price_tol)
        results = {"wealth": wealth, "price": solved}
        rows = [["wealth", "breakeven_price"], [_r(wealth), _r(solved)]]
        _emit(fmt, "breakeven", parameters, results, rows)
        return

    w_min = _GRID_DEFAULTS[0] if wmin is None else wmin
    w_max = _GRID_DEFAULTS[1] if wmax is None else wmax
    num_points = _GRID_DEFAULTS[2] if points is None else points
    parameters.update({"wmin": w_min, "wmax": w_max, "points": num_points})

    if inset:
        parameters["price"] = price
        data = []
        failures = []
        rows = [["wealth", "g_bar"]]
        for w in wealth_grid(w_min, w_max, num_points):
            result = time_average_growth(PlayerState(w, price), spec, policy)
            if result.is_converged:
                data.append({"wealth": w, "growth_rate": result.value})
                rows.append([_r(w), _r(result.value)])
            else:
                failures.append({"wealth": w, "error": result.classification.value})
                rows.append([_r(w), ""])
        results = {"price": price, "inset": data, "failures": failures}
        if failures:
            click.echo(f"warning: no defined growth rate at {len(failures)} "
                       f"grid point(s)", err=True)
        _emit(fmt, "breakeven", parameters, results, rows)
        return

    parameters["price_tol"] = price_tol
    curve = breakeven_curve(w_min, w_max, num_points, spec, policy, price_tol)
    results = {
        "curve": [{"wealth": w, "price": p} for w, p in curve.points],
        "failures": [{"wealth": w, "error": msg} for w, msg in curve.failures],
        "solver_tolerance": curve.solver_tolerance,
    }
    # points and failures each ascend in wealth, so merged they are the grid
    cells = sorted([(w, _r(p)) for w, p in curve.points]
                   + [(w, "") for w, _ in curve.failures])
    rows = [["wealth", "breakeven_price"]] + [[_r(w), cell] for w, cell in cells]
    if curve.failures:
        click.echo(f"warning: no break-even price at {len(curve.failures)} "
                   f"grid point(s)", err=True)
    _emit(fmt, "breakeven", parameters, results, rows)


@cli.command("simulate")
@click.option("--wealth", type=float, required=True, help="Player wealth before each round.")
@click.option("--price", type=float, default=0.0, show_default=True, help="Ticket price.")
@click.option(
    "--mode",
    type=click.Choice(["time", "ensemble", "subinterval"]),
    default="time",
    show_default=True,
    help="Which growth estimate to run.",
)
@click.option("--rounds", type=int, default=100_000, show_default=True,
              help="Trajectory length (time mode; default q for subinterval mode).")
@click.option("--samples", type=int, default=100_000, show_default=True,
              help="Independent players (ensemble mode).")
@click.option("--subintervals", type=int, default=None,
              help="Slices per time unit, q (subinterval mode; default: --rounds).")
@click.option("--seed", type=int, default=0, show_default=True, help="Experiment seed.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Threads; never changes the output.")
@click.option("--wealth-path-out", type=click.Path(dir_okay=False, writable=True),
              default=None, help="Write the trajectory's wealth path as CSV (time mode).")
@_gamble_options
@_policy_options
@_format_option
def simulate_cmd(wealth, price, mode, rounds, samples, subintervals, seed, workers,
                 wealth_path_out, payout_rule, geom_p, tol, max_terms, fmt):
    """Monte Carlo estimates of the growth rates."""
    # the sampler, and numpy with it, loads only for the command using it
    from .montecarlo import (
        NonpositiveReturnError,
        SimulationConfig,
        ensemble_average_estimate,
        subinterval_estimate,
        time_average_census,
        time_average_estimate,
        trajectory_blocks,
    )

    spec = GambleSpec(payout_rule=payout_rule, probability_parameter=geom_p)
    state = PlayerState(wealth=wealth, ticket_price=price)
    policy = TruncationPolicy(tolerance=tol, max_terms=max_terms)
    config = SimulationConfig(seed=seed, workers=workers)
    if wealth_path_out is not None and mode != "time":
        raise click.UsageError("--wealth-path-out requires --mode time")

    parameters = {
        "wealth": wealth,
        "price": price,
        "payout": payout_rule.token,
        "geom_p": geom_p,
        "tol": tol,
        "max_terms": max_terms,
        "mode": mode,
        "seed": seed,
    }

    def census_rows(results: dict, stats) -> list:
        rows = [["field", "value"]]
        for key in sorted(results):
            if key != "frequencies":
                value = results[key]
                rows.append([key, _r(value) if isinstance(value, float) else str(value)])
        rows += [[f"k_{n}", str(c)] for n, c in _frequency_pairs(stats)]
        return rows

    if mode == "ensemble":
        parameters["samples"] = samples
        stats = ensemble_average_estimate(state, spec, samples, config)
        results = {
            "mode": "ensemble",
            "mean_factor_estimate": stats.estimate,
            "stderr": stats.stderr,
            "samples": stats.count,
            "max_waiting_time": stats.max_n,
            "frequencies": _frequency_pairs(stats),
        }
        analytic = expected_payout(spec, policy, wealth=wealth)
        if analytic.is_converged:
            results["analytic_mean_factor"] = (wealth - price + analytic.value) / wealth
        _emit(fmt, "simulate", parameters, results, census_rows(results, stats))
        return

    if mode == "subinterval":
        q = rounds if subintervals is None else subintervals
        parameters["subintervals"] = q
        try:
            stats = subinterval_estimate(state, spec, q, config)
        except NonpositiveReturnError as exc:
            results = {"mode": "subinterval", "error": "NonpositiveReturn",
                       "detail": str(exc)}
            rows = [["field", "value"], ["mode", "subinterval"],
                    ["error", "NonpositiveReturn"], ["detail", str(exc)]]
            _emit(fmt, "simulate", parameters, results, rows)
            raise click.exceptions.Exit(2)
        results = {
            "mode": "subinterval",
            "per_round_rate_estimate": stats.estimate,
            "subintervals": stats.count,
            "max_waiting_time": stats.max_n,
            "frequencies": _frequency_pairs(stats),
        }
        if stats.count >= 2:
            results["stderr"] = stats.stderr
        _emit(fmt, "simulate", parameters, results, census_rows(results, stats))
        return

    parameters["rounds"] = rounds
    # the analytic rate comes first and cheap; a rate the series cannot
    # certify is left out, and the run is still reported
    try:
        analytic = time_average_growth(state, spec, policy)
    except TruncationInconclusiveError as exc:
        analytic = exc
    run = time_average_census(state, spec, rounds, config)
    if wealth_path_out is not None:
        _write_wealth_path(trajectory_blocks(state, spec, rounds, config), wealth_path_out)

    if run.bankrupt_at is not None:
        results = {
            "mode": "time",
            "bankrupt_at": run.bankrupt_at,
            "bankrupt_wealth": run.bankrupt_wealth,
        }
        rows = [["field", "value"],
                ["mode", "time"],
                ["bankrupt_at", str(run.bankrupt_at)],
                ["bankrupt_wealth",
                 "" if run.bankrupt_wealth is None else _r(run.bankrupt_wealth)]]
        _emit(fmt, "simulate", parameters, results, rows)
        raise click.exceptions.Exit(2)

    stats = time_average_estimate(run)
    results = {
        "mode": "time",
        "growth_rate_estimate": stats.estimate,
        "stderr": stats.stderr,
        "rounds": stats.count,
        "max_waiting_time": stats.max_n,
        "frequencies": _frequency_pairs(stats),
    }
    if isinstance(analytic, TruncationInconclusiveError):
        click.echo(f"note: analytic_growth_rate omitted: {analytic}", err=True)
    elif analytic.is_converged:
        results["analytic_growth_rate"] = analytic.value
    _emit(fmt, "simulate", parameters, results, census_rows(results, stats))


_PATH_SLICE = 1 << 13


def _wealth_cell(log_wealth: float) -> str:
    try:
        return repr(math.exp(log_wealth))
    except OverflowError:
        return "inf"


def _wealth_cells(log_wealth) -> Iterable[str]:
    """``_wealth_cell`` of each log wealth of a slice, at C speed where it can.

    ``math.exp`` is finite up to 709 and overflows from 710 on, so only a
    slice reaching between the two takes the per-cell ``try``.  It stays
    the scalar function: numpy's vectorised ``exp`` may round the last
    digit differently.
    """
    if log_wealth.max() <= 709.0:
        return map(repr, map(math.exp, log_wealth.tolist()))
    if log_wealth.min() >= 710.0:
        return itertools.repeat("inf", len(log_wealth))
    return map(_wealth_cell, log_wealth.tolist())


def _write_wealth_path(blocks, path: str) -> None:
    """Write the ``round,wealth`` CSV of a path, a slice of rows at a time.

    ``blocks`` yields ``(waiting_times, log_wealth)`` as
    :func:`trajectory_blocks` does.  Each slice of up to 2**13 rows is
    formatted by one ``%`` operation and written at once, so memory holds
    one slice's cells, not the path's.
    """
    with open(path, "w", newline="") as handle:
        handle.write("round,wealth\n")
        lo = 0
        for _, log_wealth in blocks:
            for start in range(0, len(log_wealth), _PATH_SLICE):
                part = log_wealth[start:start + _PATH_SLICE]
                fields = [None] * (2 * len(part))
                fields[::2] = range(lo, lo + len(part))
                fields[1::2] = _wealth_cells(part)
                handle.write("%d,%s\n" * len(part) % tuple(fields))
                lo += len(part)


@cli.command("menger")
@click.option("--wealth", type=float, required=True, help="Player wealth.")
@click.option(
    "--nmax",
    "nmax_list",
    type=int,
    multiple=True,
    default=(1, 5, 10, 30),
    show_default=True,
    help="Truncation lengths to tabulate (repeatable).",
)
@_format_option
def menger_cmd(wealth, nmax_list, fmt):
    """Price analysis of the unbounded-variant gamble.

    Tabulates the stake the literal historical criterion endorses for
    truncations of the gamble -- it approaches the player's whole
    wealth geometrically fast, so no finite truncation argument rescues
    a bounded price -- then classifies the untruncated criterion at
    prices up to the whole wealth, and reports what the time criterion
    says.
    """
    spec = GambleSpec(payout_rule=Menger())
    truncations = [
        {"n_max": n, "price": menger_partial_sum_price(wealth, n)}
        for n in nmax_list
    ]
    literal_grid = []
    for fraction in _LITERAL_PRICE_FRACTIONS:
        ticket = wealth * fraction
        outcome = bernoulli_literal_lhs(PlayerState(wealth, ticket), spec)
        literal_grid.append({
            "price": ticket,
            "classification": outcome.classification.value,
        })
    time_rec = recommendation_for(time_average_growth(PlayerState(wealth, 0.0), spec))
    results = {
        "wealth": wealth,
        "truncated_prices": truncations,
        "literal_price_grid": literal_grid,
        "time_recommendation": time_rec.value,
    }
    rows = [["n_max", "price"]]
    rows += [[str(row["n_max"]), _r(row["price"])] for row in truncations]
    parameters = {"wealth": wealth, "nmax": list(nmax_list)}
    _emit(fmt, "menger", parameters, results, rows)


def main(argv: Optional[list] = None) -> int:
    """Console entry point with the documented exit codes."""
    try:
        status = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except (ValueError, OSError, ArithmeticError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return status if isinstance(status, int) else 0


if __name__ == "__main__":
    sys.exit(main())
