"""Command-line interface.

Four subcommands: ``evaluate`` (all decision criteria for one state),
``breakeven`` (prices solving the time criterion, plus growth-vs-wealth
data for plot insets), ``simulate`` (Monte Carlo estimates), and
``menger`` (price analysis of the unbounded variant).  JSON output is a
stable envelope ``{command, parameters, results, version}`` with sorted
keys.  CSV output is a plain data table on stdout.  A seeded run prints
the same bytes every time; ``simulate --workers`` is accepted for older
command lines and has no effect.

``simulate --wealth-path-out`` also writes the run's wealth path as a
``round,wealth`` CSV file; :mod:`._shortest` writes its bytes, and loads
only for a run that writes one.

Output is strict in either format: a value that is not a finite number
fails any command, naming its row (see :func:`_emit`), instead of
printing ``Infinity``, ``inf`` or ``NaN``.

Exit codes: 0 on success; 1 for usage, I/O, or evaluation errors; 2
when the evaluated state has no defined recommendation, a simulated
trajectory went bankrupt, or a sampled return was nonpositive.

Options are declared once, on ``argparse`` parsers built at import.  A
command line whose tokens are each an exact option of its command or the
value after one, whose values all pass their ``type`` and ``choices``,
and that names every required option, is parsed into the namespace
argparse would give by one lookup per token.  Any other goes to argparse
unchanged: ``--help``, ``--version``, ``--opt=value``, an unknown or
missing token, a refused value, a value ``--``, which is never one.  So a
usage error prints argparse's ``Usage:`` line and its error on stderr.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import io
import json
import math
import os
import stat
import sys
from typing import Optional

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
    _mean_factor,
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

#: Truncation lengths ``menger`` tabulates when no ``--nmax`` is given.
_NMAX_DEFAULT = (1, 5, 10, 30)


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


def _payout_arg(token: str) -> PayoutRule:
    """:func:`parse_payout` for the parser, keeping its error message."""
    try:
        return parse_payout(token)
    except (ValueError, OSError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _series_dict(result: SeriesResult) -> dict:
    out = {"classification": result.classification.value, "terms_used": result.terms_used}
    if result.value is not None:
        out["value"] = result.value
    if result.tail_bound is not None:
        out["tail_bound"] = result.tail_bound
    if result.reason is not None:
        out["reason"] = result.reason.value
    return out


def _cell(value) -> str:
    """A CSV cell: a finite float as its shortest round-tripping text, ``None`` empty."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("not a finite number")
        return repr(float(value))
    return "" if value is None else str(value)


def _check_finite(rows) -> None:
    """Raise a ``ValueError`` naming each cell past the header row that holds a
    float that is not finite: by its row's label, else by column and first cell."""
    header, *body = rows
    named = []
    for row in body:
        for column, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                label = (row[0] if isinstance(row[0], str)
                         else f"{column} at {header[0]} {row[0]}")
                named.append(f"{label} = {value}")
    if named:
        raise ValueError(f"not a finite number: {', '.join(named)}")


def _emit(fmt: str, command: str, parameters: dict, results: dict, rows) -> None:
    """Print the envelope, or ``rows`` (header first, the values of ``results``)
    as CSV; a value that is not finite fails either format by :func:`_check_finite`."""
    try:
        if fmt == "json":
            envelope = {"command": command, "parameters": parameters, "results": results,
                        "version": __version__}
            text = json.dumps(envelope, sort_keys=True, allow_nan=False) + "\n"
        else:
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(map(_cell, row) for row in rows)
            text = buffer.getvalue()
    except ValueError:
        _check_finite(rows)
        raise
    sys.stdout.write(text)


def _series_setup(payout_rule, geom_p, tol, max_terms, wealth=None, price=None):
    """The gamble, the player state (given a wealth), the series policy
    and the envelope parameters of a command, validated in that order."""
    spec = GambleSpec(payout_rule=payout_rule, probability_parameter=geom_p)
    state = None if wealth is None else PlayerState(wealth=wealth, ticket_price=price)
    policy = TruncationPolicy(tolerance=tol, max_terms=max_terms)
    parameters = {"payout": payout_rule.token, "geom_p": geom_p, "tol": tol,
                  "max_terms": max_terms}
    if state is not None:
        parameters.update(wealth=wealth, price=price)
    return spec, state, policy, parameters


def evaluate_cmd(wealth, price, utility, payout_rule, geom_p, tol, max_terms, fmt):
    """Evaluate every decision criterion for one state and gamble."""
    spec, state, policy, parameters = _series_setup(payout_rule, geom_p, tol, max_terms,
                                                    wealth, price)
    report = evaluate_state(state, spec, policy, utility)

    series = [
        ("naive_expected_payout", report.naive_expected_payout),
        ("ensemble_growth", report.ensemble_growth),
        ("time_growth", report.time_growth),
        ("bernoulli_literal", report.bernoulli_literal),
    ]
    if report.utility_change is not None:
        series.append(("utility_change", report.utility_change))
    results = {label: _series_dict(result) for label, result in series}
    results["recommendation"] = report.recommendation.value
    columns = ("classification", "value", "tail_bound", "terms_used", "reason")
    rows = [("quantity", *columns)]
    rows += [(label, *map(results[label].get, columns)) for label, _ in series]
    rows.append(("recommendation", report.recommendation.value) + (None,) * 4)

    if utility is not None:
        parameters["utility"] = utility
    _emit(fmt, "evaluate", parameters, results, rows)
    if report.recommendation is Recommendation.UNDEFINED:
        return 2


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
        raise UsageError("--wealth solves one point; drop the grid/--inset flags")
    spec, _, policy, parameters = _series_setup(payout_rule, geom_p, tol, max_terms)

    if wealth is not None:
        parameters["wealth"] = wealth
        parameters["price_tol"] = price_tol
        solved = breakeven_price(wealth, spec, policy, price_tol)
        results = {"wealth": wealth, "price": solved}
        rows = [("wealth", "breakeven_price"), (wealth, solved)]
        _emit(fmt, "breakeven", parameters, results, rows)
        return

    w_min = _GRID_DEFAULTS[0] if wmin is None else wmin
    w_max = _GRID_DEFAULTS[1] if wmax is None else wmax
    num_points = _GRID_DEFAULTS[2] if points is None else points
    parameters.update({"wmin": w_min, "wmax": w_max, "points": num_points})

    # each grid point is a cell (wealth, value or None, reason or None)
    if inset:
        parameters["price"] = price
        cells = []
        for w in wealth_grid(w_min, w_max, num_points):
            try:
                result = time_average_growth(PlayerState(w, price), spec, policy)
            except TruncationInconclusiveError as exc:
                cells.append((w, None, str(exc)))
            else:
                reason = None if result.is_converged else result.classification.value
                cells.append((w, result.value, reason))
        results = {"price": price}
        data, column, key = "inset", "g_bar", "growth_rate"
    else:
        parameters["price_tol"] = price_tol
        curve = breakeven_curve(w_min, w_max, num_points, spec, policy, price_tol)
        # points and failures each ascend in wealth, so merged they are the grid
        cells = sorted([*((w, p, None) for w, p in curve.points),
                        *((w, None, msg) for w, msg in curve.failures)], key=lambda cell: cell[0])
        results = {"solver_tolerance": curve.solver_tolerance}
        data, column, key = "curve", "breakeven_price", "price"
    results[data] = [{"wealth": w, key: v} for w, v, reason in cells if reason is None]
    results["failures"] = [{"wealth": w, "error": reason} for w, _, reason in cells
                          if reason is not None]
    rows = [("wealth", column)] + [(w, v) for w, v, _ in cells]
    reasons = collections.Counter(failure["error"] for failure in results["failures"])
    for reason, count in reasons.items():  # in grid order of first occurrence
        print(f"warning: {count} grid point(s): {reason}", file=sys.stderr)
    _emit(fmt, "breakeven", parameters, results, rows)


def simulate_cmd(wealth, price, mode, rounds, samples, subintervals, seed, workers,
                 wealth_path_out, payout_rule, geom_p, tol, max_terms, fmt):
    """Monte Carlo estimates of the growth rates."""
    # the sampler, and numpy with it, loads only for the command using it
    from .montecarlo import (
        NonpositiveReturnError,
        _check_seed,
        ensemble_average_estimate,
        subinterval_estimate,
        time_average_census,
        time_average_estimate,
    )

    spec, state, policy, parameters = _series_setup(payout_rule, geom_p, tol, max_terms,
                                                    wealth, price)
    _check_seed(seed)
    if workers < 1:  # checked, then ignored: the sampler runs on one thread
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if wealth_path_out is not None and mode != "time":
        raise UsageError("--wealth-path-out requires --mode time")
    parameters.update(mode=mode, seed=seed)

    def emit(results: dict) -> None:
        _emit(fmt, "simulate", parameters, results, _field_rows(results))

    known, notes = {}, []  # analytic values by name, and notes on those left out

    def analytic(name: str, series, value) -> None:
        """Give ``value(result.value)`` as ``name`` where ``series()`` converges;
        a series that cannot certify its value leaves a note instead."""
        try:
            result = series()
        except TruncationInconclusiveError as exc:
            notes.append(f"note: {name} omitted: {exc}")
        else:
            if result.is_converged:
                known[name] = value(result.value)

    def report(stats, estimate: str, count: str) -> None:
        """Print an estimate beside the analytic values; the notes follow it."""
        emit(_estimate_results(stats, mode, estimate, count, **known))
        for note in notes:
            print(note, file=sys.stderr)

    if mode == "ensemble":
        parameters["samples"] = samples
        stats = ensemble_average_estimate(state, spec, samples, seed)
        analytic("analytic_mean_factor", lambda: expected_payout(spec, policy, wealth=wealth),
                 lambda mean: _mean_factor(wealth, price, mean))
        report(stats, "mean_factor_estimate", "samples")
        return

    if mode == "subinterval":
        q = rounds if subintervals is None else subintervals
        parameters["subintervals"] = q
        try:
            stats = subinterval_estimate(state, spec, q, seed)
        except NonpositiveReturnError as exc:
            emit({"mode": "subinterval", "error": "NonpositiveReturn", "detail": str(exc)})
            return 2
        report(stats, "per_round_rate_estimate", "subintervals")
        return

    parameters["rounds"] = rounds
    # the analytic rate comes first and cheap
    analytic("analytic_growth_rate", lambda: time_average_growth(state, spec, policy), float)
    # the path file opens before any draw: a path that cannot be written
    # fails the command before the run is sampled
    path_file = (contextlib.nullcontext() if wealth_path_out is None
                 else open(wealth_path_out, "wb"))
    with path_file:
        try:
            path = None
            if wealth_path_out is not None:
                from ._shortest import writer

                path = writer(path_file)
            run = time_average_census(state, spec, rounds, seed, path=path)
            if run.bankrupt_at is None:
                report(time_average_estimate(run), "growth_rate_estimate", "rounds")
                return
        except BaseException:
            # a run that fails or is refused, or whose estimate is refused,
            # leaves no path file; a bankrupt run keeps its path
            if wealth_path_out is not None:
                _remove_opened(path_file, wealth_path_out)
            raise

    emit({"mode": "time", "bankrupt_at": run.bankrupt_at,
          "bankrupt_wealth": run.bankrupt_wealth})
    return 2


def _remove_opened(file, path: str) -> None:
    """Close ``file`` and delete ``path`` if it names that very file, as a
    regular file: a device, a FIFO or a link the user named stays.  A
    failure to delete is not reported, so the error that led here is."""
    opened = os.fstat(file.fileno())
    file.close()
    with contextlib.suppress(OSError):
        named = os.lstat(path)
        if stat.S_ISREG(named.st_mode) and os.path.samestat(named, opened):
            os.remove(path)


def _estimate_results(stats, mode: str, estimate: str, count: str, **known) -> dict:
    """The ``results`` of a ``simulate`` estimate from its ``SampleStats``, in key order.

    ``estimate`` and ``count`` name the mode's estimate and sample count,
    and ``known`` holds any analytic value by name.  ``stderr`` is given
    from a count of 2 up: one draw carries no spread.
    """
    results = {"mode": mode, estimate: stats.estimate, count: stats.count,
               "max_waiting_time": stats.max_n,
               "frequencies": sorted(stats.frequencies.items()), **known}
    if stats.count >= 2:
        results["stderr"] = stats.stderr
    return dict(sorted(results.items()))


def _field_rows(results: dict) -> list:
    """The ``field,value`` CSV rows of a ``simulate`` envelope's ``results``.

    Fields come in the dict's order; the census follows as ``k_<n>`` rows.
    """
    rows = [("field", "value")]
    rows += [(key, value) for key, value in results.items() if key != "frequencies"]
    rows += [(f"k_{n}", c) for n, c in results.get("frequencies", ())]
    return rows


def menger_cmd(wealth, nmax_list, fmt):
    """Price analysis of the unbounded-variant gamble.

    Tabulates the stake the literal historical criterion endorses for
    truncations of the gamble -- it approaches the player's whole
    wealth geometrically fast, so no finite truncation argument rescues
    a bounded price -- then classifies the untruncated criterion at
    prices up to the whole wealth, and reports what the time criterion
    says.
    """
    nmax_list = nmax_list or _NMAX_DEFAULT
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
    rows = [("n_max", "price")] + [(row["n_max"], row["price"]) for row in truncations]
    parameters = {"wealth": wealth, "nmax": list(nmax_list)}
    _emit(fmt, "menger", parameters, results, rows)


# ====== Parsers ======


class UsageError(Exception):
    """A command line that the parser or a command rejects; exit status 1."""


class _HelpFormatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


class _Parser(argparse.ArgumentParser):
    """An ``argparse`` parser that raises :class:`UsageError` on bad input.

    An option that takes a value takes the next token, whatever it looks
    like, so ``--price -1e-3`` and ``--wealth -inf`` reach the library's
    own checks; plain argparse reads such a value as an unknown option.  A
    ``--`` is never a value: argparse reports the value as missing.

    A command line that argparse would accept is parsed by :meth:`_accept`
    instead; any other goes to argparse.  Both look options up in argparse's
    own ``_option_string_actions``.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(formatter_class=_HelpFormatter, allow_abbrev=False, **kwargs)

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        accepted = self._accept(args) if namespace is None else None
        return super().parse_args(args, namespace) if accepted is None else accepted

    def _accept(self, tokens) -> Optional[argparse.Namespace]:
        """The namespace argparse gives for ``tokens``, built without it, or
        ``None`` to leave ``tokens`` to argparse.

        ``tokens`` are accepted when each is an exact option of the parser
        whose action is ``store_true``, or ``store`` or ``append`` with no
        ``nargs``, or the value following a valued one, each value's
        ``type`` call succeeds and its choice is valid, and every required
        option is given.  The rest is filled as argparse fills it: defaults,
        a string default through ``type``, then the ``set_defaults`` values.
        A value ``--`` is left to argparse, which refuses it.
        """
        given = {}
        tokens = iter(tokens)
        try:
            for token in tokens:
                action = self._option_string_actions.get(token)
                kind = type(action)
                if kind is argparse._StoreTrueAction:
                    given[action] = action.const
                    continue
                if kind not in (argparse._StoreAction, argparse._AppendAction) \
                        or action.nargs is not None:
                    return None
                value = next(tokens, "--")
                if value == "--":
                    return None
                if action.type is not None:
                    value = action.type(value)
                if action.choices is not None and value not in action.choices:
                    return None
                if kind is argparse._AppendAction:
                    given.setdefault(action, list(action.default or ())).append(value)
                else:
                    given[action] = value
            values = {}
            for action in self._actions:
                if action in given:
                    values[action.dest] = given[action]
                elif action.required:
                    return None
                elif action.dest is not argparse.SUPPRESS \
                        and action.default is not argparse.SUPPRESS:
                    default = action.default
                    if isinstance(default, str) and action.type is not None:
                        default = action.type(default)
                    values[action.dest] = default
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None  # a failing type call, which argparse reports
        values.update((dest, value) for dest, value in self._defaults.items()
                      if dest not in values)
        return argparse.Namespace(**values)

    def parse_known_args(self, args=None, namespace=None):
        # a valued option is joined to its value; ``--`` stays apart, not stored as []
        tokens = iter(sys.argv[1:] if args is None else args)
        joined = []
        for token in tokens:
            option, equals, value = token.partition("=")
            action = self._option_string_actions.get(option)
            if action is None or action.nargs == 0 or equals and value != "--":
                joined.append(token)
                continue
            value = value if equals else next(tokens, None)
            if value == "--":
                joined += [option, value]
            else:
                joined.append(option if value is None else f"{option}={value}")
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        raise UsageError(message)


def _format_option(parser: _Parser) -> None:
    parser.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json",
                        help="Output format.  [default: %(default)s]")


def _gamble_options(parser: _Parser) -> None:
    """The gamble, series policy and format options every series command takes."""
    parser.add_argument("--payout", dest="payout_rule", metavar="PAYOUT", type=_payout_arg,
                        default="bernoulli",
                        help="Payout rule: bernoulli, menger, capped:<amount>, "
                             "table:<csv-path>.  [default: %(default)s]")
    parser.add_argument("--geom-p", type=float, default=0.5,
                        help="Per-round stopping probability of the waiting-time law.  "
                             "[default: %(default)s]")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="Tail bound a series must reach to count as converged.  "
                             "[default: %(default)s]")
    parser.add_argument("--max-terms", type=int, default=10_000,
                        help="Hard cap on series terms before giving up.  [default: %(default)s]")
    _format_option(parser)


def _build_parsers():
    """The top-level parser and each command's parser by name."""
    top = _Parser(prog="petersburg", usage="%(prog)s [OPTIONS] COMMAND [ARGS]...",
                  description="Growth-rate analysis of lotteries with heavy-tailed payouts.")
    top.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = top.add_subparsers(title="commands", prog="petersburg", metavar="COMMAND",
                                  required=True)

    def command(name: str, run) -> _Parser:
        parser = commands.add_parser(name, usage="%(prog)s [OPTIONS]",
                                     help=run.__doc__.partition("\n")[0],
                                     description=run.__doc__)
        parser.set_defaults(run=run)
        return parser

    evaluate = command("evaluate", evaluate_cmd)
    evaluate.add_argument("--wealth", type=float, required=True,
                          help="Player wealth before the round.  [required]")
    evaluate.add_argument("--price", type=float, default=0.0,
                          help="Ticket price.  [default: %(default)s]")
    evaluate.add_argument("--utility", choices=["log", "sqrt"],
                          help="Also report the expected change of this utility.")
    _gamble_options(evaluate)

    breakeven = command("breakeven", breakeven_cmd)
    breakeven.add_argument("--wealth", type=float,
                           help="Solve a single wealth level instead of the grid.")
    breakeven.add_argument("--wmin", type=float,
                           help=f"Smallest grid wealth.  [default: {_GRID_DEFAULTS[0]:g}]")
    breakeven.add_argument("--wmax", type=float,
                           help=f"Largest grid wealth.  [default: {_GRID_DEFAULTS[1]:g}]")
    breakeven.add_argument("--points", type=int,
                           help=f"Log-spaced grid points.  [default: {_GRID_DEFAULTS[2]}]")
    breakeven.add_argument("--inset", action="store_true",
                           help="Emit time-average growth at a fixed --price over the wealth "
                                "grid instead of break-even prices.")
    breakeven.add_argument("--price", type=float, default=2.0,
                           help="Ticket price for --inset growth data.  [default: %(default)s]")
    breakeven.add_argument("--price-tol", type=float, default=1e-10,
                           help="Absolute tolerance on each solved price.  "
                                "[default: %(default)s]")
    _gamble_options(breakeven)

    simulate = command("simulate", simulate_cmd)
    simulate.add_argument("--wealth", type=float, required=True,
                          help="Player wealth before each round.  [required]")
    simulate.add_argument("--price", type=float, default=0.0,
                          help="Ticket price.  [default: %(default)s]")
    simulate.add_argument("--mode", choices=["time", "ensemble", "subinterval"], default="time",
                          help="Which growth estimate to run.  [default: %(default)s]")
    simulate.add_argument("--rounds", type=int, default=100_000,
                          help="Trajectory length (time mode; default q for subinterval "
                               "mode).  [default: %(default)s]")
    simulate.add_argument("--samples", type=int, default=100_000,
                          help="Independent players (ensemble mode).  [default: %(default)s]")
    simulate.add_argument("--subintervals", type=int,
                          help="Slices per time unit, q (subinterval mode; default: --rounds).")
    simulate.add_argument("--seed", type=int, default=0,
                          help="Experiment seed.  [default: %(default)s]")
    simulate.add_argument("--workers", type=int, default=1,
                          help="No effect: the sampler runs on one thread, and the output "
                               "never depended on this value.  [default: %(default)s]")
    simulate.add_argument("--wealth-path-out", metavar="PATH",
                          help="Write the trajectory's wealth path as CSV (time mode).")
    _gamble_options(simulate)

    menger = command("menger", menger_cmd)
    menger.add_argument("--wealth", type=float, required=True,
                        help="Player wealth.  [required]")
    menger.add_argument("--nmax", dest="nmax_list", metavar="NMAX", type=int, action="append",
                        help="Truncation lengths to tabulate (repeatable).  "
                             f"[default: {' '.join(map(str, _NMAX_DEFAULT))}]")
    _format_option(menger)

    return top, {"evaluate": evaluate, "breakeven": breakeven, "simulate": simulate,
                 "menger": menger}


_PARSER, _COMMANDS = _build_parsers()


def main(argv: Optional[list] = None) -> int:
    """Console entry point with the documented exit codes."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command line that starts with a command goes to that command's parser
    # alone; the top-level one answers --help, --version and the rest
    parser = _COMMANDS.get(argv[0], _PARSER) if argv else _PARSER
    try:
        args = vars(parser.parse_args(argv if parser is _PARSER else argv[1:]))
        return args.pop("run")(**args) or 0
    except UsageError as exc:
        sys.stderr.write(f"{parser.format_usage()}Try '{parser.prog} --help' for help.\n"
                         f"\nError: {exc}\n")
        return 1
    except SystemExit as exc:  # --help and --version exit once printed
        return exc.code
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
