"""Tests for the command-line interface and its output envelopes."""

import contextlib
import csv
import dataclasses
import hashlib
import importlib.resources
import io
import json
import math
import os
import re
import sys
import tracemalloc
from typing import NamedTuple
from unittest import mock

import jsonschema
import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from petersburg import (
    BernoulliOriginal,
    Capped,
    GambleSpec,
    Menger,
    PlayerState,
    Table,
    simulate_trajectory,
    trajectory_blocks,
)
from petersburg import cli, montecarlo
from petersburg._shortest import _EXP_LARGEST, _SLICE, _wealth_cell, writer as path_writer
from petersburg.cli import main, parse_payout
from petersburg.series import SeriesResult
from mp_oracle import reference
from test_gamble import SMALLEST_SAMPLED_P

#: sha256 of the 10**6-round path file at seed 1, ``--wealth 100 --price 2``
PATH_1E6_SEED_1 = "a10e7a7859835bce9c255edaa312f789f6e44025684538098b1d7695c3385525"

#: ... and at ``--price 60``, whose rows read 0.0 from early on
PATH_1E6_PRICE_60 = "7940307301edcfd9a3ea198a48c2d40d7105263cd06c176aa27dfc7d0b45a08b"
#: ... and of 70 000 rounds at seed 1, ``--price 2``
PATH_70000_SEED_1 = "ac926a70594455e6275b3e30d798fc9edb9cb09533ed9ed68b9a010b84541d84"

BREAKEVEN_100 = 4.36019402978550666497679191764

_schema_text = (
    importlib.resources.files("petersburg")
    .joinpath("schemas/envelope.schema.json")
    .read_text()
)
ENVELOPE_SCHEMA = json.loads(_schema_text)


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout


def run(*args) -> Result:
    """The installed ``petersburg`` entry point on ``args``, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return Result(code, out.getvalue(), err.getvalue())


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def reference_path_file(state, spec, rounds, seed):
    """The wealth-path CSV written row by row: ``math.exp``, ``repr`` and
    ``csv.writer`` for each round of the trajectory."""
    trajectory = simulate_trajectory(state, spec, rounds, seed)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["round", "wealth"])
    for t, log_wealth in enumerate(trajectory.log_wealth_path):
        try:
            plain = math.exp(log_wealth)
        except OverflowError:
            plain = math.inf
        writer.writerow([t, repr(plain)])
    return buffer.getvalue().encode()


def parse_envelope(result):
    envelope = json.loads(result.stdout)
    jsonschema.validate(envelope, ENVELOPE_SCHEMA,
                        cls=jsonschema.Draft202012Validator)
    return envelope


# ====== Payout tokens ======


class TestParsePayout:
    def test_named_rules(self):
        assert isinstance(parse_payout("bernoulli"), BernoulliOriginal)
        assert isinstance(parse_payout("menger"), Menger)

    def test_capped_rule(self):
        rule = parse_payout("capped:1e9")
        assert isinstance(rule, Capped)
        assert rule.max_payout == 1e9

    def test_table_rule(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("p,m\n0.5,1.0\n0.5,4.0\n")
        rule = parse_payout(f"table:{path}")
        assert isinstance(rule, Table)
        assert rule.rows == ((0.5, 1.0), (0.5, 4.0))

    def test_bad_tokens_rejected(self):
        for token in ("roulette", "capped", "capped:", "capped:much", "table:"):
            with pytest.raises(ValueError):
                parse_payout(token)


# ====== evaluate ======


class TestEvaluateCommand:
    def test_json_envelope(self):
        result = run("evaluate", "--wealth", "100", "--price", "2")
        assert result.exit_code == 0
        envelope = parse_envelope(result)
        assert envelope["command"] == "evaluate"
        assert envelope["version"]
        assert envelope["parameters"]["wealth"] == 100.0
        results = envelope["results"]
        assert results["recommendation"] == "Buy"
        assert results["naive_expected_payout"]["classification"] == "DivergesPositive"
        assert results["ensemble_growth"]["classification"] == "DivergesPositive"
        assert results["time_growth"]["classification"] == "Converged"
        assert abs(results["time_growth"]["value"] - 0.023483) < 1e-5
        assert results["bernoulli_literal"]["classification"] == "Converged"

    def test_overpriced_ticket_is_dont_buy(self):
        result = run("evaluate", "--wealth", "100", "--price", "50")
        envelope = parse_envelope(result)
        assert envelope["results"]["recommendation"] == "DontBuy"
        assert result.exit_code == 0

    def test_undefined_recommendation_exits_two(self):
        result = run("evaluate", "--wealth", "5", "--price", "6")
        assert result.exit_code == 2
        envelope = parse_envelope(result)
        assert envelope["results"]["recommendation"] == "Undefined"
        time_entry = envelope["results"]["time_growth"]
        assert time_entry["reason"] == "BankruptcyTerm"

    def test_utility_option(self):
        result = run("evaluate", "--wealth", "100", "--price", "2",
                     "--utility", "log")
        envelope = parse_envelope(result)
        utility = envelope["results"]["utility_change"]
        time_entry = envelope["results"]["time_growth"]
        assert utility["value"] == time_entry["value"]

    def test_capped_payout(self):
        result = run("evaluate", "--wealth", "100", "--price", "2",
                     "--payout", "capped:1e9")
        envelope = parse_envelope(result)
        expected = envelope["results"]["naive_expected_payout"]
        assert expected["classification"] == "Converged"
        assert expected["value"] == 15.0

    def test_capped_payout_at_the_largest_double(self):
        result = run("evaluate", "--wealth", "100", "--price", "2",
                     "--payout", "capped:1.7976931348623157e308")
        assert result.exit_code == 0, result.stderr
        expected = parse_envelope(result)["results"]["naive_expected_payout"]
        assert expected["value"] == 512.0  # 1024 paid outcomes worth 1/2 each

    def test_table_payout(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("p,m\n0.5,1.0\n0.5,4.0\n")
        result = run("evaluate", "--wealth", "10", "--price", "2",
                     "--payout", f"table:{path}")
        envelope = parse_envelope(result)
        expected = envelope["results"]["naive_expected_payout"]
        assert abs(expected["value"] - 2.5) < 1e-12

    def test_csv_format(self):
        result = run("evaluate", "--wealth", "100", "--price", "2",
                     "--format", "csv")
        assert result.exit_code == 0
        rows = list(csv.reader(result.output.splitlines()))
        assert rows[0] == ["quantity", "classification", "value",
                           "tail_bound", "terms_used", "reason"]
        by_name = {row[0]: row for row in rows[1:]}
        assert by_name["naive_expected_payout"][1] == "DivergesPositive"
        assert abs(float(by_name["time_growth"][2]) - 0.023483) < 1e-5
        assert by_name["recommendation"][1] == "Buy"

    def test_output_is_deterministic(self):
        first = run("evaluate", "--wealth", "100", "--price", "2")
        second = run("evaluate", "--wealth", "100", "--price", "2")
        assert first.output == second.output

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("wealth, rows", [("1e308", "0.5,1e308\n0.5,0\n"),
                                              ("1e308", "1.0,1e308\n"),
                                              ("1e-320", None)],
                             ids=["two-rows", "one-row", "subnormal-wealth"])
    def test_values_at_the_double_range_are_finite(self, tmp_path, fmt, wealth, rows):
        # the wealth after a payout, or the mean growth factor, overflows a
        # double; the rates do not
        payout = "capped:1e300"
        if rows is not None:
            (tmp_path / "rows.csv").write_text("p,m\n" + rows)
            payout = f"table:{tmp_path / 'rows.csv'}"
        result = run("evaluate", "--wealth", wealth, "--payout", payout, "--format", fmt)
        assert result.exit_code == 0, result.stderr
        if fmt == "json":
            results = parse_envelope(result)["results"]
            assert results["recommendation"] == "Buy"
            assert all(v["classification"] == "Converged" for k, v in results.items()
                       if k != "recommendation")
        else:
            lines = list(csv.reader(result.stdout.splitlines()))[1:]
            assert lines[-1][:2] == ["recommendation", "Buy"]
            assert all(line[1] == "Converged" and math.isfinite(float(line[2]))
                       for line in lines[:-1])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_payout_past_the_double_range_fails(self, tmp_path, fmt):
        # the probabilities sum to 1 + 8e-10, within a table's tolerance, and
        # the expected payout's sum overflows a double: the series raises
        (tmp_path / "rows.csv").write_text("p,m\n" + "0.5000000004,1.7976931348623157e308\n" * 2)
        result = run("evaluate", "--wealth", "100", "--payout", f"table:{tmp_path / 'rows.csv'}",
                     "--format", fmt)
        assert result == (1, "", "error: the sum through term 2 evaluated to inf\n")

    def test_too_few_terms_names_the_least(self):
        result = run("evaluate", "--wealth", "100", "--price", "2", "--max-terms", "5")
        assert result.exit_code == 1
        assert result.stderr == "error: max_terms must be at least 16\n"


# ====== breakeven ======


class TestBreakevenCommand:
    def test_single_wealth(self):
        result = run("breakeven", "--wealth", "100")
        envelope = parse_envelope(result)
        assert envelope["command"] == "breakeven"
        assert abs(envelope["results"]["price"] - BREAKEVEN_100) < 1e-8

    def test_default_grid_spans_four_decades(self):
        result = run("breakeven")
        envelope = parse_envelope(result)
        curve = envelope["results"]["curve"]
        assert [point["wealth"] for point in curve] == [10.0, 100.0, 1000.0, 10000.0]
        prices = [point["price"] for point in curve]
        assert prices == sorted(prices)
        assert envelope["results"]["failures"] == []
        assert envelope["results"]["solver_tolerance"] == 1e-10

    def test_custom_grid_flags(self):
        result = run("breakeven", "--wmin", "20", "--wmax", "2000",
                     "--points", "3")
        envelope = parse_envelope(result)
        wealths = [point["wealth"] for point in envelope["results"]["curve"]]
        assert len(wealths) == 3
        assert abs(wealths[0] - 20.0) < 1e-12
        assert abs(wealths[1] - 200.0) < 1e-9
        assert abs(wealths[2] - 2000.0) < 1e-9

    def test_grid_csv(self):
        result = run("breakeven", "--format", "csv")
        rows = list(csv.reader(result.output.splitlines()))
        assert rows[0] == ["wealth", "breakeven_price"]
        assert len(rows) == 5
        assert abs(float(rows[2][1]) - BREAKEVEN_100) < 1e-8

    def test_unsolvable_points_become_failures(self):
        result = run("breakeven", "--payout", "menger", "--points", "2")
        envelope = parse_envelope(result)
        assert envelope["results"]["curve"] == []
        assert len(envelope["results"]["failures"]) == 2

    def test_unsolvable_points_leave_empty_csv_cells(self):
        result = run("breakeven", "--payout", "menger", "--points", "2",
                     "--format", "csv")
        rows = list(csv.reader(result.stdout.splitlines()))
        assert rows[1:] == [["10.0", ""], ["10000.0", ""]]
        assert "warning" in result.stderr

    def test_inset_growth_data(self):
        result = run("breakeven", "--inset", "--price", "2",
                     "--wmin", "1.5", "--wmax", "96", "--points", "7")
        envelope = parse_envelope(result)
        inset = envelope["results"]["inset"]
        assert envelope["results"]["price"] == 2.0
        assert len(inset) == 7
        # Toward small wealth at a fixed price the growth rate plunges.
        assert inset[0]["wealth"] == 1.5
        assert inset[0]["growth_rate"] < -0.1
        assert inset[-1]["growth_rate"] > 0.0

    def test_inset_csv_marks_undefined_points(self):
        result = run("breakeven", "--inset", "--price", "2", "--wmin", "0.5",
                     "--wmax", "8", "--points", "3", "--format", "csv")
        rows = list(csv.reader(result.stdout.splitlines()))
        assert rows[0] == ["wealth", "g_bar"]
        assert rows[1] == ["0.5", ""]  # wealth at or below price - 1
        assert float(rows[3][1]) > 0.0
        assert "warning" in result.stderr

    def test_inconclusive_grid_points_leave_empty_csv_cells(self):
        result = run("breakeven", "--wmin", "10", "--wmax", "100000", "--points", "5",
                     "--geom-p", "0.001", "--format", "csv")
        assert result.exit_code == 0
        rows = list(csv.reader(result.stdout.splitlines()))
        assert rows[1:] == [[w, ""] for w in ("10.0", "100.0", "1000.0", "10000.0", "100000.0")]
        # one line per failure reason, with its count, in grid order
        assert result.stderr.splitlines() == [
            "warning: 3 grid point(s): time-average growth stays positive at every "
            "non-bankrupting ticket price; no finite break-even price exists",
            "warning: 1 grid point(s): no tail bound below 6.25e-16 and no proof of "
            "divergence within 10000 terms",
            "warning: 1 grid point(s): no tail bound below 4e-16 and no proof of "
            "divergence within 10000 terms",
        ]

    def test_inset_inconclusive_point_is_a_failure(self):
        # the growth sum at wealth 1e308 finds no tail bound
        result = run("breakeven", "--inset", "--wmin", "10", "--wmax", "1e308",
                     "--points", "5")
        assert result.exit_code == 0
        envelope = parse_envelope(result)
        assert len(envelope["results"]["inset"]) == 4
        assert [f["wealth"] for f in envelope["results"]["failures"]] == [1e308]
        assert envelope["results"]["failures"][0]["error"].startswith("no tail bound")
        # one warning line names the reason, with its count
        assert result.stderr.splitlines() == [
            "warning: 1 grid point(s): no tail bound below 1e-10 and no proof of "
            "divergence within 10000 terms"]

    def test_wealth_and_inset_conflict(self):
        result = run("breakeven", "--wealth", "100", "--inset")
        assert result.exit_code == 1

    def test_wealth_and_grid_flags_conflict(self):
        result = run("breakeven", "--wealth", "100", "--wmin", "10")
        assert result.exit_code == 1


# ====== simulate ======


class TestSimulateCommand:
    def test_time_mode_envelope(self):
        result = run("simulate", "--wealth", "100", "--price", "2",
                     "--rounds", "20000", "--seed", "0")
        envelope = parse_envelope(result)
        results = envelope["results"]
        assert results["mode"] == "time"
        assert results["rounds"] == 20000
        assert abs(results["growth_rate_estimate"] - 0.0235) < 0.01
        assert "analytic_growth_rate" in results
        assert envelope["parameters"]["seed"] == 0

    def test_census_covers_every_round(self):
        result = run("simulate", "--wealth", "100", "--price", "2",
                     "--rounds", "20000", "--seed", "0")
        results = parse_envelope(result)["results"]
        frequencies = results["frequencies"]
        assert sum(count for _, count in frequencies) == 20000
        assert frequencies[0][0] == 1
        assert abs(frequencies[0][1] / 20000 - 0.5) < 0.02
        assert results["max_waiting_time"] == frequencies[-1][0]

    def test_worker_count_leaves_output_byte_identical(self):
        outputs = set()
        for workers in ("1", "2", "8"):
            result = run("simulate", "--wealth", "100", "--price", "2",
                         "--rounds", "20000", "--seed", "3",
                         "--workers", workers)
            outputs.add(result.output)
        assert len(outputs) == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_are_refused(self, workers):
        result = run("simulate", "--wealth", "100", "--price", "2", "--rounds", "1000",
                     "--workers", workers)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: workers must be a positive integer, got {workers}\n"

    @pytest.mark.parametrize("mode", ["time", "ensemble", "subinterval"])
    def test_a_negative_seed_is_refused_before_the_path_file_opens(self, tmp_path, mode):
        out = tmp_path / "path.csv"
        out.write_bytes(b"kept\n")
        result = run("simulate", "--mode", mode, "--wealth", "100", "--price", "2",
                     "--rounds", "10", "--seed", "-1", "--wealth-path-out", str(out))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: seed must be a nonnegative integer, got -1\n"
        assert out.read_bytes() == b"kept\n"

    def test_ensemble_mode(self):
        result = run("simulate", "--mode", "ensemble", "--wealth", "100",
                     "--price", "2", "--payout", "capped:1e9",
                     "--samples", "50000", "--seed", "0")
        envelope = parse_envelope(result)
        results = envelope["results"]
        assert results["mode"] == "ensemble"
        assert results["samples"] == 50000
        assert "mean_factor_estimate" in results
        assert "analytic_mean_factor" in results
        assert sum(count for _, count in results["frequencies"]) == 50000
        assert "workers" not in envelope["parameters"]

    def test_subinterval_mode_single_return(self):
        result = run("simulate", "--mode", "subinterval", "--wealth", "100",
                     "--price", "2", "--seed", "0", "--subintervals", "1")
        envelope = parse_envelope(result)
        results = envelope["results"]
        assert results["mode"] == "subinterval"
        assert results["subintervals"] == 1
        assert "stderr" not in results
        # The first seed-0 draw waits five tosses: return (98 + 16)/100.
        assert results["frequencies"] == [[5, 1]]
        assert abs(results["per_round_rate_estimate"] - 0.14) < 1e-12

    def test_subinterval_count_defaults_to_rounds(self):
        result = run("simulate", "--mode", "subinterval", "--wealth", "100",
                     "--price", "2", "--rounds", "5000", "--seed", "0")
        envelope = parse_envelope(result)
        results = envelope["results"]
        assert results["subintervals"] == 5000
        assert "stderr" in results
        assert envelope["parameters"]["subintervals"] == 5000

    def test_subinterval_nonpositive_return_exits_two(self):
        result = run("simulate", "--mode", "subinterval", "--wealth", "10",
                     "--price", "11", "--subintervals", "100", "--seed", "0")
        assert result.exit_code == 2
        results = parse_envelope(result)["results"]
        assert results["error"] == "NonpositiveReturn"

    def test_bankrupt_trajectory_exits_two(self):
        result = run("simulate", "--wealth", "10", "--price", "11",
                     "--rounds", "1000", "--seed", "0")
        assert result.exit_code == 2
        envelope = parse_envelope(result)
        assert envelope["results"]["bankrupt_at"] >= 1
        assert envelope["results"]["bankrupt_wealth"] <= 0.0

    def test_price_just_short_of_ruin_is_not_reported_as_ruin(self):
        # wealth - price rounds to -1 exactly, and the first payout of 1
        # leaves 5.55e-17 of the wealth
        result = run("simulate", "--wealth", "0.2543094026557902",
                     "--price", "1.2543094026557902", "--rounds", "100", "--seed", "1")
        assert result.exit_code == 0, result.output
        results = parse_envelope(result)["results"]
        assert "bankrupt_at" not in results
        assert results["rounds"] == 100
        assert results["analytic_growth_rate"] < 0.0

    def test_bankrupt_wealth_beyond_double_range_is_null(self, tmp_path):
        # wealth passes 1e300 before the first losing round; the wealth that
        # round leaves overflows a double
        path = tmp_path / "rows.csv"
        path.write_text("p,m\n0.9,1e300\n0.1,0.0\n")
        args = ("simulate", "--wealth", "1", "--price", "2", "--payout", f"table:{path}",
                "--seed", "1", "--rounds", "100")
        result = run(*args)
        assert result.exit_code == 2
        results = parse_envelope(result)["results"]
        assert results["bankrupt_at"] > 1
        assert results["bankrupt_wealth"] is None
        rows = list(csv.reader(run(*args, "--format", "csv").stdout.splitlines()))
        assert ["bankrupt_wealth", ""] in rows

    def test_csv_format(self):
        result = run("simulate", "--wealth", "100", "--price", "2",
                     "--rounds", "5000", "--seed", "0", "--format", "csv")
        rows = list(csv.reader(result.output.splitlines()))
        assert rows[0] == ["field", "value"]
        fields = dict(rows[1:])
        assert fields["mode"] == "time"
        assert fields["rounds"] == "5000"
        assert abs(float(fields["growth_rate_estimate"]) - 0.0235) < 0.01
        census = {row[0]: int(row[1]) for row in rows[1:] if row[0].startswith("k_")}
        assert sum(census.values()) == 5000

    def test_wealth_path_file(self, tmp_path):
        out = tmp_path / "path.csv"
        result = run("simulate", "--wealth", "100", "--price", "2",
                     "--rounds", "50", "--seed", "0",
                     "--wealth-path-out", str(out))
        assert result.exit_code == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["round", "wealth"]
        assert len(rows) == 52  # header + initial wealth + 50 rounds
        assert abs(float(rows[1][1]) - 100.0) < 1e-9
        assert all(float(row[1]) > 0.0 for row in rows[1:])

    def test_ensemble_stderr_near_the_double_range(self, tmp_path, capsys):
        # the deviations are about 1e300; their squares leave the double range
        path = tmp_path / "rows.csv"
        path.write_text("p,m\n0.9,1e300\n0.1,0\n")
        code = main(["simulate", "--wealth", "1", "--price", "0.5", "--mode", "ensemble",
                     "--samples", "500", "--payout", f"table:{path}"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        results = json.loads(captured.out, parse_constant=_reject_constant)["results"]
        wins = dict(results["frequencies"])[1]
        spread = (1e300 - 0.5) * math.sqrt(wins * (500 - wins) / (500 * 499))
        assert math.isclose(results["stderr"], spread / math.sqrt(500), rel_tol=1e-12)

    def test_ensemble_mean_near_the_double_range(self, tmp_path, capsys):
        # a win times its count leaves the double range; the mean does not
        path = tmp_path / "rows.csv"
        path.write_text("p,m\n0.9,1.7e308\n0.1,0\n")
        code = main(["simulate", "--wealth", "1", "--price", "0.5", "--mode", "ensemble",
                     "--samples", "500", "--payout", f"table:{path}"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        results = json.loads(captured.out, parse_constant=_reject_constant)["results"]
        with mpmath.workdps(40):
            factor = {1: 1 - mpmath.mpf(0.5) + mpmath.mpf(1.7e308), 2: mpmath.mpf(0.5)}
            counts = dict(results["frequencies"])
            exact = mpmath.fsum(c * factor[n] for n, c in counts.items()) / 500
            miss = abs(mpmath.mpf(results["mean_factor_estimate"]) - exact)
            assert miss <= 4 * sys.float_info.epsilon * exact

    def test_ensemble_factors_whose_sum_overflows(self, tmp_path, capsys):
        # wealth plus the payout 1e308 leaves the double range; the factors
        # 2 and 1, and their mean, do not
        path = tmp_path / "rows.csv"
        path.write_text("p,m\n0.5,1e308\n0.5,0\n")
        code = main(["simulate", "--wealth", "1e308", "--mode", "ensemble",
                     "--samples", "1000", "--payout", f"table:{path}"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        results = json.loads(captured.out, parse_constant=_reject_constant)["results"]
        assert results["analytic_mean_factor"] == 1.5
        counts = dict(results["frequencies"])
        assert results["mean_factor_estimate"] == (2 * counts[1] + counts[2]) / 1000

    def test_analytic_mean_factor_whose_sum_overflows(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        path.write_text("p,m\n1.0,1e308\n")
        code = main(["simulate", "--wealth", "1e308", "--mode", "ensemble",
                     "--samples", "1000", "--payout", f"table:{path}"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        results = json.loads(captured.out, parse_constant=_reject_constant)["results"]
        assert results["analytic_mean_factor"] == 2.0
        assert results["mean_factor_estimate"] == 2.0

    def test_wealth_path_requires_time_mode(self, tmp_path):
        out = tmp_path / "path.csv"
        for flags in (["--mode", "ensemble", "--samples", "1000"],
                      ["--mode", "subinterval", "--subintervals", "10"]):
            result = run("simulate", "--wealth", "100", "--price", "2",
                         "--wealth-path-out", str(out), *flags)
            assert result.exit_code == 1

    @pytest.mark.parametrize("target", ["a-directory", "missing/path.csv"])
    def test_unwritable_wealth_path_fails_before_any_draw(self, tmp_path, monkeypatch, target):
        def draw(*args):
            raise AssertionError("a block was drawn before the path file was opened")

        monkeypatch.setattr(montecarlo, "_block_generator", draw)
        (tmp_path / "a-directory").mkdir()
        result = run("simulate", "--wealth", "100", "--price", "2", "--rounds", "1000",
                     "--wealth-path-out", str(tmp_path / target))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize("args, error", [
        (["--rounds", "10", "--geom-p", "1e-12"], "error: geometric parameter"),
        # runs whose estimate fails after every row is written
        (["--rounds", "1"], "error: need at least 2 rounds"),
        (["--payout", "menger", "--geom-p", "0.001", "--rounds", "1000"],
         "error: not a finite number: growth_rate_estimate = inf"),
    ], ids=["refused", "one-round", "infinite-estimate"])
    def test_refused_run_leaves_no_path_file(self, tmp_path, args, error):
        out = tmp_path / "path.csv"
        result = run("simulate", "--wealth", "100", "--price", "2", *args,
                     "--wealth-path-out", str(out))
        assert result.exit_code == 1
        assert result.stderr.startswith(error)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["link-to-devnull", "link-to-file", "fifo"])
    def test_refused_run_keeps_a_path_it_did_not_make(self, kind, tmp_path):
        # only a regular file the command opened is deleted: a device, a
        # FIFO or a link named as the path stays, and so does its target
        out, target, reader = tmp_path / "path.csv", tmp_path / "kept.csv", None
        if kind == "link-to-devnull":
            out.symlink_to(os.devnull)
        elif kind == "link-to-file":
            target.write_text("")
            out.symlink_to(target)
        else:
            os.mkfifo(out)
            # a reader, so that opening the FIFO to write does not block
            reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
        try:
            result = run("simulate", "--wealth", "100", "--price", "2", "--rounds", "10",
                         "--geom-p", "1e-12", "--wealth-path-out", str(out))
        finally:
            if reader is not None:
                os.close(reader)
        assert result.exit_code == 1
        assert result.stderr.startswith("error: geometric parameter")
        assert os.path.lexists(out)
        assert kind != "link-to-file" or target.exists()

    def test_menger_time_mode_emits_strict_json(self, capsys):
        # Seeds 0-19 include runs that draw n >= 10, whose payout
        # overflows a double; the log growth factor does not.
        deepest = 0
        for seed in range(20):
            code = main(["simulate", "--wealth", "100", "--payout", "menger",
                         "--rounds", "1000", "--seed", str(seed)])
            assert code == 0
            results = json.loads(capsys.readouterr().out,
                                 parse_constant=_reject_constant)["results"]
            deepest = max(deepest, results["max_waiting_time"])
        assert deepest >= 10

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nonfinite_result_fails_loudly(self, fmt, tmp_path, capsys):
        # Every draw of this one-row table pays a growth factor past the
        # double range, so the mean factor is infinite: neither format
        # prints it, and the command fails instead.
        table = tmp_path / "rows.csv"
        table.write_text("p,m\n1.0,1.7e308\n")
        code = main(["simulate", "--mode", "ensemble", "--wealth", "0.5",
                     "--payout", f"table:{table}", "--samples", "1000", "--seed", "0",
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1
        assert "mean_factor_estimate = inf" in captured.err

    @pytest.mark.filterwarnings("error")
    def test_menger_run_prints_no_warning(self, capsys):
        code = main(["simulate", "--wealth", "100", "--payout", "menger",
                     "--rounds", "1000", "--seed", "0"])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    def test_tiny_p_run_prints_no_warning(self, capsys):
        # The sampler stays silent on payouts past the double range, and
        # the analytic series at p = 1e-5 converges from its closed tail.
        code = main(["simulate", "--wealth", "100", "--price", "2",
                     "--geom-p", "1e-05", "--rounds", "10"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        rate = json.loads(captured.out)["results"]["analytic_growth_rate"]
        exact = reference(GambleSpec(probability_parameter=1e-5), 100.0, 2.0, "log").value
        assert abs(rate - exact) <= 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", ["1e-12", "1e-300"])
    @pytest.mark.parametrize("mode", ["time", "ensemble", "subinterval"])
    def test_unsampled_p_fails_in_one_line(self, mode, p, capsys):
        # one uniform double would draw a waiting time of about 36.74 / p,
        # and the counts are dense up to the largest waiting time drawn
        code = main(["simulate", "--wealth", "100", "--price", "2", "--mode", mode,
                     "--rounds", "10", "--samples", "100", "--geom-p", p])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: geometric parameter {p} is too small")
        assert len(captured.err.splitlines()) == 1
        assert "limit of 16777216" in captured.err

    @pytest.mark.parametrize("mode", ["time", "ensemble", "subinterval"])
    def test_smallest_sampled_p_runs(self, mode, capsys):
        code = main(["simulate", "--wealth", "100", "--price", "2", "--mode", mode,
                     "--rounds", "10", "--samples", "10", "--payout", "capped:1000000",
                     "--geom-p", repr(SMALLEST_SAMPLED_P)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert sum(c for _, c in json.loads(captured.out)["results"]["frequencies"]) == 10

    @pytest.mark.parametrize("args, field, count", [
        (["--rounds", "1000", "--tol", "1e-30", "--max-terms", "20"],
         "analytic_growth_rate", "rounds"),
        (["--mode", "ensemble", "--samples", "1000", "--geom-p", "0.5000001"],
         "analytic_mean_factor", "samples"),
    ], ids=["time", "ensemble"])
    def test_uncertified_rate_keeps_the_run(self, args, field, count, capsys):
        # a series with no tail bound leaves its analytic value out, in one note
        code = main(["simulate", "--wealth", "100", "--price", "2", *args])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.startswith(f"note: {field} omitted: no tail bound")
        assert len(captured.err.splitlines()) == 1
        results = json.loads(captured.out)["results"]
        assert field not in results
        assert results[count] == 1000


#: ``simulate`` CSV envelopes byte for byte: an estimate lists its fields in
#: key order, a failure lists ``mode`` first, and the census follows.
#: ``{table}`` is a table whose wealth overflows before the first ruin.
CSV_ENVELOPES = {
    "time": (
        ["--rounds", "10"], 0,
        "field,value\n"
        "analytic_growth_rate,0.023483493659299224\n"
        "growth_rate_estimate,0.010057921043507648\n"
        "max_waiting_time,5\nmode,time\nrounds,10\nstderr,0.0137654874772379\n"
        "k_1,5\nk_2,3\nk_3,1\nk_5,1\n"),
    "ensemble": (
        ["--mode", "ensemble", "--payout", "capped:1e9", "--samples", "10"], 0,
        "field,value\nanalytic_mean_factor,1.13\nmax_waiting_time,5\n"
        "mean_factor_estimate,1.011\nmode,ensemble\nsamples,10\n"
        "stderr,0.01464012750399849\nk_1,5\nk_2,3\nk_3,1\nk_5,1\n"),
    "subinterval": (
        ["--mode", "subinterval", "--subintervals", "6"], 0,
        "field,value\nmax_waiting_time,5\nmode,subinterval\n"
        "per_round_rate_estimate,0.017057277533559397\nstderr,0.0231696406578815\n"
        "subintervals,6\nk_1,3\nk_2,2\nk_5,1\n"),
    "subinterval-single": (
        ["--mode", "subinterval", "--subintervals", "1"], 0,
        "field,value\nmax_waiting_time,5\nmode,subinterval\n"
        "per_round_rate_estimate,0.1399999999999999\nsubintervals,1\nk_5,1\n"),
    "bankrupt": (
        ["--wealth", "10", "--price", "11", "--rounds", "1000"], 2,
        "field,value\nmode,time\nbankrupt_at,2\nbankrupt_wealth,0.0\n"),
    "bankrupt-beyond-doubles": (
        ["--wealth", "1", "--payout", "table:{table}", "--seed", "1", "--rounds", "100"], 2,
        "field,value\nmode,time\nbankrupt_at,23\nbankrupt_wealth,\n"),
    "nonpositive-return": (
        ["--mode", "subinterval", "--wealth", "10", "--price", "11", "--subintervals", "100"],
        2,
        "field,value\nmode,subinterval\nerror,NonpositiveReturn\n"
        "detail,draw 2 yields a nonpositive return; no real fractional-period rate exists "
        "at this ticket price\n"),
}


class TestSimulateEnvelopes:
    @pytest.mark.parametrize("case", sorted(CSV_ENVELOPES))
    def test_csv_bytes_and_json_keys(self, case, tmp_path):
        table = tmp_path / "rows.csv"
        table.write_text("p,m\n0.9,1e300\n0.1,0.0\n")
        extra, status, expected = CSV_ENVELOPES[case]
        args = ["simulate", "--wealth", "100", "--price", "2", "--seed", "0"]
        args += [arg.format(table=table) for arg in extra]
        result = run(*args, "--format", "csv")
        assert (result.exit_code, result.stdout, result.stderr) == (status, expected, "")
        # the JSON results hold the same fields, with the census as frequencies
        keys = [row.partition(",")[0] for row in expected.splitlines()[1:]]
        fields = {key for key in keys if not key.startswith("k_")}
        if len(fields) < len(keys):
            fields.add("frequencies")
        assert set(parse_envelope(run(*args))["results"]) == fields


class TestWealthPathFile:
    """The path file equals the row-by-row reference byte for byte."""

    @staticmethod
    def write(tmp_path, *args):
        out = tmp_path / "path.csv"
        code = main(["simulate", *args, "--wealth-path-out", str(out)])
        return code, out.read_bytes()

    def test_overflow_to_inf_across_blocks(self, tmp_path, capsys):
        rounds = 2**17 + 5
        code, data = self.write(tmp_path, "--wealth", "100", "--price", "2",
                                "--rounds", str(rounds), "--seed", "1")
        assert code == 0
        assert data == reference_path_file(PlayerState(100.0, 2.0), GambleSpec(), rounds, 1)
        rows = data.splitlines()
        first_inf = next(t for t, row in enumerate(rows[1:]) if row.endswith(b",inf"))
        assert first_inf < 2**16
        assert rows[-1] == f"{rounds},inf".encode()

    def test_underflow_to_zero(self, tmp_path, capsys):
        code, data = self.write(tmp_path, "--wealth", "100", "--price", "60",
                                "--rounds", "100000", "--seed", "1")
        assert code == 0
        assert data.endswith(b"100000,0.0\n")
        assert data == reference_path_file(PlayerState(100.0, 60.0), GambleSpec(), 100_000, 1)
        # the path underflows before row 1000 and stays there, so its run
        # of 0.0 rows crosses the first thousand and a block boundary, and
        # the second block is 0.0 throughout
        rows = data.splitlines()[1:]
        zeros = [t for t, row in enumerate(rows) if row.endswith(b",0.0")]
        assert zeros[0] < 1000
        assert zeros == list(range(zeros[0], 100_001))

    def test_underflow_to_zero_over_a_million_rounds(self, tmp_path, capsys):
        # every block past the first is written from its census as 0.0 rows
        code, data = self.write(tmp_path, "--wealth", "100", "--price", "60",
                                "--rounds", "1000000", "--seed", "1")
        assert code == 0
        assert data.count(b"\n") == 1_000_002
        assert data.endswith(b"\n1000000,0.0\n")
        assert hashlib.sha256(data).hexdigest() == PATH_1E6_PRICE_60
        # the first block's rows are the reference's
        assert data.startswith(
            reference_path_file(PlayerState(100.0, 60.0), GambleSpec(), 2**16, 1))

    def test_shorter_path_truncates_a_longer_file(self, tmp_path, capsys):
        # a path written over a longer file keeps none of its rows
        args = ("--wealth", "100", "--price", "2", "--seed", "1")
        _, fresh = self.write(tmp_path, *args, "--rounds", "70000")
        self.write(tmp_path, *args, "--rounds", "1000000")
        _, over = self.write(tmp_path, *args, "--rounds", "70000")
        assert over.count(b"\n") == 70_002
        assert over == fresh
        assert hashlib.sha256(over).hexdigest() == PATH_70000_SEED_1

    def test_bankruptcy_in_a_later_block(self, tmp_path, capsys):
        # the first ruinous round of this table at seed 2 is round 74 029
        table = tmp_path / "rare-ruin.csv"
        table.write_text("probability,payout\n0.99999,10.0\n1e-05,0.0\n")
        code, data = self.write(tmp_path, "--wealth", "10", "--price", "10.5",
                                "--payout", f"table:{table}", "--rounds", "200000",
                                "--seed", "2")
        assert code == 2
        assert data.count(b"\n") == 1 + 74_029
        spec = GambleSpec(payout_rule=Table(((0.99999, 10.0), (1e-05, 0.0))))
        assert data == reference_path_file(PlayerState(10.0, 10.5), spec, 200_000, 2)

    def test_workers_do_not_change_the_file(self, tmp_path, capsys):
        args = ("--wealth", "100", "--price", "2", "--rounds", "200000", "--seed", "3")
        _, serial = self.write(tmp_path, *args, "--workers", "1")
        _, two = self.write(tmp_path, *args, "--workers", "2")
        assert serial == two
        assert serial == reference_path_file(PlayerState(100.0, 2.0), GambleSpec(), 200_000, 3)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("case", ["grows", "bankrupt"])
    def test_each_block_is_drawn_once(self, tmp_path, monkeypatch, case, workers):
        # the census is counted from the blocks the file is written from,
        # and reports what the same run without a file reports
        table = tmp_path / "rare-ruin.csv"
        table.write_text("probability,payout\n0.99999,10.0\n1e-05,0.0\n")
        args = {"grows": ["--wealth", "100", "--price", "2", "--rounds", str(3 * 2**16 + 5),
                          "--seed", "1"],
                "bankrupt": ["--wealth", "10", "--price", "10.5", "--payout", f"table:{table}",
                             "--rounds", "200000", "--seed", "2"]}[case]
        args += ["--workers", workers]
        plain = run("simulate", *args)
        drawn = []
        generator = montecarlo._block_generator

        def counted(seed, block):
            drawn.append(block)
            return generator(seed, block)

        monkeypatch.setattr(montecarlo, "_block_generator", counted)
        out = tmp_path / "path.csv"
        result = run("simulate", *args, "--wealth-path-out", str(out))
        assert drawn == list(range({"grows": 4, "bankrupt": 2}[case]))
        assert (result.exit_code, result.stdout, result.stderr) == \
            (plain.exit_code, plain.stdout, plain.stderr)

    def test_bankruptcy_at_the_start_of_a_block(self, tmp_path, monkeypatch, capsys):
        # a block whose first draw ruins adds no rows: the writer gets an
        # empty block after the first, and the file ends with the first.
        # At seed 2 the census of block 1 holds the ruinous waiting time, so
        # its order is drawn, and one such draw is moved to the front.
        table = tmp_path / "rare-ruin.csv"
        table.write_text("probability,payout\n0.99999,10.0\n1e-05,0.0\n")
        order = montecarlo._order

        def ruin_first(rng, counts):
            draws = order(rng, counts)
            ruinous = np.flatnonzero(draws == 2)  # the table's second row pays 0.0
            if ruinous.size:
                draws[[0, ruinous[0]]] = draws[[ruinous[0], 0]]
            return draws

        monkeypatch.setattr(montecarlo, "_order", ruin_first)
        code, data = self.write(tmp_path, "--wealth", "10", "--price", "10.5",
                                "--payout", f"table:{table}", "--rounds", "200000",
                                "--seed", "2", "--workers", "1")
        assert code == 2
        assert data.count(b"\n") == 1 + 2**16 + 1
        spec = GambleSpec(payout_rule=Table(((0.99999, 10.0), (1e-05, 0.0))))
        assert data == reference_path_file(PlayerState(10.0, 10.5), spec, 200_000, 2)

    def test_order_is_drawn_only_where_a_row_reads_it(self, tmp_path, monkeypatch, capsys):
        # The bench's path op: from block 1 on every row reads inf, which
        # each full block's census proves without its order.  Only the
        # partial last block, block 15, has its order drawn, since its
        # census is that of its head.
        blocks, ordered = [], []
        generator, order = montecarlo._block_generator, montecarlo._order

        def recorded(seed, block):
            blocks.append(block)
            return generator(seed, block)

        def counted(rng, counts):
            ordered.append(blocks[-1])
            return order(rng, counts)

        monkeypatch.setattr(montecarlo, "_block_generator", recorded)
        monkeypatch.setattr(montecarlo, "_order", counted)
        rounds = 10**6
        code, data = self.write(tmp_path, "--wealth", "100", "--price", "2",
                                "--rounds", str(rounds), "--seed", "1")
        assert code == 0
        assert blocks == list(range(16))
        assert ordered == [15]
        # the same bytes as the writer gives the arrays of every block
        monkeypatch.undo()
        handle = io.BytesIO()
        write = path_writer(handle)
        for _, log_wealth in trajectory_blocks(PlayerState(100.0, 2.0), GambleSpec(), rounds, 1):
            write(lambda: log_wealth, len(log_wealth), -math.inf, math.inf)
        assert data == handle.getvalue()
        assert data.endswith(b"\n1000000,inf\n")
        # the bytes of the row-by-row writers before the numpy ones
        assert hashlib.sha256(data).hexdigest() == PATH_1E6_SEED_1

    def test_deferred_blocks_are_replayed_for_a_later_finite_row(self, tmp_path, monkeypatch,
                                                                  capsys):
        # Each round gains 0.00995 in log wealth, or loses 499 at odds of
        # 1e-5: the path crosses 710 and can fall back below it.  A block
        # whose census proves every row inf is written without its order;
        # when a later block's rows may be finite, the deferred blocks are
        # drawn again to rebuild the exact running sum.
        table = tmp_path / "falls.csv"
        table.write_text("probability,payout\n0.99999,1.01\n1e-05,7e-218\n")
        spec = GambleSpec(payout_rule=Table(((0.99999, 1.01), (1e-05, 7e-218))))
        rounds = 10 * 2**16
        generator = montecarlo._block_generator
        replayed = []
        for seed in range(4):
            drawn = []

            def recorded(seed, block):
                drawn.append(block)
                return generator(seed, block)

            monkeypatch.setattr(montecarlo, "_block_generator", recorded)
            code, data = self.write(tmp_path, "--wealth", "1", "--price", "1",
                                    "--payout", f"table:{table}", "--rounds", str(rounds),
                                    "--seed", str(seed))
            monkeypatch.undo()
            assert code == 0
            assert data == reference_path_file(PlayerState(1.0, 1.0), spec, rounds, seed)
            # a block drawn again comes after a later one: it was deferred
            replayed += [block for at, block in enumerate(drawn) if block < max(drawn[:at + 1])]
        assert replayed

    def test_memory_does_not_grow_with_rounds(self, tmp_path, capsys):
        # A writer holding the whole path peaked at 13 MB here (47 MB at
        # 2e6 rounds); tracing every row string makes longer runs slow.
        out = tmp_path / "path.csv"
        tracemalloc.start()
        try:
            code = main(["simulate", "--wealth", "100", "--price", "2", "--rounds", str(2**19),
                         "--seed", "1", "--wealth-path-out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20


#: log wealth on both sides of each bound: ``math.exp`` is finite up to
#: about 709.78 and rounds to 0.0 below about -745.13
_EXP_EDGES = (709.0, 709.78, 709.79, math.nextafter(710.0, 0.0), 710.0, 710.5, 1e308, math.inf,
              -745.13, -745.14, math.nextafter(-746.0, 0.0), -746.0, -746.5, -1e308, -math.inf,
              0.0, 4.6)

_run_values = st.lists(st.one_of(st.sampled_from(_EXP_EDGES), st.floats(-800.0, 800.0)),
                       min_size=1, max_size=3)
_run_length = st.one_of(st.integers(1, 1500), st.integers(_SLICE - 3, _SLICE + 3))


class TestWealthPathWriter:
    """The path writer against a row-by-row reference, on synthetic blocks."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(first=st.sampled_from([0, 999, 1000, 9_999, 99_990, 999_995]),
           runs=st.lists(st.tuples(_run_values, _run_length), min_size=1, max_size=4),
           cuts=st.lists(st.integers(0, 3 * _SLICE), max_size=4))
    @example(first=999_995, runs=[([800.0], 2 * _SLICE + 3)], cuts=[])
    @example(first=99_990, runs=[([4.6, 709.5, -745.0], 2 * _SLICE + 3)], cuts=[])
    @example(first=0, runs=[([-800.0], 1500), ([4.6, 709.9], 10), ([-745.2], 3)], cuts=[1499])
    @example(first=1000, runs=[([709.0, 709.78], 100), ([-745.13, -745.0], 100)], cuts=[100])
    @example(first=1000, runs=[([800.0], 100), ([-800.0], 100)], cuts=[0, 100, 100, 200])
    def test_matches_row_by_row_reference(self, first, runs, cuts):
        # each run repeats its values; the rows then go to the writer in
        # blocks cut at ``cuts``, after ``first`` rows that read inf; a
        # repeated cut, or one at either end, makes an empty block
        path = np.concatenate([np.resize(values, length) for values, length in runs])
        bounds = [0, *sorted(c for c in cuts if c <= len(path)), len(path)]
        handle = io.BytesIO()
        write = path_writer(handle)
        if first:
            write(lambda: np.full(first, 800.0), first, -math.inf, math.inf)
        written = handle.tell()
        for begin, end in zip(bounds, bounds[1:]):
            write(lambda: path[begin:end], end - begin, -math.inf, math.inf)
        expected = "".join(["%d,%s\n" % (first + t, _wealth_cell(x))
                            for t, x in enumerate(path.tolist())])
        assert handle.getvalue()[written:] == expected.encode()
        assert handle.getvalue()[:13] == b"round,wealth\n"

    @pytest.mark.parametrize("first", [0, 995, 1000, 12_345, 999_990])
    def test_leading_inf_run(self, first):
        # the rows the sweep writes before those it compares
        handle = io.BytesIO()
        write = path_writer(handle)
        if first:
            write(lambda: np.full(first, 800.0), first, -math.inf, math.inf)
        write(lambda: np.array([-800.0, 800.0]), 2, -math.inf, math.inf)
        rows = handle.getvalue().decode().splitlines()
        assert rows == ["round,wealth", *(f"{t},inf" for t in range(first)),
                        f"{first},0.0", f"{first + 1},inf"]

    # exp overflows past _EXP_LARGEST, below 710: a run there reads inf too
    @pytest.mark.parametrize("log_wealth", [800.0, 709.79, math.nextafter(_EXP_LARGEST, 710.0),
                                            -800.0], ids=["inf", "inf_edge", "inf_next", "zero"])
    @pytest.mark.parametrize("first, rows", [
        (990, 20),  # rows below 1000, then the first thousand
        (9_990, 20),  # the thousands gain a digit
        (99_990, 20),
        (999_990, 20),
        (1_000, 8_001),  # a chunk of 8 000 rows, then one of a single row
        (12_345, 3 * 8_000 + 17),  # chunks from mid-thousand, across 8 000-row edges
        (995, 9_010),  # below 1000, then chunks up to the width edge and past it
    ])
    def test_fixed_run_across_width_and_chunk_edges(self, log_wealth, first, rows):
        # both runs go by their bounds alone: neither array is built
        def unused():
            raise AssertionError("a fixed run was materialised")

        handle = io.BytesIO()
        write = path_writer(handle)
        write(unused, first, 800.0, 800.0)
        written = handle.tell()
        write(unused, rows, log_wealth, log_wealth)
        cell = _wealth_cell(log_wealth)
        expected = "".join(["%d,%s\n" % (t, cell) for t in range(first, first + rows)])
        assert handle.getvalue()[written:] == expected.encode()


# ====== menger ======


class TestMengerCommand:
    def test_default_truncation_lengths(self):
        result = run("menger", "--wealth", "100")
        envelope = parse_envelope(result)
        prices = envelope["results"]["truncated_prices"]
        assert [entry["n_max"] for entry in prices] == [1, 5, 10, 30]
        assert abs(prices[0]["price"] - 63.2120558828557678) < 1e-9
        assert abs(prices[3]["price"] - 100.0) < 1e-10

    def test_custom_truncation_lengths(self):
        result = run("menger", "--wealth", "50", "--nmax", "2", "--nmax", "4")
        envelope = parse_envelope(result)
        prices = envelope["results"]["truncated_prices"]
        assert [entry["n_max"] for entry in prices] == [2, 4]

    def test_literal_criterion_survives_any_price_below_wealth(self):
        result = run("menger", "--wealth", "100")
        grid = parse_envelope(result)["results"]["literal_price_grid"]
        assert [entry["price"] for entry in grid] == [50.0, 90.0, 99.9, 100.0]
        assert [entry["classification"] for entry in grid] == [
            "DivergesPositive", "DivergesPositive", "DivergesPositive", "Undefined",
        ]

    def test_time_criterion_endorses_any_non_bankrupting_price(self):
        result = run("menger", "--wealth", "100")
        results = parse_envelope(result)["results"]
        assert results["time_recommendation"] == "BuyAtAnyNonBankruptingPrice"

    def test_csv_format(self):
        result = run("menger", "--wealth", "100", "--format", "csv")
        rows = list(csv.reader(result.output.splitlines()))
        assert rows[0] == ["n_max", "price"]
        assert [row[0] for row in rows[1:]] == ["1", "5", "10", "30"]
        assert abs(float(rows[1][1]) - 63.2120558828557678) < 1e-9


# ====== entry point ======


class TestMainEntryPoint:
    def test_success_returns_zero(self, capsys):
        code = main(["evaluate", "--wealth", "100", "--price", "2"])
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["command"] == "evaluate"

    def test_undefined_recommendation_returns_two(self, capsys):
        code = main(["evaluate", "--wealth", "5", "--price", "6"])
        capsys.readouterr()
        assert code == 2

    def test_usage_error_returns_one(self, capsys):
        code = main(["breakeven", "--wealth", "100", "--inset"])
        capsys.readouterr()
        assert code == 1

    def test_domain_error_returns_one(self, capsys):
        code = main(["evaluate", "--wealth", "-5", "--price", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err

    def test_missing_table_file_returns_one(self, capsys, tmp_path):
        code = main(["evaluate", "--wealth", "10", "--price", "1",
                     "--payout", f"table:{tmp_path}/nope.csv"])
        capsys.readouterr()
        assert code == 1

    def test_version_flag(self):
        result = run("--version")
        assert result.exit_code == 0
        assert "0.1.0" in result.output

    def test_version_line(self):
        result = run("--version")
        assert (result.exit_code, result.stdout) == (0, "petersburg, version 0.1.0\n")

    def test_usage_error_format(self):
        result = run("breakeven", "--wealth", "100", "--inset")
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert lines[0] == "Usage: petersburg breakeven [OPTIONS]"
        assert lines[-1] == "Error: --wealth solves one point; drop the grid/--inset flags"

    def test_payout_error_keeps_its_message(self):
        result = run("evaluate", "--wealth", "10", "--payout", "roulette")
        assert result.exit_code == 1
        assert result.stderr.startswith("Usage: petersburg evaluate [OPTIONS]")
        assert "unknown payout rule 'roulette'" in result.stderr

    @pytest.mark.parametrize("flag, value, message", [
        ("--price", "-1e-3", "ticket_price must be nonnegative"),
        ("--wealth", "-inf", "wealth must be positive"),
    ])
    def test_negative_values_reach_the_library_check(self, flag, value, message):
        argv = {"--price": ["--wealth", "10"], "--wealth": ["--price", "1"]}[flag]
        result = run("evaluate", *argv, flag, value)
        assert result.exit_code == 1
        assert result.stderr.startswith("error:")
        assert message in result.stderr

    @pytest.mark.parametrize("command", [["evaluate"], ["simulate", "--rounds", "10"]])
    def test_checks_run_gamble_then_player_then_policy(self, command):
        # each bad value hides the ones checked after it
        bad = ["--wealth", "-1", "--tol", "-1"]
        assert run(*command, *bad) == (
            1, "", "error: wealth must be positive and finite, got -1.0\n")
        result = run(*command, *bad, "--geom-p", "2")
        assert result.stderr == "error: probability_parameter must lie in (0, 1), got 2.0\n"
        result = run(*command, "--wealth", "1", "--tol", "-1")
        assert result.stderr == "error: tolerance must be positive, got -1.0\n"


# ====== finiteness ======


#: For each command, the library call whose result is made non-finite, the
#: change of its result given the bad value ``v``, the command line, and
#: what the error names.
NONFINITE = {
    "evaluate": (
        cli, "evaluate_state",
        lambda report, v: dataclasses.replace(
            report, time_growth=SeriesResult.converged(v, 0.0, 21)),
        ["evaluate", "--wealth", "100", "--price", "2"], "time_growth = {v}"),
    "breakeven-wealth": (
        cli, "breakeven_price", lambda price, v: v,
        ["breakeven", "--wealth", "100"], "breakeven_price at wealth 100.0 = {v}"),
    "breakeven-grid": (
        cli, "breakeven_curve",
        lambda curve, v: dataclasses.replace(
            curve, points=((curve.points[0][0], v),) + curve.points[1:]),
        ["breakeven", "--points", "2"], "breakeven_price at wealth 10.0 = {v}"),
    "breakeven-inset": (
        cli, "time_average_growth", lambda result, v: SeriesResult.converged(v, 0.0, 21),
        ["breakeven", "--inset", "--points", "2"],
        "g_bar at wealth 10.0 = {v}, g_bar at wealth 10000.0 = {v}"),
    "menger": (
        cli, "menger_partial_sum_price", lambda price, v: v,
        ["menger", "--wealth", "100", "--nmax", "3"], "price at n_max 3 = {v}"),
    "simulate-time": (
        montecarlo, "time_average_estimate",
        lambda stats, v: dataclasses.replace(stats, estimate=v),
        ["simulate", "--wealth", "100", "--price", "2", "--rounds", "10"],
        "growth_rate_estimate = {v}"),
    "simulate-ensemble": (
        montecarlo, "ensemble_average_estimate",
        lambda stats, v: dataclasses.replace(stats, estimate=v),
        ["simulate", "--mode", "ensemble", "--wealth", "100", "--price", "2", "--samples", "10"],
        "mean_factor_estimate = {v}"),
    "simulate-subinterval": (
        montecarlo, "subinterval_estimate",
        lambda stats, v: dataclasses.replace(stats, stderr=v),
        ["simulate", "--mode", "subinterval", "--wealth", "100", "--price", "2",
         "--subintervals", "6"],
        "stderr = {v}"),
}


class TestNonfiniteResults:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("case", sorted(NONFINITE))
    def test_every_command_fails_naming_the_row(self, monkeypatch, case, value, fmt):
        owner, name, change, argv, named = NONFINITE[case]
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, **kwargs: change(real(*args, **kwargs), value))
        result = run(*argv, "--format", fmt)
        assert result == (1, "", f"error: not a finite number: {named.format(v=value)}\n")


# ====== help ======


#: Every option of each command.
COMMAND_OPTIONS = {
    "evaluate": {"--wealth", "--price", "--utility", "--payout", "--geom-p", "--tol",
                 "--max-terms", "--format"},
    "breakeven": {"--wealth", "--wmin", "--wmax", "--points", "--inset", "--price",
                  "--price-tol", "--payout", "--geom-p", "--tol", "--max-terms", "--format"},
    "simulate": {"--wealth", "--price", "--mode", "--rounds", "--samples", "--subintervals",
                 "--seed", "--workers", "--wealth-path-out", "--payout", "--geom-p", "--tol",
                 "--max-terms", "--format"},
    "menger": {"--wealth", "--nmax", "--format"},
}


class TestHelp:
    def test_top_level_help_names_every_command(self):
        result = run("--help")
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage: petersburg ")
        assert {"--help", "--version"} <= set(re.findall(r"--[\w-]+", result.stdout))
        assert set(COMMAND_OPTIONS) <= set(result.stdout.split())

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_command_help_names_every_option(self, command):
        result = run(command, "--help")
        assert result.exit_code == 0
        assert result.stdout.startswith(f"Usage: petersburg {command} [OPTIONS]")
        named = set(re.findall(r"--[\w-]+", result.stdout))
        assert COMMAND_OPTIONS[command] | {"--help"} <= named


# ====== fast path ======


@contextlib.contextmanager
def argparse_only():
    """Every command line parsed by argparse: the fast path defers all."""
    with mock.patch.object(cli._Parser, "_accept", lambda self, tokens: None):
        yield


#: Values each option is given in the differential test that its parser
#: accepts, all cheap to run; ``{dir}`` is a temporary directory.
ACCEPTED_VALUES = {
    "--wealth": ["100", "10", "1e-3", "-5", "inf"],
    "--price": ["2", "0", "-1e-3", "nan"],
    "--utility": ["log", "sqrt"],
    "--payout": ["bernoulli", "menger", "capped:1000", "table:{dir}/table.csv"],
    "--geom-p": ["0.5", "0.3", "2"],
    "--tol": ["1e-8", "-1"],
    "--max-terms": ["1000", "5"],
    "--format": ["json", "csv"],
    "--wmin": ["10"],
    "--wmax": ["100"],
    "--points": ["2", "0"],
    "--price-tol": ["1e-6"],
    "--mode": ["time", "ensemble", "subinterval"],
    "--rounds": ["10", "1000", "0"],
    "--samples": ["10", "1"],
    "--subintervals": ["10"],
    "--seed": ["0", "3", "-1"],
    "--workers": ["1", "2", "0"],
    "--wealth-path-out": ["{dir}/path.csv", "{dir}", ""],
    "--nmax": ["3", "5", "-1"],
}

#: Values each option is given that its parser refuses; any path is accepted.
REFUSED_VALUES = {
    "--wealth": ["x", ""],
    "--price": ["x"],
    "--utility": ["exp"],
    "--payout": ["capped:x", "table:{dir}/missing.csv", "table:", "roulette"],
    "--geom-p": ["x"],
    "--tol": ["x"],
    "--max-terms": ["1.5", "x"],
    "--format": ["xml"],
    "--wmin": ["x"],
    "--wmax": ["x"],
    "--points": ["x"],
    "--price-tol": ["x"],
    "--mode": ["bogus"],
    "--rounds": ["1e3"],
    "--samples": ["x"],
    "--subintervals": ["x"],
    "--seed": ["x"],
    "--workers": ["x"],
    "--nmax": ["x"],
}

#: Tokens that are no option of any command, or that argparse alone handles.
ODD_TOKENS = ["--help", "-h", "--version", "--", "bogus", "--wealth", "--inset=1", "--nmax",
              "--wealth-path-out", "--weal"]


@st.composite
def command_lines(draw):
    """A command line that a command's parser mostly accepts, with now and
    then a token or a value only argparse handles."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS) * 3 + ["--help", "--version", "x"]))
    options = sorted(COMMAND_OPTIONS.get(command, {"--wealth"}) - {"--inset"})
    flags = [["--inset"]] if "--inset" in COMMAND_OPTIONS.get(command, ()) else []

    def valued(values):
        named = [option for option in options if option in values]
        return st.sampled_from(named).flatmap(lambda option: st.sampled_from(
            values[option]).map(lambda value: [option, value]))

    accepted = st.one_of(valued(ACCEPTED_VALUES), *map(st.just, flags))
    piece = st.one_of(
        accepted, accepted, accepted, valued(REFUSED_VALUES),
        accepted.map(lambda pair: ["=".join(pair)]),
        st.sampled_from(ODD_TOKENS).map(lambda token: [token]),
        st.sampled_from(options).map(lambda option: [option, "--"]),
        st.sampled_from(options).map(lambda option: [f"{option}=--"]),
    )
    # half the lines are ones that argparse accepts, bar a missing --wealth
    prefix = draw(st.sampled_from([["--wealth", "100"], ["--wealth", "100"], []]))
    pieces = draw(st.lists(accepted if draw(st.booleans()) else piece, max_size=5))
    return [command] + prefix + [token for part in pieces for token in part]


def outcome(argv, directory):
    """What ``main`` does on ``argv``: its exit code, stdout and stderr, and
    the bytes of the path file it left."""
    path = directory / "path.csv"
    result = tuple(run(*argv))
    written = path.read_bytes() if path.is_file() else None
    with contextlib.suppress(FileNotFoundError):
        path.unlink()
    return result, written


class TestFastPath:
    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fast-path")
        (directory / "table.csv").write_text("probability,payout\n0.5,1.0\n0.5,4.0\n")
        return directory

    @settings(max_examples=300, deadline=None)
    @given(argv=command_lines())
    @example(argv=["evaluate", "--wealth", "x"])
    @example(argv=["evaluate", "--wealth=100", "--price=2"])
    @example(argv=["menger", "--wealth", "10", "--nmax", "3", "--nmax", "5", "--nmax", "x"])
    @example(argv=["simulate", "--wealth", "100", "--rounds", "10", "--wealth-path-out", "--"])
    @example(argv=["simulate", "--wealth", "100", "--rounds", "10", "--wealth-path-out=--"])
    @example(argv=["breakeven", "--payout", "table:{dir}/missing.csv"])
    @example(argv=["simulate", "--wealth", "100", "--rounds", "10", "--wealth-path-out"])
    def test_main_does_what_argparse_alone_does(self, directory, argv):
        argv = [token.format(dir=directory) for token in argv]
        fast = outcome(argv, directory)
        with argparse_only():
            assert outcome(argv, directory) == fast

    @pytest.mark.parametrize("argv, error", [
        (["evaluate", "--wealth", "x"], "Error: argument --wealth: invalid float value: 'x'"),
        (["evaluate"], "Error: the following arguments are required: --wealth"),
        (["menger", "--wealth", "10", "--nmax", "1.5"],
         "Error: argument --nmax: invalid int value: '1.5'"),
        # ``--`` is never a value, whether it follows the option or an ``=``
        (["simulate", "--wealth", "100", "--rounds", "10", "--wealth-path-out", "--"],
         "Error: argument --wealth-path-out: expected one argument"),
        (["menger", "--wealth", "10", "--nmax", "--"],
         "Error: argument --nmax: expected one argument"),
        (["evaluate", "--wealth", "100", "--format", "--"],
         "Error: argument --format: expected one argument"),
        (["simulate", "--wealth", "100", "--rounds", "10", "--wealth-path-out=--"],
         "Error: argument --wealth-path-out: expected one argument"),
        (["menger", "--wealth", "10", "--nmax=--"],
         "Error: argument --nmax: expected one argument"),
        (["evaluate", "--wealth", "100", "--format=--"],
         "Error: argument --format: expected one argument"),
    ])
    def test_a_refused_command_line_is_refused_by_argparse(self, argv, error, tmp_path,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run(*argv)
        lines = result.stderr.splitlines()
        assert (result.exit_code, result.stdout) == (1, "")
        assert lines[0] == f"Usage: petersburg {argv[0]} [OPTIONS]"
        assert lines[-1] == error
        assert list(tmp_path.iterdir()) == []


#: Valid command lines: one per option of each command, and one per payout
#: form.  ``{table}`` is a payout table file.
SERVED = [
    "evaluate --wealth 100",
    "evaluate --wealth 100 --price 2",
    "evaluate --wealth 100 --utility log",
    "evaluate --wealth 100 --payout bernoulli",
    "evaluate --wealth 100 --payout menger",
    "evaluate --wealth 100 --payout capped:1000",
    "evaluate --wealth 100 --payout table:{table}",
    "evaluate --wealth 100 --geom-p 0.3",
    "evaluate --wealth 100 --tol 1e-8",
    "evaluate --wealth 100 --max-terms 1000",
    "evaluate --wealth 100 --format csv",
    "breakeven --wealth 100",
    "breakeven --wmin 10",
    "breakeven --wmax 100",
    "breakeven --points 2",
    "breakeven --inset",
    "breakeven --inset --price 3",
    "breakeven --price-tol 1e-6",
    "breakeven --payout capped:1000",
    "breakeven --geom-p 0.3",
    "breakeven --tol 1e-8",
    "breakeven --max-terms 1000",
    "breakeven --format csv",
    "simulate --wealth 100",
    "simulate --wealth 100 --price 2",
    "simulate --wealth 100 --mode ensemble",
    "simulate --wealth 100 --rounds 10",
    "simulate --wealth 100 --mode ensemble --samples 10",
    "simulate --wealth 100 --mode subinterval --subintervals 10",
    "simulate --wealth 100 --seed 3",
    "simulate --wealth 100 --workers 2",
    "simulate --wealth 100 --wealth-path-out path.csv",
    "simulate --wealth 100 --payout menger",
    "simulate --wealth 100 --geom-p 0.3",
    "simulate --wealth 100 --tol 1e-8",
    "simulate --wealth 100 --max-terms 1000",
    "simulate --wealth 100 --format csv",
    "menger --wealth 100",
    "menger --wealth 100 --nmax 3 --nmax 5",
    "menger --wealth 100 --format csv",
]


class TestFastPathServes:
    def test_every_option_has_a_line(self):
        named = {(line.split()[0], token) for line in SERVED for token in line.split()}
        for command in COMMAND_OPTIONS:
            options = set(re.findall(r"--[\w-]+", run(command, "--help").stdout)) - {"--help"}
            assert {(command, option) for option in options} <= named

    def test_an_option_with_nargs_is_left_to_argparse(self):
        parser = cli._Parser(prog="petersburg")
        parser.add_argument("--pair", nargs=1)
        assert parser._accept(["--pair", "a"]) is None
        assert parser.parse_args(["--pair", "a"]).pair == ["a"]

    @pytest.mark.parametrize("line", SERVED)
    def test_each_line_is_accepted_as_argparse_parses_it(self, tmp_path, line):
        table = tmp_path / "table.csv"
        table.write_text("probability,payout\n0.5,1.0\n0.5,4.0\n")
        command, *tokens = line.format(table=table).split()
        parser = cli._COMMANDS[command]
        accepted = parser._accept(tokens)
        assert accepted is not None
        with argparse_only():
            assert parser.parse_args(tokens) == accepted
