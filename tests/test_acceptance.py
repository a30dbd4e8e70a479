"""Acceptance suite: one test per promised behavior of the package.

Each test checks the public API against an exact value, an independent
oracle or a seeded statistical bound.  The break-even oracle bisects on
the sign of the mpmath series in ``mp_oracle``; the truncated Menger
criterion, which nothing else sums, is bisected inline here.  Run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
behavior.
"""

import math
import time

import numpy as np

from petersburg import (
    Capped,
    Classification,
    GambleSpec,
    Menger,
    PlayerState,
    Table,
    TruncationPolicy,
    UndefinedReason,
    bernoulli_literal_lhs,
    breakeven_price,
    draw_waiting_times,
    ensemble_average_estimate,
    ensemble_average_growth,
    expected_payout,
    expected_utility_change,
    menger_partial_sum_price,
    simulate_trajectory,
    subinterval_estimate,
    time_average_estimate,
    time_average_growth,
)
from mp_oracle import breakeven
from test_cli import run

# High-precision reference values, computed independently with 50-digit
# decimal arithmetic and frozen here.
GROWTH_100_2 = 0.0234834936741544663694884870358
NEAR_RUIN_GROWTH = (
    -0.74463781262743724603,  # wealth 1 + 10**-1
    -1.8366374787786185034,   # wealth 1 + 10**-2
    -2.9816962737444441222,   # wealth 1 + 10**-3
    -4.1323621964778093757,   # wealth 1 + 10**-4
    -5.2835920478930999099,   # wealth 1 + 10**-5
    -6.4348783245546749439,   # wealth 1 + 10**-6
)
LARGE_WEALTH_GROWTH = (
    (1e3, 0.0039629732495223426764),
    (1e4, 0.00056164077256112192476),
    (1e5, 0.00007276321357172773789),
    (1e6, 8.9371504867132020128e-6),
)


def _oracle_guaranteed_win_price(wealth: float, terms: int) -> float:
    """Bisection on the truncated all-or-nothing criterion for the gamble
    whose round-n payout multiplies wealth by e**(2**n).

    The log gain of round n is computed numerically where it is
    representable and via the exact cancellation ln(w * e**x / w) = x
    beyond the overflow range.
    """
    gains = 0.0
    for n in range(1, terms + 1):
        x = 2.0 ** n
        if x < 700.0:
            gains += 0.5 ** n * math.log1p(math.expm1(x))
        else:
            gains += 0.5 ** n * x
    lo, hi = 0.0, wealth * (1.0 - 1e-16)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gains + math.log1p(-mid / wealth) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestAcceptance:
    def test_capped_expectation_is_fifteen_dollars_and_fast(self):
        spec = GambleSpec(payout_rule=Capped(1e9))
        result = expected_payout(spec)  # warm-up
        assert result.is_converged
        assert abs(result.value - 15.0) <= 1e-12
        best = math.inf
        for _ in range(7):
            start = time.perf_counter()
            expected_payout(spec)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3

    def test_unbounded_expectation_and_ensemble_growth_diverge(self):
        spec = GambleSpec()
        for wealth in (0.5, 1.0, 10.0, 100.0, 1e4, 1e6):
            for price in (0.0, 1.0, 0.5 * wealth, wealth, 10.0 * wealth):
                state = PlayerState(wealth=wealth, ticket_price=price)
                payout_result = expected_payout(spec, wealth=wealth)
                growth_result = ensemble_average_growth(state, spec)
                assert (payout_result.classification
                        is Classification.DIVERGES_POSITIVE)
                assert (growth_result.classification
                        is Classification.DIVERGES_POSITIVE)

    def test_log_utility_identity_on_wealth_price_grid(self):
        spec = GambleSpec()
        for wealth in np.geomspace(2.0, 1e6, 20):
            for price in np.linspace(0.0, wealth - 1.0, 20):
                state = PlayerState(wealth=float(wealth), ticket_price=float(price))
                by_utility = expected_utility_change(state, spec, "log")
                by_time = time_average_growth(state, spec)
                assert by_utility.is_converged
                assert by_time.is_converged
                assert abs(by_utility.value - by_time.value) <= 1e-12

    def test_bankruptcy_boundary_and_decay_to_ruin(self):
        spec = GambleSpec()
        # Any state that the worst round wipes out (or worse) is undefined.
        for wealth, price in ((1.0, 2.0), (5.0, 6.0), (5.0, 6.5),
                              (99.0, 100.0), (10.0, 1000.0)):
            result = time_average_growth(PlayerState(wealth, price), spec)
            assert result.classification is Classification.UNDEFINED
            assert result.reason is UndefinedReason.BANKRUPTCY_TERM
        # Just above the boundary the growth rate plunges without bound.
        values = []
        for k, frozen in enumerate(NEAR_RUIN_GROWTH, start=1):
            state = PlayerState(wealth=1.0 + 10.0 ** -k, ticket_price=2.0)
            result = time_average_growth(state, spec)
            assert result.is_converged
            assert abs(result.value - frozen) < 1e-8
            values.append(result.value)
        for earlier, later in zip(values, values[1:]):
            assert later < earlier
        assert values[-1] < -6.0

    def test_growth_rate_vanishes_at_large_wealth(self):
        spec = GambleSpec()
        magnitudes = []
        for wealth, frozen in LARGE_WEALTH_GROWTH:
            state = PlayerState(wealth=wealth, ticket_price=2.0)
            result = time_average_growth(state, spec)
            assert result.is_converged
            assert abs(result.value - frozen) < 1e-9
            assert abs(result.value) < 10.0 / wealth
            magnitudes.append(abs(result.value))
        for earlier, later in zip(magnitudes, magnitudes[1:]):
            assert later < earlier

    def test_breakeven_solver_matches_bisection_oracle_quickly(self):
        spec = GambleSpec()
        tight = TruncationPolicy(tolerance=1e-13)
        breakeven_price(10.0, spec)  # warm-up
        for wealth in (10.0, 100.0, 1000.0, 10000.0):
            start = time.perf_counter()
            price = breakeven_price(wealth, spec)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.1
            residual = time_average_growth(PlayerState(wealth, price), spec, tight)
            assert abs(residual.value) <= 1e-10
            assert abs(price - breakeven(spec, wealth)) <= 1e-8

    def test_guaranteed_win_prices_match_root_finding(self):
        for terms in (1, 5, 10, 30):
            closed_form = menger_partial_sum_price(100.0, terms)
            root = _oracle_guaranteed_win_price(100.0, terms)
            assert abs(closed_form - root) <= 1e-10
        # The all-or-nothing accounting of the same gamble still says yes
        # below full wealth and has no answer at full wealth.
        spec = GambleSpec(payout_rule=Menger())
        below = bernoulli_literal_lhs(PlayerState(100.0, 99.9), spec)
        assert below.classification is Classification.DIVERGES_POSITIVE
        at_wealth = bernoulli_literal_lhs(PlayerState(100.0, 100.0), spec)
        assert at_wealth.classification is Classification.UNDEFINED

    def test_simulated_growth_matches_series_prediction(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec()
        analytic = time_average_growth(state, spec, TruncationPolicy(1e-13))
        assert abs(analytic.value - GROWTH_100_2) < 1e-12
        start = time.perf_counter()
        trajectory = simulate_trajectory(state, spec, 1_000_000, 0)
        stats = time_average_estimate(trajectory)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert abs(stats.estimate - analytic.value) <= 3.0 * stats.stderr

    def test_ensemble_medians_rise_while_time_stderr_shrinks(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec()
        # Finite-sample averages of the growth factor keep creeping upward
        # as the sample grows: no single typical value is ever approached.
        medians = []
        for samples in (1_000, 10_000, 100_000, 1_000_000):
            estimates = [
                ensemble_average_estimate(state, spec, samples, rep).estimate
                for rep in range(100)
            ]
            medians.append(float(np.median(estimates)))
        for earlier, later in zip(medians, medians[1:]):
            assert later > earlier
        # The per-trajectory growth estimate, by contrast, tightens like a
        # well-behaved average: 100x the rounds buys ~10x the precision.
        short = time_average_estimate(
            simulate_trajectory(state, spec, 10_000, 0))
        long = time_average_estimate(
            simulate_trajectory(state, spec, 1_000_000, 0))
        assert short.stderr / long.stderr >= 10.0

    def test_subinterval_estimator_bridges_both_averages(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec()
        # Many fine slices: the estimator lands on the time-average rate.
        fine = subinterval_estimate(state, spec, 1_000_000, 0)
        assert abs(fine.estimate - GROWTH_100_2) <= 3.0 * fine.stderr
        # One slice: the estimator is exactly the simple rate of return,
        # whatever the draw happened to be.  One-row tables force each
        # waiting-time payout in turn, making the draw deterministic.
        for n in (1, 2, 3, 8, 20):
            payout = 2.0 ** (n - 1)
            factor = (100.0 - 2.0 + payout) / 100.0
            certainty = GambleSpec(payout_rule=Table(((1.0, payout),)))
            stats = subinterval_estimate(state, certainty, 1)
            assert stats.estimate == factor - 1.0
        first = int(draw_waiting_times(spec, 1, 0)[0])
        natural = subinterval_estimate(state, spec, 1, 0)
        assert natural.estimate == (100.0 - 2.0 + 2.0 ** (first - 1)) / 100.0 - 1.0

    def test_simulate_cli_is_byte_identical_across_workers(self):
        invocations = (
            ["simulate", "--mode", "time", "--wealth", "100", "--price", "2",
             "--rounds", "70000", "--seed", "5"],
            ["simulate", "--mode", "ensemble", "--wealth", "100", "--price", "2",
             "--samples", "70000", "--seed", "5"],
            ["simulate", "--mode", "subinterval", "--wealth", "100", "--price", "2",
             "--rounds", "70000", "--seed", "5"],
        )
        for base in invocations:
            outputs = set()
            for workers in ("1", "2", "8"):
                for _ in range(2):
                    result = run(*base, "--workers", workers)
                    assert result.exit_code == 0
                    outputs.add(result.output)
            assert len(outputs) == 1
