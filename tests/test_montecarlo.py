"""Tests for seeded simulation: draws, trajectories, and estimators."""

import json
import math
import os
import tracemalloc
from concurrent.futures import Future

import mpmath
import numpy as np
import pytest

from petersburg import (
    BankruptTrajectoryError,
    BernoulliOriginal,
    Capped,
    GambleSpec,
    Menger,
    NonpositiveReturnError,
    PlayerState,
    SimulationConfig,
    Table,
    ensemble_average_estimate,
    draw_waiting_times,
    growth_factor,
    simulate_trajectory,
    subinterval_estimate,
    time_average_census,
    time_average_estimate,
    time_average_growth,
    trajectory_blocks,
)
from petersburg import montecarlo
from petersburg.cli import main

GROWTH_100_2 = 0.0234834936741544663694884870358
#: The sampler's CPU count, taken before a fixture replaces it.
USABLE_CPUS = montecarlo._usable_cpus


# ====== Seeded draws ======


class TestDrawWaitingTimes:
    def test_same_seed_same_draws(self):
        spec = GambleSpec()
        a = draw_waiting_times(spec, 10_000, SimulationConfig(seed=7))
        b = draw_waiting_times(spec, 10_000, SimulationConfig(seed=7))
        assert np.array_equal(a, b)

    def test_different_seed_different_draws(self):
        spec = GambleSpec()
        a = draw_waiting_times(spec, 10_000, SimulationConfig(seed=7))
        b = draw_waiting_times(spec, 10_000, SimulationConfig(seed=8))
        assert not np.array_equal(a, b)

    def test_worker_count_does_not_change_draws(self):
        # 200k draws span several generator blocks, so multi-worker runs
        # really do split the work — and must still agree bit for bit.
        spec = GambleSpec()
        serial = draw_waiting_times(spec, 200_000, SimulationConfig(seed=3))
        two = draw_waiting_times(spec, 200_000, SimulationConfig(seed=3, workers=2))
        eight = draw_waiting_times(spec, 200_000, SimulationConfig(seed=3, workers=8))
        assert np.array_equal(serial, two)
        assert np.array_equal(serial, eight)

    def test_prefix_property(self):
        # Asking for fewer draws yields a prefix of the longer run.
        spec = GambleSpec()
        short = draw_waiting_times(spec, 1_000, SimulationConfig(seed=5))
        long = draw_waiting_times(spec, 100_000, SimulationConfig(seed=5))
        assert np.array_equal(short, long[:1_000])

    def test_draws_are_positive_integers(self):
        draws = draw_waiting_times(GambleSpec(), 50_000, SimulationConfig(seed=1))
        assert draws.min() >= 1

    def test_geometric_mean_waiting_time(self):
        draws = draw_waiting_times(GambleSpec(), 200_000, SimulationConfig(seed=2))
        assert abs(draws.mean() - 2.0) < 0.02

    def test_skewed_coin_changes_the_law(self):
        spec = GambleSpec(probability_parameter=0.9)
        draws = draw_waiting_times(spec, 200_000, SimulationConfig(seed=2))
        assert abs(draws.mean() - 1.0 / 0.9) < 0.01

    def test_table_draws_stay_in_support(self):
        table = Table(((0.5, 1.0), (0.25, 2.0), (0.25, 8.0)))
        spec = GambleSpec(payout_rule=table)
        draws = draw_waiting_times(spec, 100_000, SimulationConfig(seed=4))
        assert draws.min() >= 1
        assert draws.max() <= 3
        first = float(np.mean(draws == 1))
        assert abs(first - 0.5) < 0.01

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            draw_waiting_times(GambleSpec(), 0)

    def test_goodness_of_fit_to_the_geometric_law(self):
        # Pearson chi-square over the cells n = 1..10 plus the pooled
        # tail n > 10.  With 10 degrees of freedom the critical value at
        # significance 1e-3 is 29.588; the seeded draws must not be
        # distinguishable from the half-half-half law at that level.
        total = 1_000_000
        draws = draw_waiting_times(GambleSpec(), total, SimulationConfig(seed=0))
        counts = np.bincount(draws, minlength=12)
        observed = [int(counts[n]) for n in range(1, 11)]
        observed.append(total - sum(observed))
        expected = [total * 0.5**n for n in range(1, 11)]
        expected.append(total * 0.5**10)
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        assert chi2 < 29.588


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.seed == 0
        assert config.workers == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=-1)
        with pytest.raises(ValueError):
            SimulationConfig(workers=0)


# ====== Trajectories ======


class TestSimulateTrajectory:
    def test_path_shape_and_start(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 1_000)
        assert trajectory.rounds == 1_000
        assert len(trajectory.log_wealth_path) == 1_001
        assert abs(trajectory.log_wealth_path[0] - math.log(100.0)) < 1e-15
        assert abs(trajectory.wealth_path[0] - 100.0) < 1e-12

    def test_reproducible(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        a = simulate_trajectory(state, GambleSpec(), 5_000, SimulationConfig(seed=11))
        b = simulate_trajectory(state, GambleSpec(), 5_000, SimulationConfig(seed=11))
        assert np.array_equal(a.log_wealth_path, b.log_wealth_path)
        assert np.array_equal(a.waiting_times, b.waiting_times)

    def test_path_accumulates_logged_growth_factors(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 100)
        factors = trajectory.growth_factors()
        rebuilt = math.log(100.0) + np.cumsum(np.log(factors))
        assert np.allclose(trajectory.log_wealth_path[1:], rebuilt, atol=1e-12)

    def test_growth_factors_match_waiting_times(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 100)
        for n, factor in zip(trajectory.waiting_times, trajectory.growth_factors()):
            expected = (100.0 - 2.0 + 2.0 ** (int(n) - 1)) / 100.0
            assert abs(factor - expected) < 1e-15

    def test_survivor_has_no_bankruptcy_marker(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 1_000)
        assert trajectory.bankrupt_at is None
        assert trajectory.bankrupt_wealth is None

    def test_bankruptcy_truncates_the_path(self):
        # Price 11 against wealth 10: the shortest game zeroes the player.
        state = PlayerState(wealth=10.0, ticket_price=11.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 1_000,
                                         SimulationConfig(seed=0))
        assert trajectory.bankrupt_at is not None
        assert trajectory.bankrupt_at <= 1_000
        assert len(trajectory.log_wealth_path) == trajectory.bankrupt_at
        assert trajectory.bankrupt_wealth is not None
        assert trajectory.bankrupt_wealth <= 0.0

    def test_rounds_must_be_positive(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        with pytest.raises(ValueError):
            simulate_trajectory(state, GambleSpec(), 0)


# ====== Time-average estimator ======


class TestTimeAverageEstimate:
    def test_matches_series_value(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 200_000,
                                         SimulationConfig(seed=0))
        stats = time_average_estimate(trajectory)
        assert abs(stats.estimate - GROWTH_100_2) < 5.0 * stats.stderr
        assert stats.count == 200_000

    def test_stderr_scale(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 200_000,
                                         SimulationConfig(seed=0))
        stats = time_average_estimate(trajectory)
        # Per-round log returns have spread about 0.149 here.
        assert abs(stats.stderr - 0.149 / math.sqrt(200_000)) < 0.05 * stats.stderr

    def test_census_accounts_for_every_round(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 50_000,
                                         SimulationConfig(seed=0))
        stats = time_average_estimate(trajectory)
        assert sum(stats.frequencies.values()) == stats.count
        assert stats.max_n == max(stats.frequencies)
        assert stats.max_n == int(trajectory.waiting_times.max())
        # About half of all draws stop at the first toss.
        assert abs(stats.frequencies[1] / stats.count - 0.5) < 0.01

    def test_bankrupt_trajectory_rejected(self):
        state = PlayerState(wealth=10.0, ticket_price=11.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 10_000,
                                         SimulationConfig(seed=0))
        with pytest.raises(BankruptTrajectoryError):
            time_average_estimate(trajectory)

    def test_needs_two_rounds(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 1)
        with pytest.raises(ValueError):
            time_average_estimate(trajectory)


# ====== Sub-interval estimator ======


class TestSubintervalEstimate:
    def test_single_interval_equals_simple_return(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        config = SimulationConfig(seed=0)
        stats = subinterval_estimate(state, GambleSpec(), 1, config)
        n = int(draw_waiting_times(GambleSpec(), 1, config)[0])
        factor = (100.0 - 2.0 + 2.0 ** (n - 1)) / 100.0
        assert stats.estimate == factor - 1.0
        assert stats.count == 1
        assert math.isinf(stats.stderr)
        assert stats.frequencies == {n: 1}

    def test_forced_single_draw_is_exact(self):
        # A one-row table makes the drawn return deterministic, so the
        # single-slice estimate must equal the simple return exactly.
        for payout in (0.0, 2.0, 7.5, 1000.0):
            table = Table(((1.0, payout),))
            state = PlayerState(wealth=100.0, ticket_price=2.0)
            stats = subinterval_estimate(state, GambleSpec(payout_rule=table), 1)
            assert stats.estimate == (100.0 - 2.0 + payout) / 100.0 - 1.0

    def test_constant_unit_return_estimates_zero_at_any_slicing(self):
        # Payout exactly refunding the price pins every return at 1, so
        # the rate is 0 with no spread however finely time is sliced.
        table = Table(((1.0, 2.0),))
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        for q in (1, 2, 100, 10_000):
            stats = subinterval_estimate(state, GambleSpec(payout_rule=table), q)
            assert stats.estimate == 0.0
            if q > 1:
                assert stats.stderr == 0.0

    def test_many_intervals_approach_time_average(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        config = SimulationConfig(seed=0)
        fine = subinterval_estimate(state, GambleSpec(), 200_000, config)
        trajectory = simulate_trajectory(state, GambleSpec(), 200_000, config)
        coarse = time_average_estimate(trajectory)
        assert abs(fine.estimate - coarse.estimate) < 1e-4
        assert abs(fine.estimate - GROWTH_100_2) < 5.0 * fine.stderr

    def test_shares_the_trajectory_draw_stream(self):
        # The q sampled returns are the first q draws of the seeded
        # experiment -- the same outcomes a trajectory plays.
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        config = SimulationConfig(seed=12)
        stats = subinterval_estimate(state, GambleSpec(), 500, config)
        trajectory = simulate_trajectory(state, GambleSpec(), 500, config)
        factors = trajectory.growth_factors()
        rates = 500 * np.expm1(np.log(factors) / 500)
        assert abs(stats.estimate - float(rates.mean())) < 1e-15
        assert stats.frequencies == {
            int(n): int(c)
            for n, c in zip(*np.unique(trajectory.waiting_times, return_counts=True))
        }

    def test_finer_slices_never_raise_the_estimate(self):
        # For the same draws, a return held for a shorter slice contributes
        # less: q * (r**(1/q) - 1) decreases toward log(r) as q grows.
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        config = SimulationConfig(seed=0)
        full = subinterval_estimate(state, GambleSpec(), 50_000, config)
        trajectory = simulate_trajectory(state, GambleSpec(), 50_000, config)
        logarithmic = time_average_estimate(trajectory)
        assert full.estimate >= logarithmic.estimate
        assert abs(full.estimate - logarithmic.estimate) < 1e-4
        # A single slice is the raw first-round return, which for this seed
        # sits far above the long-run growth rate.
        one = subinterval_estimate(state, GambleSpec(), 1, config)
        assert one.estimate > full.estimate

    def test_interval_count_must_be_positive(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        with pytest.raises(ValueError):
            subinterval_estimate(state, GambleSpec(), 0)

    def test_nonpositive_return_rejected(self):
        # Price 11 against wealth 10: the shortest game zeroes the player,
        # and a zero return has no real fractional-period rate.
        state = PlayerState(wealth=10.0, ticket_price=11.0)
        with pytest.raises(NonpositiveReturnError):
            subinterval_estimate(state, GambleSpec(), 10_000, SimulationConfig(seed=0))


# ====== Ensemble estimator ======


class TestEnsembleAverageEstimate:
    def test_bounded_gamble_matches_expectation(self):
        # Fair table with mean payout 3 at wealth 10, price 2: the mean
        # growth factor is 1.1.
        table = Table(((0.5, 1.0), (0.25, 2.0), (0.25, 8.0)))
        state = PlayerState(wealth=10.0, ticket_price=2.0)
        stats = ensemble_average_estimate(state, GambleSpec(payout_rule=table),
                                          200_000, SimulationConfig(seed=0))
        assert abs(stats.estimate - 1.1) < 5.0 * stats.stderr
        assert stats.count == 200_000

    def test_capped_gamble_matches_expectation(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec(payout_rule=Capped(1e9))
        stats = ensemble_average_estimate(state, spec, 200_000,
                                          SimulationConfig(seed=0))
        # Rare huge payouts make this a very noisy estimator; sanity only.
        assert 0.9 < stats.estimate < 1.5

    def test_census_accounts_for_every_player(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        stats = ensemble_average_estimate(state, GambleSpec(), 100_000,
                                          SimulationConfig(seed=0))
        assert sum(stats.frequencies.values()) == stats.count
        assert stats.max_n == max(stats.frequencies)
        assert abs(stats.frequencies[1] / stats.count - 0.5) < 0.01

    def test_worker_count_does_not_change_estimate(self):
        table = Table(((0.5, 1.0), (0.25, 2.0), (0.25, 8.0)))
        state = PlayerState(wealth=10.0, ticket_price=2.0)
        spec = GambleSpec(payout_rule=table)
        serial = ensemble_average_estimate(state, spec, 150_000,
                                           SimulationConfig(seed=9))
        eight = ensemble_average_estimate(state, spec, 150_000,
                                          SimulationConfig(seed=9, workers=8))
        assert serial.estimate == eight.estimate
        assert serial.stderr == eight.stderr
        assert serial.frequencies == eight.frequencies

    def test_needs_two_samples(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        with pytest.raises(ValueError):
            ensemble_average_estimate(state, GambleSpec(), 1)


# ====== Consistency between analytic series and simulation ======


class TestAnalyticAgreement:
    def test_time_average_series_predicts_simulation(self):
        state = PlayerState(wealth=50.0, ticket_price=3.0)
        spec = GambleSpec()
        analytic = time_average_growth(state, spec).value
        trajectory = simulate_trajectory(state, spec, 400_000,
                                         SimulationConfig(seed=1))
        stats = time_average_estimate(trajectory)
        assert abs(stats.estimate - analytic) < 5.0 * stats.stderr

    def test_capped_mean_factor_approaches_its_expectation(self):
        # With the bank cap the expectation is finite: the mean factor
        # converges to 1 + (15 - price) / wealth as the sample grows.
        state = PlayerState(wealth=1000.0, ticket_price=2.0)
        spec = GambleSpec(payout_rule=Capped(1e9))
        # Convergence is slow: the factor's spread is dominated by the
        # rare near-cap payouts, so only the trend is sharply testable.
        # A single seed can draw one of them, so the typical error over
        # 100 seeds is compared.
        target = 1.0 + (15.0 - 2.0) / 1000.0
        errors = [
            np.median([abs(ensemble_average_estimate(state, spec, samples,
                                                     SimulationConfig(seed=seed)).estimate
                           - target)
                       for seed in range(100)])
            for samples in (1_000, 1_000_000)
        ]
        assert errors[1] < errors[0]
        assert errors[1] < 0.05


# ====== Census reductions ======


#: Three full blocks and a partial one.
CENSUS_ROUNDS = 3 * 2**16 + 123

#: One round in 10**5 pays nothing, and at price 10.5 against wealth 10
#: that round is ruinous.  At seed 1 the first one falls at round 129 818,
#: in the second block.
RARE_RUIN = Table(((0.99999, 10.0), (1e-05, 0.0)))
RARE_RUIN_STATE = PlayerState(wealth=10.0, ticket_price=10.5)


def one_cumsum_path(state, spec, rounds, config):
    """The log-wealth path as one cumsum over every round drawn."""
    draws = draw_waiting_times(spec, rounds, config)
    ns = np.arange(1, int(draws.max()) + 1)
    fatal = np.flatnonzero(np.isin(draws, ns[montecarlo._growth_factors(state, spec, ns) <= 0.0]))
    survived = draws[: fatal[0]] if fatal.size else draws
    logs = np.concatenate(([math.nan], montecarlo._log_growth_factors(state, spec, ns)))
    path = np.empty(len(survived) + 1)
    path[0] = math.log(state.wealth)
    np.cumsum(logs[survived], out=path[1:])
    path[1:] += path[0]
    return path


class TestTrajectoryBlocks:
    @pytest.mark.parametrize("state, spec, rounds, workers", [
        (PlayerState(wealth=100.0, ticket_price=2.0), GambleSpec(), CENSUS_ROUNDS, 1),
        (PlayerState(wealth=100.0, ticket_price=2.0), GambleSpec(), CENSUS_ROUNDS, 2),
        (PlayerState(wealth=100.0, ticket_price=60.0), GambleSpec(probability_parameter=0.3),
         2**16 + 1, 2),
        (PlayerState(wealth=100.0), GambleSpec(payout_rule=Menger()), 1000, 1),
        (RARE_RUIN_STATE, GambleSpec(payout_rule=RARE_RUIN), 200_000, 2),
    ])
    def test_blocks_round_the_path_as_one_cumsum(self, state, spec, rounds, workers):
        config = SimulationConfig(seed=1, workers=workers)
        blocks = list(trajectory_blocks(state, spec, rounds, config))
        assert all(len(draws) <= 2**16 for draws, _ in blocks)
        path = np.concatenate([log_wealth for _, log_wealth in blocks])
        assert path.tobytes() == one_cumsum_path(state, spec, rounds, config).tobytes()
        trajectory = simulate_trajectory(state, spec, rounds, config)
        assert trajectory.log_wealth_path.tobytes() == path.tobytes()
        assert np.array_equal(trajectory.waiting_times,
                              np.concatenate([draws for draws, _ in blocks]))

    def test_no_block_follows_a_bankruptcy(self):
        spec = GambleSpec(payout_rule=RARE_RUIN)
        blocks = list(trajectory_blocks(RARE_RUIN_STATE, spec, 10 * 2**16,
                                        SimulationConfig(seed=1)))
        assert len(blocks) == 2
        draws, log_wealth = blocks[-1]
        assert draws[-1] == 2  # the payout-0 outcome, ruinous at this price
        assert len(draws) == len(log_wealth) + 1
        assert 2**16 + len(draws) == 129_818


#: Laws of the ensemble census tests: three geometric ones, the deepest
#: drawn mostly past the multinomial's depth, and a table.
CENSUS_LAWS = {
    "p=0.5": GambleSpec(),
    "p=0.05": GambleSpec(probability_parameter=0.05),
    "p=1e-3": GambleSpec(probability_parameter=1e-3),
    "table": GambleSpec(payout_rule=Table(((0.5, 1.0), (0.3, 2.0), (0.15, 8.0),
                                           (0.04, 20.0), (0.01, 100.0)))),
}

#: Run lengths of the census law tests.  Past the first 2**14 draws, drawn
#: one by one, 20 000 draws cut the first block's census inside a part;
#: the others count a full first block and cut the second one's census:
#: 600 draws from the first leaf, and 40 001 draws, which take six parts
#: whole, halve the last and cut a leaf.
LAW_SAMPLES = (20_000, 2**16 + 600, 2**16 + 40_001)

#: Significance of the chi-square tests of the census law, fixed before
#: any was run.
LAW_ALPHA = 1e-4


def pooled_frequencies(seeds, draw):
    """Counts of each waiting time over ``draw(seed)`` censuses, as an array."""
    pooled = np.zeros(1, dtype=np.int64)
    for seed in seeds:
        counts = draw(seed)
        if len(counts) > len(pooled):
            pooled = np.concatenate([pooled, np.zeros(len(counts) - len(pooled), np.int64)])
        pooled[:len(counts)] += counts
    return pooled


def ensemble_counts(spec, samples, seed):
    frequencies = ensemble_average_estimate(PlayerState(wealth=100.0, ticket_price=2.0),
                                            spec, samples,
                                            SimulationConfig(seed=seed)).frequencies
    counts = np.zeros(max(frequencies) + 1, dtype=np.int64)
    counts[list(frequencies)] = list(frequencies.values())
    return counts


def cells(probabilities, total, least=20.0):
    """Cell edges ``[1, 2), [2, 3), ..., [k, inf)``: one waiting time a cell
    while its expected count is at least ``least``, then the rest, which
    holds the last waiting time of ``probabilities``."""
    last = 1
    while last + 1 < len(probabilities) and total * probabilities[last] >= least:
        last += 1
    return list(range(1, last + 1))


def chi2_sf(statistic, df):
    """Upper tail of the chi-square law with ``df`` degrees of freedom."""
    return float(mpmath.gammainc(df / 2.0, statistic / 2.0, mpmath.inf, regularized=True))


def cell_counts(counts, edges):
    """Counts of ``counts`` (indexed by waiting time) in each cell of ``edges``."""
    sums = [int(counts[lo:hi].sum()) for lo, hi in zip(edges, edges[1:])]
    return np.array(sums + [int(counts[edges[-1]:].sum())], dtype=np.float64)


class TestEnsembleCensusLaw:
    """The ensemble census, drawn as counts, against the exact law and
    against the census of the drawn waiting times."""

    @pytest.mark.parametrize("samples", LAW_SAMPLES)
    @pytest.mark.parametrize("law", sorted(CENSUS_LAWS))
    def test_pooled_census_fits_the_law(self, law, samples):
        spec = CENSUS_LAWS[law]
        seeds = range(200)
        pooled = pooled_frequencies(seeds,
                                    lambda seed: ensemble_counts(spec, samples, seed))
        total = samples * len(seeds)
        assert pooled.sum() == total
        rule, p = spec.payout_rule, spec.probability_parameter
        depth = len(pooled) + 1 if rule.support_size is None else rule.support_size + 1
        probabilities = [0.0] + [rule.probability(n, p) for n in range(1, depth)]
        edges = cells(probabilities, total)
        expected = [total * sum(probabilities[lo:hi]) for lo, hi in zip(edges, edges[1:])]
        expected = np.array(expected + [total - sum(expected)])
        observed = cell_counts(pooled, edges)
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert chi2_sf(statistic, len(edges) - 1) > LAW_ALPHA

    @pytest.mark.parametrize("samples", LAW_SAMPLES)
    @pytest.mark.parametrize("law", sorted(CENSUS_LAWS))
    def test_census_matches_the_drawn_waiting_times(self, law, samples):
        spec = CENSUS_LAWS[law]
        seeds = range(100)
        counted = pooled_frequencies(seeds,
                                     lambda seed: ensemble_counts(spec, samples, seed))
        # other seeds: an ensemble's first 2**14 draws are the trajectory's
        drawn = pooled_frequencies(seeds, lambda seed: np.bincount(
            draw_waiting_times(spec, samples, SimulationConfig(seed=1000 + seed))))
        both = np.zeros(max(len(counted), len(drawn)))
        both[:len(counted)] += counted
        both[:len(drawn)] += drawn
        edges = cells(both / both.sum(), both.sum())
        a, b = cell_counts(counted, edges), cell_counts(drawn, edges)
        # equal totals: each cell's difference has variance a + b
        statistic = float(((a - b) ** 2 / (a + b)).sum())
        assert chi2_sf(statistic, len(edges) - 1) > LAW_ALPHA

    @pytest.mark.parametrize("spec", [GambleSpec(), GambleSpec(probability_parameter=0.05)],
                             ids=["p=0.5", "p=0.05"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_shorter_run_is_a_sub_census_of_a_longer_one(self, spec, seed):
        sizes = (1, 2, 1000, 1024, 2**14, 2**14 + 1, 40_000, 40_001, 65_535, 65_536,
                 65_537, CENSUS_ROUNDS)
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        config = SimulationConfig(seed=seed)
        censuses = [montecarlo._census(state, spec, size, config, stop_at_ruin=False)[0]
                    for size in sizes]
        width = max(len(counts) for counts in censuses)
        censuses = [np.pad(counts, (0, width - len(counts))) for counts in censuses]
        for size, counts in zip(sizes, censuses):
            assert counts.sum() == size
        for i, shorter in enumerate(censuses):
            for longer in censuses[i + 1:]:
                assert (shorter <= longer).all()

    def test_the_first_draws_are_those_of_the_trajectory(self):
        # an ensemble of up to 2**14 players draws its waiting times one by one
        spec = GambleSpec(probability_parameter=0.05)
        for samples in (2, 1000, 2**14):
            counts = ensemble_counts(spec, samples, seed=7)
            drawn = np.bincount(draw_waiting_times(spec, samples, SimulationConfig(seed=7)))
            assert np.array_equal(counts, drawn)

    def test_partial_block_output_is_worker_invariant(self, capsys):
        # 17 blocks, the last partial, in three census tasks
        outputs = set()
        for workers in ("1", "2", "8"):
            assert main(["simulate", "--mode", "ensemble", "--wealth", "100",
                         "--price", "2", "--samples", str(2**20 + 12_345),
                         "--seed", "3", "--workers", workers]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1


class TestCensusReducer:
    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError, match="rounds must be positive"):
            time_average_census(PlayerState(100.0, 2.0), GambleSpec(), 0)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_streaming_estimate_equals_the_trajectory_estimate(self, workers):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        config = SimulationConfig(seed=4, workers=workers)
        streamed = time_average_estimate(
            time_average_census(state, GambleSpec(), CENSUS_ROUNDS, config))
        stored = time_average_estimate(
            simulate_trajectory(state, GambleSpec(), CENSUS_ROUNDS, config))
        assert streamed == stored
        assert streamed.count == CENSUS_ROUNDS

    def test_every_mode_is_worker_invariant(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec()

        def estimates(workers):
            config = SimulationConfig(seed=6, workers=workers)
            return (
                time_average_estimate(
                    time_average_census(state, spec, CENSUS_ROUNDS, config)),
                subinterval_estimate(state, spec, CENSUS_ROUNDS, config),
                ensemble_average_estimate(state, spec, CENSUS_ROUNDS, config),
            )

        serial = estimates(1)
        assert estimates(2) == serial
        assert estimates(8) == serial

    def test_first_ruin_past_the_first_block(self, tmp_path, capsys):
        spec = GambleSpec(payout_rule=RARE_RUIN)
        config = SimulationConfig(seed=1, workers=2)
        trajectory = simulate_trajectory(RARE_RUIN_STATE, spec, 200_000, config)
        assert trajectory.bankrupt_at > 2**16

        census = time_average_census(RARE_RUIN_STATE, spec, 200_000, config)
        assert census.bankrupt_at == trajectory.bankrupt_at
        assert census.bankrupt_wealth == trajectory.bankrupt_wealth

        with pytest.raises(NonpositiveReturnError,
                           match=f"draw {trajectory.bankrupt_at} yields"):
            subinterval_estimate(RARE_RUIN_STATE, spec, 200_000, config)

        table = tmp_path / "rare-ruin.csv"
        table.write_text("probability,payout\n0.99999,10.0\n1e-05,0.0\n")
        status = main(["simulate", "--wealth", "10", "--price", "10.5",
                       "--payout", f"table:{table}", "--rounds", "200000",
                       "--seed", "1", "--workers", "2"])
        assert status == 2
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["bankrupt_at"] == trajectory.bankrupt_at

    def test_first_ruin_inside_a_later_census_task(self):
        # Growth factors 1.25 and 0.8 keep log wealth a driftless walk, so
        # the bankrupt wealth is a nonzero double.  At seed 0 the first
        # ruinous round is 1 374 745, in block 20: not the first block of
        # its census task, and tasks after it are drawn in parallel.
        spec = GambleSpec(payout_rule=Table(((0.5, 13.0), (0.499999, 8.5), (1e-06, 0.0))))
        state = PlayerState(wealth=10.0, ticket_price=10.5)
        rounds = 2**21
        trajectory = simulate_trajectory(state, spec, rounds, SimulationConfig(seed=0))
        assert trajectory.bankrupt_at == 1_374_745
        assert (trajectory.bankrupt_at - 1) // 2**16 % montecarlo._TASK_BLOCKS > 0
        assert trajectory.bankrupt_wealth < 0.0
        for workers in (1, 2, 8):
            census = time_average_census(state, spec, rounds,
                                         SimulationConfig(seed=0, workers=workers))
            assert census.bankrupt_at == trajectory.bankrupt_at
            assert census.bankrupt_wealth == trajectory.bankrupt_wealth
            assert census.counts.sum() == trajectory.bankrupt_at - 1

    def test_streaming_time_estimate_memory_does_not_grow_with_rounds(self):
        # The draws -> factors -> log-path pipeline held about 64 MB of
        # numpy arrays at this length; the census holds one block.
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            time_average_estimate(time_average_census(state, GambleSpec(), 2_000_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.filterwarnings("error")
    def test_log_factors_stay_finite_past_the_double_range(self):
        # At p = 1e-5 the seed-0 draws reach n = 286 360, whose payout
        # 2**(n - 1) is far beyond a double; its log is not.
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec(probability_parameter=1e-5)
        trajectory = simulate_trajectory(state, spec, 10)
        assert trajectory.waiting_times.max() > 1024
        assert np.all(np.isfinite(trajectory.log_wealth_path))
        stats = time_average_estimate(time_average_census(state, spec, 10))
        assert math.isfinite(stats.estimate) and math.isfinite(stats.stderr)
        assert stats == time_average_estimate(trajectory)

    @pytest.mark.filterwarnings("error")
    def test_menger_log_factors_stay_finite(self):
        # From n = 10 on the Menger payout w * expm1(2**n) overflows; its
        # log growth factor is 2**n to double precision.
        state = PlayerState(wealth=100.0)
        spec = GambleSpec(payout_rule=Menger())
        factors = montecarlo._log_growth_factors(state, spec, np.arange(1, 40))
        assert np.all(np.isfinite(factors))
        assert factors[11] == 2.0**12
        for seed in range(20):
            stats = time_average_estimate(
                time_average_census(state, spec, 1000, SimulationConfig(seed=seed)))
            assert math.isfinite(stats.estimate) and math.isfinite(stats.stderr)

    def test_finite_factors_match_the_scalar_reference(self):
        state = PlayerState(wealth=3.0, ticket_price=0.7)
        ns = np.arange(1, 1100)
        for rule in (BernoulliOriginal(), Capped(1e9), Menger(),
                     Table(((0.5, 1.0), (0.25, 2.0), (0.25, 8.0)))):
            spec = GambleSpec(payout_rule=rule)
            support = ns[:3] if isinstance(rule, Table) else ns
            factors = montecarlo._growth_factors(state, spec, support)
            for n, factor in zip(support, factors):
                reference = growth_factor(state, spec, int(n))
                assert factor == reference or (math.isinf(reference) and math.isinf(factor))


class TestBlockPool:
    def test_pool_is_capped_at_the_block_count(self, monkeypatch):
        sizes = []

        class RecordingExecutor:
            """Runs each task at submission; records the requested size."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingExecutor)
        config = SimulationConfig(seed=2, workers=64)
        draws = draw_waiting_times(GambleSpec(), 3 * 2**16, config)
        assert sizes == [3]
        assert np.array_equal(draws, draw_waiting_times(GambleSpec(), 3 * 2**16,
                                                        SimulationConfig(seed=2)))

    @pytest.mark.parametrize("size, slices", [
        (montecarlo._BLOCK_SIZE, 15_259),  # path blocks of a 1e9-round run
        (montecarlo._TASK_BLOCKS * montecarlo._BLOCK_SIZE, 1_908),  # its census tasks
    ])
    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch, size, slices):
        sizes = []

        class RecordingExecutor:
            """Runs each task at submission, on no thread; records the requested size."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        indices = montecarlo._map_blocks(lambda i, lo, hi: i, 10**9, 100_000, size)
        assert list(indices) == list(range(slices))
        assert sizes == [2]

    def test_one_usable_cpu_uses_no_pool(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a pool was created on one usable CPU")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", forbidden)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        config = SimulationConfig(seed=2, workers=100_000)
        draws = draw_waiting_times(GambleSpec(), 3 * 2**16, config)
        assert np.array_equal(draws, draw_waiting_times(GambleSpec(), 3 * 2**16,
                                                        SimulationConfig(seed=2)))

    def test_usable_cpus_are_those_of_the_affinity_mask(self):
        usable = USABLE_CPUS()
        if hasattr(os, "sched_getaffinity"):
            assert usable == len(os.sched_getaffinity(0))
        assert usable >= 1

    def test_one_block_uses_no_pool(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a pool was created for a single block")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", forbidden)
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        config = SimulationConfig(seed=2, workers=64)
        time_average_estimate(time_average_census(state, GambleSpec(), 1000, config))
        ensemble_average_estimate(state, GambleSpec(), 1000, config)
