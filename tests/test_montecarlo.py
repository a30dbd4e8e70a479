"""Tests for seeded simulation: draws, trajectories, and estimators."""

import concurrent.futures
import json
import math
import threading
import tracemalloc

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

#: Three full blocks and a partial one.
CENSUS_ROUNDS = 3 * 2**16 + 123

#: Each seeded entry point run on ``CENSUS_ROUNDS`` draws, ``seed``
#: passed on if given, reduced to a value that compares with ``==``.
SEEDED_RUNS = {
    "draws": lambda *seed: np.bincount(
        draw_waiting_times(GambleSpec(), CENSUS_ROUNDS, *seed)).tolist(),
    "blocks": lambda *seed: np.bincount(np.concatenate([
        draws for draws, _ in trajectory_blocks(PlayerState(wealth=100.0, ticket_price=2.0),
                                                GambleSpec(), CENSUS_ROUNDS, *seed)])).tolist(),
    "trajectory": lambda *seed: np.bincount(simulate_trajectory(
        PlayerState(wealth=100.0, ticket_price=2.0), GambleSpec(), CENSUS_ROUNDS,
        *seed).waiting_times).tolist(),
    "census": lambda *seed: time_average_census(
        PlayerState(wealth=100.0, ticket_price=2.0), GambleSpec(), CENSUS_ROUNDS,
        *seed).counts.tolist(),
    "subinterval": lambda *seed: subinterval_estimate(
        PlayerState(wealth=100.0, ticket_price=2.0), GambleSpec(), CENSUS_ROUNDS, *seed),
    "ensemble": lambda *seed: ensemble_average_estimate(
        PlayerState(wealth=100.0, ticket_price=2.0), GambleSpec(), CENSUS_ROUNDS, *seed),
}


# ====== Seeded draws ======


class TestDrawWaitingTimes:
    def test_same_seed_same_draws(self):
        spec = GambleSpec()
        a = draw_waiting_times(spec, 10_000, 7)
        b = draw_waiting_times(spec, 10_000, 7)
        assert np.array_equal(a, b)

    def test_different_seed_different_draws(self):
        spec = GambleSpec()
        a = draw_waiting_times(spec, 10_000, 7)
        b = draw_waiting_times(spec, 10_000, 8)
        assert not np.array_equal(a, b)

    def test_prefix_property(self):
        # Asking for fewer draws yields a prefix of the longer run.
        spec = GambleSpec()
        short = draw_waiting_times(spec, 1_000, 5)
        long = draw_waiting_times(spec, 100_000, 5)
        assert np.array_equal(short, long[:1_000])

    def test_draws_are_positive_integers(self):
        draws = draw_waiting_times(GambleSpec(), 50_000, 1)
        assert draws.min() >= 1

    def test_geometric_mean_waiting_time(self):
        draws = draw_waiting_times(GambleSpec(), 200_000, 2)
        assert abs(draws.mean() - 2.0) < 0.02

    def test_skewed_coin_changes_the_law(self):
        spec = GambleSpec(probability_parameter=0.9)
        draws = draw_waiting_times(spec, 200_000, 2)
        assert abs(draws.mean() - 1.0 / 0.9) < 0.01

    def test_table_draws_stay_in_support(self):
        table = Table(((0.5, 1.0), (0.25, 2.0), (0.25, 8.0)))
        spec = GambleSpec(payout_rule=table)
        draws = draw_waiting_times(spec, 100_000, 4)
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
        draws = draw_waiting_times(GambleSpec(), total, 0)
        counts = np.bincount(draws, minlength=12)
        observed = [int(counts[n]) for n in range(1, 11)]
        observed.append(total - sum(observed))
        expected = [total * 0.5**n for n in range(1, 11)]
        expected.append(total * 0.5**10)
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        assert chi2 < 29.588

    @pytest.mark.parametrize("spec", [
        GambleSpec(),
        GambleSpec(payout_rule=Table(((0.5, 1.0), (0.3, 2.0), (0.2, 8.0)))),
    ], ids=["p=0.5", "table"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_follow_the_block_law(self, spec, seed):
        # blocks 0, 1 and the head of block 2, rebuilt from the law alone:
        # block 0 one uniform per waiting time, each later block its census
        # shuffled, from the generator of its seed and index
        count = 2 * 2**16 + 1000
        blocks = []
        for block in range(3):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(block,))))
            if block == 0:
                draws = spec.payout_rule.waiting_times(rng.random(2**16),
                                                       spec.probability_parameter)
            else:
                counts = spec.payout_rule.census(rng, 2**16, spec.probability_parameter)
                draws = np.repeat(np.arange(len(counts)), counts)
                rng.shuffle(draws)
            blocks.append(draws)
        reference = np.concatenate(blocks)[:count]
        assert np.array_equal(draw_waiting_times(spec, count, seed), reference)
        trajectory = simulate_trajectory(PlayerState(wealth=100.0, ticket_price=2.0), spec,
                                         count, seed)
        assert np.array_equal(trajectory.waiting_times, reference)

    @pytest.mark.parametrize("count", [1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    def test_spans_tile_the_draws_in_blocks(self, count):
        spans = list(montecarlo._spans(count))
        assert [block for block, _, _ in spans] == list(range(len(spans)))
        assert [lo for _, lo, _ in spans] == [2**16 * block for block, _, _ in spans]
        assert [hi for _, _, hi in spans[:-1]] == [lo for _, lo, _ in spans[1:]]
        assert spans[-1][2] == count
        assert all(0 < hi - lo <= 2**16 for _, lo, hi in spans)


class TestSeed:
    """Every sampler takes ``seed``, refused unless a nonnegative ``int``."""

    @pytest.mark.parametrize("run", sorted(SEEDED_RUNS))
    def test_the_default_is_seed_0(self, run):
        assert SEEDED_RUNS[run]() == SEEDED_RUNS[run](0)

    @pytest.mark.parametrize("run", sorted(SEEDED_RUNS))
    def test_true_is_seed_1(self, run):
        # ``bool`` is an ``int``, and numpy seeds True as 1
        assert SEEDED_RUNS[run](True) == SEEDED_RUNS[run](1)

    @pytest.mark.parametrize("seed", [-1, 1.5, np.int64(3)], ids=["-1", "1.5", "int64"])
    @pytest.mark.parametrize("run", sorted(SEEDED_RUNS))
    def test_a_bad_seed_is_refused_before_any_generator_is_built(self, monkeypatch, run, seed):
        def built(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(np.random, "SeedSequence", built)
        with pytest.raises(ValueError) as refused:
            SEEDED_RUNS[run](seed)
        assert str(refused.value) == f"seed must be a nonnegative integer, got {seed!r}"


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
        a = simulate_trajectory(state, GambleSpec(), 5_000, 11)
        b = simulate_trajectory(state, GambleSpec(), 5_000, 11)
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
        trajectory = simulate_trajectory(state, GambleSpec(), 1_000, 0)
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
        trajectory = simulate_trajectory(state, GambleSpec(), 200_000, 0)
        stats = time_average_estimate(trajectory)
        assert abs(stats.estimate - GROWTH_100_2) < 5.0 * stats.stderr
        assert stats.count == 200_000

    def test_stderr_scale(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 200_000, 0)
        stats = time_average_estimate(trajectory)
        # Per-round log returns have spread about 0.149 here.
        assert abs(stats.stderr - 0.149 / math.sqrt(200_000)) < 0.05 * stats.stderr

    def test_census_accounts_for_every_round(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 50_000, 0)
        stats = time_average_estimate(trajectory)
        assert sum(stats.frequencies.values()) == stats.count
        assert stats.max_n == max(stats.frequencies)
        assert stats.max_n == int(trajectory.waiting_times.max())
        # About half of all draws stop at the first toss.
        assert abs(stats.frequencies[1] / stats.count - 0.5) < 0.01

    def test_bankrupt_trajectory_rejected(self):
        state = PlayerState(wealth=10.0, ticket_price=11.0)
        trajectory = simulate_trajectory(state, GambleSpec(), 10_000, 0)
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
        seed = 0
        stats = subinterval_estimate(state, GambleSpec(), 1, seed)
        n = int(draw_waiting_times(GambleSpec(), 1, seed)[0])
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
        seed = 0
        fine = subinterval_estimate(state, GambleSpec(), 200_000, seed)
        trajectory = simulate_trajectory(state, GambleSpec(), 200_000, seed)
        coarse = time_average_estimate(trajectory)
        assert abs(fine.estimate - coarse.estimate) < 1e-4
        assert abs(fine.estimate - GROWTH_100_2) < 5.0 * fine.stderr

    def test_shares_the_trajectory_draw_stream(self):
        # The q sampled returns are the first q draws of the seeded
        # experiment -- the same outcomes a trajectory plays.
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        seed = 12
        stats = subinterval_estimate(state, GambleSpec(), 500, seed)
        trajectory = simulate_trajectory(state, GambleSpec(), 500, seed)
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
        seed = 0
        full = subinterval_estimate(state, GambleSpec(), 50_000, seed)
        trajectory = simulate_trajectory(state, GambleSpec(), 50_000, seed)
        logarithmic = time_average_estimate(trajectory)
        assert full.estimate >= logarithmic.estimate
        assert abs(full.estimate - logarithmic.estimate) < 1e-4
        # A single slice is the raw first-round return, which for this seed
        # sits far above the long-run growth rate.
        one = subinterval_estimate(state, GambleSpec(), 1, seed)
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
            subinterval_estimate(state, GambleSpec(), 10_000, 0)


# ====== Ensemble estimator ======


class TestEnsembleAverageEstimate:
    def test_bounded_gamble_matches_expectation(self):
        # Fair table with mean payout 3 at wealth 10, price 2: the mean
        # growth factor is 1.1.
        table = Table(((0.5, 1.0), (0.25, 2.0), (0.25, 8.0)))
        state = PlayerState(wealth=10.0, ticket_price=2.0)
        stats = ensemble_average_estimate(state, GambleSpec(payout_rule=table),
                                          200_000, 0)
        assert abs(stats.estimate - 1.1) < 5.0 * stats.stderr
        assert stats.count == 200_000

    def test_capped_gamble_matches_expectation(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec(payout_rule=Capped(1e9))
        stats = ensemble_average_estimate(state, spec, 200_000, 0)
        # Rare huge payouts make this a very noisy estimator; sanity only.
        assert 0.9 < stats.estimate < 1.5

    def test_census_accounts_for_every_player(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        stats = ensemble_average_estimate(state, GambleSpec(), 100_000, 0)
        assert sum(stats.frequencies.values()) == stats.count
        assert stats.max_n == max(stats.frequencies)
        assert abs(stats.frequencies[1] / stats.count - 0.5) < 0.01

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
        trajectory = simulate_trajectory(state, spec, 400_000, 1)
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
            np.median([abs(ensemble_average_estimate(state, spec, samples, seed).estimate
                           - target)
                       for seed in range(100)])
            for samples in (1_000, 1_000_000)
        ]
        assert errors[1] < errors[0]
        assert errors[1] < 0.05


# ====== Census reductions ======


#: One round in 10**5 pays nothing, and at price 10.5 against wealth 10
#: that round is ruinous.  At seed ``RARE_RUIN_SEED`` the first one falls
#: at round 74 029, in the second block, the first one drawn as counts.
RARE_RUIN = Table(((0.99999, 10.0), (1e-05, 0.0)))
RARE_RUIN_STATE = PlayerState(wealth=10.0, ticket_price=10.5)
RARE_RUIN_SEED = 2


def one_cumsum_path(state, spec, rounds, seed):
    """The log-wealth path as one cumsum over every round drawn."""
    draws = draw_waiting_times(spec, rounds, seed)
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
    @pytest.mark.parametrize("state, spec, rounds, seed", [
        (PlayerState(wealth=100.0, ticket_price=2.0), GambleSpec(), CENSUS_ROUNDS, 1),
        (PlayerState(wealth=100.0, ticket_price=60.0), GambleSpec(probability_parameter=0.3),
         2**16 + 1, 1),
        (PlayerState(wealth=100.0), GambleSpec(payout_rule=Menger()), 1000, 1),
        (RARE_RUIN_STATE, GambleSpec(payout_rule=RARE_RUIN), 200_000, RARE_RUIN_SEED),
    ])
    def test_blocks_round_the_path_as_one_cumsum(self, state, spec, rounds, seed):
        blocks = list(trajectory_blocks(state, spec, rounds, seed))
        assert all(len(draws) <= 2**16 for draws, _ in blocks)
        path = np.concatenate([log_wealth for _, log_wealth in blocks])
        assert path.tobytes() == one_cumsum_path(state, spec, rounds, seed).tobytes()
        trajectory = simulate_trajectory(state, spec, rounds, seed)
        assert trajectory.log_wealth_path.tobytes() == path.tobytes()
        assert np.array_equal(trajectory.waiting_times,
                              np.concatenate([draws for draws, _ in blocks]))

    def test_no_block_follows_a_bankruptcy(self):
        spec = GambleSpec(payout_rule=RARE_RUIN)
        blocks = list(trajectory_blocks(RARE_RUIN_STATE, spec, 10 * 2**16, RARE_RUIN_SEED))
        assert len(blocks) == 2
        draws, log_wealth = blocks[-1]
        assert draws[-1] == 2  # the payout-0 outcome, ruinous at this price
        assert len(draws) == len(log_wealth) + 1
        assert 2**16 + len(draws) == 74_029


    def test_census_bounds_hold_for_every_order(self):
        # A block's bounds come from its census alone; the rows and the sum
        # leaving the block are those of a cumsum in the block's order,
        # rounding included, from any sum in [low, high] entering it.
        rng = np.random.default_rng(7)
        for _ in range(400):
            terms = int(rng.integers(0, 3000))
            logs = rng.choice([-1.0, 1.0], 5) * 10.0 ** rng.uniform(-17.0, 3.0, 5)
            draws = rng.integers(0, 5, terms)
            weights = np.bincount(draws, minlength=5).astype(np.float64)
            carry = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 17.0)
            start = rng.uniform(-745.0, 709.0)
            width = 10.0 ** rng.uniform(-20.0, 0.0) * abs(carry)
            low, high = carry - width * rng.random(), carry + width * rng.random()
            row_low, row_high, out_low, out_high = montecarlo._sum_bounds(
                low, high, start, logs, weights, terms)
            sums = np.cumsum(np.concatenate(([carry], logs[draws])))
            assert out_low <= sums[-1] <= out_high
            sums += start
            assert row_low <= sums.min() and sums.max() <= row_high
        # a log factor past the double range, or sums that leave it
        for logs in ([math.inf, -1.0], [1e308, -1.0]):
            bounds = montecarlo._sum_bounds(0.0, 0.0, 0.0, np.array(logs), np.array([2.0, 1.0]), 3)
            assert bounds == (-math.inf, math.inf, -math.inf, math.inf)

#: Laws of the census tests: four geometric ones, p = 1e-3 drawn mostly
#: and p = 1e-5 wholly past the multinomial's depth, and a table.
CENSUS_LAWS = {
    "p=0.5": GambleSpec(),
    "p=0.05": GambleSpec(probability_parameter=0.05),
    "p=1e-3": GambleSpec(probability_parameter=1e-3),
    "p=1e-5": GambleSpec(probability_parameter=1e-5),
    "table": GambleSpec(payout_rule=Table(((0.5, 1.0), (0.3, 2.0), (0.15, 8.0),
                                           (0.04, 20.0), (0.01, 100.0)))),
}

#: Run lengths of the census law tests.  Past the first block, drawn one
#: by one, 600 and 40 001 draws take the head of the second block's order,
#: and 3 * 2**16 + 5 draws count two blocks whole and take the head of the
#: fourth.
LAW_SAMPLES = (2**16 + 600, 2**16 + 40_001, 3 * 2**16 + 5)

#: Significance of the chi-square tests of the census law, fixed before
#: any was run.
LAW_ALPHA = 1e-4

#: The state of the census law runs: no waiting time is ruinous.
LAW_STATE = PlayerState(wealth=100.0, ticket_price=2.0)


def law_seeds(law, count, first=0):
    """``count`` seeds from ``first`` on; a census of p = 1e-5 spans about
    a million waiting times, so a twentieth as many of them."""
    return range(first, first + (count // 20 if law == "p=1e-5" else count))


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
    frequencies = ensemble_average_estimate(LAW_STATE, spec, samples, seed).frequencies
    counts = np.zeros(max(frequencies) + 1, dtype=np.int64)
    counts[list(frequencies)] = list(frequencies.values())
    return counts


#: The census each estimator reduces, by mode: the ensemble's, read off
#: its estimate, the time run's, and that of the ordered draws.
CENSUS_MODES = {
    "ensemble": ensemble_counts,
    "time": lambda spec, samples, seed: time_average_census(
        LAW_STATE, spec, samples, seed).counts,
    "drawn": lambda spec, samples, seed: np.bincount(
        draw_waiting_times(spec, samples, seed)),
}


def cells(probabilities, total, least=20.0):
    """Cell edges ``[e_0, e_1), ..., [e_k, inf)`` from ``e_0 = 1``: each cell
    holds as few consecutive waiting times as give it an expected count of
    at least ``least`` while the rest keep one too, and the last cell the
    rest, with the last waiting time of ``probabilities``."""
    below = total * np.cumsum(probabilities)  # expected count up to each waiting time
    edges = [1]
    while True:
        last = int(np.searchsorted(below, below[edges[-1] - 1] + least))
        if last >= len(probabilities) - 1 or total - below[last] < least:
            return edges
        edges.append(last + 1)


def chi2_sf(statistic, df):
    """Upper tail of the chi-square law with ``df`` degrees of freedom."""
    return float(mpmath.gammainc(df / 2.0, statistic / 2.0, mpmath.inf, regularized=True))


def cell_counts(counts, edges):
    """Counts of ``counts`` (indexed by waiting time) in each cell of ``edges``."""
    padded = np.zeros(max(len(counts), edges[-1] + 1))
    padded[:len(counts)] = counts
    return np.add.reduceat(padded, edges)


class TestEnsembleCensusLaw:
    """The census of every estimator, drawn as counts past the first
    block, against the exact law and against the census of the drawn
    waiting times."""

    @pytest.mark.parametrize("mode", sorted(CENSUS_MODES))
    @pytest.mark.parametrize("samples", LAW_SAMPLES)
    @pytest.mark.parametrize("law", sorted(CENSUS_LAWS))
    def test_pooled_census_fits_the_law(self, law, samples, mode):
        spec = CENSUS_LAWS[law]
        # disjoint seeds: the modes of one seed reduce one census
        seeds = law_seeds(law, 200, first=1000 * sorted(CENSUS_MODES).index(mode))
        pooled = pooled_frequencies(seeds,
                                    lambda seed: CENSUS_MODES[mode](spec, samples, seed))
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
        seeds = law_seeds(law, 100)
        counted = pooled_frequencies(seeds,
                                     lambda seed: ensemble_counts(spec, samples, seed))
        # other seeds: an ensemble's census is that of the drawn waiting times
        drawn = pooled_frequencies(seeds, lambda seed: np.bincount(
            draw_waiting_times(spec, samples, 1000 + seed)))
        both = np.zeros(max(len(counted), len(drawn)))
        both[:len(counted)] += counted
        both[:len(drawn)] += drawn
        edges = cells(both / both.sum(), both.sum())
        a, b = cell_counts(counted, edges), cell_counts(drawn, edges)
        # equal totals: each cell's difference has variance a + b
        statistic = float(((a - b) ** 2 / (a + b)).sum())
        assert chi2_sf(statistic, len(edges) - 1) > LAW_ALPHA

    def test_ordered_draws_are_independent(self):
        # the census fixes which waiting times a block holds; its shuffle
        # must leave neighbouring draws independent.  Pairs of draws, each
        # capped at 4, from the blocks drawn as counts, against the law's
        # product
        spec = GambleSpec()
        pairs = np.zeros((4, 4))
        for seed in range(10):
            draws = np.minimum(draw_waiting_times(spec, 3 * 2**16, seed), 4)[2**16:] - 1
            np.add.at(pairs, (draws[:-1], draws[1:]), 1)
        law = np.array([0.5, 0.25, 0.125, 0.125])
        expected = pairs.sum() * np.outer(law, law)
        statistic = float(((pairs - expected) ** 2 / expected).sum())
        assert chi2_sf(statistic, 15) > LAW_ALPHA

    @pytest.mark.parametrize("spec", [GambleSpec(), GambleSpec(probability_parameter=0.05)],
                             ids=["p=0.5", "p=0.05"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_shorter_run_is_a_sub_census_of_a_longer_one(self, spec, seed):
        sizes = (1, 2, 1000, 1024, 2**14, 2**14 + 1, 40_000, 40_001, 65_535, 65_536,
                 65_537, CENSUS_ROUNDS)
        censuses = [montecarlo._census(spec, size, seed)[0] for size in sizes]
        width = max(len(counts) for counts in censuses)
        censuses = [np.pad(counts, (0, width - len(counts))) for counts in censuses]
        for size, counts in zip(sizes, censuses):
            assert counts.sum() == size
        for i, shorter in enumerate(censuses):
            for longer in censuses[i + 1:]:
                assert (shorter <= longer).all()

    def test_the_first_draws_are_those_of_the_trajectory(self):
        # an ensemble's first block of 2**16 players is drawn one by one
        spec = GambleSpec(probability_parameter=0.05)
        for samples in (2, 1000, 2**14):
            counts = ensemble_counts(spec, samples, seed=7)
            drawn = np.bincount(draw_waiting_times(spec, samples, 7))
            assert np.array_equal(counts, drawn)

    @pytest.mark.parametrize("size", [2**16 - 1, 2**16, 2**16 + 1, 2**16 + 600])
    @pytest.mark.parametrize("law", sorted(CENSUS_LAWS))
    def test_every_estimator_reduces_one_census(self, law, size):
        # with no ruinous round, the time run, the ensemble and the ordered
        # draws of one seed and size count the same waiting times
        spec, seed = CENSUS_LAWS[law], 3
        censuses = [
            time_average_census(LAW_STATE, spec, size, seed).counts,
            montecarlo._census(spec, size, seed)[0],
            np.bincount(draw_waiting_times(spec, size, seed)),
        ]
        # a census drawn as counts may end in waiting times counted 0 times
        first, *others = [np.trim_zeros(counts, "b") for counts in censuses]
        assert first.sum() == size
        for counts in others:
            assert np.array_equal(counts, first)

    @pytest.mark.parametrize("spec", [GambleSpec(), GambleSpec(probability_parameter=1e-3)],
                             ids=["p=0.5", "p=1e-3"])
    def test_a_trajectory_extends_across_a_partial_counted_block(self, spec):
        # each run ends inside a block after the first, the head of its order
        seed = 5
        runs = [simulate_trajectory(LAW_STATE, spec, rounds, seed)
                for rounds in (2**16 + 600, 2**16 + 40_001, 3 * 2**16 + 5)]
        for shorter, longer in zip(runs, runs[1:]):
            head = shorter.rounds
            assert np.array_equal(longer.waiting_times[:head], shorter.waiting_times)
            assert (longer.log_wealth_path[:head + 1].tobytes()
                    == shorter.log_wealth_path.tobytes())

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

    def test_streaming_estimate_equals_the_trajectory_estimate(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        seed = 4
        streamed = time_average_estimate(
            time_average_census(state, GambleSpec(), CENSUS_ROUNDS, seed))
        stored = time_average_estimate(
            simulate_trajectory(state, GambleSpec(), CENSUS_ROUNDS, seed))
        assert streamed == stored
        assert streamed.count == CENSUS_ROUNDS

    def test_first_ruin_past_the_first_block(self, tmp_path, capsys):
        spec = GambleSpec(payout_rule=RARE_RUIN)
        seed = RARE_RUIN_SEED
        trajectory = simulate_trajectory(RARE_RUIN_STATE, spec, 200_000, seed)
        assert trajectory.bankrupt_at > 2**16

        census = time_average_census(RARE_RUIN_STATE, spec, 200_000, seed)
        assert census.bankrupt_at == trajectory.bankrupt_at
        assert census.bankrupt_wealth == trajectory.bankrupt_wealth

        with pytest.raises(NonpositiveReturnError,
                           match=f"draw {trajectory.bankrupt_at} yields"):
            subinterval_estimate(RARE_RUIN_STATE, spec, 200_000, seed)

        table = tmp_path / "rare-ruin.csv"
        table.write_text("probability,payout\n0.99999,10.0\n1e-05,0.0\n")
        status = main(["simulate", "--wealth", "10", "--price", "10.5",
                       "--payout", f"table:{table}", "--rounds", "200000",
                       "--seed", str(RARE_RUIN_SEED), "--workers", "2"])
        assert status == 2
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["bankrupt_at"] == trajectory.bankrupt_at

    def test_first_ruin_inside_a_later_block(self):
        # Growth factors 1.25 and 0.8 keep log wealth a driftless walk, so
        # the bankrupt wealth is a nonzero double.  At seed 0 the first
        # ruinous round is 751 822, in block 11, and blocks after it are
        # never drawn.
        spec = GambleSpec(payout_rule=Table(((0.5, 13.0), (0.499999, 8.5), (1e-06, 0.0))))
        state = PlayerState(wealth=10.0, ticket_price=10.5)
        rounds = 2**21
        trajectory = simulate_trajectory(state, spec, rounds, 0)
        assert trajectory.bankrupt_at == 751_822
        assert trajectory.bankrupt_wealth < 0.0
        census = time_average_census(state, spec, rounds, 0)
        assert census.bankrupt_at == trajectory.bankrupt_at
        assert census.bankrupt_wealth == trajectory.bankrupt_wealth
        assert census.counts.sum() == trajectory.bankrupt_at - 1

    def test_no_block_past_the_ruinous_one_is_drawn(self, monkeypatch):
        # the run of test_first_ruin_inside_a_later_block: ruin in block 11
        drawn = []
        generator = montecarlo._block_generator

        def counted(seed, block):
            drawn.append(block)
            return generator(seed, block)

        monkeypatch.setattr(montecarlo, "_block_generator", counted)
        spec = GambleSpec(payout_rule=Table(((0.5, 13.0), (0.499999, 8.5), (1e-06, 0.0))))
        state = PlayerState(wealth=10.0, ticket_price=10.5)
        census = time_average_census(state, spec, 2**21, 0)
        assert census.bankrupt_at == 751_822
        assert drawn == list(range(12))

    def test_ruin_marks_match_the_trajectory(self):
        # The marks of ruinous waiting times grow with the largest one
        # seen; a wrong mark would move the ruinous round or the census
        # away from the trajectory's.  Waiting times past 18 pay nothing,
        # and at this price that round is ruinous.
        spec = GambleSpec(payout_rule=Capped(2.0 ** 17))
        state = PlayerState(wealth=10.0, ticket_price=10.5)
        for seed in range(4):
            census = time_average_census(state, spec, 2**22, seed)
            trajectory = simulate_trajectory(state, spec, 2**22, seed)
            assert census.bankrupt_at is not None
            assert census.bankrupt_at == trajectory.bankrupt_at
            assert np.array_equal(census.counts, np.bincount(trajectory.waiting_times[:-1]))

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
                time_average_census(state, spec, 1000, seed))
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

    def test_factors_whose_sum_overflows_match_the_scalar_reference(self):
        # wealth 1e308 plus a payout near it leaves the double range; the
        # factor does not, up to the last finite doubling payout 2**1023
        state = PlayerState(wealth=1e308, ticket_price=0.0)
        for rule, support in ((BernoulliOriginal(), np.arange(1, 1100)),
                              (Table(((0.5, 1e308), (0.5, 0.0))), np.arange(1, 3))):
            spec = GambleSpec(payout_rule=rule)
            factors = montecarlo._growth_factors(state, spec, support)
            assert factors.tolist() == [growth_factor(state, spec, int(n)) for n in support]
            finite = support[np.isfinite(factors)]
            assert finite[-1] == (1024 if isinstance(rule, BernoulliOriginal) else 2)
        assert factors.tolist() == [2.0, 1.0]


class TestCallingThread:
    """The sampler draws every block on the thread that asks for it."""

    @pytest.mark.parametrize("run", sorted(SEEDED_RUNS))
    def test_every_block_is_drawn_on_the_calling_thread(self, monkeypatch, run):
        threads = []
        generator = montecarlo._block_generator

        def recorded(seed, block):
            threads.append((block, threading.get_ident()))
            return generator(seed, block)

        monkeypatch.setattr(montecarlo, "_block_generator", recorded)
        before = threading.active_count()
        SEEDED_RUNS[run](5)
        assert threads == [(block, threading.get_ident()) for block in range(4)]
        assert threading.active_count() == before

    def test_threads_sampling_at_once_draw_the_serial_draws(self):
        # each block draws into its own arrays: 8 threads sampling at once
        # draw, run after run, what each seed draws alone
        spec = GambleSpec(probability_parameter=1e-3)
        serial = [draw_waiting_times(spec, 2**16, seed)
                  for seed in range(8)]
        start = threading.Barrier(8)

        def differing(seed):
            start.wait()
            return sum(not np.array_equal(
                draw_waiting_times(spec, 2**16, seed), serial[seed])
                for _ in range(40))

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(differing, range(8))) == [0] * 8
