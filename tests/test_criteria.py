"""Tests for decision criteria, break-even pricing, and closed-form stakes."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import mp_oracle
from mp_oracle import growth_sign
from petersburg import criteria, series
from petersburg import (
    BernoulliOriginal,
    BreakEvenCurve,
    Capped,
    GambleSpec,
    Menger,
    NoSignChangeError,
    PlayerState,
    Recommendation,
    StakeKind,
    Table,
    TruncationPolicy,
    bernoulli_literal_lhs,
    bernoulli_stake,
    breakeven_curve,
    breakeven_price,
    ensemble_average_growth,
    evaluate,
    expected_payout,
    expected_utility_change,
    menger_partial_sum_price,
    min_payout,
    recommendation_for,
    time_average_growth,
)

# Break-even prices computed independently with 50-digit decimal bisection
# and frozen here.
BREAKEVEN_10 = 2.88376182458190089920334947219
BREAKEVEN_100 = 4.36019402978550666497679191764
BREAKEVEN_1000 = 5.96801734445969944118508644957
BREAKEVEN_10000 = 7.61758114111664017303464039516
LITERAL_STAKE_100 = 4.20480901672187823677426153415


# ====== Recommendations ======


class TestRecommendations:
    def test_growing_wealth_means_buy(self):
        report = evaluate(PlayerState(100.0, 2.0), GambleSpec())
        assert report.recommendation is Recommendation.BUY

    def test_shrinking_wealth_means_dont_buy(self):
        # The ensemble criterion still diverges at this price; the
        # recommendation ignores it and follows the time criterion.
        report = evaluate(PlayerState(100.0, 50.0), GambleSpec())
        assert report.ensemble_growth.classification.value == "DivergesPositive"
        assert report.recommendation is Recommendation.DONT_BUY

    def test_bankruptcy_risk_means_undefined(self):
        report = evaluate(PlayerState(5.0, 6.0), GambleSpec())
        assert report.recommendation is Recommendation.UNDEFINED

    def test_divergent_growth_means_buy_at_any_price(self):
        report = evaluate(PlayerState(100.0, 99.0), GambleSpec(payout_rule=Menger()))
        expected = Recommendation.BUY_AT_ANY_NON_BANKRUPTING_PRICE
        assert report.recommendation is expected

    def test_recommendation_follows_time_criterion(self):
        report = evaluate(PlayerState(100.0, 2.0), GambleSpec())
        assert report.recommendation is recommendation_for(report.time_growth)

    def test_report_carries_all_four_criteria(self):
        report = evaluate(PlayerState(100.0, 2.0), GambleSpec())
        assert report.naive_expected_payout.classification.value == "DivergesPositive"
        assert report.ensemble_growth.classification.value == "DivergesPositive"
        assert report.time_growth.is_converged
        assert report.bernoulli_literal.is_converged
        assert report.utility_change is None

    def test_literal_criterion_differs_from_time_criterion(self):
        # Both weigh log wealth, but the literal criterion books the
        # ticket price as an all-at-once loss, so its value is smaller.
        report = evaluate(PlayerState(100.0, 2.0), GambleSpec())
        assert report.bernoulli_literal.value < report.time_growth.value

    def test_report_includes_requested_utility(self):
        report = evaluate(PlayerState(100.0, 2.0), GambleSpec(), utility="log")
        assert report.utility_change is not None
        assert report.utility_change.value == report.time_growth.value


class TestEvaluateSumsEachSeriesOnce:
    @pytest.mark.parametrize("utility", [None, "log"])
    def test_three_sums(self, monkeypatch, utility):
        # time growth, naive payout and literal gains; the ensemble growth
        # reuses the payout sum and log utility the time growth
        calls = []
        summed = series._sum

        def counted(*args, **kwargs):
            calls.append(args[2])
            return summed(*args, **kwargs)

        monkeypatch.setattr(series, "_sum", counted)
        evaluate(PlayerState(100.0, 2.0), GambleSpec(), utility=utility)
        assert len(calls) == 3

    @pytest.mark.parametrize("spec", [
        GambleSpec(),
        GambleSpec(probability_parameter=0.7),
        GambleSpec(payout_rule=Capped(1e9)),
        GambleSpec(payout_rule=Menger()),
        GambleSpec(payout_rule=Table(((0.5, 0.0), (0.25, 3.0), (0.25, 40.0)))),
    ], ids=["bernoulli", "fast-decay", "capped", "menger", "table"])
    @pytest.mark.parametrize("utility", [None, "log", "sqrt"])
    @pytest.mark.parametrize("price", [0.0, 2.0, 60.0])
    def test_fields_equal_the_standalone_criteria(self, spec, utility, price):
        state, policy = PlayerState(100.0, price), TruncationPolicy(tolerance=1e-12)
        report = evaluate(state, spec, policy, utility)
        assert report.naive_expected_payout == expected_payout(spec, policy, wealth=100.0)
        assert report.ensemble_growth == ensemble_average_growth(state, spec, policy)
        assert report.time_growth == time_average_growth(state, spec, policy)
        assert report.bernoulli_literal == bernoulli_literal_lhs(state, spec, policy)
        assert report.utility_change == (
            None if utility is None else expected_utility_change(state, spec, utility, policy))


# ====== Break-even pricing ======


class TestBreakevenPrice:
    def test_reference_values(self):
        spec = GambleSpec()
        assert abs(breakeven_price(10.0, spec) - BREAKEVEN_10) < 1e-8
        assert abs(breakeven_price(100.0, spec) - BREAKEVEN_100) < 1e-8
        assert abs(breakeven_price(1000.0, spec) - BREAKEVEN_1000) < 1e-8
        assert abs(breakeven_price(10000.0, spec) - BREAKEVEN_10000) < 1e-8

    def test_growth_vanishes_at_the_root(self):
        spec = GambleSpec()
        policy = TruncationPolicy(tolerance=1e-13)
        for wealth in (10.0, 100.0, 1000.0):
            price = breakeven_price(wealth, spec)
            result = time_average_growth(PlayerState(wealth, price), spec, policy)
            assert abs(result.value) < 1e-10

    def test_price_grows_with_wealth(self):
        spec = GambleSpec()
        prices = [breakeven_price(w, spec) for w in (10.0, 100.0, 1000.0)]
        assert prices[0] < prices[1] < prices[2]

    def test_capped_gamble_has_a_root_too(self):
        spec = GambleSpec(payout_rule=Capped(1e9))
        price = breakeven_price(100.0, spec)
        result = time_average_growth(PlayerState(100.0, price), spec)
        assert abs(result.value) < 1e-8

    def test_table_gamble_break_even(self):
        # Fair coin paying 0.5 or 2.0: the break-even price solves
        # log(w - c + 0.5) + log(w - c + 2.0) = 2 log(w).
        table = Table(((0.5, 0.5), (0.5, 2.0)))
        spec = GambleSpec(payout_rule=table)
        price = breakeven_price(10.0, spec)
        result = time_average_growth(PlayerState(10.0, price), spec)
        assert abs(result.value) < 1e-10

    def test_divergent_gamble_has_no_root(self):
        with pytest.raises(NoSignChangeError):
            breakeven_price(100.0, GambleSpec(payout_rule=Menger()))

    def test_wealth_must_be_positive(self):
        with pytest.raises(ValueError):
            breakeven_price(0.0, GambleSpec())
        with pytest.raises(ValueError):
            breakeven_price(-10.0, GambleSpec())


def _recording_growth(monkeypatch, slope=None):
    """Record ``(price, sign)`` of every rate the solver evaluates.

    With ``slope``, every rate the solver reads comes with that slope.
    """
    probes = []
    real = criteria.time_average_growth

    def recording(state, spec, policy=None, **kwargs):
        result = real(state, spec, policy, **kwargs)
        probes.append((state.ticket_price, criteria._criterion_sign(result)))
        probe = kwargs.get("_probe")
        if slope is not None and probe is not None and not probe.sign_only:
            probe.slope = slope
        return result

    monkeypatch.setattr(criteria, "time_average_growth", recording)
    return probes


def _assert_certified(probes, price, floor):
    """The returned price sits in an evaluated bracket no wider than ``floor``."""
    lo = max(c for c, s in probes if s > 0 and c < price)
    hi = min(c for c, s in probes if s < 0 and c > price)
    assert hi - lo <= floor
    assert price == 0.5 * (lo + hi)


class TestBreakevenSolver:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rule=st.sampled_from(["bernoulli", "capped"]),
           p=st.sampled_from([0.5, 0.2, 0.05]),
           wealth=st.floats(1.0, 1e6),
           cap=st.floats(10.0, 1e9))
    def test_oracle_sign_changes_at_the_root(self, rule, p, wealth, cap):
        spec = GambleSpec(BernoulliOriginal() if rule == "bernoulli" else Capped(cap), p)
        bankruptcy = wealth + min_payout(spec, wealth)
        try:
            price = breakeven_price(wealth, spec)
        except NoSignChangeError:
            # the root, if any, is closer to bankruptcy than the solver looks
            assert growth_sign(spec, wealth, bankruptcy * (1.0 - 1e-15)) > 0
            return
        reach = max(1e-10, 4.0 * math.ulp(bankruptcy))
        if 1e-10 / (16.0 * wealth) < 4e-16:
            # known defect: the series tolerance floors at 4e-16 above wealth
            # 15625, and the growth error it leaves moves the price by a few
            # eps * wealth
            reach += 8.0 * sys.float_info.epsilon * wealth
        assert growth_sign(spec, wealth, max(price - reach, 0.0)) >= 0
        assert growth_sign(spec, wealth, price + reach) <= 0

    def test_few_series_evaluations_per_root(self, monkeypatch):
        probes = _recording_growth(monkeypatch)
        breakeven_price(100.0, GambleSpec())
        assert len(probes) <= 12

    def test_newton_root_is_certified(self, monkeypatch):
        probes = _recording_growth(monkeypatch)
        price = breakeven_price(100.0, GambleSpec())
        _assert_certified(probes, price, 1e-10)
        assert abs(price - BREAKEVEN_100) < 1e-10

    def test_bisection_fallback_root_is_certified(self, monkeypatch):
        # a vanishing slope sends every Newton target past the bracket
        probes = _recording_growth(monkeypatch, slope=1e-300)
        price = breakeven_price(100.0, GambleSpec())
        assert len(probes) > 12
        _assert_certified(probes, price, 1e-10)
        assert abs(price - BREAKEVEN_100) < 1e-10

    @pytest.mark.parametrize("rule", [Capped(0.784), Table(((0.5, 0.0), (0.5, 0.0)))])
    def test_gamble_that_never_pays_has_no_root(self, monkeypatch, rule):
        # the rate is ln(1 - c/w) < 0 at every positive price; it rounds
        # to 0 only below ulp(wealth), where a scan used to end
        probes = _recording_growth(monkeypatch)
        with pytest.raises(NoSignChangeError, match="negative even at vanishing"):
            breakeven_price(15.2, GambleSpec(rule, 0.01))
        assert len(probes) <= 2

    @pytest.mark.parametrize("a", [1e-3, 1e-4, 1e-6])
    def test_root_below_a_millionth_of_the_wealth(self, monkeypatch, a):
        # the root sits near a, below the first probe at 1e-6 * wealth = 0.01:
        # Newton climbs to it from a free ticket, with no scan down from 0.01
        spec = GambleSpec(Table(((1.0 - a, 0.0), (a, 1.0))))
        probes = _recording_growth(monkeypatch)
        price = breakeven_price(1e4, spec)
        assert len(probes) <= 6
        _assert_certified(probes, price, 1e-10)
        assert abs(price - mp_oracle.breakeven(spec, 1e4)) < 1e-10

    def test_root_near_bankruptcy(self, monkeypatch):
        # at p = 0.05 and large wealth the root lies ~1e-7 below the
        # bankruptcy price, where the rate has a log singularity
        probes = _recording_growth(monkeypatch)
        wealth = 229728.68056160095
        spec = GambleSpec(probability_parameter=0.05)
        price = breakeven_price(wealth, spec)
        assert 0.0 < wealth + 1.0 - price < 1e-6
        assert len(probes) <= 12
        _assert_certified(probes, price, 4.0 * math.ulp(wealth + 1.0))


    def test_bankruptcy_probe_stops_at_a_certain_sign(self, monkeypatch):
        # the rate just below the bankruptcy price is about -19; a full sum
        # to the solver's tolerance takes 23 terms
        terms = {}
        real = criteria.time_average_growth

        def recording(state, spec, policy=None, **kwargs):
            result = real(state, spec, policy, **kwargs)
            terms[state.ticket_price] = result.terms_used
            return result

        monkeypatch.setattr(criteria, "time_average_growth", recording)
        breakeven_price(100.0, GambleSpec())
        assert terms[101.0 - 101.0 * 1e-15] <= 4

    def test_zero_rate_at_the_bankruptcy_end_is_the_root(self, monkeypatch):
        # the rate falls strictly with the price, so a rate of exactly 0 at
        # the upper end of the bracket makes that end the root
        real = criteria.time_average_growth

        def zero_sign(state, spec, policy=None, **kwargs):
            if kwargs["_probe"].sign_only:
                return series.SeriesResult.converged(0.0, 0.0, 1)
            return real(state, spec, policy, **kwargs)

        monkeypatch.setattr(criteria, "time_average_growth", zero_sign)
        assert breakeven_price(100.0, GambleSpec()) == 101.0 - 101.0 * 1e-15


#: Roots as the solver returned them before its slope was summed with the
#: rate and its sign probes stopped early: a solver change that moves a
#: root shows here.
PINNED_ROOTS = [
    (BernoulliOriginal(), 0.5, 1.0, "1.6737849096126898"),
    (BernoulliOriginal(), 0.5, 100.0, "4.36019402982154"),
    (BernoulliOriginal(), 0.5, 1e6, "10.937183977046516"),
    (BernoulliOriginal(), 0.2, 10.0, "10.816185608012926"),
    (BernoulliOriginal(), 0.2, 1e4, "1660.251673206926"),
    (BernoulliOriginal(), 0.05, 3e5, "300000.9999560958"),
    (BernoulliOriginal(), 0.05, 1e6, "999958.1818316896"),
    (Capped(10.0), 0.5, 1.0, "0.9995142319305665"),
    (Capped(1e6), 0.5, 100.0, "4.359247245296532"),
    (Capped(1e9), 0.2, 1000.0, "319.7784395694895"),
    (Capped(1e3), 0.2, 1e6, "36.31259712559404"),
    (Capped(1e4), 0.05, 1e6, "442.7711251039873"),
    (Capped(1e9), 0.05, 30.0, "29.99999034088193"),
]


class TestPinnedRoots:
    @pytest.mark.parametrize("rule, p, wealth, root", PINNED_ROOTS)
    def test_root_is_unchanged(self, rule, p, wealth, root):
        assert repr(breakeven_price(wealth, GambleSpec(rule, p))) == root

    def test_curve_is_unchanged(self):
        curve = breakeven_curve(10.0, 1e4, 5, GambleSpec())
        assert [(repr(w), repr(c)) for w, c in curve.points] == [
            ("10.0", "2.8837618246167436"),
            ("56.23413251903491", "3.97376530000444"),
            ("316.2277660168379", "5.154951491962078"),
            ("1778.2794100389228", "6.3784828491418635"),
            ("10000.0", "7.61758114107285"),
        ]
        assert curve.failures == ()


class TestBreakevenCurve:
    def test_log_spaced_grid_hits_exact_decades(self):
        curve = breakeven_curve(10.0, 10_000.0, 4, GambleSpec())
        assert [w for w, _ in curve.points] == [10.0, 100.0, 1000.0, 10_000.0]
        assert curve.failures == ()

    def test_matches_pointwise_solver(self):
        curve = breakeven_curve(10.0, 100.0, 2, GambleSpec())
        prices = dict(curve.points)
        assert abs(prices[10.0] - breakeven_price(10.0, GambleSpec())) < 1e-12
        assert abs(prices[100.0] - breakeven_price(100.0, GambleSpec())) < 1e-12

    def test_prices_increase_along_the_grid(self):
        curve = breakeven_curve(10.0, 10_000.0, 7, GambleSpec())
        prices = [p for _, p in curve.points]
        assert prices == sorted(prices)

    def test_records_requested_solver_tolerance(self):
        curve = breakeven_curve(10.0, 100.0, 2, GambleSpec(), price_tolerance=1e-6)
        assert curve.solver_tolerance == 1e-6

    def test_unsolvable_points_are_collected_not_fatal(self):
        # Menger payouts have no break-even price at any wealth: every
        # grid point lands in failures and the curve is still returned.
        curve = breakeven_curve(10.0, 1000.0, 3, GambleSpec(payout_rule=Menger()))
        assert curve.points == ()
        assert [w for w, _ in curve.failures] == [10.0, 100.0, 1000.0]
        assert all(message for _, message in curve.failures)

    def test_inconclusive_points_are_collected_not_fatal(self):
        # at p = 0.001 the rate stays positive up to bankruptcy at the three
        # smaller wealths, and its sum finds no tail bound at the two larger
        curve = breakeven_curve(10.0, 1e5, 5, GambleSpec(probability_parameter=0.001))
        assert curve.points == ()
        assert [w for w, _ in curve.failures] == [10.0, 100.0, 1000.0, 10000.0, 100000.0]
        messages = [message for _, message in curve.failures]
        assert all("stays positive" in message for message in messages[:3])
        assert all(message.startswith("no tail bound") for message in messages[3:])

    def test_iterates_as_pairs(self):
        curve = BreakEvenCurve(points=((10.0, 1.0), (20.0, 2.0)), solver_tolerance=1e-10)
        assert list(curve) == [(10.0, 1.0), (20.0, 2.0)]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            breakeven_curve(0.0, 100.0, 4, GambleSpec())
        with pytest.raises(ValueError):
            breakeven_curve(100.0, 10.0, 4, GambleSpec())
        with pytest.raises(ValueError):
            breakeven_curve(10.0, 100.0, 1, GambleSpec())


# ====== Literal all-or-nothing stake ======


class TestBernoulliStake:
    def test_reference_value(self):
        result = bernoulli_stake(100.0, GambleSpec())
        assert result.kind is StakeKind.PRICE
        assert abs(result.price - LITERAL_STAKE_100) < 1e-8

    def test_root_zeroes_the_literal_criterion(self):
        from petersburg import bernoulli_literal_lhs

        result = bernoulli_stake(100.0, GambleSpec())
        state = PlayerState(100.0, result.price)
        lhs = bernoulli_literal_lhs(state, GambleSpec())
        assert abs(lhs.value) < 1e-10

    def test_stake_and_break_even_price_are_both_interior(self):
        # The two criteria price the same gamble differently by
        # construction; no ordering between them is part of the
        # contract.  Both must simply be finite and lie inside (0, w).
        wealth = 100.0
        stake = bernoulli_stake(wealth, GambleSpec()).price
        root = breakeven_price(wealth, GambleSpec())
        assert math.isfinite(stake) and 0.0 < stake < wealth
        assert math.isfinite(root) and 0.0 < root < wealth

    def test_gains_are_summed_no_looser_than_the_policy(self):
        result = bernoulli_stake(100.0, GambleSpec(), TruncationPolicy(tolerance=1e-20))
        assert result.gains.is_converged
        assert result.gains.tail_bound <= 1e-20

    def test_menger_payouts_accept_any_stake(self):
        result = bernoulli_stake(100.0, GambleSpec(payout_rule=Menger()))
        assert result.kind is StakeKind.NEVER_ZERO
        assert result.price is None
        assert result.gains.classification.value == "DivergesPositive"

    def test_ruinous_outcome_makes_the_stake_undefined(self):
        # A payout that can wipe out more than the player's wealth makes
        # the free-ticket log gain itself undefined.
        table = Table(((0.5, 4.0), (0.5, -200.0)))
        result = bernoulli_stake(100.0, GambleSpec(payout_rule=table))
        assert result.kind is StakeKind.UNDEFINED
        assert result.price is None
        assert result.gains.classification.value == "Undefined"


# ====== Guaranteed-win partial-sum prices ======


class TestMengerPartialSumPrice:
    def test_reference_values(self):
        assert abs(menger_partial_sum_price(100.0, 1) - 63.2120558828557678) < 1e-10
        assert abs(menger_partial_sum_price(100.0, 5) - 99.3262053000914533) < 1e-10
        assert abs(menger_partial_sum_price(100.0, 10) - 99.9954600070237515) < 1e-10
        assert (
            abs(menger_partial_sum_price(100.0, 30) - 99.9999999999906424) < 1e-10
        )

    def test_price_approaches_wealth_from_below(self):
        prices = [menger_partial_sum_price(100.0, n) for n in (1, 5, 10, 30)]
        assert prices[0] < prices[1] < prices[2] < prices[3] < 100.0

    def test_scales_linearly_with_wealth(self):
        one = menger_partial_sum_price(1.0, 5)
        thousand = menger_partial_sum_price(1000.0, 5)
        assert abs(thousand - 1000.0 * one) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            menger_partial_sum_price(0.0, 5)
        with pytest.raises(ValueError):
            menger_partial_sum_price(100.0, 0)
