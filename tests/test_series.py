"""Tests for series evaluation: classification, convergence, and tail bounds."""

import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from petersburg import (
    BernoulliOriginal,
    Capped,
    Classification,
    GambleSpec,
    Menger,
    PlayerState,
    Table,
    TruncationInconclusiveError,
    TruncationPolicy,
    UndefinedReason,
    bernoulli_literal_lhs,
    ensemble_average_growth,
    expected_payout,
    expected_utility_change,
    min_payout,
    time_average_growth,
)
from petersburg import criteria, series
from petersburg.gamble import net_wealth
from petersburg.criteria import _criterion_sign
from petersburg.series import SeriesResult, _Probe, _sum
from mp_oracle import assert_agrees, literal_lhs, reciprocal_reference, reference
from test_series_oracle import _price, _spec

# High-precision reference values, computed independently with 50-digit
# decimal arithmetic and frozen here.
GROWTH_100_2 = 0.0234834936741544663694884870358
SQRT_CHANGE_100_2 = 0.166173985552501931271073755935
LITERAL_GAINS_100 = 0.0429577007756673356177266531277
LOG_MEAN_FACTOR_CAPPED = 0.122217632724249200546148584247


# ====== Expected payout ======


class TestExpectedPayout:
    def test_doubling_payout_diverges(self):
        result = expected_payout(GambleSpec())
        assert result.classification is Classification.DIVERGES_POSITIVE
        assert result.value is None

    def test_menger_payout_diverges(self):
        result = expected_payout(GambleSpec(payout_rule=Menger()), wealth=100.0)
        assert result.classification is Classification.DIVERGES_POSITIVE

    def test_capped_payout_is_exact(self):
        result = expected_payout(GambleSpec(payout_rule=Capped(1e9)))
        assert result.is_converged
        assert result.value == 15.0
        assert result.tail_bound == 0.0

    def test_capped_terms_stop_at_cap(self):
        result = expected_payout(GambleSpec(payout_rule=Capped(1e9)))
        assert result.terms_used == 30

    def test_table_payout_is_exact(self):
        table = Table(((0.5, 1.0), (0.25, 2.0), (0.25, 8.0)))
        result = expected_payout(GambleSpec(payout_rule=table))
        assert result.is_converged
        assert abs(result.value - 3.0) < 1e-15
        assert result.tail_bound == 0.0

    def test_doubling_with_fast_decay_converges_exactly(self):
        # With success probability 0.75 the doubling series is geometric
        # with ratio 1/2, so a closed-form tail applies from the first term.
        spec = GambleSpec(probability_parameter=0.75)
        result = expected_payout(spec)
        assert result.is_converged
        assert abs(result.value - 1.5) < 1e-14
        assert result.tail_bound == 0.0
        assert result.terms_used == 1

    def test_doubling_with_slow_decay_detected_divergent(self):
        # Success probability 0.4 makes the terms grow like 1.2**n; there is
        # no closed-form tail, so the windowed detector must flag divergence.
        spec = GambleSpec(probability_parameter=0.4)
        result = expected_payout(spec)
        assert result.classification is Classification.DIVERGES_POSITIVE


# ====== Time-average growth ======


class TestTimeAverageGrowth:
    def test_reference_value(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        result = time_average_growth(state, GambleSpec())
        assert result.is_converged
        assert abs(result.value - GROWTH_100_2) < 1e-10

    def test_value_error_within_reported_tail_bound(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        result = time_average_growth(state, GambleSpec())
        assert abs(result.value - GROWTH_100_2) <= result.tail_bound
        assert result.tail_bound <= 1e-10

    def test_tighter_policy_tightens_the_answer(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        policy = TruncationPolicy(tolerance=1e-13)
        result = time_average_growth(state, GambleSpec(), policy)
        assert abs(result.value - GROWTH_100_2) < 1e-13

    def test_free_ticket_has_positive_growth(self):
        state = PlayerState(wealth=100.0, ticket_price=0.0)
        result = time_average_growth(state, GambleSpec())
        assert result.value > 0.0

    def test_growth_decreases_with_price(self):
        spec = GambleSpec()
        cheap = time_average_growth(PlayerState(100.0, 2.0), spec)
        dear = time_average_growth(PlayerState(100.0, 4.0), spec)
        assert cheap.value > dear.value

    def test_bankruptcy_is_undefined(self):
        state = PlayerState(wealth=5.0, ticket_price=6.0)
        result = time_average_growth(state, GambleSpec())
        assert result.classification is Classification.UNDEFINED
        assert result.reason is UndefinedReason.BANKRUPTCY_TERM
        assert result.value is None

    def test_exact_ruin_is_undefined(self):
        # Losing the worst round leaves exactly zero wealth: the log of the
        # round-one growth factor does not exist.
        state = PlayerState(wealth=5.0, ticket_price=6.0)
        spec = GambleSpec()
        result = time_average_growth(state, spec)
        assert result.classification is Classification.UNDEFINED

    def test_table_growth_is_exact(self):
        table = Table(((0.5, 1.0), (0.5, 4.0)))
        state = PlayerState(wealth=10.0, ticket_price=2.0)
        result = time_average_growth(state, GambleSpec(payout_rule=table))
        expected = 0.5 * math.log(0.9) + 0.5 * math.log(1.2)
        assert result.is_converged
        assert abs(result.value - expected) < 1e-15
        assert result.tail_bound == 0.0

    def test_table_bankruptcy_is_undefined(self):
        table = Table(((0.5, 0.0), (0.5, 4.0)))
        state = PlayerState(wealth=10.0, ticket_price=10.0)
        result = time_average_growth(state, GambleSpec(payout_rule=table))
        assert result.classification is Classification.UNDEFINED
        assert result.reason is UndefinedReason.BANKRUPTCY_TERM

    def test_menger_growth_with_price_below_wealth(self):
        state = PlayerState(wealth=100.0, ticket_price=50.0)
        result = time_average_growth(state, GambleSpec(payout_rule=Menger()))
        assert result.classification is Classification.DIVERGES_POSITIVE

    def test_menger_growth_survives_full_wealth_price(self):
        # Every payout multiplies wealth by at least e**2 - 1, so even
        # staking all of it leaves the growth rate divergent.
        state = PlayerState(wealth=100.0, ticket_price=100.0)
        result = time_average_growth(state, GambleSpec(payout_rule=Menger()))
        assert result.classification is Classification.DIVERGES_POSITIVE

    def test_menger_growth_beyond_smallest_payout_is_undefined(self):
        # A price above wealth * e**2 turns the worst round into a loss of
        # everything and more.
        state = PlayerState(wealth=100.0, ticket_price=800.0)
        result = time_average_growth(state, GambleSpec(payout_rule=Menger()))
        assert result.classification is Classification.UNDEFINED
        assert result.reason is UndefinedReason.BANKRUPTCY_TERM

    def test_impossible_tolerance_is_inconclusive(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        policy = TruncationPolicy(tolerance=1e-30, max_terms=20)
        with pytest.raises(TruncationInconclusiveError):
            time_average_growth(state, GambleSpec(), policy)


# ====== Where the doubling tails start probing ======


def _probed_sum(kind, p, wealth, price, policy, skip=True):
    """``_sum`` of a doubling log or sqrt series, and the ``n`` its tail was
    asked at.  Without ``skip`` the same tail is asked at every ``n`` from
    its start."""
    rule = BernoulliOriginal()
    net, residual = net_wealth(wealth, price)
    term, far = getattr(rule, f"{kind}_terms")(net, wealth, residual)
    tail = getattr(rule, f"{kind}_tail")(p, net, wealth)
    probes = []

    def rest(n):
        probes.append(n)
        return tail.rest(n)

    probed = tail._replace(rest=rest, reach=tail.reach if skip else None)
    try:
        result = _sum(GambleSpec(rule, p), policy, term, far, probed)
    except TruncationInconclusiveError as exc:
        result = f"inconclusive: {exc}"
    return result, probes


class TestTailReach:
    """Tail probes start where a bound can first reach the tolerance."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["log", "sqrt"]),
           p_exp=st.floats(-5.0, math.log10(0.5)),
           wealth_exp=st.floats(-3.0, 16.0),
           price=st.sampled_from(["free", "share", "near_ruin", "ruin"]),
           share=st.floats(0.0, 1.0),
           tol_exp=st.floats(-320.0, -3.0),
           max_terms=st.sampled_from([10_000, 300, 40]))
    @example(kind="log", p_exp=-2.0, wealth_exp=2.0, price="free", share=0.0,
             tol_exp=-15.4, max_terms=300)  # first useful n near 880
    @example(kind="log", p_exp=-5.0, wealth_exp=16.0, price="near_ruin", share=1.0,
             tol_exp=-320.0, max_terms=10_000)
    def test_skip_is_exact(self, kind, p_exp, wealth_exp, price, share, tol_exp, max_terms):
        p = 10.0 ** p_exp
        if kind == "sqrt":  # the sqrt tail exists only for q sqrt(2) < 1
            p = 0.3 + 0.2 * (p_exp + 5.0) / (5.0 + math.log10(0.5))
        wealth = 10.0 ** wealth_exp
        ruin = wealth + 1.0  # the smallest payout is 1
        price = {"free": 0.0, "share": share * wealth,
                 "near_ruin": ruin * (1.0 - 10.0 ** (-1.0 - 14.0 * share)),
                 "ruin": ruin}[price]
        policy = TruncationPolicy(tolerance=10.0 ** tol_exp, max_terms=max_terms)
        skipped, asked = _probed_sum(kind, p, wealth, price, policy)
        every, asked_every = _probed_sum(kind, p, wealth, price, policy, skip=False)
        assert repr(skipped) == repr(every)
        assert asked == asked_every[len(asked_every) - len(asked):]

    def test_first_useful_n_past_max_terms_asks_no_tail(self):
        # at p = 0.01 a bound first reaches 4e-16 near n = 880
        policy = TruncationPolicy(tolerance=4e-16, max_terms=300)
        skipped, asked = _probed_sum("log", 0.01, 100.0, 2.0, policy)
        every, _ = _probed_sum("log", 0.01, 100.0, 2.0, policy, skip=False)
        assert skipped == every
        assert skipped.startswith("inconclusive: no tail bound below 4e-16")
        assert asked == []

    @pytest.mark.parametrize("kind", ["log", "sqrt"])
    @pytest.mark.parametrize("tolerance", [1e-10, 4e-16])
    def test_converged_series_probe_at_most_three_times(self, kind, tolerance):
        policy = TruncationPolicy(tolerance=tolerance)
        converged = 0
        for p in (0.5, 0.2, 0.05, 1e-3, 1e-5):
            for wealth in (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6):
                for price in (0.0, 2.0, wealth / 2, 0.999 * wealth):
                    if kind == "sqrt" and p < 0.3:
                        continue  # no tail, and a divergent series
                    result, asked = _probed_sum(kind, p, wealth, price, policy)
                    if not isinstance(result, str) and result.is_converged:
                        converged += 1
                        assert len(asked) <= 3, (p, wealth, price, asked)
        assert converged >= 28


def _reference_slope(spec: GambleSpec, wealth: float, price: float, terms_used: int) -> float:
    """``sum P(n) / (net + payout_n)`` over the first ``terms_used``
    outcomes, plus the exact tail of a capped rule, by a plain loop."""
    rule, p = spec.payout_rule, spec.probability_parameter
    net = wealth - price
    slope = 0.0
    for n, weight, _ in rule.outcomes(p, terms_used):
        slope += weight / (net + rule.payout(n, wealth))
    if isinstance(rule, Capped):
        # every outcome past the cap pays nothing
        slope += (1.0 - p) ** terms_used / (net + rule.payout(terms_used + 1, wealth))
    return slope


def _solver_policy(wealth: float) -> TruncationPolicy:
    """The tolerance :func:`breakeven_price` sums the rate to."""
    return TruncationPolicy(tolerance=min(1e-10, max(1e-10 / (16.0 * wealth), 4e-16)))


def _rate_zero(spec: GambleSpec, wealth: float, root: float) -> float:
    """The last price at which the rate summed to the solver's tolerance is
    positive, by bisection over the doubles around a solved ``root``."""
    policy = _solver_policy(wealth)
    floor = max(1e-10, 4.0 * math.ulp(wealth + min_payout(spec, wealth)))

    def sign(price: float) -> int:
        return _criterion_sign(time_average_growth(PlayerState(wealth, price), spec, policy))

    lo, hi = max(root - floor, 0.0), root + floor
    if sign(lo) <= 0 or sign(hi) > 0:
        return root
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if sign(mid) > 0 else (lo, mid)
    return lo


_PROBE_RULES = st.sampled_from(["bernoulli", "capped", "menger", "table"])
_PROBE_P = {"bernoulli": [0.5, 0.2, 0.05, 1e-3], "capped": [0.5, 0.2, 0.05, 1e-3],
            "menger": [0.5, 0.51, 0.6, 0.9], "table": [0.5] * 4}


class TestSolverProbes:
    """The slope summed with the rate, and rates summed for a sign alone."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rule=_PROBE_RULES, p_index=st.integers(0, 3),
           cap=st.sampled_from([0.5, 10.0, 1e9, 2.0 ** 1000]),
           table=st.sampled_from(["few", "wide"]),
           wealth_exp=st.floats(-3.0, 16.0),
           regime=st.sampled_from(["zero", "normal", "near_ruin", "brink"]),
           closeness=st.floats(1e-15, 0.1))
    @example(rule="capped", p_index=3, cap=2.0 ** 1000, table="few", wealth_exp=2.0,
             regime="normal", closeness=0.01)  # terms past n = 900, then the exact tail
    @example(rule="menger", p_index=1, cap=10.0, table="few", wealth_exp=0.0,
             regime="normal", closeness=0.01)  # Menger terms past n = 900
    @example(rule="bernoulli", p_index=0, cap=10.0, table="few", wealth_exp=-0.5,
             regime="brink", closeness=1e-9)  # wealth - price is rounded
    def test_slope_is_the_plain_sum(self, rule, p_index, cap, table, wealth_exp, regime,
                                    closeness):
        spec = _spec(rule, _PROBE_P[rule][p_index], cap, table)
        wealth = 10.0 ** wealth_exp
        price = _price(spec, wealth, regime, closeness)
        state, policy = PlayerState(wealth, price), _solver_policy(wealth)
        probe = _Probe()
        try:
            plain = time_average_growth(state, spec, policy)
        except TruncationInconclusiveError:
            with pytest.raises(TruncationInconclusiveError):
                time_average_growth(state, spec, policy, _probe=probe)
            return
        result = time_average_growth(state, spec, policy, _probe=probe)
        assert repr(result) == repr(plain)
        if result.is_converged:
            assert repr(probe.slope) == repr(
                _reference_slope(spec, wealth, price, result.terms_used))

    def test_slope_sweep_reaches_far_terms(self):
        spec = GambleSpec(Capped(2.0 ** 1000), 1e-3)
        probe = _Probe()
        result = time_average_growth(PlayerState(100.0, 1.0), spec, _probe=probe)
        assert result.terms_used == 1001
        assert probe.slope == _reference_slope(spec, 100.0, 1.0, 1001)
        spec = GambleSpec(Menger(), 0.51)
        result = time_average_growth(PlayerState(1.0, 0.01), spec, _solver_policy(1.0),
                                     _probe=probe)
        assert result.terms_used > 900
        assert probe.slope == _reference_slope(spec, 1.0, 0.01, result.terms_used)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rule=_PROBE_RULES, p_index=st.integers(0, 3),
           cap=st.sampled_from([0.5, 10.0, 1e9]),
           table=st.sampled_from(["few", "wide"]),
           wealth_exp=st.floats(-3.0, 16.0),
           regime=st.sampled_from(["root", "root", "zero_rate", "zero_rate", "zero",
                                   "normal", "near_ruin", "brink", "ruin", "ruinous"]),
           closeness=st.floats(1e-15, 0.1),
           ulps=st.integers(-4, 4))
    def test_sign_only_sign_is_the_full_sign(self, rule, p_index, cap, table, wealth_exp,
                                             regime, closeness, ulps):
        spec = _spec(rule, _PROBE_P[rule][p_index], cap, table)
        wealth = 10.0 ** wealth_exp
        if regime in ("root", "zero_rate"):
            try:
                root = criteria.breakeven_price(wealth, spec)
            except (criteria.NoSignChangeError, TruncationInconclusiveError):
                root = _price(spec, wealth, "brink", closeness)
            else:
                if regime == "zero_rate":  # where the sign is least certain
                    root = _rate_zero(spec, wealth, root)
            price = max(root + ulps * math.ulp(root), 0.0)
        elif regime == "ruinous":
            price = _price(spec, wealth, "ruin", closeness) * (1.0 + closeness)
        else:
            price = _price(spec, wealth, regime, closeness)
        state, policy = PlayerState(wealth, price), _solver_policy(wealth)
        try:
            full = time_average_growth(state, spec, policy)
        except TruncationInconclusiveError:
            # a sign may be certain long before the value is: check it
            # against the oracle
            try:
                signed = time_average_growth(state, spec, policy, _probe=_Probe(sign_only=True))
            except TruncationInconclusiveError:
                return
            assert _criterion_sign(signed) == mpmath.sign(
                reference(spec, wealth, price, "log").value)
            return
        signed = time_average_growth(state, spec, policy, _probe=_Probe(sign_only=True))
        assert _criterion_sign(signed) == _criterion_sign(full)
        assert signed.classification is full.classification
        if not full.is_converged:
            assert signed == full
        assert signed.terms_used <= full.terms_used

    def test_sign_only_probe_without_a_certain_sign_runs_to_the_tolerance(self):
        # where the rate changes sign it is far below every bound above the
        # tolerance
        price = _rate_zero(GambleSpec(), 100.0, criteria.breakeven_price(100.0, GambleSpec()))
        state, policy = PlayerState(100.0, price), _solver_policy(100.0)
        signed = time_average_growth(state, GambleSpec(), policy, _probe=_Probe(sign_only=True))
        assert signed == time_average_growth(state, GambleSpec(), policy)
        assert signed.tail_bound <= policy.tolerance


# ====== Ensemble-average growth ======


class TestEnsembleAverageGrowth:
    def test_doubling_diverges_for_any_state(self):
        spec = GambleSpec()
        for wealth, price in ((0.5, 0.0), (100.0, 2.0), (1e6, 1e6)):
            result = ensemble_average_growth(PlayerState(wealth, price), spec)
            assert result.classification is Classification.DIVERGES_POSITIVE

    def test_capped_reference_value(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec(payout_rule=Capped(1e9))
        result = ensemble_average_growth(state, spec)
        assert result.is_converged
        assert abs(result.value - LOG_MEAN_FACTOR_CAPPED) < 1e-12

    def test_table_log_mean_factor(self):
        table = Table(((0.5, 1.0), (0.5, 4.0)))
        state = PlayerState(wealth=10.0, ticket_price=2.0)
        result = ensemble_average_growth(state, GambleSpec(payout_rule=table))
        assert abs(result.value - math.log(1.05)) < 1e-14

    def test_nonpositive_mean_factor_is_undefined(self):
        table = Table(((0.5, 0.0), (0.5, 0.0)))
        state = PlayerState(wealth=10.0, ticket_price=20.0)
        result = ensemble_average_growth(state, GambleSpec(payout_rule=table))
        assert result.classification is Classification.UNDEFINED
        assert result.reason is UndefinedReason.NONPOSITIVE_LOG_ARGUMENT

    @pytest.mark.parametrize("tail_bound", [1e-6, 1.0, 1e3])
    def test_coarse_payout_bound_is_inconclusive_at_once(self, monkeypatch, tail_bound):
        # no built-in rule gives a converged payout a nonzero bound, so a
        # synthetic one stands in; the payout is not summed again
        def resummed(*args, **kwargs):
            raise AssertionError("expected payout summed again")

        monkeypatch.setattr(series, "expected_payout", resummed)
        inner = SeriesResult.converged(5.0, tail_bound, 12)
        with pytest.raises(TruncationInconclusiveError, match="ensemble growth rate"):
            series._ensemble_growth(PlayerState(100.0, 2.0), GambleSpec(),
                                    TruncationPolicy(), inner)

    def test_fine_payout_bound_converges(self):
        inner = SeriesResult.converged(5.0, 1e-9, 12)
        result = series._ensemble_growth(PlayerState(100.0, 2.0), GambleSpec(),
                                         TruncationPolicy(), inner)
        assert result.is_converged
        assert result.value == math.log(1.03)
        assert result.tail_bound == (1e-9 / 100.0) / (1.03 - 1e-9 / 100.0)
        assert result.terms_used == 12


# ====== Expected utility change ======


class TestExpectedUtilityChange:
    def test_log_utility_equals_time_average_bitwise(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec()
        by_utility = expected_utility_change(state, spec, "log")
        by_time = time_average_growth(state, spec)
        assert by_utility.value == by_time.value
        assert by_utility.terms_used == by_time.terms_used

    def test_sqrt_utility_reference_value(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        result = expected_utility_change(state, GambleSpec(), "sqrt")
        assert result.is_converged
        assert abs(result.value - SQRT_CHANGE_100_2) < 1e-10

    def test_sqrt_utility_bankruptcy_is_undefined(self):
        state = PlayerState(wealth=5.0, ticket_price=7.0)
        result = expected_utility_change(state, GambleSpec(), "sqrt")
        assert result.classification is Classification.UNDEFINED

    def test_callable_utility_matches_named_log(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec()
        custom = expected_utility_change(state, spec, math.log)
        named = expected_utility_change(state, spec, "log")
        assert abs(custom.value - named.value) < 1e-9

    def test_callable_utility_respects_tail_bound(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        result = expected_utility_change(state, GambleSpec(), math.log)
        assert result.is_converged
        assert abs(result.value - GROWTH_100_2) <= result.tail_bound + 1e-13

    @pytest.mark.parametrize("p", [0.5, 0.2, 0.05])
    def test_callable_log_agrees_with_named_log(self, p):
        # At p = 0.05 the terms rise until n ~ 1/p; a window reading that
        # rise as divergence once called this convergent series divergent.
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec(probability_parameter=p)
        custom = expected_utility_change(state, spec, lambda x: math.log(x))
        named = expected_utility_change(state, spec, "log")
        assert custom.is_converged
        assert abs(custom.value - named.value) <= custom.tail_bound + named.tail_bound

    @pytest.mark.parametrize("wealth", [1e5, 1e6])
    def test_callable_log_converges_at_large_wealth(self, wealth):
        # The terms rise until the payout passes the wealth, n ~ log2(wealth),
        # and for about 1/p rounds more; a window starting at 1/p read that
        # rise as divergence.
        state = PlayerState(wealth=wealth, ticket_price=2.0)
        spec = GambleSpec(probability_parameter=0.05)
        custom = expected_utility_change(state, spec, math.log)
        named = expected_utility_change(state, spec, "log")
        assert custom.is_converged
        assert abs(custom.value - named.value) <= custom.tail_bound + named.tail_bound

    def test_named_log_keeps_its_terms(self):
        # the closed doubling tail ends this series in fewer than 100
        # terms (566 while the tail was only bounded), within its bound
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec(probability_parameter=0.05)
        result = expected_utility_change(state, spec, "log")
        assert result.terms_used < 100
        assert_agrees(result, reference(spec, 100.0, 2.0, "log"))

    def test_callable_on_capped_gamble_sums_the_tail_exactly(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec(payout_rule=Capped(1e9))
        custom = expected_utility_change(state, spec, math.log)
        named = expected_utility_change(state, spec, "log")
        assert (custom.value, custom.tail_bound, custom.terms_used) == (
            named.value, 0.0, named.terms_used)

    def test_linear_utility_recovers_divergent_expectation(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        result = expected_utility_change(state, GambleSpec(), lambda x: x)
        assert result.classification is Classification.DIVERGES_POSITIVE

    def test_overflowing_payout_is_no_divergence(self):
        # at p = 0.01 the window has not settled when 2**1024 overflows;
        # an infinite term there says nothing of the series
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec(probability_parameter=0.01)
        with pytest.raises(TruncationInconclusiveError, match="payout of term 1025 overflows"):
            expected_utility_change(state, spec, math.log)

    @pytest.mark.parametrize("rule, p", [(BernoulliOriginal(), 0.01), (Menger(), 0.3)],
                             ids=["bernoulli", "menger"])
    def test_bounded_utility_sums_past_overflowing_payouts(self, rule, p):
        # u(inf) = -0.0 is the exact limit, so a payout past the double
        # range still gives a finite term
        spec = GambleSpec(rule, p)
        result = expected_utility_change(PlayerState(100.0, 2.0), spec, lambda x: -1.0 / x)
        assert result.is_converged
        assert_agrees(result, reciprocal_reference(spec, 100.0, 2.0))

    def test_log_of_overflowing_menger_payout_is_no_divergence(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec(Menger(), 0.3)
        with pytest.raises(TruncationInconclusiveError, match="payout of term 10 overflows"):
            expected_utility_change(state, spec, math.log)

    def test_negated_linear_utility_diverges_negative(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        result = expected_utility_change(state, GambleSpec(), lambda x: -x)
        assert result.classification is Classification.DIVERGES_NEGATIVE

    def test_unknown_utility_name_rejected(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        with pytest.raises(ValueError):
            expected_utility_change(state, GambleSpec(), "cubic")

    def test_callable_utility_of_a_bankrupt_outcome_is_undefined(self):
        result = expected_utility_change(PlayerState(100.0, 101.0), GambleSpec(), math.log)
        assert result.classification is Classification.UNDEFINED
        assert result.reason is UndefinedReason.BANKRUPTCY_TERM
        assert result.terms_used == 1

    def test_callable_utility_failing_on_positive_wealth_is_undefined(self):
        # the first outcome leaves 99 > 0, where this utility has no value
        result = expected_utility_change(PlayerState(100.0, 2.0), GambleSpec(),
                                         lambda x: math.log(x - 99.0))
        assert result.classification is Classification.UNDEFINED
        assert result.reason is UndefinedReason.NONPOSITIVE_LOG_ARGUMENT

    def test_nan_utility_fails_loudly(self):
        # term 7 pays 64, leaving 98 + 64 = 162
        def utility(x):
            return math.nan if x == 162.0 else math.log(x)

        with pytest.raises(FloatingPointError, match="term 7 evaluated to NaN"):
            expected_utility_change(PlayerState(100.0, 2.0), GambleSpec(), utility)


# ====== Literal all-or-nothing accounting ======


class TestBernoulliLiteralLhs:
    def test_free_ticket_equals_pure_gains(self):
        state = PlayerState(wealth=100.0, ticket_price=0.0)
        result = bernoulli_literal_lhs(state, GambleSpec())
        assert result.is_converged
        assert abs(result.value - LITERAL_GAINS_100) < 1e-10

    def test_price_enters_through_single_loss_term(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        result = bernoulli_literal_lhs(state, GambleSpec())
        expected = LITERAL_GAINS_100 + math.log1p(-0.02)
        assert abs(result.value - expected) < 1e-10

    def test_price_at_full_wealth_is_undefined(self):
        state = PlayerState(wealth=100.0, ticket_price=100.0)
        result = bernoulli_literal_lhs(state, GambleSpec())
        assert result.classification is Classification.UNDEFINED
        assert result.reason is UndefinedReason.NONPOSITIVE_LOG_ARGUMENT

    def test_menger_payouts_make_it_diverge(self):
        state = PlayerState(wealth=100.0, ticket_price=99.9)
        result = bernoulli_literal_lhs(state, GambleSpec(payout_rule=Menger()))
        assert result.classification is Classification.DIVERGES_POSITIVE

    @pytest.mark.parametrize("fraction", [0.5, 0.9, 0.999, 0.9999999, 0.9999999999])
    def test_near_ruin_price_keeps_its_digits(self, fraction):
        # ln(w / (w - c)) grows without bound as c -> w; computing it as
        # log1p(-c/w) would amplify the rounding of c/w by w / (w - c).
        wealth = 1000.0
        price = wealth * fraction
        tight = TruncationPolicy(tolerance=1e-16)
        result = bernoulli_literal_lhs(PlayerState(wealth, price), GambleSpec(), tight)
        exact = literal_lhs(GambleSpec(), wealth, price)
        miss = abs(mpmath.mpf(result.value) - exact)
        assert miss <= result.tail_bound + 4 * math.ulp(float(exact))


# ====== Divergence structure of the two classic series ======


class TestDivergentTermStructure:
    def test_doubling_expectation_partial_sums_are_half_n(self):
        # Probability halves while the payout doubles, so every term of
        # the expectation is exactly 1/2 and partial sums are N/2.
        from petersburg import payout, probability

        spec = GambleSpec()
        partial = 0.0
        for n in range(1, 41):
            partial += probability(spec, n) * payout(spec, n)
            assert partial == n / 2.0

    def test_menger_log_gain_partial_sums_are_n(self):
        # For the wealth-scaled payout each log-gain term of the literal
        # criterion is exactly one: (1/2)^n * log((w + m_n)/w) = 1.
        from petersburg import payout

        spec = GambleSpec(payout_rule=Menger())
        for wealth in (1.0, 100.0):
            partial = 0.0
            for n in range(1, 10):
                gain = math.log((wealth + payout(spec, n, wealth)) / wealth)
                partial += 0.5**n * gain
                assert abs(partial - n) < 1e-9


# ====== Policy and result plumbing ======


class TestTruncationPolicy:
    def test_defaults(self):
        policy = TruncationPolicy()
        assert policy.tolerance == 1e-10
        assert policy.max_terms == 10_000

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tolerance=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(tolerance=-1e-10)
        with pytest.raises(ValueError, match="max_terms must be at least 16"):
            TruncationPolicy(max_terms=8)


class TestClassificationLabels:
    def test_string_values_are_stable(self):
        assert Classification.CONVERGED.value == "Converged"
        assert Classification.DIVERGES_POSITIVE.value == "DivergesPositive"
        assert Classification.DIVERGES_NEGATIVE.value == "DivergesNegative"
        assert Classification.UNDEFINED.value == "Undefined"
        assert UndefinedReason.BANKRUPTCY_TERM.value == "BankruptcyTerm"
        reason = UndefinedReason.NONPOSITIVE_LOG_ARGUMENT
        assert reason.value == "NonpositiveLogArgument"
