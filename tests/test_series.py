"""Tests for series evaluation: classification, convergence, and tail bounds."""

import math

import mpmath
import pytest

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
    time_average_growth,
)

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
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        result = expected_utility_change(state, GambleSpec(probability_parameter=0.05), "log")
        assert result.value == 9.446866223314077
        assert result.terms_used == 566

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

    def test_negated_linear_utility_diverges_negative(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        result = expected_utility_change(state, GambleSpec(), lambda x: -x)
        assert result.classification is Classification.DIVERGES_NEGATIVE

    def test_unknown_utility_name_rejected(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        with pytest.raises(ValueError):
            expected_utility_change(state, GambleSpec(), "cubic")


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
        with mpmath.workdps(40):
            w, c = mpmath.mpf(wealth), mpmath.mpf(price)
            gains = mpmath.fsum(mpmath.mpf(2) ** -n * mpmath.log1p(mpmath.mpf(2) ** (n - 1) / w)
                                for n in range(1, 200))
            exact = gains - mpmath.log(w / (w - c))
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
        assert policy.divergence_window == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tolerance=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(tolerance=-1e-10)
        with pytest.raises(ValueError):
            TruncationPolicy(divergence_window=1)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=8, divergence_window=16)


class TestClassificationLabels:
    def test_string_values_are_stable(self):
        assert Classification.CONVERGED.value == "Converged"
        assert Classification.DIVERGES_POSITIVE.value == "DivergesPositive"
        assert Classification.DIVERGES_NEGATIVE.value == "DivergesNegative"
        assert Classification.UNDEFINED.value == "Undefined"
        assert UndefinedReason.BANKRUPTCY_TERM.value == "BankruptcyTerm"
        reason = UndefinedReason.NONPOSITIVE_LOG_ARGUMENT
        assert reason.value == "NonpositiveLogArgument"
