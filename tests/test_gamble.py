"""Tests for payout rules, probabilities, and per-outcome quantities."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from petersburg import montecarlo
from petersburg import (
    BernoulliOriginal,
    Capped,
    GambleSpec,
    Menger,
    OutOfSupportError,
    PlayerState,
    Table,
    cap_point,
    growth_factor,
    load_table,
    min_payout,
    payout,
    probability,
    support_size,
)
from petersburg.cli import parse_payout
from petersburg.gamble import _MAX_WAITING_TIME, _doubling_start, net_wealth


class TestDoublingPayouts:
    def test_first_payouts_double(self):
        spec = GambleSpec()
        assert payout(spec, 1) == 1.0
        assert payout(spec, 2) == 2.0
        assert payout(spec, 3) == 4.0
        assert payout(spec, 11) == 1024.0

    def test_huge_index_saturates_to_inf(self):
        spec = GambleSpec()
        assert payout(spec, 1200) == math.inf

    def test_wealth_does_not_matter(self):
        spec = GambleSpec()
        assert payout(spec, 5, wealth=1.0) == payout(spec, 5, wealth=1e6)

    def test_waiting_time_must_be_positive_integer(self):
        spec = GambleSpec()
        with pytest.raises(ValueError):
            payout(spec, 0)
        with pytest.raises(ValueError):
            payout(spec, -3)


class TestMengerPayouts:
    def test_first_payout_scales_with_wealth(self):
        spec = GambleSpec(payout_rule=Menger())
        expected = 100.0 * math.expm1(2.0)  # wealth times (e^(2^1) - 1)
        assert abs(payout(spec, 1, wealth=100.0) - expected) < 1e-9
        assert abs(payout(spec, 1, wealth=100.0) - 638.905609893065023) < 1e-9

    def test_overflow_saturates_to_inf(self):
        spec = GambleSpec(payout_rule=Menger())
        assert payout(spec, 10, wealth=1.0) == math.inf
        assert payout(spec, 9, wealth=1.0) < math.inf


class TestCappedPayouts:
    def test_payouts_below_cap_match_doubling(self):
        spec = GambleSpec(payout_rule=Capped(1e9))
        assert payout(spec, 1) == 1.0
        assert payout(spec, 30) == 2.0 ** 29

    def test_payouts_beyond_cap_are_zero(self):
        spec = GambleSpec(payout_rule=Capped(1e9))
        assert payout(spec, 31) == 0.0
        assert payout(spec, 100) == 0.0

    def test_cap_point_values(self):
        assert cap_point(1e9) == 30
        assert cap_point(0.5) == 0
        assert cap_point(1.0) == 1
        assert cap_point(2.0) == 2
        assert cap_point(3.0) == 2
        assert cap_point(2.0 ** 52) == 53

    def test_cap_point_of_the_largest_doubles(self):
        # log2 rounds the 354 largest doubles up to 1024.0
        assert cap_point(sys.float_info.max) == 1024
        assert cap_point(2.0 ** 1023) == 1024
        assert cap_point(math.nextafter(2.0 ** 1023, 0.0)) == 1023

    def test_cap_must_be_positive_and_finite(self):
        with pytest.raises(ValueError):
            Capped(0.0)
        with pytest.raises(ValueError):
            Capped(-5.0)
        with pytest.raises(ValueError):
            Capped(math.inf)


class TestTableGambles:
    def setup_method(self):
        self.table = Table(((0.5, 1.0), (0.25, 2.0), (0.25, 10.0)))
        self.spec = GambleSpec(payout_rule=self.table)

    def test_rows_are_indexed_by_waiting_time(self):
        assert payout(self.spec, 1) == 1.0
        assert payout(self.spec, 3) == 10.0
        assert probability(self.spec, 2) == 0.25

    def test_beyond_support_raises(self):
        with pytest.raises(OutOfSupportError):
            payout(self.spec, 4)
        with pytest.raises(OutOfSupportError):
            probability(self.spec, 4)

    def test_support_size(self):
        assert support_size(self.spec) == 3
        assert support_size(GambleSpec()) is None

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Table(((0.5, 1.0), (0.4, 2.0)))

    def test_probabilities_must_be_positive(self):
        with pytest.raises(ValueError):
            Table(((1.5, 1.0), (-0.5, 2.0)))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            Table(())

    def test_non_finite_rows_rejected(self):
        with pytest.raises(ValueError):
            Table(((1.0, math.inf),))


class TestProbabilities:
    def test_geometric_law(self):
        spec = GambleSpec()
        assert abs(probability(spec, 1) - 0.5) < 1e-15
        assert abs(probability(spec, 5) - 0.5 ** 5) < 1e-15

    def test_other_parameter(self):
        spec = GambleSpec(probability_parameter=0.3)
        assert abs(probability(spec, 3) - 0.3 * 0.7 ** 2) < 1e-15

    def test_parameter_must_be_in_open_interval(self):
        with pytest.raises(ValueError):
            GambleSpec(probability_parameter=0.0)
        with pytest.raises(ValueError):
            GambleSpec(probability_parameter=1.0)
        with pytest.raises(ValueError):
            GambleSpec(probability_parameter=-0.2)


#: The smallest geometric parameter the sampler draws: the largest double
#: below 1 draws a waiting time of exactly 2**24 from it.
SMALLEST_SAMPLED_P = 2.189681550783825e-06


class TestWaitingTimeLimit:
    def test_smallest_sampled_p_reaches_the_limit(self):
        u = np.array([0.0, 1.0 - 2.0 ** -53])
        assert BernoulliOriginal().waiting_times(u, SMALLEST_SAMPLED_P).tolist() == [1, 2 ** 24]

    @pytest.mark.parametrize("p", [math.nextafter(SMALLEST_SAMPLED_P, 0.0), 1e-12, 1e-300,
                                   5e-324])
    def test_smaller_p_is_refused_before_any_draw(self, p):
        u = np.array([0.5])
        message = f"geometric parameter {re.escape(repr(p))} .* limit of 16777216"
        with pytest.raises(ValueError, match=message):
            BernoulliOriginal().waiting_times(u, p)
        assert u.tolist() == [0.5]


class TestGrowthFactor:
    def test_factor_at_entry_state(self):
        state = PlayerState(wealth=100.0, ticket_price=2.0)
        spec = GambleSpec()
        assert abs(growth_factor(state, spec, 1) - 0.99) < 1e-15
        assert abs(growth_factor(state, spec, 8) - 2.26) < 1e-15

    def test_factor_can_be_nonpositive(self):
        state = PlayerState(wealth=10.0, ticket_price=11.0)
        spec = GambleSpec()
        assert growth_factor(state, spec, 1) == 0.0
        assert growth_factor(PlayerState(10.0, 12.0), spec, 1) < 0.0

    @pytest.mark.parametrize("wealth, price", [
        (0.018716800208158565, 1.018716800208152),
        # the rounded wealth - price is -1 exactly: the factor would be 0
        (0.2543094026557902, 1.2543094026557902),
    ])
    def test_near_ruin_factor_keeps_the_exact_remainder(self, wealth, price):
        state, spec = PlayerState(wealth, price), GambleSpec()
        exact = (Fraction(wealth) - Fraction(price) + 1) / Fraction(wealth)
        factor = growth_factor(state, spec, 1)
        assert exact > 0
        assert abs(Fraction(factor) - exact) <= 2 * sys.float_info.epsilon * exact
        assert montecarlo._growth_factors(state, spec, np.array([1, 2])).tolist() == [
            factor, growth_factor(state, spec, 2)]


class TestNetWealth:
    @pytest.mark.parametrize("wealth, price", [
        (0.018716800208158565, 1.018716800208152),  # a price past twice the wealth
        (1.0, 1e-20),
        (123.4, 5.67),
        (1e6, 1e6 + 1.0),
        (0.1, 0.3),
    ])
    def test_residual_is_the_exact_rounding_error(self, wealth, price):
        net, residual = net_wealth(wealth, price)
        assert net == wealth - price
        assert Fraction(net) + Fraction(residual) == Fraction(wealth) - Fraction(price)


class TestDoublingStart:
    @pytest.mark.parametrize("net, start", [
        (0.0, 1), (-0.0, 1), (0.25, 1), (0.5, 1), (0.75, 2), (1.0, 2), (-3.0, 4), (4.0, 4),
    ])
    def test_first_n_whose_payout_reaches_twice_net(self, net, start):
        # 2**(start - 1) >= 2 |net| > 2**(start - 2), or start = 1
        assert _doubling_start(net) == start
        assert 2.0 ** (start - 1) >= 2.0 * abs(net)
        assert start == 1 or 2.0 ** (start - 2) < 2.0 * abs(net)


class TestMinPayout:
    def test_doubling_minimum_is_one_dollar(self):
        assert min_payout(GambleSpec()) == 1.0

    def test_capped_minimum_is_zero(self):
        assert min_payout(GambleSpec(payout_rule=Capped(1e9))) == 0.0

    def test_table_minimum(self):
        table = Table(((0.5, 4.0), (0.5, 0.25)))
        assert min_payout(GambleSpec(payout_rule=table)) == 0.25

    @pytest.mark.parametrize("rule, wealth", [
        (BernoulliOriginal(), 100.0),
        (Capped(1e6), 100.0),
        (Capped(sys.float_info.max), 100.0),
        (Menger(), 1e-300),
        (Menger(), 100.0),
        (Menger(), 1e300),
        (Table(((0.25, 4.0), (0.5, -0.5), (0.25, 0.0))), 100.0),
    ])
    def test_minimum_bounds_every_sampled_payout(self, rule, wealth):
        # the sampler drops its per-draw ruin test on this bound, so it
        # must hold at every waiting time the sampler can draw
        least = rule.min_payout(wealth)
        limit = rule.support_size or _MAX_WAITING_TIME
        step = 2**20
        for first in range(1, limit + 1, step):
            ns = np.arange(first, min(first + step, limit + 1))
            assert rule.payouts(ns, wealth).min() >= least


class TestPlayerState:
    def test_wealth_must_be_positive(self):
        with pytest.raises(ValueError):
            PlayerState(0.0)
        with pytest.raises(ValueError):
            PlayerState(-10.0)

    def test_price_must_be_nonnegative_and_finite(self):
        with pytest.raises(ValueError):
            PlayerState(10.0, -1.0)
        with pytest.raises(ValueError):
            PlayerState(10.0, math.nan)

    def test_free_ticket_is_valid(self):
        state = PlayerState(10.0)
        assert state.ticket_price == 0.0


class TestLoadTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gamble.csv"
        path.write_text("probability,payout\n0.5,1.0\n0.25,2.0\n0.25,8.0\n")
        table = load_table(str(path))
        assert table.rows == ((0.5, 1.0), (0.25, 2.0), (0.25, 8.0))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gamble.csv"
        path.write_text("p,m\n0.5,1.0\n\n0.5,3.0\n")
        assert len(load_table(str(path)).rows) == 2

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "gamble.csv"
        path.write_text("0.5,1.0\n0.5,2.0\n")
        with pytest.raises(ValueError, match="header"):
            load_table(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "gamble.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_table(str(path))

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "gamble.csv"
        path.write_text("p,m\n0.5,1.0\n0.5,2.0,9\n")
        with pytest.raises(ValueError, match=":3"):
            load_table(str(path))

    def test_non_numeric_row_reports_line(self, tmp_path):
        path = tmp_path / "gamble.csv"
        path.write_text("p,m\n0.5,one\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_table(str(path))

    def test_bad_probability_sum_mentions_file(self, tmp_path):
        path = tmp_path / "gamble.csv"
        path.write_text("p,m\n0.5,1.0\n0.1,2.0\n")
        with pytest.raises(ValueError, match="gamble.csv"):
            load_table(str(path))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_table(str(tmp_path / "nope.csv"))


# One table row per waiting time, with payouts up to 2**1023: at wealth
# 1e-3 the top rows' growth factors overflow a double.
_LONG_TABLE = Table(tuple((1.0 / 1100, math.ldexp(1.0, min(n - 1, 1023)))
                          for n in range(1, 1101)))
_RULES = [BernoulliOriginal(), Menger(), Capped(1e6), _LONG_TABLE]


@pytest.mark.parametrize("rule", _RULES, ids=lambda rule: type(rule).__name__)
class TestRuleConformance:
    """The scalar rule methods the series use agree with the vectorised
    ones the sampler uses, for every waiting time up to 1100."""

    ns = np.arange(1, 1101)

    @pytest.mark.parametrize("wealth", [1e-3, 1.0, 1e6])
    def test_series_log_gain_matches_sampler_log_factor(self, rule, wealth):
        state = PlayerState(wealth=wealth, ticket_price=wealth / 2.0)
        vectorised = montecarlo._log_growth_factors(state, GambleSpec(rule), self.ns)
        net, residual = net_wealth(state.wealth, state.ticket_price)
        term = rule.log_terms(net, wealth, residual)
        for n, factor in zip(self.ns.tolist(), vectorised.tolist()):
            gain = term(n, 1.0, 0.0, rule.payout(n, wealth))
            if math.isinf(gain) or math.isinf(factor):
                assert gain == factor, n
            else:
                bound = 8.0 * sys.float_info.epsilon * (1.0 + abs(math.log(wealth)) + abs(gain))
                assert abs(gain - factor) <= bound, n

    def test_vectorised_payouts_are_the_scalar_ones(self, rule):
        # and so are the payouts the series stream with the outcomes
        spec = GambleSpec(rule)
        for wealth in (1e-320, 1e-3, 1.0, 1e6, 1e300):
            scalar = [payout(spec, n, wealth) for n in self.ns.tolist()]
            assert rule.payouts(self.ns, wealth).tolist() == scalar
            streamed = [m for *_, m in rule.outcomes(0.5, len(self.ns), wealth)]
            assert list(map(float.hex, streamed)) == list(map(float.hex, scalar))

    def test_token_round_trips(self, rule):
        if isinstance(rule, Table):
            assert rule.token == "table:1100 rows"
        else:
            assert parse_payout(rule.token) == rule


@pytest.mark.parametrize("cap", [0.5, 1.0, 2.0 ** 40, sys.float_info.max])
def test_capped_payout_streams_are_the_scalar_payouts(cap):
    # a cap below 1 pays nothing from the first outcome on
    rule, ns = Capped(cap), np.arange(1, 1101)
    scalar = [payout(GambleSpec(rule), n) for n in ns.tolist()]
    assert rule.payouts(ns, 1.0).tolist() == scalar
    streamed = [m for *_, m in rule.outcomes(0.5, len(ns), 1.0)]
    assert list(map(float.hex, streamed)) == list(map(float.hex, scalar))
