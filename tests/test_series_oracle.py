"""Criterion series against the independent mpmath reference of ``mp_oracle``.

A derandomized sweep over wealth, ticket price, geometric parameter,
payout rule and utility.  Classifications must follow the analytic
conditions, and every ``Converged`` result must hold the reference within
``value +- (tail_bound + 4 eps (terms_used + 4) S)``, where ``S`` sums the
magnitudes of the terms the float loop added.  Whatever the loop adds in
closed form past those terms, its rounding included, must sit inside
``tail_bound``.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mp_oracle import assert_agrees, reference
from petersburg import (
    BernoulliOriginal,
    Capped,
    Classification,
    GambleSpec,
    Menger,
    PlayerState,
    Table,
    TruncationInconclusiveError,
    expected_payout,
    expected_utility_change,
    min_payout,
    time_average_growth,
)

_TABLES = {
    "few": ((0.5, 0.0), (0.25, 3.0), (0.25, 40.0)),
    "wide": ((0.125, 1.5), (0.5, 0.25), (0.25, 1e5), (0.125, 7.0)),
}


def _spec(rule: str, p: float, cap: float, table: str) -> GambleSpec:
    payout_rule = {"bernoulli": BernoulliOriginal(), "menger": Menger(), "capped": Capped(cap),
                   "table": Table(_TABLES[table])}[rule]
    return GambleSpec(payout_rule, p)


def _evaluate(spec: GambleSpec, wealth: float, price: float, utility: str):
    if utility == "none":
        return expected_payout(spec, wealth=wealth)
    state = PlayerState(wealth, price)
    if utility == "log":
        return time_average_growth(state, spec)
    return expected_utility_change(state, spec, "sqrt")


def _price(spec: GambleSpec, wealth: float, regime: str, closeness: float) -> float:
    """A price for one regime; ``closeness`` in (0, 0.1] sets how close."""
    ruin = wealth + min_payout(spec, wealth)
    if regime == "normal":
        return wealth * closeness * 5.0
    if regime == "near_ruin" or ruin == wealth:
        return wealth * (1.0 - closeness)
    if regime == "brink":  # between wealth and the ruin price
        return ruin - (ruin - wealth) * closeness
    if regime == "ruin":
        return ruin
    return 0.0


def _rounded_ruin(spec: GambleSpec, wealth: float, price: float) -> bool:
    """Whether ``price`` is within rounding of a ruin price that is no double.

    Menger's smallest payout ``w (e**2 - 1)`` is rounded, so whether a
    price within a few ulp of ``w e**2`` bankrupts depends on how that
    payout was rounded, here and in the library alike.
    """
    ruin = wealth + min_payout(spec, wealth)
    return isinstance(spec.payout_rule, Menger) and abs(price - ruin) <= 8.0 * math.ulp(ruin)


def _check(spec: GambleSpec, wealth: float, price: float, utility: str) -> None:
    ref = reference(spec, wealth, price, utility)
    try:
        result = _evaluate(spec, wealth, price, utility)
    except TruncationInconclusiveError:
        # no verdict is never a wrong verdict; tests of term counts
        # say where a verdict is due
        return
    undefined = Classification.UNDEFINED
    if _rounded_ruin(spec, wealth, price) and undefined in (result.classification,
                                                            ref.classification):
        return
    assert_agrees(result, ref)


class TestOracleSweep:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(rule=st.sampled_from(["bernoulli", "capped", "menger", "table"]),
           log_p=st.floats(-5.0, math.log10(0.5)),
           log_wealth=st.floats(-3.0, 6.0),
           regime=st.sampled_from(["zero", "normal", "near_ruin", "brink", "ruin"]),
           log_closeness=st.floats(-15.0, -1.0),
           utility=st.sampled_from(["none", "log", "sqrt"]),
           cap=st.floats(0.5, 1e12),
           table=st.sampled_from(sorted(_TABLES)))
    def test_converged_values_hold_the_reference(self, rule, log_p, log_wealth, regime,
                                                 log_closeness, utility, cap, table):
        spec = _spec(rule, min(10.0 ** log_p, 0.5), cap, table)
        wealth = 10.0 ** log_wealth
        _check(spec, wealth, _price(spec, wealth, regime, 10.0 ** log_closeness), utility)

    @pytest.mark.parametrize("rule, p, wealth, price, utility", [
        # a heavy tail whose value, 6.9e4, leaves 1e-10 about 13 ulp
        ("bernoulli", 1e-5, 1e6, 3.0, "log"),
        ("bernoulli", 1e-5, 1e6, 3.0, "sqrt"),
        # prices within 1e-14 of ruin at a wealth below the smallest
        # payout, where wealth - price rounds
        ("bernoulli", 0.02128296370353517, 0.018716800208158565, 1.018716800208152, "log"),
        ("table", 0.5, 0.0046523241329144045, 0.2546523241329137, "log"),
        ("bernoulli", 0.0056755957449328, 0.1701690738166754, 1.1701690738166754, "sqrt"),
    ])
    def test_named_cases_hold_the_reference(self, rule, p, wealth, price, utility):
        _check(_spec(rule, p, 1.0, "wide"), wealth, price, utility)


class TestDoublingTailTerms:
    """The closed doubling tails end a series in a number of terms that
    hardly depends on ``p``."""

    @pytest.mark.parametrize("p", [1e-5, 1e-4, 1e-3, 0.0032, 0.01, 0.05, 0.2, 0.5])
    @pytest.mark.parametrize("wealth", [1.0, 100.0, 1e4, 1e6])
    def test_log_series_takes_under_100_terms(self, p, wealth):
        spec = GambleSpec(probability_parameter=p)
        for price in (0.0, 0.02 * wealth, 0.5 * wealth, wealth, wealth + 0.5):
            result = time_average_growth(PlayerState(wealth, price), spec)
            assert result.terms_used < 100
            assert_agrees(result, reference(spec, wealth, price, "log"))

    @pytest.mark.parametrize("p", [0.3, 0.4, 0.5])
    @pytest.mark.parametrize("wealth", [1.0, 1e6])
    def test_sqrt_series_takes_under_100_terms(self, p, wealth):
        spec = GambleSpec(probability_parameter=p)
        for price in (0.0, 0.5 * wealth, wealth + 0.5):
            result = expected_utility_change(PlayerState(wealth, price), spec, "sqrt")
            assert result.terms_used < 100
            assert_agrees(result, reference(spec, wealth, price, "sqrt"))


class TestOraclePrecision:
    """The reference keeps its digits where the price is tiny beside the wealth."""

    def test_growth_sign_changes_between_close_prices_at_wealth_1e300(self):
        spec = GambleSpec()

        def growth(price):
            return float(reference(spec, 1e300, price, "log").value)

        assert f"{growth(499.26):.1e}" == "5.6e-304"
        assert f"{growth(498.80):.1e}" == "4.6e-301"
        assert growth(499.27) < 0.0
