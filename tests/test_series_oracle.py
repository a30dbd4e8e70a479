"""Criterion series against an independent 40-digit mpmath reference.

A derandomized sweep over wealth, ticket price, geometric parameter,
payout rule and utility.  Classifications must follow the analytic
conditions, and every ``Converged`` result must hold the reference within
``value +- (tail_bound + 4 eps (terms_used + 4) S)``, where ``S`` sums the
magnitudes of the terms the float loop added.  Whatever the loop adds in
closed form past those terms, its rounding included, must sit inside
``tail_bound``.
"""

import math
from typing import Callable, NamedTuple, Optional, Tuple

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from petersburg import (
    BernoulliOriginal,
    Capped,
    Classification,
    GambleSpec,
    Menger,
    PlayerState,
    Table,
    TruncationInconclusiveError,
    UndefinedReason,
    cap_point,
    expected_payout,
    expected_utility_change,
    min_payout,
    time_average_growth,
)

EPS = 2.0 ** -52
#: Terms summed directly past the payout's crossing of ``2 |net|``; beyond
#: them ``|net 2**(1-n)| < 2**-64``, and ``_ORDERS`` orders of the
#: expansion of the log or root in it reach 40 digits.
_DIRECT = 64
_ORDERS = 3

_TABLES = {
    "few": ((0.5, 0.0), (0.25, 3.0), (0.25, 40.0)),
    "wide": ((0.125, 1.5), (0.5, 0.25), (0.25, 1e5), (0.125, 7.0)),
}


class _Reference(NamedTuple):
    classification: Classification
    value: object = None
    #: ``magnitude(n)``: sum of the magnitudes of what a float loop adds
    #: when it stops after ``n`` terms
    magnitude: Optional[Callable[[int], object]] = None
    reason: Optional[UndefinedReason] = None


def _spec(rule: str, p: float, cap: float, table: str) -> GambleSpec:
    payout_rule = {"bernoulli": BernoulliOriginal(), "menger": Menger(), "capped": Capped(cap),
                   "table": Table(_TABLES[table])}[rule]
    return GambleSpec(payout_rule, p)


def _gain(utility: str, net, wealth) -> Tuple[Callable, Callable]:
    """``g(m)``, the change in utility from a payout ``m``, and the size
    ``|g|`` of what the float loop rounds while computing it."""
    if utility == "log":
        log_w = mpmath.log(wealth)
        return (lambda m: mpmath.log(net + m) - log_w,
                lambda m: abs(mpmath.log(net + m)) + abs(log_w) + 1)
    if utility == "sqrt":
        sqrt_w = mpmath.sqrt(wealth)
        return (lambda m: mpmath.sqrt(net + m) - sqrt_w,
                lambda m: mpmath.sqrt(net + m) + sqrt_w + 1)
    return (lambda m: m), abs


def _doubling_tail(utility: str, p, net, wealth, n0: int):
    """``sum_{n > n0} P(n) g(2**(n-1))`` for the log or root utility, summed
    in powers of ``x = net 2**(1-n)``."""
    q = 1 - p
    if utility == "log":
        # ln(net + 2**(n-1)) = (n-1) ln 2 + sum_k (-1)**(k+1) x**k / k
        tail = q ** n0 * (mpmath.log(2) * (n0 + q / p) - mpmath.log(wealth))
        for k in range(1, _ORDERS + 1):
            ratio = q / mpmath.mpf(2) ** k
            tail += (-1) ** (k + 1) * net ** k / k * p * ratio ** n0 / (1 - ratio)
        return tail
    # sqrt(net + 2**(n-1)) = 2**((n-1)/2) sum_k binom(1/2, k) x**k
    tail = -mpmath.sqrt(wealth) * q ** n0
    for k in range(0, _ORDERS + 1):
        ratio = q * mpmath.mpf(2) ** (mpmath.mpf(1) / 2 - k)
        tail += mpmath.binomial(mpmath.mpf(1) / 2, k) * net ** k * p * ratio ** n0 / (1 - ratio)
    return tail


def reference(spec: GambleSpec, wealth: float, price: float, utility: str) -> _Reference:
    """The criterion series of ``utility`` (``"none"`` for the expected
    payout, ``"log"`` or ``"sqrt"``) at the working precision, which the
    caller sets to 40 digits."""
    rule = spec.payout_rule
    w = mpmath.mpf(wealth)
    net = w - mpmath.mpf(price)
    lowest = mpmath.mpf(min_payout(spec, wealth))
    if (utility == "log" and net + lowest <= 0) or (utility == "sqrt" and net + lowest < 0):
        return _Reference(Classification.UNDEFINED, reason=UndefinedReason.BANKRUPTCY_TERM)
    g, size = _gain(utility, net, w)
    if isinstance(rule, Table):
        rows = [(mpmath.mpf(pr), mpmath.mpf(m)) for pr, m in rule.rows]
        return _Reference(Classification.CONVERGED, mpmath.fsum(pr * g(m) for pr, m in rows),
                          lambda n: mpmath.fsum(pr * size(m) for pr, m in rows[:n]))
    p = mpmath.mpf(spec.probability_parameter)
    q = 1 - p
    if isinstance(rule, Capped):
        last = cap_point(rule.max_payout)

        def paid(n):
            return mpmath.mpf(2) ** (n - 1) if n <= last else 0

        def magnitude(n):  # the loop adds the unpaid rest as one term
            return (mpmath.fsum(p * q ** (k - 1) * size(paid(k)) for k in range(1, n + 1))
                    + q ** n * size(0))

        value = (mpmath.fsum(p * q ** (n - 1) * g(paid(n)) for n in range(1, last + 1))
                 + q ** last * g(0))
        return _Reference(Classification.CONVERGED, value, magnitude)
    if isinstance(rule, Menger) or (utility == "none" and 2 * q >= 1) or (
            utility == "sqrt" and q * mpmath.sqrt(2) >= 1):
        return _Reference(Classification.DIVERGES_POSITIVE)
    n0 = _DIRECT + int(mpmath.ceil(mpmath.log(2 * abs(net) + 2, 2)))
    value = mpmath.fsum(p * q ** (n - 1) * g(mpmath.mpf(2) ** (n - 1)) for n in range(1, n0 + 1))
    return _Reference(Classification.CONVERGED, value + _doubling_tail(utility, p, net, w, n0),
                      lambda n: mpmath.fsum(p * q ** (k - 1) * size(mpmath.mpf(2) ** (k - 1))
                                            for k in range(1, n + 1)))


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


def assert_agrees(result, ref: _Reference) -> None:
    """``result`` has the reference's classification, and a converged
    value lies within its tail bound plus the running-sum slack."""
    assert result.classification is ref.classification, (result, ref.classification)
    if ref.reason is not None:
        assert result.reason is ref.reason
    if ref.classification is not Classification.CONVERGED:
        return
    n = result.terms_used
    slack = result.tail_bound + 4.0 * EPS * (n + 4) * ref.magnitude(n)
    miss = abs(mpmath.mpf(result.value) - ref.value)
    assert miss <= slack, (result, mpmath.nstr(ref.value, 25), mpmath.nstr(miss, 5))


def _rounded_ruin(spec: GambleSpec, wealth: float, price: float) -> bool:
    """Whether ``price`` is within rounding of a ruin price that is no double.

    Menger's smallest payout ``w (e**2 - 1)`` is rounded, so whether a
    price within a few ulp of ``w e**2`` bankrupts depends on how that
    payout was rounded, here and in the library alike.
    """
    ruin = wealth + min_payout(spec, wealth)
    return isinstance(spec.payout_rule, Menger) and abs(price - ruin) <= 8.0 * math.ulp(ruin)


def _check(spec: GambleSpec, wealth: float, price: float, utility: str) -> None:
    with mpmath.workdps(40):
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
            with mpmath.workdps(40):
                assert_agrees(result, reference(spec, wealth, price, "log"))

    @pytest.mark.parametrize("p", [0.3, 0.4, 0.5])
    @pytest.mark.parametrize("wealth", [1.0, 1e6])
    def test_sqrt_series_takes_under_100_terms(self, p, wealth):
        spec = GambleSpec(probability_parameter=p)
        for price in (0.0, 0.5 * wealth, wealth + 0.5):
            result = expected_utility_change(PlayerState(wealth, price), spec, "sqrt")
            assert result.terms_used < 100
            with mpmath.workdps(40):
                assert_agrees(result, reference(spec, wealth, price, "sqrt"))
