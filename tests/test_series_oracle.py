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

import mpmath
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
    TruncationPolicy,
    bernoulli_literal_lhs,
    ensemble_average_growth,
    expected_payout,
    expected_utility_change,
    min_payout,
    time_average_growth,
)
from petersburg.gamble import Diverges, net_wealth
from petersburg.series import _power_series

_TABLES = {
    "few": ((0.5, 0.0), (0.25, 3.0), (0.25, 40.0)),
    "wide": ((0.125, 1.5), (0.5, 0.25), (0.25, 1e5), (0.125, 7.0)),
    # every product and partial sum of its mean, 14.75, is a double
    "exact": ((0.5, 1.0), (0.25, 3.0), (0.25, 54.0)),
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


class TestPowerFamily:
    """The expected payout (``theta = 1``), the square-root change
    (``theta = 1/2``) and other powers share one doubling tail."""

    @pytest.mark.parametrize("p", [0.5001, 0.501, 0.6, 0.75, 0.99])
    def test_payout(self, p):
        spec = GambleSpec(probability_parameter=p)
        assert_agrees(expected_payout(spec), reference(spec, 1.0, 0.0, "none"))

    @pytest.mark.parametrize("p", [0.3, 0.4, 0.6, 0.99])
    @pytest.mark.parametrize("wealth", [1.0, 1e6])
    def test_sqrt_change(self, p, wealth):
        spec = GambleSpec(probability_parameter=p)
        for price in (0.0, 0.02 * wealth, wealth + 0.5):
            result = expected_utility_change(PlayerState(wealth, price), spec, "sqrt")
            assert_agrees(result, reference(spec, wealth, price, "sqrt"))

    @pytest.mark.parametrize("p", [0.5, 0.6])
    @pytest.mark.parametrize("wealth, price", [(1.0, 0.0), (100.0, 2.0), (1e6, 1e6)])
    def test_power_nine_tenths(self, p, wealth, price):
        spec = GambleSpec(probability_parameter=p)
        net, residual = net_wealth(wealth, price)
        result = _power_series(spec, TruncationPolicy(), 0.9, wealth, net, residual,
                               math.pow(wealth, 0.9))
        assert result.is_converged
        assert_agrees(result, reference(spec, wealth, price, 0.9))

    @pytest.mark.parametrize("p", [0.2929, 0.293])
    def test_sqrt_tail_near_its_edge_is_never_wrong(self, p):
        # q sqrt(2) is within 2e-4 of 1, and q**n underflows long before
        # G**n = (q sqrt(2))**n falls: no verdict, or the right one
        spec = GambleSpec(probability_parameter=p)
        try:
            result = expected_utility_change(PlayerState(100.0, 2.0), spec, "sqrt")
        except TruncationInconclusiveError:
            return
        assert_agrees(result, reference(spec, 100.0, 2.0, "sqrt"))


class TestOraclePrecision:
    """The reference keeps its digits where the price is tiny beside the wealth."""

    def test_growth_sign_changes_between_close_prices_at_wealth_1e300(self):
        spec = GambleSpec()

        def growth(price):
            return float(reference(spec, 1e300, price, "log").value)

        assert f"{growth(499.26):.1e}" == "5.6e-304"
        assert f"{growth(498.80):.1e}" == "4.6e-301"
        assert growth(499.27) < 0.0


with mpmath.workprec(200):
    #: The double nearest 1 - 1/sqrt(2), where q sqrt(2) crosses 1.
    _SQRT_EDGE = float(1 - 1 / mpmath.sqrt(2))
#: Geometric parameters about the edges of divergence: q sqrt(2) = 1 for
#: the square root, 2q = 1 for the payout and Menger's log.  At 0.9 and
#: 0.99 the bound on Menger's payout terms still falls past their start.
_EDGE_PS = [0.002, 0.05, 0.29, math.nextafter(_SQRT_EDGE, 0.0), _SQRT_EDGE,
            math.nextafter(_SQRT_EDGE, 1.0), 0.3, 0.5, 0.5 + 1e-9, 0.6, 0.9, 0.99]
_CRITERIA = ["payout", "ensemble", "time", "literal", "sqrt"]


def _criterion(criterion: str, spec: GambleSpec, wealth: float, price: float):
    """The library's result of one criterion, and the divergence verdict of
    its mpmath reference: the ensemble rate diverges with the payout, and
    the literal criterion with the log series at price 0."""
    state = PlayerState(wealth, price)
    run, utility, at = {
        "payout": (lambda: expected_payout(spec, wealth=wealth), "none", price),
        "ensemble": (lambda: ensemble_average_growth(state, spec), "none", price),
        "time": (lambda: time_average_growth(state, spec), "log", price),
        "literal": (lambda: bernoulli_literal_lhs(state, spec), "log", 0.0),
        "sqrt": (lambda: expected_utility_change(state, spec, "sqrt"), "sqrt", price),
    }[criterion]
    ref = reference(spec, wealth, at, utility).classification
    return run, ref is Classification.DIVERGES_POSITIVE


class TestDivergenceCertificates:
    """Every divergence verdict comes from a rule's proof, and each proof's
    floor lies below the true terms."""

    @pytest.mark.parametrize("p", _EDGE_PS)
    @pytest.mark.parametrize("rule", ["bernoulli", "menger", "capped", "table"])
    @pytest.mark.parametrize("criterion", _CRITERIA)
    def test_verdicts_agree_with_the_reference(self, criterion, rule, p):
        spec = _spec(rule, p, 1e9, "wide")
        for wealth in (1.0, 100.0, 1e6):
            for share in (0.0, 0.5):
                run, diverges = _criterion(criterion, spec, wealth, share * wealth)
                try:
                    result = run()
                except TruncationInconclusiveError:
                    # no verdict is never a wrong one; but a divergent series is proved so
                    assert not diverges, (criterion, rule, p, wealth, share)
                    continue
                verdict = result.classification is Classification.DIVERGES_POSITIVE
                assert verdict == diverges, (criterion, rule, p, wealth, share, result)

    @pytest.mark.parametrize("p", _EDGE_PS)
    @pytest.mark.parametrize("series", ["doubling payout", "doubling sqrt", "menger payout",
                                        "menger sqrt", "menger log"])
    def test_floor_lies_below_every_term_from_the_start(self, series, p):
        proved = 0
        for wealth in (5e-324, 1e-320, 1e-310, 1e-300, 1.0, 100.0, 1e6, 1e300):
            for share in (0.0, 0.5, 1.0, 6.0):
                certificate, term = _certified(series, p, wealth, share * wealth)
                if not isinstance(certificate, Diverges):
                    continue
                proved += 1
                assert certificate.floor > 0.0
                with mpmath.workprec(200):
                    for k in range(certificate.start, certificate.start + 61):
                        assert certificate.floor <= term(k), (series, p, wealth, share, k)
        # Menger's payout and square root always diverge; the rest where
        # 2q >= 1, or q sqrt(2) >= 1
        edge = {"doubling payout": p <= 0.5, "doubling sqrt": p < _SQRT_EDGE,
                "menger log": p <= 0.5}.get(series, True)
        assert proved == (32 if edge else 0)

    @pytest.mark.parametrize("p", [1e-5, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("series", ["menger payout", "menger sqrt"])
    def test_menger_floor_is_a_normal_double(self, series, p):
        # beside a subnormal wealth the bound at the least k lies below the
        # normal range; the proof starts later, where it is a normal double
        for wealth in (5e-324, 1e-320, 1e-310):
            for share in (0.0, 0.5, 1.0, 6.0):
                certificate, _ = _certified(series, p, wealth, share * wealth)
                assert certificate.floor >= 2.0 ** -1022, (wealth, share, certificate)

    @pytest.mark.parametrize("p", [5e-324, 1e-320, 1e-310])
    @pytest.mark.parametrize("series", ["doubling payout", "doubling sqrt"])
    def test_doubling_floor_is_a_normal_double(self, series, p):
        # p / 4 lies below the normal range; the proof starts later, where
        # the rising terms are normal doubles
        for wealth in (5e-324, 1.0, 100.0, 1e300):
            for share in (0.0, 0.5, 1.0, 6.0):
                certificate, term = _certified(series, p, wealth, share * wealth)
                assert isinstance(certificate, Diverges)
                assert certificate.floor >= 2.0 ** -1022, (wealth, share, certificate)
                with mpmath.workprec(200):
                    for k in range(certificate.start, certificate.start + 61):
                        assert certificate.floor <= term(k), (series, p, wealth, share, k)


def _certified(series: str, p: float, wealth: float, price: float):
    """The certificate a rule gives for one series, and the series' exact
    term ``k`` in mpmath."""
    family, kind = series.split()
    rule = BernoulliOriginal() if family == "doubling" else Menger()
    net, _ = net_wealth(wealth, price)
    w, c = mpmath.mpf(wealth), mpmath.mpf(price)

    def paid(k):
        if family == "doubling":
            return 2 ** mpmath.mpf(k - 1)
        return w * mpmath.expm1(2 ** mpmath.mpf(k))

    def weight(k):
        return p * (1 - mpmath.mpf(p)) ** (k - 1)

    if kind == "payout":
        return rule.power_tail(1.0, p, 0.0, wealth, 0.0), lambda k: weight(k) * paid(k)
    if kind == "sqrt":
        return (rule.power_tail(0.5, p, net, wealth, math.sqrt(wealth)),
                lambda k: weight(k) * (mpmath.sqrt(w - c + paid(k)) - mpmath.sqrt(w)))
    return (rule.log_tail(p, net, wealth),
            lambda k: weight(k) * (mpmath.log(w - c + paid(k)) - mpmath.log(w)))


class TestEnsembleRateRounding:
    """The ensemble rate is ``log1p((E[m] - c) / w)``, and its bound counts
    that rounding: the log of the rounded factor ``(w - c + E[m]) / w``
    missed mpmath by up to 7.6e-17 outside a bound of 3.8e-18."""

    @pytest.mark.parametrize("rule, p", [("bernoulli", 0.6), ("bernoulli", 0.9),
                                         ("bernoulli", 0.99), ("capped", 0.5), ("table", 0.5)])
    @pytest.mark.parametrize("wealth, price", [(100.0, 2.0), (1.0, 0.5), (1e6, 3.0)])
    def test_rate_holds_the_reference_within_its_bound(self, rule, p, wealth, price):
        # the capped and table means, 10 and 11.5 / 7.5 ..., are summed exactly
        spec = _spec(rule, p, 1e6, "exact")
        result = ensemble_average_growth(PlayerState(wealth, price), spec)
        mean = reference(spec, wealth, 0.0, "none")
        with mpmath.workprec(mean.bits):
            w = mpmath.mpf(wealth)
            exact = mpmath.log((w - mpmath.mpf(price) + mean.value) / w)
            assert abs(mpmath.mpf(result.value) - exact) <= result.tail_bound
        assert 0.0 < result.tail_bound <= 1e-10
