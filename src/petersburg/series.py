"""Decision-criterion series with explicit convergence classification.

Every criterion evaluated here is an infinite sum over gamble outcomes.
Rather than truncating blindly, each evaluation returns a
:class:`SeriesResult` that says what the partial sums did:

* ``Converged`` -- the omitted tail is summed in closed form or bounded,
  and what its closed form leaves out stays below the policy tolerance,
  so the reported value is trustworthy;
* ``DivergesPositive`` / ``DivergesNegative`` -- the terms do not decay
  (detected over a window of consecutive terms, or a rule's own term
  overflowing the double range; a payout past that range whose custom
  utility is not finite gives no verdict);
* ``Undefined`` -- some outcome requires the log (or other utility) of a
  nonpositive quantity, e.g. a ticket price that risks bankruptcy.

All criteria are one sum, ``sum P(n) * gain(n)``, taken by one loop,
:func:`_sum`.  The payout rule supplies the terms, each safe where its
payout or weight leaves the double range, and, where it knows one, the
tail as a closed-form part and a bound on the rest: summed exactly
(capped and table tails), in closed form up to its rounding and a
remainder geometric in ``q/2`` or ``q/2**(1 - theta)`` (the log and
power tails of the doubling payout, which end the sum in a number of
terms that hardly depends on ``p``), or only bounded by an envelope.
Divergence detection only runs for series without a tail: with one the
series is provably convergent, and heavy-tailed cases (small geometric
parameter) rise for many terms before decaying, which would otherwise
look like divergence.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

from .gamble import GambleSpec, PlayerState, Tail, Term, net_wealth, overflowed_factor

# consecutive-term ratios at or above 1 - slack count as "not decaying"
_RATIO_SLACK = 1e-12
# the spacing of doubles at 1
_EPS = 2.0 ** -52
# consecutive non-decaying terms that classify a series as divergent
_DIVERGENCE_WINDOW = 16


class Classification(str, Enum):
    """How the partial sums of a criterion series behaved."""

    CONVERGED = "Converged"
    DIVERGES_POSITIVE = "DivergesPositive"
    DIVERGES_NEGATIVE = "DivergesNegative"
    UNDEFINED = "Undefined"


class UndefinedReason(str, Enum):
    """Why a series value does not exist."""

    BANKRUPTCY_TERM = "BankruptcyTerm"
    NONPOSITIVE_LOG_ARGUMENT = "NonpositiveLogArgument"


class TruncationInconclusiveError(ArithmeticError):
    """Neither the tail envelope nor the divergence test fired within max_terms."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rules for series evaluation.

    Args:
        tolerance: Absolute bound the omitted tail must satisfy before a
            result is reported ``Converged``.
        max_terms: Hard cap on examined terms; exceeding it raises
            :class:`TruncationInconclusiveError`.  At least 16, the run
            of non-decaying terms that classifies a series as divergent.
    """

    tolerance: float = 1e-10
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_terms < _DIVERGENCE_WINDOW:
            raise ValueError(f"max_terms must be at least {_DIVERGENCE_WINDOW}")


@dataclass(frozen=True)
class SeriesResult:
    """Classified outcome of a truncated series evaluation.

    ``value`` and ``tail_bound`` are set only for ``Converged`` results;
    ``reason`` only for ``Undefined`` ones.  ``tail_bound`` is zero when
    the remainder beyond the examined terms was summed exactly (finite
    tables, capped tails), and bounds what a closed form leaves out, its
    rounding included, otherwise (the geometric expected payout too).
    """

    classification: Classification
    terms_used: int
    value: Optional[float] = None
    tail_bound: Optional[float] = None
    reason: Optional[UndefinedReason] = None

    @classmethod
    def converged(cls, value: float, tail_bound: float, terms_used: int) -> "SeriesResult":
        return cls(Classification.CONVERGED, terms_used, value=value, tail_bound=tail_bound)

    @classmethod
    def diverges_positive(cls, terms_used: int) -> "SeriesResult":
        return cls(Classification.DIVERGES_POSITIVE, terms_used)

    @classmethod
    def diverges_negative(cls, terms_used: int) -> "SeriesResult":
        return cls(Classification.DIVERGES_NEGATIVE, terms_used)

    @classmethod
    def undefined(cls, reason: UndefinedReason, terms_used: int) -> "SeriesResult":
        return cls(Classification.UNDEFINED, terms_used, reason=reason)

    @property
    def is_converged(self) -> bool:
        return self.classification is Classification.CONVERGED


class _UndefinedTerm(ValueError):
    """Internal: a custom utility rejected its argument."""

    def __init__(self, reason: UndefinedReason):
        self.reason = reason
        super().__init__(reason.value)


# ---------------------------------------------------------------------------
# summation engine
# ---------------------------------------------------------------------------

def _window_divergence(window: "deque[float]") -> int:
    """Return +1/-1 if the window shows sign-uniform non-decaying terms."""
    first = window[0]
    sign = 1 if first > 0.0 else (-1 if first < 0.0 else 0)
    if sign == 0:
        return 0
    prev = abs(first)
    for tau in list(window)[1:]:
        mag = abs(tau)
        if (sign > 0) != (tau > 0.0) or tau == 0.0:
            return 0
        if mag < prev * (1.0 - _RATIO_SLACK):
            return 0
        prev = mag
    return sign


def _empirical_bound(window: "deque[float]") -> Optional[float]:
    """Geometric envelope of the tail fitted to the trailing window, if any."""
    mags = [abs(t) for t in window]
    if all(m == 0.0 for m in mags):
        return 0.0
    if all(m > 0.0 for m in mags[:-1]):
        rho = max(b / a for a, b in zip(mags, mags[1:]))
        if rho < 1.0:
            return mags[-1] * rho / (1.0 - rho)
    return None


def _undefined(exc: ValueError, n: int) -> SeriesResult:
    """A term raised ``exc``: a log or root of nonpositive wealth, unless a
    custom utility says otherwise."""
    return SeriesResult.undefined(getattr(exc, "reason", UndefinedReason.BANKRUPTCY_TERM), n)


def _sum(
    spec: GambleSpec,
    policy: TruncationPolicy,
    term: Term,
    tail: Optional[Tail] = None,
    empirical_from: Optional[int] = None,
    sign_only: bool = False,
) -> SeriesResult:
    """Sum ``term(n, P(n), ln P(n))`` over the outcomes of ``spec``.

    ``term`` holds at every ``n``: the rule that wrote it takes it in
    logs where its payout or weight leaves the double range.  The rule's
    exact tail past its last paid outcome, if it has one, replaces
    ``tail``.  From ``tail.start`` on, or from ``tail.reach(tolerance)``
    if that is later, the sum stops once the bound of ``tail.rest(n)``
    is within the tolerance, and reports the terms so far plus the
    closed-form part of the rest.  Before ``reach`` no bound could
    reach the tolerance, so asking ``rest`` there would change nothing.
    Without a tail, a window of non-decaying terms means divergence.  With
    ``empirical_from`` (a custom utility, whose terms may still rise
    before it) the window starts at that ``n``, and a geometric envelope
    fitted to it may certify convergence.

    With ``sign_only``, a sum with a tail asks ``rest`` from
    ``tail.start`` on, and also stops at the first ``n`` where the sign of
    the value is certain: where ``|total + omitted|`` exceeds twice the
    bound plus the rounding of the partial sum, ``n eps`` times ``mass``,
    the sum of the magnitudes of its terms, which the loop adds up beside
    ``total`` in this mode only.  The rest lies within the bound of
    ``omitted``, and a sum run on to the tolerance would end within a
    smaller bound of it, so its value would lie within twice the bound of
    ``total + omitted`` and have the same sign.  Such a result is
    ``Converged`` with a ``tail_bound`` that may exceed the tolerance:
    only its sign is certain.  Where no sign is certain the sum runs on
    to the tolerance, as without ``sign_only``.
    """
    rule = spec.payout_rule
    p = spec.probability_parameter
    tail = rule.tail(term, p) or tail
    start, rest, reach = tail or (None, None, None)
    if reach is not None and not sign_only:
        start = max(start, reach(policy.tolerance))
    window_from = empirical_from or 1
    window: deque = deque(maxlen=_DIVERGENCE_WINDOW)
    total = mass = 0.0
    for n, weight, log_weight in rule.outcomes(p, policy.max_terms):
        try:
            tau = term(n, weight, log_weight)
        except ValueError as exc:
            return _undefined(exc, n)
        if not math.isfinite(tau):
            if math.isnan(tau):
                raise FloatingPointError(f"term {n} evaluated to NaN")
            return (SeriesResult.diverges_positive(n) if tau > 0
                    else SeriesResult.diverges_negative(n))
        total += tau
        if sign_only:
            mass += abs(tau)
        if start is None:
            if n < window_from:
                continue
            window.append(tau)
            if len(window) == window.maxlen:
                sign = _window_divergence(window)
                if sign > 0:
                    return SeriesResult.diverges_positive(n)
                if sign < 0:
                    return SeriesResult.diverges_negative(n)
                bound = _empirical_bound(window) if empirical_from else None
                if bound is not None and bound <= policy.tolerance:
                    return SeriesResult.converged(total, bound, n)
        elif n >= start:
            try:
                omitted, bound = rest(n)
            except ValueError as exc:
                return _undefined(exc, n + 1)
            if bound <= policy.tolerance or (
                    sign_only and abs(total + omitted) > 2.0 * bound + n * _EPS * mass):
                return SeriesResult.converged(total + omitted, bound, n)
    raise TruncationInconclusiveError(
        f"no tail bound below {policy.tolerance!r} and no divergence detected "
        f"within {policy.max_terms} terms"
    )


# ---------------------------------------------------------------------------
# public criteria series
# ---------------------------------------------------------------------------

def expected_payout(
    spec: GambleSpec,
    policy: Optional[TruncationPolicy] = None,
    *,
    wealth: float = 1.0,
) -> SeriesResult:
    """Probability-weighted payout sum (the naive lottery valuation).

    Args:
        spec: Gamble specification.
        policy: Truncation policy; defaults to :class:`TruncationPolicy`.
        wealth: Player wealth, needed only because Menger payouts are
            wealth-scaled; classification does not depend on it.

    Returns:
        ``DivergesPositive`` for the classic doubling lottery (each term
        contributes half a dollar forever); ``Converged`` for capped and
        table variants, exactly, and for fast-decaying geometric ones
        (``p > 1/2``), up to the rounding of their closed-form tail.
    """
    return _power_series(spec, policy or TruncationPolicy(), 1.0, wealth)


def _power_series(spec: GambleSpec, policy: TruncationPolicy, theta: float, wealth: float,
                  net: float = 0.0, residual: float = 0.0, base: float = 0.0) -> SeriesResult:
    """Sum of ``P(n) * ((net + payout_n + residual)**theta - base)``, for
    ``0 < theta <= 1`` and ``base`` 0 or ``wealth**theta``: the expected
    payout at ``theta = 1``, the square-root change at 1/2.  It stays in
    dollars: ``wealth**theta`` times a sum of ``r**theta - 1`` over growth
    factors would lose the digits of a payout small beside the wealth."""
    rule = spec.payout_rule
    return _sum(spec, policy, rule.power_terms(theta, net, wealth, residual, base),
                rule.power_tail(theta, spec.probability_parameter, net, base))


class _Probe:
    """What the break-even solver asks of one growth-rate sum besides its
    result.

    A ``sign_only`` probe sums only until the sign of the value is
    certain (see :func:`_sum`).  Any other probe gets ``slope``: the sum
    of ``P(n) / (net + payout_n)`` over the terms the value took, plus
    the exact tail of a capped rule, added up by the log terms as they
    run (``with_slope``).  That is minus the derivative of the rate in
    the price; it steers Newton steps and carries no error bound.
    """

    __slots__ = ("sign_only", "slope")

    def __init__(self, sign_only: bool = False) -> None:
        self.sign_only = sign_only
        self.slope: Optional[float] = None


def _log_change_series(
    spec: GambleSpec,
    wealth: float,
    price: float,
    policy: TruncationPolicy,
    probe: Optional[_Probe] = None,
) -> SeriesResult:
    """Sum of ``P(n) * (ln(net + payout_n) - ln(wealth))`` over outcomes.

    ``net = wealth - price`` is the wealth that survives the round
    regardless of outcome (the original Bernoulli criterion ignores the
    price on the gain side and passes a price of 0).  A ``probe`` asks
    for a sign only, or for the slope as well (see :class:`_Probe`).
    """
    rule = spec.payout_rule
    net, residual = net_wealth(wealth, price)
    tail = rule.log_tail(spec.probability_parameter, net, wealth)
    sign_only = probe is not None and probe.sign_only
    with_slope = probe is not None and not sign_only
    term = rule.log_terms(net, wealth, residual, with_slope)
    if with_slope:
        term, slope = term
    result = _sum(spec, policy, term, tail, sign_only=sign_only)
    if with_slope:
        probe.slope = slope()
    return result


def time_average_growth(
    state: PlayerState,
    spec: GambleSpec,
    policy: Optional[TruncationPolicy] = None,
    *,
    _probe: Optional[_Probe] = None,
) -> SeriesResult:
    """Expected per-round growth rate of log wealth.

    This is the rate an individual player experiences when the gamble is
    played repeatedly, and the quantity whose sign the time criterion
    acts on.  It is finite for the classic doubling lottery even though
    the naive expected payout diverges.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        policy: Truncation policy; defaults to :class:`TruncationPolicy`.

    Returns:
        ``Converged`` with the growth rate per round;
        ``Undefined(BankruptcyTerm)`` as soon as any outcome leaves the
        player with nonpositive wealth (price >= wealth + smallest
        payout); ``DivergesPositive`` for payouts growing too fast for
        the log to tame (Menger-type).

    ``_probe`` serves the break-even solver alone (see :class:`_Probe`).
    """
    policy = policy or TruncationPolicy()
    return _log_change_series(spec, state.wealth, state.ticket_price, policy, _probe)


def ensemble_average_growth(
    state: PlayerState,
    spec: GambleSpec,
    policy: Optional[TruncationPolicy] = None,
) -> SeriesResult:
    """Growth rate of the expectation value of wealth across an ensemble.

    Computed as ``ln(<r>)`` where ``<r>`` is the probability-weighted
    average growth factor; its classification follows the inner sum.
    Diverges for the classic doubling lottery, mirroring the naive
    expected payout, and generally disagrees with
    :func:`time_average_growth`: averaging over the ensemble is not the
    same as averaging over rounds.

    Returns:
        ``Converged(ln((wealth - price + expected payout) / wealth))``
        when the payout expectation converges; ``DivergesPositive`` when
        it diverges; ``Undefined(NonpositiveLogArgument)`` if the inner
        average is nonpositive.
    """
    policy = policy or TruncationPolicy()
    return _ensemble_growth(state, spec, policy,
                            expected_payout(spec, policy, wealth=state.wealth))


def _mean_factor(wealth: float, price: float, mean_payout: float) -> float:
    """``(wealth - price + mean_payout) / wealth``, split where the sum
    overflows (a wealth above about 1e292); where ``mean_payout / wealth``
    does (a tiny wealth) it is ``inf``, and a rate is a difference of logs."""
    factor = (wealth - price + mean_payout) / wealth
    if factor == math.inf:
        factor = overflowed_factor(wealth - price, mean_payout, 0.0, wealth)
    return factor


def _ensemble_growth(state: PlayerState, spec: GambleSpec, policy: TruncationPolicy,
                     inner: SeriesResult) -> SeriesResult:
    """:func:`ensemble_average_growth` from ``inner``, the expected payout
    of ``spec`` under ``policy`` at the player's wealth.

    ``inner`` is used as it is: its ``tail_bound``, the rounding of a
    geometric closed-form tail, bounds the rate's error by ``t / (f - t)``,
    ``t = tail_bound / wealth``.  A bound too coarse for the tolerance
    raises :class:`TruncationInconclusiveError`.
    """
    w, c = state.wealth, state.ticket_price
    if inner.classification is Classification.DIVERGES_POSITIVE:
        return SeriesResult.diverges_positive(inner.terms_used)
    if inner.classification is Classification.DIVERGES_NEGATIVE:
        return SeriesResult.undefined(
            UndefinedReason.NONPOSITIVE_LOG_ARGUMENT, inner.terms_used
        )
    mean_factor = _mean_factor(w, c, inner.value)
    tail = (inner.tail_bound or 0.0) / w
    if mean_factor <= 0.0:
        return SeriesResult.undefined(
            UndefinedReason.NONPOSITIVE_LOG_ARGUMENT, inner.terms_used
        )
    if tail < mean_factor:
        bound = tail / (mean_factor - tail)
        if bound <= policy.tolerance:
            rate = (math.log(mean_factor) if mean_factor < math.inf
                    else math.log(w - c + inner.value) - math.log(w))
            return SeriesResult.converged(rate, bound, inner.terms_used)
    raise TruncationInconclusiveError(
        "could not certify the ensemble growth rate to the requested tolerance"
    )


def expected_utility_change(
    state: PlayerState,
    spec: GambleSpec,
    utility: Union[str, Callable[[float], float]],
    policy: Optional[TruncationPolicy] = None,
) -> SeriesResult:
    """Expected change in utility from buying one ticket.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        utility: ``"log"``, ``"sqrt"``, or any callable mapping wealth to
            utility.  With ``"log"`` this reproduces
            :func:`time_average_growth` term for term -- the time
            criterion needs no utility function, yet coincides with log
            utility exactly.
        policy: Truncation policy; defaults to :class:`TruncationPolicy`.

    Returns:
        The classified series of ``P(n) * (u(wealth - price + payout_n)
        - u(wealth))``.  Domain violations (nonpositive argument for
        ``log``, negative for ``sqrt``) yield ``Undefined``.

    Note:
        Custom callables get no closed-form tail envelope, except the
        exact tails of capped and table gambles; convergence is then
        certified from an empirical geometric envelope fitted to the
        trailing window.  Window and envelope start past
        ``log2(wealth) + 1/p``, where the terms of a log-like utility
        peak: they rise until the payouts reach the wealth and for about
        the mean waiting time ``1/p`` after; terms that still rise past
        that point may be misread as divergence.  A payout past the
        double range, or one that takes the wealth past it, whose
        utility is not finite raises
        :class:`TruncationInconclusiveError`; a bounded utility, such
        as ``-1/x``, gets its limit there and sums on.
    """
    policy = policy or TruncationPolicy()
    w, c = state.wealth, state.ticket_price
    if utility == "log":
        return _log_change_series(spec, w, c, policy)
    if utility == "sqrt":
        net, residual = net_wealth(w, c)
        return _power_series(spec, policy, 0.5, w, net, residual, math.sqrt(w))
    if not callable(utility):
        raise ValueError(f"utility must be 'log', 'sqrt', or a callable, got {utility!r}")
    return _custom_change_series(spec, w, c, policy, utility)


def _custom_change_series(
    spec: GambleSpec,
    wealth: float,
    price: float,
    policy: TruncationPolicy,
    utility: Callable[[float], float],
) -> SeriesResult:
    base = utility(wealth)
    payout = spec.payout_rule.payout
    net, residual = net_wealth(wealth, price)

    def term(n: int, weight: float, log_weight: float) -> float:
        m = payout(n, wealth)
        arg = net + m + residual
        try:
            change = utility(arg) - base
        except (ValueError, OverflowError):
            if arg == math.inf:
                change = math.nan
            else:
                raise _UndefinedTerm(UndefinedReason.BANKRUPTCY_TERM if arg <= 0.0
                                     else UndefinedReason.NONPOSITIVE_LOG_ARGUMENT) from None
        if arg == math.inf and not math.isfinite(change):
            # a payout that overflows, alone or added to the wealth, says
            # nothing of how the series ends
            raise TruncationInconclusiveError(
                f"the payout of term {n} overflows a double, alone or with the wealth, and "
                f"the utility of it is not finite; no tail bound below "
                f"{policy.tolerance!r} came before it")
        return weight * change

    # the terms rise until the payout passes the wealth, about
    # n = log2(wealth), and for the mean waiting time 1/p beyond
    peak = 1.0 / spec.probability_parameter + max(0.0, math.log2(wealth))
    return _sum(spec, policy, term, empirical_from=int(peak) + 1)


def bernoulli_literal_lhs(
    state: PlayerState,
    spec: GambleSpec,
    policy: Optional[TruncationPolicy] = None,
) -> SeriesResult:
    """Left-hand side of the original Bernoulli break-even condition.

    Expected log gain computed from wealth *without* the ticket price
    (``ln(wealth + payout_n) - ln(wealth)``), minus the log cost of the
    purchase (``ln(wealth) - ln(wealth - price)``).  The root in the
    price is the literal Bernoulli stake.  Because the price is ignored
    on the gain side, wealth-scaled Menger payouts keep this criterion
    divergent at any non-bankrupting price, unlike the time criterion.

    Returns:
        ``Converged`` with the net value; ``Undefined`` when
        ``price >= wealth`` (the purchase-loss log does not exist);
        ``DivergesPositive`` when the gain series diverges.
    """
    policy = policy or TruncationPolicy()
    w, c = state.wealth, state.ticket_price
    if c >= w:
        return SeriesResult.undefined(UndefinedReason.NONPOSITIVE_LOG_ARGUMENT, 0)
    gains = _log_change_series(spec, w, 0.0, policy)
    if not gains.is_converged:
        return gains
    # ln w - ln(w - c), positive for c > 0.  log1p(-c/w) amplifies the
    # rounding of c/w by w/(w - c); for c >= w/2, w - c is exact (Sterbenz)
    loss = math.log(w / (w - c)) if c >= 0.5 * w else -math.log1p(-c / w)
    return SeriesResult.converged(gains.value - loss, gains.tail_bound, gains.terms_used)
