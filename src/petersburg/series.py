"""Decision-criterion series with explicit convergence classification.

Every criterion evaluated here is an infinite sum over gamble outcomes.
Rather than truncating blindly, each evaluation returns a
:class:`SeriesResult` that says what the partial sums did:

* ``Converged`` -- the omitted tail is summed in closed form or bounded,
  and what its closed form leaves out stays below the policy tolerance,
  so the reported value is trustworthy;
* ``DivergesPositive`` -- the payout rule proves that every term from
  some ``n`` on is at least a positive floor (a
  :class:`~petersburg.gamble.Diverges` certificate);
* ``Undefined`` -- some outcome requires the log (or square root) of a
  nonpositive quantity, e.g. a ticket price that risks bankruptcy.

No series yields ``DivergesNegative``; the label stays in
:class:`Classification` and in the output schema.

All criteria are one sum, ``sum P(n) * gain(n)``, taken by one loop,
:func:`_sum`.  The payout rule supplies the terms, each safe where its
payout or weight leaves the double range, and, where it knows one, the
tail as a closed-form part and a bound on the rest: summed exactly
(capped and table tails), in closed form up to its rounding and a
remainder geometric in ``q/2`` or ``q/2**(1 - theta)`` (the log and
power tails of the doubling payout, which end the sum in a number of
terms that hardly depends on ``p``), or only bounded by an envelope.
Where the series has no finite sum, the rule gives a proof of divergence
in place of the tail.  No verdict is read off the terms themselves:
heavy-tailed cases (small geometric parameter) rise for many terms
before they decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .gamble import (Diverges, GambleSpec, PlayerState, Tail, Term, net_wealth,
                     overflowed_factor)

# the spacing of doubles at 1
_EPS = 2.0 ** -52
# the least term budget a policy accepts
_LEAST_MAX_TERMS = 16


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
    """Within max_terms, no tail bound reached the tolerance and no proof of
    divergence came into force."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rules for series evaluation.

    Args:
        tolerance: Absolute bound the omitted tail must satisfy before a
            result is reported ``Converged``.
        max_terms: Hard cap on examined terms; exceeding it raises
            :class:`TruncationInconclusiveError`.  At least 16.
    """

    tolerance: float = 1e-10
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_terms < _LEAST_MAX_TERMS:
            raise ValueError(f"max_terms must be at least {_LEAST_MAX_TERMS}")


@dataclass(frozen=True)
class SeriesResult:
    """Classified outcome of a truncated series evaluation.

    ``value`` and ``tail_bound`` are set only for ``Converged`` results,
    and ``value`` is then finite; ``reason`` only for ``Undefined`` ones.
    ``tail_bound`` is zero when the remainder beyond the examined terms
    was summed exactly (finite tables, capped tails), and bounds what a
    closed form leaves out, its rounding included, otherwise (the
    geometric expected payout too).
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
    def undefined(cls, reason: UndefinedReason, terms_used: int) -> "SeriesResult":
        return cls(Classification.UNDEFINED, terms_used, reason=reason)

    @property
    def is_converged(self) -> bool:
        return self.classification is Classification.CONVERGED


# ---------------------------------------------------------------------------
# summation engine
# ---------------------------------------------------------------------------

def _sum(
    spec: GambleSpec,
    policy: TruncationPolicy,
    wealth: float,
    term: Term,
    tail: Union[Tail, Diverges, None] = None,
    sign_only: bool = False,
) -> SeriesResult:
    """Sum ``term(n, P(n), ln P(n), m_n)`` over the outcomes of ``spec``,
    ``m_n`` being the payout of outcome ``n`` at ``wealth``.

    ``term`` holds at every ``n``: it takes the wealth after the payout in
    logs where that or the weight leaves the double range.  A term
    that raises ``ValueError`` makes the sum ``Undefined``; one that is
    not finite raises :class:`FloatingPointError`, as does a sum of finite
    terms that leaves the double range, so a ``Converged`` value is
    finite.  The rule's exact tail past its last paid outcome, if it has
    one, replaces ``tail``.

    A :class:`~petersburg.gamble.Diverges` proof makes the sum
    ``DivergesPositive`` once it reaches the proof's ``start``, before it
    computes that term; the terms before it are computed, so an
    undefined one keeps its verdict.  With a :class:`~petersburg.gamble.Tail`,
    from ``tail.start`` on, or from ``tail.reach(tolerance)``
    if that is later, the sum stops once the bound of ``tail.rest(n)``
    is within the tolerance, and reports the terms so far plus the
    closed-form part of the rest.  Before ``reach`` no bound could
    reach the tolerance, so asking ``rest`` there would change nothing.
    No bound can end a sum whose first useful ``n`` lies past
    ``max_terms``: it computes only the terms before ``tail.start``, so
    an undefined one keeps its verdict.  A sum that ends neither way
    raises :class:`TruncationInconclusiveError`.

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
    proof = tail.start if isinstance(tail, Diverges) else None
    start, rest, reach = tail if tail and proof is None else (None, None, None)
    terms = policy.max_terms
    if reach is not None and not sign_only:
        start = max(start, reach(policy.tolerance))
        if start > terms:  # no bound can end the sum
            terms = min(tail.start - 1, terms)
    total = mass = 0.0
    for n, weight, log_weight, m in rule.outcomes(p, terms, wealth):
        if n == proof:
            return SeriesResult.diverges_positive(n)
        try:
            tau = term(n, weight, log_weight, m)
        except ValueError:
            return SeriesResult.undefined(UndefinedReason.BANKRUPTCY_TERM, n)
        if not math.isfinite(tau):
            raise FloatingPointError(f"term {n} evaluated to {tau!r}")
        total += tau
        if sign_only:
            mass += abs(tau)
        if start is not None and n >= start:
            try:
                omitted, bound = rest(n)
            except ValueError:
                return SeriesResult.undefined(UndefinedReason.BANKRUPTCY_TERM, n + 1)
            value = total + omitted
            if bound <= policy.tolerance or (
                    sign_only and abs(value) > 2.0 * bound + n * _EPS * mass):
                if not math.isfinite(value):
                    raise FloatingPointError(f"the sum through term {n} evaluated to {value!r}")
                return SeriesResult.converged(value, bound, n)
    raise TruncationInconclusiveError(
        f"no tail bound below {policy.tolerance!r} and no proof of divergence "
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
    return _sum(spec, policy, wealth, rule.power_terms(theta, net, wealth, residual, base),
                rule.power_tail(theta, spec.probability_parameter, net, wealth, base))


class _Probe:
    """What the break-even solver asks of one :func:`time_average_growth`
    sum besides its result.

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


def time_average_growth(
    state: PlayerState,
    spec: GambleSpec,
    policy: Optional[TruncationPolicy] = None,
    *,
    _probe: Optional[_Probe] = None,
) -> SeriesResult:
    """Expected per-round growth rate of log wealth, the sum of
    ``P(n) * (ln(wealth - price + payout_n) - ln(wealth))`` over outcomes.

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
    rule, wealth = spec.payout_rule, state.wealth
    net, residual = net_wealth(wealth, state.ticket_price)
    tail = rule.log_tail(spec.probability_parameter, net, wealth)
    sign_only = _probe is not None and _probe.sign_only
    with_slope = _probe is not None and not sign_only
    term = rule.log_terms(net, wealth, residual, with_slope)
    if with_slope:
        term, slope = term
    result = _sum(spec, policy, wealth, term, tail, sign_only=sign_only)
    if with_slope:
        _probe.slope = slope()
    return result


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
    raises :class:`TruncationInconclusiveError`.  The rate is
    ``log1p(x)``, ``x = (mean - price) / wealth``, and the reported bound
    adds the rounding of ``x``, ``eps |x| / f`` to first order, doubled to
    cover the rest and the rounding of ``f``, and an ulp of ``log1p``,
    ``eps |rate|``.  The tolerance gates the payout's part alone, as more
    terms would not shrink the rounding.  Where ``x`` leaves the range of
    ``log1p``, the rate is a difference of logs.
    """
    w, c = state.wealth, state.ticket_price
    if inner.classification is Classification.DIVERGES_POSITIVE:
        return SeriesResult.diverges_positive(inner.terms_used)
    mean_factor = _mean_factor(w, c, inner.value)
    tail = (inner.tail_bound or 0.0) / w
    if mean_factor <= 0.0:
        return SeriesResult.undefined(
            UndefinedReason.NONPOSITIVE_LOG_ARGUMENT, inner.terms_used
        )
    if tail < mean_factor:
        bound = tail / (mean_factor - tail)
        if bound <= policy.tolerance:
            x = (inner.value - c) / w
            if -1.0 < x < math.inf:
                rate = math.log1p(x)
                bound += _EPS * (2.0 * abs(x) / mean_factor + abs(rate))
            else:
                rate = math.log(w - c + inner.value) - math.log(w)
            return SeriesResult.converged(rate, bound, inner.terms_used)
    raise TruncationInconclusiveError(
        "could not certify the ensemble growth rate to the requested tolerance"
    )


def expected_utility_change(
    state: PlayerState,
    spec: GambleSpec,
    utility: str,
    policy: Optional[TruncationPolicy] = None,
) -> SeriesResult:
    """Expected change in utility from buying one ticket.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        utility: ``"log"`` or ``"sqrt"``.  With ``"log"`` this reproduces
            :func:`time_average_growth` term for term -- the time
            criterion needs no utility function, yet coincides with log
            utility exactly.
        policy: Truncation policy; defaults to :class:`TruncationPolicy`.

    Returns:
        The classified series of ``P(n) * (u(wealth - price + payout_n)
        - u(wealth))``.  Domain violations (nonpositive argument for
        ``log``, negative for ``sqrt``) yield ``Undefined``.

    Raises:
        ValueError: For any other utility, a callable included: only the
            built-in utilities have tails and proofs of divergence, and
            no verdict is read off the terms alone.
    """
    policy = policy or TruncationPolicy()
    w, c = state.wealth, state.ticket_price
    if utility == "log":
        return time_average_growth(state, spec, policy)
    if utility == "sqrt":
        net, residual = net_wealth(w, c)
        return _power_series(spec, policy, 0.5, w, net, residual, math.sqrt(w))
    raise ValueError(f"utility must be 'log' or 'sqrt', got {utility!r}")


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
    # the original criterion ignores the price on the gain side
    gains = time_average_growth(PlayerState(w, 0.0), spec, policy)
    if not gains.is_converged:
        return gains
    # ln w - ln(w - c), positive for c > 0.  log1p(-c/w) amplifies the
    # rounding of c/w by w/(w - c); for c >= w/2, w - c is exact (Sterbenz)
    loss = math.log(w / (w - c)) if c >= 0.5 * w else -math.log1p(-c / w)
    return SeriesResult.converged(gains.value - loss, gains.tail_bound, gains.terms_used)
