"""Decision-criterion series with explicit convergence classification.

Every criterion evaluated here is an infinite sum over gamble outcomes.
Rather than truncating blindly, each evaluation returns a
:class:`SeriesResult` that says what the partial sums did:

* ``Converged`` -- a closed-form envelope bounds the omitted tail below
  the policy tolerance, so the reported value is trustworthy;
* ``DivergesPositive`` / ``DivergesNegative`` -- the terms do not decay
  (detected over a window of consecutive terms, or a term overflowing the
  double range);
* ``Undefined`` -- some outcome requires the log (or other utility) of a
  nonpositive quantity, e.g. a ticket price that risks bankruptcy.

Divergence detection only runs for series that lack a convergent
closed-form envelope: when an envelope exists the series is provably
convergent, and heavy-tailed cases (small geometric parameter) rise for
many terms before decaying, which would otherwise look like divergence.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

from .gamble import (
    BernoulliOriginal,
    Capped,
    GambleSpec,
    Menger,
    PlayerState,
    Table,
    cap_point,
    payout,
)

_LN2 = math.log(2.0)
# consecutive-term ratios at or above 1 - slack count as "not decaying"
_RATIO_SLACK = 1e-12


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
            :class:`TruncationInconclusiveError`.
        divergence_window: Number of consecutive non-decaying terms that
            trigger a divergence classification.
    """

    tolerance: float = 1e-10
    max_terms: int = 10_000
    divergence_window: int = 16

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.divergence_window < 2:
            raise ValueError("divergence_window must be at least 2")
        if self.max_terms < self.divergence_window:
            raise ValueError("max_terms must be at least divergence_window")


@dataclass(frozen=True)
class SeriesResult:
    """Classified outcome of a truncated series evaluation.

    ``value`` and ``tail_bound`` are set only for ``Converged`` results;
    ``reason`` only for ``Undefined`` ones.  ``tail_bound`` is zero when
    the remainder beyond the examined terms was summed in closed form
    (finite tables, capped tails, exactly geometric tails).
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


class _UndefinedTerm(Exception):
    """Internal: a term's utility argument left the admissible domain."""

    def __init__(self, reason: UndefinedReason, index: int):
        self.reason = reason
        self.index = index
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


def _sum_table(
    rule: Table,
    term_value: Callable[[int, float], float],
) -> SeriesResult:
    """Sum a finite table exactly.  ``term_value(n, prob)`` yields the full term."""
    total = 0.0
    for n, (p, _) in enumerate(rule.rows, start=1):
        try:
            total += term_value(n, p)
        except _UndefinedTerm as exc:
            return SeriesResult.undefined(exc.reason, exc.index)
    return SeriesResult.converged(total, 0.0, len(rule.rows))


def _sum_geometric(
    p: float,
    policy: TruncationPolicy,
    term: Callable[[int, float, float], float],
    tail_bound: Optional[Callable[[int], float]] = None,
    exact_tail: Optional[Callable[[int], float]] = None,
    tail_start: int = 1,
) -> SeriesResult:
    """Accumulate weighted terms of a geometric-waiting-time series.

    ``term(n, weight, log_weight)`` returns the full n-th term, where
    ``weight = p * (1-p)**(n-1)`` (and its log, for extreme indices).
    ``tail_bound(n)`` bounds the omitted mass beyond term ``n`` and
    ``exact_tail(n)`` sums it in closed form; both are only consulted for
    ``n >= tail_start``.  Divergence detection runs only when no envelope
    was supplied (an envelope proves convergence up front).
    """
    q = 1.0 - p
    log_q = math.log1p(-p)
    weight = p
    log_weight = math.log(p)
    has_envelope = tail_bound is not None or exact_tail is not None
    window: deque = deque(maxlen=policy.divergence_window)
    total = 0.0
    for n in range(1, policy.max_terms + 1):
        try:
            tau = term(n, weight, log_weight)
        except _UndefinedTerm as exc:
            return SeriesResult.undefined(exc.reason, exc.index)
        if math.isinf(tau):
            return (SeriesResult.diverges_positive(n) if tau > 0
                    else SeriesResult.diverges_negative(n))
        if math.isnan(tau):
            raise FloatingPointError(f"term {n} evaluated to NaN")
        total += tau
        if not has_envelope:
            window.append(tau)
            if len(window) == window.maxlen:
                sign = _window_divergence(window)
                if sign > 0:
                    return SeriesResult.diverges_positive(n)
                if sign < 0:
                    return SeriesResult.diverges_negative(n)
        if n >= tail_start:
            if exact_tail is not None:
                try:
                    rest = exact_tail(n)
                except _UndefinedTerm as exc:
                    return SeriesResult.undefined(exc.reason, exc.index)
                return SeriesResult.converged(total + rest, 0.0, n)
            if tail_bound is not None:
                bound = tail_bound(n)
                if bound <= policy.tolerance:
                    return SeriesResult.converged(total, bound, n)
        weight *= q
        log_weight += log_q
    raise TruncationInconclusiveError(
        f"no tail bound below {policy.tolerance!r} and no divergence detected "
        f"within {policy.max_terms} terms"
    )


def _poly_geometric_tail(p: float, q: float, alpha: float, beta: float, n: int) -> float:
    """Closed form of ``sum_{k>n} p q^(k-1) (alpha + beta (k-1))``."""
    return q ** n * (alpha + beta * (n + q / p))


# ---------------------------------------------------------------------------
# per-rule term values
# ---------------------------------------------------------------------------

def _doubling_payout_upto(rule: Union[BernoulliOriginal, Capped], n: int) -> float:
    """Payout of a doubling rule for moderate n (callers keep n <= ~900)."""
    m = math.ldexp(1.0, n - 1)
    if isinstance(rule, Capped) and m > rule.max_payout:
        return 0.0
    return m


def _log_gain_value(spec: GambleSpec, wealth: float, net: float, n: int) -> float:
    """Unweighted log term ``ln(net + payout_n) - ln(wealth)``.

    ``net`` is the wealth that survives the round regardless of outcome
    (``wealth - price`` for the time criterion, ``wealth`` for the
    original Bernoulli criterion, which ignores the price on the gain
    side).  Robust for indices whose payout overflows a double.

    Raises:
        _UndefinedTerm: If ``net + payout_n`` is not strictly positive.
    """
    rule = spec.payout_rule
    log_wealth = math.log(wealth)
    if isinstance(rule, Menger):
        # ln(net + w e^T - w) - ln w  =  T + log1p((net - w) e^-T / w)
        try:
            t_exp = 2.0 ** n
        except OverflowError:
            t_exp = math.inf
        damp = math.exp(-t_exp) if t_exp < 745.0 else 0.0
        try:
            corr = math.log1p((net - wealth) * damp / wealth)
        except ValueError:
            raise _UndefinedTerm(UndefinedReason.BANKRUPTCY_TERM, n) from None
        return t_exp + corr
    if isinstance(rule, Table):
        m = rule.rows[n - 1][1]
        arg = net + m
        if arg <= 0.0:
            raise _UndefinedTerm(UndefinedReason.BANKRUPTCY_TERM, n)
        return math.log(arg) - log_wealth
    # doubling rules
    if n <= 900:
        arg = net + _doubling_payout_upto(rule, n)
        if arg <= 0.0:
            raise _UndefinedTerm(UndefinedReason.BANKRUPTCY_TERM, n)
        return math.log(arg) - log_wealth
    # payout dwarfs |net|: ln(net + 2^(n-1)) = (n-1) ln 2 + log1p(net 2^(1-n))
    return (n - 1) * _LN2 + math.log1p(net * math.ldexp(1.0, 1 - n)) - log_wealth


def _sqrt_gain_value(spec: GambleSpec, wealth: float, net: float, n: int) -> float:
    """Unweighted square-root term ``sqrt(net + payout_n) - sqrt(wealth)``."""
    rule = spec.payout_rule
    sqrt_wealth = math.sqrt(wealth)
    if isinstance(rule, Table):
        arg = net + rule.rows[n - 1][1]
        if arg < 0.0:
            raise _UndefinedTerm(UndefinedReason.BANKRUPTCY_TERM, n)
        return math.sqrt(arg) - sqrt_wealth
    if isinstance(rule, Menger):
        try:
            m = wealth * math.expm1(2.0 ** n)
        except OverflowError:
            return math.inf
        arg = net + m
        if arg < 0.0:
            raise _UndefinedTerm(UndefinedReason.BANKRUPTCY_TERM, n)
        return math.sqrt(arg) - sqrt_wealth
    if n <= 900:
        arg = net + _doubling_payout_upto(rule, n)
        if arg < 0.0:
            raise _UndefinedTerm(UndefinedReason.BANKRUPTCY_TERM, n)
        return math.sqrt(arg) - sqrt_wealth
    half_log = 0.5 * ((n - 1) * _LN2 + math.log1p(net * math.ldexp(1.0, 1 - n)))
    try:
        return math.exp(half_log) - sqrt_wealth
    except OverflowError:
        return math.inf


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
        contributes half a dollar forever), an exact ``Converged`` value
        for capped, table, and fast-decaying geometric variants.
    """
    policy = policy or TruncationPolicy()
    rule = spec.payout_rule
    if isinstance(rule, Table):
        return _sum_table(rule, lambda n, p: p * rule.rows[n - 1][1])

    p = spec.probability_parameter
    q = 1.0 - p

    if isinstance(rule, Menger):
        def term(n: int, weight: float, log_weight: float) -> float:
            try:
                return weight * (wealth * math.expm1(2.0 ** n))
            except OverflowError:
                return math.inf

        return _sum_geometric(p, policy, term)

    # doubling rules: term = p q^(n-1) 2^(n-1), exactly geometric in 2q
    def term(n: int, weight: float, log_weight: float) -> float:
        return weight * _doubling_payout_upto(rule, n)

    if isinstance(rule, Capped):
        last_paid = cap_point(rule.max_payout)
        return _sum_geometric(
            p, policy, term,
            exact_tail=lambda n: 0.0,
            tail_start=max(last_paid, 1),
        )
    if 2.0 * q < 1.0:
        ratio = 2.0 * q
        return _sum_geometric(
            p, policy, term,
            exact_tail=lambda n: p * ratio ** n / (1.0 - ratio),
        )
    return _sum_geometric(p, policy, term)


def _log_change_series(
    spec: GambleSpec,
    wealth: float,
    net: float,
    policy: TruncationPolicy,
) -> SeriesResult:
    """Sum of ``P(n) * (ln(net + payout_n) - ln(wealth))`` over outcomes."""
    rule = spec.payout_rule
    if isinstance(rule, Table):
        return _sum_table(
            rule, lambda n, p: p * _log_gain_value(spec, wealth, net, n)
        )

    p = spec.probability_parameter
    q = 1.0 - p

    def term(n: int, weight: float, log_weight: float) -> float:
        return weight * _log_gain_value(spec, wealth, net, n)

    if isinstance(rule, Menger):
        def menger_term(n: int, weight: float, log_weight: float) -> float:
            if n <= 900:
                return weight * _log_gain_value(spec, wealth, net, n)
            # weight underflows while the term explodes: combine in log space
            return math.exp(log_weight + n * _LN2)

        if 2.0 * q >= 1.0:
            return _sum_geometric(p, policy, menger_term)
        try:
            kappa = abs(math.log1p((net - wealth) * math.exp(-2.0) / wealth))
        except ValueError:
            # net + first payout <= 0: the very first outcome bankrupts
            return SeriesResult.undefined(UndefinedReason.BANKRUPTCY_TERM, 1)
        ratio = 2.0 * q

        def menger_tail(n: int) -> float:
            return kappa * q ** n + 2.0 * p * ratio ** n / (1.0 - ratio)

        return _sum_geometric(p, policy, menger_term, tail_bound=menger_tail)

    if isinstance(rule, Capped):
        last_paid = cap_point(rule.max_payout)

        def capped_tail(n: int) -> float:
            if net <= 0.0:
                raise _UndefinedTerm(UndefinedReason.BANKRUPTCY_TERM, n + 1)
            return (math.log(net) - math.log(wealth)) * q ** n

        return _sum_geometric(
            p, policy, term, exact_tail=capped_tail, tail_start=max(last_paid, 1)
        )

    # classic doubling payouts: |tail terms| <= p q^(k-1) (alpha + ln2 (k-1))
    # once 2^(k-1) clears the price, giving a polynomial-geometric envelope
    alpha = math.log1p(1.0 / wealth)
    price_like = wealth - net
    tail_start = 1 if price_like <= 1.0 else int(math.floor(math.log2(price_like))) + 2

    def doubling_tail(n: int) -> float:
        return _poly_geometric_tail(p, q, alpha, _LN2, n)

    return _sum_geometric(
        p, policy, term, tail_bound=doubling_tail, tail_start=tail_start
    )


def _log_change_slope(spec: GambleSpec, wealth: float, net: float, terms_used: int) -> float:
    """``sum P(n) / (net + payout_n)``, minus the derivative of the log
    change series in the price.

    Summed over the ``terms_used`` terms of a converged value of that
    series, plus the exact tail of a capped rule, whose outcomes past
    the cap all pay nothing.  It only steers the break-even solver and
    carries no error bound.
    """
    rule = spec.payout_rule
    if isinstance(rule, Table):
        return sum(p / (net + m) for p, m in rule.rows)
    p = spec.probability_parameter
    q = 1.0 - p
    menger = isinstance(rule, Menger)
    # a doubling payout is 2**(n-1); a capped series stops at its last paid n
    weight, m, total = p, 1.0, 0.0
    for n in range(1, terms_used + 1):
        if menger:
            m = payout(spec, n, wealth)
        total += weight / (net + m)
        weight *= q
        m *= 2.0
    if isinstance(rule, Capped):
        total += q ** terms_used / net
    return total


def time_average_growth(
    state: PlayerState,
    spec: GambleSpec,
    policy: Optional[TruncationPolicy] = None,
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
    """
    policy = policy or TruncationPolicy()
    return _log_change_series(
        spec, state.wealth, state.wealth - state.ticket_price, policy
    )


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
    w, c = state.wealth, state.ticket_price
    inner_policy = policy
    for _ in range(4):
        inner = expected_payout(spec, inner_policy, wealth=w)
        if inner.classification is Classification.DIVERGES_POSITIVE:
            return SeriesResult.diverges_positive(inner.terms_used)
        if inner.classification is Classification.DIVERGES_NEGATIVE:
            return SeriesResult.undefined(
                UndefinedReason.NONPOSITIVE_LOG_ARGUMENT, inner.terms_used
            )
        mean_factor = (w - c + inner.value) / w
        tail = (inner.tail_bound or 0.0) / w
        if mean_factor <= 0.0:
            return SeriesResult.undefined(
                UndefinedReason.NONPOSITIVE_LOG_ARGUMENT, inner.terms_used
            )
        if tail < mean_factor:
            bound = tail / (mean_factor - tail)
            if bound <= policy.tolerance:
                return SeriesResult.converged(
                    math.log(mean_factor), bound, inner.terms_used
                )
        # tail too coarse relative to the mean factor: tighten and retry
        inner_policy = TruncationPolicy(
            tolerance=max(mean_factor * w * policy.tolerance / 4.0, 5e-324),
            max_terms=policy.max_terms,
            divergence_window=policy.divergence_window,
        )
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
        Custom callables get no closed-form tail envelope; convergence is
        then certified from an empirical geometric envelope fitted to the
        trailing window, and rising-then-decaying term patterns may be
        misread as divergence.
    """
    policy = policy or TruncationPolicy()
    w, c = state.wealth, state.ticket_price
    net = w - c
    if utility == "log":
        return _log_change_series(spec, w, net, policy)
    if utility == "sqrt":
        return _sqrt_change_series(spec, w, net, policy)
    if not callable(utility):
        raise ValueError(f"utility must be 'log', 'sqrt', or a callable, got {utility!r}")
    return _custom_change_series(spec, w, net, policy, utility)


def _sqrt_change_series(
    spec: GambleSpec, wealth: float, net: float, policy: TruncationPolicy
) -> SeriesResult:
    rule = spec.payout_rule
    if isinstance(rule, Table):
        return _sum_table(
            rule, lambda n, p: p * _sqrt_gain_value(spec, wealth, net, n)
        )
    p = spec.probability_parameter
    q = 1.0 - p

    def term(n: int, weight: float, log_weight: float) -> float:
        if n <= 900:
            return weight * _sqrt_gain_value(spec, wealth, net, n)
        half_log = 0.5 * ((n - 1) * _LN2 + math.log1p(net * math.ldexp(1.0, 1 - n)))
        return math.exp(log_weight + half_log) - weight * math.sqrt(wealth)

    if isinstance(rule, Menger):
        return _sum_geometric(p, policy, term)
    if isinstance(rule, Capped):
        last_paid = cap_point(rule.max_payout)

        def capped_tail(n: int) -> float:
            if net < 0.0:
                raise _UndefinedTerm(UndefinedReason.BANKRUPTCY_TERM, n + 1)
            return (math.sqrt(net) - math.sqrt(wealth)) * q ** n

        return _sum_geometric(
            p, policy, term, exact_tail=capped_tail, tail_start=max(last_paid, 1)
        )
    # |term_k| <= p q^(k-1) (sqrt(w) + sqrt(2)^(k-1)): geometric for q sqrt(2) < 1
    growth = q * math.sqrt(2.0)
    if growth >= 1.0:
        return _sum_geometric(p, policy, term)
    sqrt_wealth = math.sqrt(wealth)

    def sqrt_tail(n: int) -> float:
        return sqrt_wealth * q ** n + p * growth ** n / (1.0 - growth)

    return _sum_geometric(p, policy, term, tail_bound=sqrt_tail)


def _custom_change_series(
    spec: GambleSpec,
    wealth: float,
    net: float,
    policy: TruncationPolicy,
    utility: Callable[[float], float],
) -> SeriesResult:
    base = utility(wealth)

    def change(n: int) -> float:
        arg = net + payout(spec, n, wealth)
        try:
            return utility(arg) - base
        except (ValueError, OverflowError):
            reason = (UndefinedReason.BANKRUPTCY_TERM if arg <= 0.0
                      else UndefinedReason.NONPOSITIVE_LOG_ARGUMENT)
            raise _UndefinedTerm(reason, n) from None

    rule = spec.payout_rule
    if isinstance(rule, Table):
        return _sum_table(rule, lambda n, p: p * change(n))

    p = spec.probability_parameter
    window: deque = deque(maxlen=policy.divergence_window)
    weight = p
    q = 1.0 - p
    total = 0.0
    for n in range(1, policy.max_terms + 1):
        try:
            tau = weight * change(n)
        except _UndefinedTerm as exc:
            return SeriesResult.undefined(exc.reason, exc.index)
        if math.isinf(tau):
            return (SeriesResult.diverges_positive(n) if tau > 0
                    else SeriesResult.diverges_negative(n))
        total += tau
        window.append(tau)
        if len(window) == window.maxlen:
            sign = _window_divergence(window)
            if sign > 0:
                return SeriesResult.diverges_positive(n)
            if sign < 0:
                return SeriesResult.diverges_negative(n)
            # empirical geometric envelope from the trailing window
            mags = [abs(t) for t in window]
            ratios = [b / a for a, b in zip(mags, mags[1:]) if a > 0.0]
            if ratios and all(m > 0.0 for m in mags[:-1]):
                rho = max(ratios)
                if rho < 1.0:
                    bound = mags[-1] * rho / (1.0 - rho)
                    if bound <= policy.tolerance:
                        return SeriesResult.converged(total, bound, n)
            if all(m == 0.0 for m in mags):
                return SeriesResult.converged(total, 0.0, n)
        weight *= q
    raise TruncationInconclusiveError(
        f"no empirical tail bound below {policy.tolerance!r} within "
        f"{policy.max_terms} terms"
    )


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
    gains = _log_change_series(spec, w, w, policy)
    if not gains.is_converged:
        return gains
    # ln w - ln(w - c), positive for c > 0.  log1p(-c/w) amplifies the
    # rounding of c/w by w/(w - c); for c >= w/2, w - c is exact (Sterbenz)
    loss = math.log(w / (w - c)) if c >= 0.5 * w else -math.log1p(-c / w)
    return SeriesResult.converged(gains.value - loss, gains.tail_bound, gains.terms_used)
