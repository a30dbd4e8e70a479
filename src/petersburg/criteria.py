"""Buy/don't-buy decisions and break-even ticket prices.

The headline question for any ticket price is whether repeated play
grows or shrinks a player's wealth.  :func:`evaluate` answers it under
four lenses at once (naive expected payout, ensemble growth, time
growth, and the literal historical log-balance criterion);
:func:`breakeven_price` inverts the time criterion to find the price at
which an individual player is exactly indifferent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional, Tuple

from .gamble import GambleSpec, PlayerState, min_payout
from .series import (
    Classification,
    SeriesResult,
    TruncationInconclusiveError,
    TruncationPolicy,
    _Probe,
    _ensemble_growth,
    bernoulli_literal_lhs,
    ensemble_average_growth,  # noqa: F401 -- a criterion of the report, importable here
    expected_payout,
    expected_utility_change,
    time_average_growth,
)


class Recommendation(str, Enum):
    """Action implied by a criterion's classified value."""

    BUY = "Buy"
    DONT_BUY = "DontBuy"
    BUY_AT_ANY_NON_BANKRUPTING_PRICE = "BuyAtAnyNonBankruptingPrice"
    UNDEFINED = "Undefined"


#: The least tolerance to which a criterion sums a series it tightens.
_LEAST_TOLERANCE = 4e-16

#: Newton steps :func:`breakeven_price` takes before it only bisects.
#: Roots take fewer than ten, so the cap binds only where the step
#: direction is badly wrong.
_NEWTON_STEPS = 20


class NoSignChangeError(ValueError):
    """The criterion keeps one sign over all candidate prices."""


_NEVER_WORTH_BUYING = ("time-average growth is negative even at vanishing ticket prices; "
                       "no positive break-even price exists")


def recommendation_for(result: SeriesResult) -> Recommendation:
    """Map a classified criterion value to an action.

    A convergent positive value favours buying, a convergent nonpositive
    one favours declining; positive divergence means the criterion
    endorses any price that cannot bankrupt the player, and an undefined
    value yields no recommendation.
    """
    if result.classification is Classification.CONVERGED:
        return Recommendation.BUY if result.value > 0.0 else Recommendation.DONT_BUY
    if result.classification is Classification.DIVERGES_POSITIVE:
        return Recommendation.BUY_AT_ANY_NON_BANKRUPTING_PRICE
    if result.classification is Classification.DIVERGES_NEGATIVE:
        return Recommendation.DONT_BUY
    return Recommendation.UNDEFINED


@dataclass(frozen=True)
class DecisionReport:
    """All criteria evaluated for one player state and gamble.

    ``recommendation`` follows the time criterion: it reflects what
    repeated play does to the wealth of the individual holding the
    ticket, not to the average over a hypothetical ensemble.  The
    other three criteria are reported for comparison; they never
    influence the recommendation.
    """

    naive_expected_payout: SeriesResult
    ensemble_growth: SeriesResult
    time_growth: SeriesResult
    bernoulli_literal: SeriesResult
    recommendation: Recommendation
    utility_change: Optional[SeriesResult] = None


def evaluate(
    state: PlayerState,
    spec: GambleSpec,
    policy: Optional[TruncationPolicy] = None,
    utility: Optional[str] = None,
) -> DecisionReport:
    """Evaluate every decision criterion for one state and gamble.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        policy: Truncation policy shared by all series.
        utility: Optional ``"log"`` or ``"sqrt"``; when given, the report
            also carries the expected utility change.  Any other value
            raises ``ValueError``, as in :func:`expected_utility_change`.

    Returns:
        A :class:`DecisionReport` whose four criteria fields are always
        populated; its ``recommendation`` is derived from the
        time-average growth rate alone.  Each series is summed once: the
        ensemble growth takes the naive payout sum, and a ``"log"``
        utility change is the time growth result itself.
    """
    policy = policy or TruncationPolicy()
    time_growth = time_average_growth(state, spec, policy)
    naive = expected_payout(spec, policy, wealth=state.wealth)
    return DecisionReport(
        naive_expected_payout=naive,
        ensemble_growth=_ensemble_growth(state, spec, policy, naive),
        time_growth=time_growth,
        bernoulli_literal=bernoulli_literal_lhs(state, spec, policy),
        recommendation=recommendation_for(time_growth),
        # log utility is the time criterion, term for term
        utility_change=(time_growth if utility == "log"
                        else None if utility is None
                        else expected_utility_change(state, spec, utility, policy)),
    )


def _criterion_sign(result: SeriesResult) -> int:
    """Collapse a classified value to a sign for bracketing purposes.

    ``Undefined`` counts as negative: it arises from prices so high that
    some outcome bankrupts the player, which lies beyond the break-even
    point of interest.
    """
    if result.classification is Classification.CONVERGED:
        return 1 if result.value > 0.0 else (-1 if result.value < 0.0 else 0)
    if result.classification is Classification.DIVERGES_POSITIVE:
        return 1
    return -1


def _tightened(policy: TruncationPolicy, tolerance: float, scale: float) -> TruncationPolicy:
    """``policy`` summed to ``tolerance / (16 scale)``, for a result ``scale`` times as
    sensitive, never looser than ``policy`` nor tighter than :data:`_LEAST_TOLERANCE`."""
    return replace(policy, tolerance=min(policy.tolerance,
                                         max(tolerance / (16.0 * scale), _LEAST_TOLERANCE)))


def breakeven_price(
    wealth: float,
    spec: GambleSpec,
    policy: Optional[TruncationPolicy] = None,
    price_tolerance: float = 1e-10,
) -> float:
    """Ticket price at which the time-average growth rate is exactly zero.

    Below the returned price repeated play grows the player's wealth;
    above it, wealth shrinks.  The root is bracketed between a millionth
    of the wealth, else a free ticket, and the bankruptcy price
    ``wealth + smallest payout`` and then found by safeguarded Newton
    steps, bisecting where a step is not usable; the growth rate is
    strictly decreasing in the price, so the root is unique when it
    exists.  The result is the midpoint of a bracket whose ends lie at
    most ``max(price_tolerance, 4 ulp(bankruptcy price))`` apart.  Only
    the bankruptcy end's sign-only probe checks its sign against a bound;
    the lower-end probe and each Newton probe read the sign of a
    ``Converged`` value whatever its ``tail_bound``, so a rate whose
    rounding passes its value can give a wrong price (README, "Known
    limit").

    Each rate the steps read is summed once, and its slope in the price
    is summed in the same pass.  The bankruptcy end, whose sign alone is
    read, stops summing once that sign is certain.

    Args:
        wealth: Player wealth (must be positive and finite).
        spec: Gamble specification.
        policy: Truncation policy for the growth-rate series.  Its
            tolerance is tightened internally so the series error stays
            negligible against ``price_tolerance``.
        price_tolerance: Absolute tolerance on the returned price.

    Returns:
        The break-even ticket price.

    Raises:
        NoSignChangeError: If the growth rate keeps one sign at every
            candidate price -- never worth buying (nonpositive even at
            a free ticket) or always worth buying (positive
            divergence at every non-bankrupting price).
    """
    if not (math.isfinite(wealth) and wealth > 0.0):
        raise ValueError(f"wealth must be positive and finite, got {wealth!r}")
    if not (math.isfinite(price_tolerance) and price_tolerance > 0.0):
        raise ValueError(f"price_tolerance must be positive, got {price_tolerance!r}")
    policy = policy or TruncationPolicy()
    inner = _tightened(policy, price_tolerance, wealth)

    # a rate the solver reads comes with its slope, in ``sloped.slope``
    # until the next one
    sloped = _Probe()

    def growth_at(price: float) -> SeriesResult:
        return time_average_growth(PlayerState(wealth, price), spec, inner, _probe=sloped)

    # lower end: a millionth of the wealth, else a free ticket, whose rate
    # sum P(n) ln(1 + m_n/w) is positive unless no outcome pays.  The rate
    # falls with the price, and the Newton u step below climbs from lo to
    # a root right of it, however close to lo, without overshooting.
    lo = wealth * 1e-6
    lo_growth = growth_at(lo)
    if _criterion_sign(lo_growth) <= 0:
        lo = 0.0
        lo_growth = growth_at(lo)
        if _criterion_sign(lo_growth) <= 0:
            raise NoSignChangeError(_NEVER_WORTH_BUYING)

    # upper end: approach the bankruptcy price from below; only its sign is
    # read, so its sum stops once that sign is certain
    bankruptcy = wealth + min_payout(spec, wealth)
    hi = bankruptcy - bankruptcy * 1e-15
    hi_sign = _criterion_sign(time_average_growth(
        PlayerState(wealth, hi), spec, inner, _probe=_Probe(sign_only=True)))
    if hi_sign == 0:
        return hi
    if hi_sign > 0:
        raise NoSignChangeError(
            "time-average growth stays positive at every non-bankrupting "
            "ticket price; no finite break-even price exists"
        )

    floor = max(price_tolerance, 4.0 * math.ulp(bankruptcy))
    # Newton steps.  With gap = bankruptcy - price, the rate is concave
    # in the price, and increasing and convex in u = ln(gap).  So from any
    # price the tangent in the price meets zero on or right of the root
    # and the tangent in u on or left of it: the two Newton targets
    # bracket the root.  The u step is taken; from lo it climbs to the
    # root without overshooting, even where the rate has a log singularity
    # at bankruptcy.  Once the targets pin the root within half a floor of
    # lo or hi, a probe three quarters of a floor past it certifies the
    # other end.  A target outside (lo, hi), a rate that did not converge,
    # or a root still open after _NEWTON_STEPS steps bisects instead.
    price, growth = lo, lo_growth
    steps = 0
    while hi - lo > floor:
        target = None
        if growth.is_converged and steps < _NEWTON_STEPS:
            slope = sloped.slope
            gap = bankruptcy - price
            # capped so that a step from far right of the root lands below lo
            lower = bankruptcy - gap * math.exp(min(-growth.value / (slope * gap), 700.0))
            upper = price + growth.value / slope
            if price == lo and upper - lo <= 0.5 * floor:
                target = lo + 0.75 * floor
            elif price == hi and hi - lower <= 0.5 * floor:
                target = hi - 0.75 * floor
            else:
                target = lower
        if target is None or not lo < target < hi:
            target = 0.5 * (lo + hi)
            if target <= lo or target >= hi:
                break
        price = target
        growth = growth_at(price)
        steps += 1
        s = _criterion_sign(growth)
        if s > 0:
            lo = price
        elif s < 0:
            hi = price
        else:
            return price
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class BreakEvenCurve:
    """Break-even prices across a log-spaced grid of wealth levels.

    ``points`` holds ``(wealth, price)`` pairs ordered by wealth, one
    for every grid point the solver could handle; ``failures`` holds
    ``(wealth, message)`` pairs for the rest, so one pathological grid
    point never voids the whole curve.
    """

    points: Tuple[Tuple[float, float], ...]
    solver_tolerance: float
    failures: Tuple[Tuple[float, str], ...] = ()

    def __iter__(self):
        return iter(self.points)


def wealth_grid(w_min: float, w_max: float, num_points: int) -> List[float]:
    """``num_points`` log-spaced wealth levels from ``w_min`` to ``w_max``.

    Both ends are hit exactly.  Raises :class:`ValueError` unless
    ``0 < w_min < w_max``, both finite, and ``num_points >= 2``.
    """
    if not (math.isfinite(w_min) and w_min > 0.0):
        raise ValueError(f"w_min must be positive and finite, got {w_min!r}")
    if not (math.isfinite(w_max) and w_max > w_min):
        raise ValueError(f"w_max must be finite and exceed w_min, got {w_max!r}")
    if num_points < 2:
        raise ValueError(f"num_points must be at least 2, got {num_points!r}")
    import numpy as np

    return [float(w) for w in np.geomspace(w_min, w_max, num_points)]


def breakeven_curve(
    w_min: float,
    w_max: float,
    num_points: int,
    spec: GambleSpec,
    policy: Optional[TruncationPolicy] = None,
    price_tolerance: float = 1e-10,
) -> BreakEvenCurve:
    """Break-even prices over a log-spaced wealth grid.

    For the classic doubling lottery the resulting table shows the
    well-known wealth dependence: richer players can rationally pay
    more, with the price growing roughly logarithmically in wealth.

    Args:
        w_min: Smallest wealth on the grid (must be positive).
        w_max: Largest wealth on the grid (must exceed ``w_min``).
        num_points: Number of log-spaced grid points (at least 2).
        spec: Gamble specification.
        policy: Truncation policy for the growth-rate series.
        price_tolerance: Absolute tolerance on each solved price.

    Returns:
        A :class:`BreakEvenCurve`.  Wealth levels where no break-even
        price exists, or where the series cannot settle one, are recorded
        in ``failures`` instead of ``points``.
    """
    points: List[Tuple[float, float]] = []
    failures: List[Tuple[float, str]] = []
    for wealth in wealth_grid(w_min, w_max, num_points):
        try:
            points.append((wealth, breakeven_price(wealth, spec, policy, price_tolerance)))
        except (NoSignChangeError, TruncationInconclusiveError) as exc:
            failures.append((wealth, str(exc)))
    return BreakEvenCurve(
        points=tuple(points),
        solver_tolerance=price_tolerance,
        failures=tuple(failures),
    )


class StakeKind(str, Enum):
    """How the literal historical criterion prices a gamble."""

    PRICE = "Price"
    NEVER_ZERO = "NeverZero"
    UNDEFINED = "Undefined"


@dataclass(frozen=True)
class StakeResult:
    """Largest stake the original Bernoulli prescription endorses.

    ``kind`` is :attr:`StakeKind.PRICE` when a finite balance price
    exists (carried in ``price``, always below the player's wealth);
    :attr:`StakeKind.NEVER_ZERO` when the gain series diverges so the
    criterion endorses every price below the whole wealth and no
    balance price exists; and :attr:`StakeKind.UNDEFINED` when the gain
    series itself is undefined.  ``price`` is ``None`` except in the
    ``PRICE`` case.
    """

    kind: StakeKind
    gains: SeriesResult
    price: Optional[float] = None


def bernoulli_stake(
    wealth: float,
    spec: GambleSpec,
    policy: Optional[TruncationPolicy] = None,
) -> StakeResult:
    """Maximum price sanctioned by the original Bernoulli criterion.

    The criterion balances the expected log gain computed *without* the
    price against the log cost of the purchase.  Because the gain side
    does not involve the price, the balance point has the closed form
    ``wealth * (1 - exp(-G))`` with ``G`` the expected log gain; only
    ``G`` itself needs summation.

    Args:
        wealth: Player wealth (must be positive and finite).
        spec: Gamble specification.
        policy: Truncation policy for the gain series.

    Returns:
        A :class:`StakeResult`.  Convergent gains yield ``PRICE`` with
        the balance price; divergent gains (e.g. wealth-scaled Menger
        payouts) yield ``NEVER_ZERO`` with no price, since the expected
        log change stays positive at every price below the whole
        wealth; undefined gains yield ``UNDEFINED``.
    """
    if not (math.isfinite(wealth) and wealth > 0.0):
        raise ValueError(f"wealth must be positive and finite, got {wealth!r}")
    policy = policy or TruncationPolicy()
    # the closed form amplifies gain-series error by ~wealth: the price
    # stays good to policy.tolerance*wealth
    inner = _tightened(policy, policy.tolerance, max(wealth, 1.0))
    gains = bernoulli_literal_lhs(PlayerState(wealth, 0.0), spec, inner)
    if gains.classification is Classification.DIVERGES_POSITIVE:
        return StakeResult(kind=StakeKind.NEVER_ZERO, gains=gains)
    if gains.classification is Classification.UNDEFINED:
        return StakeResult(kind=StakeKind.UNDEFINED, gains=gains)
    price = wealth * -math.expm1(-gains.value)
    return StakeResult(kind=StakeKind.PRICE, gains=gains, price=price)


def menger_partial_sum_price(wealth: float, terms: int) -> float:
    """Price at which a ``terms``-outcome truncation of the Menger gamble
    balances the original Bernoulli criterion.

    Each retained outcome contributes exactly one unit to the expected
    log gain, so the balance price is ``wealth * (1 - exp(-terms))``:
    it approaches the player's entire wealth geometrically fast as more
    outcomes are retained, which is how the unbounded variant defeats
    log-utility repairs of the lottery.

    Args:
        wealth: Player wealth (must be positive and finite).
        terms: Number of retained outcomes (at least 1).

    Returns:
        The truncated-gamble balance price.
    """
    if not (math.isfinite(wealth) and wealth > 0.0):
        raise ValueError(f"wealth must be positive and finite, got {wealth!r}")
    if terms < 1:
        raise ValueError(f"terms must be at least 1, got {terms!r}")
    return wealth * -math.expm1(-float(terms))
