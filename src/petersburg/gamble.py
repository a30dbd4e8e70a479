"""Gamble specifications and payout rules.

A gamble is resolved by a waiting time ``n = 1, 2, ...``: the number of
coin tosses up to and including the first heads.  Waiting times follow a
geometric distribution, ``P(n) = (1 - p)**(n - 1) * p``, except for
explicit table gambles which carry their own probabilities.  Each payout
rule maps a waiting time to a dollar payout; the growth factor of a round
is the ratio of wealth after the round to wealth before it.

Everything a payout rule decides lives in its class: its payouts, scalar
and vectorised; its log and square-root series terms, safe where the
payout leaves the double range; the tail each criterion series may omit;
its waiting-time law; its smallest payout and its command-line token.
The series engine, the sampler and the command line ask the rule and
never branch on its type.

Only the vectorised methods, which the sampler calls, import numpy; the
series paths run on the ``math`` module alone, so a command that only
sums series never loads it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, count, repeat
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
#: Unit roundoff of a double: one correctly rounded operation errs by at
#: most this much relative to its result.
_U = 2.0 ** -53

#: The smallest subnormal double: rounding a result below the normal
#: range lowers it by at most half of this.
_TINY = 2.0 ** -1074
#: Slack, in logs, of a tail's ``reach``: far wider than the rounding
#: of ``rest`` and of ``reach``'s own logs.
_SLACK = 1e-9
#: ``-ln`` of the smallest normal double, less the slack.
_LOG_NORMAL = 1022.0 * _LN2 - _SLACK
#: ``ln(10 u)``, the least log of the doubling log tail's rounding factor.
_LOG_10U = math.log(10.0 * _U)

#: Waiting times drawn one by one in the time a census spends on one
#: binomial of its multinomial chain.
_CENSUS_STEP_DRAWS = 16.0
#: The largest waiting time the sampler may draw: its counts are dense up
#: to the largest waiting time drawn.
_MAX_WAITING_TIME = 2 ** 24
#: ``ln 2**-53``: the log of the smallest ``1 - u`` a uniform double gives,
#: from which the inverse CDF draws its largest waiting time.
_LOG_LEAST_UNIFORM = math.log(2.0 ** -53)

#: How far the probabilities of a :class:`Table` may sum from one.
_PROBABILITY_TOLERANCE = 1e-9

#: Menger payouts ``w * expm1(2**n)`` exceed the double range from here on.
_MENGER_OVERFLOW_N = 10

#: A series term ``(n, weight, log_weight) -> P(n) * gain(n)``, where
#: ``weight = P(n)`` and ``log_weight`` is its log.  A term raises
#: ``ValueError`` where the gain does not exist (the log or square root
#: of a nonpositive wealth).
Term = Callable[[int, float, float], float]


class OutOfSupportError(LookupError):
    """Raised when an outcome index lies beyond a finite payout table."""


class Tail(NamedTuple):
    """The part of a series past term ``n``, from term ``start`` on.

    ``rest(n)`` returns ``(omitted, bound)``: ``omitted`` is what of that
    part is known in closed form, and ``bound`` bounds the error of
    adding it, the part left out plus the closed form's own rounding.
    An exact tail returns ``(value, 0.0)``, an envelope ``(0.0, bound)``.
    ``reach(tolerance)``, where given, is an ``n`` before which that
    bound, as ``rest`` computes it, stays above ``tolerance``: the sum
    asks ``rest`` from ``max(start, reach(tolerance))`` on.
    """

    start: int
    rest: Callable[[int], Tuple[float, float]]
    reach: Optional[Callable[[float], int]] = None


def _doubling_log(n, net, log1p=math.log1p, ldexp=math.ldexp):
    """``ln(net + 2**(n-1))`` once the payout dwarfs ``|net|``.

    ``(n-1) ln2 + log1p(net 2**(1-n))``; with ``np.log1p`` and
    ``np.ldexp`` it takes an array of ``n``.
    """
    return (n - 1) * _LN2 + log1p(ldexp(net, 1 - n))


def _log(x: float) -> float:
    """``ln x``, ``-inf`` at 0."""
    return math.log(x) if x > 0.0 else -math.inf


def _climb(rounding: Callable[[float, float], float], n: float, log_tol: float,
           cap: float) -> float:
    """A bound ``b >= n`` with ``m < rounding(m, log_tol)`` at every ``m`` in
    ``[n, b)``, and ``b <= cap`` unless ``n`` is above it.

    ``rounding`` must not fall as ``m`` grows.  Then ``n <- rounding(n)``
    only climbs: each ``m`` below the next step lies below the step
    before, or at or past it, where ``rounding(m)`` is at least the next
    step.
    """
    for _ in range(32):
        if not n < cap:
            return n
        step = rounding(n, log_tol)
        step = step if step < cap else cap
        if not step >= n + 1.0:
            return step if step > n else n
        n = step
    return n


def _doubling_start(net: float) -> int:
    """First ``n`` with ``2**(n-1) >= 2 |net|``: from there on a doubling
    payout keeps ``|net 2**(1-n)|`` within 1/2."""
    mantissa, exponent = math.frexp(abs(net))
    return max(1, exponent + (1 if mantissa == 0.5 else 2))


class PayoutRule:
    """Base of the payout rules; one subclass per rule.

    A rule provides ``payout(n, wealth)`` and ``payouts(ns, wealth)``, the
    same payouts for a numpy array of waiting times, bit for bit, and
    ``token``, its command-line form.  The defaults below are the
    geometric waiting-time law and the series terms written with the
    plain payout; a rule overrides what it knows better.
    """

    #: Number of outcomes, or ``None`` for geometric waiting times.
    support_size: Optional[int] = None

    def min_payout(self, wealth: float) -> float:
        """Smallest payout over the support."""
        return self.payout(1, wealth)

    def log_terms(self, net: float, wealth: float, residual: float,
                  with_slope: bool = False) -> tuple:
        """Terms of ``P(n) * (ln(net + payout_n) - ln(wealth))``.

        ``net + residual`` is the surviving wealth, ``residual`` being
        the rounding error of ``net`` (see :func:`net_wealth`).  Returns
        ``(term, far)``: ``term`` holds for every ``n``; ``far`` is the
        same term taken in log space, which the series uses past
        ``n = 900``, where weights and payouts leave the double range.

        Each rule writes one ``term`` and one ``far``.  With ``with_slope``
        both also add ``P(n) / (net + payout_n)`` to a running sum after
        their value, in the order of the calls, and the call returns
        ``(term, far, slope)``, ``slope()`` reading that sum: minus the
        derivative of the series in the price.
        """
        payout, log_wealth, slope = self.payout, math.log(wealth), 0.0

        def term(n: int, weight: float, log_weight: float) -> float:
            nonlocal slope
            m = payout(n, wealth)
            value = weight * (math.log(net + m + residual) - log_wealth)
            if with_slope:
                slope += weight / (net + m)
            return value

        return (term, term, lambda: slope) if with_slope else (term, term)

    def sqrt_terms(self, net: float, wealth: float, residual: float) -> Tuple[Term, Term]:
        """Terms of ``P(n) * (sqrt(net + payout_n) - sqrt(wealth))``, as
        :meth:`log_terms`."""
        payout, sqrt_wealth = self.payout, math.sqrt(wealth)

        def term(n: int, weight: float, log_weight: float) -> float:
            return weight * (math.sqrt(net + payout(n, wealth) + residual) - sqrt_wealth)

        return term, term

    def tail(self, term: Term, p: float) -> Optional[Tail]:
        """Exact tail of any series of ``term`` past the last paid outcome,
        or ``None`` when payouts never stop."""
        return None

    def payout_tail(self, p: float) -> Optional[Tail]:
        """Tail of the expected payout, or ``None`` if there is none."""
        return None

    def log_tail(self, p: float, net: float, wealth: float) -> Optional[Tail]:
        """Tail of the series of :meth:`log_terms`, or ``None``."""
        return None

    def sqrt_tail(self, p: float, net: float, wealth: float) -> Optional[Tail]:
        """Tail of the series of :meth:`sqrt_terms`, or ``None``."""
        return None

    def outcomes(self, p: float, max_terms: int) -> Iterator[Tuple[int, float, float]]:
        """``(n, P(n), ln P(n))`` for the first ``max_terms`` outcomes.

        Weights are multiplied along, ``P(n + 1) = P(n) * (1 - p)``.
        """
        return zip(range(1, max_terms + 1),
                   accumulate(repeat(1.0 - p), mul, initial=p),
                   accumulate(repeat(math.log1p(-p)), add, initial=math.log(p)))

    def probability(self, n: int, p: float) -> float:
        """``P(n)`` under the waiting-time law."""
        return p * (1.0 - p) ** (n - 1)

    def waiting_times(self, u: np.ndarray, p: float) -> np.ndarray:
        """Waiting times from uniform variates in ``[0, 1)``; ``u`` is
        overwritten.

        Raises:
            ValueError: If some uniform double would draw a waiting time
                past ``_MAX_WAITING_TIME``, about ``36.74 / p``.
        """
        import numpy as np
        worst = _LOG_LEAST_UNIFORM / math.log1p(-p)
        if worst > _MAX_WAITING_TIME:
            raise ValueError(f"geometric parameter {p!r} is too small to sample: its waiting "
                             f"times reach {worst:.4g}, past the sampler's limit of "
                             f"{_MAX_WAITING_TIME}")
        # inverse CDF of the geometric law: P(n > k) = (1-p)^k, in place;
        # 1 - u lies in (0, 1], which keeps the log finite
        np.subtract(1.0, u, out=u)
        np.log(u, out=u)
        u /= math.log1p(-p)
        np.ceil(u, out=u)
        np.maximum(u, 1.0, out=u)
        return u.astype(np.int64)

    def census(self, rng: np.random.Generator, size: int, p: float,
               uniforms: np.ndarray) -> np.ndarray:
        """Counts of ``size`` waiting times drawn from ``rng``, indexed by ``n``.

        One multinomial draw counts the waiting times up to a depth ``K``;
        the waiting times past it are ``K + Geometric(p)``, since the law
        is memoryless, and are drawn one by one by :meth:`waiting_times`
        into ``uniforms``, a scratch array of at least ``size`` doubles.
        ``K`` balances the multinomial's chain of binomials, one per
        waiting time, against the draws it leaves: about
        ``_CENSUS_STEP_DRAWS / p`` of them.
        """
        import numpy as np
        q = 1.0 - p
        depth = int(math.log(min(1.0, _CENSUS_STEP_DRAWS / (size * p))) / math.log1p(-p))
        # numpy gives the last category what the others leave: the
        # waiting times past the depth, of probability q**depth
        head = rng.multinomial(size, p * q ** np.arange(depth + 1.0))
        rest = self.waiting_times(rng.random(head[-1], out=uniforms[:head[-1]]), p)
        if depth:
            rest += depth
        counts = np.bincount(rest, minlength=depth + 1)
        counts[1:depth + 1] += head[:-1]
        return counts

    def huge_log_factors(self, ns: np.ndarray, net: float, wealth: float) -> np.ndarray:
        """``ln((net + payout_n) / wealth)`` at waiting times whose growth
        factor overflows a double."""
        import numpy as np
        m = self.payouts(ns, wealth)
        return np.log(m) + np.log1p(net / m) - math.log(wealth)


class _Doubling(PayoutRule):
    """Waiting time ``n`` pays ``2**(n - 1)`` up to ``_last_paid``, then nothing."""

    def payout(self, n: int, wealth: float = 1.0) -> float:
        if n > self._last_paid:
            return 0.0
        try:
            return math.ldexp(1.0, n - 1)
        except OverflowError:
            return math.inf

    def payouts(self, ns: np.ndarray, wealth: float) -> np.ndarray:
        import numpy as np
        with np.errstate(over="ignore"):
            base = np.ldexp(1.0, np.minimum(ns - 1, 1024))
        return np.where(ns <= self._last_paid, base, 0.0)

    def log_terms(self, net: float, wealth: float, residual: float,
                  with_slope: bool = False) -> tuple:
        log_wealth, last, payout, slope = math.log(wealth), self._last_paid, self.payout, 0.0

        def far(n: int, weight: float, log_weight: float) -> float:
            nonlocal slope
            value = weight * (_doubling_log(n, net) - log_wealth)
            if with_slope:
                slope += weight / (net + payout(n))
            return value

        def term(n: int, weight: float, log_weight: float) -> float:
            nonlocal slope
            try:
                m = math.ldexp(1.0, n - 1) if n <= last else 0.0
            except OverflowError:
                return far(n, weight, log_weight)
            value = weight * (math.log(net + m + residual) - log_wealth)
            if with_slope:
                slope += weight / (net + m)
            return value

        return (term, far, lambda: slope) if with_slope else (term, far)

    def sqrt_terms(self, net: float, wealth: float, residual: float) -> Tuple[Term, Term]:
        sqrt_wealth, last = math.sqrt(wealth), self._last_paid

        def far(n: int, weight: float, log_weight: float) -> float:
            return math.exp(log_weight + 0.5 * _doubling_log(n, net)) - weight * sqrt_wealth

        def term(n: int, weight: float, log_weight: float) -> float:
            try:
                m = math.ldexp(1.0, n - 1) if n <= last else 0.0
            except OverflowError:
                return far(n, weight, log_weight)
            return weight * (math.sqrt(net + m + residual) - sqrt_wealth)

        return term, far

    def huge_log_factors(self, ns: np.ndarray, net: float, wealth: float) -> np.ndarray:
        import numpy as np
        return _doubling_log(ns, net, np.log1p, np.ldexp) - math.log(wealth)


@dataclass(frozen=True)
class BernoulliOriginal(_Doubling):
    """Classic doubling payout: waiting time ``n`` pays ``2**(n - 1)``.

    The payout for ``n`` beyond the range of a double saturates to
    ``inf``; series evaluation handles those indices in log space.
    """

    token = "bernoulli"
    _last_paid = math.inf

    def payout_tail(self, p: float) -> Optional[Tail]:
        # term = p q^(n-1) 2^(n-1), exactly geometric in 2q
        ratio = 2.0 * (1.0 - p)
        if ratio >= 1.0:
            return None
        return Tail(1, lambda n: (p * ratio ** n / (1.0 - ratio), 0.0))

    # Past n0 = _doubling_start(net), x_k = net 2**(1-k) lies within 1/4,
    # and a term splits into a part with a closed-form sum over k > n and
    # a remainder geometric in a ratio below q.  The closed forms take
    # q**n as exp(n log1p(-p)), which errs by 2 + 3 n |log1p(-p)| units
    # of roundoff where q**n from a rounded q would err by n of them; the
    # rounding term bounds each closed form's error from its magnitude,
    # so it falls with q**n and never with the running total.
    #
    # reach(tol) solves, in logs, for the first n at which each part of
    # the bound, a coefficient times a ratio**n, can fall to tol.  Below
    # it the part exceeds tol + 2**-1074 by a slack far wider than the
    # rounding of rest and of these logs, so rest's rounding, of a
    # subnormal result too, cannot bring the part, or the bound, to tol.
    # Each solve stops short of any n where a factor of its part could
    # leave the normal range, past which that rounding is not relative.

    def log_tail(self, p: float, net: float, wealth: float) -> Optional[Tail]:
        # ln(net + 2**(k-1)) = (k-1) ln 2 + log1p(x_k).  Over k > n,
        # P(k) ((k-1) ln 2 - ln w) sums to q**n (ln2 (n + q/p) - ln w),
        # and |log1p(x)| <= 2|x| bounds the rest by
        # 2 |net| p (q/2)**n / (1 - q/2).
        log_q, log_w = math.log1p(-p), math.log(wealth)
        mean_wait = 1.0 / p  # n + q/p = (n - 1) + 1/p
        scale = 4.0 * abs(net) * p / (1.0 + p)

        def rest(n: int) -> Tuple[float, float]:
            qn = math.exp(n * log_q)
            level = _LN2 * ((n - 1) + mean_wait)
            rounding = (10.0 - 3.0 * n * log_q) * _U * qn * (level + abs(log_w))
            return qn * (level - log_w), scale * math.ldexp(qn, -n) + rounding

        log_scale, drop, abs_log_w = _log(scale), _LN2 - log_q, abs(log_w)
        # the rounding part at n = 1, but for its factor q**n
        floor = 10.0 * _U * (_LN2 * mean_wait + abs_log_w) * (1.0 - 1e-6)
        # below these n the factors of the remainder part, and those of the
        # rounding part before its last, are normal doubles
        normal, normal_rounding = _LOG_NORMAL / drop, (_LOG_NORMAL + _LOG_10U) / -log_q

        def remainder(log_tol: float) -> float:
            # the remainder part exceeds e**log_tol before this n
            return (log_scale - log_tol) / drop

        def rounding(n: float, log_tol: float) -> float:
            return (math.log((10.0 - 3.0 * n * log_q) * _U) - log_tol
                    + math.log(_LN2 * ((n - 1) + mean_wait) + abs_log_w)) / -log_q

        def reach(tolerance: float) -> int:
            log_tol = math.log(tolerance + _TINY) + _SLACK
            n = max(min(remainder(log_tol), normal), 1.0)
            rounds = _climb(rounding, n, log_tol, normal_rounding)
            least = floor * math.exp(n * log_q)
            if rounds < n + 1.0 and least > 0.1 * tolerance:
                # the rounding part may hold the sum up where the remainder
                # part reaches the tolerance.  Up to any n = upto it is at
                # least floor q**upto, so the remainder part need only
                # exceed the tolerance less that: every n below upto and
                # below the n of that lesser tolerance has a bound above it
                upto = n
                for _ in range(2):
                    gap = tolerance * (1.0 + _SLACK) + _TINY - (
                        least if upto < normal_rounding else 0.0)
                    below = remainder(math.log(gap) + _SLACK) if gap > 0.0 else math.inf
                    n, upto = max(n, min(upto, below, normal)), below
                    least = floor * math.exp(max(upto, 1.0) * log_q)
            return math.ceil(max(n, rounds))

        return Tail(_doubling_start(net), rest, reach)

    def sqrt_tail(self, p: float, net: float, wealth: float) -> Optional[Tail]:
        # sqrt(net + 2**(k-1)) = sqrt(2)**(k-1) sqrt(1 + x_k).  Over k > n,
        # P(k) (sqrt(2)**(k-1) - sqrt(w)) sums to
        # p g**n / (1 - g) - sqrt(w) q**n with g = q sqrt(2), and
        # |sqrt(1 + x) - 1| <= |x| bounds the rest by
        # |net| p h**n / (1 - h) with h = q / sqrt(2).
        growth = (1.0 - p) * _SQRT2
        if growth >= 1.0:
            return None
        log_q, sqrt_w = math.log1p(-p), math.sqrt(wealth)
        short = 1.0 - growth  # off by 3 u growth: 3 u / short of itself
        shrink = (1.0 - p) / _SQRT2
        scale = abs(net) * p / (1.0 - shrink)

        def rest(n: int) -> Tuple[float, float]:
            qn = math.exp(n * log_q)
            gn = math.ldexp(qn, n // 2) * (_SQRT2 if n % 2 else 1.0)
            rises, falls = p * gn / short, sqrt_w * qn
            rounding = (8.0 - 3.0 * n * log_q + 3.0 / short) * _U * (rises + falls)
            return rises - falls, scale * shrink ** n + rounding

        log_scale, log_shrink = _log(scale), math.log(shrink)
        # the rounding part is at least its share of rises, whose factors
        # are normal doubles while p q**n is
        log_rises = math.log(p) - math.log(short)
        normal_rounding = (_LOG_NORMAL + math.log(p)) / -log_q
        fall = -(log_q + 0.5 * _LN2)  # -ln g

        def rounding(n: float, log_tol: float) -> float:
            log_cu = math.log((8.0 - 3.0 * n * log_q + 3.0 / short) * _U)
            return (log_cu + log_rises - log_tol) / fall

        def reach(tolerance: float) -> int:
            log_tol = math.log(tolerance + _TINY) + _SLACK
            n = max(min(log_scale - log_tol, _LOG_NORMAL) / -log_shrink, 1.0)
            return math.ceil(_climb(rounding, n, log_tol, normal_rounding))

        return Tail(_doubling_start(net), rest, reach)


@dataclass(frozen=True)
class Menger(PayoutRule):
    """Wealth-scaled super-exponential payout: ``n`` pays ``w * (exp(2**n) - 1)``.

    Payouts exceed the double range from ``n = 10`` on and saturate to
    ``inf``; series evaluation handles them in log space.
    """

    token = "menger"

    def payout(self, n: int, wealth: float = 1.0) -> float:
        try:
            return wealth * math.expm1(2.0 ** n)
        except OverflowError:
            return math.inf

    def payouts(self, ns: np.ndarray, wealth: float) -> np.ndarray:
        import numpy as np
        # numpy's expm1 may differ from math.expm1 in the last bit, so the
        # few finite payouts come from the scalar one
        out = np.full(len(ns), math.inf)
        small = ns < _MENGER_OVERFLOW_N
        out[small] = [self.payout(int(n), wealth) for n in ns[small]]
        return out

    def log_terms(self, net: float, wealth: float, residual: float,
                  with_slope: bool = False) -> tuple:
        # ln(net + w e^T - w) - ln w  =  T + log1p((net - w) e^-T / w).
        # The terms do not compute the payout; the slope asks for it again
        payout, slope = self.payout, 0.0

        def term(n: int, weight: float, log_weight: float) -> float:
            nonlocal slope
            try:
                t = 2.0 ** n
            except OverflowError:
                t = math.inf
            damp = math.exp(-t) if t < 745.0 else 0.0
            value = weight * (t + math.log1p((net - wealth + residual) * damp / wealth))
            if with_slope:
                slope += weight / (net + payout(n, wealth))
            return value

        def far(n: int, weight: float, log_weight: float) -> float:
            nonlocal slope
            # the weight underflows while the term explodes
            value = math.exp(log_weight + n * _LN2)
            if with_slope:
                slope += weight / (net + payout(n, wealth))
            return value

        return (term, far, lambda: slope) if with_slope else (term, far)

    def log_tail(self, p: float, net: float, wealth: float) -> Optional[Tail]:
        q = 1.0 - p
        ratio = 2.0 * q
        if ratio >= 1.0:
            return None
        try:
            kappa = abs(math.log1p((net - wealth) * math.exp(-2.0) / wealth))
        except ValueError:
            return None  # the first outcome bankrupts; its term says so
        return Tail(1, lambda n: (0.0, kappa * q ** n + 2.0 * p * ratio ** n / (1.0 - ratio)))

    def huge_log_factors(self, ns: np.ndarray, net: float, wealth: float) -> np.ndarray:
        import numpy as np
        # the factor is e^x + (net - w) / w with x = 2**n
        x = np.exp2(ns.astype(np.float64))
        return x + np.log1p((net - wealth) * np.exp(-x) / wealth)


@dataclass(frozen=True)
class Capped(_Doubling):
    """Doubling payout with a hard bank limit.

    Waiting time ``n`` pays ``2**(n - 1)`` as long as that amount does not
    exceed ``max_payout``.  Runs past the limit are not honoured at all and
    pay nothing: the cap removes the infinite tail of the payout schedule
    rather than clamping it, so a $1e9 cap turns the infinite expected
    payout into exactly $15.
    """

    max_payout: float

    def __post_init__(self) -> None:
        if not (isinstance(self.max_payout, (int, float)) and math.isfinite(self.max_payout)):
            raise ValueError(f"max_payout must be finite, got {self.max_payout!r}")
        if self.max_payout <= 0:
            raise ValueError(f"max_payout must be positive, got {self.max_payout!r}")

    @property
    def token(self) -> str:
        return f"capped:{self.max_payout!r}"

    @cached_property
    def _last_paid(self) -> int:
        return cap_point(self.max_payout)

    def min_payout(self, wealth: float) -> float:
        return 0.0  # runs past the cap pay nothing

    def tail(self, term: Term, p: float) -> Optional[Tail]:
        # every outcome past the cap pays nothing, so the rest is the next
        # outcome's term at the weight q**n of all of them together
        q = 1.0 - p
        return Tail(max(self._last_paid, 1),
                    lambda n: (term(n + 1, q ** n, n * math.log1p(-p)), 0.0))


@dataclass(frozen=True)
class Table(PayoutRule):
    """Explicit finite gamble given as ``(probability, payout)`` rows.

    Probabilities must be strictly positive and sum to one within 1e-9.
    Row ``i`` (1-based) plays the role of waiting time ``i``; the
    geometric parameter of the enclosing spec is ignored.
    """

    rows: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        rows = tuple((float(p), float(m)) for p, m in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("payout table must have at least one row")
        total = 0.0
        for i, (p, m) in enumerate(rows, start=1):
            if not (math.isfinite(p) and math.isfinite(m)):
                raise ValueError(f"table row {i} is not finite: ({p!r}, {m!r})")
            if p <= 0.0:
                raise ValueError(f"table row {i} has nonpositive probability {p!r}")
            total += p
        if abs(total - 1.0) > _PROBABILITY_TOLERANCE:
            raise ValueError(
                f"table probabilities sum to {total!r}, expected 1 within "
                f"{_PROBABILITY_TOLERANCE!r}"
            )

    @property
    def token(self) -> str:
        return f"table:{len(self.rows)} rows"

    @property
    def support_size(self) -> int:
        return len(self.rows)

    def _row(self, n: int) -> Tuple[float, float]:
        if n > len(self.rows):
            raise OutOfSupportError(f"outcome {n} beyond table of {len(self.rows)} rows")
        return self.rows[n - 1]

    def payout(self, n: int, wealth: float = 1.0) -> float:
        return self._row(n)[1]

    def payouts(self, ns: np.ndarray, wealth: float) -> np.ndarray:
        import numpy as np
        return np.array([m for _, m in self.rows])[ns - 1]

    def min_payout(self, wealth: float) -> float:
        return min(m for _, m in self.rows)

    def tail(self, term: Term, p: float) -> Optional[Tail]:
        return Tail(len(self.rows), lambda n: (0.0, 0.0))

    def outcomes(self, p: float, max_terms: int) -> Iterator[Tuple[int, float, float]]:
        probs = [prob for prob, _ in self.rows]
        return zip(count(1), probs, map(math.log, probs))

    def probability(self, n: int, p: float) -> float:
        return self._row(n)[0]

    def waiting_times(self, u: np.ndarray, p: float) -> np.ndarray:
        import numpy as np
        cumulative = np.cumsum([prob for prob, _ in self.rows])
        idx = np.searchsorted(cumulative, u, side="right")
        return np.minimum(idx, len(self.rows) - 1).astype(np.int64) + 1

    def census(self, rng: np.random.Generator, size: int, p: float,
               uniforms: np.ndarray) -> np.ndarray:
        """Counts of ``size`` rows drawn from ``rng`` by one multinomial draw,
        indexed by row; the last row takes what the others leave, as in
        :meth:`waiting_times`."""
        import numpy as np
        cumulative = np.minimum(np.cumsum([prob for prob, _ in self.rows]), 1.0)
        return np.concatenate(([0], rng.multinomial(size, np.diff(cumulative, prepend=0.0))))


@dataclass(frozen=True)
class GambleSpec:
    """A gamble: a payout rule plus the geometric waiting-time parameter.

    Args:
        payout_rule: One of :class:`BernoulliOriginal`, :class:`Menger`,
            :class:`Capped` or :class:`Table`.  Defaults to the classic
            doubling lottery.
        probability_parameter: Per-toss success probability ``p`` of the
            geometric waiting time, strictly between 0 and 1.  Ignored by
            table gambles, which carry their own probabilities.
    """

    payout_rule: PayoutRule = field(default_factory=BernoulliOriginal)
    probability_parameter: float = 0.5

    def __post_init__(self) -> None:
        p = self.probability_parameter
        if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 < p < 1.0):
            raise ValueError(f"probability_parameter must lie in (0, 1), got {p!r}")


@dataclass(frozen=True)
class PlayerState:
    """Wealth of the player and the ticket price on offer.

    Args:
        wealth: Current wealth, strictly positive.
        ticket_price: Price of one round, nonnegative.
    """

    wealth: float
    ticket_price: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.wealth) and self.wealth > 0.0):
            raise ValueError(f"wealth must be positive and finite, got {self.wealth!r}")
        if not (math.isfinite(self.ticket_price) and self.ticket_price >= 0.0):
            raise ValueError(
                f"ticket_price must be nonnegative and finite, got {self.ticket_price!r}"
            )


def _check_waiting_time(n: int) -> int:
    if n != int(n) or n < 1:
        raise ValueError(f"waiting time must be a positive integer, got {n!r}")
    return int(n)


def net_wealth(wealth: float, price: float) -> Tuple[float, float]:
    """``wealth - price`` as ``(net, residual)``: the rounded difference
    and its exact rounding error (Knuth's two-sum).

    Near the ruin price a payout cancels ``net``, and ``net + payout`` is
    then exact, so ``net + payout + residual`` keeps the surviving wealth
    to a rounding where ``net + payout`` alone may lose every digit.
    """
    net = wealth - price
    kept = net + price
    return net, (wealth - kept) - (price + (net - kept))


def cap_point(max_payout: float) -> int:
    """Largest waiting time whose doubling payout stays within the cap.

    That is the binary exponent ``k`` with ``2**(k-1) <= max_payout < 2**k``,
    read exactly off ``math.frexp``; it is 1024 for the largest doubles.
    Returns 0 when even the first payout of $1 exceeds the cap.
    """
    return math.frexp(max_payout)[1] if max_payout >= 1.0 else 0


def payout(spec: GambleSpec, n: int, wealth: float = 1.0) -> float:
    """Dollar payout of outcome ``n``.

    Args:
        spec: Gamble specification.
        n: Waiting time (positive integer).
        wealth: Player wealth entering the round; only the wealth-scaled
            Menger rule depends on it.

    Returns:
        The payout in dollars.  Amounts beyond the double range saturate
        to ``inf``.

    Raises:
        OutOfSupportError: If ``n`` lies beyond a finite payout table.
    """
    return spec.payout_rule.payout(_check_waiting_time(n), wealth)


def probability(spec: GambleSpec, n: int) -> float:
    """Probability of outcome ``n`` under the spec's waiting-time law."""
    return spec.payout_rule.probability(_check_waiting_time(n), spec.probability_parameter)


def growth_factor(state: PlayerState, spec: GambleSpec, n: int) -> float:
    """Per-round growth factor ``(wealth - price + payout) / wealth``.

    May be zero or negative when the ticket price exceeds wealth plus the
    round's payout; such a round bankrupts the player.  The surviving
    wealth is ``net + payout + residual`` (see :func:`net_wealth`), so a
    payout that nearly cancels ``wealth - price`` leaves the exact
    remainder, not the rounding of ``wealth - price``.
    """
    m = payout(spec, n, state.wealth)
    net, residual = net_wealth(state.wealth, state.ticket_price)
    return (net + m + residual) / state.wealth


def support_size(spec: GambleSpec) -> Optional[int]:
    """Number of outcomes, or ``None`` for an infinite-support gamble."""
    return spec.payout_rule.support_size


def min_payout(spec: GambleSpec, wealth: float = 1.0) -> float:
    """Smallest payout over the gamble's support.

    Determines the bankruptcy threshold on the ticket price: a price of
    ``wealth + min_payout`` or more makes some outcome nonpositive.
    """
    return spec.payout_rule.min_payout(wealth)


def load_table(path: str) -> Table:
    """Load a payout table from a two-column CSV file.

    The file must start with a header row, followed by
    ``probability,payout`` rows.

    Args:
        path: CSV file path.

    Returns:
        The validated :class:`Table`.

    Raises:
        ValueError: On a missing header, malformed rows, or probabilities
            that fail validation.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty table file") from None
        try:
            float(header[0])
        except (ValueError, IndexError):
            pass  # non-numeric first row: the required header
        else:
            raise ValueError(f"{path}: missing header row")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric row {row!r}") from None
    try:
        return Table(tuple(rows))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
