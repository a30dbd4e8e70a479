"""Gamble specifications and payout rules.

A gamble is resolved by a waiting time ``n = 1, 2, ...``: the number of
coin tosses up to and including the first heads.  Waiting times follow a
geometric distribution, ``P(n) = (1 - p)**(n - 1) * p``, except for
explicit table gambles which carry their own probabilities.  Each payout
rule maps a waiting time to a dollar payout; the growth factor of a round
is the ratio of wealth after the round to wealth before it.

Everything a payout rule decides lives in its class: its payouts, scalar,
vectorised and streamed with the outcomes' weights; the log of a wealth
after a payout past the double range; the tail each criterion series may
omit; its waiting-time law; its smallest payout and its command-line
token.  The log and power terms, the expected payout and the square-root
utility among them, are written once for every rule, as plain terms; the
series engine adds what does not depend on the rule, such as the solver's
slope.  The series engine, the sampler and the command line ask the rule
and never branch on its type.

Only the vectorised methods, which the sampler calls, import numpy; the
series paths run on the ``math`` module alone, so a command that only
sums series never loads it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, count, islice, repeat
from operator import add, mul, pos
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Tuple, Union

if TYPE_CHECKING:
    import numpy as np

_LN2 = math.log(2.0)
#: Unit roundoff of a double: one correctly rounded operation errs by at
#: most this much relative to its result.
_U = 2.0 ** -53

#: The smallest subnormal double: rounding a result below the normal
#: range lowers it by at most half of this.
_TINY = 2.0 ** -1074
#: The smallest normal double.
_NORMAL = 2.0 ** -1022
#: Slack, in logs, of a tail's ``reach``: far wider than the rounding
#: of ``rest`` and of ``reach``'s own logs.
_SLACK = 1e-9
#: ``-ln`` of the smallest normal double, less the slack.
_LOG_NORMAL = 1022.0 * _LN2 - _SLACK
#: ``ln(10 u)``, the least log of the doubling log tail's rounding factor.
_LOG_10U = math.log(10.0 * _U)
#: A log whose ``exp`` is a huge double: a divergence floor is capped there.
_LOG_HUGE = 709.0

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
#: ``2**(n - 1)`` for ``n = 1 .. 1024``: every doubling payout a double holds.
_POWERS_OF_TWO = tuple(math.ldexp(1.0, k) for k in range(1024))

#: A series term ``(n, weight, log_weight, m) -> P(n) * gain(n)``, where
#: ``weight = P(n)``, ``log_weight`` is its log and ``m`` is the payout of
#: outcome ``n`` (see :meth:`PayoutRule.outcomes`).  A term raises
#: ``ValueError`` where the gain does not exist (the log or a fractional
#: power of a nonpositive wealth).  Where the wealth after the payout or
#: the weight leaves the double range, a term takes it in logs.
Term = Callable[[int, float, float, float], float]


class OutOfSupportError(LookupError):
    """Raised when an outcome index lies beyond a finite payout table."""


class Tail(NamedTuple):
    """The part of a series past term ``n``, from term ``start`` on.

    ``rest(n)`` returns ``(omitted, bound)``: ``omitted`` is what of that
    part is known in closed form, and ``bound`` bounds the error of
    adding it, the part left out plus the closed form's own rounding.
    An exact tail returns ``(value, 0.0)``, an envelope ``(0.0, bound)``;
    a rounded closed form counts its rounding in ``bound``.
    ``reach(tolerance)``, where given, is an ``n`` before which that
    bound, as ``rest`` computes it, stays above ``tolerance``: the sum
    asks ``rest`` from ``max(start, reach(tolerance))`` on.  It is
    ``inf`` where no bound can end the sum, and a tail that gives it
    vouches that every term from ``start`` on is defined.
    """

    start: int
    rest: Callable[[int], Tuple[float, float]]
    reach: Optional[Callable[[float], int]] = None


class Diverges(NamedTuple):
    """A proof that a series diverges to ``+inf``: every term from term
    ``start`` on is at least ``floor > 0``.

    A rule returns one in place of a :class:`Tail` where its series has
    no finite sum, and the series engine reads it at term ``start``,
    before it computes that term.  ``floor`` is rounded down, to about
    ``e**709`` where it lies past the double range, and is a normal
    double: where the least term lies below the normal range, the proof
    starts later, where the terms have risen into it.
    """

    start: int
    floor: float


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
    payout keeps ``|net 2**(1-n)|`` within 1/2.  It is 1 at ``net = 0``."""
    mantissa, exponent = math.frexp(abs(net))
    return max(1, exponent + (1 if mantissa == 0.5 else 2)) if net else 1


def _power(theta: float) -> Callable[[float], float]:
    """``x -> x**theta``: ``+x`` at 1; ``math.sqrt`` at 1/2, which ``x ** 0.5``
    does not always match; ``math.pow`` elsewhere.  The last two raise
    ``ValueError`` where ``**`` would go complex."""
    return {1.0: pos, 0.5: math.sqrt}.get(theta) or (lambda x: math.pow(x, theta))


class PayoutRule:
    """Base of the payout rules; one subclass per rule.

    A rule provides ``payout(n, wealth)``, and the same payouts bit for
    bit from ``payouts(ns, wealth)``, for a numpy array of waiting times,
    and ``_payout_stream(wealth)``, for ``n = 1, 2, ...``; ``token``, its
    command-line form; and :meth:`_log_after`.  The defaults below are the
    geometric waiting-time law and the series terms, which serve every
    rule; a rule overrides what it knows better.
    """

    #: Number of outcomes, or ``None`` for geometric waiting times.
    support_size: Optional[int] = None

    def min_payout(self, wealth: float) -> float:
        """Smallest payout over the support."""
        return self.payout(1, wealth)

    def _log_after(self, n: int, net: float, residual: float, wealth: float) -> float:
        """``ln(net + m_n + residual)`` where the payout ``m_n`` lies past the
        double range: ``inf`` for a rule whose payouts are all finite."""
        return math.inf

    def log_terms(self, net: float, wealth: float, residual: float) -> Term:
        """The term of ``P(n) * (ln(net + m_n + residual) - ln(wealth))``.

        ``net + residual`` is the surviving wealth, ``residual`` being
        the rounding error of ``net`` (see :func:`net_wealth`).  The term
        holds for every ``n``: where the wealth after the payout
        overflows, it takes the log of :func:`overflowed_factor`, and
        where that overflows too, the payout being past the double range,
        :meth:`_log_after`.
        """
        log_after, log_wealth = self._log_after, math.log(wealth)

        def term(n: int, weight: float, log_weight: float, m: float) -> float:
            after = net + m + residual
            if after < math.inf:
                return weight * (math.log(after) - log_wealth)
            factor = overflowed_factor(net, m, residual, wealth)
            if factor < math.inf:
                return weight * math.log(factor)
            return weight * (log_after(n, net, residual, wealth) - log_wealth)

        return term

    def power_terms(self, theta: float, net: float, wealth: float, residual: float,
                    base: float) -> Term:
        """The term of ``P(n) * ((net + m_n + residual)**theta - base)``,
        for ``0 < theta <= 1`` and ``base`` 0 or ``wealth**theta``, as
        :meth:`log_terms`; past the double range it is
        ``exp(ln P(n) + theta * _log_after) - P(n) * base``."""
        log_after, power = self._log_after, _power(theta)
        scale = power(wealth)
        unit = base / scale

        def term(n: int, weight: float, log_weight: float, m: float) -> float:
            after = net + m + residual
            if after < math.inf:
                return weight * (power(after) - base)
            factor = overflowed_factor(net, m, residual, wealth)
            if factor < math.inf:
                return weight * scale * (power(factor) - unit)
            return math.exp(log_weight + theta * log_after(n, net, residual, wealth)) - weight * base

        return term

    def tail(self, term: Term, p: float) -> Optional[Tail]:
        """Exact tail of any series of ``term`` past the last paid outcome,
        or ``None`` when payouts never stop."""
        return None

    def log_tail(self, p: float, net: float, wealth: float) -> Union[Tail, Diverges, None]:
        """Tail of the series of :meth:`log_terms`, its proof of divergence,
        or ``None``."""
        return None

    def power_tail(self, theta: float, p: float, net: float, wealth: float,
                   base: float) -> Union[Tail, Diverges, None]:
        """Tail of the series of :meth:`power_terms`, its proof of
        divergence, or ``None``."""
        return None

    def outcomes(self, p: float, max_terms: int,
                 wealth: float) -> Iterator[Tuple[int, float, float, float]]:
        """``(n, P(n), ln P(n), m_n)`` for the first ``max_terms`` outcomes,
        ``m_n`` being the payout of ``n`` at ``wealth``.

        Weights are multiplied along, ``P(n + 1) = P(n) * (1 - p)``, and
        the payouts come from ``_payout_stream``.
        """
        return zip(range(1, max_terms + 1),
                   accumulate(repeat(1.0 - p), mul, initial=p),
                   accumulate(repeat(math.log1p(-p)), add, initial=math.log(p)),
                   self._payout_stream(wealth))

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

    def census(self, rng: np.random.Generator, size: int, p: float) -> np.ndarray:
        """Counts of ``size`` waiting times drawn from ``rng``, indexed by ``n``.

        One multinomial draw counts the waiting times up to a depth ``K``;
        the waiting times past it are ``K + Geometric(p)``, since the law
        is memoryless, and are drawn one by one by :meth:`waiting_times`.
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
        rest = self.waiting_times(rng.random(head[-1]), p)
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
    """Waiting time ``n`` pays ``2**(n - 1)`` up to ``_last_paid``, at most
    1024, then ``_past``: nothing, or ``inf`` past the double range."""

    _past = 0.0

    def payout(self, n: int, wealth: float = 1.0) -> float:
        return math.ldexp(1.0, n - 1) if n <= self._last_paid else self._past

    def payouts(self, ns: np.ndarray, wealth: float) -> np.ndarray:
        import numpy as np
        base = np.ldexp(1.0, np.minimum(ns - 1, 1023))
        return np.where(ns <= self._last_paid, base, self._past)

    def _payout_stream(self, wealth: float) -> Iterator[float]:
        return chain(islice(_POWERS_OF_TWO, self._last_paid), repeat(self._past))

    def _log_after(self, n: int, net: float, residual: float, wealth: float) -> float:
        return _doubling_log(n, net)

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
    _last_paid, _past = 1024, math.inf

    # Past n0 = _doubling_start(net), x_k = net 2**(1-k) lies within 1/4,
    # and a term splits into a part with a closed-form sum over k > n and
    # a remainder geometric in a ratio below q.  The closed forms take
    # q**n as exp(n log1p(-p)), which errs by 2 + 3 n |log1p(-p)| units
    # of roundoff where q**n from a rounded q would err by n of them; the
    # rounding term bounds each closed form's error from its magnitude,
    # so it falls with q**n and never with the running total.
    #
    # The log tail's reach(tol) solves, in logs, for the first n at which
    # each part of the bound, a coefficient times a ratio**n, can fall to
    # tol.  Below it the part exceeds tol + 2**-1074 by a slack far wider
    # than the rounding of rest and of these logs, so rest's rounding, of
    # a subnormal result too, cannot bring the part, or the bound, to tol.
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

    def power_tail(self, theta: float, p: float, net: float, wealth: float,
                   base: float) -> Union[Tail, Diverges]:
        # (net + 2**(k-1))**theta = 2**(theta (k-1)) (1 + x_k)**theta.  Over
        # k > n, P(k) (2**(theta (k-1)) - base) sums to
        # p G**n / (1 - G) - base q**n with G = q 2**theta, and
        # |(1 + x)**theta - 1| <= |x| on |x| <= 1/2 bounds the rest by
        # |net| p h**n / (1 - h) with h = q / 2**(1 - theta).
        growth = (1.0 - p) * 2.0 ** theta
        num, den = theta.as_integer_ratio()
        start, diverges = _doubling_start(net), growth >= 1.0
        if den == 2 and abs(growth - 1.0) <= 8.0 * _U:
            # G errs by a few units; at theta = 1/2, 2 q**2 >= 1 decides it
            # exactly.  At theta = 1 rounding keeps q on its side of 1/2
            from fractions import Fraction
            diverges = 2 * (1 - Fraction(p)) ** 2 >= 1
        if diverges:
            # Past start (1 + x_k)**theta >= 1/2, so once also
            # 2**(theta (k-1)) >= 4 base a term is at least
            # P(k) 2**(theta (k-1)) / 4 = p G**(k-1) / 4 >= p / 4
            if base:
                start = max(start, math.ceil(math.log2(4.0 * base) / theta + _SLACK) + 1)
            log_floor = math.log(p) - 2.0 * _LN2 - _SLACK
            if log_floor >= -_LOG_NORMAL:
                return Diverges(start, p / 4.0)
            # p / 4 lies below the normal range: the proof starts where
            # p G**(k-1) / 4, rising with k, is a normal double
            log_growth = math.log1p(-p) + theta * _LN2
            start = max(start, math.ceil((-_LOG_NORMAL - log_floor) / log_growth) + 1)
            return Diverges(start, math.exp(log_floor + (start - 1) * log_growth))
        if growth >= 1.0:
            # G < 1 by less than its rounding: no bound can show it
            return Tail(start, lambda n: (0.0, math.inf), lambda tolerance: math.inf)
        log_q = math.log1p(-p)
        short = 1.0 - growth
        shrink = (1.0 - p) / 2.0 ** (1 - theta)
        scale = abs(net) * p / (1.0 - shrink)
        # G rounds by 3 u G, in q, 2**theta and their product: 3 u / short of
        # short.  At theta = 1, p > 1/2 makes q, so G, exact.  A 2**x other
        # than sqrt(2) may miss by an ulp: a unit more in G, two in G**n.
        # Parts below the normal range lose a subnormal each
        slack = {1.0: 0.0, 0.5: 3.0 / short}.get(theta, 2.0 + 4.0 / short)
        floor = (base + 1.0 / short + scale) * _TINY

        def rest(n: int) -> Tuple[float, float]:
            qn = math.exp(n * log_q)
            if qn >= _NORMAL:
                whole, part = divmod(num * n, den)
                gn, spread = math.ldexp(qn * 2.0 ** (part / den), whole), 3.0
            else:  # G**n may still be far from 0; its log errs by 5 n |ln q| u
                gn, spread = math.exp(n * (log_q + theta * _LN2)), 5.0
            rises, falls = p * gn / short, base * qn
            rounding = (8.0 - spread * n * log_q + slack) * _U * (rises + falls) + floor
            return rises - falls, scale * shrink ** n + rounding

        return Tail(start, rest)


def _menger_log_factor(n: int, shortfall: float, wealth: float) -> float:
    """``ln(e**T + shortfall / w)`` with ``T = 2**n``, as
    ``T + log1p(shortfall e**-T / w)``: the log growth factor of a Menger
    payout, ``shortfall`` being the surviving wealth less ``w``."""
    t = 2.0 ** n if n < 1024 else math.inf
    damp = math.exp(-t) if t < 745.0 else 0.0
    return t + math.log1p(shortfall * damp / wealth)


def _menger_halved(net: float, wealth: float) -> float:
    """A ``T`` past which ``(w - net) e**-T <= w/2``: Menger's wealth after
    a payout is then at least half the payout."""
    owed = wealth - net
    return math.log(owed) - math.log(wealth) + _LN2 + _SLACK if owed > 0.0 else 0.0


def _menger_step(t: float) -> int:
    """The first ``n >= 1`` with ``2**n >= t``."""
    return max(1, math.ceil(math.log2(t))) if t > 2.0 else 1


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

    def _payout_stream(self, wealth: float) -> Iterator[float]:
        return chain(map(self.payout, range(1, _MENGER_OVERFLOW_N), repeat(wealth)),
                     repeat(math.inf))

    def _log_after(self, n: int, net: float, residual: float, wealth: float) -> float:
        return math.log(wealth) + _menger_log_factor(n, net - wealth + residual, wealth)

    def log_terms(self, net: float, wealth: float, residual: float) -> Term:
        # ln(net + w e^T - w) - ln w  =  T + log1p((net - w) e^-T / w)
        def term(n: int, weight: float, log_weight: float, m: float) -> float:
            if weight < _NORMAL:
                # the weight leaves the normal range while T explodes
                return math.exp(log_weight + n * _LN2)
            return weight * _menger_log_factor(n, net - wealth + residual, wealth)

        return term

    def log_tail(self, p: float, net: float, wealth: float) -> Union[Tail, Diverges, None]:
        q = 1.0 - p
        ratio = 2.0 * q
        if ratio >= 1.0:
            # Once (w - net) e**-T <= w/2 a term is at least
            # P(k) (2**k - ln 2) >= P(k) 2**(k-1) = p (2q)**(k-1) >= p
            return Diverges(_menger_step(_menger_halved(net, wealth)), p)
        try:
            kappa = abs(math.log1p((net - wealth) * math.exp(-2.0) / wealth))
        except ValueError:
            return None  # the first outcome bankrupts; its term says so
        return Tail(1, lambda n: (0.0, kappa * q ** n + 2.0 * p * ratio ** n / (1.0 - ratio)))

    def power_tail(self, theta: float, p: float, net: float, wealth: float,
                   base: float) -> Union[Tail, Diverges, None]:
        # Once (w - net) e**-T <= w/2 the wealth after the payout is at
        # least w e**T / 2; once also e**(theta T) >= 2**(1 + theta), its
        # power is at least twice w**theta >= base, and a term is at least
        # b(k) = P(k) (w/2)**theta e**(theta T) / 2.  As
        # b(k + 1) / b(k) = q e**(theta T) grows with k, b falls until that
        # ratio reaches 1 and never after: its least value from the start on
        # is b at the first k that also has q e**(theta T) >= 1.
        log_q = math.log1p(-p)
        need = max(_menger_halved(net, wealth), (1.0 + theta) * _LN2 / theta + _SLACK)
        start, least = _menger_step(need), _menger_step(max(need, -log_q / theta + _SLACK))
        while True:
            log_floor = (math.log(p) + (least - 1) * log_q - _LN2 - _SLACK
                         + theta * (math.log(wealth) - _LN2 + 2.0 ** least))
            if log_floor >= -_LOG_NORMAL:
                return Diverges(start, math.exp(min(log_floor, _LOG_HUGE)))
            # b rises past least: the proof starts where b is a normal double
            start = least = least + 1

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
                    lambda n: (term(n + 1, q ** n, n * math.log1p(-p), 0.0), 0.0))


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

    def outcomes(self, p: float, max_terms: int,
                 wealth: float) -> Iterator[Tuple[int, float, float, float]]:
        probs, payouts = zip(*self.rows)
        return zip(count(1), probs, map(math.log, probs), payouts)

    def probability(self, n: int, p: float) -> float:
        return self._row(n)[0]

    def waiting_times(self, u: np.ndarray, p: float) -> np.ndarray:
        import numpy as np
        cumulative = np.cumsum([prob for prob, _ in self.rows])
        idx = np.searchsorted(cumulative, u, side="right")
        return np.minimum(idx, len(self.rows) - 1).astype(np.int64) + 1

    def census(self, rng: np.random.Generator, size: int, p: float) -> np.ndarray:
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


def overflowed_factor(net: float, m: float, residual: float, wealth: float) -> float:
    """The growth factor ``(net + m + residual) / wealth`` where that sum
    overflows a double.  A finite ``m`` overflows it only beside a wealth
    above about 1e292, where the factor is finite; the quotient
    ``m / wealth`` alone may still overflow, beside a tiny wealth."""
    return (net + residual) / wealth + m / wealth


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
    remainder, not the rounding of ``wealth - price``.  Where that sum
    overflows beside a finite payout, the factor is
    :func:`overflowed_factor`.
    """
    m = payout(spec, n, state.wealth)
    net, residual = net_wealth(state.wealth, state.ticket_price)
    total = net + m + residual
    if math.isinf(total) and math.isfinite(m):
        return overflowed_factor(net, m, residual, state.wealth)
    return total / state.wealth


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
