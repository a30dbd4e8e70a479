"""Exact sums of the criterion series, the reference the tests compare against.

Every sum runs in mpmath at a precision worked out from its inputs, see
:func:`precision`: the series ``sum P(n) ln((w - c + m_n) / w)`` cancels
about ``log2 w`` bits of each term where the price is small beside the
wealth, and its weights ``q**n`` stay near one for about ``1/p`` terms.
At wealth 1e300 a 40-digit sum cannot tell the price 499.26 from 1 or
1e5, while this one finds the sign change between 499.26 and 499.27.

A doubling series is summed term by term to ``_DIRECT`` terms past the
payout's crossing of ``2 |net|``; past them ``|net 2**(1-n)| <
2**-_DIRECT``, and the tail is the expansion of the log or root in that
ratio, taken to enough orders that what it leaves is below the precision.
"""

import math
from typing import Callable, NamedTuple, Optional, Tuple

import mpmath

from petersburg import (
    Capped,
    Classification,
    GambleSpec,
    Menger,
    Table,
    UndefinedReason,
    cap_point,
    min_payout,
)

_EPS = 2.0 ** -52
#: The fewest bits of any sum: 40 digits.
_MIN_BITS = 133
#: Bits kept past those that ``w`` and ``1/p`` take.
_GUARD_BITS = 100
#: Terms summed directly past the payout's crossing of ``2 |net|``; each
#: order of the tail's expansion gains this many bits.
_DIRECT = 64


class Reference(NamedTuple):
    classification: Classification
    value: object = None
    #: ``magnitude(n)``: sum of the magnitudes of what a float loop adds
    #: when it stops after ``n`` terms
    magnitude: Optional[Callable[[int], object]] = None
    reason: Optional[UndefinedReason] = None
    #: the precision of ``value``, at which ``magnitude`` is evaluated
    bits: int = _MIN_BITS


def precision(wealth: float, p: float) -> int:
    """Bits of the sums at ``wealth`` and geometric parameter ``p``: at
    least 133, and at least ``ceil(log2 w) + ceil(log2(1/p)) + 100``."""
    return max(_MIN_BITS, math.ceil(math.log2(wealth)) + math.ceil(-math.log2(p)) + _GUARD_BITS)


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
    in powers of ``x = net 2**(1-n)``, to the working precision."""
    q = 1 - p
    # |x| < 2**-_DIRECT, so the orders past these leave below 2**-(prec + _DIRECT)
    orders = mpmath.mp.prec // _DIRECT + 1
    if utility == "log":
        # ln(net + 2**(n-1)) = (n-1) ln 2 + sum_k (-1)**(k+1) x**k / k
        tail = q ** n0 * (mpmath.log(2) * (n0 + q / p) - mpmath.log(wealth))
        for k in range(1, orders + 1):
            ratio = q / mpmath.mpf(2) ** k
            tail += (-1) ** (k + 1) * net ** k / k * p * ratio ** n0 / (1 - ratio)
        return tail
    # sqrt(net + 2**(n-1)) = 2**((n-1)/2) sum_k binom(1/2, k) x**k
    tail = -mpmath.sqrt(wealth) * q ** n0
    for k in range(0, orders + 1):
        ratio = q * mpmath.mpf(2) ** (mpmath.mpf(1) / 2 - k)
        tail += mpmath.binomial(mpmath.mpf(1) / 2, k) * net ** k * p * ratio ** n0 / (1 - ratio)
    return tail


def reference(spec: GambleSpec, wealth: float, price: float, utility: str) -> Reference:
    """The criterion series of ``utility`` (``"none"`` for the expected
    payout, ``"log"`` or ``"sqrt"``) at :func:`precision`."""
    bits = precision(wealth, spec.probability_parameter)
    with mpmath.workprec(bits):
        return _reference(spec, wealth, price, utility)._replace(bits=bits)


def _reference(spec: GambleSpec, wealth: float, price: float, utility: str) -> Reference:
    rule = spec.payout_rule
    w = mpmath.mpf(wealth)
    net = w - mpmath.mpf(price)
    lowest = mpmath.mpf(min_payout(spec, wealth))
    if (utility == "log" and net + lowest <= 0) or (utility == "sqrt" and net + lowest < 0):
        return Reference(Classification.UNDEFINED, reason=UndefinedReason.BANKRUPTCY_TERM)
    g, size = _gain(utility, net, w)
    if isinstance(rule, Table):
        rows = [(mpmath.mpf(pr), mpmath.mpf(m)) for pr, m in rule.rows]
        return Reference(Classification.CONVERGED, mpmath.fsum(pr * g(m) for pr, m in rows),
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
        return Reference(Classification.CONVERGED, value, magnitude)
    if isinstance(rule, Menger) or (utility == "none" and 2 * q >= 1) or (
            utility == "sqrt" and q * mpmath.sqrt(2) >= 1):
        return Reference(Classification.DIVERGES_POSITIVE)
    n0 = _DIRECT + int(mpmath.ceil(mpmath.log(2 * abs(net) + 2, 2)))
    value = mpmath.fsum(p * q ** (n - 1) * g(mpmath.mpf(2) ** (n - 1)) for n in range(1, n0 + 1))
    return Reference(Classification.CONVERGED, value + _doubling_tail(utility, p, net, w, n0),
                     lambda n: mpmath.fsum(p * q ** (k - 1) * size(mpmath.mpf(2) ** (k - 1))
                                           for k in range(1, n + 1)))


def reciprocal_reference(spec: GambleSpec, wealth: float, price: float) -> Reference:
    """Series of ``P(n) (1/w - 1/(w - c + payout_n))``, the change of the
    utility ``-1/x``, at :func:`precision`, ``bits``.  Past ``last = 3 *
    bits`` terms every payout exceeds ``2**(last - 1)``, and only
    ``sum P(n) / w = q**last / w`` is left to the precision."""
    bits = precision(wealth, spec.probability_parameter)
    last = 3 * bits
    with mpmath.workprec(bits):
        w = mpmath.mpf(wealth)
        net, p = w - mpmath.mpf(price), mpmath.mpf(spec.probability_parameter)
        if isinstance(spec.payout_rule, Menger):
            paid = [w * mpmath.expm1(mpmath.mpf(2) ** n) for n in range(1, last + 1)]
        else:
            paid = [mpmath.mpf(2) ** (n - 1) for n in range(1, last + 1)]
        terms = [p * (1 - p) ** (n - 1) * (1 / w - 1 / (net + m)) for n, m in enumerate(paid, 1)]
        rest = (1 - p) ** last / w
        size = mpmath.fsum(map(abs, terms)) + rest
        return Reference(Classification.CONVERGED, mpmath.fsum(terms) + rest, lambda n: size,
                         bits=bits)


def literal_lhs(spec: GambleSpec, wealth: float, price: float):
    """Bernoulli's literal all-or-nothing criterion: the log series at
    price 0, the gains alone, less ``ln(w / (w - c))``."""
    gains = reference(spec, wealth, 0.0, "log")
    with mpmath.workprec(gains.bits):
        w = mpmath.mpf(wealth)
        return gains.value - mpmath.log(w / (w - mpmath.mpf(price)))


def growth_sign(spec: GambleSpec, wealth: float, price: float) -> int:
    """Sign of the time-average growth rate; an undefined rate counts as
    negative, as in the solver."""
    ref = reference(spec, wealth, price, "log")
    if ref.classification is Classification.UNDEFINED:
        return -1
    return int(mpmath.sign(ref.value))


def breakeven(spec: GambleSpec, wealth: float) -> float:
    """The price where the growth rate changes sign, bisected on
    :func:`growth_sign` between 0 and the ruin price down to adjacent
    doubles."""
    lo, hi = 0.0, wealth + min_payout(spec, wealth)
    assert growth_sign(spec, wealth, lo) > 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if growth_sign(spec, wealth, mid) > 0:
            lo = mid
        else:
            hi = mid


def assert_agrees(result, ref: Reference) -> None:
    """``result`` has the reference's classification, and a converged
    value lies within its tail bound plus the running-sum slack."""
    assert result.classification is ref.classification, (result, ref.classification)
    if ref.reason is not None:
        assert result.reason is ref.reason
    if ref.classification is not Classification.CONVERGED:
        return
    with mpmath.workprec(ref.bits):
        n = result.terms_used
        slack = result.tail_bound + 4.0 * _EPS * (n + 4) * ref.magnitude(n)
        miss = abs(mpmath.mpf(result.value) - ref.value)
        assert miss <= slack, (result, mpmath.nstr(ref.value, 25), mpmath.nstr(miss, 5))
