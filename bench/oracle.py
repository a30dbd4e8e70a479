"""Independent references for the outputs of the petersburg CLI.

Nothing here imports the library.  Every series is summed with mpmath at
40 significant digits: the first ``N0`` terms directly, the rest in
closed form.  For doubling payouts a term beyond ``N0`` is
``P(n) * ((n-1) ln 2 - ln w + log1p(net 2**(1-n)))``; the first two parts
have polynomial-geometric sums and the ``log1p`` part is expanded in
powers of ``net 2**(1-n)`` (below ``2**-60``), so the cost does not grow
as ``p`` shrinks.  Classifications (converged, diverges, undefined) come
from the analytic conditions, not from watching partial sums.

A converged program value passes when the reference lies within
``value +- (tail_bound + rounding)``, where ``rounding`` is a first-order
bound on the double-precision error of summing ``terms_used`` terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from mpmath import MPContext

M = MPContext()
M.dps = 40

EPS = 2.0 ** -52
LN2 = M.log(2)

CONVERGED = "Converged"
DIVERGES = "DivergesPositive"
UNDEFINED = "Undefined"
BANKRUPTCY = "BankruptcyTerm"
NONPOSITIVE_LOG = "NonpositiveLogArgument"

#: Terms summed directly beyond the payout's crossing of ``|net|``.
_DIRECT_TERMS = 64
#: Orders kept in the expansion of the far tail in ``net 2**(1-n)``.
_TAIL_ORDERS = 6


@dataclass(frozen=True)
class Gamble:
    """A gamble as the benchmark wrote it on the command line.

    ``rule`` is ``bernoulli``, ``capped``, ``menger`` or ``table``; ``rows``
    holds the ``(probability, payout)`` floats of a table file exactly as
    written.
    """

    rule: str
    p: float = 0.5
    cap: float = 0.0
    rows: Tuple[Tuple[float, float], ...] = ()

    def cap_point(self) -> int:
        """Largest ``n`` whose doubling payout ``2**(n-1)`` is within the cap."""
        k = 0
        while 2.0 ** k <= self.cap:
            k += 1
        return k

    def min_payout(self, wealth: float) -> float:
        if self.rule == "table":
            return min(m for _, m in self.rows)
        if self.rule == "capped":
            return 0.0
        if self.rule == "menger":
            return wealth * math.expm1(2.0)
        return 1.0


@dataclass(frozen=True)
class Ref:
    """Reference value of one criterion series.

    ``scale`` bounds the sum of the magnitudes that enter the sum, which
    sets the rounding slack a double-precision evaluation may show.
    """

    cls: str
    value: object = None
    scale: float = 0.0
    reason: Optional[str] = None

    def slack(self, tail_bound: float, terms: int) -> float:
        return tail_bound + 4.0 * EPS * (terms + 4) * self.scale


def _mp(x: float):
    return M.mpf(x)


def _weights(g: Gamble):
    p = _mp(g.p)
    return p, 1 - p


def _payout(g: Gamble, n: int, w):
    if g.rule == "menger":
        return w * M.expm1(M.mpf(2) ** n)
    if g.rule == "capped" and n > g.cap_point():
        return M.zero
    return M.mpf(2) ** (n - 1)


def _finite_outcomes(g: Gamble, w):
    """``(P(n), payout)`` for a table, or the paid outcomes of a cap."""
    if g.rule == "table":
        return [(_mp(p), _mp(m)) for p, m in g.rows]
    p, q = _weights(g)
    return [(p * q ** (n - 1), _payout(g, n, w)) for n in range(1, g.cap_point() + 1)]


def _direct_terms(net) -> int:
    return _DIRECT_TERMS + int(M.ceil(M.log(abs(net) + 2, 2)))


def expected_payout(g: Gamble, w: float) -> Ref:
    """``sum P(n) m_n``."""
    w = _mp(w)
    if g.rule in ("table", "capped"):
        terms = [pn * m for pn, m in _finite_outcomes(g, w)]
        total = M.fsum(terms)
        return Ref(CONVERGED, total, float(M.fsum(abs(t) for t in terms)))
    p, q = _weights(g)
    if g.rule == "bernoulli" and 2 * q < 1:
        value = p / (1 - 2 * q)
        return Ref(CONVERGED, value, float(value))
    return Ref(DIVERGES)


def log_change(g: Gamble, w: float, net) -> Ref:
    """``sum P(n) (ln(net + m_n) - ln w)``; undefined if any argument is <= 0."""
    w = _mp(w)
    lnw = M.log(w)
    if net + _mp(g.min_payout(float(w))) <= 0:
        return Ref(UNDEFINED, reason=BANKRUPTCY)
    if g.rule in ("table", "capped"):
        outcomes = _finite_outcomes(g, w)
        terms = [pn * (M.log(net + m) - lnw) for pn, m in outcomes]
        scale = M.fsum(pn * (abs(M.log(net + m)) + abs(lnw) + 1) for pn, m in outcomes)
        if g.rule == "capped":  # unpaid outcomes leave net, which is positive here
            _, q = _weights(g)
            rest = q ** g.cap_point()
            terms.append(rest * (M.log(net) - lnw))
            scale += rest * (abs(M.log(net)) + abs(lnw) + 1)
        return Ref(CONVERGED, M.fsum(terms), float(scale))
    p, q = _weights(g)
    if g.rule == "menger" and 2 * q >= 1:
        return Ref(DIVERGES)
    n0 = 16 if g.rule == "menger" else _direct_terms(net)
    direct = [(p * q ** (n - 1), M.log(net + _payout(g, n, w))) for n in range(1, n0 + 1)]
    total = M.fsum(pn * (lg - lnw) for pn, lg in direct)
    scale = M.fsum(pn * (abs(lg) + abs(lnw) + 1) for pn, lg in direct)
    if g.rule == "menger":
        # beyond n0 the log1p correction is below exp(-2**16): keep 2**n only
        tail = 2 * p * (2 * q) ** n0 / (1 - 2 * q)
    else:
        qn = q ** n0
        tail = LN2 * qn * (n0 + q / p) - lnw * qn
        for k in range(1, _TAIL_ORDERS + 1):
            ratio = q / M.mpf(2) ** k
            tail += (-1) ** (k + 1) * net ** k / k * p * ratio ** n0 / (1 - ratio)
    return Ref(CONVERGED, total + tail, float(scale + abs(tail) * 2))


def sqrt_change(g: Gamble, w: float, net) -> Ref:
    """``sum P(n) (sqrt(net + m_n) - sqrt(w))``; undefined if any argument is < 0."""
    w = _mp(w)
    sw = M.sqrt(w)
    if net + _mp(g.min_payout(float(w))) < 0:
        return Ref(UNDEFINED, reason=BANKRUPTCY)
    if g.rule in ("table", "capped"):
        outcomes = _finite_outcomes(g, w)
        terms = [pn * (M.sqrt(net + m) - sw) for pn, m in outcomes]
        scale = M.fsum(pn * (M.sqrt(net + m) + sw + 1) for pn, m in outcomes)
        if g.rule == "capped":
            _, q = _weights(g)
            rest = q ** g.cap_point()
            terms.append(rest * (M.sqrt(net) - sw))
            scale += rest * (M.sqrt(net) + sw + 1)
        return Ref(CONVERGED, M.fsum(terms), float(scale))
    p, q = _weights(g)
    if g.rule == "menger" or q * M.sqrt(2) >= 1:
        return Ref(DIVERGES)
    n0 = _direct_terms(net)
    direct = [(p * q ** (n - 1), M.sqrt(net + M.mpf(2) ** (n - 1))) for n in range(1, n0 + 1)]
    total = M.fsum(pn * (s - sw) for pn, s in direct)
    scale = M.fsum(pn * (s + sw + 1) for pn, s in direct)
    # sqrt(net + 2**(n-1)) = 2**((n-1)/2) sum_k binom(1/2, k) (net 2**(1-n))**k
    tail = -sw * q ** n0
    for k in range(0, _TAIL_ORDERS + 1):
        ratio = q * M.mpf(2) ** (M.mpf(1) / 2 - k)
        tail += M.binomial(M.mpf(1) / 2, k) * net ** k * p * ratio ** n0 / (1 - ratio)
    return Ref(CONVERGED, total + tail, float(scale + abs(tail) * 2))


def time_growth(g: Gamble, w: float, c: float) -> Ref:
    return log_change(g, w, _mp(w) - _mp(c))


def ensemble_growth(g: Gamble, w: float, c: float) -> Ref:
    e = expected_payout(g, w)
    if e.cls != CONVERGED:
        return Ref(DIVERGES)
    factor = (_mp(w) - _mp(c) + e.value) / _mp(w)
    if factor <= 0:
        return Ref(UNDEFINED, reason=NONPOSITIVE_LOG)
    scale = (e.scale + abs(w) + abs(c)) / (w * float(factor)) + 1.0
    return Ref(CONVERGED, M.log(factor), scale)


def literal(g: Gamble, w: float, c: float) -> Ref:
    if c >= w:
        return Ref(UNDEFINED, reason=NONPOSITIVE_LOG)
    gains = log_change(g, w, _mp(w))
    if gains.cls != CONVERGED:
        return gains
    loss = -M.log1p(-_mp(c) / _mp(w))
    return Ref(CONVERGED, gains.value - loss, gains.scale + float(loss) + 1.0)


def utility_change(g: Gamble, w: float, c: float, utility: str) -> Ref:
    net = _mp(w) - _mp(c)
    return log_change(g, w, net) if utility == "log" else sqrt_change(g, w, net)


def recommendation(ref: Ref, tail_bound: float = 0.0, terms: int = 0) -> Tuple[str, ...]:
    """Recommendations the time criterion allows (two when the sign is unresolved)."""
    if ref.cls == DIVERGES:
        return ("BuyAtAnyNonBankruptingPrice",)
    if ref.cls == UNDEFINED:
        return ("Undefined",)
    if abs(ref.value) <= ref.slack(tail_bound, terms):
        return ("Buy", "DontBuy")
    return ("Buy",) if ref.value > 0 else ("DontBuy",)


# ---------------------------------------------------------------------------
# break-even prices
# ---------------------------------------------------------------------------

def growth_sign(g: Gamble, w: float, c: float) -> int:
    """Sign of the time criterion at price ``c``, undefined counting as negative."""
    ref = time_growth(g, w, c)
    if ref.cls == DIVERGES:
        return 1
    if ref.cls == UNDEFINED:
        return -1
    return int(M.sign(ref.value))


def price_window(g: Gamble, w: float) -> Tuple[float, float]:
    """Lowest and highest price the solver may probe (its documented domain)."""
    bankruptcy = w + g.min_payout(w)
    return w * 1e-6 * 0.25 ** 40, bankruptcy - bankruptcy * 1e-15


def root_tolerance(g: Gamble, w: float, price_tol: float) -> float:
    """Distance from a returned price within which the sign change must lie."""
    bankruptcy = w + g.min_payout(w)
    return max(price_tol, 4.0 * math.ulp(bankruptcy))


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------

def factor(g: Gamble, w: float, c: float, n: int):
    """Growth factor ``(w - c + m_n) / w`` of outcome ``n``."""
    w = _mp(w)
    m = _mp(g.rows[n - 1][1]) if g.rule == "table" else _payout(g, n, w)
    return (w - _mp(c) + m) / w


def log_factor_sd(g: Gamble, w: float, c: float):
    """Standard deviation of ``ln r`` over outcomes, for a convergent time growth.

    The far tail of a doubling rule uses ``ln r_n = (n-1) ln 2 - ln w`` up
    to a relative ``2**-60``: with ``j = n - 1 = n0 + Y`` and ``Y``
    geometric on ``{0, 1, ...}``, ``E[Y] = q/p`` and ``E[Y**2] = q(1+q)/p**2``.
    """
    mean = time_growth(g, w, c)
    net, lnw = _mp(w) - _mp(c), M.log(_mp(w))
    if g.rule in ("table", "capped"):
        outcomes = _finite_outcomes(g, _mp(w))
        second = M.fsum(pn * (M.log(net + m) - lnw) ** 2 for pn, m in outcomes)
        if g.rule == "capped":
            second += _weights(g)[1] ** g.cap_point() * (M.log(net) - lnw) ** 2
    else:
        p, q = _weights(g)
        n0 = _direct_terms(net)
        second = M.fsum(p * q ** (n - 1) * (M.log(net + M.mpf(2) ** (n - 1)) - lnw) ** 2
                        for n in range(1, n0 + 1))
        head = -lnw + LN2 * n0
        second += q ** n0 * (head ** 2 + 2 * head * LN2 * q / p
                             + LN2 ** 2 * q * (1 + q) / p ** 2)
    return M.sqrt(second - mean.value ** 2)


def mean_factor(g: Gamble, w: float, c: float):
    e = expected_payout(g, w)
    if e.cls != CONVERGED:
        return None
    return (_mp(w) - _mp(c) + e.value) / _mp(w)


def subinterval_moments(g: Gamble, w: float, c: float, q: int):
    """Mean and standard deviation of the subinterval rate ``q (r**(1/q) - 1)``.

    Summed directly; for the geometric rules used here (``p >= 0.3``) the
    terms left out beyond ``n_max`` are below ``1e-40`` of the sum.
    """
    if g.rule == "table":
        outcomes = [(_mp(pn), factor(g, w, c, n)) for n, (pn, _) in enumerate(g.rows, 1)]
    else:
        p, qq = _weights(g)
        last = g.cap_point() if g.rule == "capped" else None
        n_max = last if last is not None else int(90 / -math.log10(1.0 - g.p)) + 2
        outcomes = [(p * qq ** (n - 1), factor(g, w, c, n)) for n in range(1, n_max + 1)]
        if last is not None:
            outcomes.append((qq ** last, (_mp(w) - _mp(c)) / _mp(w)))
    rates = [(pn, q * M.expm1(M.log(r) / q)) for pn, r in outcomes]
    mean = M.fsum(pn * x for pn, x in rates)
    return mean, M.sqrt(M.fsum(pn * (x - mean) ** 2 for pn, x in rates))
