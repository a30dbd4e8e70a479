"""Monte Carlo verification of the analytic growth rates.

Every sampler takes ``seed``, a nonnegative integer (default 0) seeding
the whole experiment.  Simulation draws waiting times in fixed blocks of
2**16, with block ``b`` seeded by ``SeedSequence(entropy=seed,
spawn_key=(b,))``, and every estimator draws a block by the same law, in
one function (``_block_run``):

* block 0 is drawn one by one, one uniform variate per waiting time;
* every later block is drawn as its census, the count of each waiting
  time among its 2**16 draws (the rule's ``census``: one multinomial
  draw), exact in law.  Where a run reads the order of its draws -- a
  trajectory, a census that holds a ruinous waiting time, or a partial
  last block -- the order is drawn next, from the same generator, as a
  uniform shuffle of the census, and a partial block is its head.  A
  wealth path written by :func:`time_average_census` reads the order of
  a full block only where a row's value depends on it: a block whose
  census proves every row past the double range is written from its
  bounds, and drawn again, census then order, only if a later block's
  rows need the exact running sum it leaves.

Two consequences the tests rely on:

* for a fixed seed, a longer run extends a shorter one -- the first
  draws of a 10**6-round trajectory are exactly the 10**3-round
  trajectory's draws, and a shorter run's census is a sub-census of a
  longer one's;
* the time, subinterval and ensemble estimates of one seed and size
  reduce one census, which a trajectory of that size plays draw for
  draw (up to a ruinous draw, where the time and subinterval runs stop).

Every estimator is a reduction of its own census, the count of each
waiting time drawn: a mean over rounds does not depend on their order.
Blocks are drawn, counted and dropped one at a time, in order, on the
calling thread, so the estimators use O(2**16) memory whatever the run
length, and a run that stops at a ruinous draw draws no block after it.
Each block draws into fresh arrays, so runs on several threads at once
draw what they draw one at a time.  The wealth path is built the same
way by :func:`trajectory_blocks`, one block of log wealth at a time;
:func:`simulate_trajectory` is their concatenation.  A path left
unsummed keeps a block index and an interval holding its running sum,
not its draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from .gamble import _U, GambleSpec, PlayerState, net_wealth, overflowed_factor

_BLOCK_SIZE = 1 << 16


class NonpositiveReturnError(ArithmeticError):
    """A log-scale estimate met a round with nonpositive resulting wealth."""


class BankruptTrajectoryError(NonpositiveReturnError):
    """The trajectory hit bankruptcy; growth-rate estimates do not exist."""


@dataclass(frozen=True)
class SampleStats:
    """A Monte Carlo estimate with its standard error and draw census.

    ``frequencies`` maps each waiting time ``n`` that occurred to its
    number of occurrences; the counts sum to ``count`` and ``max_n`` is
    the largest key.  The census makes the estimate auditable: any
    statistic over the draws can be recomputed from it.
    """

    estimate: float
    stderr: float
    count: int
    frequencies: Dict[int, int]
    max_n: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One player's simulated wealth history.

    Wealth is stored in log scale (``log_wealth_path[t]`` is the log
    wealth after ``t`` rounds, index 0 being the starting wealth), which
    survives growth rates whose cumulative effect overflows a double.
    On bankruptcy the path stops at the last positive wealth,
    ``bankrupt_at`` records the fatal 1-based round, and
    ``bankrupt_wealth`` the nonpositive wealth that round produced
    (``None`` if it lies beyond the double range).
    """

    state: PlayerState
    spec: GambleSpec
    waiting_times: np.ndarray = field(repr=False)
    log_wealth_path: np.ndarray = field(repr=False)
    bankrupt_at: Optional[int] = None
    bankrupt_wealth: Optional[float] = None

    @property
    def rounds(self) -> int:
        """Number of rounds actually played (shorter on bankruptcy)."""
        return len(self.waiting_times)

    @property
    def wealth_path(self) -> np.ndarray:
        """Wealth per round in ordinary units (may overflow to inf)."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_wealth_path)

    def growth_factors(self) -> np.ndarray:
        """Exact per-round growth factors implied by the drawn outcomes."""
        ns = np.arange(1, int(self.waiting_times.max()) + 1)
        return _growth_factors(self.state, self.spec, ns)[self.waiting_times - 1]


@dataclass(frozen=True, eq=False)
class Census:
    """One seeded run of the gamble, kept as counts instead of a path.

    ``counts[n]`` is the number of rounds that drew waiting time ``n``
    before any bankruptcy; ``bankrupt_at`` and ``bankrupt_wealth`` are
    those of the :class:`Trajectory` with the same inputs.
    """

    state: PlayerState
    spec: GambleSpec
    counts: np.ndarray = field(repr=False)
    bankrupt_at: Optional[int] = None
    bankrupt_wealth: Optional[float] = None


# ====== Seeded blocks ======


def _check_seed(seed: int) -> None:
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def _block_generator(seed: int, block: int) -> np.random.Generator:
    _check_seed(seed)
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.PCG64(seq))


def _order(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """The draws of a block with census ``counts``, shuffled by ``rng``.

    Given their census, every order of i.i.d. draws is equally likely, so
    a uniform shuffle of the census gives the draws' joint law exactly.
    """
    order = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(order)
    return order


def _block_run(spec: GambleSpec, seed: int, block: int, lo: int, hi: int,
               held: Optional[Callable[[np.ndarray], np.ndarray]]
               ) -> Tuple[np.ndarray, Optional[Tuple[int, int]], Callable[[], np.ndarray]]:
    """Draws ``lo:hi`` of the run, in block ``block``, cut before the first ruinous one.

    Returns the census of the draws kept; the first draw that ``held``
    (see :func:`_ruin_test`) finds ruinous as ``(index, n)`` with a 0-based
    index, or ``None``; and ``order``, a function of no arguments giving
    the draws kept, to be called at most once.

    Block 0 is drawn one by one, one uniform variate per waiting time;
    PCG64's ``random(k)`` is a prefix of its ``random(2**16)``, so a short
    block is the head of the full one.  A later block is its census, then
    the :func:`_order` of it, and a short block that order's head.  A full
    later block whose census holds no ruinous waiting time is counted
    without its order, which ``order`` draws only when called.
    """
    rng = _block_generator(seed, block)
    if block:
        counts = spec.payout_rule.census(rng, _BLOCK_SIZE, spec.probability_parameter)
        if hi - lo == _BLOCK_SIZE and (held is None or not len(held(counts))):
            return counts, None, lambda: _order(rng, counts)
        draws = _order(rng, counts)[:hi - lo]
    else:
        draws = spec.payout_rule.waiting_times(rng.random(hi - lo), spec.probability_parameter)
    counts = np.bincount(draws)
    ruinous = () if held is None else held(counts)
    fatal = None
    if len(ruinous):
        first = int(np.argmax(np.isin(draws, ruinous)))
        draws, fatal = draws[:first], (lo + first, int(draws[first]))
        counts = np.bincount(draws)
    return counts, fatal, lambda: draws


def _spans(count: int) -> Iterator[Tuple[int, int, int]]:
    """``(block, start, stop)`` of the blocks of draws covering ``0:count``."""
    return ((start // _BLOCK_SIZE, start, min(start + _BLOCK_SIZE, count))
            for start in range(0, count, _BLOCK_SIZE))


def draw_waiting_times(spec: GambleSpec, count: int, seed: int = 0) -> np.ndarray:
    """First ``count`` waiting times of the seeded experiment.

    The sequence depends only on the seed (and the gamble's law), never
    on ``count``: asking for more draws extends the same sequence.  The
    first 2**16 draws are drawn one by one; each later block of 2**16 is
    its census drawn as counts, then shuffled.

    Args:
        spec: Gamble specification.
        count: Number of draws (positive).
        seed: Nonnegative integer seeding the whole experiment.

    Returns:
        Array of ``count`` waiting times (1-based, dtype int64).
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count!r}")
    out = np.empty(count, dtype=np.int64)
    for block, lo, hi in _spans(count):
        out[lo:hi] = _block_run(spec, seed, block, lo, hi, None)[2]()
    return out


# ====== Factor tables ======


def _growth_factors(state: PlayerState, spec: GambleSpec, ns: np.ndarray) -> np.ndarray:
    """:func:`growth_factor` at each waiting time in ``ns``, bit for bit.

    Same operations in the same order, ``(net + m + residual) / w``, and
    where a finite payout's sum overflows, :func:`overflowed_factor`; a
    factor beyond the double range is ``inf``.
    """
    w = state.wealth
    net, residual = net_wealth(w, state.ticket_price)
    m = spec.payout_rule.payouts(ns, w)
    with np.errstate(over="ignore"):
        sums = net + m + residual
        return np.where(np.isinf(sums) & np.isfinite(m), overflowed_factor(net, m, residual, w),
                        sums / w)


def _log_growth_factors(state: PlayerState, spec: GambleSpec, ns: np.ndarray) -> np.ndarray:
    """Log growth factor at each waiting time in ``ns`` (nan if nonpositive).

    A finite factor is logged as is; one that overflows a double is
    computed in log space, so it stays finite while ``log`` of the
    payout does.
    """
    factors = _growth_factors(state, spec, ns)
    logs = np.log(factors, out=np.full(len(ns), math.nan), where=factors > 0.0)
    huge = np.isinf(factors)
    if huge.any():
        w = state.wealth
        with np.errstate(over="ignore"):
            logs[huge] = spec.payout_rule.huge_log_factors(ns[huge], w - state.ticket_price, w)
    return logs


# ====== Census reductions ======


def _census_stats(counts: np.ndarray, value_of: Callable[[np.ndarray], np.ndarray]
                  ) -> SampleStats:
    """Mean of ``value_of(n)`` over a census, and its standard error.

    Sums are exactly rounded (``math.fsum``) over the distinct waiting
    times, and the variance takes two passes, so the result depends on
    the counts alone -- never on draw order.  Products and squared
    deviations past the double range are summed scaled by the largest
    value or deviation, so finite values have a finite mean and a finite
    mean a finite standard error.
    """
    ns = np.flatnonzero(counts)
    weights = counts[ns].astype(np.float64)
    total = int(counts.sum())
    values = value_of(ns)
    try:
        with np.errstate(over="ignore"):
            mean = math.fsum(weights * values) / total
    except OverflowError:  # finite products whose sum is not
        mean = math.inf
    if not math.isfinite(mean) and np.isfinite(values).all():
        scale = float(np.abs(values).max())
        mean = scale * (math.fsum(weights * (values / scale)) / total)
    if total < 2 or not math.isfinite(mean):
        stderr = math.inf
    else:
        deviations = values - mean
        try:
            with np.errstate(over="ignore"):
                variance = math.fsum(weights * deviations ** 2) / (total - 1)
        except OverflowError:  # finite squares whose sum is not
            variance = math.inf
        if math.isfinite(variance):
            stderr = math.sqrt(variance) / math.sqrt(total)
        else:
            scale = float(np.abs(deviations).max())
            variance = math.fsum(weights * (deviations / scale) ** 2) / (total - 1)
            stderr = scale * (math.sqrt(variance) / math.sqrt(total))
    return SampleStats(
        estimate=mean,
        stderr=stderr,
        count=total,
        frequencies=dict(zip(ns.tolist(), counts[ns].tolist())),
        max_n=int(ns[-1]),
    )


def _bankrupt_wealth(state: PlayerState, spec: GambleSpec, survived: np.ndarray,
                     fatal_n: int) -> Optional[float]:
    """Wealth after the fatal round, from the census of the rounds before it.

    ``None`` when it lies beyond the double range: the wealth before the
    fatal round may itself be too large for a double.
    """
    ns = np.flatnonzero(survived)
    log_wealth = math.log(state.wealth) + math.fsum(
        survived[ns] * _log_growth_factors(state, spec, ns))
    fatal = float(_growth_factors(state, spec, np.array([fatal_n]))[0])
    if fatal == 0.0:
        return 0.0
    try:
        return math.copysign(math.exp(log_wealth + math.log(abs(fatal))), fatal)
    except OverflowError:
        return None


def _ruin_test(state: PlayerState, spec: GambleSpec
               ) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """``held(counts)``: the waiting times counted in ``counts`` whose
    growth factor is nonpositive, the ruinous ones; ``None`` where none is.

    It is ``None`` where the least payout's growth factor, computed with
    the operations of :func:`_growth_factors`, is positive: each of them
    rounds monotonically in the payout, so no factor is smaller.  Else
    ``held`` computes the factor of each waiting time that ``counts``
    holds, one block at a time, and keeps nothing between calls.
    """
    w = state.wealth
    net, residual = net_wealth(w, state.ticket_price)
    if (net + spec.payout_rule.min_payout(w) + residual) / w > 0.0:
        return None

    def held(counts: np.ndarray) -> np.ndarray:
        seen = np.flatnonzero(counts)
        return seen[_growth_factors(state, spec, seen) <= 0.0]

    return held


def _census(spec: GambleSpec, count: int, seed: int,
            held: Optional[Callable[[np.ndarray], np.ndarray]] = None
            ) -> Tuple[np.ndarray, Optional[Tuple[int, int]]]:
    """Census of the first ``count`` draws, block by block, cut before the
    first draw that ``held`` finds ruinous, returned as ``(index, n)`` (see
    :func:`_block_run`), or ``None``.  No block after the ruinous one is drawn.
    """
    return _sum_censuses(_block_run(spec, seed, *span, held)[:2] for span in _spans(count))


def _sum_censuses(parts: Iterable[Tuple[np.ndarray, Optional[Tuple[int, int]]]]
                  ) -> Tuple[np.ndarray, Optional[Tuple[int, int]]]:
    """The sum of the ``(counts, fatal)`` parts, in order, through the first
    ruinous one (no later part is asked for), and that part's ``fatal``.

    The first part's counts become the total, added to in place: no caller
    reads a part after handing it over."""
    total = None
    for counts, fatal in parts:
        if total is None:
            total = counts
        else:
            if len(counts) > len(total):
                total = np.concatenate([total, np.zeros(len(counts) - len(total), np.int64)])
            total[: len(counts)] += counts
        if fatal is not None:
            return total, fatal
    return total, None


def _log_table(state: PlayerState, spec: GambleSpec, counts: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The log growth factor of each waiting time counted in ``counts``,
    indexed by ``n`` itself, which spares a shifted copy of the draws (the
    other entries are unset), and those waiting times."""
    logs = np.empty(len(counts))
    seen = np.flatnonzero(counts)
    logs[seen] = _log_growth_factors(state, spec, seen)
    return logs, seen


def _sum_bounds(low: float, high: float, start: float, logs: np.ndarray,
                weights: np.ndarray, terms: int) -> Tuple[float, float, float, float]:
    """Bounds on a block's running sums from its census alone, whatever its order.

    The running sum enters the block in ``[low, high]`` and adds ``terms``
    log factors, ``weights[i]`` of them equal to ``logs[i]``, one rounded
    addition at a time as ``np.cumsum`` adds them.  Returns ``(row_low,
    row_high, out_low, out_high)``: each running sum, ``start`` added and
    rounded, lies in ``[row_low, row_high]``, and the sum leaving the block
    in ``[out_low, out_high]``.  Where a sum may leave the double range, or
    a log factor is not finite, the bounds are infinite.
    """
    unbounded = (-math.inf, math.inf, -math.inf, math.inf)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            fall = math.fsum(weights * np.minimum(logs, 0.0))
            rise = math.fsum(weights * np.maximum(logs, 0.0))
    except OverflowError:  # finite products whose sum is not
        return unbounded
    scale = max(abs(low), abs(high)) + abs(start) + (rise - fall)
    if not math.isfinite(2.0 * scale):
        return unbounded
    # Let C in [low, high] be the sum entering the block and A = rise - fall
    # the sum of its |log factors|, so that |C| + |start| + A is at most
    # scale, up to scale's own rounding.  Each exact running sum lies in
    # [C + fall, C + rise], and the j-th rounded one differs from it by at
    # most gamma_j (|C| + A) <= 1.01 j u scale, for j <= terms <= 2**16 and
    # u the unit roundoff (recursive summation, Higham 2002, sec. 4.2).
    # Adding ``start`` rounds monotonically, so a bound that is itself a
    # double bounds the rounded row too.  The bounds' own arithmetic errs
    # by at most 2u scale in fall or rise (rounded products, one fsum) and
    # u scale in each of three additions, and scale is at most 6u relative
    # below its exact value; 2 (terms + 4) u scale exceeds
    # (1.01 terms + 5) u (1 + 6u) scale for every terms >= 0.
    slack = 2.0 * (terms + 4) * _U * scale
    return (low + start + fall - slack, high + start + rise + slack,
            low + (fall + rise) - slack, high + (fall + rise) + slack)


def _path_blocks(
    state: PlayerState, spec: GambleSpec, rounds: int, seed: int
) -> Iterator[Tuple[np.ndarray, Optional[Tuple[int, int]], int, float, float,
                    Callable[[], Tuple[np.ndarray, np.ndarray]]]]:
    """The run of :func:`trajectory_blocks`, block by block, with each
    block's census and bounds on its log wealth.

    Yields ``(counts, fatal, rows, low, high, values)`` per block: the
    census of its kept draws and the ruinous draw, as :func:`_block_run`
    gives them; the number of rows of log wealth it adds, each within
    ``[low, high]`` (see :func:`_sum_bounds`); and ``values``, a function
    of no arguments returning ``(draws, log_wealth)`` as
    :func:`trajectory_blocks` yields them, to be called at most once, and
    before the next block is asked for.

    The order of a full block after the first is drawn only when its
    ``values`` are called.  A block whose ``values`` are not called is
    deferred: only an interval holding the running sum after it is kept.
    The next ``values`` called draws the deferred blocks again from their
    seeds, census then order, to rebuild the running sum exactly, so the
    state kept is a block index and an interval whatever the run length.
    """
    start = math.log(state.wealth)
    held = _ruin_test(state, spec)
    # the running sum is carried into each block's cumsum, so the path is
    # rounded exactly as one cumsum over every round would round it;
    # ``carry`` is the sum entering block ``deferred``, the first unsummed
    # one, or the next block when none is, and ``[low, high]`` holds the
    # sum entering the next block
    carry = low = high = 0.0
    deferred: Optional[int] = None

    def summed(draws: np.ndarray, logs: np.ndarray) -> np.ndarray:
        nonlocal carry
        sums = np.cumsum(np.concatenate(([carry], logs[draws])))
        carry = sums[-1]
        return sums

    for block, lo, hi in _spans(rounds):
        counts, fatal, order = _block_run(spec, seed, block, lo, hi, held)
        logs, seen = _log_table(state, spec, counts)
        terms = hi - lo if fatal is None else fatal[0] - lo
        row_low, row_high, low, high = _sum_bounds(
            low, high, start, logs[seen], counts[seen].astype(np.float64), terms)
        asked = False

        def values() -> Tuple[np.ndarray, np.ndarray]:
            nonlocal asked, deferred
            asked = True
            if deferred is not None:
                for again in range(deferred, block):
                    census, _, replayed = _block_run(spec, seed, again, again * _BLOCK_SIZE,
                                                     (again + 1) * _BLOCK_SIZE, None)
                    summed(replayed(), _log_table(state, spec, census)[0])
                deferred = None
            draws = order()
            sums = summed(draws, logs)
            sums += start
            return draws, sums if block == 0 else sums[1:]

        yield counts, fatal, terms + (block == 0), row_low, row_high, values
        if fatal is not None:
            return
        if asked:
            low = high = carry
        elif deferred is None:
            deferred = block


# ====== Estimators ======


def trajectory_blocks(
    state: PlayerState,
    spec: GambleSpec,
    rounds: int,
    seed: int = 0,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The run of :func:`simulate_trajectory`, one block of 2**16 rounds at a time.

    Yields ``(waiting_times, log_wealth)`` per block: the block's draws,
    through the ruinous one if the player goes bankrupt in it, and the
    log wealth after each of its rounds that left wealth positive.  The
    first block's log wealth starts with the starting wealth (round 0).
    No block follows a bankruptcy.  Concatenated, the blocks are the
    :class:`Trajectory` arrays bit for bit, in memory that does not grow
    with ``rounds``.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        rounds: Number of rounds to attempt (positive).
        seed: Nonnegative integer seeding the whole experiment.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds!r}")
    for _, fatal, _, _, _, values in _path_blocks(state, spec, rounds, seed):
        draws, log_wealth = values()
        yield draws if fatal is None else np.append(draws, fatal[1]), log_wealth


def simulate_trajectory(
    state: PlayerState,
    spec: GambleSpec,
    rounds: int,
    seed: int = 0,
) -> Trajectory:
    """Play the gamble ``rounds`` times at a fixed ticket price.

    Each round multiplies wealth by an independent copy of the growth
    factor ``(wealth - price + payout) / wealth`` evaluated at the
    starting state, so the log-wealth path is a random walk whose drift
    is the time-average growth rate.  A round whose factor is
    nonpositive bankrupts the player and ends the trajectory.

    This is the only estimator input that holds every round in memory;
    :func:`time_average_census` gives the same estimate without it, and
    :func:`trajectory_blocks` the same path.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        rounds: Number of rounds to attempt (positive).
        seed: Nonnegative integer seeding the whole experiment.

    Returns:
        A :class:`Trajectory`.
    """
    draws, log_path = (np.concatenate(parts)
                       for parts in zip(*trajectory_blocks(state, spec, rounds, seed)))
    bankrupt_at: Optional[int] = None
    bankrupt_wealth: Optional[float] = None
    if len(log_path) == len(draws):  # the ruinous round adds a draw but no wealth
        bankrupt_at = len(draws)
        bankrupt_wealth = _bankrupt_wealth(state, spec, np.bincount(draws[:-1]),
                                           int(draws[-1]))
    return Trajectory(
        state=state,
        spec=spec,
        waiting_times=draws,
        log_wealth_path=log_path,
        bankrupt_at=bankrupt_at,
        bankrupt_wealth=bankrupt_wealth,
    )


def time_average_census(
    state: PlayerState,
    spec: GambleSpec,
    rounds: int,
    seed: int = 0,
    path: Optional[Callable[[Callable[[], np.ndarray], int, float, float], object]] = None,
) -> Census:
    """The run :func:`simulate_trajectory` plays, counted instead of stored.

    Same draws, same bankruptcy round and wealth, and the same
    :func:`time_average_estimate`, in memory that does not grow with
    ``rounds``.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        rounds: Number of rounds to attempt (positive).
        seed: Nonnegative integer seeding the whole experiment.
        path: Called once per block, in order, with ``(log_wealth, rows,
            low, high)``: a function of no arguments returning the block's
            log wealth, the array :func:`trajectory_blocks` yields; that
            array's length; and bounds ``low <= x <= high`` on each of its
            entries, proven from the block's census and the running sum.
            The census is counted from the same blocks.  A full block
            after the first has its order drawn only if ``log_wealth`` is
            called, so each block is drawn once unless a path skips a
            block's log wealth and then asks for a later one: the skipped
            blocks are then drawn again to rebuild the running sum.

    Returns:
        A :class:`Census`.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds!r}")
    if path is None:
        counts, fatal = _census(spec, rounds, seed, _ruin_test(state, spec))
    else:
        def written():
            for block_counts, fatal, rows, low, high, values in _path_blocks(
                    state, spec, rounds, seed):
                path(lambda: values()[1], rows, low, high)
                yield block_counts, fatal

        counts, fatal = _sum_censuses(written())
    if fatal is None:
        return Census(state=state, spec=spec, counts=counts)
    index, n = fatal
    return Census(
        state=state,
        spec=spec,
        counts=counts,
        bankrupt_at=index + 1,
        bankrupt_wealth=_bankrupt_wealth(state, spec, counts, n),
    )


def time_average_estimate(run: Union[Trajectory, Census]) -> SampleStats:
    """Realized per-round growth rate of log wealth along one run.

    The mean and standard error of the per-round log growth factors,
    reduced from the run's census: a :class:`Trajectory` and the
    :class:`Census` of the same inputs give identical results.

    Args:
        run: A non-bankrupt run of at least two rounds.

    Returns:
        Mean log growth per round, with the standard error of the
        per-round log increments.

    Raises:
        BankruptTrajectoryError: If the run ended in bankruptcy.
    """
    if run.bankrupt_at is not None:
        raise BankruptTrajectoryError(f"trajectory went bankrupt at round {run.bankrupt_at}")
    counts = run.counts if isinstance(run, Census) else np.bincount(run.waiting_times)
    if counts.sum() < 2:
        raise ValueError("need at least 2 rounds to estimate a standard error")
    return _census_stats(counts, lambda ns: _log_growth_factors(run.state, run.spec, ns))


def subinterval_estimate(
    state: PlayerState,
    spec: GambleSpec,
    subintervals: int,
    seed: int = 0,
) -> SampleStats:
    """Growth rate from returns that each act for a fraction of a unit time.

    One time unit is divided into ``q = subintervals`` slices, and ``q``
    freshly sampled returns each govern the wealth for one slice: return
    ``r`` held for ``1/q`` of a unit contributes the per-unit simple
    rate ``q * (r**(1/q) - 1)``, and the estimate is the average
    contribution.  At ``q = 1`` this is the plain rate of return
    ``r - 1`` of a single round -- the quantity whose expectation is the
    ensemble average -- while for large ``q`` it approaches the
    time-average growth rate.  The slide between those limits as ``q``
    grows is the gamble's non-ergodicity made visible on one sample.

    The ``q`` returns are the first ``q`` draws of the seeded
    experiment, reduced from the census :func:`time_average_census`
    counts for ``q`` rounds: the draws a trajectory of the same seed plays.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        subintervals: Number of slices ``q`` (positive).
        seed: Nonnegative integer seeding the whole experiment.

    Returns:
        Mean per-unit-time rate over the ``q`` returns and its standard
        error (infinite when ``q == 1``: one return carries no spread).

    Raises:
        NonpositiveReturnError: If any sampled return is nonpositive;
            fractional holding of such a return has no real rate.
    """
    q = subintervals
    if q < 1:
        raise ValueError(f"subintervals must be positive, got {subintervals!r}")
    run = time_average_census(state, spec, q, seed)
    if run.bankrupt_at is not None:
        raise NonpositiveReturnError(
            f"draw {run.bankrupt_at} yields a nonpositive return; no real "
            f"fractional-period rate exists at this ticket price"
        )
    if q == 1:
        return _census_stats(run.counts, lambda ns: _growth_factors(state, spec, ns) - 1.0)

    def rates(ns: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return q * np.expm1(_log_growth_factors(state, spec, ns) / q)

    return _census_stats(run.counts, rates)


def ensemble_average_estimate(
    state: PlayerState,
    spec: GambleSpec,
    samples: int,
    seed: int = 0,
) -> SampleStats:
    """Average single-round growth factor across independent players.

    Every sample is one player playing one round from the same starting
    state; the statistic is the plain arithmetic mean of their growth
    factors, whose log is the ensemble growth rate.  For the classic
    doubling lottery this estimate creeps upward without bound as the
    sample grows -- the expectation it chases is infinite -- while the
    time-average estimate of the same gamble settles near its finite
    analytic value.

    The players' waiting times are those of :func:`draw_waiting_times`
    with the same seed, but only the first 2**16 are drawn one by one:
    every later full block of 2**16 players is drawn as its census alone,
    exact in law, with no order.  The census is that of
    :func:`time_average_census` for the same seed and size when no round
    ruins, depends on the seed alone, and a smaller ``samples`` gives a
    sub-census of a larger one's.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        samples: Number of independent players (at least 2).
        seed: Nonnegative integer seeding the whole experiment.

    Returns:
        Mean growth factor and its standard error.  When the payout
        distribution has infinite variance (the unbounded doubling
        rule), the reported standard error is unreliable: it is the
        sample standard error of a statistic with no population
        analogue, and it understates how far the mean sits from any
        stable value.
    """
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples!r}")
    counts, _ = _census(spec, samples, seed)
    return _census_stats(counts, lambda ns: _growth_factors(state, spec, ns))
