"""Monte Carlo verification of the analytic growth rates.

Simulation draws waiting times in fixed blocks of 2**16, with block
``b`` seeded by ``SeedSequence(entropy=seed, spawn_key=(b,))``.  Two
consequences the tests rely on:

* results are byte-identical for any worker count, because parallelism
  only distributes whole blocks whose outputs land in disjoint slices
  or are reduced by order-independent integer counts;
* for a fixed seed, a longer run extends a shorter one -- the first
  draws of a 10**6-round trajectory are exactly the 10**3-round
  trajectory's draws.

One uniform variate is consumed per waiting time, for geometric and
table rules alike.

Every estimator is a reduction of its own census, the count of each
waiting time drawn: a mean over rounds does not depend on their order.
Blocks are drawn, counted and dropped one at a time, so the estimators
use O(2**16) memory whatever the run length.  The wealth path is built
the same way by :func:`trajectory_blocks`, one block of log wealth at a
time; :func:`simulate_trajectory` is their concatenation.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar, Union

import numpy as np

from .gamble import GambleSpec, PlayerState

_BLOCK_SIZE = 1 << 16

_T = TypeVar("_T")

_scratch = threading.local()


class NonpositiveReturnError(ArithmeticError):
    """A log-scale estimate met a round with nonpositive resulting wealth."""


class BankruptTrajectoryError(NonpositiveReturnError):
    """The trajectory hit bankruptcy; growth-rate estimates do not exist."""


@dataclass(frozen=True)
class SimulationConfig:
    """Reproducibility and execution knobs for the samplers.

    Args:
        seed: Nonnegative integer seeding the whole experiment.
        workers: Thread count; any value yields identical results.
    """

    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be a positive integer, got {self.workers!r}")


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


def _block_generator(seed: int, block: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.PCG64(seq))


def _block_waiting_times(spec: GambleSpec, seed: int, block: int, size: int) -> np.ndarray:
    """The first ``size`` waiting times of one block.

    PCG64's ``random(k)`` is a prefix of its ``random(2**16)``, so a
    short block is exactly the head of the full one.
    """
    # a per-thread scratch buffer: fresh 2**16 arrays cost more in page
    # faults than the arithmetic on them
    scratch = getattr(_scratch, "uniforms", None)
    if scratch is None:
        scratch = _scratch.uniforms = np.empty(_BLOCK_SIZE)
    u = _block_generator(seed, block).random(size, out=scratch[:size])
    return spec.payout_rule.waiting_times(u, spec.probability_parameter)


def _map_blocks(fn: Callable[[int, int, int], _T], count: int, workers: int) -> Iterator[_T]:
    """``fn(block, lo, hi)`` for each block of draws ``lo:hi`` below ``count``.

    Results come in block order.  Blocks run on ``min(workers, blocks)``
    threads, with no pool for one, and at most two per thread are in
    flight, so memory does not grow with ``count``.  Closing the
    iterator early cancels the blocks not yet started.
    """
    blocks = (count + _BLOCK_SIZE - 1) // _BLOCK_SIZE
    spans = ((b, b * _BLOCK_SIZE, min((b + 1) * _BLOCK_SIZE, count)) for b in range(blocks))
    threads = min(workers, blocks)
    if threads == 1:
        for span in spans:
            yield fn(*span)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        try:
            for span in spans:
                pending.append(pool.submit(fn, *span))
                if len(pending) == 2 * threads:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def draw_waiting_times(
    spec: GambleSpec, count: int, config: Optional[SimulationConfig] = None
) -> np.ndarray:
    """First ``count`` waiting times of the seeded experiment.

    The sequence depends only on the seed (and the gamble's law), never
    on ``count`` or ``workers``: asking for more draws extends the same
    sequence.

    Args:
        spec: Gamble specification.
        count: Number of draws (positive).
        config: Seed and worker count.

    Returns:
        Array of ``count`` waiting times (1-based, dtype int64).
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count!r}")
    config = config or SimulationConfig()
    out = np.empty(count, dtype=np.int64)

    def fill(block: int, lo: int, hi: int) -> None:
        out[lo:hi] = _block_waiting_times(spec, config.seed, block, hi - lo)

    for _ in _map_blocks(fill, count, config.workers):
        pass
    return out


# ====== Factor tables ======


def _growth_factors(state: PlayerState, spec: GambleSpec, ns: np.ndarray) -> np.ndarray:
    """:func:`growth_factor` at each waiting time in ``ns``, bit for bit.

    Same operations in the same order, ``(w - c + m) / w``; a factor
    beyond the double range is ``inf``.
    """
    w = state.wealth
    with np.errstate(over="ignore"):
        return (w - state.ticket_price + spec.payout_rule.payouts(ns, w)) / w


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


def _frequencies(counts: np.ndarray) -> Dict[int, int]:
    """Occurrence map ``{n: count}`` of a census, ascending, zeros dropped."""
    return {int(n): int(counts[n]) for n in np.flatnonzero(counts)}


def _census_stats(counts: np.ndarray, value_of: Callable[[np.ndarray], np.ndarray]
                  ) -> SampleStats:
    """Mean of ``value_of(n)`` over a census, and its standard error.

    Sums are exactly rounded (``math.fsum``) over the distinct waiting
    times, and the variance takes two passes, so the result depends on
    the counts alone -- never on draw order or worker count.  Squared
    deviations past the double range are summed scaled by the largest
    deviation, so a finite mean always has a finite standard error.
    """
    ns = np.flatnonzero(counts)
    weights = counts[ns].astype(np.float64)
    total = int(counts.sum())
    values = value_of(ns)
    mean = math.fsum(weights * values) / total
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
        frequencies=_frequencies(counts),
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


def _block_run(state: PlayerState, spec: GambleSpec, seed: int, block: int, lo: int,
               hi: int) -> Tuple[np.ndarray, np.ndarray, Optional[Tuple[int, int]]]:
    """Draws ``lo:hi`` of the run, cut before the first ruinous one.

    Returns the draws kept, their census, and the first draw whose
    growth factor is nonpositive as ``(index, n)`` with a 0-based index
    (``None`` when no draw of the block ruins).
    """
    draws = _block_waiting_times(spec, seed, block, hi - lo)
    counts = np.bincount(draws)
    seen = np.flatnonzero(counts)
    ruinous = seen[_growth_factors(state, spec, seen) <= 0.0]
    if not ruinous.size:
        return draws, counts, None
    first = int(np.argmax(np.isin(draws, ruinous)))
    return draws[:first], np.bincount(draws[:first]), (lo + first, int(draws[first]))


def _census(
    state: PlayerState,
    spec: GambleSpec,
    count: int,
    config: SimulationConfig,
    stop_at_ruin: bool,
) -> Tuple[np.ndarray, Optional[Tuple[int, int]]]:
    """Census of the first ``count`` draws, block by block.

    With ``stop_at_ruin``, the census stops before the first draw whose
    growth factor is nonpositive, returned as ``(index, n)`` with a
    0-based index; otherwise, and when no draw ruins, it is ``None``.
    """

    def block_census(block: int, lo: int, hi: int):
        if stop_at_ruin:
            return _block_run(state, spec, config.seed, block, lo, hi)[1:]
        return np.bincount(_block_waiting_times(spec, config.seed, block, hi - lo)), None

    total = np.zeros(1, dtype=np.int64)
    for counts, fatal in _map_blocks(block_census, count, config.workers):
        if len(counts) > len(total):
            total = np.concatenate([total, np.zeros(len(counts) - len(total), np.int64)])
        total[: len(counts)] += counts
        if fatal is not None:
            return total, fatal
    return total, None


# ====== Estimators ======


def trajectory_blocks(
    state: PlayerState,
    spec: GambleSpec,
    rounds: int,
    config: Optional[SimulationConfig] = None,
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
        config: Seed and worker count.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds!r}")
    config = config or SimulationConfig()
    start = math.log(state.wealth)

    def block_steps(block: int, lo: int, hi: int):
        draws, counts, fatal = _block_run(state, spec, config.seed, block, lo, hi)
        # indexed by n itself, which spares a shifted copy of the draws
        logs = np.empty(len(counts))
        seen = np.flatnonzero(counts)
        logs[seen] = _log_growth_factors(state, spec, seen)
        steps = logs[draws]
        if fatal is not None:
            draws = np.append(draws, fatal[1])
        return draws, steps, fatal

    # the running sum is carried into each block's cumsum, so the path is
    # rounded exactly as one cumsum over every round would round it
    carry = 0.0
    for block, (draws, steps, fatal) in enumerate(
            _map_blocks(block_steps, rounds, config.workers)):
        sums = np.cumsum(np.concatenate(([carry], steps)))
        carry = sums[-1]
        sums += start
        yield draws, sums if block == 0 else sums[1:]
        if fatal is not None:
            return


def simulate_trajectory(
    state: PlayerState,
    spec: GambleSpec,
    rounds: int,
    config: Optional[SimulationConfig] = None,
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
        config: Seed and worker count.

    Returns:
        A :class:`Trajectory`.
    """
    draws, log_path = (np.concatenate(parts)
                       for parts in zip(*trajectory_blocks(state, spec, rounds, config)))
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
    config: Optional[SimulationConfig] = None,
) -> Census:
    """The run :func:`simulate_trajectory` plays, counted instead of stored.

    Same draws, same bankruptcy round and wealth, and the same
    :func:`time_average_estimate`, in memory that does not grow with
    ``rounds``.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        rounds: Number of rounds to attempt (positive).
        config: Seed and worker count.

    Returns:
        A :class:`Census`.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds!r}")
    config = config or SimulationConfig()
    counts, fatal = _census(state, spec, rounds, config, stop_at_ruin=True)
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
    config: Optional[SimulationConfig] = None,
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
    experiment, the same draws a trajectory from the same config plays.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        subintervals: Number of slices ``q`` (positive).
        config: Seed and worker count.

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
    config = config or SimulationConfig()
    counts, fatal = _census(state, spec, q, config, stop_at_ruin=True)
    if fatal is not None:
        raise NonpositiveReturnError(
            f"draw {fatal[0] + 1} yields a nonpositive return; no real "
            f"fractional-period rate exists at this ticket price"
        )
    if q == 1:
        return _census_stats(counts, lambda ns: _growth_factors(state, spec, ns) - 1.0)

    def rates(ns: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return q * np.expm1(_log_growth_factors(state, spec, ns) / q)

    return _census_stats(counts, rates)


def ensemble_average_estimate(
    state: PlayerState,
    spec: GambleSpec,
    samples: int,
    config: Optional[SimulationConfig] = None,
) -> SampleStats:
    """Average single-round growth factor across independent players.

    Every sample is one player playing one round from the same starting
    state; the statistic is the plain arithmetic mean of their growth
    factors, whose log is the ensemble growth rate.  For the classic
    doubling lottery this estimate creeps upward without bound as the
    sample grows -- the expectation it chases is infinite -- while the
    time-average estimate of the same gamble settles near its finite
    analytic value.

    Args:
        state: Wealth and ticket price.
        spec: Gamble specification.
        samples: Number of independent players (at least 2).
        config: Seed and worker count.

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
    config = config or SimulationConfig()
    counts, _ = _census(state, spec, samples, config, stop_at_ruin=False)
    return _census_stats(counts, lambda ns: _growth_factors(state, spec, ns))
