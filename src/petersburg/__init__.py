"""Growth-rate analysis of lotteries with heavy-tailed payouts.

The package asks one question of a gamble: does repeated play grow or
shrink the wealth of the person playing it?  Because averaging over
time and averaging over an ensemble of players give different answers
for multiplicative wealth dynamics, every quantity here is computed as
a classified series -- convergent with a certified tail bound,
divergent, or undefined -- rather than as a bare float.

The Monte Carlo names (the ``montecarlo`` block of ``__all__``) load
with their first use, through a module ``__getattr__``: the series and
the criteria need no numpy, so a program that only sums series never
imports it.
"""

__version__ = "0.1.0"

from .criteria import (
    BreakEvenCurve,
    DecisionReport,
    NoSignChangeError,
    Recommendation,
    StakeKind,
    StakeResult,
    bernoulli_stake,
    breakeven_curve,
    breakeven_price,
    evaluate,
    menger_partial_sum_price,
    recommendation_for,
)
from .gamble import (
    BernoulliOriginal,
    Capped,
    GambleSpec,
    Menger,
    OutOfSupportError,
    PayoutRule,
    PlayerState,
    Table,
    cap_point,
    growth_factor,
    load_table,
    min_payout,
    payout,
    probability,
    support_size,
)
from .series import (
    Classification,
    SeriesResult,
    TruncationInconclusiveError,
    TruncationPolicy,
    UndefinedReason,
    bernoulli_literal_lhs,
    ensemble_average_growth,
    expected_payout,
    expected_utility_change,
    time_average_growth,
)

__all__ = [
    "__version__",
    # gamble
    "BernoulliOriginal",
    "Capped",
    "GambleSpec",
    "Menger",
    "OutOfSupportError",
    "PayoutRule",
    "PlayerState",
    "Table",
    "cap_point",
    "growth_factor",
    "load_table",
    "min_payout",
    "payout",
    "probability",
    "support_size",
    # series
    "Classification",
    "SeriesResult",
    "TruncationInconclusiveError",
    "TruncationPolicy",
    "UndefinedReason",
    "bernoulli_literal_lhs",
    "ensemble_average_growth",
    "expected_payout",
    "expected_utility_change",
    "time_average_growth",
    # criteria
    "BreakEvenCurve",
    "DecisionReport",
    "NoSignChangeError",
    "Recommendation",
    "StakeKind",
    "StakeResult",
    "bernoulli_stake",
    "breakeven_curve",
    "breakeven_price",
    "evaluate",
    "menger_partial_sum_price",
    "recommendation_for",
    # montecarlo
    "BankruptTrajectoryError",
    "Census",
    "NonpositiveReturnError",
    "SampleStats",
    "Trajectory",
    "draw_waiting_times",
    "ensemble_average_estimate",
    "simulate_trajectory",
    "subinterval_estimate",
    "time_average_census",
    "time_average_estimate",
    "trajectory_blocks",
]


def __getattr__(name: str):
    # every other name in __all__ is bound above, so one looked up here
    # is a montecarlo name
    if name in __all__:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
