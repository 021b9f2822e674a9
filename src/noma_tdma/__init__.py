"""Two-user downlink NOMA vs. TDMA: rate regions, event classification, and
event probabilities by closed form, quadrature, and Monte Carlo.  Names from
the modules that import scipy are loaded on first access (PEP 562)."""

import importlib

from .regions import (
    ChannelPair,
    PowerSplit,
    TimeSplit,
    InfeasibleSplitError,
    region_boundary_samples,
)
from .events import (
    DegenerateSplitError,
    ClassificationError,
    EventProbabilities,
    InconsistencyError,
    ConvergenceError,
    classify_many,
    e2_threshold,
    optimal_a2_special,
)
from .order_stats import (
    PairingConfig,
    joint_pdf,
    marginal_cdf_n,
    sample_pairs,
)
from .montecarlo import (
    McConfig,
    AverageRates,
    estimate_event_probs,
    estimate_average_rates,
)

__version__ = "0.1.0"

# names defined in the modules that import scipy, with their module
_LAZY = {name: "analytic" for name in (
    "p_eps2_closed", "p_eps4_closed", "p_eps2_special", "strong_user_tail",
    "event_probabilities_closed")}
_LAZY.update(event_probabilities_quadrature="quadrature",
             binomial_interval="validation")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_LAZY])
