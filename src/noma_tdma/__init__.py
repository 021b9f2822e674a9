"""Two-user downlink NOMA vs. TDMA: rate regions, event classification, and
event probabilities by closed form, quadrature, and Monte Carlo."""

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
    classify_many,
    e2_threshold,
)
from .order_stats import (
    PairingConfig,
    joint_pdf,
    marginal_cdf_n,
    sample_pairs,
)
from .analytic import (
    EventProbabilities,
    InconsistencyError,
    ConvergenceError,
    p_eps2_closed,
    p_eps4_closed,
    p_eps2_special,
    optimal_a2_special,
    strong_user_tail,
    event_probabilities_closed,
)
from .quadrature import event_probabilities_quadrature
from .montecarlo import (
    McConfig,
    AverageRates,
    estimate_event_probs,
    estimate_average_rates,
    binomial_interval,
)

__version__ = "0.1.0"
