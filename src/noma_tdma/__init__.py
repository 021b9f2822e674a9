"""Two-user downlink NOMA vs. TDMA: rate regions, event classification, and
event probabilities by closed form, quadrature, and Monte Carlo.  Each name
is imported from the module that defines it, e.g.
`from noma_tdma.order_stats import PairingConfig`."""

__version__ = "0.1.0"
