import math
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from noma_tdma.events import DegenerateSplitError, classify_many, e2_threshold
from noma_tdma.regions import f_noma, f_tdma, log2_1p, noma_rates, tdma_rates


class EventId(Enum):
    """Names of the event ids that classify_many returns (test labels)."""
    E1 = 1
    E2 = 2
    E3 = 3
    E4 = 4


def events_by_definition(x, y, a2, b2):
    """Event ids from the four definitions, written with the rates that
    classify_many does not use, and a mask of the draws that lie at least
    1e-9 from every tie."""
    r1n, r2n = noma_rates(x, y, a2)
    r1t, r2t = tdma_rates(x, y, b2)
    d1, d2 = r1n - r1t, r2n - r2t
    dsum = (r1n + r2n) - (r1t + r2t)
    clear = (np.abs(d1) > 1e-9) & (np.abs(d2) > 1e-9) & (np.abs(dsum) > 1e-9)
    holds = np.stack([
        (d1 < 0) & (d2 > 0),                # E1
        (d1 > 0) & (d2 > 0),                # E2
        (d1 > 0) & (d2 < 0) & (dsum > 0),   # E3
        dsum < 0,                           # E4
    ])
    # away from ties the four events partition the draws
    assert np.all(holds.sum(axis=0)[clear] == 1)
    return np.argmax(holds, axis=0) + 1, clear


class TestClassifyFull:
    @pytest.mark.parametrize("x,y,a2,expected", [
        (1.0, 3.0, 0.25, EventId.E4),   # NOMA sum 1.48543 < TDMA sum 1.5
        (1.0, 20.0, 0.25, EventId.E2),  # both individual rates won
        (1.0, 3.0, 0.5, EventId.E1),    # R1N 0.41504 < 0.5, R2N 1.32193 > 1.0
        (4.0, 6.0, 0.25, EventId.E3),   # sum won, strong user's rate lost
    ])
    def test_examples(self, x, y, a2, expected):
        for reduced in (False, True):
            assert classify_many(x, y, a2, 0.5,
                                 reduced=reduced) == expected.value

    def test_degenerate_splits_rejected(self):
        # a2 = 0 and b2 in {0, 1} put T at a segment endpoint; a2 > 1/2 is
        # not a NOMA split
        for reduced in (False, True):
            for a2, b2 in ((0.0, 0.5), (0.6, 0.5), (0.25, 0.0), (0.25, 1.0)):
                with pytest.raises(DegenerateSplitError):
                    classify_many(1.0, 3.0, a2, b2, reduced=reduced)

    def test_pairs_outside_the_domain_rejected(self):
        # x < 0 or y < x is no channel pair, and gets no label
        for reduced in (False, True):
            for x, y in ((0.5, -0.2), (3.0, 1.0), (-0.5, 3.0), (-1.0, 3.0),
                         ([1.0, 3.0], [2.0, 1.0])):
                with pytest.raises(ValueError, match="finite 0 <= x <= y"):
                    classify_many(x, y, 0.25, 0.5, reduced=reduced)
            # both ends of the domain are pairs
            assert classify_many([0.0, 2.0], [1.0, 2.0], 0.25, 0.5,
                                 reduced=reduced).all()

    def test_nan_margin_rejected(self):
        # a NaN or infinite x or y is no channel pair either; its margin
        # h(x) - h(y), as from h(inf) = inf - inf, would be NaN and fail
        # every sign comparison, reading as a tie. Warnings are errors in
        # this suite, so a RuntimeWarning before the ValueError fails the
        # test too.
        for reduced in (False, True):
            for x, y in ((math.nan, 3.0), (1.0, math.nan),
                         ([1.0, math.nan], 3.0), (math.inf, 3.0),
                         (1.0, math.inf), (math.inf, math.inf),
                         (-math.inf, 3.0), ([1.0, 2.0], [3.0, math.inf])):
                with pytest.raises(ValueError, match="finite 0 <= x <= y"):
                    classify_many(x, y, 0.25, 0.5, reduced=reduced)


class TestEquivalence:
    def test_full_equals_reduced_randomized(self):
        rng = np.random.default_rng(21)
        N = 100_000
        x = rng.uniform(0.05, 50.0, N)
        y = x * (1.0 + rng.uniform(1e-3, 20.0, N))
        a2 = rng.uniform(0.01, 0.5, N)
        b2 = rng.uniform(0.01, 0.99, N)
        full = classify_many(x, y, a2, b2, reduced=False)
        red = classify_many(x, y, a2, b2, reduced=True)
        assert np.array_equal(full, red)

    @pytest.mark.parametrize("x_max,a2_min", [(30.0, 0.01), (1e8, 1e-4)],
                             ids=["moderate", "80dB"])
    def test_scalar_vector_consistency(self, x_max, a2_min):
        # the full and reduced classifiers against the event definitions
        # written out from the rates; at x up to 1e8 (the CLI's 80 dB)
        # b2*ln(1+v) and ln(1+a2*v) are large and nearly cancel
        rng = np.random.default_rng(22)
        N = 20_000
        x = rng.uniform(0.1, x_max, N)
        y = x * (1 + rng.uniform(0.01, 10.0, N))
        a2 = rng.uniform(a2_min, 0.5, N)
        b2 = rng.uniform(0.01, 0.99, N)
        expected, clear = events_by_definition(x, y, a2, b2)
        assert clear.mean() > 0.99
        for reduced in (False, True):
            labels = classify_many(x, y, a2, b2, reduced=reduced)
            assert np.array_equal(labels[clear], expected[clear])

    def test_tie_breaks_toward_lower_event(self):
        # R2N = log2(1.75) = R2T exactly, so both E2 and E3 match
        x, y, a2, b2 = 1.0, 3.0, 0.25, math.log2(1.75) / 2.0
        r1n, r2n = noma_rates(x, y, a2)
        r1t, r2t = tdma_rates(x, y, b2)
        assert r2n - r2t == 0.0 and r1n > r1t
        for reduced in (False, True):
            assert classify_many(x, y, a2, b2, reduced=reduced) == 2
            assert classify_many([x], [y], a2, b2, reduced=reduced)[0] == 2


def _values(lo, hi, special, exclude_min=False):
    """Floats in [lo, hi] plus the exact values of a known tie."""
    return st.one_of(st.floats(lo, hi, exclude_min=exclude_min),
                     st.sampled_from(special))


@st.composite
def _broadcast_inputs(draw):
    """(x, y, a2, b2) arrays of mutually broadcastable shapes with y > x; the
    sampled values include x = 1, y = 3, a2 = 1/4, b2 = log2(1.75)/2, where
    R2N = R2T exactly."""
    shapes = draw(mutually_broadcastable_shapes(num_shapes=4, max_dims=3,
                                                max_side=3)).input_shapes
    x = draw(arrays(np.float64, shapes[0],
                    elements=_values(1e-3, 1e3, [1.0], exclude_min=True)))
    ratio = draw(arrays(np.float64, shapes[1],
                        elements=_values(1e-6, 1e3, [2.0], exclude_min=True)))
    a2 = draw(arrays(np.float64, shapes[2],
                     elements=_values(1e-3, 0.5, [0.25, 0.5])))
    b2 = draw(arrays(np.float64, shapes[3],
                     elements=_values(1e-3, 0.999,
                                      [0.5, math.log2(1.75) / 2.0])))
    return x, x * (1.0 + ratio), a2, b2


class TestBroadcasting:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(_broadcast_inputs(), st.booleans())
    def test_matches_elementwise_scalar_calls(self, args, reduced):
        labels = classify_many(*args, reduced=reduced)
        shape = np.broadcast_shapes(*(a.shape for a in args))
        assert labels.dtype == np.int8 and labels.shape == shape
        full = np.broadcast_arrays(*args)
        for idx in np.ndindex(shape):
            one = classify_many(*(float(a[idx]) for a in full),
                                reduced=reduced)
            assert isinstance(one, np.ndarray) and one.shape == ()
            assert one.dtype == np.int8
            assert one == labels[idx]


class TestEpsilon2Threshold:
    def test_w2_arithmetic(self):
        # a2 = 1/4 gives w2 = 8
        assert e2_threshold(0.25) == 8.0
        # a2**2 underflows to 0: no finite x reaches E2
        assert e2_threshold(1e-300) == math.inf
        for a2 in (0.0, 0.6):
            with pytest.raises(DegenerateSplitError):
                e2_threshold(a2)
        # E2 iff x < w2 < y at b2 = 1/2
        assert classify_many(1.0, 20.0, 0.25, 0.5) == 2
        assert classify_many(1.0, 3.0, 0.25, 0.5) != 2

    def test_boundary_power_split(self):
        # a2 = 1/2 gives w2 = 0: no positive x can satisfy x < w2
        assert classify_many(1.0, 3.0, 0.5, 0.5) != 2
        assert classify_many(0.01, 1e6, 0.5, 0.5) != 2

    def test_matches_classifier_at_equal_time_split(self):
        rng = np.random.default_rng(23)
        N = 20_000
        x = rng.uniform(0.05, 50.0, N)
        y = x * (1 + rng.uniform(1e-3, 30.0, N))
        a2 = rng.uniform(0.01, 0.5, N)
        w2 = (1.0 - 2.0 * a2) / a2**2
        is_e2 = classify_many(x, y, a2, 0.5) == 2
        assert np.array_equal(is_e2, (x < w2) & (w2 < y))


class TestGeometry:
    def test_sum_rate_below_strong_single_user(self):
        rng = np.random.default_rng(24)
        x = rng.uniform(0.05, 50.0, 50_000)
        y = x * (1.0 + rng.uniform(1e-3, 30.0, 50_000))
        a2 = rng.uniform(0.0, 0.5, 50_000)
        r1n, r2n = noma_rates(x, y, a2)
        assert np.all(r1n + r2n < np.log1p(y) / math.log(2.0) + 1e-12)

    def test_event_sequence_along_segment(self):
        # sweeping T from A to E visits the events in contiguous id order
        rng = np.random.default_rng(25)
        b2 = np.linspace(1e-3, 1.0 - 1e-3, 2001)
        seen_all_four = 0
        for _ in range(200):
            x = float(rng.uniform(0.1, 30.0))
            y = x * (1 + float(rng.uniform(0.01, 20.0)))
            a2 = float(rng.uniform(0.02, 0.5))
            labels = classify_many(x, y, a2, b2)
            assert np.all(np.diff(labels.astype(int)) >= 0)
            if len(np.unique(labels)) == 4:
                seen_all_four += 1
        assert seen_all_four > 0

    def test_propositions_direct(self):
        rng = np.random.default_rng(26)
        x = rng.uniform(0.05, 40.0, 5000)
        y = x * (1 + rng.uniform(0.01, 20.0, 5000))
        za, zb = np.sort(rng.uniform(0.0, log2_1p(y)[:, None], (5000, 2)),
                         axis=1).T
        keep = za < zb
        x, y, za, zb = x[keep], y[keep], za[keep], zb[keep]
        # z > z0: f^N(z) + z > f^T(z0) + z0
        assert np.all(f_noma(zb, x, y) + zb > f_tdma(za, x, y) + za)
        # z < z0: f^N(z) > f^T(z0)
        assert np.all(f_noma(za, x, y) > f_tdma(zb, x, y))
