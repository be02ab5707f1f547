"""Volatility surfaces and the call-grid construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rslv_lab.dupire import ArbitrageError, VolSurface, dupire_from_calls
from rslv_lab.stats import bs_call


def bs_grid(s0, vol, r, ts, ks):
    return np.array([[bs_call(s0, k, vol, t, r) for k in ks] for t in ts])


def nodes_and_probes(draw, k):
    """k sorted distinct nodes, and probes on, between, inside and outside them."""
    nodes = np.sort(np.array(draw(st.lists(
        st.floats(-5.0, 5.0, allow_subnormal=False), min_size=k, max_size=k, unique=True))))
    inside = draw(st.lists(st.floats(nodes[0], nodes[-1]), min_size=1, max_size=4))
    probes = np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:]), inside,
                             [nodes[0] - 1.0, nodes[-1] + 1.0, -np.inf, np.inf]])
    return nodes, probes


@st.composite
def surface_case(draw):
    ts, t_probes = nodes_and_probes(draw, draw(st.integers(1, 5)))
    xs, x_probes = nodes_and_probes(draw, draw(st.integers(1, 6)))
    values = np.array(draw(st.lists(st.floats(0.005, 2.5), min_size=ts.size * xs.size,
                                    max_size=ts.size * xs.size))).reshape(ts.size, xs.size)
    return VolSurface(ts, xs, values, sigma_low=0.01, sigma_high=2.0), t_probes, x_probes


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSurface:
    def test_constant_everywhere(self):
        s = VolSurface.constant(0.2)
        assert s.sigma(0.3, 1.7) == pytest.approx(0.2)
        np.testing.assert_allclose(s.sigma(0.0, np.linspace(-3, 3, 7)), 0.2)
        assert s.dsigma_dx(0.1, 0.5) == 0.0

    def test_tabulated_flat_grid(self):
        xs = np.linspace(-2, 2, 9)
        s = VolSurface([0.5, 1.0], xs, np.full((2, 9), 0.2))
        assert s.sigma(0.75, 0.33) == pytest.approx(0.2)
        assert s.sigma(2.0, 5.0) == pytest.approx(0.2)  # clamped extrapolation

    def test_clamping_is_idempotent(self):
        s = VolSurface.constant(0.9, sigma_low=0.01, sigma_high=0.5)
        v = s.sigma(0.0, 0.0)
        assert v == pytest.approx(0.5)
        s2 = VolSurface.constant(v, sigma_low=0.01, sigma_high=0.5)
        assert s2.sigma(0.0, 0.0) == pytest.approx(v)

    @settings(max_examples=100, deadline=None)
    @given(surface_case())
    def test_bit_equal_to_interp_in_t_then_in_x(self, case):
        s, t_probes, x_probes = case
        for t in t_probes:
            row = [np.interp(t, s.t, s.values[:, j]) for j in range(s.x.size)]
            ref = np.clip(np.interp(x_probes, s.x, row), 0.01, 2.0)
            assert same_bits(s.sigma(t, x_probes), ref)
            assert same_bits(s.sigma(t, x_probes[0]), ref[0])

    def test_empty_axis_is_refused(self):
        for t, x in (([], [0.0]), ([0.0], [])):
            with pytest.raises(ValueError):
                VolSurface(t, x, np.zeros((len(t), len(x))))

    def test_validation(self):
        with pytest.raises(ValueError):
            VolSurface.constant(-0.1)
        with pytest.raises(ValueError):
            VolSurface.constant(0.2, sigma_low=0.5, sigma_high=0.1)
        with pytest.raises(ValueError):
            VolSurface([1.0, 0.5], [0.0, 1.0], np.full((2, 2), 0.2))


class TestDupireFromCalls:
    def test_flat_vol_recovery(self):
        ts = np.arange(0.25, 1.0001, 0.02)
        ks = np.arange(0.75, 1.3001, 0.02)
        rep = dupire_from_calls(ts, ks, bs_grid(1.0, 0.2, 0.0, ts, ks), r=0.0)
        assert not rep.flagged
        # interior maturities use central time differences
        assert np.abs(rep.surface.values[1:-1] - 0.2).max() <= 0.01

    def test_flat_vol_with_rate(self):
        ts = np.arange(0.25, 1.0001, 0.02)
        ks = np.arange(0.75, 1.3001, 0.02)
        rep = dupire_from_calls(ts, ks, bs_grid(1.0, 0.2, 0.05, ts, ks), r=0.05)
        assert np.abs(rep.surface.values[1:-1] - 0.2).max() <= 0.01

    def test_monotone_dependence_on_level(self):
        for vol, klo, khi in ((0.1, 0.86, 1.14), (0.3, 0.65, 1.45)):
            ts = np.arange(0.25, 1.0001, 0.02)
            ks = np.arange(klo, khi + 1e-9, 0.02)
            rep = dupire_from_calls(ts, ks, bs_grid(1.0, vol, 0.0, ts, ks), r=0.0)
            assert np.abs(rep.surface.values[1:-1] - vol).max() <= 0.01

    def test_butterfly_violation(self):
        ts = np.array([0.5, 1.0])
        ks = np.array([0.9, 1.0, 1.1])
        c = bs_grid(1.0, 0.2, 0.0, ts, ks)
        c[:, 1] = c[:, (0, 2)].mean(axis=1) + 0.01
        with pytest.raises(ArbitrageError) as exc:
            dupire_from_calls(ts, ks, c, r=0.0)
        assert exc.value.nodes

    @staticmethod
    def mixture_grid():
        # exact prices of an arbitrage-free lognormal mixture
        ts = np.linspace(0.05, 0.5, 10)
        ks = np.exp(np.linspace(-1.0, 1.0, 61))
        c = 0.5 * bs_grid(1.0, 0.15, 0.0, ts, ks) + 0.5 * bs_grid(1.0, 0.35, 0.0, ts, ks)
        return ts, ks, c

    def test_rounding_curvature_is_repaired_not_refused(self):
        # deep in the money at t = 0.05 and 0.1, C is intrinsic to the last
        # bit and the three-point second derivative reads down to -8.5e-13
        ts, ks, c = self.mixture_grid()
        rep = dupire_from_calls(ts, ks, c, r=0.0)
        assert {(ts[0], ks[2]), (ts[1], ks[1])} <= set(rep.flagged)
        assert np.all(np.isfinite(rep.surface.values))

    def test_curvature_beyond_rounding_is_refused(self):
        # a dent of 1e-12 in one at-the-money price is still an arbitrage
        ts, ks, c = self.mixture_grid()
        h0, h1 = ks[30] - ks[29], ks[31] - ks[30]
        c[5, 30] = (h1 * c[5, 29] + h0 * c[5, 31]) / (h0 + h1) + 1e-12
        with pytest.raises(ArbitrageError) as exc:
            dupire_from_calls(ts, ks, c, r=0.0)
        assert exc.value.nodes == [(ts[5], ks[30])]

    def test_too_small_grids(self):
        with pytest.raises(ValueError):
            dupire_from_calls([0.5, 1.0], [1.0, 1.1], np.zeros((2, 2)), r=0.0)
        with pytest.raises(ValueError):
            dupire_from_calls([0.5], [0.9, 1.0, 1.1], np.zeros((1, 3)), r=0.0)

    def test_flagged_nodes_are_repaired(self):
        ts = np.arange(0.25, 0.8601, 0.02)
        # wide wings: far-OTM curvature underflows the density floor
        ks = np.concatenate([np.arange(0.7, 1.3001, 0.02), [2.5, 2.52, 2.54]])
        c = bs_grid(1.0, 0.2, 0.0, ts, ks)
        rep = dupire_from_calls(ts, ks, c, r=0.0)
        assert len(rep.flagged) == 10
        assert np.all(np.isfinite(rep.surface.values))
        assert np.all(rep.surface.values >= rep.surface.sigma_low)

    def test_mostly_degenerate_grid_rejected(self):
        ts = np.array([0.5, 0.75, 1.0])
        ks = np.array([0.9, 1.0, 1.1, 1.2])
        c = np.tile(np.maximum(1.0 - ks, 0.0), (3, 1))  # intrinsic only
        with pytest.raises(ArbitrageError):
            dupire_from_calls(ts, ks, c, r=0.0)
