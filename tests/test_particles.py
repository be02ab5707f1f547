"""Particle simulator: determinism, kernel regression, thinning and pricing."""

import math
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rslv_lab import particles
from rslv_lab.fokker_planck import NumericalError, step_grid
from rslv_lab.dupire import VolSurface
from rslv_lab.particles import (PHASES, SimPlan, _leaving_bound, _switch_table,
                                _thinning, cond_expect_f2, init_ensemble, price_calls,
                                simulate)
from rslv_lab.regime_model import (HorizonConfig, IntensityTable, Measure,
                                   RegimeModel)
from rslv_lab.stats import bs_call

SYM_Q = IntensityTable(rates=np.array([[0.0, 1.0], [1.0, 0.0]]))


def model_14(q=None):
    return RegimeModel(lam=[1.0, 4.0], alpha=[0.5, 0.5], q=q)


class TestCondExpect:
    def test_single_regime_is_constant(self):
        model = model_14()
        plan = SimPlan(dt=1e-2, n_particles=500, seed=1)
        x, y = init_ensemble(model, plan)
        y[:] = 1
        x[:] = np.linspace(-1, 1, x.size)
        reg = cond_expect_f2(x, y, plan, model)
        np.testing.assert_allclose(reg(np.linspace(-1, 1, 7)), 4.0, atol=1e-12)

    @pytest.mark.parametrize("level", [0.3, 0.7])
    def test_estimate_stays_inside_the_levels(self, level):
        # every particle in one regime: the estimate is that level up to
        # rounding, which moved some node outside [0.3, 0.7] in each of 200
        # draws when values were not clamped
        model = RegimeModel(lam=[0.3, 0.7], alpha=[0.5, 0.5])
        plan = SimPlan(dt=1e-2, n_particles=1000)
        rng = np.random.default_rng(4)
        y = np.full(plan.n_particles, model.lam.tolist().index(level))
        for _ in range(10):
            x = rng.standard_normal(plan.n_particles)
            reg = cond_expect_f2(x, y, plan, model)
            for est in (reg.values, reg.at_samples):
                assert 0.3 <= est.min() and est.max() <= 0.7

    def test_equal_levels_are_constant(self):
        model = RegimeModel(lam=[2.0, 2.0], alpha=[0.5, 0.5])
        plan = SimPlan(dt=1e-2, n_particles=500, seed=1)
        x, y = init_ensemble(model, plan)
        x[:] = np.linspace(-1, 1, x.size)
        reg = cond_expect_f2(x, y, plan, model)
        np.testing.assert_allclose(reg(np.array([-0.5, 0.0, 0.5])), 2.0, atol=1e-12)

    def test_independent_regimes_give_the_mean(self):
        # X and Y independent: E[f^2(Y)|X] = (1+4)/2 everywhere; check the
        # estimate within three kernel-weighted standard errors plus no bias
        model = model_14()
        plan = SimPlan(dt=1e-2, n_particles=100_000, seed=5)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(plan.n_particles)
        y = rng.integers(0, 2, plan.n_particles)
        reg = cond_expect_f2(x, y, plan, model)
        sd_f2 = model.lam[y].std()
        delta = plan.bandwidth_c * x.std() * plan.n_particles ** (-0.2)
        inner = (reg.grid > -2.0) & (reg.grid < 2.0)
        # effective kernel mass per node from the same binning the estimator uses
        dens = np.exp(-reg.grid[inner] ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
        n_eff = plan.n_particles * dens * delta * math.sqrt(math.pi)
        se = sd_f2 / np.sqrt(n_eff)
        assert np.all(np.abs(reg.values[inner] - 2.5) <= 3.0 * se + 1e-3)

    def test_kernel_wider_than_the_grid(self):
        # at c = 1000 the kernel spans 599 nodes, more than the grid's 400, and
        # every node sees all particles with nearly equal weights: the global mean
        model = model_14()
        plan = SimPlan(dt=1e-2, n_particles=2000, bandwidth_c=1e3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(plan.n_particles)
        y = rng.integers(0, 2, plan.n_particles)
        reg = cond_expect_f2(x, y, plan, model)
        assert reg.values.shape == reg.grid.shape == (particles.REGRESSION_NODES,)
        np.testing.assert_allclose(reg.values, model.lam[y].mean(), rtol=1e-3)

    def test_nodes_without_kernel_mass_take_the_mean(self):
        # two clusters at -1 and 1, and a kernel that reaches 6 bandwidths =
        # 0.3: the nodes between them see no mass and read the ensemble mean
        model = model_14()
        plan = SimPlan(dt=1e-2, n_particles=1000, bandwidth_c=0.2)
        rng = np.random.default_rng(6)
        x = np.repeat([-1.0, 1.0], 500) + 1e-3 * rng.standard_normal(1000)
        y = rng.integers(0, 2, 1000)
        reg = cond_expect_f2(x, y, plan, model)
        middle = np.abs(reg.grid) < 0.5
        assert middle.sum() > 100
        assert np.all(reg.values[middle] == model.lam[y].mean())

    def test_needs_enough_particles(self):
        model = model_14()
        plan = SimPlan(dt=1e-2, n_particles=100, seed=1)
        x, y = init_ensemble(model, plan)
        with pytest.raises(ValueError):
            cond_expect_f2(x[:50], y[:50], plan, model)

    def test_degenerate_spread_falls_back_to_the_mean(self):
        model = model_14()
        plan = SimPlan(dt=1e-2, n_particles=1000, seed=2)
        x, y = init_ensemble(model, plan)   # all particles at X = 0
        reg = cond_expect_f2(x, y, plan, model)
        expected = model.lam[y].mean()
        assert reg(0.0) == pytest.approx(expected, abs=1e-12)

    def test_non_finite_spread_is_a_floating_point_error(self):
        model = model_14()
        plan = SimPlan(dt=1e-2, n_particles=500, seed=1)
        x, y = init_ensemble(model, plan)
        x[:] = 1e308                       # the mean overflows
        with pytest.raises(FloatingPointError):
            cond_expect_f2(x, y, plan, model)

    def test_spread_below_the_float_spacing_is_a_floating_point_error(self):
        model = model_14()
        plan = SimPlan(dt=1e-2, n_particles=500, seed=1)
        x, y = init_ensemble(model, plan)
        x[:] = 4e28                        # two neighbouring floats: grid nodes coincide
        x[::2] = np.nextafter(4e28, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="float spacing"):
                cond_expect_f2(x, y, plan, model)

    @pytest.mark.parametrize("loc", [1e150, 1e170])
    def test_one_ulp_spread_is_below_the_float_spacing_at_any_location(self, loc):
        # at 1e170 the squared deviations (about 1e308 each) overflow x.std()
        model = model_14()
        plan = SimPlan(dt=1e-2, n_particles=500, seed=1)
        x, y = init_ensemble(model, plan)
        x[:] = loc
        x[::2] = np.nextafter(loc, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="float spacing"):
                cond_expect_f2(x, y, plan, model)

    def test_finite_spread_whose_square_overflows_is_estimated(self):
        model = model_14()
        plan = SimPlan(dt=1e-2, n_particles=500, seed=1)
        x = np.linspace(-1e160, 1e160, plan.n_particles)
        y = np.arange(x.size) % 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reg = cond_expect_f2(x, y, plan, model)
        # x.std() overflows; the estimate reads sd off the span rescaled to [0, 1]
        sd = 2e160 * np.linspace(0.0, 1.0, x.size).std()
        delta = plan.bandwidth_c * sd * x.size ** (-0.2)
        assert reg.grid[0] == pytest.approx(-1e160 - 4.0 * delta, rel=1e-12)
        np.testing.assert_allclose(reg.at_samples, 2.5, rtol=0.02)


class TestStepAndSimulate:
    def test_seed_determinism(self):
        model = model_14()
        plan = SimPlan(dt=1e-2, n_particles=2000, checkpoints=(0.1,), seed=42)
        hor = HorizonConfig(T=0.1)
        a = simulate(model, plan, hor)
        b = simulate(model, plan, hor)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(a.qv, b.qv)

    def test_zero_rates_reproduce_fake_bm_paths(self):
        plan = SimPlan(dt=1e-2, n_particles=2000, checkpoints=(0.1,), seed=9)
        q0 = IntensityTable(rates=np.zeros((2, 2)))
        hor = HorizonConfig(T=0.1)
        a = simulate(model_14(), plan, hor)
        b = simulate(model_14(q=q0), plan, hor)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_constant_f_gives_brownian_increments(self):
        model = RegimeModel(lam=[1.0, 1.0], alpha=[0.5, 0.5])
        plan = SimPlan(dt=1e-2, n_particles=50_000, checkpoints=(1.0,), seed=3)
        res = simulate(model, plan, HorizonConfig(T=1.0))
        x = res.X[-1]
        assert abs(x.var() - 1.0) <= 4.0 * math.sqrt(2.0 / x.size)
        # qv is the deterministic Riemann sum of 1 * dt
        np.testing.assert_allclose(res.qv[-1], 1.0, atol=1e-12)

    def test_initial_qv_slopes(self):
        # from a point mass the first-step normaliser is the ensemble mean,
        # so the qv slopes take exactly two values close to 0.4 and 1.6
        model = model_14()
        plan = SimPlan(dt=1e-3, n_particles=20_000, checkpoints=(0.0, 1e-3), seed=12)
        res = simulate(model, plan, HorizonConfig(T=plan.dt))
        np.testing.assert_array_equal(res.times, [0.0, plan.dt])
        slopes = np.unique(res.qv[1] / plan.dt)
        assert slopes.size == 2
        np.testing.assert_allclose(slopes, [0.4, 1.6], atol=0.02)
        # qv never decreases
        assert np.all(res.qv[1] >= res.qv[0])

    def test_gyongy_self_consistency(self):
        model = model_14()
        n = 10_000
        plan = SimPlan(dt=2e-3, n_particles=n, checkpoints=(0.3,), seed=21)
        res = simulate(model, plan, HorizonConfig(T=0.3))
        band = 5.0 / math.sqrt(n)
        assert np.all(np.abs(res.gyongy_ratio - 1.0) <= band)

    def test_occupancy_under_symmetric_switching(self):
        model = model_14(q=SYM_Q)
        n = 20_000
        plan = SimPlan(dt=5e-3, n_particles=n, checkpoints=(0.25, 0.5, 0.75, 1.0),
                       seed=17)
        res = simulate(model, plan, HorizonConfig(T=1.0))
        assert np.abs(res.occupancy[:, 0] - 0.5).max() <= 4.0 / math.sqrt(n)

    def test_phase_times(self):
        plan = SimPlan(dt=1e-2, n_particles=500, checkpoints=(0.05, 0.1), seed=2)
        start = time.perf_counter()
        res = simulate(model_14(q=SYM_Q), plan, HorizonConfig(T=0.1),
                       surface=VolSurface.constant(0.2))
        wall = time.perf_counter() - start
        assert tuple(res.phase_s) == PHASES
        assert all(v > 0.0 for v in res.phase_s.values())
        assert sum(res.phase_s.values()) <= wall

    def test_thinning_respects_the_step_bound(self):
        fast = IntensityTable(rates=np.array([[0.0, 60.0], [60.0, 0.0]]))
        plan = SimPlan(dt=2e-2, n_particles=500, seed=1)
        with pytest.raises(ValueError):
            simulate(model_14(q=fast), plan, HorizonConfig(T=0.1))

    def test_thinning_bound_is_checked_at_the_step_dt(self):
        # dt = 0.4 on T = 1 steps at T / round(2.5) = 0.5, where
        # dt * (d - 1) * qbar = 1.1: the requested dt alone would pass (0.88)
        q = IntensityTable(rates=np.array([[0.0, 2.2], [2.2, 0.0]]))
        for dt in (0.4, 0.5):
            with pytest.raises(ValueError, match="one-switch thinning"):
                simulate(model_14(q=q), SimPlan(dt=dt, n_particles=500, seed=1),
                         HorizonConfig(T=1.0))

    def test_x_dependent_intensities_switch_only_where_active(self):
        # rates vanish for x < 0 and are 5 for x > 1: start all particles
        # deep on the inactive side and none may switch in one step
        xs = np.array([-10.0, 0.0, 1.0, 10.0])
        rates = np.zeros((4, 2, 2))
        rates[2:, 0, 1] = 5.0
        rates[2:, 1, 0] = 5.0
        q = IntensityTable(rates=rates, x=xs)
        model = model_14(q=q)
        plan = SimPlan(dt=1e-2, n_particles=1000, checkpoints=(0.0, 1e-2), seed=13)
        res = simulate(model, plan, HorizonConfig(T=plan.dt), Measure.point(-5.0))
        np.testing.assert_array_equal(res.Y[1], res.Y[0])

    def test_checkpoint_defaults_to_the_horizon(self):
        res = simulate(model_14(), SimPlan(dt=1e-2, n_particles=500), HorizonConfig(T=0.1))
        assert res.times.tolist() == [0.1]
        assert res.X.shape == (1, 500)

    def test_simulate_checkpoint_access(self):
        plan = SimPlan(dt=1e-2, n_particles=500, checkpoints=(0.05, 0.1), seed=2)
        res = simulate(model_14(), plan, HorizonConfig(T=0.1))
        x, y, qv = res.at_time(0.05)
        assert x.shape == (500,) and y.shape == (500,) and qv.shape == (500,)
        with pytest.raises(KeyError):
            res.at_time(0.07)

    def test_recorded_regimes_are_the_state_plus_one(self):
        # the state counts regimes 0..d-1, like lam and alpha; SimResult.Y
        # alone records them as the paper's 1..d
        rates = np.array([[0.0, 3.0, 1.0], [0.5, 0.0, 2.0], [4.0, 0.2, 0.0]])
        model = RegimeModel(lam=[1.0, 2.0, 4.0], alpha=[0.6, 0.3, 0.1],
                            q=IntensityTable(rates=rates))
        plan = SimPlan(dt=1e-2, n_particles=1000, checkpoints=(0.0, 0.1), seed=5)
        res = simulate(model, plan, HorizonConfig(T=0.1))
        assert np.array_equal(res.Y[0], init_ensemble(model, plan)[1] + 1)
        assert np.unique(res.Y).tolist() == [1, 2, 3]
        np.testing.assert_array_equal(
            res.occupancy[0], np.bincount(res.Y[0] - 1, minlength=3) / plan.n_particles)


FLAT_VOL, FLAT_T, FLAT_R = 0.2, 0.5, 0.05


@pytest.fixture(scope="module")
def flat_rate_run():
    """A calibrated RSLV run on a flat surface with a rate: lam = (0.25, 4), unit Q."""
    model = RegimeModel(lam=[0.25, 4.0], alpha=[0.5, 0.5], q=SYM_Q)
    plan = SimPlan(dt=5e-3, n_particles=20_000, seed=3)
    return simulate(model, plan, HorizonConfig(T=FLAT_T, r=FLAT_R),
                    surface=VolSurface.constant(FLAT_VOL))


class TestFlatSurfaceOracles:
    def test_calls_are_black_scholes_at_the_rate(self, flat_rate_run):
        # z = -0.27, -0.77, -0.05 at seed 3; without r in the drift about -20
        prices = price_calls(flat_rate_run.X[-1], [0.9, 1.0, 1.1], r=FLAT_R, T=FLAT_T)
        for k, price, se in prices:
            assert abs(price - bs_call(1.0, k, FLAT_VOL, FLAT_T, FLAT_R)) <= 4.0 * se

    def test_quadratic_variation_is_the_surface_variance(self, flat_rate_run):
        # E[qv_T] = sigma^2 T, since E[lam_Y / Ehat(X)] = 1; 0.998 at seed 3,
        # about 25 if qv forgets the surface
        ratio = flat_rate_run.qv[-1].mean() / (FLAT_VOL ** 2 * FLAT_T)
        assert abs(ratio - 1.0) <= 0.006


class TestPricing:
    def test_zero_strike_is_discounted_forward(self):
        x = np.log(np.array([1.0, 2.0, 4.0]))
        [(k, price, se)] = price_calls(x, [0.0], r=0.1, T=2.0)
        assert price == pytest.approx(math.exp(-0.2) * (7.0 / 3.0))

    def test_deep_otm_is_negligible(self):
        rng = np.random.default_rng(0)
        x = 0.2 * rng.standard_normal(100_000) - 0.02
        [(k, price, se)] = price_calls(x, [3.0], r=0.0, T=1.0)
        assert price <= 3.0 * max(se, 1e-12)

    def test_needs_maturity_for_raw_samples(self):
        with pytest.raises(TypeError):
            price_calls(np.zeros(10), [1.0], r=0.0)

    @pytest.mark.parametrize("x,r", [(0.0, -1e30), (1e28, 1e30)], ids=["discount", "spot"])
    def test_overflowing_price_is_a_numerical_failure(self, x, r):
        # exp(-r T) overflows in the first case, exp(x) in the second
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="call prices .* are not finite"):
                price_calls(np.full(10, x), [1.0], r=r, T=0.01)


@st.composite
def ensembles(draw):
    """(x, y, plan, model) over d = 2..5, any scale and offset, N >= 100.

    ``kind`` "nodes" moves ten particles onto nodes of the grid that their
    own ensemble builds (the grid moves with them, so the move is repeated
    until it settles); "point" puts every particle at one place, the
    degenerate-spread branch.
    """
    d = draw(st.integers(2, 5))
    n = draw(st.integers(100, 2000))
    scale = draw(st.floats(1e-6, 1e3))
    offset = draw(st.floats(-1e3, 1e3))
    kind = draw(st.sampled_from(["spread", "nodes", "point"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = RegimeModel(lam=np.sort(rng.uniform(0.05, 10.0, d)),
                        alpha=rng.dirichlet(np.ones(d)))
    plan = SimPlan(dt=1e-2, n_particles=n, bandwidth_c=draw(st.floats(0.2, 3.0)))
    x = offset + scale * rng.standard_normal(n)
    y = rng.integers(0, d, n)
    if kind == "point":
        x[:] = offset
    elif kind == "nodes":
        inner = np.argsort(x)[n // 4: n // 4 + 10]
        for _ in range(10):
            grid = cond_expect_f2(x, y, plan, model).grid
            k = np.rint((x[inner] - grid[0]) / (grid[1] - grid[0])).astype(np.int64)
            x[inner] = grid[k]
    return x, y, plan, model


@settings(max_examples=80, deadline=None)
@given(ensembles())
def test_at_samples_is_the_clamped_interpolant(case):
    x, y, plan, model = case
    reg = cond_expect_f2(x, y, plan, model)
    grid, v = reg.grid, reg.values
    if grid.size == 2:      # a degenerate spread: one value everywhere
        assert np.all(reg.at_samples == v[0])
        return
    # the binning's weights, evaluated afresh: w0 * v[i0] + w1 * v[i0 + 1]
    pos = (x - grid[0]) / ((grid[-1] - grid[0]) / (grid.size - 1))
    i0 = np.floor(pos).astype(np.int64)
    w1 = pos - i0
    expected = np.clip((1.0 - w1) * v[i0] + w1 * v[i0 + 1], model.lam_min, model.lam_max)
    assert np.array_equal(reg.at_samples, expected)
    # np.interp brackets x by the rounded nodes instead: the two differ by a
    # few ulps of the position, carried through the slope
    interp = np.clip(np.interp(x, grid, v), model.lam_min, model.lam_max)
    slope = np.abs(np.diff(v) / np.diff(grid)).max()
    scale = np.maximum(np.abs(x), np.abs(grid[[0, -1]]).max())
    ulps = np.abs(reg.at_samples - interp) / (np.finfo(float).eps * (v.max() + slope * scale))
    assert ulps.max() <= 4.0


def thinning_by_full_gather(x, y, model, dt, rng):
    """The reference thinning: an (N, d) rate gather, cumsum and argmax over all."""
    rates = model.q.rates_from(y, x)
    rates = rates.copy()
    rates[np.arange(y.size), y] = 0.0
    cum = np.cumsum(rates * dt, axis=1)
    u = rng.random(y.size)
    switch = u < cum[:, -1]
    if np.any(switch):
        target = np.argmax(u[:, None] < cum, axis=1)
        y = y.copy()
        y[switch] = target[switch]
    return y


def intensity_case(case, d, rng):
    """An IntensityTable of the named shape with off-diagonal rates in [0, 5)."""
    if case == "constant":
        return IntensityTable(rates=rng.uniform(0.0, 5.0, (d, d)))
    if case == "one-node":
        return IntensityTable(rates=rng.uniform(0.0, 5.0, (1, d, d)), x=np.array([0.4]))
    rates = rng.uniform(0.0, 5.0, (4, d, d))
    if case == "zero-row":
        rates[:, 1] = 0.0       # regime 1 never leaves, at any node
    return IntensityTable(rates=rates, x=np.array([-1.0, -0.2, 0.3, 1.0]))


@pytest.mark.parametrize("case", ["constant", "one-node", "tabulated", "zero-row"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_thinning_matches_the_full_gather(d, case):
    rng = np.random.default_rng(d)
    q = intensity_case(case, d, rng)
    model = RegimeModel(lam=np.arange(1.0, d + 1.0), alpha=np.full(d, 1.0 / d), q=q)
    # almost every particle is a candidate
    dt = 0.9 / ((d - 1) * q.qbar)
    bound = _leaving_bound(q, dt)
    n = 4000
    x = rng.standard_normal(n)
    y_ref = rng.integers(0, d, n)
    y = y_ref.copy()
    rng_ref, rng_new = (np.random.Generator(np.random.Philox(7)) for _ in range(2))
    switched = 0
    bound_y = bound[y]
    for _ in range(50):
        before = y.copy()
        y_ref = thinning_by_full_gather(x, y_ref, model, dt, rng_ref)
        cand = _thinning(x, y, q, dt, rng_new.random(n), bound_y)
        assert np.array_equal(y, y_ref)
        # the candidates returned cover every particle that switched, so
        # refreshing bound_y there keeps it bound[y], as simulate does
        assert np.isin(np.flatnonzero(y != before), cand).all()
        bound_y[cand] = bound[y[cand]]
        switched += np.count_nonzero(y != before)
        if case == "zero-row":
            assert np.all(before[y != before] != 1)
        x += 0.2 * rng.standard_normal(n)
    # regime 1 absorbs every particle of a zero row within a few steps
    assert switched > (n // 4 if case == "zero-row" else 50 * n // 10)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_leaving_bound_dominates_every_row_between_the_nodes(d):
    # each node permutes the same rates within a row, so every node has the
    # same leaving probability and a row read between two nodes rounds
    # above it about as often as below
    rng = np.random.default_rng(10 + d)
    base = rng.uniform(0.0, 5.0, (d, d))
    q = IntensityTable(rates=np.stack([rng.permuted(base, axis=1) for _ in range(3)]),
                       x=np.array([-0.5, 0.1, 0.7]))
    dt = 0.9 / ((d - 1) * q.qbar)
    bound = _leaving_bound(q, dt)
    x = rng.uniform(-0.6, 0.8, 100_000)
    rows = rng.integers(0, d, x.size)
    leave = _switch_table(q.rates_from(rows, x), rows, dt)[:, -1]
    assert np.all(leave < bound[rows])


@pytest.mark.parametrize("surface", [None, VolSurface.constant(0.2)], ids=["fbm", "rslv"])
def test_one_node_q_switches_as_the_same_q_at_two_nodes(surface):
    rates = np.array([[0.0, 3.0, 1.0], [0.5, 0.0, 2.0], [4.0, 0.2, 0.0]])
    plan = SimPlan(dt=2e-3, n_particles=2000, checkpoints=(0.1, 0.2), seed=3)
    results = []
    for q in (IntensityTable(rates=rates),
              IntensityTable(rates=np.stack([rates, rates]), x=np.array([-0.3, 0.2]))):
        model = RegimeModel(lam=[1.0, 2.0, 4.0], alpha=[0.6, 0.3, 0.1], q=q)
        results.append(simulate(model, plan, HorizonConfig(T=0.2), surface=surface))
    one, two = results
    assert np.count_nonzero(one.Y[-1] != one.Y[0]) > plan.n_particles // 10
    for name in ("X", "Y", "qv"):
        assert np.array_equal(getattr(one, name), getattr(two, name))


# (model, surface) per dynamics: no uniforms are drawn under the zero Q
DYNAMICS = {
    "fbm": (model_14(), None),
    "rslv": (model_14(q=SYM_Q), VolSurface([0.0, 0.05], [-0.5, 0.5],
                                           [[0.15, 0.25], [0.3, 0.2]])),
    "jump": (model_14(q=IntensityTable(
        rates=np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 4.0], [1.0, 0.0]]]),
        x=np.array([-0.05, 0.05]))), None),
}


@pytest.fixture
def pools(monkeypatch):
    """The executors simulate opens, counted; none may outlive the run."""
    opened = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(particles, "ThreadPoolExecutor", Counted)
    start = threading.active_count()
    yield opened
    assert threading.active_count() == start


@pytest.mark.parametrize("dynamics", list(DYNAMICS))
def test_rerun_under_fast_thread_switching_is_identical(dynamics, pools):
    model, surface = DYNAMICS[dynamics]
    plan = SimPlan(dt=1e-2, n_particles=3000, checkpoints=(0.05, 0.1), seed=31)
    results = []
    interval = sys.getswitchinterval()
    try:
        # switch threads every microsecond, so that a step reading a slot the
        # helper still writes would show
        sys.setswitchinterval(1e-6)
        for _ in range(2):
            start = threading.active_count()
            results.append(simulate(model, plan, HorizonConfig(T=0.1, r=0.02),
                                    surface=surface))
            assert threading.active_count() == start
    finally:
        sys.setswitchinterval(interval)
    assert len(pools) == 2          # each run drew on its own helper thread
    one, two = results
    if dynamics != "fbm":
        assert np.count_nonzero(one.Y[-1] != one.Y[0]) > 0
    for name in ("times", "X", "Y", "qv", "gyongy_ratio", "occupancy"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name


def serial_reference(model, plan, horizon, surface):
    """(X, Y, qv) at T from the step loop written out serially: each step
    regresses model.lam[y], then draws its normals and its uniforms; Y is
    the 0-based y plus one, as SimResult records it."""
    n_steps, dt = step_grid(horizon.T, plan.dt)
    x, y = init_ensemble(model, plan)
    _, gauss_rng, jump_rng = particles._make_rngs(plan.seed)
    bound = _leaving_bound(model.q, dt)
    qv = np.zeros(x.size)
    for n in range(n_steps):
        ratio = model.lam[y] / cond_expect_f2(x, y, plan, model).at_samples
        diff2 = ratio
        if surface is not None:
            s = surface.sigma(n * dt, x)
            diff2 = ratio * s * s
            x += (horizon.r - 0.5 * diff2) * dt
        x += np.sqrt(diff2) * (gauss_rng.normal(size=x.size) * math.sqrt(dt))
        qv += diff2 * dt
        if bound.any():
            _thinning(x, y, model.q, dt, jump_rng.random(x.size), bound[y])
    return x, y + 1, qv


# the checkpoints a run records: the horizon alone, or a step halfway too
CHECKPOINTS = {1: (0.1,), 2: (0.05, 0.1)}


@pytest.mark.parametrize("n_checkpoints", list(CHECKPOINTS))
@pytest.mark.parametrize("dynamics", list(DYNAMICS))
def test_simulate_is_the_serial_step_loop(dynamics, n_checkpoints, pools):
    # the regression must see every switch of the step before, the prefetched
    # draws must be each stream's numbers in step order, and a checkpoint must
    # hold the state of its step, not of a later one
    model, surface = DYNAMICS[dynamics]
    plan = SimPlan(dt=1e-2, n_particles=3000, checkpoints=CHECKPOINTS[n_checkpoints],
                   seed=8)
    res = simulate(model, plan, HorizonConfig(T=0.1, r=0.02), surface=surface)
    assert res.times.tolist() == list(plan.checkpoints)
    for k, tc in enumerate(plan.checkpoints):
        want = serial_reference(model, plan, HorizonConfig(T=tc, r=0.02), surface)
        for got, ref in zip((res.X[k], res.Y[k], res.qv[k]), want):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("n_checkpoints", [1, 2])
def test_numerical_failure_mid_run_leaves_no_thread(n_checkpoints, pools):
    # r = 1e306 moves every particle by 5e304 in the first step; the squares
    # of their deviations from the mean, ulps of about 1e288, overflow the
    # spread at step 2 of 10, while the helper draws that step's numbers; the
    # second case has recorded a checkpoint at step 1 before it fails
    checkpoints = ((0.05,) if n_checkpoints == 2 else ()) + (0.5,)
    start = threading.active_count()
    with pytest.raises(NumericalError, match=r"spread is no longer finite \(step 2\)"):
        simulate(model_14(q=SYM_Q),
                 SimPlan(dt=0.05, n_particles=500, checkpoints=checkpoints, seed=4),
                 HorizonConfig(T=0.5, r=1e306), surface=VolSurface.constant(0.2))
    assert threading.active_count() == start
    assert len(pools) == 1
