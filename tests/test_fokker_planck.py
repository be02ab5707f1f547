"""Grid solvers: heat-kernel oracles, conservation, closure and symmetry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rslv_lab.cli import write_snapshots
from rslv_lab.dupire import VolSurface
from rslv_lab.fokker_planck import (PHASES, PDSConfig, SpatialGrid,
                                    l1_grid_distance, solve_fbm, solve_rslv)
from rslv_lab.regime_model import (HorizonConfig, IntensityTable, Measure,
                                   RegimeModel)


def gaussian(x, var):
    return np.exp(-x * x / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def model_14(q=None):
    return RegimeModel(lam=[1.0, 4.0], alpha=[0.5, 0.5], q=q)


SYM_Q = IntensityTable(rates=np.array([[0.0, 1.0], [1.0, 0.0]]))
LV = RegimeModel(lam=[1.0], alpha=[1.0])     # one regime: the scalar LV equation


class TestMollify:
    def test_point_mass_rows(self):
        grid = SpatialGrid(L=7.0, m=701)
        dens = Measure.point(0.0).density_on(grid.x, 0.1)
        np.testing.assert_allclose(dens, gaussian(grid.x, 0.01), atol=1e-12)
        assert grid.trapezoid_weights() @ dens == pytest.approx(1.0, abs=1e-6)

    def test_tabulated_identity_without_mollification(self):
        grid = SpatialGrid(L=2.0, m=41)
        dens = np.maximum(1.0 - np.abs(grid.x), 0.0)
        mu = Measure.tabulated(grid.x, dens)
        np.testing.assert_allclose(mu.density_on(grid.x, 0.0), dens, atol=0)

    def test_atom_needs_width(self):
        grid = SpatialGrid(L=2.0, m=41)
        with pytest.raises(ValueError):
            Measure.point(0.0).density_on(grid.x, 0.0)


class TestFbmSolver:
    def test_equal_levels_reduce_to_heat(self):
        model = RegimeModel(lam=[2.0, 2.0], alpha=[0.3, 0.7])
        grid = SpatialGrid(L=6.0, m=301)
        cfg = PDSConfig(dt=1e-3, sigma_mollify=0.3, n_outputs=6)
        sol = solve_fbm(model, cfg, grid, HorizonConfig(T=0.5), Measure.point(0.0))
        for k, t in enumerate(sol.times):
            if t == 0:
                continue
            for i, a in enumerate(model.alpha):
                ref = a * gaussian(grid.x, 0.09 + t)
                assert l1_grid_distance(grid, sol.p[k, i], ref) <= 5e-3

    def test_sum_tracks_heat_kernel(self):
        grid = SpatialGrid(L=6.0, m=301)
        cfg = PDSConfig(dt=1e-3, sigma_mollify=0.3, n_outputs=6)
        sol = solve_fbm(model_14(), cfg, grid, HorizonConfig(T=0.5), Measure.point(0.0))
        worst = max(l1_grid_distance(grid, sol.total_density(k), gaussian(grid.x, 0.09 + t))
                    for k, t in enumerate(sol.times) if t > 0)
        assert worst <= 5e-3
        assert sol.diagnostics.min_value.min() >= -1e-8

    def test_per_state_mass_conservation(self):
        grid = SpatialGrid(L=6.0, m=201)
        cfg = PDSConfig(dt=2e-3, sigma_mollify=0.3, n_outputs=5)
        sol = solve_fbm(model_14(), cfg, grid, HorizonConfig(T=0.4), Measure.point(0.0))
        masses = sol.diagnostics.masses
        assert np.abs(masses - masses[0]).max() <= 1e-10
        assert sol.diagnostics.max_mass_drift <= 1e-12

    def test_energy_decay(self):
        grid = SpatialGrid(L=6.0, m=201)
        cfg = PDSConfig(dt=2e-3, sigma_mollify=0.3, n_outputs=5)
        sol = solve_fbm(model_14(), cfg, grid, HorizonConfig(T=0.4), Measure.point(0.0))
        assert sol.diagnostics.max_energy_increase <= 1e-10

    def test_refinement_halves_the_error(self):
        def err(m_nodes, dt):
            grid = SpatialGrid(L=6.0, m=m_nodes)
            cfg = PDSConfig(dt=dt, sigma_mollify=0.3, n_outputs=6)
            sol = solve_fbm(model_14(), cfg, grid, HorizonConfig(T=0.5),
                            Measure.point(0.0))
            return max(l1_grid_distance(grid, sol.total_density(k),
                                        gaussian(grid.x, 0.09 + t))
                       for k, t in enumerate(sol.times) if t > 0)
        assert err(301, 2e-3) / err(601, 1e-3) >= 2.0

    def test_heat_closure_matches_scalar_solver(self):
        # summed system and the scalar solve are the same banded recursion
        grid = SpatialGrid(L=6.0, m=201)
        cfg = PDSConfig(dt=2e-3, sigma_mollify=0.3, n_outputs=5)
        hor = HorizonConfig(T=0.4, r=0.5)
        sol = solve_fbm(model_14(), cfg, grid, HorizonConfig(T=0.4), Measure.point(0.0))
        ref = solve_rslv(LV, cfg, grid, hor, VolSurface.constant(1.0), Measure.point(0.0))
        worst = max(l1_grid_distance(grid, sol.total_density(k), ref.p[k, 0])
                    for k in range(len(sol.times)))
        assert worst <= 1e-10


class TestJumpSolver:
    def test_zero_rates_match_fbm_exactly(self):
        q0 = IntensityTable(rates=np.zeros((2, 2)))
        grid = SpatialGrid(L=6.0, m=201)
        cfg = PDSConfig(dt=2e-3, sigma_mollify=0.3, n_outputs=4)
        hor = HorizonConfig(T=0.3)
        a = solve_fbm(model_14(q=q0), cfg, grid, hor, Measure.point(0.0))
        b = solve_fbm(model_14(), cfg, grid, hor, Measure.point(0.0))
        np.testing.assert_array_equal(a.p, b.p)

    def test_sum_still_tracks_heat_kernel(self):
        grid = SpatialGrid(L=6.0, m=301)
        cfg = PDSConfig(dt=1e-3, sigma_mollify=0.3, n_outputs=4)
        sol = solve_fbm(model_14(q=SYM_Q), cfg, grid, HorizonConfig(T=0.4),
                        Measure.point(0.0))
        worst = max(l1_grid_distance(grid, sol.total_density(k), gaussian(grid.x, 0.09 + t))
                    for k, t in enumerate(sol.times) if t > 0)
        assert worst <= 5e-3

    def test_exchange_symmetry_with_equal_levels(self):
        # label exchange is a symmetry of the discrete system when the
        # variance levels coincide, so the two rows stay identical
        model = RegimeModel(lam=[2.0, 2.0], alpha=[0.5, 0.5], q=SYM_Q)
        grid = SpatialGrid(L=6.0, m=201)
        cfg = PDSConfig(dt=2e-3, sigma_mollify=0.3, n_outputs=4)
        sol = solve_fbm(model, cfg, grid, HorizonConfig(T=0.3), Measure.point(0.0))
        assert np.abs(sol.p[:, 0] - sol.p[:, 1]).max() <= 1e-12

    def test_total_mass_conserved_under_exchange(self):
        grid = SpatialGrid(L=6.0, m=201)
        cfg = PDSConfig(dt=2e-3, sigma_mollify=0.3, n_outputs=4)
        sol = solve_fbm(model_14(q=SYM_Q), cfg, grid, HorizonConfig(T=0.3),
                        Measure.point(0.0))
        total = sol.diagnostics.masses.sum(axis=1)
        assert np.abs(total - total[0]).max() <= 1e-10


class TestRslvAndLv:
    def test_sum_matches_scalar_solver(self):
        grid = SpatialGrid(L=6.0, m=301)
        hor = HorizonConfig(T=0.5, r=0.02)
        surf = VolSurface.constant(0.3)
        cfg = PDSConfig(dt=1e-3, sigma_mollify=0.3, n_outputs=5)
        sol = solve_rslv(model_14(q=SYM_Q), cfg, grid, hor, surf, Measure.point(0.0))
        ref = solve_rslv(LV, cfg, grid, hor, surf, Measure.point(0.0))
        worst = max(l1_grid_distance(grid, sol.total_density(k), ref.p[k, 0])
                    for k in range(len(sol.times)))
        assert worst <= 1e-8

    def test_lv_heat_reduction_with_matching_rate(self):
        # sigma = 1 with r = 1/2 cancels the drift entirely
        grid = SpatialGrid(L=6.0, m=301)
        cfg = PDSConfig(dt=1e-3, sigma_mollify=0.3, n_outputs=5)
        sol = solve_rslv(LV, cfg, grid, HorizonConfig(T=0.5, r=0.5),
                         VolSurface.constant(1.0), Measure.point(0.0))
        worst = max(l1_grid_distance(grid, sol.p[k, 0], gaussian(grid.x, 0.09 + t))
                    for k, t in enumerate(sol.times) if t > 0)
        assert worst <= 5e-3

    def test_lv_positive_in_the_interior(self):
        grid = SpatialGrid(L=6.0, m=301)
        cfg = PDSConfig(dt=1e-3, sigma_mollify=0.05,
                        output_times=(0.05, 0.2, 0.4))
        sol = solve_rslv(LV, cfg, grid, HorizonConfig(T=0.4, r=0.0),
                         VolSurface.constant(1.0), Measure.point(0.0))
        assert sol.p[:, 0, 30:-30].min() > 0.0

    def test_tabulated_surface_drift_terms(self):
        # x-dependent sigma exercises the derivative term in the drift
        grid = SpatialGrid(L=6.0, m=301)
        xs = np.linspace(-6.0, 6.0, 25)
        vals = 0.2 + 0.05 * np.tanh(xs)[None, :]
        surf = VolSurface([0.0, 1.0], xs, np.vstack([vals, vals]))
        cfg = PDSConfig(dt=1e-3, sigma_mollify=0.3, n_outputs=4)
        sol = solve_rslv(LV, cfg, grid, HorizonConfig(T=0.4, r=0.01), surf, Measure.point(0.0))
        total = sol.diagnostics.masses.sum(axis=1)
        assert np.abs(total - total[0]).max() <= 1e-10
        assert sol.diagnostics.min_value.min() >= -1e-8


class TestThreeRegimes:
    def test_x_dependent_exchange_keeps_the_heat_marginal(self):
        # the summed density solves the heat equation regardless of how the
        # bounded intensities vary with x
        xs = np.linspace(-6, 6, 13)
        rates = np.zeros((13, 3, 3))
        for k, xv in enumerate(xs):
            w = 0.5 + 0.4 * np.tanh(xv)
            rates[k] = [[0, w, 0.3], [w, 0, 0.2], [0.1, 0.3, 0]]
        q = IntensityTable(rates=rates, x=xs)
        model = RegimeModel(lam=[0.5, 1.0, 3.0], alpha=[0.3, 0.3, 0.4], q=q)
        grid = SpatialGrid(L=6.0, m=241)
        cfg = PDSConfig(dt=1e-3, sigma_mollify=0.3, n_outputs=4)
        sol = solve_fbm(model, cfg, grid, HorizonConfig(T=0.4),
                        Measure.point(0.0))
        worst = max(l1_grid_distance(grid, sol.total_density(k),
                                     gaussian(grid.x, 0.09 + t))
                    for k, t in enumerate(sol.times) if t > 0)
        assert worst <= 5e-3
        total = sol.diagnostics.masses.sum(axis=1)
        assert np.abs(total - total[0]).max() <= 1e-10

        surf = VolSurface.constant(0.3)
        hor = HorizonConfig(T=0.4, r=0.015)
        solr = solve_rslv(model, cfg, grid, hor, surf, Measure.point(0.0))
        ref = solve_rslv(LV, cfg, grid, hor, surf, Measure.point(0.0))
        closure = max(l1_grid_distance(grid, solr.total_density(k), ref.p[k, 0])
                      for k in range(len(solr.times)))
        assert closure <= 1e-8


class TestOutputs:
    def test_snapshot_files(self, tmp_path):
        grid = SpatialGrid(L=4.0, m=81)
        cfg = PDSConfig(dt=5e-3, sigma_mollify=0.3, n_outputs=3)
        sol = solve_fbm(model_14(), cfg, grid, HorizonConfig(T=0.2), Measure.point(0.0))
        meta = write_snapshots(sol, tmp_path, np.zeros((3, grid.m)), "fbm")
        assert len(meta["snapshots"]) == 3
        first = tmp_path / meta["snapshots"][0]["file"]
        header = first.read_text().splitlines()[0]
        assert header == "x,p_1,p_2,sum,heat_ref"

    def test_phase_times(self, tmp_path):
        grid = SpatialGrid(L=4.0, m=81)
        cfg = PDSConfig(dt=5e-3, sigma_mollify=0.3, n_outputs=3)
        sol = solve_rslv(model_14(q=SYM_Q), cfg, grid, HorizonConfig(T=0.2, r=0.01),
                         VolSurface.constant(0.3), Measure.point(0.0))
        diag = sol.diagnostics
        assert tuple(diag.phase_s) == PHASES
        assert all(v > 0.0 for v in diag.phase_s.values())
        assert sum(diag.phase_s.values()) <= diag.wall_time
        meta = write_snapshots(sol, tmp_path, np.zeros((3, grid.m)), "rslv")
        assert meta["diagnostics"]["phase_s"] == diag.phase_s

    def test_step_minimum_sees_the_undershoot_between_outputs(self, tmp_path):
        # a sharp start undershoots within its first steps and has recovered
        # by the one output at T
        grid, horizon = SpatialGrid(L=3.0, m=601), HorizonConfig(T=0.05)
        sols = [solve_fbm(model_14(), PDSConfig(dt=1e-3, sigma_mollify=0.02, output_times=t),
                          grid, horizon, Measure.point(0.0))
                for t in ((0.05,), tuple(k * 1e-3 for k in range(51)))]
        every = sols[1].diagnostics.min_value.min()
        diag = sols[0].diagnostics
        assert every < -1e-3 < diag.min_value.min()
        assert diag.step_min_value == sols[1].diagnostics.step_min_value == every
        meta = write_snapshots(sols[0], tmp_path, np.zeros((len(sols[0].times), grid.m)),
                               "fbm")
        assert meta["diagnostics"]["step_min_value"] == every

    def test_record_diagnostics_are_read_off_the_records(self):
        # d = 3 with x-dependent Q and a tabulated surface; an atom near the
        # edge puts mass in the outermost cells
        grid = SpatialGrid(L=4.0, m=81)
        xs = np.linspace(-4.0, 4.0, 5)
        rates = np.array([[[0, 1 + 0.2 * k, 0.5], [0.3, 0, 1.0], [2.0, 0.1 * k, 0]]
                          for k in range(xs.size)], dtype=float)
        model = RegimeModel(lam=[0.5, 1.0, 3.0], alpha=[0.2, 0.3, 0.5],
                            q=IntensityTable(rates=rates, x=xs))
        sx = np.linspace(-4.0, 4.0, 9)
        values = 0.3 + 0.05 * np.sin(sx)[None, :] + np.array([[0.0], [0.1]])
        surf = VolSurface([0.0, 0.2], sx, values)
        cfg = PDSConfig(dt=1e-2, sigma_mollify=0.3, output_times=(0.0, 0.05, 0.1, 0.2))
        sol = solve_rslv(model, cfg, grid, HorizonConfig(T=0.2, r=0.02), surf,
                         Measure([-3.2, 0.5], [0.4, 0.6]))
        diag, p, h, m = sol.diagnostics, sol.p, grid.h, grid.m
        np.testing.assert_allclose(sol.times, [0.0, 0.05, 0.1, 0.2], rtol=0, atol=1e-15)
        # the P1 mass matrix on [-L, L] with natural boundaries
        W = (h / 6.0) * (np.diag(np.r_[2.0, np.full(m - 2, 4.0), 2.0])
                         + np.eye(m, k=1) + np.eye(m, k=-1))
        tot = p.sum(axis=1)
        expected = {
            "masses": np.trapezoid(p, grid.x, axis=2),
            "min_value": p.min(axis=(1, 2)),
            "l2": np.sqrt(np.einsum("kdi,ij,kdj->kd", p, W, p)),
            "boundary_mass": 0.5 * h * (tot[:, 0] + tot[:, 1] + tot[:, -2] + tot[:, -1]),
        }
        for name, value in expected.items():
            assert getattr(diag, name).shape == value.shape
            np.testing.assert_allclose(getattr(diag, name), value, rtol=1e-12, err_msg=name)
        assert diag.boundary_mass.max() > 1e-4 and diag.boundary_warning


@st.composite
def generated_solve(draw):
    """A model, initial law and grid for a few steps of one of the three solvers."""
    d = draw(st.integers(2, 5))
    lam = draw(st.lists(st.floats(0.2, 5.0), min_size=d, max_size=d))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)))
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0)
    q_kind = draw(st.sampled_from(["none", "constant", "tabulated"]))
    q = None
    if q_kind == "constant":
        q = IntensityTable(rates=np.reshape(draw(st.lists(rate, min_size=d * d,
                                                          max_size=d * d)), (d, d)))
    elif q_kind == "tabulated":
        k = draw(st.integers(2, 4))
        nodes = np.sort(draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k,
                                      unique=True)))
        rates = np.reshape(draw(st.lists(rate, min_size=k * d * d, max_size=k * d * d)),
                           (k, d, d))
        q = IntensityTable(rates=rates, x=nodes)
    model = RegimeModel(lam=lam, alpha=w / w.sum(), q=q)
    init_kind = draw(st.sampled_from(["point", "mixture", "tabulated"]))
    centre = st.floats(-1.5, 1.5)
    if init_kind == "point":
        initial = Measure.point(draw(centre))
    elif init_kind == "mixture":
        xs = draw(st.lists(centre, min_size=1, max_size=4))
        initial = Measure(xs, np.full(len(xs), 1.0 / len(xs)))
    else:
        xs = np.linspace(-1.5, 1.5, draw(st.integers(3, 9)))
        dens = draw(st.lists(st.floats(0.0, 2.0), min_size=xs.size, max_size=xs.size))
        initial = Measure.tabulated(xs, np.asarray(dens) + 0.1)
    solver = draw(st.sampled_from(["plain", "rslv"]))
    grid = SpatialGrid(L=4.0, m=draw(st.integers(21, 101)))
    return model, initial, grid, solver


@settings(max_examples=25, deadline=None)
@given(generated_solve(), st.floats(0.15, 0.5), st.floats(0.0, 0.05))
def test_generated_models_conserve_mass(case, vol, r):
    model, initial, grid, solver = case
    cfg = PDSConfig(dt=1e-3, sigma_mollify=0.3, n_outputs=2)
    horizon = HorizonConfig(T=3e-3, r=r)
    if solver == "rslv":
        sol = solve_rslv(model, cfg, grid, horizon, VolSurface.constant(vol), initial)
    else:
        sol = solve_fbm(model, cfg, grid, horizon, initial)
    assert sol.p.shape == (2, model.lam.size, grid.m)
    assert np.isfinite(sol.p).all()
    assert sol.diagnostics.max_mass_drift <= 1e-12
    # the projected start splits one law among the regimes by alpha
    start = sol.diagnostics.masses[0]
    np.testing.assert_allclose(start, model.alpha * start.sum(), rtol=1e-12)
