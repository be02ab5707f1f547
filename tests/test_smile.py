"""Calibration to a smile: the solvers against an exact lognormal-mixture oracle.

A mixture of two Black-Scholes laws (Brigo & Mercurio, Int. J. Theor. Appl.
Finance 5, 2002) has closed-form calls C(t, K) = sum_j w_j BS(1, K, s_j, t)
and local variance

    sigma^2(t, x) = sum_j w_j s_j^2 phi_j(t, x) / sum_j w_j phi_j(t, x),

with phi_j the N(-s_j^2 t / 2, s_j^2 t) log-price density.  Its surface
depends on t and has a nonzero x-derivative, so these tests see the surface's
time argument and the s_x term of the leverage drift, which a flat surface
cannot.  The runs start at T0 from the mixture's own log-price density and
read the surface in shifted time t - T0; the prices are those of maturity
T0 + T.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from rslv_lab import cli
from rslv_lab.dupire import VolSurface
from rslv_lab.fokker_planck import PDSConfig, SpatialGrid, solve_rslv
from rslv_lab.particles import SimPlan, price_calls, simulate
from rslv_lab.regime_model import HorizonConfig, IntensityTable, Measure, RegimeModel
from rslv_lab.stats import bs_call

W = np.array([0.5, 0.5])
VOLS = np.array([0.15, 0.35])
T0, T, L = 0.05, 0.45, 4.0
STRIKES = (0.8, 0.9, 1.0, 1.1, 1.2)
# lambda with a large range and a unit-rate Q: the leverage is far from 1
MODEL = RegimeModel(lam=[0.25, 4.0], alpha=[0.5, 0.5],
                    q=IntensityTable(rates=np.array([[0.0, 1.0], [1.0, 0.0]])))
# the paper's final object, intensities that depend on the spot (test_switching's
# q(x): no switching for x <= 0, rising to q12 = 4, q21 = 1 at x = 0.5), and the
# one-regime model, which is Dupire's local-volatility model itself
MODELS = {"lv": RegimeModel(lam=[1.0], alpha=[1.0]),
          "rslv": MODEL,
          "rslv-spot-q": replace(MODEL, q=IntensityTable(
              rates=[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 4.0], [1.0, 0.0]]], x=[0.0, 0.5]))}
# 41 x 241 surface nodes, m = 1201, dt = 1e-3: every model measured a
# largest price error of 2.7e-4, set by the x spacing of the surface (4.3e-5
# on 41 x 961 nodes); the bound is three times that
GRID_TOL = 8e-4
# chosen before the first run, never to be changed to make the test pass
SEED = 7
Z_TOL = 3.0
# dupire-build on 81 log-strikes in [-0.5, 0.5] x 19 maturities, then
# solve-rslv on the one-regime model at m = 1201, dt = 1e-3: largest price
# error 5.2e-5 (1.0e-4 on 41 x 19, 1.5e-5 on 161 x 37); the bound is three
# times that
CLI_TOL = 1.5e-4


def log_phi(t, x):
    """log phi_j(t, x) for each component, shape (len(x), 2)."""
    var = VOLS * VOLS * t
    x = np.asarray(x, dtype=float)[:, None]
    return -(x + 0.5 * var) ** 2 / (2.0 * var) - 0.5 * np.log(2.0 * np.pi * var)


def mixture_density(t, x):
    return np.exp(log_phi(t, x)) @ W


def local_vol(t, x):
    # weights shifted by the row maximum, so the far tails do not underflow to 0/0
    lp = log_phi(t, x)
    e = W * np.exp(lp - lp.max(axis=1, keepdims=True))
    return np.sqrt((e @ (VOLS * VOLS)) / e.sum(axis=1))


def exact_calls():
    return np.array([W @ [bs_call(1.0, k, s, T0 + T) for s in VOLS] for k in STRIKES])


@pytest.fixture(scope="module")
def smile():
    """The surface in shifted time and the start at T0, on 41 x 241 nodes."""
    ts = np.linspace(0.0, T, 41)
    xs = np.linspace(-L, L, 241)
    surface = VolSurface(ts, xs, np.array([local_vol(T0 + t, xs) for t in ts]))
    x0 = np.linspace(-L, L, 1201)
    return surface, Measure.tabulated(x0, mixture_density(T0, x0))


def grid_calls(model, surface, initial):
    """Calls at T0 + T from the grid solve of ``model`` at m = 1201, dt = 1e-3."""
    grid = SpatialGrid(L=L, m=1201)
    cfg = PDSConfig(dt=1e-3, sigma_mollify=0.0, n_outputs=2)
    sol = solve_rslv(model, cfg, grid, HorizonConfig(T=T), surface, initial)
    assert sol.times[-1] == pytest.approx(T)
    payoff = np.maximum(np.exp(grid.x)[None, :] - np.array(STRIKES)[:, None], 0.0)
    return payoff @ (grid.trapezoid_weights() * sol.total_density(-1))


def particle_z(model, surface, initial, reference):
    """z of N = 5e4 particles' calls at T0 + T against ``reference``, seed SEED."""
    plan = SimPlan(dt=1e-3, n_particles=50_000, checkpoints=(T,), seed=SEED)
    res = simulate(model, plan, HorizonConfig(T=T), initial=initial, surface=surface)
    rows = price_calls(res.X[-1], STRIKES, r=0.0, T=T)
    return [(price - ref) / se for (_, price, se), ref in zip(rows, reference)]


@pytest.mark.parametrize("model", MODELS)
def test_grid_prices_match_the_mixture(smile, model):
    err = np.abs(grid_calls(MODELS[model], *smile) - exact_calls())
    assert err.max() <= GRID_TOL, err


def test_particle_prices_match_the_mixture(smile):
    z = particle_z(MODEL, *smile, exact_calls())
    assert max(abs(v) for v in z) <= Z_TOL, z


def test_spot_dependent_q_particle_prices_match_the_mixture(smile):
    z = particle_z(MODELS["rslv-spot-q"], *smile, exact_calls())
    assert max(abs(v) for v in z) <= Z_TOL, z


def test_lv_particles_match_the_lv_grid(smile):
    """The one-regime particles against the one-regime grid on the same surface:
    the particles' drift and leverage on a t- and x-dependent surface, without
    regime noise (z measured at (0.24, 0.01, -0.19, -0.54, -0.70))."""
    lv = MODELS["lv"]
    z = particle_z(lv, *smile, grid_calls(lv, *smile))
    assert max(abs(v) for v in z) <= Z_TOL, z


def test_dupire_build_then_solve_lv_through_the_cli(tmp_path):
    """The exact calls, at maturities measured from T0, through dupire-build
    and then solve-rslv on the one-regime model from the mixture's start,
    priced from the last snapshot."""
    ts = np.linspace(T / 19, T, 19).tolist()
    ks = np.exp(np.linspace(-0.5, 0.5, 81)).tolist()
    rows = [(t, k, float(W @ [bs_call(1.0, k, s, T0 + t) for s in VOLS]))
            for t in ts for k in ks]
    calls = tmp_path / "calls.csv"
    calls.write_text("t,K,C\n" + "".join(f"{t!r},{k!r},{c!r}\n" for t, k, c in rows))
    assert cli.main(["dupire-build", str(calls), "--out", str(tmp_path / "surface.json")]) == 0
    x0 = np.linspace(-L, L, 1201)
    config = {"model": {"lambda": [1.0], "alpha": [1.0]},
              "horizon": {"T": T}, "grid": {"L": L, "m": 1201},
              "pds": {"dt": 1e-3, "n_outputs": 2},
              "initial": {"kind": "tabulated", "x": x0.tolist(),
                          "density": mixture_density(T0, x0).tolist()},
              "surface": {"file": "surface.json"}, "output_dir": str(tmp_path / "out")}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["solve-rslv", str(tmp_path / "config.json")]) == 0
    meta = json.loads((tmp_path / "out" / "rslv_metadata.json").read_text())
    assert meta["times"][-1] == pytest.approx(T)
    snap = np.genfromtxt(tmp_path / "out" / meta["snapshots"][-1]["file"],
                         delimiter=",", names=True)
    prices = [np.trapezoid(np.maximum(np.exp(snap["x"]) - k, 0.0) * snap["sum"], snap["x"])
              for k in STRIKES]
    err = np.abs(np.array(prices) - exact_calls())
    assert err.max() <= CLI_TOL, err
