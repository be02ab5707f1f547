"""Regime switching against the exact law of Y, and the two solvers against each other.

For a constant Q, Y is a Markov chain on its own, so P(Y_t = i) = (alpha e^{tQ})_i
whatever lam and X do: the grid's per-regime masses and the particles'
occupancy must both match it.  A constant Q is the one-node table, and each
check also runs the same Q tabulated at two nodes.  A spot-dependent q(x) has
no closed form, but both solvers discretise the same law from the same start,
so their per-regime masses must agree.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from rslv_lab.fokker_planck import PDSConfig, SpatialGrid, solve_fbm
from rslv_lab.particles import SimPlan, simulate
from rslv_lab.regime_model import HorizonConfig, IntensityTable, Measure, RegimeModel

# (lam, alpha, off-diagonal rates): a non-stationary alpha and an asymmetric Q
D2 = ([1.0, 4.0], [0.8, 0.2], [[0.0, 3.0], [0.5, 0.0]])
D3 = ([1.0, 2.0, 4.0], [0.7, 0.2, 0.1],
      [[0.0, 2.0, 0.5], [0.3, 0.0, 1.0], [1.5, 0.2, 0.0]])
TIMES = (0.1, 0.25, 0.5)


def intensities(off, nodes):
    """The constant Q of ``off`` as the one-node table, or tabulated at two nodes."""
    if nodes == 1:
        return IntensityTable(rates=off)
    return IntensityTable(rates=[off, off], x=[-1.0, 1.0])


def exact_law(model, times):
    """alpha e^{tQ} at each of ``times``: shape (len(times), d)."""
    return np.array([model.alpha @ expm(t * model.q.rates[0]) for t in times])


@pytest.mark.parametrize("nodes", [1, 2])
@pytest.mark.parametrize("case,bound", [(D2, 1.25e-3), (D3, 8.5e-4)], ids=["d2", "d3"])
def test_grid_masses_follow_the_chain(case, bound, nodes):
    # backward Euler on the exchange is O(dt): 4.2e-4 (d = 2) and 2.9e-4
    # (d = 3) at dt = 1e-3; the bounds are about 3x those
    lam, alpha, off = case
    model = RegimeModel(lam=lam, alpha=alpha, q=intensities(off, nodes))
    cfg = PDSConfig(dt=1e-3, sigma_mollify=0.3, output_times=(0.0,) + TIMES)
    sol = solve_fbm(model, cfg, SpatialGrid(L=6.0, m=301), HorizonConfig(T=0.5),
                    Measure.point(0.0))
    err = np.abs(sol.diagnostics.masses - exact_law(model, sol.times)).max()
    assert err <= bound


@pytest.mark.parametrize("nodes", [1, 2])
def test_particle_occupancy_follows_the_chain(nodes):
    lam, alpha, off = D3
    model = RegimeModel(lam=lam, alpha=alpha, q=intensities(off, nodes))
    n = 20_000
    res = simulate(model, SimPlan(dt=1e-3, n_particles=n, checkpoints=TIMES, seed=5),
                   HorizonConfig(T=0.5))
    p = exact_law(model, res.times)
    z = (res.occupancy - p) / np.sqrt(p * (1.0 - p) / n)
    assert np.abs(z).max() <= 4.0


def test_grid_and_particles_agree_on_a_spot_dependent_q():
    # no switching for x <= 0, rising linearly to q12 = 4, q21 = 1 at x = 0.5
    q = IntensityTable(rates=[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 4.0], [1.0, 0.0]]],
                       x=[0.0, 0.5])
    model = RegimeModel(lam=[1.0, 4.0], alpha=[0.5, 0.5], q=q)
    # the same tabulated N(0, 0.2^2) start for both solvers
    xs = np.linspace(-1.2, 1.2, 241)
    start = Measure.tabulated(xs, np.exp(-xs * xs / 0.08) / math.sqrt(0.08 * math.pi))
    T, n = 0.25, 20_000
    sol = solve_fbm(model, PDSConfig(dt=1e-3, output_times=(T,)), SpatialGrid(L=4.0, m=301),
                    HorizonConfig(T=T), start)
    res = simulate(model, SimPlan(dt=1e-3, n_particles=n, checkpoints=(T,), seed=11),
                   HorizonConfig(T=T), start)
    p = sol.diagnostics.masses[-1, 0]
    z = (res.occupancy[-1, 0] - p) / math.sqrt(p * (1.0 - p) / n)
    assert abs(z) <= 4.0
    assert p < 0.45                              # regime 1 has lost mass to regime 2
