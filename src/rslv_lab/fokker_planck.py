"""P1 Galerkin solvers on a truncated domain for the nonlinear sub-density systems.

Three systems share one linearised backward-Euler stepper:

  * "fbm":  d/dt (v, p) + (v', A_eps(p+) p') = (Qv, p)      (no drift)
  * "rslv": d/dt (v, p) - r (v', p)
            + (v', 1/2 R_eps(p+) s (s + 2 s_x) Lam p) + (v', s^2 A_eps(p+) p') = (Qv, p)
  * "lv":   the scalar analogue of "rslv" (d = 1, A = 1/2, R = 1)

with s = sigma_tilde(t, x); a model without intensities has no (Qv, p).
Diffusion and exchange are treated implicitly with coefficients frozen at
the current iterate; the drift terms are explicit.  The boundary is
zero-flux (natural) on [-L, L], which preserves mass exactly; degrees of
freedom interleave the regime index within each node so every step is one
banded solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .banded import solve_block_tridiag
from .dupire import VolSurface
from .regime_model import (Measure, RegimeModel, a_eps_batch, ratio_r_eps_batch)

__all__ = [
    "SpatialGrid",
    "PDSConfig",
    "Diagnostics",
    "GridSolution",
    "NumericalError",
    "solve_fbm",
    "solve_rslv",
    "solve_lv",
    "l1_grid_distance",
]


class NumericalError(RuntimeError):
    """Linear-solve failure or NaN blow-up, annotated with the step index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform node set on [-L, L] with m nodes and spacing h = 2L/(m-1)."""

    L: float
    m: int

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError("domain half-width must be positive and finite")
        if self.m < 3:
            raise ValueError("need at least three nodes")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.m - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.m)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.m, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


@dataclass(frozen=True)
class PDSConfig:
    """Step size and output cadence for one PDS solve.

    sigma_mollify is the width of the initial heat-kernel mollification,
    finite and non-negative (required positive for atomic data).
    """

    dt: float
    sigma_mollify: float = 0.0
    n_outputs: int = 11
    output_times: tuple | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("time step must be positive")
        if not 0 <= self.sigma_mollify < math.inf:
            raise ValueError("mollification width must be non-negative and finite")


# where a grid step spends its time: the coefficient field, building the
# blocks and the right-hand side, the banded solve, and the bookkeeping
PHASES = ("coefficients", "assemble", "solve", "observe")


@dataclass
class Diagnostics:
    """Per-output-time records plus step-level conservation summaries."""

    masses: np.ndarray          # (k, d) per-state trapezoid masses
    min_value: np.ndarray       # (k,) smallest nodal value
    l2: np.ndarray              # (k, d) per-state L2 norms
    boundary_mass: np.ndarray   # (k,) total density mass in the outermost cells
    max_mass_drift: float       # max over steps of relative total-mass drift
    max_energy_increase: float  # max over steps of the L2-energy increment
    boundary_warning: bool
    n_steps: int
    dt: float
    wall_time: float
    phase_s: dict               # seconds summed over the steps, per PHASES entry


@dataclass
class GridSolution:
    """Space-time tabulation of the sub-density vector on the grid."""

    grid: SpatialGrid
    times: np.ndarray           # (k,)
    p: np.ndarray               # (k, d, m)
    diagnostics: Diagnostics

    @property
    def d(self) -> int:
        return self.p.shape[1]

    def total_density(self, idx: int) -> np.ndarray:
        return self.p[idx].sum(axis=0)

    def at_time(self, t: float) -> np.ndarray:
        return self.p[recorded_index(self.times, t)]


def time_tolerance(t: float) -> float:
    """How far a recorded time may lie from the time t that names it."""
    return 1e-9 + 1e-6 * max(1.0, abs(t))


def recorded_index(times: np.ndarray, t: float) -> int:
    """Index of the entry of ``times`` that t names (KeyError if none does)."""
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) > time_tolerance(t):
        raise KeyError(f"no recorded time near t={t}")
    return k


def step_grid(T: float, dt: float) -> tuple[int, float]:
    """The round(T / dt) equal steps, at least one, that split [0, T]: (n_steps, dt)."""
    n_steps = max(1, int(round(T / dt)))
    return n_steps, T / n_steps


def step_at(t: float, T: float, n_steps: int) -> int:
    """Index k of the step time k * T / n_steps that t names.

    A requested time must be finite, lie in [0, T] and be within
    time_tolerance(t) of a step time; anything else raises ValueError.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"requested time {t} is not finite")
    dt = T / n_steps
    k = int(round(t / dt))
    if not 0 <= k <= n_steps:
        raise ValueError(f"requested time {t} lies outside [0, {T}]")
    if abs(k * dt - t) > time_tolerance(t):
        raise ValueError(f"requested time {t} is not on the step grid (dt = {dt})")
    return k


def _mass_diag(grid: SpatialGrid) -> np.ndarray:
    """Diagonal of the P1 mass matrix; its off-diagonal entries are all h/6."""
    mass_diag = np.full(grid.m, 2.0 * grid.h / 3.0)
    mass_diag[0] = mass_diag[-1] = grid.h / 3.0
    return mass_diag


def _project_initial(mu: Measure, sigma: float, grid: SpatialGrid,
                     alpha: np.ndarray) -> np.ndarray:
    """L2 projection of alpha_i * (mu * h_{sigma^2}) onto the hat basis, shape (m, d).

    Element-wise Gauss-Legendre quadrature of the load vector followed by one
    tridiagonal mass solve, whose result every regime scales by its alpha_i.
    """
    m, h = grid.m, grid.h
    gp, gw = np.polynomial.legendre.leggauss(5)
    tq = 0.5 * (gp + 1.0)
    wq = 0.5 * gw
    pts = grid.x[:-1, None] + h * tq[None, :]
    dens = mu.density_on(pts.ravel(), sigma).reshape(m - 1, tq.size)
    b = np.zeros(m)
    b[:-1] += h * dens @ ((1.0 - tq) * wq)
    b[1:] += h * dens @ (tq * wq)
    u = solve_block_tridiag(_mass_diag(grid)[:, None, None],
                            np.full((m - 1, 1, 1), h / 6.0), b[:, None])
    return u * alpha


def _mass_apply(u: np.ndarray, h: float) -> np.ndarray:
    """(W u) for the P1 mass matrix, acting nodewise on (m, d) arrays."""
    out = np.empty_like(u)
    out[1:-1] = (h / 6.0) * (u[:-2] + 4.0 * u[1:-1] + u[2:])
    out[0] = (h / 6.0) * (2.0 * u[0] + u[1])
    out[-1] = (h / 6.0) * (2.0 * u[-1] + u[-2])
    return out


def _output_steps(T: float, config: PDSConfig):
    n_steps, dt_eff = step_grid(T, config.dt)
    if config.output_times is not None:
        return n_steps, dt_eff, {step_at(t, T, n_steps) for t in config.output_times}
    times = np.linspace(0.0, T, max(2, config.n_outputs))
    steps = np.clip(np.round(times / dt_eff).astype(int), 0, n_steps)
    return n_steps, dt_eff, set(int(s) for s in steps)


def _advance(lam: np.ndarray, alpha: np.ndarray, initial: Measure, grid: SpatialGrid,
             horizon, config: PDSConfig,
             surface: VolSurface | None = None, q_table=None) -> GridSolution:
    """Step the projected initial law to the horizon; a surface adds the drifts."""
    d = lam.size
    m, h = grid.m, grid.h
    x_mid = 0.5 * (grid.x[:-1] + grid.x[1:])
    # regularise A_eps far below any attained sum(lam * p) away from the tails
    eps = 1e-10 * float(lam.min()) / (2.0 * grid.L)
    n_steps, dt, out_steps = _output_steps(horizon.T, config)
    eye = np.eye(d)

    U = _project_initial(initial, config.sigma_mollify, grid, alpha)    # (m, d)

    # the step-invariant parts of the blocks
    mass_blocks = _mass_diag(grid)[:, None, None] * eye[None, :, :]     # (m, d, d)
    mass_off = (h / 6.0) * eye

    # exchange coupling, transposed so rows act on the test-function regime;
    # a constant Q stays one (d, d) block
    q_diag = q_off = None
    if q_table is not None:
        c_mid = np.swapaxes(q_table.value(x_mid), -1, -2)
        q_diag = dt * (h / 3.0) * c_mid
        q_off = dt * (h / 6.0) * c_mid

    tw = grid.trapezoid_weights()
    records, rec_times = [], []
    masses, minvals, l2s, bmasses = [], [], [], []
    max_drift = 0.0
    max_energy_inc = -math.inf
    phase_s = dict.fromkeys(PHASES, 0.0)

    def record(t, wu):
        rec_times.append(t)
        records.append(U.T.copy())
        masses.append(tw @ U)
        minvals.append(float(U.min()))
        l2s.append(np.sqrt(np.maximum(np.einsum("md,md->d", U, wu), 0.0)))
        u_tot = U.sum(axis=1)
        bmasses.append(0.5 * h * (u_tot[0] + u_tot[1] + u_tot[-2] + u_tot[-1]))

    # W U serves the energy, the L2 norms and the next right-hand side
    WU = _mass_apply(U, h)
    record(0.0, WU)
    wall = time.perf_counter()
    total_mass = float((tw @ U).sum())
    energy = float(np.einsum("md,md->", U, WU))

    for step in range(n_steps):
        t0 = time.perf_counter()
        t_n = step * dt
        pm = 0.5 * (U[:-1] + U[1:])                      # (m-1, d)
        # an overflowing state makes the field non-finite without a warning;
        # the finiteness check on the system reports it
        with np.errstate(over="ignore", invalid="ignore"):
            a_e = a_eps_batch(pm, lam, eps)
            if surface is not None:
                s_e = np.asarray(surface.sigma(t_n, x_mid), dtype=float)
                coef = (s_e * s_e)[:, None, None] * a_e
                ds_e = np.asarray(surface.dsigma_dx(t_n, x_mid), dtype=float)
                r_e = ratio_r_eps_batch(pm, lam, eps)
            else:
                coef = a_e
        t1 = time.perf_counter()

        cf = (dt / h) * coef
        diag = mass_blocks.copy()
        diag[:-1] += cf
        diag[1:] += cf
        off = mass_off - cf
        if q_diag is not None:
            diag[:-1] -= q_diag
            diag[1:] -= q_diag
            off -= q_off

        rhs = WU
        if surface is not None:
            c_lev = 0.5 * r_e * s_e * (s_e + 2.0 * ds_e)            # (m-1,)
            b_e = horizon.r - c_lev[:, None] * lam[None, :]         # (m-1, d)
            flux = b_e * pm
            rhs[:-1] -= dt * flux
            rhs[1:] += dt * flux
        if not (np.isfinite(diag).all() and np.isfinite(off).all()
                and np.isfinite(rhs).all()):
            raise NumericalError("the linear system is no longer finite", step + 1)
        t2 = time.perf_counter()

        try:
            U = solve_block_tridiag(diag, off, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"banded solve failed: {exc}", step + 1) from exc
        t3 = time.perf_counter()
        if not np.all(np.isfinite(U)):
            raise NumericalError("solution is no longer finite", step + 1)

        new_mass = float((tw @ U).sum())
        max_drift = max(max_drift, abs(new_mass - total_mass) / max(abs(total_mass), 1e-300))
        total_mass = new_mass
        WU = _mass_apply(U, h)
        new_energy = float(np.einsum("md,md->", U, WU))
        max_energy_inc = max(max_energy_inc, new_energy - energy)
        energy = new_energy

        if (step + 1) in out_steps:
            record((step + 1) * dt, WU)
        t4 = time.perf_counter()
        phase_s["coefficients"] += t1 - t0
        phase_s["assemble"] += t2 - t1
        phase_s["solve"] += t3 - t2
        phase_s["observe"] += t4 - t3

    bm = np.asarray(bmasses)
    boundary_warning = bool(np.any(bm > 1e-4))
    diagnostics = Diagnostics(
        masses=np.asarray(masses),
        min_value=np.asarray(minvals),
        l2=np.asarray(l2s),
        boundary_mass=bm,
        max_mass_drift=max_drift,
        max_energy_increase=max_energy_inc,
        boundary_warning=boundary_warning,
        n_steps=n_steps,
        dt=dt,
        wall_time=time.perf_counter() - wall,
        phase_s=phase_s,
    )
    return GridSolution(grid=grid, times=np.asarray(rec_times),
                        p=np.asarray(records), diagnostics=diagnostics)


def solve_fbm(model: RegimeModel, config: PDSConfig, grid: SpatialGrid,
              horizon, initial: Measure) -> GridSolution:
    """Driftless sub-density system; the model's q, if any, adds the exchange (Qv, p)."""
    return _advance(model.lam, model.alpha, initial, grid, horizon, config,
                    q_table=model.q)


def solve_rslv(model: RegimeModel, config: PDSConfig, grid: SpatialGrid,
               horizon, surface: VolSurface, initial: Measure) -> GridSolution:
    """Full system with rate drift, leverage drift, scaled diffusion and jumps."""
    return _advance(model.lam, model.alpha, initial, grid, horizon, config,
                    surface=surface, q_table=model.q)


def solve_lv(config: PDSConfig, grid: SpatialGrid, horizon,
             surface: VolSurface, initial: Measure) -> GridSolution:
    """Scalar local-volatility equation (the d = 1 reduction of the full system)."""
    one = np.ones(1)
    return _advance(one, one, initial, grid, horizon, config, surface=surface)


def l1_grid_distance(grid: SpatialGrid, f, g) -> float:
    """Trapezoid L1 distance between two nodal functions on the grid."""
    return float(np.trapezoid(np.abs(np.asarray(f) - np.asarray(g)), grid.x))
