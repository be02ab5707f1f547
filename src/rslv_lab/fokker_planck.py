"""P1 Galerkin solvers on a truncated domain for the nonlinear sub-density systems.

Two systems share one linearised backward-Euler stepper:

  * "fbm":  d/dt (v, p) + (v', A_eps(p+) p') = (Qv, p)      (no drift)
  * "rslv": d/dt (v, p) - r (v', p)
            + (v', 1/2 R_eps(p+) s (s + 2 s_x) Lam p) + (v', s^2 A_eps(p+) p') = (Qv, p)

with s = sigma_tilde(t, x); a model without intensities has the zero Q.
The scalar local-volatility equation ("lv") is "rslv" for the one-regime
model, where A = 1/2 and R = 1 (and "fbm" is then the heat equation).
Diffusion and exchange are treated implicitly with coefficients frozen at
the current iterate; the drift terms are explicit.  The boundary is
zero-flux (natural) on [-L, L], which preserves mass exactly; degrees of
freedom interleave the regime index within each node so every step is one
banded solve.

A step is the operator, that banded solve and the observer.  The operator is
the time scheme; it does the "coefficients" and "assemble" work of PHASES, so
a new scheme changes only the operator.  The observer does the "observe" work
(records, conservation bookkeeping) and owns the timers of all four phases.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .banded import solve_block_tridiag
from .dupire import VolSurface
from .regime_model import Measure, RegimeModel, a_eps_batch, ratio_r_eps_batch

__all__ = [
    "SpatialGrid",
    "PDSConfig",
    "Diagnostics",
    "GridSolution",
    "NumericalError",
    "PhaseClock",
    "solve_fbm",
    "solve_rslv",
    "l1_grid_distance",
    "heat_l1_max",
    "heat_reference",
]


class NumericalError(RuntimeError):
    """Linear-solve failure or NaN blow-up, annotated with the step index if any."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"{message} (step {step})")
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
    finite and non-negative (required positive for atomic data).  A run
    records the steps that recorded_steps finds for output_times, the start
    only if it is requested, each labelled with the first time that names it;
    an empty output_times is refused.  Without output_times, n_outputs >= 2
    equally spaced times from 0 to T are each rounded to the nearest step k
    and requested as k * dt, so the start is recorded: 11 over 5 steps record
    6 times, and 4 at T = 0.1, dt = 1e-3 record the steps 0, 33, 67 and 100.
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
        if self.n_outputs < 2:
            raise ValueError("n_outputs must be at least 2 (the start and the horizon)")
        if self.output_times is not None and len(self.output_times) == 0:
            raise ValueError("output_times must name at least one time")


# where a grid step spends its time: the operator's coefficient field and
# system, the banded solve, and the observer's bookkeeping
PHASES = ("coefficients", "assemble", "solve", "observe")


class PhaseClock:
    """Seconds summed per phase since ``start``; a lap charges the time since the last."""

    def __init__(self, phases):
        self.phase_s = dict.fromkeys(phases, 0.0)
        self.start = self.mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.phase_s[phase] += now - self.mark
        self.mark = now


@dataclass
class Diagnostics:
    """Per-output-time records plus step-level conservation summaries."""

    masses: np.ndarray          # (k, d) per-state trapezoid masses
    min_value: np.ndarray       # (k,) smallest nodal value
    l2: np.ndarray              # (k, d) per-state L2 norms
    boundary_mass: np.ndarray   # (k,) total density mass in the outermost cells
    max_mass_drift: float       # max over steps of relative total-mass drift
    step_min_value: float       # smallest nodal value over every step, outputs or not
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
    """The round(T / dt) equal steps, at least one, that split [0, T]: (n_steps, dt).

    Step indices are int64, so T / dt must be below 2**63 (ValueError otherwise).
    """
    if not T / dt < 2.0 ** 63:
        raise ValueError(f"dt = {dt} splits T = {T} into 2**63 or more steps")
    n_steps = max(1, int(round(T / dt)))
    return n_steps, T / n_steps


def recorded_steps(times, T: float, n_steps: int) -> dict[int, float]:
    """The steps that ``times`` name, in step order, each labelled with the
    first time that names it: the one rule by which both solvers record.

    A requested time must be finite, lie in [0, T] and be within
    time_tolerance(t) of a step time k * T / n_steps; anything else raises
    ValueError.
    """
    dt, steps = T / n_steps, {}
    for t in map(float, times):
        if not math.isfinite(t):
            raise ValueError(f"requested time {t} is not finite")
        k = int(round(t / dt))
        if not 0 <= k <= n_steps:
            raise ValueError(f"requested time {t} lies outside [0, {T}]")
        if abs(k * dt - t) > time_tolerance(t):
            raise ValueError(f"requested time {t} is not on the step grid (dt = {dt})")
        steps.setdefault(k, t)
    return dict(sorted(steps.items()))


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


class _Operator:
    """Built once per solve: eps, the step-invariant mass blocks and the exchange blocks."""

    def __init__(self, model: RegimeModel, grid: SpatialGrid, dt: float, r: float,
                 surface: VolSurface | None):
        self.lam, self.h, self.dt, self.r, self.surface = model.lam, grid.h, dt, r, surface
        self.x_mid = 0.5 * (grid.x[:-1] + grid.x[1:])
        # regularise A_eps far below any attained sum(lam * p) away from the tails
        self.eps = 1e-10 * model.lam_min / (2.0 * grid.L)
        eye = np.eye(model.d)
        self.mass_blocks = _mass_diag(grid)[:, None, None] * eye[None, :, :]  # (m, d, d)
        self.mass_off = (grid.h / 6.0) * eye
        # exchange coupling per cell, transposed so rows act on the test-function
        # regime; contiguous, as a transposed view costs twice as much per step
        c_mid = np.ascontiguousarray(np.swapaxes(model.q.value(self.x_mid), -1, -2))
        self.q_diag = dt * (grid.h / 3.0) * c_mid
        self.q_off = dt * (grid.h / 6.0) * c_mid

    def field(self, U: np.ndarray, t: float):
        """(cell means pm of U, diffusion field frozen at pm, drift velocity or None)."""
        pm = 0.5 * (U[:-1] + U[1:])                      # (m-1, d)
        # an overflowing state makes the field non-finite without a warning;
        # the finiteness check on the system reports it
        with np.errstate(over="ignore", invalid="ignore"):
            a_e = a_eps_batch(pm, self.lam, self.eps)
            if self.surface is None:
                return pm, a_e, None
            s_e, ds_e = self.surface.sigma_dx(t, self.x_mid)
            r_e = ratio_r_eps_batch(pm, self.lam, self.eps)
            c_lev = 0.5 * r_e * s_e * (s_e + 2.0 * ds_e)                # (m-1,)
            b_e = self.r - c_lev[:, None] * self.lam[None, :]           # (m-1, d)
            return pm, (s_e * s_e)[:, None, None] * a_e, b_e

    def system(self, pm, coef, b_e, WU: np.ndarray, step: int):
        """(diag, off, rhs) of the step to ``step``; rhs is W U, updated in place."""
        cf = (self.dt / self.h) * coef
        diag = self.mass_blocks.copy()
        diag[:-1] += cf
        diag[1:] += cf
        off = self.mass_off - cf
        diag[:-1] -= self.q_diag
        diag[1:] -= self.q_diag
        off -= self.q_off
        if b_e is not None:
            # an overflowing flux is reported by the finiteness check below
            with np.errstate(over="ignore", invalid="ignore"):
                flux = b_e * pm
                WU[:-1] -= self.dt * flux
                WU[1:] += self.dt * flux
        if not (np.isfinite(diag).all() and np.isfinite(off).all()
                and np.isfinite(WU).all()):
            raise NumericalError("the linear system is no longer finite", step)
        return diag, off, WU


class _Observer:
    """W U, the records at the output steps, the mass and energy bookkeeping and the clock."""

    def __init__(self, grid: SpatialGrid, U: np.ndarray, T: float, n_steps: int,
                 config: PDSConfig):
        self.grid, self.dt = grid, T / n_steps
        times = config.output_times
        if times is None:
            steps = np.round(np.linspace(0.0, T, config.n_outputs) / self.dt).astype(int)
            times = np.clip(steps, 0, n_steps) * self.dt
        self.steps = recorded_steps(times, T, n_steps)    # step -> its time
        self.tw = grid.trapezoid_weights()
        self.records = {0: U.copy()} if 0 in self.steps else {}    # step -> U
        # W U serves the energy and the next right-hand side
        self.WU = _mass_apply(U, grid.h)
        self.mass = float((self.tw @ U).sum())
        self.energy = float(np.einsum("md,md->", U, self.WU))
        self.max_drift, self.max_energy_inc = 0.0, -math.inf
        self.step_min = float(U.min())
        self.clock = PhaseClock(PHASES)

    def observe(self, U: np.ndarray, step: int) -> None:
        if not np.all(np.isfinite(U)):
            raise NumericalError("solution is no longer finite", step)
        mass = float((self.tw @ U).sum())
        self.max_drift = max(self.max_drift,
                             abs(mass - self.mass) / max(abs(self.mass), 1e-300))
        self.mass = mass
        self.step_min = min(self.step_min, float(U.min()))
        self.WU = _mass_apply(U, self.grid.h)
        energy = float(np.einsum("md,md->", U, self.WU))
        self.max_energy_inc = max(self.max_energy_inc, energy - self.energy)
        self.energy = energy
        if step in self.steps:
            self.records[step] = U.copy()

    def solution(self, n_steps: int) -> GridSolution:
        """The records as a GridSolution; the per-record diagnostics come from them."""
        h, records = self.grid.h, list(self.records.values())
        u_tot = np.asarray([u.sum(axis=1) for u in records])            # (k, m)
        bm = 0.5 * h * (u_tot[:, 0] + u_tot[:, 1] + u_tot[:, -2] + u_tot[:, -1])
        diagnostics = Diagnostics(
            masses=np.asarray([self.tw @ u for u in records]),
            min_value=np.asarray([u.min() for u in records]),
            l2=np.asarray([np.sqrt(np.maximum(np.einsum("md,md->d", u, _mass_apply(u, h)), 0.0))
                           for u in records]),
            boundary_mass=bm,
            max_mass_drift=self.max_drift,
            step_min_value=self.step_min,
            max_energy_increase=self.max_energy_inc,
            boundary_warning=bool(np.any(bm > 1e-4)),
            n_steps=n_steps,
            dt=self.dt,
            wall_time=time.perf_counter() - self.clock.start,
            phase_s=self.clock.phase_s,
        )
        return GridSolution(grid=self.grid, times=np.asarray(list(self.steps.values())),
                            p=np.asarray([u.T for u in records]),
                            diagnostics=diagnostics)


def _advance(model: RegimeModel, initial: Measure, grid: SpatialGrid, horizon,
             config: PDSConfig, surface: VolSurface | None = None) -> GridSolution:
    """Step the projected initial law to the horizon: operator, banded solve, observer."""
    n_steps, dt = step_grid(horizon.T, config.dt)
    operator = _Operator(model, grid, dt, horizon.r, surface)
    U = _project_initial(initial, config.sigma_mollify, grid, model.alpha)    # (m, d)
    observer = _Observer(grid, U, horizon.T, n_steps, config)
    for step in range(1, n_steps + 1):
        field = operator.field(U, (step - 1) * dt)
        observer.clock.lap("coefficients")
        diag, off, rhs = operator.system(*field, observer.WU, step)
        observer.clock.lap("assemble")
        try:
            U = solve_block_tridiag(diag, off, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"banded solve failed: {exc}", step) from exc
        observer.clock.lap("solve")
        observer.observe(U, step)
        observer.clock.lap("observe")
    return observer.solution(n_steps)


def solve_fbm(model: RegimeModel, config: PDSConfig, grid: SpatialGrid,
              horizon, initial: Measure) -> GridSolution:
    """Driftless sub-density system with the exchange (Qv, p) of the model's q."""
    return _advance(model, initial, grid, horizon, config)


def solve_rslv(model: RegimeModel, config: PDSConfig, grid: SpatialGrid,
               horizon, surface: VolSurface, initial: Measure) -> GridSolution:
    """Full system with rate drift, leverage drift, scaled diffusion and switching;
    for the one-regime model, the scalar local-volatility equation."""
    return _advance(model, initial, grid, horizon, config, surface)


def l1_grid_distance(grid: SpatialGrid, f, g) -> float:
    """Trapezoid L1 distance between two nodal functions on the grid."""
    return float(np.trapezoid(np.abs(np.asarray(f) - np.asarray(g)), grid.x))


def heat_reference(sol: GridSolution, initial: Measure, sigma: float) -> np.ndarray:
    """The ``initial`` law under the heat flow, mu * h_{sigma^2 + t}, on the grid
    at each output time t of ``sol``: shape (n_outputs, m).  It is the exact
    marginal of the fake Brownian motion that solve_fbm approximates.
    """
    return np.array([initial.density_on(sol.grid.x, math.sqrt(sigma * sigma + float(t)))
                     for t in sol.times])


def heat_l1_max(sol: GridSolution, reference: np.ndarray) -> float:
    """Largest L1 distance, over the outputs t > 0, between the summed density
    and the same output's row of ``reference``, the array heat_reference
    returns; 0 without an output t > 0.
    """
    errs = [l1_grid_distance(sol.grid, sol.total_density(k), reference[k])
            for k, t in enumerate(sol.times) if t > 0]
    return max(errs, default=0.0)
