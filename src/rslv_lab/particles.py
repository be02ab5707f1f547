"""Interacting-particle simulator with kernel-estimated conditional expectation.

The diffusion of every particle is normalised by a Nadaraya-Watson estimate
of E[f^2(Y) | X] built from the whole ensemble, so the system is a particle
discretisation of a McKean-type SDE.  The inputs pick the dynamics:

  * no surface:  dX = sqrt(lam_Y / Ehat) dW (the fake Brownian motions)
  * a surface:   dX = (r - lam_Y/Ehat * s^2 / 2) dt + sqrt(lam_Y/Ehat) s dW,
                 s = sigma_tilde(t, X) (the calibrated RSLV model)

and Y, drawn from alpha at t = 0, switches with the model's intensities
q_ij(X); under the zero Q of a model built without q it stays put.  Y is
0..d-1 like the indices of lam, in SimResult.Y too; the checkpoint CSV writes 1..d.

Per-path quadratic variation accumulates the Riemann sum of the squared
diffusion coefficient.  Randomness comes from three counter-based streams
(initials, Gaussian increments, regime thinning) spawned from one seed, so
trajectories are bit-identical across runs and across dynamics that share
the Gaussian stream (e.g. q = 0 reproduces the paths of a model without q).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dupire import VolSurface
from .fokker_planck import (NumericalError, PhaseClock, recorded_index,
                            recorded_steps, step_grid)
from .regime_model import HorizonConfig, Measure, RegimeModel
from .stats import mc_stderr

__all__ = [
    "SimPlan",
    "Regression",
    "SimResult",
    "cond_expect_f2",
    "init_ensemble",
    "simulate",
    "price_calls",
]


# where a particle step spends its time: the kernel regression, the wait for
# the step's prefetched draws plus the Euler-Maruyama move, the regime
# thinning, and the finiteness check with the checkpoint copies
PHASES = ("regression", "draws", "thinning", "record")
REGRESSION_NODES = 400


@dataclass(frozen=True)
class SimPlan:
    """Step size, kernel-regression parameters and output cadence.

    ``checkpoints`` are recorded by the grid's rule, recorded_steps: each
    step once, labelled with the first checkpoint that names it, the start
    only if it is named.  None records the horizon only; an empty tuple is
    refused.
    """

    dt: float
    n_particles: int
    bandwidth_c: float = 1.06
    checkpoints: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("time step must be positive")
        if self.n_particles < 100:
            raise ValueError("need at least 100 particles")
        if not (math.isfinite(self.bandwidth_c) and self.bandwidth_c > 0):
            raise ValueError("bandwidth constant must be positive and finite")
        if self.checkpoints is not None and len(self.checkpoints) == 0:
            raise ValueError("checkpoints must name at least one time")


@dataclass(frozen=True)
class Regression:
    """Piecewise-linear conditional-expectation estimate on a fixed grid.

    ``at_samples`` holds the estimate at the ensemble's own positions, read
    off each particle's bin i0 and weights w0 + w1 = 1 from the binning:
    w0 * values[i0] + w1 * values[i0 + 1], clamped to [lam_min, lam_max].
    That is ``self(x)`` up to a few ulps of the position, carried through
    the slope.
    """

    grid: np.ndarray
    values: np.ndarray
    at_samples: np.ndarray

    def __call__(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self.values)


def _make_rngs(seed: int):
    init_ss, gauss_ss, jump_ss = np.random.SeedSequence(seed).spawn(3)
    return (np.random.Generator(np.random.Philox(init_ss)),
            np.random.Generator(np.random.Philox(gauss_ss)),
            np.random.Generator(np.random.Philox(jump_ss)))


def init_ensemble(model: RegimeModel, plan: SimPlan,
                  initial: Measure | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw (X_0, Y_0) with X ~ initial (default point mass at 0), Y ~ alpha.

    Y is 0-based (values in 0..d-1).  Both come from the first of the seed's
    three streams.
    """
    initial = initial if initial is not None else Measure.point(0.0)
    init_rng = _make_rngs(plan.seed)[0]
    y = init_rng.choice(model.d, size=plan.n_particles, p=model.alpha)
    x = initial.sample(plan.n_particles, init_rng)
    return np.asarray(x, dtype=float), y.astype(np.int64)


def cond_expect_f2(x: np.ndarray, y: np.ndarray, plan: SimPlan,
                   model: RegimeModel) -> Regression:
    """Nadaraya-Watson estimate of x -> E[f^2(Y) | X = x], clamped to [lmin, lmax],
    from the particles' positions x and their 0-based regimes y.

    Gaussian kernel with Silverman-style bandwidth c * std(X) * N^(-1/5);
    each particle's unit mass is split by linear binning between the two
    nearest of REGRESSION_NODES nodes spanning the sample range +/- 4
    bandwidths, in one row of bins per regime.  The kernel sums are the rows'
    total and their lam-weighted sum, smoothed by the kernel.  Nodes with
    vanishing kernel mass take the ensemble mean of f^2(Y).  The estimate at
    the particles themselves (``at_samples``) is read off the same bins and
    weights.  A spread of X that is not finite, or too small for distinct
    grid nodes, raises FloatingPointError.
    """
    if x.size < 100:
        raise ValueError("need at least 100 particles for the kernel estimate")
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(x.std())
        if not math.isfinite(sd):
            # std squares the deviations, which overflow past about 1e154 while
            # the spread is finite (one ulp at 1e170): measure it on the span
            low = float(x.min())
            span = float(x.max()) - low
            if 0.0 < span < math.inf:
                sd = span * float(((x - low) / span).std())
    if not math.isfinite(sd):
        raise FloatingPointError("ensemble spread is no longer finite")
    # equal levels clamp every estimate to the single point lam_min
    if sd < 1e-12 or model.lam_min == model.lam_max:
        grid = np.array([x[0] - 1.0, x[0] + 1.0])
        v = min(max(float(model.lam.take(y).mean()), model.lam_min), model.lam_max)
        return Regression(grid=grid, values=np.full(2, v), at_samples=np.full(x.size, v))
    delta = plan.bandwidth_c * sd * x.size ** (-0.2)
    lo = float(x.min()) - 4.0 * delta
    hi = float(x.max()) + 4.0 * delta
    grid = np.linspace(lo, hi, REGRESSION_NODES)
    if not np.all(np.diff(grid) > 0):
        raise FloatingPointError("ensemble spread is below the float spacing at its location")
    step_w = (hi - lo) / (REGRESSION_NODES - 1)

    w1 = x - lo
    w1 /= step_w
    i0 = w1.astype(np.int64)        # the floor: the position is >= 4 bandwidths / step_w > 0
    w1 -= i0
    w0 = 1.0 - w1
    # bin (regime, node) is key y * NODES + node; w1's bins sit one node up
    key = y * REGRESSION_NODES
    key += i0
    rows = (model.d, REGRESSION_NODES)
    per_regime = np.bincount(key, weights=w0, minlength=rows[0] * rows[1]).reshape(rows)
    per_regime[:, 1:] += np.bincount(key, weights=w1,
                                     minlength=rows[0] * rows[1]).reshape(rows)[:, :-1]
    den, num = per_regime.sum(axis=0), model.lam @ per_regime

    radius = max(1, int(math.ceil(6.0 * delta / step_w)))
    u = np.arange(-radius, radius + 1) * (step_w / delta)
    kern = np.exp(-0.5 * u * u)
    # the middle entries of the full convolution, one per node; mode="same" would return
    # len(kern) entries once the kernel is longer than the grid
    den_s = np.convolve(den, kern)[radius:radius + REGRESSION_NODES]
    num_s = np.convolve(num, kern)[radius:radius + REGRESSION_NODES]
    empty = den_s < 1e-300
    vals = num_s / np.where(empty, 1.0, den_s)
    if empty.any():
        vals[empty] = model.lam.take(y).mean()    # the ensemble mean of f^2(Y)
    vals = np.clip(vals, model.lam_min, model.lam_max)
    # w0 * vals[i0] + w1 * vals[i0 + 1], in place: w0 then holds vals[i0 + 1]
    # (i0 + 1 < NODES, so mode="clip" clips nothing; the default mode buffers out=)
    at_samples = vals.take(i0)
    at_samples *= w0
    w1 *= vals[1:].take(i0, out=w0, mode="clip")
    at_samples += w1
    np.clip(at_samples, model.lam_min, model.lam_max, out=at_samples)
    return Regression(grid=grid, values=vals, at_samples=at_samples)


def _switch_table(rates, regimes, dt) -> np.ndarray:
    """Cumulative switching probabilities, one row per entry of ``regimes``.

    Row k is cumsum_j(q_{i,j} dt) over the rate row ``rates[k]`` of regime
    i = regimes[k], with q_{i,i} left out, so its last entry is the
    probability of leaving i within dt.  ``rates`` is overwritten.
    """
    rates[np.arange(regimes.size), regimes] = 0.0
    return np.cumsum(rates * dt, axis=1)


def _leaving_bound(q, dt) -> np.ndarray:
    """Each regime's largest leaving probability -q_ii dt over q's nodes, raised by
    1e-12 relative: rows are linear in x between nodes, so a row that _thinning
    builds sums to at most that, plus a few ulps of rounding that the pad covers."""
    return -np.diagonal(q.rates, axis1=1, axis2=2).min(axis=0) * dt * (1.0 + 1e-12)


def _thinning(x, y, q, dt, u, bound_y) -> np.ndarray:
    """One-switch-per-step regime update of the 0-based Y, in place, from the
    uniforms u and each particle's leaving bound bound_y = bound[Y] (see
    _leaving_bound), one each per particle: only the candidates, u < bound_y,
    get their rows of q at X, and each switches iff u is below its row's last
    entry, to the first entry above u.  Returns the candidates' indices, the
    only entries of Y, and so of bound_y, that can have changed."""
    cand = np.flatnonzero(u < bound_y)
    u, rows = u[cand, None], y[cand]
    cum = _switch_table(q.rates_from(rows, x[cand]), rows, dt)
    y[cand] = np.where(u[:, 0] < cum[:, -1], np.argmax(u < cum, axis=1), rows)
    return cand


@dataclass
class SimResult:
    """Checkpoint samples, Y in regimes 0..d-1, plus per-step diagnostics."""

    times: np.ndarray            # (k,)
    X: np.ndarray                # (k, N)
    Y: np.ndarray                # (k, N), regimes 0..d-1
    qv: np.ndarray               # (k, N)
    gyongy_ratio: np.ndarray     # (n_steps,) ensemble mean of lam_Y / Ehat
    occupancy: np.ndarray        # (k, d) fractions in regimes 0..d-1 at checkpoints
    phase_s: dict                # seconds summed over the steps, per PHASES entry

    def at_time(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k = recorded_index(self.times, t)
        return self.X[k], self.Y[k], self.qv[k]


def simulate(model: RegimeModel, plan: SimPlan, horizon: HorizonConfig,
             initial: Measure | None = None,
             surface: VolSurface | None = None) -> SimResult:
    """Run the particle system to the horizon, recording the checkpoints.

    Each step is one Euler-Maruyama step with the conditional expectation
    frozen at the current ensemble; a ``surface`` adds the drift and scales
    the diffusion, and the model's q switches regimes.  Deterministic for a
    given (seed, plan, model): identical inputs give bit-identical
    trajectories.  One helper thread draws step n + 1's Gaussian increments
    and thinning uniforms while step n runs; each stream is consumed in step
    order, so the outputs do not depend on how the threads interleave.
    Checkpoints must lie on the step grid k * T / n_steps, and the step
    dt = T / n_steps must keep each regime's _leaving_bound, the probability
    that thinning screens against, below 1 (ValueError otherwise).
    Non-finite positions or ensemble spread raise NumericalError with the
    step index.
    """
    T, r = horizon.T, horizon.r
    n_steps, dt = step_grid(T, plan.dt)
    bound = _leaving_bound(model.q, dt)
    if bound.max() >= 1.0:
        raise ValueError(f"a regime's leaving probability per step must be < 1 for "
                         f"one-switch thinning (step dt = {dt})")
    x, y = init_ensemble(model, plan, initial)
    _, gauss_rng, jump_rng = _make_rngs(plan.seed)    # the first drew (x, y)
    thin = bool(bound.any())    # a zero bound switches nobody: draw no uniforms
    # f^2(Y) and the leaving bound of Y; only thinning candidates can change them
    lam_y, bound_y = model.lam[y], bound[y]
    qv = np.zeros(plan.n_particles)
    check_steps = recorded_steps((T,) if plan.checkpoints is None else plan.checkpoints,
                                 T, n_steps)
    xs, ys, qvs, occ, ratios = [], [], [], [], []

    def record(step_idx):
        if step_idx in check_steps:
            xs.append(x.copy())
            ys.append(y.copy())
            qvs.append(qv.copy())
            occ.append(np.bincount(y, minlength=model.d) / y.size)

    # step n's Gaussian increments and uniforms go to slot n % 2, so that the
    # helper thread can fill step n + 1's slot while step n reads its own
    sqrt_dt = math.sqrt(dt)
    dws = np.empty((2, plan.n_particles))
    us = np.empty((2 if thin else 0, plan.n_particles))

    def draws(n):
        dw = gauss_rng.standard_normal(out=dws[n % 2])
        dw *= sqrt_dt
        return dw, jump_rng.random(out=us[n % 2]) if thin else None

    clock = PhaseClock(PHASES)
    record(0)
    clock.lap("record")
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(draws, 0)
        for n in range(n_steps):
            try:
                reg = cond_expect_f2(x, y, plan, model)
            except FloatingPointError as exc:
                raise NumericalError(str(exc), n + 1) from exc
            ratio = lam_y / reg.at_samples
            clock.lap("regression")
            if surface is not None:
                s = np.asarray(surface.sigma(n * dt, x), dtype=float)
                diff2 = ratio * s * s
                # an overflowing drift is reported by the finiteness check below
                with np.errstate(over="ignore", invalid="ignore"):
                    x += (r - 0.5 * diff2) * dt
            else:
                diff2 = ratio
            dw, u = ahead.result()
            if n + 1 < n_steps:
                ahead = pool.submit(draws, n + 1)
            x += np.sqrt(diff2) * dw
            qv += diff2 * dt
            clock.lap("draws")
            if thin:
                cand = _thinning(x, y, model.q, dt, u, bound_y)
                lam_y[cand] = model.lam.take(y[cand])
                bound_y[cand] = bound.take(y[cand])
            clock.lap("thinning")
            if not np.all(np.isfinite(x)):
                raise NumericalError("particle positions are no longer finite", n + 1)
            ratios.append(float(ratio.mean()))
            record(n + 1)
            clock.lap("record")

    return SimResult(times=np.asarray(list(check_steps.values())), X=np.asarray(xs),
                     Y=np.asarray(ys), qv=np.asarray(qvs),
                     gyongy_ratio=np.asarray(ratios), occupancy=np.asarray(occ),
                     phase_s=clock.phase_s)


def price_calls(x, strikes, r: float, T: float):
    """Discounted call prices and standard errors from terminal log-prices.

    Returns a list of (strike, price, stderr) triples, discounted over the
    maturity T.  A price that overflows raises NumericalError.
    """
    try:
        disc = math.exp(-r * T)
    except OverflowError:
        disc = math.inf
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.exp(np.asarray(x, dtype=float))
        for k in np.atleast_1d(np.asarray(strikes, dtype=float)):
            payoff = np.maximum(s - k, 0.0)
            out.append((float(k), disc * float(payoff.mean()), disc * mc_stderr(payoff)))
    if not np.isfinite(out).all():
        raise NumericalError(f"call prices discounted at r = {r} over T = {T} are not finite")
    return out
