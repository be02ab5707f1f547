"""Regime-model domain types and the coefficient fields shared by all solvers.

A model couples a scalar diffusion to a latent regime i in 0..d-1 (the paper's
regime i + 1) with per-regime variance levels lam[i].  The matrix fields M, A
and their regularised variants M_eps, A_eps drive both the nonlinear
Fokker-Planck systems and the coercivity analysis; the scalar ratios R, R_eps
enter the drift of the local-volatility system.  All operations here are
pure functions of their inputs and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RegimeModel",
    "IntensityTable",
    "HorizonConfig",
    "Measure",
    "a_eps_batch",
    "ratio_r_eps_batch",
]

_ALPHA_TOL = 1e-12


def node_slopes(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """read_table's slopes of ``values`` (k, ...) at ``nodes`` (k,): np.interp's
    (f_{j+1} - f_j) / (x_{j+1} - x_j), then an unused 0 (the last node is a hit).
    A slope that overflows raises ValueError."""
    gaps = np.diff(nodes).reshape((-1,) + (1,) * (values.ndim - 1))
    with np.errstate(over="ignore"):
        slopes = np.diff(values, axis=0) / gaps
    if not np.isfinite(slopes).all():
        raise ValueError("table slopes overflow: nodes too close for the change in values")
    return np.concatenate([slopes, np.zeros_like(values[:1])])


def read_table(x, nodes: np.ndarray, values: np.ndarray, slopes: np.ndarray,
               rows=None) -> np.ndarray:
    """np.interp of each entry of ``values`` (k, ...) at x clipped to the strictly
    increasing ``nodes`` (k,): one searchsorted bracket, then slope_j * (x - x_j)
    + f_j inside, f_j itself on a node (slope_j * 0 + f_j would turn -0.0 into
    0.0).  ``rows`` gathers only entry rows[n] of the second axis at x[n]."""
    xc = np.clip(x, nodes[0], nodes[-1])
    j = np.searchsorted(nodes, xc, side="right") - 1
    at = j if rows is None else (j, rows)
    f = values[at]
    off = xc - nodes[j]
    shape = off.shape + (1,) * (f.ndim - off.ndim)
    return np.where((off == 0.0).reshape(shape), f, slopes[at] * off.reshape(shape) + f)


@dataclass(frozen=True)
class IntensityTable:
    """Jump intensities q_ij(x), piecewise linear in x.

    ``rates`` is a (k, d, d) array of matrices tabulated at the strictly
    increasing nodes ``x`` (piecewise linear in between, constant outside).
    A (d, d) matrix given without ``x`` is a constant Q, the one-node table
    at x = 0, so after construction ``x`` is 1-d and ``rates`` (k, d, d).
    Rates and nodes must be finite, off-diagonal rates non-negative; the
    diagonal is recomputed as q_ii = -sum_{j != i} q_ij.
    """

    rates: np.ndarray
    x: np.ndarray | None = None
    slopes: np.ndarray = field(init=False, repr=False)    # node_slopes of the table

    def __post_init__(self):
        rates = np.array(self.rates, dtype=float)
        if self.x is None:
            x, rates = np.zeros(1), rates[None]
        else:
            x = np.asarray(self.x, dtype=float)
        if (x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x))
                or np.any(np.diff(x) <= 0)):
            raise ValueError("tabulation nodes must be finite and strictly increasing")
        if rates.ndim != 3 or rates.shape[0] != x.size or rates.shape[1] != rates.shape[2]:
            raise ValueError("rates must be a (d, d) matrix, or have shape (len(x), d, d)")
        off = ~np.eye(rates.shape[1], dtype=bool)
        if not np.all(np.isfinite(rates)) or np.any(rates[:, off] < 0):
            raise ValueError("intensities must be finite, and non-negative off the diagonal")
        diag = np.arange(rates.shape[1])
        rates[:, diag, diag] = 0.0
        with np.errstate(over="ignore"):
            rates[:, diag, diag] = -rates.sum(axis=2)
        if not np.all(np.isfinite(rates)):
            raise ValueError("intensities overflow: a row's leaving rate is not finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "slopes", node_slopes(x, rates))

    @property
    def d(self) -> int:
        return self.rates.shape[-1]

    @property
    def qbar(self) -> float:
        """Uniform bound on |q_ij| over the table."""
        return float(np.max(np.abs(self.rates)))

    def value(self, x) -> np.ndarray:
        """Q(x): a d x d matrix, or one per entry of an array x."""
        return read_table(x, self.x, self.rates, self.slopes)

    def rates_from(self, y_idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Outgoing rate rows q_{y, .}(x) for 0-based regime indices y."""
        return read_table(x, self.x, self.rates, self.slopes, y_idx)


@dataclass(frozen=True)
class RegimeModel:
    """Number of regimes d >= 1, variance levels lam_i > 0, initial weights alpha_i;
    one regime is the scalar local-volatility model (A = 1/2, E[f^2(Y) | X] = lam)."""

    lam: np.ndarray
    alpha: np.ndarray
    q: IntensityTable | None = None     # None is the zero Q: no switching

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if lam.ndim != 1:
            raise ValueError("variance levels must be a flat (1-d) list")
        if lam.size < 1:
            raise ValueError("need at least one regime")
        if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
            raise ValueError("variance levels must be positive and finite")
        if alpha.shape != lam.shape or np.any(alpha < 0):
            raise ValueError("alpha must be non-negative with one entry per regime")
        if abs(alpha.sum() - 1.0) > _ALPHA_TOL:
            raise ValueError("alpha must sum to 1 within 1e-12")
        q = self.q or IntensityTable(np.zeros((lam.size, lam.size)))
        if q.d != lam.size:
            raise ValueError("intensity table dimension does not match lam")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "q", q)

    @property
    def d(self) -> int:
        return self.lam.size

    @property
    def lam_min(self) -> float:
        return float(self.lam.min())

    @property
    def lam_max(self) -> float:
        return float(self.lam.max())


@dataclass(frozen=True)
class HorizonConfig:
    """Finite time horizon T > 0 and constant, finite risk-free rate r."""

    T: float
    r: float = 0.0

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError("time horizon must be positive and finite")
        if not math.isfinite(self.r):
            raise ValueError("risk-free rate must be finite")


def a_eps_batch(rho: np.ndarray, lam: np.ndarray, eps: float) -> np.ndarray:
    """A_eps = (I + M_eps)/2 at a batch of states, shape (n, d) -> (n, d, d).

    Negative entries of rho are clamped to 0.  With s = sum_l lam_l rho_l,
    t = sum_l rho_l and u_i = lam_i rho_i:
        M_ij = u_i * c_j / (eps^2 v s^2),   c_j = (s - u_j) - lam_j (t - rho_j)
        M_ii = (s - u_i) * (-c_i) / (eps^2 v s^2)
    Column sums of M vanish identically and M is homogeneous of degree 0 in
    rho.  A_eps equals A where eps <= s, and I/2 at rho = 0.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rho = np.maximum(np.asarray(rho, dtype=float), 0.0)
    lam = np.asarray(lam, dtype=float)
    u = lam[None, :] * rho
    s = u.sum(axis=1)
    t = rho.sum(axis=1)
    denom = np.maximum(eps * eps, s * s)
    c = (s[:, None] - u) - lam[None, :] * (t[:, None] - rho)
    m = u[:, :, None] * (c[:, None, :] / denom[:, None, None])
    idx = np.arange(lam.size)
    m[:, idx, idx] = (s[:, None] - u) * (-c) / denom[:, None]
    m *= 0.5
    m[:, idx, idx] += 0.5
    return m


def ratio_r_eps_batch(rho: np.ndarray, lam: np.ndarray, eps: float) -> np.ndarray:
    """Vectorised R_eps over rows of a (n, d) batch."""
    rho = np.maximum(np.asarray(rho, dtype=float), 0.0)
    return rho.sum(axis=1) / np.maximum(eps, rho @ lam)


def _heat_kernel(t: float, x: np.ndarray) -> np.ndarray:
    """Gaussian heat kernel h_t(x) = exp(-x^2 / 2t) / sqrt(2 pi t), t > 0."""
    with np.errstate(over="ignore"):     # x * x = inf gives exactly 0
        return np.exp(-x * x / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)


@dataclass(frozen=True)
class Measure:
    """Initial law, a probability: atoms (``weights`` at ``xs``), or a density
    tabulated at the nodes ``xs`` when ``atoms`` is False.

    Construction normalises the law once: atom weights are divided by their
    sum, a tabulated density by its trapezoid integral.  ``masses`` are the
    atoms that a mollification convolves, which sum to 1: the weights
    themselves, or each node's trapezoid weight times the density there.
    ``Measure(xs, weights)`` is a mixture of atoms, and ``point(x)`` the unit
    atom at x.  Richer measures are expected to be mollified first
    (heat-kernel convolution), which lands them in the tabulated case.
    """

    xs: np.ndarray
    weights: np.ndarray
    atoms: bool = True
    masses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        xs = np.atleast_1d(np.asarray(self.xs, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if xs.shape != w.shape or xs.ndim != 1:
            raise ValueError("xs and weights must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(w))):
            raise ValueError("measure locations and weights must be finite")
        if not self.atoms and (xs.size < 2 or np.any(np.diff(xs) <= 0)):
            raise ValueError("tabulation nodes must be strictly increasing")
        if np.any(w < 0):
            raise ValueError("atom masses must be non-negative" if self.atoms
                             else "tabulated density must be non-negative")
        tw = np.ones_like(xs)       # each atom's weight in the total mass,
        if not self.atoms:          # or each node's trapezoid weight
            gaps = np.diff(xs, prepend=xs[0], append=xs[-1])
            tw = 0.5 * (gaps[:-1] + gaps[1:])
        with np.errstate(over="ignore"):    # an overflowing total is refused below
            total = (tw * w).sum()
        if not 0 < total < math.inf:
            raise ValueError("the measure's mass must be positive and finite")
        w = w / total
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "masses", tw * w)

    @classmethod
    def point(cls, x: float) -> "Measure":
        return cls(np.array([x]), np.array([1.0]))

    @classmethod
    def tabulated(cls, x, density) -> "Measure":
        return cls(np.asarray(x, dtype=float), np.asarray(density, dtype=float), atoms=False)

    def density_on(self, x_grid: np.ndarray, sigma: float = 0.0) -> np.ndarray:
        """Mollified density (mu * h_{sigma^2}) sampled on the grid.

        Atoms need a positive width; a tabulated density at width 0 is
        resampled, and otherwise convolved by trapezoid quadrature on its
        nodes, through ``masses``.
        """
        if sigma < 0:
            raise ValueError("mollification width must be non-negative")
        x_grid = np.asarray(x_grid, dtype=float)
        t = sigma * sigma
        if t == 0.0:    # sigma = 0, or too small to square
            if self.atoms:
                raise ValueError("atomic measure needs a positive mollification width")
            return np.interp(x_grid, self.xs, self.weights, left=0.0, right=0.0)
        out = np.zeros_like(x_grid)
        for x0, w in zip(self.xs, self.masses):
            out += w * _heat_kernel(t, x_grid - x0)
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.atoms:
            return rng.choice(self.xs, size=n, p=self.masses)
        # tabulated: inverse CDF on the piecewise-linear cumulative
        dx = np.diff(self.xs)
        seg = 0.5 * (self.weights[:-1] + self.weights[1:]) * dx
        cdf = np.concatenate([[0.0], np.cumsum(seg)])
        cdf /= cdf[-1]      # 1 up to rounding
        u = rng.random(n)
        return np.interp(u, cdf, self.xs)
