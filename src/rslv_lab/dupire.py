"""Local-volatility surfaces and their construction from call prices.

A surface evaluates sigma_tilde(t, x) = sigma(t, e^x) on log-price
coordinates, clamped to configured bounds so that the uniform ellipticity
and boundedness assumptions of the solvers always hold.  Construction from
a call-price grid uses the classical relation

    sigma(t, K)^2 = 2 (dC/dt + r K dC/dK) / (K^2 d2C/dK2)

with central finite differences and a repair policy for degenerate nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .regime_model import node_slopes, read_table

__all__ = ["VolSurface", "ArbitrageError", "DupireBuildReport",
           "dupire_from_calls"]

# density term K^2 d2C/dK2 at or below this times s0^2 (s0 the median strike)
# marks a node degenerate
DENOM_FLOOR = 1e-10


class ArbitrageError(ValueError):
    """Raised when a call grid is unusable (butterfly violations or too many
    degenerate nodes).  Carries the offending (t, K) nodes."""

    def __init__(self, message: str, nodes):
        super().__init__(message)
        self.nodes = list(nodes)


@dataclass(frozen=True)
class VolSurface:
    """Bounded local-volatility function on log-price coordinates.

    A (t, x) table, read by np.interp in t (read_table), then np.interp in
    x, both with clamped extrapolation; a flat surface is the one-node
    table.  Every evaluation is clamped to [sigma_low, sigma_high].
    """

    t: np.ndarray
    x: np.ndarray
    values: np.ndarray
    sigma_low: float = 0.01
    sigma_high: float = 2.0
    slopes: np.ndarray = field(init=False, repr=False)    # node_slopes in t
    dx_step: float = field(init=False, repr=False)        # dsigma_dx's step

    def __post_init__(self):
        if not 0 < self.sigma_low <= self.sigma_high < np.inf:
            raise ValueError("need 0 < sigma_low <= sigma_high < inf")
        t = np.atleast_1d(np.asarray(self.t, dtype=float))
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or x.ndim != 1 or 0 in v.shape or v.shape != (t.size, x.size):
            raise ValueError("tabulated surface needs values of shape (len(t), len(x))")
        if not (np.isfinite(t).all() and np.isfinite(x).all() and np.isfinite(v).all()):
            raise ValueError("tabulated surface nodes and values must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("t nodes must be strictly increasing")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x nodes must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "slopes", node_slopes(t, v))
        object.__setattr__(self, "dx_step", 0.5 * np.min(np.diff(x), initial=x[-1] - x[0] + 1.0))

    @classmethod
    def constant(cls, value: float, **bounds) -> "VolSurface":
        """The one-node table: ``value`` at every (t, x)."""
        if not 0 < value < np.inf:
            raise ValueError("constant surface needs a positive, finite value")
        return cls(np.zeros(1), np.zeros(1), np.full((1, 1), value), **bounds)

    def sigma(self, t, x):
        """Clamped sigma_tilde(t, x); accepts scalars or arrays in x."""
        row = read_table(t, self.t, self.values, self.slopes)
        out = np.clip(np.interp(np.asarray(x, dtype=float), self.x, row),
                      self.sigma_low, self.sigma_high)
        return float(out) if np.ndim(out) == 0 else out

    def dsigma_dx(self, t, x):
        """Spatial derivative by central differencing of the clamped surface.

        The step, ``dx_step``, is half the finest node gap.  The span plus one
        exceeds every gap and stands in for the gap of a one-node x axis,
        whose difference is then exactly 0.
        """
        return self.sigma_dx(t, x)[1]

    def sigma_dx(self, t, x):
        """(sigma(t, x), dsigma_dx(t, x)) from one sigma call at the stacked
        x - dx_step, x, x + dx_step, so the t row is read once."""
        x, step = np.asarray(x, dtype=float), self.dx_step
        lo, mid, hi = self.sigma(t, np.stack([x - step, x, x + step]))
        return mid, (hi - lo) / (2.0 * step)


@dataclass(frozen=True)
class DupireBuildReport:
    """Surface plus the list of repaired (t, K) nodes."""

    surface: VolSurface
    flagged: list
    n_total: int


def _second_derivative(c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Three-point second derivative in K at interior strikes (possibly non-uniform)."""
    h0 = k[1:-1] - k[:-2]
    h1 = k[2:] - k[1:-1]
    return 2.0 * (h0 * c[:, 2:] - (h0 + h1) * c[:, 1:-1] + h1 * c[:, :-2]) \
        / (h0 * h1 * (h0 + h1))


def dupire_from_calls(t, strikes, calls, r: float = 0.0,
                      sigma_low: float = VolSurface.sigma_low,
                      sigma_high: float = VolSurface.sigma_high) -> DupireBuildReport:
    """Local-volatility surface from call prices C(t, K) on a rectangular grid.

    All three derivatives use central differences (one-sided in t at the first
    and last maturity).  Nodes whose density term K^2 d2C/dK2 falls at or
    below DENOM_FLOOR * s0^2 (s0 the median strike) or whose implied
    variance is not positive are flagged and repaired from the nearest valid
    neighbour in K, then in t.  A grid whose butterfly curvature is negative
    beyond the rounding of its three-point difference anywhere, or with more
    than 20% flagged nodes, raises ArbitrageError.
    """
    t = np.asarray(t, dtype=float)
    k = np.asarray(strikes, dtype=float)
    c = np.asarray(calls, dtype=float)
    if k.size < 3 or t.size < 2:
        raise ValueError("need at least 3 strikes and 2 maturities")
    if c.shape != (t.size, k.size):
        raise ValueError("call grid must have shape (len(t), len(strikes))")
    if np.any(np.diff(t) <= 0) or np.any(np.diff(k) <= 0):
        raise ValueError("maturities and strikes must be strictly increasing")
    if np.any(t <= 0) or np.any(k <= 0):
        raise ValueError("maturities and strikes must be positive")

    dcdt = np.gradient(c, t, axis=0)
    dcdk = np.gradient(c, k, axis=1)[:, 1:-1]
    d2c = _second_derivative(c, k)
    ki = k[1:-1]

    # a curvature within rounding of zero is degenerate (flagged below), not
    # an arbitrage: deep in the money C is intrinsic to the last bit
    h0h1 = (k[1:-1] - k[:-2]) * (k[2:] - k[1:-1])
    rounding = np.finfo(float).eps * (np.abs(c[:, :-2]) + 2.0 * np.abs(c[:, 1:-1])
                                      + np.abs(c[:, 2:])) / h0h1
    bad = np.argwhere(d2c < -rounding)
    if bad.size:
        nodes = [(float(t[i]), float(ki[j])) for i, j in bad]
        raise ArbitrageError(
            f"negative butterfly curvature at {len(nodes)} node(s)", nodes)

    denom = ki[None, :] ** 2 * d2c
    numer = dcdt[:, 1:-1] + r * ki[None, :] * dcdk
    with np.errstate(divide="ignore", invalid="ignore"):
        var = 2.0 * numer / denom
    s0 = float(np.median(k))
    flagged_mask = (denom <= DENOM_FLOOR * s0 * s0) | ~np.isfinite(var) | (var <= 0.0)
    n_total = flagged_mask.size
    n_flagged = int(flagged_mask.sum())
    if n_flagged > 0.2 * n_total:
        nodes = [(float(t[i]), float(ki[j])) for i, j in np.argwhere(flagged_mask)]
        raise ArbitrageError(
            f"{n_flagged}/{n_total} nodes are degenerate", nodes)

    sigma = np.where(flagged_mask, np.nan, np.sqrt(np.maximum(var, 0.0)))
    _repair_nearest(sigma)
    sigma = np.clip(sigma, sigma_low, sigma_high)
    surface = VolSurface(t, np.log(ki), sigma, sigma_low=sigma_low, sigma_high=sigma_high)
    flagged = [(float(t[i]), float(ki[j])) for i, j in np.argwhere(flagged_mask)]
    return DupireBuildReport(surface=surface, flagged=flagged, n_total=n_total)


def _repair_nearest(sigma: np.ndarray) -> None:
    """Fill NaN nodes from the nearest valid strike on the same maturity,
    then from the nearest valid maturity at the same strike (in place)."""
    for lines in (sigma, sigma.T):
        idx = np.arange(lines.shape[1])
        for line in lines:
            good = np.isfinite(line)
            if good.any() and not good.all():
                nearest = idx[good][np.argmin(np.abs(idx[good][None, :] - idx[~good][:, None]), axis=1)]
                line[~good] = line[nearest]
    if not np.all(np.isfinite(sigma)):
        raise ArbitrageError("no valid node available for repair", [])
