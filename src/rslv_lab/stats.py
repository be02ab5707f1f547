"""Statistical verification utilities: normal CDF, Black-Scholes calls, KS
statistic, moment and histogram checks, Monte Carlo standard errors, and a
small report type."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "TestReport",
    "normal_cdf",
    "bs_call",
    "ks_statistic",
    "l1_hist_distance",
    "Moments",
    "moments",
    "mc_stderr",
]


@dataclass(frozen=True)
class TestReport:
    """One verification outcome; passes iff statistic <= threshold."""

    __test__ = False  # not a pytest case despite the name

    statistic: float
    threshold: float
    passed: bool
    n: int
    description: str

    @classmethod
    def check(cls, statistic: float, threshold: float, n: int, description: str) -> "TestReport":
        return cls(float(statistic), float(threshold), bool(statistic <= threshold), int(n), description)


_erfc = np.frompyfunc(math.erfc, 1, 1)     # one path for scalars and arrays


def normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    Phi(x) = erfc(-x / sqrt(2)) / 2 from math.erfc.  The rounding of
    -x / sqrt(2) bounds the relative error by about 4e-16 * max(1, x^2):
    2e-13 at x = -37, where Phi is 5.7e-300.
    """
    scalar = np.ndim(x) == 0
    out = 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)
    return float(out) if scalar else out


def bs_call(s0: float, k: float, sigma: float, T: float, r: float = 0.0) -> float:
    """Black-Scholes price of a call with strike k and maturity T on spot s0."""
    d1 = (math.log(s0 / k) + (r + 0.5 * sigma * sigma) * T) / (sigma * math.sqrt(T))
    d2 = d1 - sigma * math.sqrt(T)
    return s0 * normal_cdf(d1) - k * math.exp(-r * T) * normal_cdf(d2)


def ks_statistic(samples, cdf: Callable) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a vectorised CDF.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted sample.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))


def l1_hist_distance(samples, density, bins: int = 100) -> float:
    """L1 distance between the sample histogram and a reference probability density.

    Both live on the window sample mean +/- 5 sample std: the histogram is
    normalised to unit mass there, and the callable ``density``, evaluated at
    the bin centres, is renormalised over it.
    """
    x = np.asarray(samples, dtype=float)
    m, s = x.mean(), x.std()
    counts, edges = np.histogram(x, bins=bins, range=(m - 5.0 * s, m + 5.0 * s))
    widths = np.diff(edges)
    hist = counts / counts.sum() / widths
    ref = np.asarray(density(0.5 * (edges[:-1] + edges[1:])), dtype=float)
    ref_mass = float(np.sum(ref * widths))
    if ref_mass <= 0:
        raise ValueError("reference density has no mass on the binning window")
    ref = ref / ref_mass
    return float(np.sum(np.abs(hist - ref) * widths))


@dataclass(frozen=True)
class Moments:
    mean: float
    var: float
    m4: float
    kurtosis: float


def moments(samples) -> Moments:
    """Sample mean, variance, fourth central moment and kurtosis."""
    x = np.asarray(samples, dtype=float)
    m = float(x.mean())
    c = x - m
    var = float(np.mean(c * c))
    m4 = float(np.mean(c ** 4))
    kurt = m4 / (var * var) if var > 0 else float("nan")
    return Moments(mean=m, var=var, m4=m4, kurtosis=kurt)


def mc_stderr(payoffs) -> float:
    """Standard error of the Monte Carlo mean of the given payoffs."""
    x = np.asarray(payoffs, dtype=float)
    if x.size < 2:
        return 0.0
    return float(x.std(ddof=1) / math.sqrt(x.size))
