"""Deciding Condition (C) and constructing coercivity certificates.

Condition (C) asks for a symmetric positive definite Gamma whose weighted
difference matrices Gamma^(k) are positive definite on e_k-perp; it is the
structural hypothesis behind the uniform coercivity of Pi A on the state
domain.  This module provides

  * the exact closed-form criterion for d = 3 (and its r-linkage),
  * the exact criterion for a *given* diagonal matrix Gamma, only
    sufficient for (C) (at the unit diagonal, the identity criterion),
  * the planar grid search that decides existence of a diagonal matrix,
  * a sampled coercivity certificate Pi = J_d + eps * Gamma with an
    estimated coercivity constant kappa_hat.

A failing grid search at finite resolution is non-detection, not disproof,
except for d = 3 where the closed-form criterion is exact.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .regime_model import RegimeModel, a_eps_batch

__all__ = [
    "CertificateError",
    "CoercivityCertificate",
    "D3Report",
    "GridSearchReport",
    "gamma_k_submatrix",
    "satisfies_condition_c",
    "criterion_d3",
    "criterion_diag",
    "grid_search_diag",
    "coercivity_certificate",
    "sample_quadratic_min",
    "sample_domain_states",
    "worker_count",
]

_SYM_TOL = 1e-12
_MARGIN = 1e-12
# A_eps in the sampler: eps far below any sum lam*rho the sampler produces
_EPS_REL = 1e-12
_CHUNK = 200_000


class CertificateError(RuntimeError):
    """Raised when no coercivity certificate can be issued."""


def worker_count() -> int:
    """The sampler's worker cap, min(2, os.cpu_count()); outputs are the same at any cap."""
    return min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class CoercivityCertificate:
    """Pi = J_d + eps * Gamma together with sampled coercivity evidence.

    kappa_hat is the smallest sampled value of xi' sym(Pi A(rho)) xi over
    random unit xi and states rho, capped at l_min(Pi)/2.
    """

    pi: np.ndarray
    eps: float
    z: float
    kappa_hat: float


@dataclass(frozen=True)
class D3Report:
    """Closed-form d = 3 decision with the pairwise ratio sums r_i >= 2."""

    r1: float
    r2: float
    r3: float
    lhs: float
    satisfied: bool


@dataclass(frozen=True)
class GridSearchReport:
    """Outcome of the planar diagonal-existence search.

    ``points`` are the (x, y) grid points satisfying the planar criterion;
    ``satisfied`` means a point was found (or, when ``fallback`` is set, that
    the degenerate-multiset fallback criterion decided the question).
    """

    points: np.ndarray
    satisfied: bool
    fallback: str | None = None


def _require_regimes(model: RegimeModel) -> None:
    """Refuse a one-regime model: each deleted Gamma^(k) would be empty."""
    if model.d < 2:
        raise ValueError("Condition (C) needs at least two regimes")


def _as_gamma(gamma, model: RegimeModel) -> np.ndarray:
    """Gamma as a d x d float matrix, symmetrised after a 1e-12 symmetry check."""
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("gamma must be a square matrix")
    if np.max(np.abs(g - g.T), initial=0.0) > _SYM_TOL:
        raise ValueError("gamma must be symmetric within 1e-12")
    if g.shape[0] != model.d:
        raise ValueError("gamma dimension does not match the model")
    _require_regimes(model)
    return 0.5 * (g + g.T)


def gamma_k_submatrix(gamma, model: RegimeModel, k: int) -> np.ndarray:
    """Gamma^(k)_ij = (lam_i + lam_j)/2 * (G_ij + G_kk - G_ik - G_jk) without row and column k.

    k is 1-based, matching the regime index convention.  Positive
    definiteness of the returned (d-1) x (d-1) matrix on R^{d-1} is
    equivalent to positive definiteness of Gamma^(k) on e_k-perp.
    """
    g = _as_gamma(gamma, model)
    if not 1 <= k <= model.d:
        raise ValueError(f"regime index k={k} out of range 1..{model.d}")
    return _deleted(g, model.lam, k - 1)


def _deleted(g: np.ndarray, lam: np.ndarray, k: int) -> np.ndarray:
    """gamma_k_submatrix for a checked g and the 0-based index k."""
    w = 0.5 * (lam[:, None] + lam[None, :])
    full = w * (g + g[k, k] - g[k, :][None, :] - g[:, k][:, None])
    keep = [i for i in range(lam.size) if i != k]
    return full[np.ix_(keep, keep)]


def _smallest_eigenvalue(sym: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[0])


def _pd_tol(mat: np.ndarray) -> float:
    return 1e-10 * float(np.max(np.abs(mat), initial=0.0))


def _ztilde(g: np.ndarray, model: RegimeModel) -> np.ndarray | None:
    """Smallest eigenvalue of each deleted Gamma^(k), k = 1..d, for a checked g.

    None unless g is SPD and every Gamma^(k) is PD.  The eigenvalue
    threshold is 1e-10 * ||matrix||_inf per tested matrix, which is robust
    near the boundary of (C).
    """
    if _smallest_eigenvalue(g) <= _pd_tol(g):
        return None
    ztilde = np.empty(model.d)
    for k in range(model.d):
        sub = _deleted(g, model.lam, k)
        ztilde[k] = _smallest_eigenvalue(sub)
        if ztilde[k] <= _pd_tol(sub):
            return None
    return ztilde


def satisfies_condition_c(gamma, model: RegimeModel) -> bool:
    """True iff gamma is SPD and every deleted Gamma^(k) submatrix is PD."""
    return _ztilde(_as_gamma(gamma, model), model) is not None


def criterion_d3(lam) -> D3Report:
    """Exact d = 3 decision: (C) holds iff

        1/sqrt((r1-2)(r2-2)) + 1/sqrt((r2-2)(r3-2)) + 1/sqrt((r1-2)(r3-2)) > 1/4

    with the convention 1/0 = +inf (any repeated lambda value satisfies (C)).
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (3,):
        raise ValueError("the closed-form criterion needs exactly three values")
    if np.any(lam <= 0):
        raise ValueError("variance levels must be positive")
    l1, l2, l3 = (float(v) for v in lam)
    r1 = l3 / l2 + l2 / l3
    r2 = l3 / l1 + l1 / l3
    r3 = l1 / l2 + l2 / l1
    pairs = [(r1, r2), (r2, r3), (r1, r3)]
    lhs = 0.0
    for a, b in pairs:
        prod = (a - 2.0) * (b - 2.0)
        if prod <= 0.0:
            lhs = math.inf
            break
        lhs += 1.0 / math.sqrt(prod)
    return D3Report(r1=r1, r2=r2, r3=r3, lhs=lhs, satisfied=lhs > 0.25)


def criterion_diag(model: RegimeModel, alpha_diag) -> bool:
    """Exact criterion for Gamma = Diag(alpha), only sufficient for (C): for every k,

        2/a_k + sum_{i != k} 1/a_i > sqrt( sum_{i != k} lam_i/a_i * sum_{i != k} 1/(lam_i a_i) ).

    At alpha = 1 this is the identity criterion, exact for Gamma = I_d:

        max_k sqrt( sum_{i != k} lam_i * sum_{i != k} 1/lam_i ) < d + 1.
    """
    _require_regimes(model)
    a = np.asarray(alpha_diag, dtype=float)
    if a.shape != model.lam.shape:
        raise ValueError("alpha_diag must have one entry per regime")
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError("diagonal entries must be positive and finite")
    lam = model.lam
    inv_a = 1.0 / a
    s_la = (lam * inv_a).sum() - lam * inv_a
    s_ia = (inv_a / lam).sum() - inv_a / lam
    lhs = 2.0 * inv_a + (inv_a.sum() - inv_a)
    rhs = np.sqrt(s_la * s_ia)
    return bool(np.all(lhs > rhs))


def _moment_sums(x, y, lam_full: np.ndarray):
    """M_0, M_1, M_-1 at (x, y), summed over the full lambda multiset one level at a time."""
    s0 = s1 = sm1 = 0.0
    for lam in lam_full:
        inv = 1.0 / (2.0 + x * (1.0 / lam) + y * lam)
        s0 += inv
        s1 += inv * lam
        sm1 += inv * (1.0 / lam)
    fac = np.asarray(x) * np.asarray(y) - 1.0
    return fac * s0, fac * s1, fac * sm1


def grid_search_diag(model: RegimeModel, n: int) -> GridSearchReport:
    """Planar grid search for a diagonal matrix satisfying Condition (C).

    Builds (d-1)(n-1)^2 points of the convex polygon with vertices
    (l_i, 1/l_i) (l = sorted distinct lambda values) and keeps those whose
    pulled-back point (X, Y) falls strictly inside the polygon while
    M_0 < 1.  Moment sums run over the full lambda multiset.  Repeated
    lambda values collapse polygon segments and are deduplicated; if fewer
    than three distinct values remain (always so at d = 2) the question is
    delegated to the exact d = 3 criterion or the identity criterion, the
    diagonal criterion at alpha = 1.
    """
    _require_regimes(model)
    if n < 2:
        raise ValueError("grid resolution must be at least 2")
    lam_full = np.sort(model.lam)
    l = np.unique(lam_full)
    empty = np.empty((0, 2))
    if l.size == 2 and model.d == 3:
        return GridSearchReport(points=empty, satisfied=criterion_d3(model.lam).satisfied,
                                fallback="d3")
    if l.size < 3:      # at equal levels the identity criterion always holds
        return GridSearchReport(points=empty, fallback="identity",
                                satisfied=criterion_diag(model, np.ones(model.d)))

    l1, ld = l[0], l[-1]
    hull_slope = 1.0 / (l1 * ld)
    inv_l, chord = 1.0 / l, l[:-1] * l[1:]         # the lower chord of segment j
    k = np.arange(1, n) / n
    found = []
    for i in range(l.size - 1):
        x = l[i] + (l[i + 1] - l[i]) * k                        # (n-1,)
        y_min = (1.0 / l[i]) * (1.0 - k) + (1.0 / l[i + 1]) * k
        y_max = 1.0 / l1 - (x - l1) * hull_slope
        y = y_min[:, None] + (y_max - y_min)[:, None] * k[None, :]    # (n-1, n-1)
        xx = x[:, None]                                          # (n-1, 1)

        m0, m1, mm1 = _moment_sums(xx, y, lam_full)
        ok = m0 < 1.0 - _MARGIN
        denom = np.where(ok, 1.0 - m0, 1.0)
        X = (xx - m1) / denom
        ok &= (X > l1 + _MARGIN) & (X < ld - _MARGIN)
        Xc = np.where(ok, X, l1)
        j = np.clip(np.searchsorted(l, Xc, side="right") - 1, 0, l.size - 2)
        z_min = inv_l[j] - (Xc - l[j]) / chord[j]
        z_max = 1.0 / l1 - (Xc - l1) * hull_slope
        Y = (y - mm1) / denom
        ok &= (Y > z_min + _MARGIN) & (Y < z_max - _MARGIN)
        if np.any(ok):
            found.append(np.column_stack([np.broadcast_to(xx, y.shape)[ok], y[ok]]))
    points = np.concatenate(found) if found else empty
    return GridSearchReport(points=points, satisfied=points.shape[0] > 0)


def sample_domain_states(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random states on the simplex interior and its faces (rows of shape (n, d)).

    Roughly a third of the rows have a random subset of coordinates zeroed,
    which exercises the boundary faces of the domain; rows are never all zero.
    """
    rho = rng.exponential(1.0, size=(n, d))
    kept = rng.random((n, d)) >= 0.35
    kept |= (rng.random(n) < 0.5)[:, None]          # half the rows keep every coordinate
    rho *= kept
    dead = np.flatnonzero(rho @ np.ones(d) == 0.0)   # entries are >= 0
    if dead.size:
        rho[dead, rng.integers(0, d, size=dead.size)] = 1.0
    return rho


def _screening_form(pi: np.ndarray, rho: np.ndarray, xi: np.ndarray, lam: np.ndarray,
                    eps: float) -> np.ndarray:
    """xi' Pi A_eps(rho) xi / xi'xi for each column of the (d, n) arrays rho >= 0 and xi.

    Matrix-free, with u, s, t, c as in a_eps_batch (so c_i = s - lam_i t),
    D = max(eps^2, s^2) and g = Pi' xi:

        (A_eps xi)_i = xi_i / 2 + (u_i (c . xi) - s c_i xi_i) / (2 D),
        xi' Pi A_eps xi = g . xi / 2 + ((c . xi)(g . u) - s (g o c) . xi) / (2 D).

    Each sum over the d regimes is one matrix product, so no numpy loop runs
    along the short axis and the (n, d, d) field is never built.
    """
    w = np.stack([np.ones_like(lam), lam])          # rows: sum over i, sum over lam_i
    t, s = w @ rho
    x1, xl = w @ xi
    g = pi.T @ xi
    g1, gl = w @ (g * xi)
    gu = lam @ (g * rho)
    num = (s * x1 - t * xl) * gu - s * (s * g1 - t * gl)
    form = 0.5 * g1 + num / (2.0 * np.maximum(eps * eps, s * s))
    return form / (w[0] @ (xi * xi))


def sample_quadratic_min(pi: np.ndarray, model: RegimeModel, samples: int,
                         seed: int = 0):
    """Minimum of xi' Pi A(rho) xi / xi'xi over random (rho, xi) pairs.

    Each chunk screens its draws with the matrix-free form on (d, n) arrays
    and re-evaluates the minimising pair through a_eps_batch, the field the
    solver uses.  The chunks run on a pool of min(worker_count(), chunks)
    threads.  Deterministic for a given seed independent of the worker
    count: chunks of _CHUNK draw from spawned child streams and the minima
    are reduced in chunk order.  Returns (min_value, argmin_rho, argmin_xi).
    """
    lam = model.lam
    eps = _EPS_REL * model.lam_min
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)

    def one_chunk(args):
        child, count = args
        rng = np.random.Generator(np.random.Philox(child))
        rho = sample_domain_states(model.d, count, rng)
        xi = rng.normal(size=(count, model.d))
        k = int(np.argmin(_screening_form(pi, rho.T, xi.T, lam, eps)))
        # report the minimiser through the dense field that the solver uses
        rho_k = rho[k:k + 1].copy()
        xi_k = xi[k:k + 1] / np.sqrt((xi[k] * xi[k]).sum())
        a_xi = np.einsum("nij,nj->ni", a_eps_batch(rho_k, lam, eps), xi_k)
        q = np.einsum("ni,ni->n", xi_k, np.einsum("ij,nj->ni", pi, a_xi))
        return float(q[0]), rho_k[0], xi_k[0]

    sizes = [_CHUNK] * (n_chunks - 1) + [samples - _CHUNK * (n_chunks - 1)]
    with ThreadPoolExecutor(max_workers=min(worker_count(), n_chunks)) as pool:
        return min(pool.map(one_chunk, zip(seeds, sizes)), key=lambda r: r[0])


def coercivity_certificate(gamma, model: RegimeModel, samples: int = 100_000,
                           seed: int = 0) -> CoercivityCertificate:
    """Certificate Pi = J_d + eps Gamma with sampled coercivity constant.

    eps is 0.9 times the explicit admissibility bound

        ( d ||G||_inf (1 + lmax/lmin) (1 + d^2 ||G||_inf (1 + lmax/lmin) / (2 z)) )^-1

    where z = min_k z_k / (2 lam_max), z_k = ztilde_k / d, and ztilde_k is the
    smallest eigenvalue of the deleted Gamma^(k) submatrix.  kappa_hat is the
    sampled minimum of the quadratic form, capped at l_min(Pi)/2.
    """
    g = _as_gamma(gamma, model)
    ztilde = _ztilde(g, model)
    if ztilde is None:
        raise CertificateError("gamma does not satisfy Condition (C)")
    d = model.d
    z = float(np.min(ztilde / d) / (2.0 * model.lam_max))
    gnorm = float(np.max(np.abs(g)))
    ratio = 1.0 + model.lam_max / model.lam_min
    bound = 1.0 / (d * gnorm * ratio * (1.0 + d * d * gnorm * ratio / (2.0 * z)))
    eps = 0.9 * bound
    pi = np.ones((d, d)) + eps * g
    kappa, rho_min, xi_min = sample_quadratic_min(pi, model, samples, seed=seed)
    if kappa <= 0.0:
        raise CertificateError(
            "sampled quadratic form is not positive: "
            f"rho={rho_min.tolist()}, xi={xi_min.tolist()}, value={kappa}")
    lmin_pi = float(np.linalg.eigvalsh(pi)[0])
    kappa_hat = min(kappa, 0.5 * lmin_pi)
    return CoercivityCertificate(pi=pi, eps=eps, z=z, kappa_hat=kappa_hat)
