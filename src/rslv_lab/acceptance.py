"""Executable acceptance criteria for the laboratory.

Every criterion is a function of a shared AcceptanceContext (which caches the
expensive runs) that returns its TestReport checks, each pinned to its stated
tolerance.  The CRITERIA table describes each one and may bound its
runtime; run_criterion times a criterion, adds that bound as one more check
and builds its CriterionResult.  The ``verify`` CLI command and the
acceptance test module both run the criteria through it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .condition_c import (coercivity_certificate, criterion_d3, grid_search_diag,
                          sample_domain_states, sample_quadratic_min)
from .dupire import VolSurface
from .fokker_planck import (PDSConfig, SpatialGrid, heat_l1_max, heat_reference,
                            l1_grid_distance, solve_fbm, solve_rslv)
from .particles import SimPlan, price_calls, simulate
from .regime_model import (HorizonConfig, IntensityTable, Measure,
                           RegimeModel, a_eps_batch)
from .stats import (TestReport, bs_call, ks_statistic, l1_hist_distance,
                    moments, normal_cdf)

__all__ = ["Criterion", "CriterionResult", "AcceptanceContext", "CRITERIA",
           "run_criterion", "run_criteria", "format_result"]

# tolerances and reference values pinned once, from independent oracles
HEAT_L1_TOL = 5e-3
NEG_TOL = -1e-8
MASS_TOL = 1e-8
ARONSON_BOUND = 0.31030427095126596        # 1.1 / (2 sqrt(pi))
BS_ATM_REF = 0.07965567455405796           # 2 Phi(0.1) - 1 at sigma=0.2, T=1
N_PARTICLES = 200_000
UNIT_Q = IntensityTable(rates=np.array([[0.0, 1.0], [1.0, 0.0]]))   # unit-rate 2x2 switching


@dataclass(frozen=True)
class Criterion:
    """A row of CRITERIA: what ``check`` proves and the runtime bound in
    seconds that run_criterion checks it against (None for none)."""

    description: str
    check: Callable[[AcceptanceContext], list]
    max_runtime: float | None = None


@dataclass
class CriterionResult:
    name: str
    description: str
    reports: list
    runtime: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


class AcceptanceContext:
    """Lazily computed shared artifacts (particle runs, reference solves)."""

    # d = 2, lam = (1, 4), the workhorse regime model
    @cached_property
    def model_14(self) -> RegimeModel:
        return RegimeModel(lam=[1.0, 4.0], alpha=[0.5, 0.5])

    @staticmethod
    def particles(model, checkpoints, surface=None):
        """N_PARTICLES from the point 0 to T = 1 at r = 0, with dt 1e-3 and seed 2024."""
        plan = SimPlan(dt=1e-3, n_particles=N_PARTICLES, checkpoints=checkpoints, seed=2024)
        return simulate(model, plan, HorizonConfig(T=1.0, r=0.0),
                        initial=Measure.point(0.0), surface=surface)

    @cached_property
    def fbm_run(self):
        return self.particles(self.model_14, (0.5, 1.0))

    @cached_property
    def fbm_control_run(self):
        return self.particles(RegimeModel(lam=[1.0, 1.0], alpha=[0.5, 0.5]), (0.5, 1.0))

    @cached_property
    def fbm_pde_sharp(self):
        grid = SpatialGrid(L=6.0, m=1201)
        cfg = PDSConfig(dt=1e-4, sigma_mollify=0.02, output_times=(0.5, 1.0))
        return solve_fbm(self.model_14, cfg, grid, HorizonConfig(T=1.0, r=0.0),
                         Measure.point(0.0))


def criterion_01_figure_grid(ctx: AcceptanceContext) -> list:
    """check-c grid search for lam = (1, 2, 3, 5, 10), n = 200: nonempty."""
    from . import cli
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "points.csv")
        with contextlib.redirect_stdout(io.StringIO()):    # check-c's own verdict line
            code = cli.main(["check-c", "--lambda", "1,2,3,5,10", "--method", "grid",
                             "--n", "200", "--out", out])
        n_points = 0
        if os.path.exists(out):
            with open(out) as fh:
                n_points = sum(1 for _ in fh) - 1
    return [
        TestReport.check(code, 0, 1, "check-c exit code is 0 (SATISFIED)"),
        TestReport.check(-n_points, -1, n_points, "grid point set is nonempty (negated count)"),
    ]


def criterion_02_d3_exactness(ctx: AcceptanceContext) -> list:
    """Grid search (n=400) agrees with the exact d=3 criterion on 100 triples."""
    rng = np.random.default_rng(31415)
    checked = agree = 0
    while checked < 100:
        lam = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3))
        rep = criterion_d3(lam)
        if not math.isfinite(rep.lhs) or abs(rep.lhs - 0.25) <= 0.01:
            continue
        checked += 1
        model = RegimeModel(lam=np.sort(lam), alpha=np.full(3, 1.0 / 3.0))
        if grid_search_diag(model, 400).satisfied == rep.satisfied:
            agree += 1
    return [TestReport.check(100 - agree, 0, checked,
                             "exact agreement on all margin-filtered triples")]


def criterion_03_matrix_identities(ctx: AcceptanceContext) -> list:
    """Column sums, entry bounds and regularisation identities on 1e5 states."""
    rng = np.random.default_rng(777)
    reports = []
    for lam in (np.array([1.0, 4.0]), np.array([0.5, 1.0, 2.0, 4.0, 8.0])):
        d = lam.size
        n = 50_000
        rho = sample_domain_states(d, n, rng)
        s = rho @ lam
        bound = 0.5 * (1.0 + lam.max() / lam.min())
        # unregularised field on D (eps far below any sampled sum)
        a = a_eps_batch(rho, lam, eps=1e-14 * float(s.min()))
        col_m = np.abs(2.0 * a.sum(axis=1) - 1.0).max()   # column sums of M via A
        reports.append(TestReport.check(col_m, 1e-12, n, f"d={d}: column sums of M vanish"))
        reports.append(TestReport.check(float(np.abs(a).max()), bound + 1e-12, n,
                                        f"d={d}: |A_ij| within the uniform bound"))
        eps_r = rng.uniform(0.0, 1.0, n) * s              # eps <= sum lam rho
        eps_val = float(np.min(eps_r[eps_r > 0]))
        a_eps = a_eps_batch(rho, lam, eps_val)
        col_me = np.abs(2.0 * a_eps.sum(axis=1) - 1.0).max()
        reports.append(TestReport.check(col_me, 1e-12, n, f"d={d}: column sums of M_eps vanish"))
        reports.append(TestReport.check(float(np.abs(a_eps).max()), bound + 1e-12, n,
                                        f"d={d}: |A_eps_ij| within the uniform bound"))
        diff = float(np.abs(a_eps - a).max())
        reports.append(TestReport.check(diff, 1e-12, n,
                                        f"d={d}: A_eps equals A when eps <= sum lam rho"))
        a0 = a_eps_batch(np.zeros((1, d)), lam, 1.0)[0]
        reports.append(TestReport.check(float(np.abs(a0 - 0.5 * np.eye(d)).max()), 1e-15, 1,
                                        f"d={d}: A_eps(0) = I/2"))
    return reports


def criterion_04_certificate(ctx: AcceptanceContext) -> list:
    """Certificate for d=2, lam=(1,4), Gamma=I: kappa_hat > 0 and 1e6 fresh samples positive."""
    cert = coercivity_certificate(np.eye(2), ctx.model_14, samples=100_000, seed=7)
    fresh_min, _, _ = sample_quadratic_min(cert.pi, ctx.model_14, 1_000_000, seed=986923)
    return [
        TestReport.check(-cert.kappa_hat, 0.0, 100_000, "kappa_hat > 0 (negated)"),
        TestReport.check(-fresh_min, 0.0, 1_000_000,
                         "1e6 fresh quadratic forms strictly positive (negated min)"),
    ]


def _fbm_heat_metrics(model, grid, dt):
    cfg = PDSConfig(dt=dt, sigma_mollify=math.sqrt(0.1), n_outputs=11)
    start = Measure.point(0.0)
    sol = solve_fbm(model, cfg, grid, HorizonConfig(T=1.0, r=0.0), start)
    return heat_l1_max(sol, heat_reference(sol, start, cfg.sigma_mollify)), sol


def criterion_05_fbm_vs_heat(ctx: AcceptanceContext) -> list:
    """Sub-density sum tracks the heat kernel; refinement halves the error."""
    t0 = time.perf_counter()
    err, sol = _fbm_heat_metrics(ctx.model_14, SpatialGrid(L=6.0, m=1201), 1e-4)
    main_time = time.perf_counter() - t0
    masses = sol.diagnostics.masses
    mass_drift = float(np.abs(masses - masses[0]).max())
    err_fine, _ = _fbm_heat_metrics(ctx.model_14, SpatialGrid(L=6.0, m=2401), 5e-5)
    return [
        TestReport.check(err, HEAT_L1_TOL, sol.diagnostics.n_steps,
                         "max-over-time L1 against the heat reference"),
        TestReport.check(-float(sol.diagnostics.min_value.min()), -NEG_TOL,
                         sol.grid.m, "min nodal value >= -1e-8 (negated)"),
        TestReport.check(mass_drift, MASS_TOL, sol.diagnostics.n_steps,
                         "per-state masses constant to 1e-8"),
        TestReport.check(main_time, 120.0, 1, "main solve below 120 s"),
        TestReport.check(-err / err_fine, -2.0, 1,
                         "halving (h, dt) reduces the L1 error by >= 2x (negated ratio)"),
    ]


def criterion_06_rslv_closure(ctx: AcceptanceContext) -> list:
    """Sum of the coupled system matches the scalar solve (the one-regime model)."""
    model = RegimeModel(lam=[1.0, 4.0], alpha=[0.5, 0.5], q=UNIT_Q)
    grid = SpatialGrid(L=6.0, m=1201)
    hor = HorizonConfig(T=1.0, r=0.01)
    surf = VolSurface.constant(0.2)
    cfg = PDSConfig(dt=1e-3, sigma_mollify=math.sqrt(0.1), n_outputs=11)
    sol = solve_rslv(model, cfg, grid, hor, surf, Measure.point(0.0))
    scalar = RegimeModel(lam=[1.0], alpha=[1.0])
    ref = solve_rslv(scalar, cfg, grid, hor, surf, Measure.point(0.0))
    dist = max(l1_grid_distance(grid, sol.total_density(k), ref.p[k, 0])
               for k in range(len(sol.times)))
    total = sol.diagnostics.masses.sum(axis=1)
    drift = float(np.abs(total - total[0]).max())
    return [
        TestReport.check(dist, HEAT_L1_TOL, sol.diagnostics.n_steps,
                         "L1(sum p - scalar solve) over all outputs"),
        TestReport.check(drift, MASS_TOL, sol.diagnostics.n_steps,
                         "total mass constant to 1e-8"),
    ]


def criterion_07_aronson(ctx: AcceptanceContext) -> list:
    """sqrt(t) ||u(t)||^2 stays below 1.1x the exact Gaussian value."""
    grid = SpatialGrid(L=6.0, m=1201)
    cfg = PDSConfig(dt=1e-4, sigma_mollify=0.02,
                    output_times=tuple(np.linspace(0.1, 1.0, 19)))
    scalar = RegimeModel(lam=[1.0], alpha=[1.0])
    sol = solve_rslv(scalar, cfg, grid, HorizonConfig(T=1.0, r=0.0),
                     VolSurface.constant(1.0), Measure.point(0.0))
    vals = [math.sqrt(t) * sol.diagnostics.l2[k, 0] ** 2
            for k, t in enumerate(sol.times) if t >= 0.1 - 1e-12]
    return [TestReport.check(max(vals), ARONSON_BOUND, len(vals),
                             "sup over [0.1, 1] of sqrt(t) ||u||_L2^2")]


def _marginal_reports(tag, res):
    x = res.X[-1]
    ks = ks_statistic(x, normal_cdf)
    mo = moments(x)
    return [
        TestReport.check(ks, 0.01, x.size, f"{tag}: KS(X_T, N(0,1))"),
        TestReport.check(abs(mo.var - 1.0), 0.02, x.size, f"{tag}: |Var(X_T) - 1|"),
        TestReport.check(abs(mo.m4 - 3.0), 0.15, x.size, f"{tag}: |m4 - 3|"),
    ]


def criterion_08_fake_bm_marginals(ctx: AcceptanceContext) -> list:
    """Terminal marginals of the particle run are standard normal."""
    return (_marginal_reports("lam=(1,4)", ctx.fbm_run)
            + _marginal_reports("control lam=(1,1)", ctx.fbm_control_run))


def criterion_09_qv_signature(ctx: AcceptanceContext) -> list:
    """Quadratic variation disperses across paths except in the control."""
    std_main = float(ctx.fbm_run.qv[-1].std())
    std_ctrl = float(ctx.fbm_control_run.qv[-1].std())
    return [
        TestReport.check(-std_main, -0.1, N_PARTICLES,
                         "qv_T spread >= 0.1 for lam=(1,4) (negated std)"),
        TestReport.check(std_ctrl, 0.01, N_PARTICLES, "qv_T spread <= 0.01 for lam=(1,1)"),
    ]


def criterion_10_cross_validation(ctx: AcceptanceContext) -> list:
    """Per-regime particle histograms match the grid solver sub-densities."""
    sol = ctx.fbm_pde_sharp
    res = ctx.fbm_run
    grid = sol.grid
    reports = []
    for t in (0.5, 1.0):
        xt, yt, _ = res.at_time(t)
        pk = sol.at_time(t)
        for i in (0, 1):
            xs = xt[yt == i]
            dens = pk[i]
            mass = float(np.trapezoid(dens, grid.x))
            dist = l1_hist_distance(xs, lambda c, dv=dens, mm=mass:
                                    np.interp(c, grid.x, dv / mm), bins=100)
            reports.append(TestReport.check(dist, 0.05, xs.size,
                                            f"t={t}, regime {i + 1}: histogram L1"))
    return reports


def criterion_11_calibration(ctx: AcceptanceContext) -> list:
    """Flat-vol coupled model reprices vanilla calls at the Black-Scholes values."""
    model = RegimeModel(lam=[0.25, 4.0], alpha=[0.5, 0.5], q=UNIT_Q)
    res = ctx.particles(model, (1.0,), surface=VolSurface.constant(0.2))
    reports = []
    for k, price, se in price_calls(res.X[-1], [0.8, 1.0, 1.2], r=0.0, T=1.0):
        ref = bs_call(1.0, k, 0.2, 1.0)
        reports.append(TestReport.check(abs(price - ref), 3.0 * se, N_PARTICLES,
                                        f"K={k}: |price - BS| within 3 stderr"))
    ref_atm = bs_call(1.0, 1.0, 0.2, 1.0)
    reports.append(TestReport.check(abs(ref_atm - BS_ATM_REF), 1e-12, 1,
                                    "ATM oracle equals the frozen reference"))
    return reports


def criterion_12_jump_fake_bm(ctx: AcceptanceContext) -> list:
    """Jump-regime dynamics keep Gaussian marginals and balanced occupation."""
    model = RegimeModel(lam=[1.0, 4.0], alpha=[0.5, 0.5], q=UNIT_Q)
    res = ctx.particles(model, (0.25, 0.5, 0.75, 1.0))
    ks = ks_statistic(res.X[-1], normal_cdf)
    band = 4.0 / math.sqrt(N_PARTICLES)
    occ_dev = float(np.abs(res.occupancy[:, 0] - 0.5).max())
    return [
        TestReport.check(ks, 0.01, N_PARTICLES, "KS(X_T, N(0, T))"),
        TestReport.check(occ_dev, band, N_PARTICLES,
                         "regime-1 occupation within 1/2 +/- 4/sqrt(N) at all checkpoints"),
    ]


CRITERIA = {
    "c01": Criterion("figure grid reproduction (d=5)", criterion_01_figure_grid, 5.0),
    "c02": Criterion("d=3 grid search equals closed form", criterion_02_d3_exactness, 60.0),
    "c03": Criterion("matrix-field identities on 1e5 random states",
                     criterion_03_matrix_identities),
    "c04": Criterion("coercivity certificate soundness", criterion_04_certificate, 30.0),
    "c05": Criterion("driftless solver vs heat kernel", criterion_05_fbm_vs_heat),
    "c06": Criterion("coupled-vs-scalar closure", criterion_06_rslv_closure),
    "c07": Criterion("Aronson-type decay of the scalar solve", criterion_07_aronson),
    "c08": Criterion("fake-BM particle marginals", criterion_08_fake_bm_marginals, 300.0),
    "c09": Criterion("quadratic-variation signature", criterion_09_qv_signature),
    "c10": Criterion("particle vs solver cross-validation", criterion_10_cross_validation),
    "c11": Criterion("flat-vol calibration vs Black-Scholes", criterion_11_calibration),
    "c12": Criterion("jump-regime fake BM", criterion_12_jump_fake_bm),
}

def _margin(r: TestReport) -> float:
    """Slack of a check relative to its threshold; absolute for a zero threshold."""
    slack = r.threshold - r.statistic
    return slack / abs(r.threshold) if r.threshold != 0 else slack


def format_result(res: CriterionResult) -> str:
    """One line per criterion, naming its failed or smallest-margin check."""
    mark = "PASS" if res.passed else "FAIL"
    worst = min(res.reports, key=lambda r: (r.passed, _margin(r)))
    return (f"[{mark}] {res.name} {res.description} "
            f"({len(res.reports)} checks, {res.runtime:.1f}s; "
            f"binding: {worst.description}: {worst.statistic:.6g} vs {worst.threshold:.6g}, "
            f"margin {_margin(worst):.2g})")


def run_criterion(name: str, ctx: AcceptanceContext) -> CriterionResult:
    """Run criterion ``name`` on ``ctx``, timed, with its runtime bound as a last check."""
    entry = CRITERIA[name]
    t0 = time.perf_counter()
    reports = entry.check(ctx)
    runtime = time.perf_counter() - t0
    if entry.max_runtime is not None:
        reports.append(TestReport.check(runtime, entry.max_runtime, 1,
                                        f"runtime below {entry.max_runtime:g} s"))
    return CriterionResult(name, entry.description, reports, runtime)


def run_criteria(names=None):
    """Run the selected criteria (default all), printing one line each."""
    ctx = AcceptanceContext()
    results = []
    for name in CRITERIA if names is None else names:
        results.append(run_criterion(name, ctx))
        print(format_result(results[-1]))
    return results
