"""Executable acceptance criteria for the laboratory.

Every criterion is a function of a shared AcceptanceContext (which caches the
expensive runs) and returns a CriterionResult made of TestReport entries,
each pinned to its stated tolerance.  The same functions back both the
``verify`` CLI command and the acceptance test module.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .condition_c import (coercivity_certificate, criterion_d3, grid_search_diag,
                          sample_domain_states, sample_quadratic_min)
from .dupire import VolSurface
from .fokker_planck import (PDSConfig, SpatialGrid, l1_grid_distance,
                            solve_fbm, solve_lv, solve_rslv)
from .particles import SimPlan, price_calls, simulate
from .regime_model import (HorizonConfig, IntensityTable, Measure,
                           RegimeModel, a_eps_batch)
from .stats import (TestReport, bs_call, ks_statistic, l1_hist_distance,
                    moments, normal_cdf)

__all__ = ["CriterionResult", "AcceptanceContext", "CRITERIA", "SUITES",
           "run_criteria", "format_result"]

# tolerances and reference values pinned once, from independent oracles
HEAT_L1_TOL = 5e-3
NEG_TOL = -1e-8
MASS_TOL = 1e-8
ARONSON_BOUND = 0.31030427095126596        # 1.1 / (2 sqrt(pi))
BS_ATM_REF = 0.07965567455405796           # 2 Phi(0.1) - 1 at sigma=0.2, T=1
N_PARTICLES = 200_000


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

    @cached_property
    def fbm_run(self):
        plan = SimPlan(dt=1e-3, n_particles=N_PARTICLES, checkpoints=(0.5, 1.0), seed=2024)
        return simulate(self.model_14, plan, HorizonConfig(T=1.0, r=0.0),
                        initial=Measure.point(0.0))

    @cached_property
    def fbm_control_run(self):
        model = RegimeModel(lam=[1.0, 1.0], alpha=[0.5, 0.5])
        plan = SimPlan(dt=1e-3, n_particles=N_PARTICLES, checkpoints=(0.5, 1.0), seed=2024)
        return simulate(model, plan, HorizonConfig(T=1.0, r=0.0),
                        initial=Measure.point(0.0))

    @cached_property
    def fbm_pde_sharp(self):
        grid = SpatialGrid(L=6.0, m=1201)
        cfg = PDSConfig(dt=1e-4, sigma_mollify=0.02, output_times=(0.5, 1.0))
        return solve_fbm(self.model_14, cfg, grid, HorizonConfig(T=1.0, r=0.0),
                         Measure.point(0.0))


def criterion_01_figure_grid(ctx: AcceptanceContext) -> CriterionResult:
    """check-c grid search for lam = (1, 2, 3, 5, 10), n = 200: nonempty, < 5 s."""
    from . import cli
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "points.csv")
        code = cli.main(["check-c", "--lambda", "1,2,3,5,10", "--method", "grid",
                         "--n", "200", "--out", out])
        n_points = 0
        if os.path.exists(out):
            with open(out) as fh:
                n_points = sum(1 for _ in fh) - 1
    elapsed = time.perf_counter() - t0
    reports = [
        TestReport.check(code, 0, 1, "check-c exit code is 0 (SATISFIED)"),
        TestReport.check(-n_points, -1, n_points, "grid point set is nonempty (negated count)"),
        TestReport.check(elapsed, 5.0, 1, "runtime below 5 s"),
    ]
    return CriterionResult("c01", "figure grid reproduction (d=5)", reports,
                           elapsed)


def criterion_02_d3_exactness(ctx: AcceptanceContext) -> CriterionResult:
    """Grid search (n=400) agrees with the exact d=3 criterion on 100 triples."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    reports = [
        TestReport.check(100 - agree, 0, checked, "exact agreement on all margin-filtered triples"),
        TestReport.check(elapsed, 60.0, checked, "runtime below 60 s"),
    ]
    return CriterionResult("c02", "d=3 grid search equals closed form", reports, elapsed)


def criterion_03_matrix_identities(ctx: AcceptanceContext) -> CriterionResult:
    """Column sums, entry bounds and regularisation identities on 1e5 states."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    return CriterionResult("c03", "matrix-field identities on 1e5 random states",
                           reports, elapsed)


def criterion_04_certificate(ctx: AcceptanceContext) -> CriterionResult:
    """Certificate for d=2, lam=(1,4), Gamma=I: kappa_hat > 0 and 1e6 fresh samples positive."""
    t0 = time.perf_counter()
    cert = coercivity_certificate(np.eye(2), ctx.model_14, samples=100_000, seed=7)
    fresh_min, _, _ = sample_quadratic_min(cert.pi, ctx.model_14, 1_000_000, seed=986923)
    elapsed = time.perf_counter() - t0
    reports = [
        TestReport.check(-cert.kappa_hat, 0.0, 100_000, "kappa_hat > 0 (negated)"),
        TestReport.check(-fresh_min, 0.0, 1_000_000,
                         "1e6 fresh quadratic forms strictly positive (negated min)"),
        TestReport.check(elapsed, 30.0, 1_000_000, "runtime below 30 s"),
    ]
    return CriterionResult("c04", "coercivity certificate soundness", reports, elapsed)


def _fbm_heat_metrics(model, grid, dt):
    cfg = PDSConfig(dt=dt, sigma_mollify=math.sqrt(0.1), n_outputs=11)
    sol = solve_fbm(model, cfg, grid, HorizonConfig(T=1.0, r=0.0), Measure.point(0.0))
    errs = []
    for k, t in enumerate(sol.times):
        if t == 0:
            continue
        v = 0.1 + t
        ref = np.exp(-grid.x ** 2 / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)
        errs.append(l1_grid_distance(grid, sol.total_density(k), ref))
    return max(errs), sol


def criterion_05_fbm_vs_heat(ctx: AcceptanceContext) -> CriterionResult:
    """Sub-density sum tracks the heat kernel; refinement halves the error."""
    t0 = time.perf_counter()
    err, sol = _fbm_heat_metrics(ctx.model_14, SpatialGrid(L=6.0, m=1201), 1e-4)
    main_time = time.perf_counter() - t0
    masses = sol.diagnostics.masses
    mass_drift = float(np.abs(masses - masses[0]).max())
    err_fine, _ = _fbm_heat_metrics(ctx.model_14, SpatialGrid(L=6.0, m=2401), 5e-5)
    elapsed = time.perf_counter() - t0
    reports = [
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
    return CriterionResult("c05", "driftless solver vs heat kernel", reports, elapsed)


def criterion_06_rslv_closure(ctx: AcceptanceContext) -> CriterionResult:
    """Sum of the coupled system matches the independent scalar solve."""
    t0 = time.perf_counter()
    q = IntensityTable(rates=np.array([[0.0, 1.0], [1.0, 0.0]]))
    model = RegimeModel(lam=[1.0, 4.0], alpha=[0.5, 0.5], q=q)
    grid = SpatialGrid(L=6.0, m=1201)
    hor = HorizonConfig(T=1.0, r=0.01)
    surf = VolSurface.constant(0.2)
    cfg = PDSConfig(dt=1e-3, sigma_mollify=math.sqrt(0.1), n_outputs=11)
    sol = solve_rslv(model, cfg, grid, hor, surf, Measure.point(0.0))
    ref = solve_lv(cfg, grid, hor, surf, Measure.point(0.0))
    dist = max(l1_grid_distance(grid, sol.total_density(k), ref.p[k, 0])
               for k in range(len(sol.times)))
    total = sol.diagnostics.masses.sum(axis=1)
    drift = float(np.abs(total - total[0]).max())
    elapsed = time.perf_counter() - t0
    reports = [
        TestReport.check(dist, HEAT_L1_TOL, sol.diagnostics.n_steps,
                         "L1(sum p - scalar solve) over all outputs"),
        TestReport.check(drift, MASS_TOL, sol.diagnostics.n_steps,
                         "total mass constant to 1e-8"),
    ]
    return CriterionResult("c06", "coupled-vs-scalar closure", reports, elapsed)


def criterion_07_aronson(ctx: AcceptanceContext) -> CriterionResult:
    """sqrt(t) ||u(t)||^2 stays below 1.1x the exact Gaussian value."""
    t0 = time.perf_counter()
    grid = SpatialGrid(L=6.0, m=1201)
    cfg = PDSConfig(dt=1e-4, sigma_mollify=0.02,
                    output_times=tuple(np.linspace(0.1, 1.0, 19)))
    sol = solve_lv(cfg, grid, HorizonConfig(T=1.0, r=0.0),
                   VolSurface.constant(1.0), Measure.point(0.0))
    vals = [math.sqrt(t) * sol.diagnostics.l2[k, 0] ** 2
            for k, t in enumerate(sol.times) if t >= 0.1 - 1e-12]
    elapsed = time.perf_counter() - t0
    reports = [TestReport.check(max(vals), ARONSON_BOUND, len(vals),
                                "sup over [0.1, 1] of sqrt(t) ||u||_L2^2")]
    return CriterionResult("c07", "Aronson-type decay of the scalar solve", reports, elapsed)


def _marginal_reports(tag, res):
    x = res.X[-1]
    ks = ks_statistic(x, normal_cdf)
    mo = moments(x)
    return [
        TestReport.check(ks, 0.01, x.size, f"{tag}: KS(X_T, N(0,1))"),
        TestReport.check(abs(mo.var - 1.0), 0.02, x.size, f"{tag}: |Var(X_T) - 1|"),
        TestReport.check(abs(mo.m4 - 3.0), 0.15, x.size, f"{tag}: |m4 - 3|"),
    ]


def criterion_08_fake_bm_marginals(ctx: AcceptanceContext) -> CriterionResult:
    """Terminal marginals of the particle run are standard normal."""
    t0 = time.perf_counter()
    reports = _marginal_reports("lam=(1,4)", ctx.fbm_run)
    reports += _marginal_reports("control lam=(1,1)", ctx.fbm_control_run)
    elapsed = time.perf_counter() - t0
    reports.append(TestReport.check(elapsed, 300.0, N_PARTICLES, "runtime below 5 min"))
    return CriterionResult("c08", "fake-BM particle marginals", reports, elapsed)


def criterion_09_qv_signature(ctx: AcceptanceContext) -> CriterionResult:
    """Quadratic variation disperses across paths except in the control."""
    t0 = time.perf_counter()
    std_main = float(ctx.fbm_run.qv[-1].std())
    std_ctrl = float(ctx.fbm_control_run.qv[-1].std())
    elapsed = time.perf_counter() - t0
    reports = [
        TestReport.check(-std_main, -0.1, N_PARTICLES,
                         "qv_T spread >= 0.1 for lam=(1,4) (negated std)"),
        TestReport.check(std_ctrl, 0.01, N_PARTICLES, "qv_T spread <= 0.01 for lam=(1,1)"),
    ]
    return CriterionResult("c09", "quadratic-variation signature", reports, elapsed)


def criterion_10_cross_validation(ctx: AcceptanceContext) -> CriterionResult:
    """Per-regime particle histograms match the grid solver sub-densities."""
    t0 = time.perf_counter()
    sol = ctx.fbm_pde_sharp
    res = ctx.fbm_run
    grid = sol.grid
    reports = []
    for t in (0.5, 1.0):
        xt, yt, _ = res.at_time(t)
        pk = sol.at_time(t)
        for i in (1, 2):
            xs = xt[yt == i]
            dens = pk[i - 1]
            mass = float(np.trapezoid(dens, grid.x))
            dist = l1_hist_distance(xs, lambda c, dv=dens, mm=mass:
                                    np.interp(c, grid.x, dv / mm), bins=100)
            reports.append(TestReport.check(dist, 0.05, xs.size,
                                            f"t={t}, regime {i}: histogram L1"))
    elapsed = time.perf_counter() - t0
    return CriterionResult("c10", "particle vs solver cross-validation", reports, elapsed)


def criterion_11_calibration(ctx: AcceptanceContext) -> CriterionResult:
    """Flat-vol coupled model reprices vanilla calls at the Black-Scholes values."""
    t0 = time.perf_counter()
    q = IntensityTable(rates=np.array([[0.0, 1.0], [1.0, 0.0]]))
    model = RegimeModel(lam=[0.25, 4.0], alpha=[0.5, 0.5], q=q)
    plan = SimPlan(dt=1e-3, n_particles=N_PARTICLES, checkpoints=(1.0,), seed=2024)
    res = simulate(model, plan, HorizonConfig(T=1.0, r=0.0),
                   initial=Measure.point(0.0), surface=VolSurface.constant(0.2))
    reports = []
    for k, price, se in price_calls(res.X[-1], [0.8, 1.0, 1.2], r=0.0, T=1.0):
        ref = bs_call(1.0, k, 0.2, 1.0)
        reports.append(TestReport.check(abs(price - ref), 3.0 * se, N_PARTICLES,
                                        f"K={k}: |price - BS| within 3 stderr"))
    ref_atm = bs_call(1.0, 1.0, 0.2, 1.0)
    reports.append(TestReport.check(abs(ref_atm - BS_ATM_REF), 1e-12, 1,
                                    "ATM oracle equals the frozen reference"))
    elapsed = time.perf_counter() - t0
    return CriterionResult("c11", "flat-vol calibration vs Black-Scholes", reports, elapsed)


def criterion_12_jump_fake_bm(ctx: AcceptanceContext) -> CriterionResult:
    """Jump-regime dynamics keep Gaussian marginals and balanced occupation."""
    t0 = time.perf_counter()
    q = IntensityTable(rates=np.array([[0.0, 1.0], [1.0, 0.0]]))
    model = RegimeModel(lam=[1.0, 4.0], alpha=[0.5, 0.5], q=q)
    plan = SimPlan(dt=1e-3, n_particles=N_PARTICLES,
                   checkpoints=(0.25, 0.5, 0.75, 1.0), seed=2024)
    res = simulate(model, plan, HorizonConfig(T=1.0, r=0.0),
                   initial=Measure.point(0.0))
    ks = ks_statistic(res.X[-1], normal_cdf)
    band = 4.0 / math.sqrt(N_PARTICLES)
    occ_dev = float(np.abs(res.occupancy[:, 0] - 0.5).max())
    elapsed = time.perf_counter() - t0
    reports = [
        TestReport.check(ks, 0.01, N_PARTICLES, "KS(X_T, N(0, T))"),
        TestReport.check(occ_dev, band, N_PARTICLES,
                         "regime-1 occupation within 1/2 +/- 4/sqrt(N) at all checkpoints"),
    ]
    return CriterionResult("c12", "jump-regime fake BM", reports, elapsed)


CRITERIA = {
    "c01": criterion_01_figure_grid,
    "c02": criterion_02_d3_exactness,
    "c03": criterion_03_matrix_identities,
    "c04": criterion_04_certificate,
    "c05": criterion_05_fbm_vs_heat,
    "c06": criterion_06_rslv_closure,
    "c07": criterion_07_aronson,
    "c08": criterion_08_fake_bm_marginals,
    "c09": criterion_09_qv_signature,
    "c10": criterion_10_cross_validation,
    "c11": criterion_11_calibration,
    "c12": criterion_12_jump_fake_bm,
}

SUITES = {
    "all": list(CRITERIA),
    "condition-c": ["c01", "c02", "c03", "c04"],
    "pde": ["c05", "c06", "c07"],
    "particles": ["c08", "c09", "c10", "c11", "c12"],
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


def run_criteria(names=None):
    """Run the selected criteria (default all), printing one line each."""
    ctx = AcceptanceContext()
    names = list(CRITERIA) if names is None else list(names)
    results = []
    for name in names:
        res = CRITERIA[name](ctx)
        results.append(res)
        print(format_result(res))
    return results
