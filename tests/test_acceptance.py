"""Acceptance gate: every criterion at its stated tolerance, one line each.

Heavy artifacts (particle runs, reference solves) are shared through a
session-scoped context so the suite runs each expensive simulation once.
"""

import math

import pytest

from rslv_lab import acceptance
from rslv_lab.stats import TestReport


@pytest.fixture(scope="session")
def ctx():
    return acceptance.AcceptanceContext()


def _run(name, ctx):
    result = acceptance.run_criterion(name, ctx)
    print(acceptance.format_result(result))
    for rep in result.reports:
        assert rep.passed, (f"{name}: {rep.description}: "
                            f"{rep.statistic:.6g} vs {rep.threshold:.6g}")
    return result


def test_format_result_names_the_smallest_relative_margin():
    reports = [TestReport.check(2.3e-13, 1e-8, 1, "mass drift"),
               TestReport.check(-2.04918, -2.0, 1, "refinement"),
               TestReport.check(-0.5, 0.0, 1, "zero threshold")]

    def line():
        return acceptance.format_result(
            acceptance.CriterionResult("c99", "demo", reports, 0.0))

    assert line().startswith("[PASS] c99 demo")
    assert line().endswith("binding: refinement: -2.04918 vs -2, margin 0.025)")
    # a zero threshold keeps the absolute slack
    reports.append(TestReport.check(-0.01, 0.0, 1, "near zero"))
    assert "binding: near zero: -0.01 vs 0, margin 0.01)" in line()
    # a failed check wins, even one whose statistic is not a number
    reports.append(TestReport.check(math.nan, 1.0, 1, "undefined"))
    assert line().startswith("[FAIL] c99")
    assert "binding: undefined: nan vs 1" in line()


def test_run_criterion_adds_the_runtime_bound_as_the_last_check(monkeypatch):
    def check(ctx):
        return [TestReport.check(0.0, 1.0, 1, "demo")]

    monkeypatch.setitem(acceptance.CRITERIA, "c98", acceptance.Criterion("bounded", check, 60.0))
    monkeypatch.setitem(acceptance.CRITERIA, "c99", acceptance.Criterion("free", check))
    res = acceptance.run_criterion("c98", None)
    assert (res.name, res.description, res.passed) == ("c98", "bounded", True)
    assert [r.description for r in res.reports] == ["demo", "runtime below 60 s"]
    assert res.reports[-1].statistic == res.runtime
    assert [r.description for r in acceptance.run_criterion("c99", None).reports] == ["demo"]


def test_c01_figure_grid_reproduction(ctx):
    _run("c01", ctx)


def test_c02_d3_exactness(ctx):
    _run("c02", ctx)


def test_c03_matrix_field_identities(ctx):
    _run("c03", ctx)


def test_c04_coercivity_certificate(ctx):
    _run("c04", ctx)


def test_c05_fbm_solver_vs_heat_kernel(ctx):
    _run("c05", ctx)


def test_c06_rslv_solver_closure(ctx):
    _run("c06", ctx)


def test_c07_aronson_decay(ctx):
    _run("c07", ctx)


def test_c08_fake_bm_marginals(ctx):
    _run("c08", ctx)


def test_c09_quadratic_variation_signature(ctx):
    _run("c09", ctx)


def test_c10_particle_pde_cross_validation(ctx):
    _run("c10", ctx)


def test_c11_rslv_calibration(ctx):
    _run("c11", ctx)


def test_c12_jump_fake_bm(ctx):
    _run("c12", ctx)
