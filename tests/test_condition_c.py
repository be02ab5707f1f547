"""Condition (C) criteria, the planar grid search and coercivity certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rslv_lab import condition_c
from rslv_lab.condition_c import (
    CertificateError, coercivity_certificate, criterion_d3, criterion_diag,
    gamma_k_submatrix, grid_search_diag, sample_quadratic_min, satisfies_condition_c,
)
from rslv_lab.regime_model import RegimeModel, a_eps_batch
from test_scripts import load_script

# the recovery of a diagonal from a grid point lives in its one caller, the map script
condition_c_map = load_script("condition_c_map")
RecoveryFailure = condition_c_map.RecoveryFailure
recover_alpha_from_point = condition_c_map.recover_alpha_from_point

# frozen from the sampling run with seed 7 and 1e5 draws
KAPPA_HAT_REGRESSION = 0.00013884794555569613
# frozen high-precision value of the d=3 criterion sum at (1, 100, 10000)
D3_LHS_EXTREME = 0.0122234445666789


def uniform_model(lam):
    lam = np.asarray(lam, dtype=float)
    return RegimeModel(lam=lam, alpha=np.full(lam.size, 1.0 / lam.size))


def outer_moment_sums(x, y, lam_full):
    """The moment sums through (..., d) outer-product arrays: the reference form."""
    inv = 1.0 / (2.0 + np.multiply.outer(x, 1.0 / lam_full) + np.multiply.outer(y, lam_full))
    fac = np.asarray(x) * np.asarray(y) - 1.0
    return fac * inv.sum(axis=-1), fac * (inv @ lam_full), fac * (inv @ (1.0 / lam_full))


def dense_form(pi, rho, xi, lam, eps):
    """xi' Pi A_eps(rho) xi per row, through the (n, d, d) field."""
    a_xi = np.einsum("nij,nj->ni", a_eps_batch(rho, lam, eps), xi)
    return np.einsum("ni,ni->n", xi, np.einsum("ij,nj->ni", pi, a_xi))


def levels(d_min, d_max, spread):
    """Generated level multisets: d values log-uniform in [1/spread, spread]."""
    log = math.log(spread)
    return st.integers(d_min, d_max).flatmap(
        lambda d: st.lists(st.floats(-log, log), min_size=d, max_size=d)).map(np.exp)


class TestGammaK:
    def test_d2_identity(self):
        m = uniform_model([3.0, 5.0])
        sub = gamma_k_submatrix(np.eye(2), m, k=1)
        np.testing.assert_allclose(sub, [[6.0]], atol=1e-15)
        sub1 = gamma_k_submatrix(np.eye(2), m, k=0)
        np.testing.assert_allclose(sub1, [[10.0]], atol=1e-15)

    def test_equal_levels_spectrum(self):
        lam = 2.5
        m = uniform_model([lam] * 4)
        for k in range(4):
            sub = gamma_k_submatrix(np.eye(4), m, k)
            np.testing.assert_allclose(sub, lam * (np.eye(3) + np.ones((3, 3))), atol=1e-12)
            eig = np.linalg.eigvalsh(sub)
            np.testing.assert_allclose(np.sort(eig), lam * np.array([1.0, 1.0, 4.0]), atol=1e-12)

    def test_entries_match_the_formula(self):
        # off-diagonal entries all differ, so a row swapped for a column shows
        lam = np.array([1.0, 2.0, 4.0])
        g = np.array([[4.0, 1.0, 0.5], [1.0, 5.0, -0.7], [0.5, -0.7, 6.0]])
        assert np.linalg.eigvalsh(g)[0] > 0
        for k in range(3):
            keep = [i for i in range(3) if i != k]
            want = [[(lam[i] + lam[j]) / 2 * (g[i, j] + g[k, k] - g[i, k] - g[j, k])
                     for j in keep] for i in keep]
            np.testing.assert_allclose(gamma_k_submatrix(g, uniform_model(lam), k),
                                       want, rtol=1e-15)

    def test_zero_matrix_is_not_definite(self):
        m = uniform_model([1.0, 2.0])
        sub = gamma_k_submatrix(np.zeros((2, 2)), m, 0)
        np.testing.assert_array_equal(sub, [[0.0]])
        assert not satisfies_condition_c(np.zeros((2, 2)), m)

    def test_k_out_of_range(self):
        m = uniform_model([1.0, 2.0])
        with pytest.raises(ValueError, match="not in 0..d-1"):
            gamma_k_submatrix(np.eye(2), m, -1)
        with pytest.raises(ValueError, match="not in 0..d-1"):
            gamma_k_submatrix(np.eye(2), m, 2)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            satisfies_condition_c(np.array([[1.0, 0.5], [0.0, 1.0]]), uniform_model([1.0, 2.0]))

    def test_one_regime_is_refused(self):
        # every deleted Gamma^(k) of a one-regime model is empty
        m = uniform_model([2.0])
        for decide in (satisfies_condition_c, coercivity_certificate,
                       lambda g, model: gamma_k_submatrix(g, model, 0),
                       lambda g, model: criterion_diag(model, np.ones(1)),
                       lambda g, model: grid_search_diag(model, 10)):
            with pytest.raises(ValueError, match="needs at least two regimes"):
                decide(np.eye(1), m)


class TestConditionC:
    def test_d2_identity_always_works(self):
        assert satisfies_condition_c(np.eye(2), uniform_model([1.0, 17.0]))

    def test_wide_spread_fails_every_gamma_for_d3(self):
        m = uniform_model([1.0, 100.0, 10000.0])
        assert not satisfies_condition_c(np.eye(3), m)
        assert not criterion_d3(m.lam).satisfied

    def test_diagonal_from_grid_point_passes(self):
        m = uniform_model([1.0, 2.0, 3.0, 5.0, 10.0])
        rep = grid_search_diag(m, 60)
        assert rep.satisfied
        alpha = recover_alpha_from_point(m, *rep.points[0])
        assert satisfies_condition_c(np.diag(alpha), m)


class TestCriterionD3:
    def test_equal_levels_convention(self):
        rep = criterion_d3([1.0, 1.0, 1.0])
        assert rep.r1 == rep.r2 == rep.r3 == 2.0
        assert math.isinf(rep.lhs) and rep.satisfied

    def test_one_repeated_pair(self):
        rep = criterion_d3([1.0, 1.0, 2.0])
        assert math.isinf(rep.lhs) and rep.satisfied

    def test_extreme_spread(self):
        rep = criterion_d3([1.0, 100.0, 10000.0])
        assert rep.lhs == pytest.approx(D3_LHS_EXTREME, rel=1e-12)
        assert not rep.satisfied

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            criterion_d3([1.0, 2.0])
        with pytest.raises(ValueError):
            criterion_d3([1.0, -1.0, 2.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3))
    def test_r_linkage(self, lam):
        rep = criterion_d3(lam)
        disc = (rep.r1 ** 2 - 4.0) * (rep.r2 ** 2 - 4.0)
        roots = [(rep.r1 * rep.r2 - math.sqrt(disc)) / 2.0,
                 (rep.r1 * rep.r2 + math.sqrt(disc)) / 2.0]
        assert min(abs(rep.r3 - v) for v in roots) < 1e-9 * max(1.0, rep.r3)


class TestCriterionIdentity:
    """The identity criterion is the diagonal criterion at the unit diagonal."""

    def test_equal_levels(self):
        assert criterion_diag(uniform_model([2.0] * 6), np.ones(6))

    def test_d2_always(self):
        assert criterion_diag(uniform_model([1.0, 123.0]), np.ones(2))

    def test_spread_fails(self):
        assert not criterion_diag(uniform_model([1.0, 1.0, 1.0, 100.0]), np.ones(4))

    def test_implies_condition_c(self):
        rng = np.random.default_rng(11)
        found = 0
        while found < 20:
            d = rng.integers(2, 6)
            lam = np.exp(rng.uniform(-1.0, 1.0, d))
            m = uniform_model(lam)
            if criterion_diag(m, np.ones(d)):
                found += 1
                assert satisfies_condition_c(np.eye(d), m)


class TestCriterionDiag:
    def test_equal_levels_any_diagonal(self):
        m = uniform_model([3.0, 3.0, 3.0])
        rng = np.random.default_rng(12)
        for _ in range(20):
            assert criterion_diag(m, rng.uniform(0.1, 10.0, 3))

    def test_d3_construction_from_ratio_sums(self):
        m = uniform_model([1.0, 2.0, 4.0])
        rep = criterion_d3(m.lam)
        p = np.sqrt([rep.r1 - 2.0, rep.r2 - 2.0, rep.r3 - 2.0])
        p /= p.sum()
        assert criterion_diag(m, 1.0 / p)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            criterion_diag(uniform_model([1.0, 2.0]), [1.0, 0.0])


class TestBoundary:
    """(C) along the geometric triples (1, x, x^2), where it fails past one root x*."""

    @pytest.fixture(scope="class")
    def x_star(self):
        """The root of criterion_d3((1, x, x^2)).lhs = 1/4, by bisection."""
        lo, hi = 2.0, 100.0
        while hi - lo > 1e-14 * hi:
            mid = 0.5 * (lo + hi)
            if criterion_d3([1.0, mid, mid * mid]).lhs > 0.25:
                lo = mid
            else:
                hi = mid
        return lo

    @staticmethod
    def triple(x):
        return uniform_model([1.0, x, x * x])

    def test_criterion_flips_at_the_root(self, x_star):
        assert x_star == pytest.approx(8.35241, abs=1e-5)
        inside, outside = x_star * (1.0 - 1e-9), x_star * (1.0 + 1e-9)
        assert criterion_d3([1.0, inside, inside * inside]).satisfied
        assert not criterion_d3([1.0, outside, outside * outside]).satisfied

    def test_grid_search_finds_points_inside_only(self, x_star):
        assert grid_search_diag(self.triple(0.9 * x_star), 400).points.shape[0] > 0
        rep = grid_search_diag(self.triple(1.1 * x_star), 400)
        assert rep.points.shape[0] == 0 and not rep.satisfied

    def test_recovered_diagonals_satisfy_condition_c(self, x_star):
        m = self.triple(0.9 * x_star)
        points = grid_search_diag(m, 400).points
        for i in np.linspace(0, len(points) - 1, 11).round().astype(int):
            alpha = recover_alpha_from_point(m, *points[i])
            assert satisfies_condition_c(np.diag(alpha), m), points[i]


class TestGridSearch:
    def test_figure_configuration(self):
        rep = grid_search_diag(uniform_model([1.0, 2.0, 3.0, 5.0, 10.0]), 100)
        assert rep.satisfied and rep.points.shape[0] > 0
        # every stored point lies strictly inside the polygon: below the long
        # chord, above the piecewise lower chords, between the extreme levels
        l = np.array([1.0, 2.0, 3.0, 5.0, 10.0])
        x, y = rep.points[:, 0], rep.points[:, 1]
        upper = 1.0 / l[0] - (x - l[0]) / (l[0] * l[-1])
        seg = np.clip(np.searchsorted(l, x, side="right") - 1, 0, l.size - 2)
        lower = 1.0 / l[seg] - (x - l[seg]) / (l[seg] * l[seg + 1])
        assert np.all(y < upper) and np.all(y > lower)
        assert np.all(x > l[0]) and np.all(x < l[-1])

    def test_wide_spread_is_empty_and_exact(self):
        rep = grid_search_diag(uniform_model([1.0, 100.0, 10000.0]), 200)
        assert rep.points.shape[0] == 0 and not rep.satisfied

    def test_moderate_triple_found(self):
        rep = grid_search_diag(uniform_model([1.0, 2.0, 4.0]), 200)
        assert rep.satisfied

    def test_agreement_with_exact_criterion(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 15:
            lam = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3))
            rep = criterion_d3(lam)
            if not math.isfinite(rep.lhs) or abs(rep.lhs - 0.25) <= 0.01:
                continue
            checked += 1
            grid = grid_search_diag(uniform_model(np.sort(lam)), 400)
            assert grid.satisfied == rep.satisfied

    def test_agreement_on_failing_and_satisfied_triples(self):
        # on [0.01, 100] about half the triples fail (C); on [0.1, 10] almost none
        rng = np.random.default_rng(41)
        checked = {True: 0, False: 0}
        while min(checked.values()) < 10:
            lam = np.exp(rng.uniform(math.log(0.01), math.log(100.0), 3))
            rep = criterion_d3(lam)
            if (not math.isfinite(rep.lhs) or abs(rep.lhs - 0.25) <= 0.01
                    or checked[rep.satisfied] == 10):
                continue
            checked[rep.satisfied] += 1
            grid = grid_search_diag(uniform_model(np.sort(lam)), 400)
            assert grid.satisfied == rep.satisfied, lam

    def test_degenerate_multisets_fall_back(self):
        rep = grid_search_diag(uniform_model([2.0, 2.0, 2.0]), 50)
        assert rep.satisfied and rep.fallback == "identity"
        rep = grid_search_diag(uniform_model([1.0, 1.0, 4.0]), 50)
        assert rep.satisfied and rep.fallback == "d3"
        rep = grid_search_diag(uniform_model([1.0, 1.0, 4.0, 4.0]), 50)
        assert rep.fallback == "identity"

    def test_rejects_small_problems(self):
        # d = 2 has no plane to search: the identity criterion decides
        m = uniform_model([1.0, 2.0])
        rep = grid_search_diag(m, 100)
        assert rep.fallback == "identity" and rep.points.shape == (0, 2)
        assert rep.satisfied == criterion_diag(m, np.ones(2))
        with pytest.raises(ValueError):
            grid_search_diag(uniform_model([1.0, 2.0, 3.0]), 1)

    @settings(max_examples=25, deadline=None)
    @given(lam=levels(3, 6, 100.0), n=st.integers(2, 100))
    def test_points_match_the_outer_product_sums(self, lam, n):
        self.assert_points_match(lam, n)

    @pytest.mark.parametrize("lam", [[1.0, 2.0, 3.0, 5.0, 10.0], [1.0, 100.0, 1e4, 1e6]])
    @pytest.mark.parametrize("n", [50, 200])
    def test_points_match_the_outer_product_sums_on_fixed_families(self, lam, n):
        self.assert_points_match(lam, n)

    @staticmethod
    def assert_points_match(lam, n):
        model = uniform_model(lam)
        rep = grid_search_diag(model, n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(condition_c, "_moment_sums", outer_moment_sums)
            ref = grid_search_diag(model, n)
        assert (rep.satisfied, rep.fallback) == (ref.satisfied, ref.fallback)
        assert rep.points.shape == ref.points.shape
        assert rep.points.tobytes() == ref.points.tobytes()


class TestRecovery:
    def test_all_equal_levels(self):
        m = uniform_model([2.0, 2.0, 2.0])
        alpha = recover_alpha_from_point(m, 2.0, 0.5)
        assert criterion_diag(m, alpha)
        np.testing.assert_allclose(alpha / alpha[0], 1.0, atol=1e-9)

    def test_from_figure_point(self):
        m = uniform_model([1.0, 2.0, 3.0, 5.0, 10.0])
        rep = grid_search_diag(m, 200)
        alpha = recover_alpha_from_point(m, *rep.points[len(rep.points) // 2])
        assert criterion_diag(m, alpha)

    def test_failure_far_outside(self):
        m = uniform_model([1.0, 2.0, 4.0])
        with pytest.raises(RecoveryFailure):
            recover_alpha_from_point(m, 4.5, 1.2)  # X, Y land outside the hull


class TestDomainStates:
    def test_a_third_of_the_states_lie_on_faces(self):
        # half the rows zero each coordinate with probability 0.35
        rho = condition_c.sample_domain_states(3, 100_000, np.random.default_rng(12))
        zero = rho == 0.0
        assert zero.any(axis=1).mean() == pytest.approx(0.5 * (1.0 - 0.65 ** 3), abs=0.01)
        assert zero.any(axis=0).all()
        assert not zero.all(axis=1).any()
        assert np.all(rho >= 0.0)


class TestCertificate:
    def test_regression_value(self):
        m = uniform_model([1.0, 4.0])
        cert = coercivity_certificate(np.eye(2), m, samples=100_000, seed=7)
        assert cert.eps == pytest.approx(1.0 / 900.0, rel=1e-12)
        assert cert.z == pytest.approx(0.125, rel=1e-12)
        assert cert.kappa_hat == pytest.approx(KAPPA_HAT_REGRESSION, rel=1e-9)
        lmin = np.linalg.eigvalsh(cert.pi)[0]
        assert 0.0 < cert.kappa_hat <= 0.5 * lmin + 1e-15

    def test_equal_levels_lower_bound(self):
        # A = I/2 exactly, so the form is bounded below by l_min(Pi)/2
        m = uniform_model([2.0, 2.0, 2.0])
        cert = coercivity_certificate(np.eye(3), m, samples=20_000, seed=3)
        lmin = np.linalg.eigvalsh(cert.pi)[0]
        assert cert.kappa_hat == pytest.approx(0.5 * lmin, rel=1e-9)

    def test_soundness_resample(self):
        m = uniform_model([1.0, 4.0])
        cert = coercivity_certificate(np.eye(2), m, samples=50_000, seed=21)
        fresh, _, _ = sample_quadratic_min(cert.pi, m, 200_000, seed=2222)
        assert fresh > 0.0

    def test_zero_gamma_rejected(self):
        with pytest.raises(CertificateError):
            coercivity_certificate(np.zeros((2, 2)), uniform_model([1.0, 2.0]))

    def test_failing_condition_rejected(self):
        m = uniform_model([1.0, 100.0, 10000.0])
        with pytest.raises(CertificateError):
            coercivity_certificate(np.eye(3), m)


class TestScreeningForm:
    """The sampler's matrix-free form against the dense field a_eps_batch."""

    @settings(max_examples=60, deadline=None)
    @given(lam=levels(2, 5, 4.0), seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.0, 100.0))
    def test_matches_the_dense_form(self, lam, seed, scale):
        d = lam.size
        rng = np.random.default_rng(seed)
        rho = condition_c.sample_domain_states(d, 500, rng)
        rho[::50] = 0.0                                  # rho = 0, where A_eps = I/2
        xi = rng.normal(size=(500, d))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        g = rng.normal(size=(d, d))
        pi = np.ones((d, d)) + scale * (g + g.T)
        eps = condition_c._EPS_REL * lam.min()
        form = condition_c._screening_form(pi, rho.T, xi.T, lam, eps)
        tol = 1e-13 * max(1.0, np.linalg.norm(pi, 2))
        assert np.abs(form - dense_form(pi, rho, xi, lam, eps)).max() <= tol
        half = 0.5 * np.einsum("ni,ij,nj->n", xi[::50], pi, xi[::50])
        assert np.abs(form[::50] - half).max() <= tol
        # the column sums of M = 2 A_eps - I vanish
        a = a_eps_batch(rho, lam, eps)
        assert np.abs(2.0 * a.sum(axis=1) - 1.0).max() <= 1e-12

    def test_sampler_reports_the_dense_form_at_its_minimiser(self):
        model = uniform_model([1.0, 2.0, 4.0])
        pi = np.ones((3, 3)) + 0.05 * np.eye(3)
        value, rho, xi = sample_quadratic_min(pi, model, 5000, seed=4)
        eps = condition_c._EPS_REL * model.lam_min
        assert value == dense_form(pi, rho[None, :], xi[None, :], model.lam, eps)[0]
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-15)


class TestThreads:
    """sample_quadratic_min on pools of each size, on 1000-sample chunks."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The max_workers of every thread pool that the sampler opens."""
        monkeypatch.setattr(condition_c, "_CHUNK", 1000)
        opened = []
        real = condition_c.ThreadPoolExecutor

        def executor(max_workers=None, **kwargs):
            opened.append(max_workers)
            return real(max_workers=max_workers, **kwargs)
        monkeypatch.setattr(condition_c, "ThreadPoolExecutor", executor)
        return opened

    @staticmethod
    def sample(monkeypatch, workers):
        monkeypatch.setattr(condition_c, "worker_count", lambda: workers)
        return sample_quadratic_min(np.eye(3), uniform_model([1.0, 2.0, 4.0]), 3500,
                                    seed=11)           # four chunks

    def test_bit_identical_on_one_and_two_threads(self, monkeypatch, pools):
        one = self.sample(monkeypatch, 1)
        assert pools == [1]
        two = self.sample(monkeypatch, 2)
        assert pools == [1, 2]
        assert one[0] == two[0]
        np.testing.assert_array_equal(one[1], two[1])
        np.testing.assert_array_equal(one[2], two[2])

    @pytest.mark.parametrize("cpus,workers", [(1, 1), (2, 2), (8, 2), (None, 1)])
    def test_unset_count_is_at_most_two_workers(self, monkeypatch, cpus, workers):
        monkeypatch.setattr(condition_c.os, "cpu_count", lambda: cpus)
        assert condition_c.worker_count() == workers

    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_pool_stays_within_the_worker_count(self, monkeypatch, pools, workers):
        self.sample(monkeypatch, workers)
        assert pools == [min(workers, 4)]       # no more workers than chunks
