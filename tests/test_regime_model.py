"""Coefficient fields, ratios, heat kernel and domain types."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rslv_lab.regime_model import (
    HorizonConfig, IntensityTable, Measure, RegimeModel,
    coeff_matrix_a, coeff_matrix_a_eps, coeff_matrix_m, coeff_matrix_m_eps,
    ratio_r, ratio_r_eps,
)

INV_SQRT_2PI = 0.3989422804014327


def model2():
    return RegimeModel(lam=[1.0, 2.0], alpha=[0.5, 0.5])


def lam_rho_strategy(max_d=5):
    def build(draw):
        d = draw(st.integers(2, max_d))
        lam = draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))
        rho = draw(st.lists(st.floats(0.0, 10.0), min_size=d, max_size=d)
                   .filter(lambda v: sum(v) > 1e-6))
        return np.array(lam), np.array(rho)
    return st.composite(lambda draw: build(draw))()


class TestCoefficientMatrices:
    def test_hand_evaluated_example(self):
        a = coeff_matrix_a([1.0, 1.0], model2())
        np.testing.assert_allclose(a, [[7 / 18, -1 / 18], [1 / 9, 5 / 9]], atol=1e-15)

    def test_equal_levels_give_half_identity(self):
        m = RegimeModel(lam=[3.0, 3.0, 3.0], alpha=[0.2, 0.3, 0.5])
        rho = np.array([0.1, 2.0, 0.7])
        np.testing.assert_allclose(coeff_matrix_m(rho, m), 0.0, atol=1e-15)
        np.testing.assert_allclose(coeff_matrix_a(rho, m), np.eye(3) / 2, atol=1e-15)

    def test_face_state_example(self):
        np.testing.assert_allclose(coeff_matrix_m([1.0, 0.0], model2()),
                                   [[0.0, -1.0], [0.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(coeff_matrix_a([1.0, 0.0], model2()),
                                   [[0.5, -0.5], [0.0, 1.0]], atol=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            coeff_matrix_a([0.0, 0.0], model2())
        with pytest.raises(ValueError):
            coeff_matrix_a([1.0, -0.1], model2())
        with pytest.raises(ValueError):
            ratio_r([0.0, 0.0], model2())

    def test_eps_matches_unregularised_below_threshold(self):
        # sum lam rho = 3 here, so eps = 1 leaves the field untouched
        a = coeff_matrix_a([1.0, 1.0], model2())
        a_eps = coeff_matrix_a_eps([1.0, 1.0], model2(), eps=1.0)
        np.testing.assert_allclose(a_eps, a, atol=1e-15)

    def test_eps_scaling_above_threshold(self):
        m_ref = coeff_matrix_m([1.0, 1.0], model2())
        a_eps = coeff_matrix_a_eps([1.0, 1.0], model2(), eps=6.0)
        np.testing.assert_allclose(a_eps, 0.5 * (np.eye(2) + 0.25 * m_ref), atol=1e-15)

    def test_eps_at_origin(self):
        np.testing.assert_allclose(coeff_matrix_a_eps([0.0, 0.0], model2(), 1.0),
                                   np.eye(2) / 2, atol=0)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            coeff_matrix_a_eps([1.0, 1.0], model2(), eps=0.0)

    @settings(max_examples=150, deadline=None)
    @given(lam_rho_strategy())
    def test_column_sums_vanish(self, lam_rho):
        lam, rho = lam_rho
        m = RegimeModel(lam=lam, alpha=np.full(lam.size, 1.0 / lam.size))
        cols = coeff_matrix_m(rho, m).sum(axis=0)
        np.testing.assert_allclose(cols, 0.0, atol=1e-12)
        cols_eps = coeff_matrix_m_eps(rho, m, eps=0.5).sum(axis=0)
        np.testing.assert_allclose(cols_eps, 0.0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(lam_rho_strategy())
    def test_entry_bound_and_homogeneity(self, lam_rho):
        lam, rho = lam_rho
        m = RegimeModel(lam=lam, alpha=np.full(lam.size, 1.0 / lam.size))
        bound = 0.5 * (1.0 + m.lam_max / m.lam_min)
        a = coeff_matrix_a(rho, m)
        assert np.abs(a).max() <= bound + 1e-12
        np.testing.assert_allclose(coeff_matrix_a(7.5 * rho, m), a, atol=1e-12)

    def test_diagonal_lower_bound_on_faces(self):
        # 2 A_eps_ii >= lam_min / lam_max whenever rho_i = 0
        rng = np.random.default_rng(5)
        lam = np.array([1.0, 3.0, 9.0])
        m = RegimeModel(lam=lam, alpha=np.full(3, 1 / 3))
        for _ in range(200):
            rho = rng.exponential(1.0, 3)
            i = rng.integers(0, 3)
            rho[i] = 0.0
            a = coeff_matrix_a_eps(rho, m, eps=0.3)
            assert 2.0 * a[i, i] >= lam.min() / lam.max() - 1e-12


class TestRatios:
    def test_equal_levels(self):
        m = RegimeModel(lam=[2.0, 2.0], alpha=[0.5, 0.5])
        assert ratio_r([0.3, 4.0], m) == pytest.approx(0.5, abs=1e-15)

    def test_unit_vectors(self):
        m = RegimeModel(lam=[1.0, 2.0, 5.0], alpha=[1 / 3, 1 / 3, 1 / 3])
        for i, lam_i in enumerate(m.lam):
            e = np.zeros(3)
            e[i] = 1.0
            assert ratio_r(e, m) == pytest.approx(1.0 / lam_i, abs=1e-15)

    def test_eps_dominates(self):
        assert ratio_r_eps([1.0, 1.0], model2(), eps=6.0) == pytest.approx(1 / 3)

    @settings(max_examples=100, deadline=None)
    @given(lam_rho_strategy())
    def test_bounds_and_ordering(self, lam_rho):
        lam, rho = lam_rho
        m = RegimeModel(lam=lam, alpha=np.full(lam.size, 1.0 / lam.size))
        r = ratio_r(rho, m)
        r_eps = ratio_r_eps(rho, m, eps=0.7)
        assert 0.0 <= r <= 1.0 / m.lam_min + 1e-12
        assert r_eps <= r + 1e-12
        # pointwise convergence as eps -> 0
        assert ratio_r_eps(rho, m, eps=1e-14) == pytest.approx(r, rel=1e-9)


class TestHeatKernel:
    def test_point_mass_at_origin(self):
        val = Measure.point(0.0).convolve_heat(1.0, np.array([0.0]))
        assert val[0] == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_unit_mass(self):
        x = np.linspace(-8, 8, 2001)
        for t in (0.25, 1.0, 2.0):
            dens = Measure.point(0.0).convolve_heat(t, x)
            assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_convolution_identity(self):
        x = np.linspace(-10, 10, 4001)
        sigma2 = 0.5
        mu = Measure.tabulated(x, np.exp(-x * x / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2))
        out = mu.convolve_heat(0.75, x)
        v = sigma2 + 0.75
        ref = np.exp(-x * x / (2 * v)) / np.sqrt(2 * np.pi * v)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_mixture_is_a_gaussian_mixture(self):
        mu = Measure.mixture([-1.0, 2.0], [0.25, 0.75])
        x = np.linspace(-8, 10, 1801)
        out = mu.convolve_heat(0.5, x)
        ref = (0.25 * np.exp(-(x + 1.0) ** 2) + 0.75 * np.exp(-(x - 2.0) ** 2)) \
            / np.sqrt(np.pi)
        np.testing.assert_allclose(out, ref, atol=1e-14)
        assert np.trapezoid(out, x) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            Measure.point(0.0).convolve_heat(0.0, np.array([0.0]))


class TestMeasure:
    def test_atoms_need_mollification(self):
        with pytest.raises(ValueError):
            Measure.point(0.0).density_on(np.linspace(-1, 1, 11), 0.0)

    def test_tabulated_resampling_is_identity_on_nodes(self):
        x = np.linspace(-2, 2, 41)
        dens = np.maximum(1 - np.abs(x), 0.0)
        mu = Measure.tabulated(x, dens)
        np.testing.assert_allclose(mu.density_on(x, 0.0), dens, atol=0)

    def test_sampling_tabulated_matches_cdf(self):
        x = np.linspace(-1, 1, 201)
        mu = Measure.tabulated(x, np.full_like(x, 0.5))
        rng = np.random.default_rng(0)
        s = mu.sample(20_000, rng)
        assert abs(s.mean()) < 0.02
        assert abs(s.var() - 1 / 3) < 0.01

    def test_round_trip(self):
        mu = Measure.mixture([0.0, 1.0], [0.25, 0.75])
        again = Measure.from_dict(mu.to_dict())
        np.testing.assert_array_equal(again.xs, mu.xs)
        np.testing.assert_array_equal(again.weights, mu.weights)


class TestModelTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegimeModel(lam=[1.0], alpha=[1.0])
        with pytest.raises(ValueError):
            RegimeModel(lam=[1.0, -2.0], alpha=[0.5, 0.5])
        with pytest.raises(ValueError):
            RegimeModel(lam=[1.0, 2.0], alpha=[0.6, 0.5])
        with pytest.raises(ValueError):
            HorizonConfig(T=0.0)
        with pytest.raises(ValueError):
            HorizonConfig(T=1.0, r=float("inf"))
        with pytest.raises(ValueError):
            HorizonConfig(T=float("nan"))
        with pytest.raises(ValueError):
            coeff_matrix_m(np.zeros(2), RegimeModel(lam=[1.0, 2.0], alpha=[0.5, 0.5]))

    def test_json_round_trip(self):
        q = IntensityTable(rates=np.array([[0.0, 2.0], [1.0, 0.0]]))
        m = RegimeModel(lam=[1.0, 4.0], alpha=[0.25, 0.75], q=q)
        again = RegimeModel.from_dict(json.loads(json.dumps(m.to_dict())))
        np.testing.assert_array_equal(again.lam, m.lam)
        np.testing.assert_array_equal(again.alpha, m.alpha)
        np.testing.assert_array_equal(again.q.rates, m.q.rates)
        assert again.qbar == pytest.approx(2.0)

    def test_tabulated_intensities(self):
        q = IntensityTable(
            rates=np.array([[[0.0, 1.0], [2.0, 0.0]], [[0.0, 3.0], [2.0, 0.0]]]),
            x=np.array([-1.0, 1.0]))
        mid = q.value(0.0)
        assert mid[0, 1] == pytest.approx(2.0)
        assert mid[0, 0] == pytest.approx(-2.0)   # diagonal recomputed
        rates = q.rates_from(np.array([0, 1]), np.array([-1.0, 5.0]))
        assert rates[0, 1] == pytest.approx(1.0)
        assert rates[1, 0] == pytest.approx(2.0)  # constant extrapolation

    def test_intensity_validation(self):
        with pytest.raises(ValueError):
            IntensityTable(rates=np.array([[0.0, -1.0], [1.0, 0.0]]))
