"""Statistical utilities: CDF accuracy, KS statistic, histogram distance, moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rslv_lab.stats import (TestReport, ks_statistic, l1_hist_distance,
                            mc_stderr, moments, normal_cdf)

# quadrature oracle of the normal CDF at 1.96, evaluated to 1e-10 beforehand
PHI_196 = 0.9750021048517796
INV_SQRT_2PI = 0.3989422804014327
# Phi at the doubles nearest these x, from the 40-digit mpmath.ncdf, rounded to 22
PHI_TABLE = [
    (-37.0, 5.725571222524576822683e-300),
    (-20.0, 2.753624118606233695076e-89),
    (-8.0, 6.220960574271784123516e-16),
    (-1.96, 0.02499789514822043621282),
    (0.0, 0.5),
    (0.5, 0.6914624612740131036377),
    (1.96, 0.9750021048517795637872),
    (8.0, 0.9999999999999993779039),
]


class TestNormalCdf:
    def test_midpoint(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_quadrature_oracle(self):
        assert normal_cdf(1.96) == pytest.approx(PHI_196, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-8.0, 8.0))
    def test_symmetry(self, x):
        assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) < 1e-12

    def test_high_precision_table(self):
        # relative, so the tail down to 5.7e-300 counts as much as the middle
        x, phi = np.array(PHI_TABLE).T
        out = normal_cdf(x)
        assert out.dtype == np.float64
        assert np.all(np.abs(out / phi - 1.0) <= 1e-13)
        assert [normal_cdf(v) for v in x] == out.tolist()

    def test_vectorised(self):
        x = np.array([-1.0, 0.0, 1.0])
        out = normal_cdf(x)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.5)
        assert np.all(np.diff(out) > 0)


class TestKsStatistic:
    def test_hand_enumerated(self):
        d = ks_statistic([0.25, 0.5, 0.75], lambda x: np.clip(x, 0.0, 1.0))
        assert d == pytest.approx(0.25, abs=1e-15)

    def test_lower_side_binds(self):
        # one sample at 0.75 under the uniform CDF: the upper side reads
        # 1 - 0.75 = 0.25, the lower side 0.75 - 0 = 0.75
        assert ks_statistic([0.75], lambda x: np.clip(x, 0.0, 1.0)) == 0.75

    def test_single_sample_at_median(self):
        assert ks_statistic([0.0], normal_cdf) == pytest.approx(0.5, abs=1e-12)

    def test_large_sample_from_the_cdf(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100_000)
        assert ks_statistic(x, normal_cdf) <= 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], normal_cdf)

    def test_invariance_under_increasing_transforms(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        d0 = ks_statistic(x, normal_cdf)
        d1 = ks_statistic(np.exp(x), lambda y: normal_cdf(np.log(y)))
        assert d1 == pytest.approx(d0, abs=1e-12)


class TestHistogramDistance:
    def test_self_distance_is_zero(self):
        # a density that is the sample's own histogram on the window mean +/- 5 sd
        x = np.linspace(-1, 1, 1000)
        counts, edges = np.histogram(x, bins=20, range=(x.mean() - 5 * x.std(),
                                                        x.mean() + 5 * x.std()))
        dens = lambda c: counts[np.searchsorted(edges, c) - 1]
        assert l1_hist_distance(x, dens, bins=20) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_two_bins(self):
        # window 0 +/- 5 * 1 split at 0: the histogram reads 0.1 on both bins,
        # the reference 0 and 0.2 once renormalised, so 5 * 0.1 + 5 * 0.1 = 1
        assert l1_hist_distance([-1.0, 1.0], lambda c: (c > 0) * 1.0, bins=2) == 1.0

    def test_gaussian_sample_against_density(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(200_000)
        dens = lambda c: np.exp(-c * c / 2.0) * INV_SQRT_2PI
        assert l1_hist_distance(x, dens, bins=100) <= 0.03


class TestMoments:
    def test_gaussian_sample(self):
        rng = np.random.default_rng(1)
        t = 2.5
        x = rng.normal(0.0, math.sqrt(t), 400_000)
        mo = moments(x)
        n = x.size
        assert abs(mo.var - t) <= 4.0 * t * math.sqrt(2.0 / n)
        se_m4 = math.sqrt(96.0 / n) * t * t
        assert abs(mo.m4 - 3.0 * t * t) <= 5.0 * se_m4
        assert mo.kurtosis == pytest.approx(3.0, abs=0.1)

    def test_stderr_hand_computed(self):
        # the sample variance of 0, 1, 2, 3 is 5/3: sqrt(5/3) / sqrt(4)
        assert mc_stderr([0.0, 1.0, 2.0, 3.0]) == pytest.approx(0.6454972243679028, rel=1e-15)

    def test_constant_payoff(self):
        assert mc_stderr(np.full(100, 2.5)) == 0.0
        assert moments(np.full(10, 2.0)).var == 0.0


class TestReportType:
    def test_pass_rule(self):
        assert TestReport.check(0.5, 1.0, 10, "demo").passed
        assert not TestReport.check(2.0, 1.0, 10, "demo").passed
