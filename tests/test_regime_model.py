"""Coefficient fields, ratios, heat kernel and domain types."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rslv_lab.dupire import VolSurface
from rslv_lab.regime_model import (
    HorizonConfig, IntensityTable, Measure, RegimeModel, a_eps_batch, ratio_r_eps_batch,
)

INV_SQRT_2PI = 0.3989422804014327
# below every sum lam*rho drawn here, where A_eps and R_eps equal A and R exactly
EPS_EXACT = 1e-9


def model2():
    return RegimeModel(lam=[1.0, 2.0], alpha=[0.5, 0.5])


def field_a(rho, lam, eps=EPS_EXACT):
    """A_eps at one state, through the batch API with a (1, d) row."""
    return a_eps_batch(np.asarray(rho, dtype=float)[None, :], np.asarray(lam, dtype=float),
                       eps)[0]


def ratio(rho, lam, eps=EPS_EXACT):
    """R_eps at one state, through the batch API with a (1, d) row."""
    return float(ratio_r_eps_batch(np.asarray(rho, dtype=float)[None, :],
                                   np.asarray(lam, dtype=float), eps)[0])


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
        a = field_a([1.0, 1.0], model2().lam)
        np.testing.assert_allclose(a, [[7 / 18, -1 / 18], [1 / 9, 5 / 9]], atol=1e-15)

    def test_equal_levels_give_half_identity(self):
        a = field_a([0.1, 2.0, 0.7], [3.0, 3.0, 3.0])
        np.testing.assert_allclose(a, np.eye(3) / 2, atol=1e-15)

    def test_face_state_example(self):
        a = field_a([1.0, 0.0], model2().lam)
        np.testing.assert_allclose(a, [[0.5, -0.5], [0.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(2.0 * a - np.eye(2), [[0.0, -1.0], [0.0, 1.0]], atol=1e-15)

    def test_eps_matches_unregularised_below_threshold(self):
        # sum lam rho = 3 here, so any eps <= 3 leaves the field untouched
        a = field_a([1.0, 1.0], model2().lam)
        for eps in (1e-14, 1.0, 3.0):
            np.testing.assert_array_equal(field_a([1.0, 1.0], model2().lam, eps), a)

    def test_eps_scaling_above_threshold(self):
        m_ref = 2.0 * field_a([1.0, 1.0], model2().lam) - np.eye(2)
        a_eps = field_a([1.0, 1.0], model2().lam, eps=6.0)
        np.testing.assert_allclose(a_eps, 0.5 * (np.eye(2) + 0.25 * m_ref), atol=1e-15)

    def test_eps_at_origin(self):
        np.testing.assert_allclose(field_a([0.0, 0.0], model2().lam, 1.0),
                                   np.eye(2) / 2, atol=0)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            field_a([1.0, 1.0], model2().lam, eps=0.0)

    @settings(max_examples=150, deadline=None)
    @given(lam_rho_strategy())
    def test_column_sums_vanish(self, lam_rho):
        # the columns of M sum to 0, so those of A = (I + M)/2 sum to 1/2
        lam, rho = lam_rho
        for eps in (EPS_EXACT, 0.5):
            cols = field_a(rho, lam, eps).sum(axis=0)
            np.testing.assert_allclose(cols, 0.5, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(lam_rho_strategy())
    def test_entry_bound_and_homogeneity(self, lam_rho):
        lam, rho = lam_rho
        bound = 0.5 * (1.0 + lam.max() / lam.min())
        a = field_a(rho, lam)
        assert np.abs(a).max() <= bound + 1e-12
        np.testing.assert_allclose(field_a(7.5 * rho, lam), a, atol=1e-12)

    def test_diagonal_lower_bound_on_faces(self):
        # 2 A_eps_ii >= lam_min / lam_max whenever rho_i = 0
        rng = np.random.default_rng(5)
        lam = np.array([1.0, 3.0, 9.0])
        rho = rng.exponential(1.0, (200, 3))
        i = rng.integers(0, 3, 200)
        rows = np.arange(200)
        rho[rows, i] = 0.0
        a = a_eps_batch(rho, lam, eps=0.3)
        assert np.all(2.0 * a[rows, i, i] >= lam.min() / lam.max() - 1e-12)


class TestRatios:
    def test_equal_levels(self):
        assert ratio([0.3, 4.0], [2.0, 2.0]) == pytest.approx(0.5, abs=1e-15)

    def test_unit_vectors(self):
        lam = np.array([1.0, 2.0, 5.0])
        r = ratio_r_eps_batch(np.eye(3), lam, EPS_EXACT)
        np.testing.assert_allclose(r, 1.0 / lam, atol=1e-15)

    def test_eps_dominates(self):
        assert ratio([1.0, 1.0], model2().lam, eps=6.0) == pytest.approx(1 / 3)

    @settings(max_examples=100, deadline=None)
    @given(lam_rho_strategy())
    def test_bounds_and_ordering(self, lam_rho):
        lam, rho = lam_rho
        r = ratio(rho, lam)
        r_eps = ratio(rho, lam, eps=0.7)
        assert 0.0 <= r <= 1.0 / lam.min() + 1e-12
        assert r_eps <= r + 1e-12
        # R itself for every eps <= sum lam rho
        assert ratio(rho, lam, eps=1e-14) == r
        assert r == pytest.approx(rho.sum() / (rho @ lam), rel=1e-15)


class TestHeatKernel:
    def test_point_mass_at_origin(self):
        val = Measure.point(0.0).density_on(np.array([0.0]), 1.0)
        assert val[0] == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_unit_mass(self):
        x = np.linspace(-8, 8, 2001)
        for t in (0.25, 1.0, 2.0):
            dens = Measure.point(0.0).density_on(x, np.sqrt(t))
            assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_convolution_identity(self):
        x = np.linspace(-10, 10, 4001)
        sigma2 = 0.5
        mu = Measure.tabulated(x, np.exp(-x * x / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2))
        out = mu.density_on(x, np.sqrt(0.75))
        v = sigma2 + 0.75
        ref = np.exp(-x * x / (2 * v)) / np.sqrt(2 * np.pi * v)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_mixture_is_a_gaussian_mixture(self):
        mu = Measure([-1.0, 2.0], [0.25, 0.75])
        x = np.linspace(-8, 10, 1801)
        out = mu.density_on(x, np.sqrt(0.5))
        ref = (0.25 * np.exp(-(x + 1.0) ** 2) + 0.75 * np.exp(-(x - 2.0) ** 2)) \
            / np.sqrt(np.pi)
        np.testing.assert_allclose(out, ref, atol=1e-14)
        assert np.trapezoid(out, x) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            Measure.point(0.0).density_on(np.array([0.0]), -1.0)

    def test_tabulated_convolution_equals_the_dense_quadrature(self):
        # uneven nodes, so each trapezoid weight differs
        x = np.sort(np.random.default_rng(12).uniform(-3.0, 3.0, 300))
        dens = np.exp(-x * x) * (1.5 + np.sin(3.0 * x))
        xs = np.linspace(-4.0, 4.0, 1001)
        sigma = 0.1
        tw = np.zeros_like(x)
        tw[:-1] += 0.5 * np.diff(x)
        tw[1:] += 0.5 * np.diff(x)
        kernel = np.exp(-(xs[:, None] - x[None, :]) ** 2 / (2 * sigma * sigma)) \
            / np.sqrt(2 * np.pi * sigma * sigma)
        out = Measure.tabulated(x, dens).density_on(xs, sigma)
        # the density integrates to about 2.7; the measure is its normalised law
        np.testing.assert_allclose(out, kernel @ (tw * dens) / (tw @ dens), rtol=0, atol=1e-14)


class TestMeasure:
    def test_construction_normalises_the_law(self):
        mixture = Measure([-0.5, 0.5], [0.1, 0.2])
        np.testing.assert_allclose(mixture.weights, [1 / 3, 2 / 3], rtol=1e-15)
        np.testing.assert_array_equal(mixture.masses, mixture.weights)
        hat = Measure.tabulated([-1.0, 0.0, 1.0], [0.0, 3.0, 0.0])
        np.testing.assert_array_equal(hat.weights, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(hat.masses, [0.0, 1.0, 0.0])
        # uneven nodes: each node's mass is its trapezoid weight times the density
        x = np.array([-2.0, -0.5, 0.0, 1.5])
        uneven = Measure.tabulated(x, [1.0, 2.0, 4.0, 0.5])
        np.testing.assert_allclose(uneven.masses, [0.75, 1.0, 1.0, 0.75] * uneven.weights,
                                   rtol=1e-15)
        assert uneven.masses.sum() == pytest.approx(1.0, abs=1e-15)
        # a unit law is kept bit for bit
        assert Measure([-0.5, 0.5], [0.3, 0.7]).weights.tolist() == [0.3, 0.7]

    @pytest.mark.parametrize("atoms", [True, False])
    def test_mass_must_be_positive_and_finite(self, atoms):
        for weights in ([0.0, 0.0], [1e308, 1e308]):
            with pytest.raises(ValueError, match="positive and finite"):
                Measure([-1.0, 1.0], weights, atoms=atoms)

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


class TestModelTypes:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one regime"):
            RegimeModel(lam=[], alpha=[])
        with pytest.raises(ValueError, match=r"a flat \(1-d\) list"):
            RegimeModel(lam=[[1.0, 4.0]], alpha=[0.5, 0.5])
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

    def test_one_regime_is_the_scalar_lv_model(self):
        model = RegimeModel(lam=[2.0], alpha=[1.0])
        assert model.d == 1 and model.q.qbar == 0.0
        rho = np.array([[0.0], [1e-300], [0.3], [7.0]])
        np.testing.assert_array_equal(a_eps_batch(rho, model.lam, 1e-9), np.full((4, 1, 1), 0.5))
        np.testing.assert_array_equal(ratio_r_eps_batch(rho[2:], model.lam, 1e-9), [0.5, 0.5])

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

    def test_constant_q_is_the_one_node_table(self):
        off = np.array([[0.0, 1.0, 2.0], [0.5, 0.0, 0.0], [3.0, 0.25, 0.0]])
        q = IntensityTable(rates=off)
        assert q.x.tolist() == [0.0] and q.rates.shape == (1, 3, 3)
        np.testing.assert_array_equal(np.diag(q.rates[0]), [-3.0, -0.5, -3.25])
        one = IntensityTable(rates=[off], x=[0.7])
        np.testing.assert_array_equal(one.rates, q.rates)
        x = np.array([-np.inf, -2.0, 0.0, 0.7, 5.0, np.inf])
        for table in (q, one):
            np.testing.assert_array_equal(table.value(x), np.broadcast_to(q.rates[0], (6, 3, 3)))
            np.testing.assert_array_equal(table.value(1.0), q.rates[0])
            np.testing.assert_array_equal(table.rates_from(np.array([2, 0]), x[:2]),
                                          q.rates[0][[2, 0]])

    def test_a_model_without_q_has_the_zero_q(self):
        for model in (model2(), RegimeModel(lam=[1.0, 2.0, 3.0], alpha=[0.5, 0.25, 0.25],
                                            q=None)):
            q = model.q
            assert isinstance(q, IntensityTable) and q.qbar == 0.0
            assert q.x.tolist() == [0.0] and q.rates.shape == (1, model.d, model.d)
            np.testing.assert_array_equal(q.value(np.array([-1.0, 2.0])), 0.0)
        with pytest.raises(ValueError):
            RegimeModel(lam=[1.0, 2.0, 3.0], alpha=[0.5, 0.25, 0.25], q=model2().q)

    def test_intensity_validation(self):
        with pytest.raises(ValueError):
            IntensityTable(rates=np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            IntensityTable(rates=np.array([[[0.0, -1.0], [1.0, 0.0]]]), x=[0.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                IntensityTable(rates=np.array([[0.0, bad], [1.0, 0.0]]))
            with pytest.raises(ValueError):       # also on the diagonal
                IntensityTable(rates=np.array([[bad, 1.0], [1.0, 0.0]]))
            with pytest.raises(ValueError):
                IntensityTable(rates=np.array([[[0.0, 1.0], [bad, 0.0]]] * 2), x=[0.0, 1.0])
            with pytest.raises(ValueError):
                IntensityTable(rates=np.array([[[bad, 1.0], [1.0, 0.0]]]), x=[0.0])
        for nodes in ([0.0, np.nan, 2.0], [-np.inf, 0.0, 1.0], [0.0, 1.0, np.inf]):
            with pytest.raises(ValueError):
                IntensityTable(rates=np.zeros((3, 2, 2)), x=nodes)
        for node in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                IntensityTable(rates=np.zeros((1, 2, 2)), x=[node])
        # rates whose shape does not match the nodes, or not square
        for rates, nodes in ((np.zeros((2, 2)), [0.0]), (np.zeros((2, 2, 2)), [0.0]),
                             (np.zeros((3, 2, 2)), [0.0, 1.0]), (np.zeros((1, 2, 2)), None),
                             (np.zeros((2, 3)), None), (np.zeros((1, 2, 3)), [0.0]),
                             (np.zeros((0, 2, 2)), []), (np.zeros(2), None)):
            with pytest.raises(ValueError):
                IntensityTable(rates=rates, x=nodes)
        with pytest.raises(ValueError):                      # nodes not increasing
            IntensityTable(rates=np.zeros((2, 2, 2)), x=[1.0, 1.0])


def interp_reference(table, x):
    """Q(x) entry by entry with np.interp, one call per (i, j) and x."""
    xs = np.clip(x, table.x[0], table.x[-1])
    d = table.d
    return np.array([[[np.interp(v, table.x, table.rates[:, i, j]) for j in range(d)]
                      for i in range(d)] for v in xs])


def same_bits(a, b):
    """Equal arrays, telling 0.0 from -0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def tabulated_case(draw):
    d = draw(st.integers(2, 5))
    k = draw(st.integers(1, 6))
    nodes = np.sort(np.array(draw(st.lists(
        st.floats(-5.0, 5.0, allow_subnormal=False), min_size=k, max_size=k, unique=True))))
    off = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 10.0),
                                 min_size=k * d * d, max_size=k * d * d))).reshape(k, d, d)
    off[:, draw(st.integers(0, d - 1)), :] = 0.0          # an all-zero rate row
    full, diag = off.copy(), np.arange(d)
    full[:, diag, diag] = 0.0
    full[:, diag, diag] = -full.sum(axis=2)               # the diagonal the table builds
    with np.errstate(over="ignore"):
        slopes = np.diff(full, axis=0) / np.diff(nodes)[:, None, None]
    # nodes 2.2e-308 apart overflow the slopes, of the rates or of the diagonal,
    # and such a table is refused (test_tables_that_overflow_are_refused): draw another
    assume(np.isfinite(slopes).all())
    inside = draw(st.lists(st.floats(nodes[0], nodes[-1]), min_size=1, max_size=8))
    x = np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:]), inside,
                        [nodes[0] - 1.0, nodes[-1] + 1.0, -np.inf, np.inf]])
    rows = np.array(draw(st.lists(st.integers(0, d - 1), min_size=x.size, max_size=x.size)))
    return IntensityTable(rates=off, x=nodes), x, rows


class TestIntensityInterpolation:
    @settings(max_examples=150, deadline=None)
    @given(tabulated_case())
    def test_bit_equal_to_entrywise_interp(self, case):
        table, x, rows = case
        ref = interp_reference(table, x)
        assert same_bits(table.value(x), ref)
        assert same_bits(table.rates_from(rows, x), ref[np.arange(x.size), rows])
        for v, r in zip(x, ref):
            assert same_bits(table.value(v), r)

    def test_a_read_builds_no_slopes(self, monkeypatch):
        table = IntensityTable(rates=np.arange(27.0).reshape(3, 3, 3), x=[-1.0, 0.0, 2.0])
        surface = VolSurface([0.0, 1.0], [-1.0, 0.0, 1.0], [[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
        x = np.linspace(-3.0, 3.0, 13)
        expected = (table.value(x), table.rates_from(x.astype(int) % 3, x),
                    surface.sigma(0.4, x), surface.dsigma_dx(0.4, x))

        def no_diff(*args, **kwargs):
            raise AssertionError("np.diff on a read")
        monkeypatch.setattr(np, "diff", no_diff)
        got = (table.value(x), table.rates_from(x.astype(int) % 3, x),
               surface.sigma(0.4, x), surface.dsigma_dx(0.4, x))
        for a, b in zip(got, expected):
            assert same_bits(a, b)

    def test_zero_row_keeps_its_signed_zero_on_nodes(self):
        table = IntensityTable(rates=np.zeros((3, 2, 2)), x=np.array([-1.0, 0.0, 1.0]))
        out = table.value(np.array([-1.0, -0.5, 1.0]))
        assert np.signbit(out[[0, 2], 0, 0]).all()
        assert not np.signbit(out[1, 0, 0])

    @pytest.mark.parametrize("build", [
        lambda: VolSurface([0.0, 1e-310], [0.0, 1.0], [[0.2, 0.2], [0.3, 0.3]]),
        lambda: IntensityTable(rates=[[[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [2.0, 0.0]]],
                               x=[0.0, 1e-310]),
        lambda: IntensityTable(rates=[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 1e308], [0.0, 0.0]]],
                               x=[0.0, 0.5]),
        lambda: IntensityTable(rates=[[0.0, 1e308, 1e308], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
    ], ids=["surface-close-t-nodes", "q-close-x-nodes", "q-steep-rise", "q-row-sum"])
    def test_tables_that_overflow_are_refused(self, build):
        # a gap of 1e-310 (or 0.5 under a rise of 1e308) makes a slope
        # overflow to inf, and two rates of 1e308 a leaving rate: refused at
        # construction, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                build()
