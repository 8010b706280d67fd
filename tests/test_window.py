import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridfr import (ConfigError, NumericalError, build_omega, gaussian_window,
                    truncation_radius, window, window_coefficient)
from gridfr.raster import Raster
from gridfr.sampling import _outer
from gridfr.window import gauss_legendre_01, spectrum_factor, window_values

from oracles import _phased_omega, dense_omega, gauss_legendre_decimal


def test_peak_at_center():
    assert window_values(0.5, 0.125) == pytest.approx(1.0, abs=0)


def test_tensor_product_peak():
    # the 2D window is the outer product of the per-axis factors
    vals = _outer([window_values(np.array([0.25, 0.5]), 0.125)] * 2)
    assert vals[1, 1] == pytest.approx(1.0)
    assert vals[0, 1] == pytest.approx(np.exp(-2.0), rel=1e-14)


def test_boundary_value_closed_form():
    assert window_values(0.0, 0.125) == pytest.approx(np.exp(-8.0), rel=1e-14)


def test_window_symmetric_about_center():
    x = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(window_values(x, 0.17),
                               window_values(1.0 - x, 0.17), rtol=0, atol=1e-15)


def test_spectrum_dc_value():
    assert spectrum_factor(0.0, 0.125) == pytest.approx(np.sqrt(2 * np.pi) / 8)


def test_spectrum_at_truncation_radius():
    spec = gaussian_window(0.125, 1e-12, dim=1)
    assert abs(spectrum_factor(float(spec.K), spec.sigma)) <= \
        spec.trunc_eps * abs(spectrum_factor(0.0, spec.sigma))


def test_spectrum_xi1_closed_form():
    expect = np.sqrt(2 * np.pi) / 8 * np.exp(-np.pi**2 / 32) * np.exp(-1j * np.pi)
    assert spectrum_factor(1.0, 0.125) == pytest.approx(expect, rel=1e-14)


def test_spectrum_even_and_decreasing():
    xi = np.linspace(0.0, 12.0, 40)
    mags = np.abs(spectrum_factor(xi, 0.125))
    np.testing.assert_allclose(np.abs(spectrum_factor(-xi, 0.125)), mags,
                               rtol=1e-14)
    assert np.all(np.diff(mags) < 0)


def test_truncation_radius_examples():
    assert truncation_radius(0.125, 1e-12) == 10
    # spectrum decay scales as exp(-2 pi^2 sigma^2 K^2): doubling sigma halves K
    assert truncation_radius(0.25, 1e-12) == 5
    # degenerate tolerance clamps at 1
    assert truncation_radius(0.125, 0.999) == 1


def test_truncation_radius_validation():
    with pytest.raises(ConfigError):
        truncation_radius(-1.0, 1e-12)
    with pytest.raises(ConfigError):
        truncation_radius(0.125, 1.5)


def test_spectrum_2d_is_axis_product():
    # 2D Omega entries are w_hat(m1 - lam1) w_hat(m2 - lam2)
    win = gaussian_window(0.125, 1e-12, dim=2)
    r = Raster(dim=2, points=np.array([[0.5, 1.0]]))
    om = dense_omega(_phased_omega(build_omega(r, win, 2), r, (2, 2)))
    v = om[(1 + 2) * 5 + (-1 + 2), 0]      # mode (1, -1), row-major
    s1 = spectrum_factor(1 - 0.5, 0.125)
    s2 = spectrum_factor(-1 - 1.0, 0.125)
    assert v == pytest.approx(s1 * s2, rel=1e-14)


def test_closed_form_matches_quadrature_where_tail_negligible():
    # The closed form is the whole-line transform; it equals the [0,1]
    # coefficient only up to the window mass outside [0,1].  That tail is
    # below 1e-10 for sigma <= ~1/13.6, so the 1e-10 gate is checked there.
    sigma = 1.0 / 14.0
    spec = gaussian_window(sigma, 1e-12, dim=1)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(7)))
    xi = rng.uniform(-spec.K, spec.K, 20)
    closed = spectrum_factor(xi, sigma)
    quad = window_coefficient(xi, sigma)
    assert np.max(np.abs(closed - quad)) < 1e-10


def test_closed_form_tail_documented_at_default_sigma():
    # at sigma = 1/8 the outside-[0,1] tail is ~2e-5 in absolute terms;
    # the discrepancy must stay within that analytic bound
    sigma = 0.125
    spec = gaussian_window(sigma, 1e-12, dim=1)
    xi = np.linspace(-spec.K, spec.K, 41)
    closed = spectrum_factor(xi, sigma)
    quad = window_coefficient(xi, sigma)
    from scipy.stats import norm
    tail_bound = 2.0 * sigma * np.sqrt(2 * np.pi) * norm.sf(0.5 / sigma)
    assert np.max(np.abs(closed - quad)) <= tail_bound * 1.01
    assert np.max(np.abs(closed - quad)) > 1e-8  # genuinely not 1e-10 here


# ------------------------------------------------- Gauss-Legendre rule

EPS = np.finfo(float).eps
ULP_HALF = np.spacing(0.5)       # one unit in the last place on [1/2, 1)


@pytest.mark.parametrize("n", range(1, 101))
def test_gauss_legendre_matches_leggauss(n):
    x, w = gauss_legendre_01(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, 0.5 * (ref_x + 1.0), rtol=0, atol=4 * ULP_HALF)
    # leggauss's own weights are up to 8.2e-12 off the 40-digit ones from
    # n = 41 on (n = 90); the rule is held to 1e-12 of those below
    if n <= 40:
        np.testing.assert_allclose(w, 0.5 * ref_w, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 31, 41, 60, 90, 100, 401])
def test_gauss_legendre_matches_40_digit_rule(n):
    x, w = gauss_legendre_01(n)
    ref_x, ref_w = gauss_legendre_decimal(n)
    np.testing.assert_allclose(x, ref_x, rtol=0, atol=ULP_HALF)
    np.testing.assert_allclose(w, ref_w, rtol=1e-12, atol=0)


# Gauss on n nodes is exact up to degree 2n - 1; |a| <= n leaves an error
# below 1e-14 (about J_2n(n/2)) from n = 14 on
@settings(max_examples=40, deadline=None)
@given(n=st.integers(16, 1500), frac=st.floats(-1.0, 1.0))
@example(n=16, frac=1.0)
@example(n=1152, frac=-1.0)
@example(n=1500, frac=1.0)
def test_gauss_legendre_integrates_cosines(n, frac):
    a = frac * n
    x, w = gauss_legendre_01(n)
    exact = np.sinc(a / np.pi)          # sin(a)/a, 1 at a = 0
    assert abs(w @ np.cos(a * x) - exact) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 64, 383, 384, 1151, 1152])
def test_gauss_legendre_mirror_and_unit_mass(n):
    x, w = gauss_legendre_01(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and 0 < x[0] and x[-1] < 1
    np.testing.assert_array_equal(w, w[::-1])
    np.testing.assert_allclose(x[::-1], 1.0 - x, rtol=0, atol=ULP_HALF)
    assert abs(math.fsum(w) - 1.0) <= 4 * EPS


def test_gauss_legendre_small_and_odd_rules():
    x, w = gauss_legendre_01(1)
    np.testing.assert_array_equal((x, w), ([0.5], [1.0]))
    x, w = gauss_legendre_01(2)
    np.testing.assert_allclose(x, 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0),
                               rtol=0, atol=ULP_HALF)
    np.testing.assert_allclose(w, [0.5, 0.5], rtol=2 * EPS)
    x, w = gauss_legendre_01(3)
    np.testing.assert_allclose(x, 0.5 + np.array([-0.5, 0, 0.5]) * np.sqrt(0.6),
                               rtol=0, atol=ULP_HALF)
    np.testing.assert_allclose(w, np.array([5, 8, 5]) / 18, rtol=4 * EPS)
    for n in (5, 11, 385, 1153):        # odd rules keep the centre at 1/2
        assert gauss_legendre_01(n)[0][n // 2] == 0.5


def test_gauss_legendre_stops_after_bounded_passes(monkeypatch):
    gauss_legendre_01.cache_clear()
    monkeypatch.setattr(window, "_NEWTON_PASSES", 1)
    try:
        with pytest.raises(NumericalError, match="did not converge"):
            gauss_legendre_01(384)
    finally:
        gauss_legendre_01.cache_clear()


def test_gauss_legendre_rule_is_read_only():
    x, w = gauss_legendre_01(7)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_gauss_legendre_memory_is_linear():
    # the dense n x n companion matrix of leggauss alone is 10.6 MB at
    # n = 1152; the recurrence holds a few arrays of n/2 nodes
    gauss_legendre_01.cache_clear()
    tracemalloc.start()
    try:
        gauss_legendre_01(1152)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gauss_legendre_01.cache_clear()
    assert peak < 1 << 20
