import numpy as np
import pytest

from gridfr import (ConfigError, build_omega, gaussian_window,
                    truncation_radius, window_coefficient)
from gridfr.raster import Raster
from gridfr.sampling import _outer
from gridfr.window import spectrum_factor, window_values

from oracles import _phased_omega, dense_omega


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
