import numpy as np
import pytest

from gridfr import (ConfigError, add_noise, analytic_coeffs, boxcar_scene,
                    check_conjugate_symmetry, grid_image_scene, jittered_grid,
                    load_samples, paper_test_scene, quadrature_coeffs,
                    save_samples, scene_eval, sine_scene, trig_poly_scene)
from gridfr.raster import Raster


def pts2(*pairs):
    return Raster(dim=2, points=np.array(pairs, dtype=float))


def test_paper_fn_integer_modes():
    scene = paper_test_scene()
    r = pts2((2, 1), (0, 0), (-2, -1))
    vals = analytic_coeffs(scene, r).values
    assert vals[0] == pytest.approx(-0.25, abs=1e-14)
    assert vals[1] == pytest.approx(0.0, abs=1e-14)
    assert vals[2] == pytest.approx(np.conj(vals[0]), abs=1e-14)


def test_conjugate_symmetry_real_scene():
    scene = paper_test_scene()
    r = pts2((1.3, 0.4), (-1.3, -0.4), (2.7, -1.1), (-2.7, 1.1))
    s = analytic_coeffs(scene, r)
    assert check_conjugate_symmetry(s, r)


def test_trig_poly_exact_lookup_and_leakage():
    scene = trig_poly_scene({3: 1.0 + 0j}, dim=1)
    r = Raster(dim=1, points=np.array([3.0, 0.0, 2.5]))
    vals = analytic_coeffs(scene, r).values
    assert vals[0] == pytest.approx(1.0, abs=1e-14)
    assert vals[1] == pytest.approx(0.0, abs=1e-14)
    assert abs(vals[2]) > 0.1   # sinc-type leakage at non-integer offset


def test_grid_image_unsupported_analytically():
    with pytest.raises(ConfigError):
        analytic_coeffs(boxcar_scene(), Raster(dim=1, points=np.array([1.0])))


def test_quadrature_oracle_against_analytic():
    scene = paper_test_scene()
    r = pts2((2, 1), (1.5, -0.5), (0.25, 3.0))
    a = analytic_coeffs(scene, r).values
    q = quadrature_coeffs(scene, r, 256).values
    assert np.max(np.abs(a - q)) < 1e-10


def test_quadrature_oracle_100_random_points():
    scene = paper_test_scene()
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(3)))
    pts = rng.uniform(-8, 8, size=(100, 2))
    r = Raster(dim=2, points=pts)
    a = analytic_coeffs(scene, r).values
    q = quadrature_coeffs(scene, r, 256).values
    assert np.max(np.abs(a - q)) < 1e-8


def test_quadrature_zero_scene():
    scene = trig_poly_scene({0: 0.0 + 0j}, dim=1)
    r = Raster(dim=1, points=np.linspace(-3, 3, 7))
    assert np.max(np.abs(quadrature_coeffs(scene, r, 64).values)) < 1e-14


def test_quadrature_constant_scene_orthogonality():
    scene = trig_poly_scene({0: 1.0 + 0j}, dim=1)
    r = Raster(dim=1, points=np.array([1.0, 2.0, -3.0]))
    assert np.max(np.abs(quadrature_coeffs(scene, r, 64).values)) < 1e-12


def test_quadrature_boxcar_exact_panels():
    scene = boxcar_scene(0.25, 0.75, 64)
    r = Raster(dim=1, points=np.array([0.0, 1.0, 2.0, 5.5]))
    q = quadrature_coeffs(scene, r, 256).values
    # exact transform of the indicator of [1/4, 3/4)
    lam = r.points
    expect = np.empty(len(lam), complex)
    for i, l in enumerate(lam):
        if abs(l) < 1e-14:
            expect[i] = 0.5
        else:
            expect[i] = (np.exp(-2j * np.pi * l * 0.25)
                         - np.exp(-2j * np.pi * l * 0.75)) / (2j * np.pi * l)
    np.testing.assert_allclose(q, expect, atol=1e-12)


def test_quadrature_pixels_2d_constant_image():
    # 4x5 pixels: the two axes carry different panel rules
    scene = grid_image_scene(np.ones((4, 5)), dim=2)
    r = pts2((0, 0), (1, 0), (0, 1), (-2, 3), (3, -1), (1, 2))
    q = quadrature_coeffs(scene, r).values
    assert abs(q[0] - 1.0) < 1e-14
    assert np.max(np.abs(q[1:])) < 1e-14


def test_quadrature_pixels_2d_half_plane_closed_form():
    pixels = np.zeros((4, 5))
    pixels[:2] = 1.0                       # indicator of x1 < 1/2
    scene = grid_image_scene(pixels, dim=2)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(4)))
    # per-pixel 4-node panels integrate the kernel to 1e-12 for |lambda|
    # below about 1/3
    lam = rng.uniform(-0.25, 0.25, size=(20, 2))
    q = quadrature_coeffs(scene, Raster(dim=2, points=lam)).values

    def segment(l, a):                     # int_0^a exp(-2 pi i l x) dx
        return (1.0 - np.exp(-2j * np.pi * l * a)) / (2j * np.pi * l)

    expect = segment(lam[:, 0], 0.5) * segment(lam[:, 1], 1.0)
    np.testing.assert_allclose(q, expect, rtol=0, atol=1e-12)


def test_quadrature_warning_flag():
    scene = paper_test_scene()
    r = pts2((40.0, 0.0), (0.0, 40.0))
    s = quadrature_coeffs(scene, r, 16)
    assert s.warnings


def test_linearity_of_coefficients():
    r = Raster(dim=1, points=np.array([0.3, 1.7, -2.2]))
    f = trig_poly_scene({1: 1.0 + 0j, 2: 0.5j}, dim=1)
    g = trig_poly_scene({1: -0.25 + 0j, 3: 1.0 + 0j}, dim=1)
    combo = trig_poly_scene({1: 2 * (1.0 + 0j) + 3 * (-0.25 + 0j),
                             2: 2 * 0.5j, 3: 3 * (1.0 + 0j)}, dim=1)
    lhs = analytic_coeffs(combo, r).values
    rhs = 2 * analytic_coeffs(f, r).values + 3 * analytic_coeffs(g, r).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_scene_eval_paper_fn():
    scene = paper_test_scene()
    x = np.array([[0.13, 0.77], [0.5, 0.25]])
    got = scene_eval(scene, x)
    want = np.sin(4 * np.pi * x[:, 0]) * np.sin(2 * np.pi * x[:, 1])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_noise_infinite_snr_identity():
    r = jittered_grid(4, 0.2, 3)
    s = analytic_coeffs(sine_scene(), r)
    assert add_noise(s, np.inf, 1) is s


def test_noise_zero_db_power():
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(9)))
    vals = np.exp(1j * rng.uniform(0, 2 * np.pi, 20000))
    from gridfr.sampling import SampleSet
    s = SampleSet(raster_ref="x", values=vals)
    noisy = add_noise(s, 0.0, 17)
    p_noise = np.mean(np.abs(noisy.values - vals) ** 2)
    assert abs(p_noise - 1.0) < 0.05


def test_noise_deterministic():
    r = jittered_grid(8, 0.2, 3)
    s = analytic_coeffs(sine_scene(), r)
    a = add_noise(s, 20.0, 55)
    b = add_noise(s, 20.0, 55)
    assert np.array_equal(a.values, b.values)


def test_noise_zero_signal_rejected():
    from gridfr.sampling import SampleSet
    s = SampleSet(raster_ref="x", values=np.zeros(4, complex))
    with pytest.raises(ConfigError):
        add_noise(s, 10.0, 1)


def test_samples_round_trip(tmp_path):
    r = jittered_grid(5, 0.25, 11)
    s = analytic_coeffs(sine_scene(), r)
    path = tmp_path / "s.csv"
    save_samples(s, r, path)
    back = load_samples(path, r)
    np.testing.assert_array_equal(back.values, s.values)
    assert back.raster_ref == r.raster_id
