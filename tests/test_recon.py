import numpy as np
import pytest
from scipy import integrate

from gridfr import (ConfigError, admissibility_slope, analytic_coeffs,
                    build_omega, build_plan, build_psi, coefficients,
                    gaussian_window, grid_image_scene, jittered_grid,
                    reconstruct,
                    reference_image, scene_image, sine_scene, synthesize,
                    trig_poly_scene, windowed_coefficients)
from gridfr.raster import Raster
from gridfr.recon import psi_entry_quad
from gridfr.sampling import SampleSet
from gridfr.window import window_coefficient, window_values


def uniform_raster(n):
    return Raster(dim=1, points=np.arange(-n, n + 1, dtype=float))


def test_omega_uniform_diagonal_is_dc_value():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = uniform_raster(6)
    om = build_omega(r, win, 6)
    dc = np.sqrt(2 * np.pi) * 0.125
    np.testing.assert_allclose(np.diag(om), dc, rtol=1e-14)


def test_omega_truncation_exact_zero():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = uniform_raster(16)
    om = build_omega(r, win, 16)
    m = np.arange(-16, 17)
    d = np.abs(m[:, None] - r.points[None, :])
    assert np.all(om[d > win.K] == 0)
    assert np.all(om[d <= win.K] != 0)


def test_omega_quasi_partition_column_sums():
    # Poisson summation makes sum_m w_hat(m - lambda) equal w(0) up to the
    # window neighbor terms; those sit below 1e-6 for sigma <= ~1/11
    win = gaussian_window(1 / 12, 1e-12, dim=1)
    r = jittered_grid(16, 0.25, 5)
    om = build_omega(r, win, 16 + win.K)
    sums = om.sum(axis=0)
    assert np.max(np.abs(sums - sums.mean())) < 1e-6
    assert abs(sums.mean() - window_values(0.0, 1 / 12)) < 1e-6


def test_psi_conjugate_symmetry_in_offset():
    from gridfr.recon import _recip_window_transform
    win = gaussian_window(0.125, 1e-12, dim=1)
    t = np.array([0.3, 1.7, -4.2, 9.9])
    a = _recip_window_transform(t, win, 512)
    b = _recip_window_transform(-t, win, 512)
    np.testing.assert_allclose(b, np.conj(a), rtol=1e-12)


def test_psi_against_adaptive_quadrature():
    win = gaussian_window(0.2, 1e-12, dim=1)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(12)))
    lam = rng.uniform(-8, 8, 20)
    r = Raster(dim=1, points=np.sort(lam))
    psi = build_psi(r, win, 8)
    modes = np.arange(-8, 9)
    sigma = win.sigma
    for _ in range(20):
        i = int(rng.integers(0, len(lam)))
        j = int(rng.integers(0, len(modes)))
        t = modes[j] - r.points[i]

        def gre(x):
            return np.cos(2 * np.pi * t * x) * np.exp((x - 0.5) ** 2 / (2 * sigma**2))

        def gim(x):
            return np.sin(2 * np.pi * t * x) * np.exp((x - 0.5) ** 2 / (2 * sigma**2))

        re, _ = integrate.quad(gre, 0.0, 1.0, limit=300)
        im, _ = integrate.quad(gim, 0.0, 1.0, limit=300)
        assert abs(psi[i, j] - complex(re, im)) < 1e-8


def test_psi_flat_window_orthonormality_hook():
    # a huge sigma makes w == 1 numerically; entries collapse to the plain
    # Fourier cross-correlation, identity on matched integer offsets
    win = gaussian_window(1e6, 0.5, dim=1)
    r = uniform_raster(4)
    psi = build_psi(r, win, 4)
    np.testing.assert_allclose(psi, np.eye(9), atol=1e-12)


def test_psi_entry_quad_oracle_agrees():
    win = gaussian_window(0.2, 1e-12, dim=2)
    r = Raster(dim=2, points=np.array([[0.3, -1.2], [2.0, 0.7]]))
    psi = build_psi(r, win, 3)
    modes = [(m1, m2) for m1 in range(-3, 4) for m2 in range(-3, 4)]
    k = 17
    val = psi_entry_quad(win, r.points[1], modes[k])
    assert abs(psi[1, k] - val) < 1e-10


def test_plan_shapes_1d():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(16, 0.25, 3)
    plan = build_plan(r, win, 16, methods=("cg", "frame", "ftcg"), band=4)
    assert plan.omega.shape == (33, 33)
    assert plan.psi.shape == (33, 33)
    assert plan.tmat.shape == (33, 33)
    assert plan.dvec.shape == (33,)
    assert plan.meta["kappa_psi"] > 0
    assert plan.meta["kept_fraction"] == pytest.approx((7 * 33 - 12) / 33**2)


def test_plan_rebuild_deterministic():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(8, 0.25, 9)
    a = build_plan(r, win, 8, methods=("ftcg",), band=3)
    b = build_plan(r, win, 8, methods=("ftcg",), band=3)
    assert np.array_equal(a.tmat, b.tmat)
    assert np.array_equal(a.cmat, b.cmat)


def test_frame_plan_rowspace_identity():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(12, 0.25, 21)
    plan = build_plan(r, win, 12, methods=("frame",))
    psi, b = plan.psi, plan.bmat
    assert np.linalg.norm(psi @ b @ psi - psi) / np.linalg.norm(psi) < 1e-8


def test_full_band_collapse():
    # with a square mode box and a healthy spectrum, full-band FTCG and the
    # frame solve are the same linear map
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(16, 0.25, 42)
    plan = build_plan(r, win, 16, methods=("frame", "ftcg"), band=33)
    s = analytic_coeffs(sine_scene(), r)
    img_fr = reconstruct("frame", s, plan, 512)
    img_ft = reconstruct("ftcg", s, plan, 512)
    rel = (np.linalg.norm(img_ft.values - img_fr.values)
           / np.linalg.norm(img_fr.values))
    assert rel < 1e-6


def test_coefficients_zero_and_linearity():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(8, 0.25, 2)
    plan = build_plan(r, win, 8, methods=("cg", "frame", "ftcg"), band=3)
    z = SampleSet(raster_ref=r.raster_id, values=np.zeros(len(r), complex))
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(31)))
    f1 = SampleSet(raster_ref=r.raster_id,
                   values=rng.normal(size=len(r)) + 1j * rng.normal(size=len(r)))
    f2 = SampleSet(raster_ref=r.raster_id,
                   values=rng.normal(size=len(r)) + 1j * rng.normal(size=len(r)))
    combo = SampleSet(raster_ref=r.raster_id,
                      values=2.0 * f1.values + 3.0j * f2.values)
    for method in ("cg", "frame", "ftcg"):
        assert np.all(coefficients(plan, z, method) == 0)
        lhs = coefficients(plan, combo, method)
        rhs = (2.0 * coefficients(plan, f1, method)
               + 3.0j * coefficients(plan, f2, method))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.abs(rhs).max())


def test_coefficients_raster_mismatch():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r1 = jittered_grid(6, 0.25, 1)
    r2 = jittered_grid(6, 0.25, 2)
    plan = build_plan(r1, win, 6, methods=("cg",))
    s = analytic_coeffs(sine_scene(), r2)
    with pytest.raises(ConfigError):
        coefficients(plan, s, "cg")


def test_synthesize_single_dc_coefficient():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = uniform_raster(4)
    plan = build_plan(r, win, 4, methods=("cg",))
    c = np.zeros(9, complex)
    c[4] = 1.0            # mode m = 0
    img = synthesize(c, plan, 64)
    x = np.arange(64) / 64
    np.testing.assert_allclose(img.values, 1.0 / window_values(x, 0.125),
                               rtol=1e-12)


def test_synthesize_matches_naive_evaluation():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = uniform_raster(8)
    plan = build_plan(r, win, 8, methods=("cg",))
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(13)))
    c = rng.normal(size=17) + 1j * rng.normal(size=17)
    img = synthesize(c, plan, 64)
    x = np.arange(64) / 64
    naive = np.zeros(64, complex)
    for m, cm in zip(range(-8, 9), c):
        naive += cm * np.exp(2j * np.pi * m * x)
    naive /= window_values(x, 0.125)
    np.testing.assert_allclose(img.values, naive, atol=1e-10 * np.abs(naive).max())


def test_synthesize_recovers_windowed_trig_poly():
    # forward-transform oracle: synthesizing the exact coefficients of f*w
    # returns f up to the truncation tail of the windowed spectrum, whose
    # boundary cusp is amplified by 1/w back near x=0 and x=1
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = uniform_raster(8)
    plan = build_plan(r, win, 8, methods=("cg",))
    scene = trig_poly_scene({2: -0.35j, -2: 0.35j, 3: -0.1j, -3: 0.1j}, dim=1)
    c = windowed_coefficients(scene, win, (8,))
    img = synthesize(c, plan, 256)
    x = np.arange(256) / 256
    want = 0.7 * np.sin(4 * np.pi * x) + 0.2 * np.sin(6 * np.pi * x)
    interior = slice(32, 224)
    assert np.max(np.abs(img.values[interior] - want[interior])) < 1e-3
    assert np.max(np.abs(img.values - want)) < 5e-2


def test_synthesize_grid_doubling_consistency():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = uniform_raster(5)
    plan = build_plan(r, win, 5, methods=("cg",))
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(8)))
    c = rng.normal(size=11) + 1j * rng.normal(size=11)
    a = synthesize(c, plan, 64)
    b = synthesize(c, plan, 128)
    np.testing.assert_allclose(a.values, b.values[::2], rtol=0, atol=1e-12)


def test_synthesize_grid_too_small():
    win = gaussian_window(0.125, 1e-12, dim=1)
    plan = build_plan(uniform_raster(8), win, 8, methods=("cg",))
    with pytest.raises(ConfigError):
        synthesize(np.zeros(17, complex), plan, 16)


def test_reconstruct_zero_scene_zero_image():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(8, 0.25, 4)
    plan = build_plan(r, win, 8, methods=("cg", "frame", "ftcg"), band=3)
    z = SampleSet(raster_ref=r.raster_id, values=np.zeros(len(r), complex))
    for method in ("cg", "frame", "ftcg"):
        img = reconstruct(method, z, plan, 64)
        assert np.max(np.abs(img.values)) == 0.0
        assert img.method == method


def test_reconstruct_superposition():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(8, 0.25, 4)
    plan = build_plan(r, win, 8, methods=("frame",))
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(77)))
    v1 = rng.normal(size=len(r)) + 1j * rng.normal(size=len(r))
    v2 = rng.normal(size=len(r)) + 1j * rng.normal(size=len(r))
    mk = lambda v: SampleSet(raster_ref=r.raster_id, values=v)
    a = reconstruct("frame", mk(v1), plan, 64).values
    b = reconstruct("frame", mk(v2), plan, 64).values
    ab = reconstruct("frame", mk(v1 + 0.5j * v2), plan, 64).values
    np.testing.assert_allclose(ab, a + 0.5j * b, atol=1e-12 * np.abs(a).max())


def test_reference_tracks_scene_to_sub_percent():
    # the windowed partial sum is the metric yardstick; it follows the
    # scene closely but never exactly (wrap cusp of f*w divided by w)
    win = gaussian_window(0.2, 1e-12, dim=1)
    scene = sine_scene()
    ref = reference_image(scene, win, 14, 256)
    scn = scene_image(scene, 256, 1)
    rel = np.linalg.norm(ref.values - scn.values) / np.linalg.norm(scn.values)
    assert rel < 1e-2


def test_admissibility_decay_slope():
    win = gaussian_window(0.2, 1e-12, dim=2)
    assert admissibility_slope(win, 8) <= -2.0


def test_mode_box_warning_recorded():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(8, 0.25, 4)
    plan = build_plan(r, win, 4, methods=("cg",))  # mode box way below data extent
    assert "mode_box_warning" in plan.meta


def test_windowed_coefficients_constant_pixels_2d_separate():
    win2 = gaussian_window(0.2, 1e-12, dim=2)
    win1 = gaussian_window(0.2, 1e-12, dim=1)
    c = windowed_coefficients(grid_image_scene(np.ones((4, 5)), 2), win2, (3, 2))
    c1 = windowed_coefficients(grid_image_scene(np.ones(4), 1), win1, 3)
    c2 = windowed_coefficients(grid_image_scene(np.ones(5), 1), win1, 2)
    np.testing.assert_allclose(c, np.multiply.outer(c1, c2).ravel(),
                               rtol=0, atol=1e-15)
    # the panels are exact on the pixels, not on the Gaussian window, so
    # the long-quadrature window coefficients agree only to ~1e-4
    exact = np.multiply.outer(window_coefficient(np.arange(-3, 4), 0.2),
                              window_coefficient(np.arange(-2, 3), 0.2))
    np.testing.assert_allclose(c, exact.ravel(), rtol=0, atol=3e-4)


def test_plan_arrays_read_only():
    win = gaussian_window(0.125, 1e-12, dim=1)
    plan = build_plan(jittered_grid(6, 0.25, 5), win, 6, band=3)
    with pytest.raises(ValueError):
        plan.psi[0, 0] = 0.0
    for name in ("omega", "dvec", "bmat", "tmat", "cmat"):
        assert not getattr(plan, name).flags.writeable
