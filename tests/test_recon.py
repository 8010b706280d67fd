import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from gridfr import (ConfigError, analytic_coeffs, asterisk,
                    build_omega, build_plan, build_psi, coefficients,
                    gaussian_window, grid_image_scene, jittered_grid,
                    paper_test_scene, reconstruct,
                    reference_image, scene_image, sine_scene, synthesize,
                    trig_poly_scene, windowed_coefficients)
from gridfr import numerics, recon
from gridfr.recon import t_matrix
from gridfr.harness import preset_config, raster_from_config
from gridfr.numerics import _svd_pinv, band_mask
from gridfr.raster import Raster
from gridfr.sampling import SampleSet
from gridfr.window import window_coefficient, window_values

from oracles import (MAX_CUT, _phased, _phased_omega,
                     _recip_window_transform, admissibility_slope,
                     cut_sensitivity, dense_omega, dense_psi,
                     no_values_only_svd, plan_omega, plan_psi, plan_t,
                     psi_entry_quad, rephased)


def uniform_raster(n):
    return Raster(dim=1, points=np.arange(-n, n + 1, dtype=float))


def test_omega_uniform_diagonal_is_dc_value():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = uniform_raster(6)
    om, = build_omega(r, win, 6)
    dc = np.sqrt(2 * np.pi) * 0.125
    np.testing.assert_allclose(np.diag(om), dc, rtol=1e-14)


def test_omega_truncation_exact_zero():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = uniform_raster(16)
    om, = build_omega(r, win, 16)
    m = np.arange(-16, 17)
    d = np.abs(m[:, None] - r.points[None, :])
    assert np.all(om[d > win.K] == 0)
    assert np.all(om[d <= win.K] != 0)


def test_omega_quasi_partition_column_sums():
    # Poisson summation makes sum_m w_hat(m - lambda) equal w(0) up to the
    # window neighbor terms; those sit below 1e-6 for sigma <= ~1/11
    win = gaussian_window(1 / 12, 1e-12, dim=1)
    r = jittered_grid(16, 0.25, 5)
    modes = 16 + win.K
    om, = _phased_omega(build_omega(r, win, modes), r, (modes,))
    sums = om.sum(axis=0)
    assert np.max(np.abs(sums - sums.mean())) < 1e-6
    assert abs(sums.mean() - window_values(0.0, 1 / 12)) < 1e-6


def test_psi_conjugate_symmetry_in_offset():
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
    psi, = _phased(build_psi(r, win, 8), r, (8,))
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
    psi, = build_psi(r, win, 4)
    np.testing.assert_allclose(psi, np.eye(9), atol=1e-12)


def test_psi_entry_quad_oracle_agrees():
    win = gaussian_window(0.2, 1e-12, dim=2)
    r = Raster(dim=2, points=np.array([[0.3, -1.2], [2.0, 0.7]]))
    psi = dense_psi(_phased(build_psi(r, win, 3), r, (3, 3)))
    modes = [(m1, m2) for m1 in range(-3, 4) for m2 in range(-3, 4)]
    k = 17
    val = psi_entry_quad(win, r.points[1], modes[k])
    assert abs(psi[1, k] - val) < 1e-10


def test_plan_shapes_1d():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(16, 0.25, 3)
    plan = build_plan(r, win, 16, methods=("cg", "frame", "ftcg"), band=4)
    assert plan.omega is None
    assert [o.shape for o in plan.omega_axes] == [(33, 33)]
    assert dense_psi(plan.psi_axes).shape == (33, 33)
    assert t_matrix(plan.psi_axes, plan.omega_axes).shape == (33, 33)
    assert plan.dvec.shape == (33,)
    assert plan.meta["kappa_psi"] > 0
    assert plan.meta["kept_fraction"] == pytest.approx((7 * 33 - 12) / 33**2)


def test_plan_rebuild_deterministic():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(8, 0.25, 9)
    a = build_plan(r, win, 8, methods=("ftcg",), band=3)
    b = build_plan(r, win, 8, methods=("ftcg",), band=3)
    assert np.array_equal(t_matrix(a.psi_axes, a.omega_axes),
                          t_matrix(b.psi_axes, b.omega_axes))
    assert np.array_equal(a.cmat, b.cmat)


@pytest.mark.parametrize("dim, extents, sigma",
                         [(1, (4, 8, 16), 0.125), (2, (2, 3, 4), 0.2)])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_with_band_matches_fresh_build(dim, extents, sigma, data, seed):
    # a plan derived at another band is a fresh build at that band, bit
    # for bit, and shares every band-free array with the plan it came from
    n = data.draw(st.sampled_from(extents))
    raster = jittered_grid((n,) * dim, 0.25, seed)
    first, band = (data.draw(st.integers(1, len(raster))) for _ in range(2))
    win = gaussian_window(sigma, 1e-12, dim=dim)
    base = build_plan(raster, win, n, band=first)
    derived = recon.with_band(base, band)
    fresh = build_plan(raster, win, n, band=band)
    for name in ("psi_axes", "omega_axes", "phases", "dvec", "bmat"):
        got, want = getattr(derived, name), getattr(fresh, name)
        assert got is getattr(base, name), name
        if isinstance(got, np.ndarray):
            got, want = (got,), (want,)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), name
    assert derived.band == fresh.band == band and base.band == first
    assert np.array_equal(derived.cmat, fresh.cmat)
    assert not derived.cmat.flags.writeable
    for key in ("c_pinv", "kappa_c", "kappa_masked_t", "kept_fraction",
                "psi_quad_drift", "psi_pinv", "quad_nodes"):
        assert derived.meta[key] == fresh.meta[key], key
    assert set(derived.meta["timings"]) == {"ftcg_pinv", "total"}
    assert set(base.meta["timings"]) == set(fresh.meta["timings"])


def test_with_band_checks_band_and_methods():
    win = gaussian_window(0.125, 1e-12, dim=1)
    raster = jittered_grid(4, 0.25, 3)
    plan = build_plan(raster, win, 4, band=2)
    for band in (0, len(raster) + 1):
        with pytest.raises(ConfigError):
            recon.with_band(plan, band)
    assert recon.with_band(plan, None).band == \
        build_plan(raster, win, 4).band
    with pytest.raises(ConfigError):
        recon.with_band(build_plan(raster, win, 4, ("cg", "frame")), 2)


def test_plans_compare_and_hash_by_identity():
    # equal-valued plans hold arrays, which have no single truth value
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(8, 0.25, 9)
    a = build_plan(r, win, 8, band=3)
    b = build_plan(r, win, 8, band=3)
    assert (a == b) is False and a != b
    assert a == a
    assert {a: 1, b: 2}[a] == 1


def test_frame_plan_rowspace_identity():
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(12, 0.25, 21)
    plan = build_plan(r, win, 12, methods=("frame",))
    d, e = plan.phases
    psi, b = plan_psi(plan), rephased(plan.bmat, e, d.conj())
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


def test_mode_box_warning_recorded(caplog):
    # a mode box the caller passes is its choice: recorded, not logged
    win = gaussian_window(0.125, 1e-12, dim=1)
    r = jittered_grid(8, 0.25, 4)
    plan = build_plan(r, win, 4, methods=("cg",))  # mode box way below data extent
    assert "mode_box_warning" in plan.meta
    assert caplog.records == []


def test_defaulted_mode_box_warning_logged(caplog):
    # 17 points spaced 2 apart reach |lambda| = 16, but default_modes caps
    # the box at (17 - 1) / 2 = 8 to keep the systems overdetermined
    r = Raster(dim=1, points=2.0 * np.arange(-8, 9))
    plan = build_plan(r, gaussian_window(0.125, 1e-12, dim=1),
                      methods=("cg",))
    assert plan.modes == (8,)
    assert [(rec.name, rec.levelname, rec.getMessage())
            for rec in caplog.records] == \
        [("gridfr", "WARNING", plan.meta["mode_box_warning"])]


def test_library_warnings_print_nothing():
    # the package's NullHandler keeps a caller without logging set up
    # silent; without it, Python's last-resort handler prints to stderr
    code = ("from gridfr import build_plan, gaussian_window, jittered_grid\n"
            "build_plan(jittered_grid(8, 0.25, 4), gaussian_window(0.125), 4,"
            " quad_nodes=8)\n")
    src = os.path.dirname(os.path.dirname(recon.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stdout == done.stderr == ""


def test_windowed_coefficients_constant_pixels_2d_separate():
    win2 = gaussian_window(0.2, 1e-12, dim=2)
    win1 = gaussian_window(0.2, 1e-12, dim=1)
    c = windowed_coefficients(grid_image_scene(np.ones((4, 5)), 2), win2, (3, 2))
    c1 = windowed_coefficients(grid_image_scene(np.ones(4), 1), win1, 3)
    c2 = windowed_coefficients(grid_image_scene(np.ones(5), 1), win1, 2)
    np.testing.assert_allclose(c, np.multiply.outer(c1, c2).ravel(),
                               rtol=0, atol=1e-15)
    # the panels are sized for the window's bandwidth too, so they agree
    # with the long-quadrature window coefficients
    exact = np.multiply.outer(window_coefficient(np.arange(-3, 4), 0.2),
                              window_coefficient(np.arange(-2, 3), 0.2))
    np.testing.assert_allclose(c, exact.ravel(), rtol=0, atol=1e-12)


def test_plan_timings_cover_every_stage():
    win = gaussian_window(0.125, 1e-12, dim=1)
    plan = build_plan(jittered_grid(8, 0.25, 5), win, 8, band=3)
    t = plan.meta["timings"]
    stages = ("psi", "drift", "omega", "density", "frame_pinv", "ftcg_pinv")
    assert set(t) == set(stages) | {"total"}
    assert all(t[k] >= 0.0 for k in t)
    assert sum(t[k] for k in stages) <= t["total"]


def test_plan_records_each_applied_rtol():
    # 9 points, 17 modes: Psi is 9 x 17 and T is 9 x 9, so the default
    # thresholds differ; each inverse records its own
    win = gaussian_window(0.125, 1e-12, dim=1)
    plan = build_plan(jittered_grid(4, 0.25, 5), win, 8, band=3)
    psi = plan_psi(plan)
    assert psi.shape == (9, 17) and plan.rtol is None
    psi_info, c_info = plan.meta["psi_pinv"], plan.meta["c_pinv"]
    assert psi_info.rtol == pytest.approx(1.7e-9, rel=1e-12)
    assert c_info.rtol == pytest.approx(9e-10, rel=1e-12)
    masked = band_mask(plan_t(plan), plan.band)
    assert c_info.rank == _svd_pinv(masked, c_info.rtol)[1].rank
    assert psi_info.rank == _svd_pinv(psi, psi_info.rtol)[1].rank
    # a requested rtol is the one both inverses apply
    plan = build_plan(jittered_grid(4, 0.25, 5), win, 8, band=3, rtol=1e-6)
    assert plan.rtol == 1e-6
    assert plan.meta["psi_pinv"].rtol == plan.meta["c_pinv"].rtol == 1e-6


def _held_arrays(plan) -> dict:
    """Every ndarray a plan's fields hold, tuples opened, by field name."""
    out = {}
    for f in dataclasses.fields(plan):
        value = getattr(plan, f.name)
        if isinstance(value, np.ndarray):
            out[f.name] = value
        elif isinstance(value, tuple):
            out.update((f"{f.name}[{i}]", v) for i, v in enumerate(value)
                       if isinstance(v, np.ndarray))
    return out


def test_plan_arrays_read_only():
    win = gaussian_window(0.125, 1e-12, dim=1)
    plan = build_plan(jittered_grid(6, 0.25, 5), win, 6, band=3)
    with pytest.raises(ValueError):
        plan.psi_axes[0][0, 0] = 0.0
    for name in ("dvec", "bmat", "cmat"):
        assert not getattr(plan, name).flags.writeable
    win2 = gaussian_window(0.2, 1e-12, dim=2)
    plan2 = build_plan(asterisk(6, 2, 2.0), win2, (2, 3), band=3)
    for plan in (plan, plan2):
        assert plan.psi is None and plan.omega is None and plan.tmat is None
        assert len(plan.psi_axes) == len(plan.omega_axes) == plan.raster.dim
        for table in plan.omega_axes:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
        held = _held_arrays(plan)
        assert {"psi_axes[0]", "omega_axes[0]", "dvec", "bmat",
                "cmat"} <= set(held)
        for name, arr in held.items():
            assert not arr.flags.writeable, name
    # only B and F are dense, both Q x P, and no array is P x P; in 1D
    # Psi's and Omega's one table is the dense matrix, so the 2D plan
    # shows it
    p, q = len(plan2.raster), np.prod([2 * m + 1 for m in plan2.modes])
    assert p != q
    assert plan2.bmat.shape == plan2.cmat.shape == (q, p)
    for name, arr in _held_arrays(plan2).items():
        assert arr.shape != (p, p), name
        if name not in ("bmat", "cmat"):
            assert arr.shape not in ((p, q), (q, p)), name


def test_band_checked_before_any_assembly(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("Psi built before the band was checked")

    monkeypatch.setattr(recon, "build_psi", fail)
    win = gaussian_window(0.2, 1e-12, dim=2)
    raster = jittered_grid((3, 3), 0.06, 101)
    for band in (0, len(raster) + 1):
        with pytest.raises(ConfigError):
            build_plan(raster, win, (2, 2), band=band)


def test_modes_checked_against_raster():
    win = gaussian_window(0.125, 1e-12, dim=1)
    raster = jittered_grid(4, 0.25, 5)
    for modes in (-1, (4, 4)):
        with pytest.raises(ConfigError, match="modes"):
            build_plan(raster, win, modes)


def _preset_plan(name, seed, methods):
    cfg = preset_config(name, seed)
    raster, _ = raster_from_config(cfg.raster, seed)
    win = gaussian_window(cfg.window["sigma"], cfg.window["trunc_eps"], dim=2)
    return build_plan(raster, win, cfg.modes, methods, band=cfg.band,
                      rtol=cfg.rtol)


def _mode_count(plan) -> int:
    """Q, the size of the plan's mode box and the cap on ftcg's rank."""
    return int(np.prod([2 * m + 1 for m in plan.modes]))


@pytest.mark.parametrize("name, seed, methods, paths", [
    ("noisy-grid", 101, ("frame", "ftcg"),
     {"psi_pinv": "gram", "c_pinv": "capped"}),
    ("noisy-grid", 102, ("ftcg",), {"c_pinv": "capped"}),
    ("sas-wedge", 101, ("frame", "ftcg"), {"psi_pinv": "svd", "c_pinv": "lu"}),
    ("asterisk", 101, ("frame", "ftcg"),
     {"psi_pinv": "svd", "c_pinv": "capped"}),
])
def test_preset_pinv_paths_match_svd_oracle(name, seed, methods, paths):
    # certified full-rank systems take LU (square) or Gram (tall); the
    # masked T of noisy-grid (P = 900 > Q = 841) and of the asterisk
    # (221 > 121) keeps Q values, through the top eigenpairs of its Gram
    # matrix; sas-wedge's Psi drops values and the asterisk's tall Psi
    # has a Gram residual (4.1e-8) above the gate, so both take the SVD.
    # None of them computes singular values alone.  The oracle is the
    # truncated SVD, capped at Q for the masked T.
    with no_values_only_svd():
        plan = _preset_plan(name, seed, methods)
    d, e = plan.phases
    for key, kind in paths.items():
        # the plan holds A^+ and F = G (R o M)^+: E A^+ D^H = Psi^+, and
        # E F D^H = Omega (T o M)^+ as T o M = D (R o M) D^H
        if key == "psi_pinv":
            got, system, cap = plan.bmat, plan_psi(plan), None
        else:
            got, system = plan.cmat, band_mask(plan_t(plan), plan.band)
            cap = _mode_count(plan)
        info = plan.meta[key]
        assert info.factorization == kind
        oracle, oinfo = _svd_pinv(system, info.rtol, cap)
        assert info.rank == oinfo.rank
        got = rephased(got, e, d.conj())
        if key == "c_pinv":
            oracle = plan_omega(plan) @ oracle
        assert np.linalg.norm(got - oracle) <= 1e-9 * np.linalg.norm(oracle)
        assert info.sigma_max >= oinfo.sigma_max * (1 - 1e-12)
        assert info.sigma_min_kept <= oinfo.sigma_min_kept * (1 + 1e-9)


@pytest.mark.parametrize("dim, extents", [(1, (4, 8, 12, 16)), (2, (2, 3, 4))])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), jitter=st.floats(0.0, 0.25),
       seed=st.integers(0, 2**32 - 1))
def test_ftcg_operator_matches_unfused_form(dim, extents, data, jitter, seed):
    # ftcg applies F = G (R o M)^+, formed in the plan, as one operator;
    # the two-step form applies the masked inverse and then G, both built
    # from the plan's own tables, with the mode box below the raster's
    # extent as well as at it.  At the default rtol the kept spectrum
    # reaches kappa 5e8, where the LU and SVD inverses alone differ by up
    # to 1.3e-9; at rtol 1e-6 the worst of 1,200 draws read 9.9e-12
    n = data.draw(st.sampled_from(extents))
    raster = jittered_grid((n,) * dim, jitter, seed)
    p = len(raster)
    band = data.draw(st.one_of(st.just(p), st.integers(1, p)))
    plan = build_plan(raster, gaussian_window(0.125 if dim == 1 else 0.2,
                                              1e-12, dim=dim),
                      data.draw(st.integers(1, n)), ("ftcg",), band=band,
                      rtol=1e-6)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    f = rng.normal(size=p) + 1j * rng.normal(size=p)
    got = coefficients(plan, SampleSet(plan.raster_ref, f), "ftcg")
    d, e = plan.phases
    system = band_mask(t_matrix(plan.psi_axes, plan.omega_axes), band)
    q = _mode_count(plan)
    inv, info = _svd_pinv(system, plan.meta["c_pinv"].rtol, q)
    # where the cap splits near-equal singular values (grids without
    # jitter), the truncated inverse itself is fixed only to rounding
    # over their gap
    assume(cut_sensitivity(system, info.rank, q) <= MAX_CUT)
    want = e * (dense_omega(plan.omega_axes) @ (inv @ (d.conj() * f)))
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _capped_oracle(plan):
    """G times the truncated SVD of the plan's masked R capped at Q, its
    info, and the `cut_sensitivity` of that truncation."""
    system = band_mask(t_matrix(plan.psi_axes, plan.omega_axes), plan.band)
    q = _mode_count(plan)
    inv, info = _svd_pinv(system, plan.meta["c_pinv"].rtol, q)
    return (dense_omega(plan.omega_axes) @ inv, info,
            cut_sensitivity(system, info.rank, q))


@pytest.mark.parametrize("dim, extents", [(1, (4, 8, 12, 16)), (2, (2, 3, 4))])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), jitter=st.floats(0.0, 0.25),
       seed=st.integers(0, 2**32 - 1))
def test_ftcg_rank_capped_at_mode_count(dim, extents, data, jitter, seed):
    # T = Psi Omega is P x Q times Q x P, so it has rank at most Q; the
    # masked system keeps at most Q singular values whenever P > Q, and
    # F is G times the truncated SVD capped at Q, at the default rtol
    n = data.draw(st.sampled_from(extents))
    raster = jittered_grid((n,) * dim, jitter, seed)
    p = len(raster)
    band = data.draw(st.one_of(st.just(p), st.integers(1, p)))
    plan = build_plan(raster, gaussian_window(0.125 if dim == 1 else 0.2,
                                              1e-12, dim=dim),
                      data.draw(st.integers(1, n - 1)), ("ftcg",), band=band)
    q = _mode_count(plan)
    assert p > q
    want, oinfo, cut = _capped_oracle(plan)
    info = plan.meta["c_pinv"]
    assert info.rank == oinfo.rank <= q
    assume(cut <= MAX_CUT)
    tol = 1e-10 * max(1.0, info.kappa / 1e5)
    assert np.linalg.norm(plan.cmat - want) <= tol * np.linalg.norm(want)


def test_ftcg_capped_on_replayed_draw():
    # dim 1, extent 16, jitter 0, seed 0, band 2, mode box 8: P = 33 >
    # Q = 17.  Its masked R has kappa 2.1e5 at rank 29 under rtol alone,
    # where an inverse that kept 29 values missed the SVD's by 4.4e-10;
    # capped at 17 it keeps kappa 69 and takes the eigenpairs of R^T R
    # (1.1e-11 from the oracle, with sigma_17 / sigma_18 = 1.02)
    plan = build_plan(jittered_grid(16, 0.0, 0), gaussian_window(0.125, 1e-12),
                      8, ("ftcg",), band=2, rtol=1e-6)
    info = plan.meta["c_pinv"]
    assert (len(plan.raster), _mode_count(plan)) == (33, 17)
    assert info.factorization == "capped" and info.rank == 17
    want, oinfo, _ = _capped_oracle(plan)
    assert oinfo.rank == 17
    assert np.linalg.norm(plan.cmat - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("preset", ["asterisk", "noisy-grid"])
def test_ftcg_capped_gate_falls_back_to_svd(monkeypatch, preset):
    # with the orthonormality gate shut, the capped exit is refused and
    # the truncated SVD capped at Q builds the same operator
    plan = _preset_plan(preset, 101, ("ftcg",))
    monkeypatch.setattr(numerics, "_GRAM_RESIDUAL", -1.0)
    fallback = _preset_plan(preset, 101, ("ftcg",))
    info, svd = plan.meta["c_pinv"], fallback.meta["c_pinv"]
    assert (info.factorization, svd.factorization) == ("capped", "svd")
    assert info.rank == svd.rank == _mode_count(plan)
    np.testing.assert_allclose([info.sigma_max, info.sigma_min_kept],
                               [svd.sigma_max, svd.sigma_min_kept],
                               rtol=1e-12)
    assert np.linalg.norm(plan.cmat - fallback.cmat) <= \
        1e-11 * np.linalg.norm(fallback.cmat)


@pytest.mark.parametrize("modes, sort", [((9, 3), True), ((2, 2), False)],
                         ids=["modes-beyond-reach", "unordered"])
def test_ftcg_operator_blocks_match_dense_product(monkeypatch, modes, sort):
    # F is formed one first-axis mode at a time over the span of points
    # that mode reaches; it equals the dense G times the same inverse,
    # also where a mode reaches no point (its rows are zero) and where the
    # points are not ordered along axis 1 (the span is wide)
    raster = jittered_grid((2, 2), 0.25, 3)
    if not sort:
        perm = np.random.default_rng(5).permutation(len(raster))
        raster = Raster(dim=2, points=raster.points[perm])
    inverses = []
    fresh = recon.pseudo_inverse

    def keeping(*args):
        inv, info = fresh(*args)
        inverses.append(inv)
        return inv, info

    monkeypatch.setattr(recon, "pseudo_inverse", keeping)
    plan = build_plan(raster, gaussian_window(0.2, 1e-12, dim=2), modes,
                      ("ftcg",))
    reached = plan.omega_axes[0].any(axis=1)
    assert reached.all() != sort
    want = dense_omega(plan.omega_axes) @ inverses[0]
    assert np.linalg.norm(plan.cmat - want) <= \
        1e-14 * np.linalg.norm(want)
    assert not plan.cmat[np.repeat(~reached, 2 * modes[1] + 1)].any()


def test_coefficients_allocate_no_dense_temporary():
    # every array a plan holds is float64 but D's diagonal, and applying
    # the phases to the data vector never casts a real P x P or Q x P
    # operator to a complex temporary (13 MB here)
    plan = _preset_plan("noisy-grid", 101, recon.METHODS)
    held = _held_arrays(plan)
    assert held.pop("phases[0]").dtype == np.complex128
    assert {a.dtype for a in held.values()} == {np.dtype(np.float64)}
    p = len(plan.raster)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(16)))
    samples = SampleSet(plan.raster_ref, rng.normal(size=p)
                        + 1j * rng.normal(size=p))
    for method in recon.METHODS:
        coefficients(plan, samples, method)
        tracemalloc.start()
        try:
            coefficients(plan, samples, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8 / 4, method


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["jittered-1d", "asterisk"]),
       seed=st.integers(0, 2**32 - 1))
def test_frame_independent_of_point_order(kind, seed):
    # the frame solve is least squares over the points, so relabelling
    # them permutes the rows of Psi and the data alike
    if kind == "jittered-1d":
        raster, scene = jittered_grid(8, 0.25, seed), sine_scene()
        win, modes, rtol = gaussian_window(0.125, 1e-12, dim=1), 8, None
    else:
        raster, scene = asterisk(22, 5, 5.0), paper_test_scene()
        win, modes, rtol = gaussian_window(0.2, 1e-12, dim=2), (5, 5), 1e-5
    perm = np.random.default_rng(np.random.Philox(key=np.uint64(seed))) \
        .permutation(len(raster))
    permuted = Raster(dim=raster.dim, points=raster.points[perm])
    betas = []
    for r in (raster, permuted):
        plan = build_plan(r, win, modes, ("frame",), rtol=rtol)
        betas.append(coefficients(plan, analytic_coeffs(scene, r)))
    assert np.linalg.norm(betas[1] - betas[0]) <= \
        1e-10 * np.linalg.norm(betas[0])


@pytest.mark.parametrize("shape", [(8,), (4, 6), (1, 5)])
def test_image_csv_round_trip(tmp_path, shape):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # a signed zero reads back with its sign, in either part
    vals.flat[0], vals.flat[-1] = complex(-0.0, 1.0), complex(1.0, -0.0)
    path = tmp_path / "img.csv"
    recon.save_image_csv(recon.ImageGrid(values=vals, grid_size=shape), path)
    back = recon.load_image_csv(path)
    assert back.grid_size == shape
    np.testing.assert_array_equal(back.values, vals)
    for part in ("real", "imag"):
        np.testing.assert_array_equal(np.signbit(getattr(back.values, part)),
                                      np.signbit(getattr(vals, part)))


def test_save_pgm_scales_magnitudes(tmp_path):
    # |values| / peak, clipped to [0, 1], times 255 and rounded to the
    # nearest level (95.625 -> 96, 127.5 -> 128); the caller's array is
    # left as it was
    values = np.array([[3.0, -4.0], [0.0, 8.0j]])
    for peak, pixels in ((4.0, [191, 255, 0, 255]), (None, [96, 128, 0, 255])):
        recon.save_pgm(values, tmp_path / "a.pgm", peak=peak)
        assert (tmp_path / "a.pgm").read_bytes() == \
            b"P5\n2 2\n255\n" + bytes(pixels)
    np.testing.assert_array_equal(values, [[3.0, -4.0], [0.0, 8.0j]])


def test_save_pgm_pixel_one_ulp_below_the_peak_is_white(tmp_path):
    # 255 (1 - 2^-52) = 254.99999999999994, which truncates to 254;
    # a power-of-two peak keeps the scaled value exact
    peak = 4.0
    values = np.array([peak * (1 - 2.0**-52), peak, 0.0])
    recon.save_pgm(values, tmp_path / "a.pgm", peak=peak)
    assert (tmp_path / "a.pgm").read_bytes() == \
        b"P5\n3 1\n255\n" + bytes([255, 255, 0])
