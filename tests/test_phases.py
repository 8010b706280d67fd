"""Psi and the masked T are real matrices between unit-modulus diagonals.

The window is symmetric about 1/2, and so is the Gauss-Legendre rule on
[0, 1], so each per-axis table is a real table times phases:
Psi_a[n, m] = e^{i pi (m - lambda_{n,a})} A_a[n, m] and
O_a[m, n] = e^{-i pi (m - lambda_{n,a})} G_a[m, n].  A_a is a real sum
over the upper half of the rule (`recon._half_rule_sums`, which
`build_psi` returns per axis), checked here against the de-phased
full-rule oracle, as is the quadrature drift taken from the same sum.
G_a = |O_a| is the window spectrum's magnitude, which `build_omega`
returns per axis.  Hence Psi = D A E and T o M = D (R o M) D^H for
any mask M, with R = (A_1 G_1) o (A_2 G_2) real,
D = diag(e^{-i pi sum_a lambda_{n,a}}) and E = diag((-1)^{sum_a m_a}).
`build_plan` inverts the real A and R o M, and a plan holds no complex
array but d.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridfr import (asterisk, build_omega, build_psi, coefficients,
                    gaussian_window, jittered_grid, rescale_to_box, sas_wedge)
from gridfr import recon
from gridfr.harness import preset_config, raster_from_config
from gridfr.numerics import _svd_pinv, band_mask
from gridfr.sampling import SampleSet
from gridfr.recon import (_diagonal_phases, _kron_rows, default_modes,
                          default_quad_nodes, psi_quadrature_drift, t_matrix)
from gridfr.window import spectrum_factor

from oracles import (_phased, _phased_omega, _recip_window_transform,
                     dense_omega, dense_psi)

seeds = st.integers(0, 2**32 - 1)
rasters = st.one_of(
    st.builds(jittered_grid, st.integers(1, 12), st.floats(0.0, 0.45), seeds),
    st.builds(jittered_grid, st.tuples(st.integers(1, 5), st.integers(1, 5)),
              st.floats(0.0, 0.45), seeds),
    st.builds(asterisk, st.integers(2, 10), st.integers(1, 4),
              st.floats(1.0, 6.0)),
    st.builds(lambda ku, extents: rescale_to_box(
        sas_wedge(1.0, 1.5, 6, ku, 7), extents)[0],
        st.floats(0.3, 1.9), st.integers(2, 6)),
)


def offsets(raster, axis, m):
    """m - lambda_{n,a} as a P x (2m+1) array."""
    return np.arange(-m, m + 1)[None, :] - raster.coords(axis)[:, None]


@settings(max_examples=60, deadline=None)
@given(raster=rasters, sigma=st.floats(0.08, 0.3), data=st.data())
def test_tables_are_real_up_to_phases(raster, sigma, data):
    win = gaussian_window(sigma, 1e-12, dim=raster.dim)
    modes = default_modes(raster)
    nodes = default_quad_nodes(raster, modes)
    g_axes = build_omega(raster, win, modes)
    a_axes = build_psi(raster, win, modes)
    psi_axes = _phased(a_axes, raster, modes)
    omega_axes = _phased_omega(g_axes, raster, modes)
    for axis, m in enumerate(modes):
        off = offsets(raster, axis, m)
        phase = np.exp(1j * np.pi * off)
        # the full-rule oracle is real up to the phase
        table = _recip_window_transform(off, win, nodes) * phase.conj()
        assert np.abs(table.imag).max() <= 1e-13 * np.abs(table).max()
        # so is the truncated window spectrum, which is positive: G_a is
        # its magnitude
        table = spectrum_factor(off.T, win.sigma) * phase.T
        table[np.abs(off.T) > win.K] = 0.0
        assert np.abs(table.imag).max() <= 1e-13 * np.abs(table).max()
        assert g_axes[axis].dtype == np.float64
        np.testing.assert_allclose(g_axes[axis], table.real, rtol=0,
                                   atol=1e-15 * np.abs(table).max())
        # the complex tables are the real ones phased
        for got, want in ((a_axes[axis], psi_axes[axis] * phase.conj()),
                          (g_axes[axis], omega_axes[axis] * phase.T)):
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, want.real, rtol=0,
                                       atol=1e-15 * np.abs(want).max())

    d = np.exp(-1j * np.pi * raster.points.reshape(len(raster), -1).sum(axis=1))
    e = np.array([(-1.0) ** sum(k) for k in itertools.product(
        *(range(-m, m + 1) for m in modes))])
    got_d, got_e = _diagonal_phases(raster, modes)
    np.testing.assert_allclose(got_d, d, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(got_e, e)
    psi = dense_psi(psi_axes)
    rebuilt = d[:, None] * _kron_rows(a_axes) * e
    assert np.linalg.norm(rebuilt - psi) <= 1e-13 * np.linalg.norm(psi)

    band = data.draw(st.integers(1, len(raster)), label="band")
    masked_t = band_mask(t_matrix(psi_axes, omega_axes), band)
    masked_r = band_mask(t_matrix(a_axes, g_axes), band)
    assert masked_r.dtype == np.float64
    rebuilt = d[:, None] * masked_r * d.conj()
    assert np.linalg.norm(rebuilt - masked_t) <= \
        1e-13 * np.linalg.norm(masked_t)


# node counts of both parities; an odd rule has a centre node at x = 1/2
node_counts = st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 400))


@settings(max_examples=60, deadline=None)
@given(raster=rasters, sigma=st.floats(0.08, 0.3), nodes=node_counts)
@example(raster=jittered_grid(4, 0.2, 1), sigma=0.1, nodes=1)
@example(raster=jittered_grid((2, 3), 0.2, 2), sigma=0.2, nodes=2)
@example(raster=asterisk(4, 2, 3.0), sigma=0.3, nodes=3)
def test_half_rule_sums_match_full_rule_oracle(raster, sigma, nodes):
    win = gaussian_window(sigma, 1e-12, dim=raster.dim)
    modes = default_modes(raster)
    # rounding in either sum scales with v(0) = sum_q w_q / w(x_q), the
    # largest entry a table can have
    v0 = _recip_window_transform(np.zeros(1), win, nodes).real[0]
    for axis, (a, m) in enumerate(zip(build_psi(raster, win, modes, nodes),
                                      modes)):
        off = offsets(raster, axis, m)
        want = (_recip_window_transform(off, win, nodes)
                * np.exp(-1j * np.pi * off)).real
        np.testing.assert_allclose(a, want, rtol=0, atol=1e-13 * v0)

    reach = float(np.max(raster.max_abs())) + max(modes)
    t = np.linspace(-reach, reach, 17)
    a, b = (_recip_window_transform(t, win, n) for n in (nodes, 2 * nodes))
    want = np.max(np.abs(a - b))
    got = psi_quadrature_drift(raster, win, modes, nodes)
    # the 2n-node rule reaches nearer the edges, where 1 / w is largest
    v0 = max(v0, _recip_window_transform(np.zeros(1), win, 2 * nodes).real[0])
    assert abs(got - want) <= 1e-13 * v0


@pytest.mark.parametrize("name", ["noisy-grid", "sas-wedge", "asterisk"])
def test_build_plan_factors_only_real_matrices(monkeypatch, name):
    seen = []
    pinv = recon.pseudo_inverse

    def spy(a, rtol=None):
        seen.append(a.dtype)
        return pinv(a, rtol)

    monkeypatch.setattr(recon, "pseudo_inverse", spy)
    cfg = preset_config(name, 101)
    raster, _ = raster_from_config(cfg.raster, 101)
    win = gaussian_window(cfg.window["sigma"], cfg.window["trunc_eps"], dim=2)
    plan = recon.build_plan(raster, win, cfg.modes, band=cfg.band,
                            rtol=cfg.rtol)
    assert seen == [np.float64, np.float64]
    assert plan.bmat.dtype == plan.cmat.dtype == np.float64


jittered = st.one_of(
    st.builds(jittered_grid, st.integers(1, 12), st.floats(0.0, 0.45), seeds),
    st.builds(jittered_grid, st.tuples(st.integers(1, 5), st.integers(1, 5)),
              st.floats(0.0, 0.45), seeds))


@settings(max_examples=40, deadline=None)
@given(raster=jittered, seed=seeds, data=st.data())
def test_real_plan_coefficients_match_complex_oracles(raster, seed, data):
    # the plan holds A^+, (R o M)^+ and G and applies D and E to each data
    # vector; the oracles form the complex Psi and Omega entry by entry
    # (the full quadrature rule and the closed-form spectrum) and invert
    # by SVD at the ranks' thresholds
    win = gaussian_window(0.125 if raster.dim == 1 else 0.2, 1e-12,
                          dim=raster.dim)
    band = data.draw(st.integers(1, len(raster)), label="band")
    plan = recon.build_plan(raster, win, band=band)
    nodes = plan.meta["quad_nodes"]
    psi = dense_psi([_recip_window_transform(offsets(raster, axis, m), win,
                                             nodes)
                     for axis, m in enumerate(plan.modes)])
    omega_axes = []
    for axis, m in enumerate(plan.modes):
        off = offsets(raster, axis, m).T
        omega_axes.append(np.where(np.abs(off) > win.K, 0.0,
                                   spectrum_factor(off, win.sigma)))
    omega = dense_omega(omega_axes)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    f = rng.normal(size=len(raster)) + 1j * rng.normal(size=len(raster))
    b = _svd_pinv(psi, plan.meta["psi_pinv"].rtol)[0]
    c = _svd_pinv(band_mask(psi @ omega, band), plan.meta["c_pinv"].rtol)[0]
    want = {"cg": (omega @ (plan.dvec * f), 1.0),
            "frame": (b @ f, plan.meta["kappa_psi"]),
            "ftcg": (omega @ (c @ f), plan.meta["kappa_c"])}
    for method, (w, kappa) in want.items():
        got = coefficients(plan, SampleSet(plan.raster_ref, f), method)
        # 1e-10 relative up to kappa = 1e5; beyond, the oracles' own
        # rounding (~1e-16 of Psi's entries) grows with kappa, which 300
        # random draws showed as up to 8e-17 kappa
        tol = 1e-10 * max(1.0, kappa / 1e5)
        assert np.linalg.norm(got - w) <= tol * np.linalg.norm(w), method
