"""Psi and the masked T are real matrices between unit-modulus diagonals.

The window is symmetric about 1/2, and so is the Gauss-Legendre rule on
[0, 1], so each per-axis table is a real table times phases:
Psi_a[n, m] = e^{i pi (m - lambda_{n,a})} A_a[n, m] and
O_a[m, n] = e^{-i pi (m - lambda_{n,a})} G_a[m, n].  Hence Psi = D A E
and T o M = D (R o M) D^H for any mask M, with R = (A_1 G_1) o (A_2 G_2)
real, D = diag(e^{-i pi sum_a lambda_{n,a}}) and
E = diag((-1)^{sum_a m_a}).  `build_plan` inverts the real A and R o M.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfr import (asterisk, build_omega, build_psi, gaussian_window,
                    jittered_grid, rescale_to_box, sas_wedge)
from gridfr import recon
from gridfr.harness import preset_config, raster_from_config
from gridfr.numerics import band_mask
from gridfr.recon import (_diagonal_phases, _kron_rows, _real_tables,
                          default_modes, t_matrix)

from oracles import dense_psi

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
    psi_axes = build_psi(raster, win, modes)
    omega_axes = build_omega(raster, win, modes)
    a_axes, g_axes = [], []
    for axis, (p, o, m) in enumerate(zip(psi_axes, omega_axes, modes)):
        phase = np.exp(1j * np.pi * offsets(raster, axis, m))
        for table in (p * phase.conj(), o * phase.T):
            assert np.abs(table.imag).max() <= 1e-13 * np.abs(table).max()
        a_axes.append((p * phase.conj()).real)
        g_axes.append((o * phase.T).real)
    # the package's de-phased tables are these real parts
    for got, want in zip(_real_tables(psi_axes, raster), a_axes):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-15 * np.abs(want).max())
    for got, want in zip(_real_tables([o.conj().T for o in omega_axes],
                                      raster), g_axes):
        np.testing.assert_allclose(got.T, want, rtol=0,
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
    assert plan.bmat.dtype == plan.cmat.dtype == np.complex128
