"""Property tests: every 2D operator is the tensor product of 1D ones.

Psi, Omega and the synthesis step factor over the axes, so a 2D result
must equal the matching product of the 1D results built from each
coordinate on its own, and the per-axis applies of Omega and of the
synthesis, and T formed from the per-axis tables, must equal the dense
Kronecker products and the zero-padded inverse FFT they replace.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridfr import (asterisk, build_omega, build_plan, build_psi,
                    gaussian_window, synthesize)
from gridfr.raster import Raster
from gridfr.recon import (_apply_omega, _kron_rows, _phased,
                          _synthesize_modes, t_matrix)

from oracles import dense_omega, dense_psi, synthesize_fft

QUAD_NODES = 384    # pinned: the default depends on the raster's reach

points_2d = st.lists(
    st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    min_size=2, max_size=8)
modes_2d = st.tuples(st.integers(1, 3), st.integers(1, 3))


def axis_rasters(pts):
    """The 2D raster and one 1D raster per coordinate."""
    arr = np.array(pts, dtype=float)
    for axis in range(2):
        gaps = np.diff(np.sort(arr[:, axis]))
        assume(gaps.min() > 1e-6)
    return (Raster(dim=2, points=arr),
            [Raster(dim=1, points=arr[:, axis]) for axis in range(2)])


@settings(max_examples=40, deadline=None)
@given(pts=points_2d, modes=modes_2d)
def test_psi_is_rowwise_kronecker_of_axis_factors(pts, modes):
    r2, (rx, ry) = axis_rasters(pts)
    win1 = gaussian_window(0.2, 1e-12, dim=1)
    win2 = gaussian_window(0.2, 1e-12, dim=2)
    px, = build_psi(rx, win1, modes[0], QUAD_NODES)
    py, = build_psi(ry, win1, modes[1], QUAD_NODES)
    tables = build_psi(r2, win2, modes, QUAD_NODES)
    assert np.array_equal(tables[0], px) and np.array_equal(tables[1], py)
    want = dense_psi((px, py))
    np.testing.assert_allclose(_kron_rows(tables), want, rtol=0,
                               atol=1e-15 * np.abs(want).max())


@settings(max_examples=40, deadline=None)
@given(pts=points_2d, modes=modes_2d)
def test_omega_is_columnwise_kronecker_of_axis_factors(pts, modes):
    r2, (rx, ry) = axis_rasters(pts)
    win1 = gaussian_window(0.2, 1e-12, dim=1)
    win2 = gaussian_window(0.2, 1e-12, dim=2)
    ox, = build_omega(rx, win1, modes[0])
    oy, = build_omega(ry, win1, modes[1])
    tables = build_omega(r2, win2, modes)
    assert np.array_equal(tables[0], ox) and np.array_equal(tables[1], oy)


# hundredths keep distinct points farther apart than the duplicate tolerance
coord = st.integers(-800, 800).map(lambda k: k / 100.0)
rasters = st.one_of(
    st.lists(coord, min_size=1, max_size=30, unique=True).map(
        lambda p: Raster(dim=1, points=np.array(p))),
    st.lists(st.tuples(coord, coord), min_size=1, max_size=30,
             unique=True).map(lambda p: Raster(dim=2, points=np.array(p))),
    st.builds(asterisk, st.integers(2, 8), st.integers(1, 4),
              st.floats(1.0, 8.0)))


def unequal_modes(dim):
    """Per-axis half-extents, different on the two axes of a 2D raster."""
    if dim == 1:
        return st.tuples(st.integers(0, 8))
    return st.tuples(st.integers(0, 6), st.integers(1, 5)).map(
        lambda m: (m[0], m[0] + m[1]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), raster=rasters, seed=st.integers(0, 2**32 - 1),
       sigma=st.floats(1 / 8, 1 / 4))
def test_omega_apply_equals_dense_kronecker(data, raster, seed, sigma):
    modes = data.draw(unequal_modes(raster.dim))
    win = gaussian_window(sigma, 1e-12, dim=raster.dim)
    tables = build_omega(raster, win, modes)
    omega = dense_omega(tables)
    assert omega.shape == (np.prod([2 * m + 1 for m in modes]), len(raster))
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    v = rng.normal(size=len(raster)) + 1j * rng.normal(size=len(raster))
    want = omega @ v
    # the rounding scale of either sum: sum_n |Omega[m, n]| |v_n| per mode
    scale = np.linalg.norm(np.abs(omega) @ np.abs(v))
    assert np.linalg.norm(_apply_omega(tables, v) - want) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(data=st.data(), raster=rasters, sigma=st.floats(1 / 8, 1 / 4))
def test_t_matrix_equals_dense_product(data, raster, sigma):
    modes = data.draw(unequal_modes(raster.dim))
    win = gaussian_window(sigma, 1e-12, dim=raster.dim)
    psi_t = _phased(build_psi(raster, win, modes, QUAD_NODES), raster, modes)
    omega_t = build_omega(raster, win, modes)
    psi, omega = dense_psi(psi_t), dense_omega(omega_t)
    got = t_matrix(psi_t, omega_t)
    # the rounding scale of either sum: sum_m |Psi[n, m]| |Omega[m, l]|
    scale = np.abs(psi) @ np.abs(omega)
    assert np.all(np.abs(got - psi @ omega) <= 1e-12 * scale.max())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1), sigma=st.floats(1 / 8, 1 / 4))
def test_separable_synthesis_equals_padded_ifft(data, dim, seed, sigma):
    modes = data.draw(unequal_modes(dim))
    grid = tuple(data.draw(st.integers(2 * m + 1, 4 * (2 * m + 1) + 8))
                 for m in modes)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    q = int(np.prod([2 * m + 1 for m in modes]))
    c = rng.normal(size=q) + 1j * rng.normal(size=q)
    win = gaussian_window(sigma, 1e-12, dim=dim)
    got = _synthesize_modes(c, modes, grid, win)
    want = synthesize_fft(c, modes, grid, sigma)
    assert got.shape == want.shape == grid
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=25, deadline=None)
@given(modes=modes_2d, grid=st.tuples(st.sampled_from([8, 12, 16]),
                                      st.sampled_from([8, 10, 16])),
       seed=st.integers(0, 2**32 - 1))
def test_synthesize_outer_coefficients_gives_outer_image(modes, grid, seed):
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    cx, cy = (rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1)
              for m in modes)
    win1 = gaussian_window(0.2, 1e-12, dim=1)
    win2 = gaussian_window(0.2, 1e-12, dim=2)
    line = lambda m: Raster(dim=1, points=np.arange(-m, m + 1, dtype=float))
    plan_x = build_plan(line(modes[0]), win1, modes[0], methods=("cg",))
    plan_y = build_plan(line(modes[1]), win1, modes[1], methods=("cg",))
    square = Raster(dim=2, points=np.array(
        [(i, j) for i in range(-modes[0], modes[0] + 1)
         for j in range(-modes[1], modes[1] + 1)], dtype=float))
    plan_2d = build_plan(square, win2, modes, methods=("cg",))
    want = np.multiply.outer(synthesize(cx, plan_x, grid[0]).values,
                             synthesize(cy, plan_y, grid[1]).values)
    got = synthesize(np.multiply.outer(cx, cy).ravel(), plan_2d, grid).values
    assert got.shape == grid
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())
