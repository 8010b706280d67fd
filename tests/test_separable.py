"""Property tests: every 2D operator is the tensor product of 1D ones.

Psi, Omega and the synthesis step factor over the axes, so a 2D result
must equal the matching product of the 1D results built from each
coordinate on its own.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridfr import build_omega, build_plan, build_psi, gaussian_window, synthesize
from gridfr.raster import Raster

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
    px = build_psi(rx, win1, modes[0], QUAD_NODES)
    py = build_psi(ry, win1, modes[1], QUAD_NODES)
    want = np.einsum("pa,pb->pab", px, py).reshape(len(r2), -1)
    got = build_psi(r2, win2, modes, QUAD_NODES)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-13 * np.abs(want).max())


@settings(max_examples=40, deadline=None)
@given(pts=points_2d, modes=modes_2d)
def test_omega_is_columnwise_kronecker_of_axis_factors(pts, modes):
    r2, (rx, ry) = axis_rasters(pts)
    win1 = gaussian_window(0.2, 1e-12, dim=1)
    win2 = gaussian_window(0.2, 1e-12, dim=2)
    ox = build_omega(rx, win1, modes[0])
    oy = build_omega(ry, win1, modes[1])
    want = np.einsum("ap,bp->abp", ox, oy).reshape(-1, len(r2))
    got = build_omega(r2, win2, modes)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-15 * np.abs(want).max())
    assert np.array_equal(got == 0, want == 0)


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
