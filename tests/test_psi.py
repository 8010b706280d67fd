"""Psi assembled from real half-rule sums equals the direct quadrature sum.

Each entry of a per-axis table Psi_a is the Gauss-Legendre sum of
e^{2 pi i (m - lambda) x} / w(x).  `build_psi` takes it as a real sum of
cosines over the upper half of the rule (`recon._half_rule_sums`, two
real matrix products per axis), and `recon._phased` multiplies that by
e^{i pi (m - lambda)}, as `build_plan` does.  The oracle
`_recip_window_transform` evaluates the complex exponential at every
node of the full rule.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfr import build_psi, gaussian_window
from gridfr.harness import preset_config, raster_from_config
from gridfr.raster import Raster
from gridfr.recon import _kron_rows, _phased, default_quad_nodes

from oracles import _recip_window_transform

# hundredths keep distinct points farther apart than the duplicate tolerance
coord = st.integers(-6400, 6400).map(lambda k: k / 100.0)
sigma = st.floats(1 / 8, 1 / 4)
half_extent = st.integers(0, 32)


def assert_matches_oracle(raster, win, modes):
    nodes = default_quad_nodes(raster, modes)
    tables = _phased(build_psi(raster, win, modes, nodes), raster, modes)
    assert len(tables) == raster.dim
    # rounding in either sum scales with sum_q w_q / w(x_q) = v(0), the
    # largest entry a table can have, not with the largest entry of this
    # one (tiny when every point lies far outside the mode box)
    v0 = _recip_window_transform(np.zeros(1), win, nodes).real[0]
    for axis, (table, m) in enumerate(zip(tables, modes)):
        want = _recip_window_transform(
            np.arange(-m, m + 1)[None, :] - raster.coords(axis)[:, None],
            win, nodes)
        np.testing.assert_allclose(table, want, rtol=0, atol=1e-13 * v0)


@settings(max_examples=40, deadline=None)
@given(pts=st.lists(coord, min_size=1, max_size=12, unique=True),
       s=sigma, m=half_extent)
def test_psi_1d_equals_direct_quadrature(pts, s, m):
    raster = Raster(dim=1, points=np.array(pts))
    assert_matches_oracle(raster, gaussian_window(s, 1e-12, dim=1), (m,))


@settings(max_examples=40, deadline=None)
@given(pts=st.lists(st.tuples(coord, coord), min_size=1, max_size=12,
                    unique=True),
       s=sigma, modes=st.tuples(half_extent, half_extent))
def test_psi_2d_equals_direct_quadrature(pts, s, modes):
    raster = Raster(dim=2, points=np.array(pts))
    assert_matches_oracle(raster, gaussian_window(s, 1e-12, dim=2), modes)


def test_psi_noisy_grid_peak_memory_near_output_size():
    # the direct sum would hold a P x (2M+1) x nodes table (~300 MB here)
    cfg = preset_config("noisy-grid", 101)
    raster, _ = raster_from_config(cfg.raster, cfg.seed)
    win = gaussian_window(cfg.window["sigma"], cfg.window["trunc_eps"], dim=2)
    build_psi(raster, win, cfg.modes)      # warm the node cache
    tracemalloc.start()
    try:
        psi = _kron_rows(build_psi(raster, win, cfg.modes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psi.shape == (900, 841)
    assert peak < 4 * psi.nbytes
