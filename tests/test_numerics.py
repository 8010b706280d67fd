import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridfr import (ConfigError, NumericalError, band_mask, band_pairs,
                    build_plan, default_band, density_weights,
                    gaussian_window, jittered_grid, pseudo_inverse)
from gridfr import numerics
from gridfr.harness import preset_config, raster_from_config
from gridfr.numerics import (_svd_pinv, all_finite, default_rtol,
                             save_magnitude_csv)
from gridfr.raster import Raster
from gridfr.recon import t_matrix

from oracles import no_values_only_svd


def test_pinv_identity():
    p, info = pseudo_inverse(np.eye(4))
    np.testing.assert_allclose(p, np.eye(4), atol=1e-14)
    assert info.rank == 4


def test_pinv_rank_deficient_diagonal():
    p, info = pseudo_inverse(np.diag([2.0, 0.0]))
    np.testing.assert_allclose(p, np.diag([0.5, 0.0]), atol=1e-14)
    assert info.rank == 1


def test_pinv_full_rank_rectangular():
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(2)))
    a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    p, _ = pseudo_inverse(a)
    assert np.linalg.norm(a @ p @ a - a) / np.linalg.norm(a) < 1e-12


def test_moore_penrose_identities_50_random():
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(4)))
    for _ in range(50):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(2, 65))
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        if rng.uniform() < 0.3:     # throw in rank-deficient cases
            k = max(1, min(m, n) // 2)
            a = a[:, :k] @ rng.normal(size=(k, n))
        p, _ = pseudo_inverse(a)
        na = np.linalg.norm(a)
        assert np.linalg.norm(a @ p @ a - a) / na < 1e-10
        assert np.linalg.norm(p @ a @ p - p) / max(np.linalg.norm(p), 1e-300) < 1e-10
        assert np.linalg.norm((a @ p).conj().T - a @ p) / max(np.linalg.norm(a @ p), 1e-300) < 1e-10
        assert np.linalg.norm((p @ a).conj().T - p @ a) / max(np.linalg.norm(p @ a), 1e-300) < 1e-10


def test_pinv_zero_matrix():
    with pytest.raises(NumericalError):
        pseudo_inverse(np.zeros((3, 3)))


def _orthonormal(rng, rows, cols):
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return np.linalg.qr(g)[0]


@settings(max_examples=60, deadline=None)
@given(cols=st.integers(1, 48), extra=st.integers(0, 16),
       log_kappa=st.floats(0.0, 6.0), log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_pinv_factored_matches_svd_oracle(cols, extra, log_kappa, log_scale,
                                          seed):
    # a = U diag(s) V^H with known spectrum, kappa = 10**log_kappa <= 1e6;
    # sqrt(rows*cols)*kappa*rtol < 1 here, so LU/QR must certify full rank
    rng = np.random.default_rng(seed)
    rows = cols + extra
    s = 10.0 ** log_scale * np.logspace(0.0, -log_kappa, cols)
    a = (_orthonormal(rng, rows, cols) * s) @ _orthonormal(rng, cols, cols).conj().T
    p, info = pseudo_inverse(a)
    oracle, oinfo = _svd_pinv(a, default_rtol(a.shape))
    kappa = 10.0 ** log_kappa
    assert info.factorization == ("lu" if rows == cols else "qr")
    assert info.rank == oinfo.rank == cols
    assert np.linalg.norm(p - oracle) <= 1e-9 * kappa * np.linalg.norm(oracle)
    # the reported extremes bound the exact singular values (to rounding)
    assert info.sigma_max >= oinfo.sigma_max * (1 - 1e-12)
    assert info.sigma_min_kept <= oinfo.sigma_min_kept * (1 + 1e-9)
    assert (oinfo.kappa * (1 - 1e-9) <= info.kappa
            <= np.sqrt(rows * cols) * oinfo.kappa * (1 + 1e-9))


@settings(max_examples=200, deadline=None)
@given(a=hnp.arrays(st.sampled_from([np.float64, np.complex128]),
                    hnp.array_shapes(min_dims=1, max_dims=2, max_side=8)),
       data=st.data())
def test_all_finite_matches_isfinite(a, data):
    # hypothesis's floats include NaN, +-inf and values near the largest
    # double; one more non-finite entry goes into the real or imaginary
    # part of a drawn position half the time
    if a.size and data.draw(st.booleans()):
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        i = data.draw(st.integers(0, a.size - 1))
        if a.dtype.kind == "c" and data.draw(st.booleans()):
            a.flat[i] = complex(a.flat[i].real, bad)
        else:
            a.flat[i] = bad
    assert all_finite(a) == bool(np.isfinite(a).all())


@pytest.mark.parametrize("values, finite", [
    ([1e308, 1e308], True),                   # the sum overflows
    ([[1e308, -1e308], [1e308, 1e308]], True),
    ([1e308 + 1e308j, 1e308 - 1e308j], True),
    ([np.inf, -np.inf], False),               # the sum is NaN
    ([1.0, complex(0.0, np.nan)], False),
    ([1.0, complex(0.0, -np.inf)], False),
    ([[1.0, 2.0], [complex(np.inf, 0.0), 3.0]], False),
])
def test_all_finite_exact_past_overflow(values, finite):
    a = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all_finite(a) is finite


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pinv_rejects_non_finite_entries(bad):
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(ConfigError, match="non-finite matrix entries"):
        pseudo_inverse(a)


def test_pinv_factorization_recorded():
    assert pseudo_inverse(np.eye(3))[1].factorization == "lu"
    assert pseudo_inverse(np.ones((3, 1)))[1].factorization == "qr"
    # singular square, wide and ill-conditioned systems take the SVD
    assert pseudo_inverse(np.diag([1.0, 0.0]))[1].factorization == "svd"
    assert pseudo_inverse(np.ones((1, 3)))[1].factorization == "svd"
    assert pseudo_inverse(np.diag([1.0, 1e-12]))[1].factorization == "svd"


@settings(max_examples=60, deadline=None)
@given(kept=st.integers(8, 48), log_kappa=st.floats(0.0, 6.0),
       log_gap=st.floats(3.0, 12.0), log_scale=st.floats(-3.0, 3.0),
       data=st.data())
def test_pinv_deflated_matches_svd_oracle(kept, log_kappa, log_gap,
                                          log_scale, data):
    # a few singular values at least 1e3 below the kept ones and below
    # the threshold: deflated LU, never the full SVD
    dropped = data.draw(st.integers(1, kept // 7))    # 8 * dropped <= n
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = kept + dropped
    s = np.logspace(0.0, -log_kappa, kept)
    tail = s[-1] * min(10.0 ** -log_gap, 1e-10) * rng.uniform(0.0, 1.0, dropped)
    s = 10.0 ** log_scale * np.concatenate([s, tail])
    a = (_orthonormal(rng, n, n) * s) @ _orthonormal(rng, n, n).conj().T
    p, info = pseudo_inverse(a)
    oracle, oinfo = _svd_pinv(a, default_rtol(a.shape))
    kappa = 10.0 ** log_kappa
    assert info.factorization == "deflated-lu"
    assert info.rank == oinfo.rank == kept
    assert np.linalg.norm(p - oracle) <= 1e-9 * kappa * np.linalg.norm(oracle)
    _assert_brackets(info, oinfo)


def _assert_brackets(info, oinfo):
    """The reported extremes bound the exact ones (to rounding)."""
    assert info.sigma_max >= oinfo.sigma_max * (1 - 1e-12)
    assert info.sigma_min_kept <= oinfo.sigma_min_kept * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(kept=st.integers(8, 48), gap=st.booleans(),
       log_scale=st.floats(-3.0, 3.0), data=st.data())
def test_pinv_drops_values_without_values_only_svd(kept, gap, log_scale,
                                                   data):
    # 1 <= d <= n/8 values below the threshold, far below the kept ones
    # or just under the threshold while the kept ones reach down to twice
    # it; whichever path runs must match the truncated SVD
    dropped = data.draw(st.integers(1, kept // 7))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = kept + dropped
    rtol = default_rtol((n, n))
    log_kappa = data.draw(st.floats(0.0, -np.log10(2 * rtol)))
    s = np.logspace(0.0, -log_kappa, kept)
    depth = 10.0 ** -data.draw(st.floats(3.0, 12.0)) if gap else 1.0
    tail = rtol * depth * rng.uniform(0.0, 0.9, dropped)
    s = 10.0 ** log_scale * np.concatenate([s, tail])
    a = (_orthonormal(rng, n, n) * s) @ _orthonormal(rng, n, n).conj().T
    with no_values_only_svd():
        p, info = pseudo_inverse(a)
    oracle, oinfo = _svd_pinv(a, rtol)
    assert info.rank == oinfo.rank == kept
    assert np.linalg.norm(p - oracle) <= \
        1e-9 * 10.0 ** log_kappa * np.linalg.norm(oracle)
    _assert_brackets(info, oinfo)


def test_pinv_many_dropped_values_take_svd():
    # n = 40 iterates on b = 6 columns; ten dropped values fill the block,
    # so the truncated SVD decides, and no values-only SVD runs first
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(8)))
    s = np.concatenate([np.logspace(0.0, -3.0, 30), np.full(10, 1e-13)])
    a = (_orthonormal(rng, 40, 40) * s) @ _orthonormal(rng, 40, 40).conj().T
    with no_values_only_svd():
        _, info = pseudo_inverse(a)
    assert info.factorization == "svd" and info.rank == 30


def test_trailing_subspaces_checks_drops_on_a():
    # a bogus inverse that claims a huge singular value along e_0: the
    # Ritz values count it as dropped, but a itself does not drop it
    n = 16
    x = np.eye(n)
    x[0, 0] = 1e12
    assert numerics._trailing_subspaces(np.eye(n), x, 1e-9, 1.0) is None
    # the true inverse of a matrix that does drop it passes
    a = np.eye(n)
    a[0, 0] = 1e-12
    v, u, err = numerics._trailing_subspaces(a, x, 1e-9, 1.0)
    assert v.shape == u.shape == (n, 1) and err <= 1e-13
    assert abs(abs(v[0, 0]) - 1.0) < 1e-12 and abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_pinv_deflated_takes_no_full_svd(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("full SVD taken")

    monkeypatch.setattr(numerics, "_svd_pinv", fail)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(6)))
    # real, one value far below the threshold: the result stays real
    s = np.concatenate([np.logspace(0.0, -3.0, 39), [1e-14]])
    a = (np.linalg.qr(rng.normal(size=(40, 40)))[0] * s) @ \
        np.linalg.qr(rng.normal(size=(40, 40)))[0].T
    with no_values_only_svd():
        p, info = pseudo_inverse(a)
    assert p.dtype == np.float64 and info.rank == 39
    # full rank, but too ill-conditioned for the 1-inf bound to certify
    # it: the Frobenius bound |A|_F |X|_F does, and the LU inverse is kept
    b = (_orthonormal(rng, 40, 40) * np.logspace(0.0, -8.0, 40)) @ \
        _orthonormal(rng, 40, 40).conj().T
    with no_values_only_svd():
        q, qinfo = pseudo_inverse(b)
    assert qinfo.factorization == "deflated-lu" and qinfo.rank == 40
    # |A|_F |X|_F lies between kappa_2 = 1e8 and n kappa_2
    assert 1e8 * (1 - 1e-6) <= qinfo.kappa <= 40 * 1e8
    assert qinfo.kappa * default_rtol(b.shape) < 1.0
    assert np.linalg.norm(q @ b - np.eye(40)) < 1e-6


def test_pinv_uncertifiable_kept_value_skips_deflation(monkeypatch):
    # one value far below the threshold is dropped, but the smallest kept
    # one lies just above it: the next Ritz value shows the deflated
    # inverse could not be certified, so the SVD runs without it
    def fail(*args, **kwargs):
        raise AssertionError("deflated inverse built")

    monkeypatch.setattr(numerics, "_deflated_pinv", fail)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(7)))
    rtol = default_rtol((40, 40))
    s = np.concatenate([np.logspace(0.0, np.log10(1.01 * rtol), 39), [1e-14]])
    a = (_orthonormal(rng, 40, 40) * s) @ _orthonormal(rng, 40, 40).conj().T
    p, info = pseudo_inverse(a)
    oracle, oinfo = _svd_pinv(a, rtol)
    assert info.factorization == "svd" and info.rank == oinfo.rank == 39
    assert np.linalg.norm(p - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_pinv_records_applied_rtol():
    assert pseudo_inverse(np.eye(3))[1].rtol == default_rtol((3, 3))
    assert pseudo_inverse(np.ones((1, 4)))[1].rtol == default_rtol((1, 4))
    assert pseudo_inverse(np.diag([1.0, 1e-12]), 1e-3)[1].rtol == 1e-3


def test_svd_failure_is_numerical_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    # a wide matrix goes straight to the truncated SVD ...
    with pytest.raises(NumericalError, match="did not converge"):
        pseudo_inverse(np.ones((2, 5)))
    # ... an uncertified square one first to its Ritz values
    with pytest.raises(NumericalError, match="did not converge"):
        pseudo_inverse(np.diag(np.r_[np.ones(15), 1e-12]))
    with pytest.raises(NumericalError):
        _svd_pinv(np.eye(3), 1e-10)


# glibc's mallinfo2 counters: arena is the heap's size, hblkhd the bytes
# in mapped blocks.  Prints how many more bytes a 16 MiB array mapped than
# it holds, how many a 2 MiB one mapped, and how much freeing the latter
# at the heap's top shrank the heap.
FRESH_PROCESS_MALLOC = """if True:
    import ctypes
    import numpy as np
    from gridfr import numerics
    class MallInfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
            "fsmblks", "uordblks", "fordblks", "keepcost")]
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (OSError, TypeError, AttributeError):
        raise SystemExit(3)
    mallinfo2.argtypes, mallinfo2.restype = [], MallInfo2
    big = np.ones(24 << 20, np.uint8)
    del big
    mapped = mallinfo2().hblkhd
    small = np.ones(16 << 20, np.uint8)
    assert small.nbytes >= numerics.MMAP_THRESHOLD
    print(mallinfo2().hblkhd - mapped - small.nbytes)
    mapped = mallinfo2().hblkhd
    top = np.ones(2 << 20, np.uint8)
    assert top.nbytes < numerics.MMAP_THRESHOLD
    print(mallinfo2().hblkhd - mapped)
    heap = mallinfo2().arena
    del top
    print(heap - mallinfo2().arena)
"""


def test_malloc_thresholds_stay_fixed():
    # glibc would raise its mmap threshold to 24 MiB on the free and put
    # the 16 MiB array on the heap; importing gridfr pins it at 8 MiB, so
    # the 2 MiB array is on the heap, and the trim threshold at 4 MiB, so
    # the heap keeps it when it is freed.  A fresh process, because a heap
    # with room for an array would serve it.
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS_MALLOC],
                          env=env, capture_output=True, text=True)
    if proc.returncode == 3:
        pytest.skip("no glibc mallinfo2")
    assert proc.returncode == 0, proc.stderr
    overhead, top_mapped, trimmed = map(int, proc.stdout.split())
    assert 0 <= overhead < 1 << 20
    assert top_mapped == 0 and trimmed == 0


def test_band_mask_diagonal_only():
    a = np.arange(16.0).reshape(4, 4)
    np.testing.assert_array_equal(band_mask(a, 1), np.diag(np.diag(a)))


def test_band_mask_full_width_unchanged():
    a = np.arange(9.0).reshape(3, 3)
    np.testing.assert_array_equal(band_mask(a, 3), a)


def test_band_mask_tridiagonal_ones():
    got = band_mask(np.ones((3, 3)), 2)
    assert got.sum() == 7
    assert got[0, 2] == 0 and got[2, 0] == 0


def test_band_mask_idempotent_monotone():
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(6)))
    a = rng.normal(size=(9, 9))
    for r in (1, 3, 5):
        m = band_mask(a, r)
        np.testing.assert_array_equal(band_mask(m, r), m)
        wider = band_mask(a, r + 2)
        assert set(zip(*np.nonzero(m))) <= set(zip(*np.nonzero(wider)))


def test_band_mask_validation():
    with pytest.raises(ConfigError):
        band_mask(np.ones((2, 3)), 1)
    with pytest.raises(ConfigError):
        band_mask(np.ones((3, 3)), 4)


def _dense_band(n, r):
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]) <= r - 1


@settings(max_examples=150, deadline=None)
@given(nr=st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_band_pairs_match_dense_band(nr):
    n, r = nr
    rows, cols = band_pairs(n, r)
    want = np.nonzero(_dense_band(n, r))
    np.testing.assert_array_equal(rows, want[0])
    np.testing.assert_array_equal(cols, want[1])
    a = np.arange(1.0, n * n + 1).reshape(n, n) * (1 - 2j)
    np.testing.assert_array_equal(band_mask(a, r),
                                  np.where(_dense_band(n, r), a, 0))


def test_band_pairs_preset_counts():
    # 2r-1 per row, less r(r-1) cut off at the corners
    assert band_pairs(221, 12)[0].size == 23 * 221 - 132      # asterisk
    assert band_pairs(900, 8)[0].size == 13444                 # noisy-grid
    with pytest.raises(ConfigError):
        band_pairs(3, 0)


def test_default_band_heuristic():
    # 1D raster of 2N+1 points, N=16: ceil(log 33) = 4
    assert default_band(33) == 4
    assert default_band(17) == 3
    assert default_band(2) == 1


def test_condition_number_basics():
    # the SVD path's bookkeeping is the oracle for every kappa reported
    _, info = _svd_pinv(np.eye(5), default_rtol((5, 5)))
    assert info.kappa == pytest.approx(1.0)
    _, info = _svd_pinv(np.diag([10.0, 1.0]), default_rtol((2, 2)))
    assert info.kappa == pytest.approx(10.0)
    with pytest.raises(NumericalError):
        _svd_pinv(np.zeros((2, 2)), default_rtol((2, 2)))


def test_density_weights_uniform_interior():
    r = Raster(dim=1, points=np.arange(-4, 5, dtype=float))
    w = density_weights(r)
    np.testing.assert_allclose(w[1:-1], 1.0, atol=1e-14)
    np.testing.assert_allclose(w[[0, -1]], 0.5, atol=1e-14)


def test_density_weights_trapezoid_example():
    r = Raster(dim=1, points=np.array([0.0, 1.0, 3.0]))
    np.testing.assert_allclose(density_weights(r), [0.5, 1.5, 1.0], atol=1e-14)


def test_density_weights_unsorted_input_order_preserved():
    r = Raster(dim=1, points=np.array([3.0, 0.0, 1.0]))
    np.testing.assert_allclose(density_weights(r), [1.0, 0.5, 1.5], atol=1e-14)


def test_density_weights_jittered_bounds():
    r = jittered_grid(16, 0.25, 8)
    w = density_weights(r)
    assert np.all(w[1:-1] >= 0.5 - 1e-12) and np.all(w[1:-1] <= 1.5 + 1e-12)
    assert np.all(w[[0, -1]] >= 0.25 - 1e-12)


def test_density_weights_2d_grid_product():
    r = jittered_grid((3, 3), 0.0, 0)
    w = density_weights(r)
    # zero jitter: interior cells get 1, edges 1/2, corners 1/4
    w = w.reshape(7, 7)
    assert w[3, 3] == pytest.approx(1.0)
    assert w[0, 3] == pytest.approx(0.5)
    assert w[0, 0] == pytest.approx(0.25)


def test_density_weights_unstructured_cell_share():
    pts = np.array([[0.0, 0.0], [0.1, -0.1], [2.0, 2.0]])
    r = Raster(dim=2, points=pts)
    w = density_weights(r)
    np.testing.assert_allclose(w, [0.5, 0.5, 1.0])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(nr=st.integers(1, 12).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       seed=st.integers(0, 2**32 - 1), scale=st.integers(-300, 300))
def test_tmatrix_csv_parses_back_to_band(tmp_path, nr, seed, scale):
    n, r = nr
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * 10.0 ** scale
    a[rng.random((n, n)) < 0.2] = 0.0
    path = tmp_path / "t.csv"
    save_magnitude_csv(a, r, path)
    with open(path) as fh:
        assert fh.readline() == f"# gridfr-tmatrix v1, order={n}, band={r}\n"
    table = np.loadtxt(path, delimiter=",", ndmin=2)
    i, j = table[:, 0].astype(int), table[:, 1].astype(int)
    want = np.nonzero(_dense_band(n, r))
    np.testing.assert_array_equal(i, want[0])
    np.testing.assert_array_equal(j, want[1])
    # %.8e keeps nine significant digits
    np.testing.assert_allclose(table[:, 2], np.abs(a[i, j]), rtol=5e-9, atol=0)


@pytest.mark.parametrize("name", ["asterisk", "noisy-grid", "sas-wedge"])
def test_tmatrix_csv_bytes_match_savetxt(tmp_path, name):
    # the writer formats Python ints and floats in one pass; np.savetxt
    # over a float column stack writes the same bytes, each preset's
    # seed-101 |R| as its run writes it
    cfg = preset_config(name, 101)
    raster, _ = raster_from_config(cfg.raster, 101)
    win = gaussian_window(cfg.window["sigma"], cfg.window["trunc_eps"],
                          dim=cfg.dim)
    plan = build_plan(raster, win, cfg.modes, ("ftcg",), band=cfg.band,
                      quad_nodes=cfg.quad_nodes, rtol=cfg.rtol)
    rmat = t_matrix(plan.psi_axes, plan.omega_axes)
    save_magnitude_csv(rmat, plan.band, tmp_path / "t.csv")
    rows, cols = band_pairs(len(rmat), plan.band)
    np.savetxt(tmp_path / "savetxt.csv",
               np.column_stack([rows, cols, np.abs(rmat[rows, cols])]),
               fmt="%d,%d,%.8e",
               header=f"gridfr-tmatrix v1, order={len(rmat)}, band={plan.band}")
    assert (tmp_path / "t.csv").read_bytes() == \
        (tmp_path / "savetxt.csv").read_bytes()
