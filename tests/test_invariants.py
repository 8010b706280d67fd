"""Invariants every estimator owes the paper's model, checked as properties.

* Full-band FTCG is frame: with a square mode box (Q = P) and the band
  covering all of T = Psi Omega, Omega (Psi Omega)^+ = Psi^+.
* Linearity: each estimator maps data to coefficients by a fixed matrix.
* Hermitian data gives a real image: on a raster closed under negation,
  data with f_hat(-lambda) = conj(f_hat(lambda)) comes from a real
  scene, and the reconstruction should be real too.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfr import (Raster, asterisk, build_plan, coefficients,
                    gaussian_window, jittered_grid, reconstruct)
from gridfr.sampling import SampleSet

from oracles import negation_permutation

METHODS = ("cg", "frame", "ftcg")
SEEDS = st.integers(0, 2**32 - 1)


def _jittered_plan(raster):
    return build_plan(raster, gaussian_window(0.125, 1e-12, dim=1), 8, band=3)


@functools.lru_cache(maxsize=None)
def _plan(kind):
    if kind == "jittered-1d":
        return _jittered_plan(jittered_grid(8, 0.25, 5))
    # the asterisk preset's window, mode box, band and rtol
    return build_plan(asterisk(22, 5, 5.0), gaussian_window(0.2, 1e-12, dim=2),
                      (5, 5), band=12, rtol=1e-5)


def _gaussian(seed, n):
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _coeffs(plan, values, method):
    return coefficients(plan, SampleSet(plan.raster_ref, values), method)


@pytest.mark.parametrize("dim,extents", [(1, (4, 8, 12, 16)), (2, (2, 3, 4))])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), jitter=st.floats(0.0, 0.25), seed=SEEDS)
def test_full_band_ftcg_equals_frame(dim, extents, data, jitter, seed):
    n = data.draw(st.sampled_from(extents))
    raster = jittered_grid((n,) * dim, jitter, seed)
    plan = build_plan(raster, gaussian_window(0.125 if dim == 1 else 0.2,
                                              1e-12, dim=dim),
                      n, ("frame", "ftcg"), band=len(raster))
    samples = SampleSet(plan.raster_ref, _gaussian(seed, len(raster)))
    frame, ftcg = (reconstruct(m, samples, plan).values
                   for m in ("frame", "ftcg"))
    # worst measured: 3.3e-13 over 30 1D rasters, 4.7e-15 over 30 2D grids
    assert np.linalg.norm(ftcg - frame) <= 1e-10 * np.linalg.norm(frame)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", ["jittered-1d", "asterisk"])
@settings(max_examples=30, deadline=None)
@given(alpha=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                allow_infinity=False),
       seed=SEEDS)
def test_estimators_linear(kind, method, alpha, seed):
    plan = _plan(kind)
    n = len(plan.raster)
    a, b = _gaussian(seed, n), _gaussian(seed + 1, n)
    ca, cb = _coeffs(plan, a, method), _coeffs(plan, b, method)
    combined = _coeffs(plan, alpha * a + b, method)
    scale = abs(alpha) * np.linalg.norm(ca) + np.linalg.norm(cb)
    assert np.linalg.norm(combined - (alpha * ca + cb)) <= 1e-11 * scale


def _imag_share(plan, method, seed):
    """max|imag| / max|image| for random Hermitian data on plan's raster."""
    z = _gaussian(seed, len(plan.raster))
    data = (z + np.conj(z[negation_permutation(plan.raster)])) / 2
    img = reconstruct(method, SampleSet(plan.raster_ref, data), plan).values
    return np.abs(img.imag).max() / np.abs(img).max()


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=5, deadline=None)
@given(seed=SEEDS)
def test_hermitian_data_real_image_mirrored_1d(method, seed):
    half = jittered_grid(8, 0.25, seed).points[9:]      # indices 1..8
    raster = Raster(dim=1, points=np.concatenate([-half[::-1], [0.0], half]))
    # worst of 300 random seeds: 2.0e-12 (ftcg), 1.8e-12 (frame), 6e-14 (cg)
    assert _imag_share(_jittered_plan(raster), method, seed) <= 1e-11


@pytest.mark.parametrize("method", [
    "cg", "frame",
    pytest.param("ftcg", marks=pytest.mark.xfail(strict=True, reason=(
        "the FTCG band |i-j| <= r-1 in the asterisk's ring order is not "
        "symmetric under the point-negation permutation (ROADMAP item 2)"))),
])
def test_hermitian_data_real_image_asterisk(method):
    # one fixed raster, so five data draws stand in for random rasters;
    # worst of 300 draws: 4.8e-12 (frame), 1.4e-14 (cg); ftcg's best 0.12
    # with its rank capped at Q = 121 (0.24 without the cap)
    share = max(_imag_share(_plan("asterisk"), method, seed)
                for seed in range(5))
    assert share <= 5e-11
