"""Dense linear-algebra kernel: truncated pseudo-inverse, the FTCG band,
and density-compensation quadrature weights.

Matrices are plain numpy arrays, real or complex (the plans hand over
real ones; see `recon.ReconPlan`), and every factorization is one of
numpy's LAPACK bindings (LU, SVD and the symmetric eigensolver).  A
pseudo-inverse treats singular values below ``rtol * sigma_max`` as zero
(by default ``rtol = 1e-10 * max(rows, cols)``).  `pseudo_inverse` has
three exits: LU, the inverse of a square matrix, when its 1-inf norm
bounds certify that no singular value falls below the threshold; Gram,
the solution X of (A^H A) X = A^H for a tall matrix, when its
left-inverse residual X A - I is at rounding level and the same bounds
certify it; and otherwise SVD, the truncated SVD, the only exit that
computes all singular values.  `capped_pinv` is a separate solve for a
square real matrix that keeps at most `cap` singular values: the top
eigenpairs of its Gram matrix, when the left factor they give is
orthonormal to rounding, and otherwise its own truncated SVD capped at
`cap`.  Every solve reports its retained rank and condition number (an
upper bound after LU and Gram) so ill-conditioning is visible instead of
silent.
`save_magnitude_csv` picks the band's entries for `raster.write_rows`,
which formats the file.
"""

from __future__ import annotations

import contextlib
import ctypes
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .raster import Raster, write_rows

# glibc slides its mmap and trim thresholds up as blocks are freed, so the
# heap that plan builds keep depends on their order; fixed, it does not.
MMAP_THRESHOLD = 8 << 20
with contextlib.suppress(OSError, TypeError, AttributeError):     # no glibc
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
    _mallopt(-3, MMAP_THRESHOLD)        # M_MMAP_THRESHOLD
    _mallopt(-1, 4 << 20)     # M_TRIM_THRESHOLD; lower refaults temps


def default_rtol(shape) -> float:
    return 1e-10 * max(shape)


def all_finite(a: np.ndarray) -> bool:
    """True when every entry of `a` is finite, as ``np.isfinite(a).all()``.

    One reduction and no boolean temporary in the usual case: NaN or
    +-inf in any entry makes the sum non-finite, so a finite sum proves
    every entry finite.  A sum that overflows (or meets a non-finite
    entry) falls back to the entrywise test, so the answer is exact;
    neither case warns.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()
    return bool(np.isfinite(total) or np.isfinite(a).all())


@dataclass(frozen=True)
class PinvInfo:
    """Spectrum bookkeeping for one truncated pseudo-inversion.

    `factorization` names the exit that ran: "lu" (square), "gram"
    (tall: X solves (A^H A) X = A^H), "capped" (`capped_pinv`: the top
    eigenpairs of A^T A) or "svd".  After "capped" and "svd",
    `sigma_max` and `sigma_min_kept` are the exact largest and smallest
    retained singular values.  After the others `sigma_max` is the
    bound sqrt(|A|_1 |A|_inf) and `sigma_min_kept` a lower bound on the
    smallest kept singular value: 1/sqrt(|X|_1 |X|_inf) for the inverse
    X after "lu", and (1 - eta)/sqrt(|X|_1 |X|_inf) after "gram", with
    eta = sqrt(|E|_1 |E|_inf) for the left-inverse residual E = X A - I.
    So `kappa` bounds the retained 2-norm condition number from above
    (after "lu" or "gram" within a factor about sqrt(rows*cols)).
    `rtol` is the relative threshold the inversion applied.
    """

    rank: int
    sigma_max: float
    sigma_min_kept: float
    rtol: float
    factorization: str = "svd"

    @property
    def kappa(self) -> float:
        return self.sigma_max / self.sigma_min_kept


def pseudo_inverse(a: np.ndarray, rtol: float | None = None):
    """Moore-Penrose pseudo-inverse with relative truncation.

    Returns ``(pinv, info)``.  Singular values below rtol*sigma_max are
    treated as zero.  A square matrix is inverted by LU, kept when
    `_certified` proves every singular value above the threshold.  A
    tall one is inverted through its Gram matrix, X = (A^H A)^-1 A^H,
    whose error grows like kappa^2, so X is kept only when its
    left-inverse residual eta = |X A - I| is at most _GRAM_RESIDUAL
    and `_certified` proves every singular value above the threshold
    with the lower bound (1 - eta)/|X|.  Any other matrix (wide, an
    exactly singular factor, a non-finite inverse or bound, a Gram
    inverse with a larger residual, an uncertified spectrum) takes the
    truncated SVD, the only exit that computes all singular values.  An
    identically zero matrix (rank collapse) and an SVD that does not
    converge are NumericalErrors.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ConfigError("pseudo_inverse expects a matrix")
    if not all_finite(a):
        raise ConfigError("non-finite matrix entries")
    if rtol is None:
        rtol = default_rtol(a.shape)
    x = _factored_inverse(a)
    if x is None:
        return _svd_pinv(a, rtol)
    rows, n = a.shape
    if rows == n:
        info = _certified(a, x, rtol, n, "lu")
    else:
        eta = _left_residual(x, a)
        info = (_certified(a, x, rtol, n, "gram", residual=eta)
                if eta <= _GRAM_RESIDUAL else None)
    if info is not None:
        return x, info
    del x       # dropped before the SVD's work arrays are made
    return _svd_pinv(a, rtol)


def capped_pinv(form, cap: int, rtol: float | None = None):
    """Truncated pseudo-inverse of a square real matrix X of order
    n > `cap` that keeps at most `cap` singular values (and, as ever,
    none below rtol*sigma_max), in factored form.

    `form()` returns X.  It is called again rather than X being held
    while the eigensolver runs.  Returns ``(w, u, info)`` with
    X_k^+ = w u^T, w = V_k S_k^-1 and u = X w = U_k (n x k) for the
    k = `cap` largest singular values S_k and their singular vectors.
    V_k and S_k^2 are the top eigenpairs of H = X^T X.  They are kept
    when the left factor is orthonormal to rounding, eta = |u^T u - I|
    <= _GRAM_RESIDUAL in the 1-inf bound, as the Gram exit of
    `pseudo_inverse` is gated: H squares kappa, so a kept value near
    sqrt(eps) sigma_max fails the gate.  Then sqrt(1 - eta) sigma_k
    bounds X's k-th singular value from below (X V_k = u S_k), so the
    kept values are those the truncated SVD keeps.  Otherwise, or when
    fewer than `cap` values clear the threshold, the truncated SVD capped
    at `cap` decides.  `info` holds the exact sigma_max and sigma_k.

    The cut at `cap` follows from a rank bound, not from a spectral gap,
    so it fixes the result only to about
    eps sigma_max^2 / (sigma_cap^2 - sigma_{cap+1}^2).  On rasters with
    exact symmetries the two values can agree to rounding: on a 5x5 grid
    with jitter 0, sigma_9 and sigma_10 agree to 1.4e-8, and the result
    can move at that level with the BLAS or its thread count.  Every
    preset and sweep raster has sigma_cap / sigma_{cap+1} >= 1.01.
    """
    x = form()
    n = len(x)
    if rtol is None:
        rtol = default_rtol(x.shape)
    h = x.T @ x
    del x       # only H is held while eigh runs
    try:
        lam, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError:       # no convergence: the SVD decides
        lam, v = np.zeros(n), None
    del h
    sigma = np.sqrt(np.maximum(lam[n - cap:], 0.0))     # ascending
    w = v[:, n - cap:] / sigma if sigma[0] > rtol * sigma[-1] else None
    del v
    if w is not None:
        u = form() @ w
        e = u.T @ u
        e.flat[::cap + 1] -= 1.0
        eta = _norm_1_inf(e)
        if (eta <= _GRAM_RESIDUAL
                and np.sqrt(1.0 - eta) * sigma[0] > rtol * sigma[-1]):
            return w, u, PinvInfo(rank=cap, sigma_max=float(sigma[-1]),
                                  sigma_min_kept=float(sigma[0]), rtol=rtol,
                                  factorization="capped")
        del w, u
    return _svd_factors(form(), rtol, cap)


def _norm_1_inf(a: np.ndarray) -> float:
    """sqrt(|a|_1 |a|_inf), an upper bound on the 2-norm of a."""
    mag = np.abs(a)
    return float(np.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max()))


def _factored_inverse(a: np.ndarray):
    """LU (square) or Gram (tall, X = (A^H A)^-1 A^H) inverse of `a`;
    None for a wide matrix, an exactly singular factor or a non-finite
    inverse."""
    rows, cols = a.shape
    if rows < cols or cols == 0:
        return None
    try:
        if rows == cols:
            x = np.linalg.inv(a)
        else:
            ah = a.conj().T         # a view when `a` is real
            x = np.linalg.solve(ah @ a, ah)
    except np.linalg.LinAlgError:
        return None
    return x if all_finite(x) else None


# Largest left-inverse residual sqrt(|E|_1 |E|_inf), E = X A - I, with
# which a Gram inverse is kept.  Its error grows like kappa^2, and the
# 1-inf certificate alone passes a wrong X of moderate norm from a
# singular A^H A (a 60 x 40 matrix of rank 20 reads eta = 59).  Measured
# on the plans' real frames: noisy-grid (900 x 841) 2.4e-11 to 2.5e-11 on
# all five seeds, the jittered grids at P = 1600 and 2500 3.0e-11 to
# 3.4e-11, the sweep frames at most 1.9e-14; the asterisk frame
# (221 x 121) reads 4.1e-8 and takes the SVD.
_GRAM_RESIDUAL = 1e-10


def _left_residual(x: np.ndarray, a: np.ndarray) -> float:
    """sqrt(|E|_1 |E|_inf) for the left-inverse residual E = X A - I."""
    e = x @ a
    e.flat[::e.shape[0] + 1] -= 1.0
    return _norm_1_inf(e)


def _certified(a: np.ndarray, x: np.ndarray, rtol: float, rank: int,
               kind: str, residual: float = 0.0):
    """`PinvInfo` for `x` as the rank-`rank` inverse of `a`, or None.

    sqrt(|A|_1 |A|_inf) bounds sigma_max from above and
    (1 - residual)/sqrt(|X|_1 |X|_inf) the smallest kept singular value
    from below, when X is the inverse of A or a left inverse with
    residual |X A - I| <= `residual` (then |X A v| >= 1 - residual for
    a unit v, so |A v| >= (1 - residual)/|X|).  None unless they put
    every kept value above rtol*sigma_max; a non-finite bound proves
    nothing.
    """
    with np.errstate(all="ignore"):
        upper = _norm_1_inf(a)
        lower = (1.0 - residual) / _norm_1_inf(x)
    if not rtol * upper < lower:
        return None
    return PinvInfo(rank=rank, sigma_max=upper, sigma_min_kept=lower,
                    rtol=rtol, factorization=kind)


def _svd_pinv(a: np.ndarray, rtol: float, cap: int | None = None):
    """Truncated-SVD pseudo-inverse, keeping at most `cap` singular
    values when given: the general path and the test oracle."""
    w, u, info = _svd_factors(a, rtol, cap)
    return w @ u.conj().T, info


def _svd_factors(a: np.ndarray, rtol: float, cap: int | None = None):
    """``(w, u, info)`` with `_svd_pinv`'s result w u^H: w = V_k S_k^-1
    and u = U_k for the k kept singular values."""
    u, s, vh = _svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise NumericalError("zero matrix has no retained spectrum")
    rank = int(np.count_nonzero(s > rtol * s[0]))
    if rank == 0:
        raise NumericalError("rank collapse: no singular value above threshold")
    if cap is not None:
        rank = min(rank, cap)
    return (vh[:rank].conj().T * (1.0 / s[:rank]), u[:, :rank],
            PinvInfo(rank=rank, sigma_max=float(s[0]),
                     sigma_min_kept=float(s[rank - 1]), rtol=rtol))


def _svd(a: np.ndarray, **kwargs):
    """numpy's SVD, with LAPACK's non-convergence as a NumericalError."""
    try:
        return np.linalg.svd(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of a {a.shape[0]}x{a.shape[1]} matrix "
                             f"failed: {exc}") from exc


def band_pairs(order: int, r: int):
    """Row and column indices of the band |i-j| <= r-1 (width 2r-1).

    The entries of the order-n matrix T that FTCG keeps, in row-major
    order: `band_mask` keeps them and `save_magnitude_csv` writes them.
    """
    if not isinstance(r, numbers.Integral) or not 1 <= r <= order:
        raise ConfigError(f"band half-width r={r!r} is not an integer in "
                          f"[1, {order}]")
    i = np.repeat(np.arange(order), 2 * r - 1)
    j = i + np.tile(np.arange(1 - r, r), order)
    keep = (j >= 0) & (j < order)
    return i[keep], j[keep]


def _square_order(a: np.ndarray, what: str) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"{what} expects a square matrix")
    return a.shape[0]


def band_mask(a: np.ndarray, r: int) -> np.ndarray:
    """`a` at the `band_pairs` entries, zero everywhere else."""
    a = np.asarray(a)
    rows, cols = band_pairs(_square_order(a, "band_mask"), r)
    out = np.zeros_like(a)
    out[rows, cols] = a[rows, cols]
    return out


def save_magnitude_csv(a: np.ndarray, band: int, path) -> None:
    """Write |a| at the `band_pairs` entries of square `a` in the tmatrix
    CSV format (see `raster`)."""
    a = np.asarray(a)
    rows, cols = band_pairs(_square_order(a, "save_magnitude_csv"), band)
    # Python ints for %d: given floats, it converted each first, and
    # noisy-grid's 13,444 entries took 52 ms to write instead of 22 ms
    write_rows(path, "tmatrix", {"order": len(a), "band": band},
               zip(rows.tolist(), cols.tolist(),
                   np.abs(a[rows, cols]).tolist()), "%d,%d,%.8e")


def default_band(order: int) -> int:
    """Band half-width heuristic r ~ log(system order), at least 1.

    For a 1D raster of 2N+1 points this is ceil(log(2N+1)); e.g. N=16
    gives r=4 (band 7).
    """
    r = int(np.ceil(np.log(order)))
    return min(max(r, 1), order)


def _trapezoid(x: np.ndarray) -> np.ndarray:
    """Trapezoid weights along the last axis of sorted coordinates `x`:
    half the gap between each point's neighbours, one-sided at the ends."""
    if x.shape[-1] == 1:
        return np.ones_like(x)
    edged = np.concatenate([x[..., :1], x, x[..., -1:]], axis=-1)
    return (edged[..., 2:] - edged[..., :-2]) / 2.0


def density_weights(raster: Raster) -> np.ndarray:
    """Quadrature weights compensating for non-uniform sample density.

    1D: trapezoidal weights on the sorted raster, one-sided half gaps
    at the two ends.  2D grid-indexed rasters: product of per-axis
    trapezoid weights taken along each grid line.  2D unstructured
    rasters: each point gets an equal share of its nearest unit cell
    (cell area 1 split among the points rounding into that cell).
    """
    if raster.dim == 1:
        order = np.argsort(raster.points)
        w = np.empty(len(raster))
        w[order] = _trapezoid(raster.points[order])
        return w

    if raster.kind == "jittered_grid" and raster.index_extents is not None:
        (lo1, hi1), (lo2, hi2) = raster.index_extents
        n1, n2 = hi1 - lo1 + 1, hi2 - lo2 + 1
        x = raster.points[:, 0].reshape(n1, n2)
        y = raster.points[:, 1].reshape(n1, n2)
        return (_trapezoid(x.T).T * _trapezoid(y)).ravel()

    cells = np.round(raster.points).astype(int)
    _, inverse, counts = np.unique(cells, axis=0, return_inverse=True,
                                   return_counts=True)
    return 1.0 / counts[inverse]
