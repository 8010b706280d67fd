"""Dense linear-algebra kernel: truncated pseudo-inverse, the FTCG band,
and density-compensation quadrature weights.

Matrices are plain complex numpy arrays throughout, and every
factorization is one of numpy's LAPACK bindings (LU, QR or SVD).  The
pseudo-inverse treats singular values below ``rtol * sigma_max`` as
zero; the default threshold is ``1e-10 * max(rows, cols)``.  A square
or tall matrix whose LU or QR inverse certifies that no singular value
falls below the threshold is inverted by that factorization.  A square
matrix that drops a few singular values well below the kept ones is
inverted by LU after deflating them; any other matrix takes the
truncated SVD.  Every factorization reports its retained rank and
condition number so ill-conditioning is visible instead of silent.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .raster import Raster, philox_rng


def default_rtol(shape) -> float:
    return 1e-10 * max(shape)


@dataclass(frozen=True)
class PinvInfo:
    """Spectrum bookkeeping for one truncated pseudo-inversion.

    `factorization` names the path that ran: "svd", "lu", "qr" or
    "deflated-lu" (singular values without vectors, then one LU; see
    `pseudo_inverse`).  After "svd" and "deflated-lu", `sigma_max` and
    `sigma_min_kept` are the exact largest and smallest retained
    singular values.  After "lu" or "qr" they are an upper and a lower
    bound on the extreme singular values, sqrt(|A|_1 |A|_inf) and
    1/sqrt(|X|_1 |X|_inf) for the inverse X, so `kappa` is an upper
    bound on the 2-norm condition number (at most sqrt(rows*cols) times
    it).  `rtol` is the relative threshold the inversion applied.
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
    treated as zero.  A square matrix is first inverted by LU and a tall
    one by QR (X = R^-1 Q^H).  The result is accepted when the condition
    bound sqrt(|A|_1 |A|_inf |X|_1 |X|_inf) >= kappa_2(A) shows every
    singular value lies above the threshold.  A square matrix whose
    bound does not certify full rank has its singular values computed
    (without vectors); when the few it drops lie well apart from the
    rest, it is deflated on their singular subspaces and inverted by LU
    (see `_deflated_pinv`).  Any other matrix (an exactly singular
    factor, a wide matrix, a dropped spectrum that is large or close to
    the kept one) takes the truncated SVD.  An identically zero matrix
    (rank collapse) and an SVD that does not converge are NumericalErrors.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ConfigError("pseudo_inverse expects a matrix")
    if not np.all(np.isfinite(a)):
        raise ConfigError("non-finite matrix entries")
    if rtol is None:
        rtol = default_rtol(a.shape)
    factored = _factored_inverse(a, rtol)
    if factored is None:
        return _svd_pinv(a, rtol)
    x, info = factored
    if info is not None:
        return x, info
    # x is an LU inverse the bound could not certify; it is dropped
    # before the next n x n work array is made
    del factored
    split = _trailing_subspaces(a, x, rtol)
    if split is None:
        del x
        return _svd_pinv(a, rtol)
    s, rank, v, u = split
    info = PinvInfo(rank=rank, sigma_max=float(s[0]),
                    sigma_min_kept=float(s[rank - 1]), rtol=rtol,
                    factorization="deflated-lu")
    if v is None:       # the spectrum shows full rank: x is the inverse
        return x, info
    del x
    return _deflated_pinv(a, s[0], v, u), info


def _norm_1_inf(a: np.ndarray) -> float:
    """sqrt(|a|_1 |a|_inf), an upper bound on the 2-norm of a."""
    mag = np.abs(a)
    return float(np.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max()))


def _factored_inverse(a: np.ndarray, rtol: float):
    """LU (square) or QR (tall) inverse, certified full rank or not.

    Returns ``(inverse, info)`` for a certified inverse and
    ``(inverse, None)`` for an LU inverse whose condition bound cannot
    certify full rank at `rtol` (`_trailing_subspaces` may still use
    it).  Returns None for a wide matrix, an exactly singular factor, a
    non-finite inverse or an uncertified QR inverse.
    """
    rows, cols = a.shape
    if rows < cols or cols == 0:
        return None
    try:
        if rows == cols:
            x, kind = np.linalg.inv(a), "lu"
        else:
            q, r = np.linalg.qr(a)
            np.conjugate(q, out=q)      # Q^H as a view, without a copy
            x, kind = np.linalg.solve(r, q.T), "qr"
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        upper, inv_upper = _norm_1_inf(a), _norm_1_inf(x)
        kappa = upper * inv_upper
    if not np.isfinite(kappa):
        return None
    if kappa * rtol >= 1.0:
        return (x, None) if kind == "lu" else None
    return x, PinvInfo(rank=cols, sigma_max=upper,
                       sigma_min_kept=1.0 / inv_upper, rtol=rtol,
                       factorization=kind)


# The subspace iteration below needs the dropped singular values to sit
# this far below the smallest kept one; each step then shrinks the kept
# directions' share of the iterate by its square.
_DEFLATION_GAP = 1e-3
_DEFLATION_STEPS = 4


def _trailing_subspaces(a: np.ndarray, x: np.ndarray, rtol: float):
    """Singular spectrum of square `a` and its dropped singular subspaces.

    `x` is an LU inverse of `a`.  Returns ``(s, rank, v, u)``: all
    singular values, the rank at `rtol`, and orthonormal bases of the
    right and left singular subspaces of the d = n - rank dropped
    values (both None when d = 0).  Returns None when the SVD should
    decide instead: no value kept, more than n/8 dropped (the
    iteration's blocks would approach the matrix's own size), a gap
    narrower than _DEFLATION_GAP, or no convergence in
    _DEFLATION_STEPS steps.

    The dropped subspaces are the dominant ones of x = V S^-1 U^H.
    Subspace iteration on x x^H finds V_d; U_d spans x^H V_d.  The
    iteration stops when the part of A V_d outside span(U_d) is below
    100 n eps sigma_max.  Deflating with that residual moves the result
    by at most about 100 n eps kappa relative to the truncated SVD's,
    against its own eps kappa.
    """
    n = a.shape[0]
    s = _svd(a, compute_uv=False)
    if s[0] == 0.0:
        return None
    rank = int(np.count_nonzero(s > rtol * s[0]))
    dropped = n - rank
    if rank == 0 or 8 * dropped > n:
        return None
    if dropped == 0:
        return s, rank, None, None
    if s[rank] > _DEFLATION_GAP * s[rank - 1]:
        return None
    rng = philox_rng(n)
    v = rng.normal(size=(n, dropped))
    if np.iscomplexobj(a):
        v = v + 1j * rng.normal(size=(n, dropped))
    tol = 100 * n * np.finfo(float).eps * s[0]
    for _ in range(_DEFLATION_STEPS):
        v = np.linalg.qr(x @ (x.conj().T @ v))[0]
        u = np.linalg.qr(x.conj().T @ v)[0]
        av = a @ v
        if np.linalg.norm(av - u @ (u.conj().T @ av)) <= tol:
            return s, rank, v, u
    return None


def _deflated_pinv(a: np.ndarray, scale: float, v: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """Truncated pseudo-inverse of square `a` from one LU inverse.

    `v` and `u` span the right and left singular subspaces of the
    dropped values: A = U_k S_k V_k^H + U_d S_d V_d^H.  The matrix
    B = (I - U_d U_d^H) A (I - V_d V_d^H) + scale U_d V_d^H has singular
    values S_k and `scale` (sigma_max here), so it is as well conditioned
    as the kept spectrum, and A_k^+ = B^-1 - V_d U_d^H / scale.  The work
    arrays are n x n (B, then its inverse) instead of the SVD's five to
    seven.
    """
    b = a.astype(np.result_type(a, v))
    b -= u @ (u.conj().T @ b)
    b -= (b @ v - scale * u) @ v.conj().T
    pinv = np.linalg.inv(b)
    del b
    pinv -= (v / scale) @ u.conj().T
    return pinv


def _svd_pinv(a: np.ndarray, rtol: float):
    """Truncated-SVD pseudo-inverse: the general path and the test oracle."""
    u, s, vh = _svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise NumericalError("zero matrix has no retained spectrum")
    keep = s > rtol * s[0]
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise NumericalError("rank collapse: no singular value above threshold")
    pinv = (vh[:rank].conj().T * (1.0 / s[:rank])) @ u[:, :rank].conj().T
    return pinv, PinvInfo(rank=rank, sigma_max=float(s[0]),
                          sigma_min_kept=float(s[rank - 1]), rtol=rtol)


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
    """Write |a| at the `band_pairs` entries of square `a`.

    A ``# gridfr-tmatrix v1, order=P, band=r`` line, then ``i,j,|a_ij|``
    per entry in row-major order: zero-based indices, ``%.8e`` magnitude.
    """
    a = np.asarray(a)
    rows, cols = band_pairs(_square_order(a, "save_magnitude_csv"), band)
    np.savetxt(path, np.column_stack([rows, cols, np.abs(a[rows, cols])]),
               fmt="%d,%d,%.8e",
               header=f"gridfr-tmatrix v1, order={len(a)}, band={band}")


def default_band(order: int) -> int:
    """Band half-width heuristic r ~ log(system order), at least 1.

    For a 1D raster of 2N+1 points this is ceil(log(2N+1)); e.g. N=16
    gives r=4 (band 7).
    """
    r = int(np.ceil(np.log(order)))
    return min(max(r, 1), order)


def _trapezoid_1d(sorted_coords: np.ndarray) -> np.ndarray:
    n = len(sorted_coords)
    if n == 1:
        return np.array([1.0])
    w = np.empty(n)
    w[1:-1] = (sorted_coords[2:] - sorted_coords[:-2]) / 2.0
    w[0] = (sorted_coords[1] - sorted_coords[0]) / 2.0
    w[-1] = (sorted_coords[-1] - sorted_coords[-2]) / 2.0
    return w


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
        w[order] = _trapezoid_1d(raster.points[order])
        return w

    if raster.kind == "jittered_grid" and raster.index_extents is not None:
        (lo1, hi1), (lo2, hi2) = raster.index_extents
        n1, n2 = hi1 - lo1 + 1, hi2 - lo2 + 1
        x = raster.points[:, 0].reshape(n1, n2)
        y = raster.points[:, 1].reshape(n1, n2)
        w1 = np.empty_like(x)
        w2 = np.empty_like(y)
        for j in range(n2):
            w1[:, j] = _trapezoid_1d(x[:, j])
        for i in range(n1):
            w2[i, :] = _trapezoid_1d(y[i, :])
        return (w1 * w2).ravel()

    cells = np.round(raster.points).astype(int)
    _, inverse, counts = np.unique(cells, axis=0, return_inverse=True,
                                   return_counts=True)
    return 1.0 / counts[inverse]
