"""Dense linear-algebra kernel: truncated pseudo-inverse, the FTCG band,
and density-compensation quadrature weights.

Matrices are plain numpy arrays, real or complex (the plans hand over
real ones; see `recon.ReconPlan`), and every factorization is one of
numpy's LAPACK bindings (LU, QR or SVD).  The
pseudo-inverse treats singular values below ``rtol * sigma_max`` as
zero; the default threshold is ``1e-10 * max(rows, cols)``.  A square
or tall matrix whose LU or QR inverse certifies, by norm bounds, that
no singular value falls below the threshold is inverted by that
factorization.  For a square matrix that drops a few singular values,
block subspace iteration on its LU inverse finds them; it is inverted
by LU after deflating them when norm bounds prove that the truncated
SVD drops exactly those.  Any other matrix takes the truncated SVD, the
only path that computes all singular values.  Every factorization
reports its retained rank and condition number (after LU, QR or
deflation an upper bound) so ill-conditioning is visible instead of
silent.
"""

from __future__ import annotations

import contextlib
import ctypes
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, NumericalError
from .raster import Raster, philox_rng

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

    `factorization` names the path that ran: "svd", "lu", "qr" or
    "deflated-lu" (an LU inverse, after deflating the dropped singular
    values that subspace iteration found; see `pseudo_inverse`).  After
    "svd", `sigma_max` and `sigma_min_kept` are the exact largest and
    smallest retained singular values.  After the other three they are
    an upper and a lower bound on them, so `kappa` is an upper bound on
    the retained 2-norm condition number.  After "lu" or "qr" the bounds
    are sqrt(|A|_1 |A|_inf) and 1/sqrt(|X|_1 |X|_inf) for the inverse X
    (`kappa` at most sqrt(rows*cols) times the exact one).  After
    "deflated-lu" they are |A|_F and 1/|X|_F when nothing was dropped,
    and otherwise sqrt(|A|_1 |A|_inf) and 1/sqrt(|X|_1 |X|_inf) - err
    for the truncated inverse X and the deflation residual err.  `rtol`
    is the relative threshold the inversion applied.
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
    bound does not certify full rank keeps its LU inverse when the
    Frobenius bound |A|_F |X|_F does.  Otherwise block subspace
    iteration on X looks for the few singular values it drops (see
    `_trailing_subspaces`); the matrix is deflated on their singular
    subspaces and inverted by LU (see `_deflated_pinv`), and the result
    is kept when norm bounds prove that the truncated SVD drops exactly
    those values.  Any other matrix (an exactly singular factor, a wide
    matrix, a dropped spectrum the iteration does not certify) takes
    the truncated SVD.  No path but that one computes all singular
    values.  An identically zero matrix (rank collapse) and an SVD that
    does not converge are NumericalErrors.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ConfigError("pseudo_inverse expects a matrix")
    if not all_finite(a):
        raise ConfigError("non-finite matrix entries")
    if rtol is None:
        rtol = default_rtol(a.shape)
    factored = _factored_inverse(a, rtol)
    if factored is None:
        return _svd_pinv(a, rtol)
    x, info = factored
    if info is not None:
        return x, info
    # x is an LU inverse the 1-inf bound could not certify; it is dropped
    # before the next n x n work array is made
    del factored
    n = len(a)
    info = PinvInfo(rank=n, sigma_max=float(np.linalg.norm(a)),
                    sigma_min_kept=1.0 / float(np.linalg.norm(x)),
                    rtol=rtol, factorization="deflated-lu")
    if rtol * info.sigma_max < info.sigma_min_kept:
        return x, info
    # the largest column 2-norm: a lower bound on sigma_max
    scale = float(np.linalg.norm(a, axis=0).max())
    split = _trailing_subspaces(a, x, rtol, scale)
    del x
    if split is None:
        return _svd_pinv(a, rtol)
    v, u, err = split
    pinv = _deflated_pinv(a, scale, v, u)
    # a = K + U_d M V_d^H + E with |E| <= err, so each of its n-d largest
    # singular values is at least sigma_min(K) - err, and pinv = K^+ has
    # 2-norm 1/sigma_min(K) <= sqrt(|pinv|_1 |pinv|_inf)
    info = PinvInfo(rank=n - v.shape[1], sigma_max=_norm_1_inf(a),
                    sigma_min_kept=1.0 / _norm_1_inf(pinv) - err,
                    rtol=rtol, factorization="deflated-lu")
    if rtol * info.sigma_max < info.sigma_min_kept:
        return pinv, info
    del pinv
    return _svd_pinv(a, rtol)


def _norm_1_inf(a: np.ndarray) -> float:
    """sqrt(|a|_1 |a|_inf), an upper bound on the 2-norm of a."""
    mag = np.abs(a)
    return float(np.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max()))


def _factored_inverse(a: np.ndarray, rtol: float):
    """LU (square) or QR (tall) inverse, certified full rank or not.

    Returns ``(inverse, info)`` for a certified inverse and
    ``(inverse, None)`` for an LU inverse whose condition bound cannot
    certify full rank at `rtol` (`pseudo_inverse` may still use it).
    Returns None for a wide matrix, an exactly singular factor, a
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


_DEFLATION_STEPS = 4


def _trailing_subspaces(a: np.ndarray, x: np.ndarray, rtol: float,
                        scale: float):
    """Certified dropped singular subspaces of square `a`.

    `x` is an LU inverse of `a` and `scale` a lower bound on its largest
    singular value.  Returns ``(v, u, err)``: orthonormal n x d bases
    of the right and left singular subspaces of d >= 1 singular values
    that lie below rtol*sigma_max, and a bound err on the 2-norm of
    E = A - K - U_d M V_d^H, with K = (I - U_d U_d^H) A (I - V_d V_d^H)
    and M = U_d^H A V_d.  Returns None when the SVD should decide
    instead: none of the b Ritz values counts as dropped, all of them do
    (more values may be dropped), or the subspaces do not converge in
    _DEFLATION_STEPS steps.

    The dropped singular values of A are the dominant ones of
    X = V S^-1 U^H.  Block subspace iteration V <- qr(X X^H V) on
    b = min(16, n//8 + 1) columns finds them (Halko, Martinsson & Tropp,
    "Finding structure with randomness", SIAM Rev. 2011).  Its Ritz
    values theta, the singular values of X^H V = U' diag(theta) W'^H,
    interlace: theta_i <= sigma_i(X) = 1/sigma_(n+1-i)(A).  So
    1/theta_i < rtol*scale proves the i-th smallest singular value of A
    dropped, and V_d = V W'_d, U_d = U'_d are the top-d Ritz vectors.
    The iteration stops when the residuals A V_d - U_d M and
    A^H U_d - V_d M^H, whose norms sum to err, are below
    100 n eps scale; deflating with them moves the result by at most
    about 100 n eps kappa relative to the truncated SVD's, against its
    own eps kappa.  The d smallest singular values of A are then at most
    |M|_F + err, and the split is returned only when that is below
    rtol*scale too.  Nor is it returned when the next Ritz value shows
    that `pseudo_inverse` would refuse the deflated inverse: its bound
    on the smallest kept singular value is at most
    sigma_(n-d)(A) <= 1/theta_(d+1), and it must exceed
    rtol*sqrt(|A|_1 |A|_inf).
    """
    n = a.shape[0]
    b = min(16, n // 8 + 1)
    rng = philox_rng(n)
    v = rng.normal(size=(n, b))
    if np.iscomplexobj(a):
        v = v + 1j * rng.normal(size=(n, b))
    tol = 100 * n * np.finfo(float).eps * scale
    y = x.conj().T @ v
    for _ in range(_DEFLATION_STEPS):
        v = np.linalg.qr(x @ y)[0]
        y = x.conj().T @ v
        u, theta, wh = _svd(y, full_matrices=False)
        dropped = int(np.count_nonzero(theta * (rtol * scale) > 1.0))
        if dropped == b:
            return None
        if dropped == 0:
            continue
        v_d, u_d = v @ wh[:dropped].conj().T, u[:, :dropped]
        av = a @ v_d
        m = u_d.conj().T @ av
        err = float(np.linalg.norm(av - u_d @ m)
                    + np.linalg.norm(a.conj().T @ u_d - v_d @ m.conj().T))
        if err <= tol:
            if (np.linalg.norm(m) + err < rtol * scale
                    and theta[dropped] * rtol * _norm_1_inf(a) < 1.0):
                return v_d, u_d, err
            return None
    return None


def _deflated_pinv(a: np.ndarray, scale: float, v: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """Truncated pseudo-inverse of square `a` from one LU inverse.

    `v` and `u` span the right and left singular subspaces of the
    dropped values: A = U_k S_k V_k^H + U_d S_d V_d^H.  The matrix
    B = (I - U_d U_d^H) A (I - V_d V_d^H) + scale U_d V_d^H has singular
    values S_k and `scale` (between sigma_max/sqrt(n) and sigma_max
    here), so it is as well conditioned as the kept spectrum, and
    A_k^+ = B^-1 - V_d U_d^H / scale.  The work arrays are n x n (B,
    then its inverse) instead of the SVD's five to seven.
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
    """Write |a| at the `band_pairs` entries of square `a` in the tmatrix
    CSV format (see `raster`)."""
    a = np.asarray(a)
    rows, cols = band_pairs(_square_order(a, "save_magnitude_csv"), band)
    triples = zip(rows.tolist(), cols.tolist(), np.abs(a[rows, cols]).tolist())
    with open(path, "w") as fh:
        fh.write(f"# gridfr-tmatrix v1, order={len(a)}, band={band}\n")
        fh.write(("%d,%d,%.8e\n" * len(rows)) % tuple(chain.from_iterable(triples)))


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
