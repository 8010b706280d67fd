"""Dense linear-algebra kernel: truncated pseudo-inverse, the FTCG band,
and density-compensation quadrature weights.

Matrices are plain numpy arrays, real or complex (the plans hand over
real ones; see `recon.ReconPlan`), and every factorization is one of
numpy's LAPACK bindings (LU, SVD, and QR for the bases of subspace
iteration).  The pseudo-inverse treats singular values below
``rtol * sigma_max`` as zero (by default
``rtol = 1e-10 * max(rows, cols)``) and has four exits: LU, the inverse
of a square matrix, when its 1-inf norm bounds certify that no singular
value falls below the threshold; Gram, the solution X of
(A^H A) X = A^H for a tall matrix, when its left-inverse residual
X A - I is at rounding level and the same bounds certify it; deflated
LU, for a square matrix that drops a few singular values, the LU
inverse after deflating those that subspace iteration finds, when the
same bounds certify that the truncated SVD drops exactly those; and
otherwise SVD, the truncated SVD, the only exit that computes all
singular values.  Every exit reports its retained rank and condition
number (an upper bound, except after the SVD) so ill-conditioning is
visible instead of silent.  `save_magnitude_csv` picks the band's
entries for `raster.write_rows`, which formats the file.
"""

from __future__ import annotations

import contextlib
import ctypes
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .raster import Raster, philox_rng, write_rows

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
    (tall: X solves (A^H A) X = A^H), "deflated-lu" (rank < n: an LU
    inverse after deflating the dropped singular values that subspace
    iteration found) or "svd".  After "svd", `sigma_max` and
    `sigma_min_kept` are the exact largest and smallest retained
    singular values.  After the others `sigma_max` is the bound
    sqrt(|A|_1 |A|_inf) and `sigma_min_kept` a lower bound on the
    smallest kept singular value: 1/sqrt(|X|_1 |X|_inf) for the inverse
    X after "lu", that minus the deflation residual err after
    "deflated-lu", and (1 - eta)/sqrt(|X|_1 |X|_inf) after "gram", with
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
    treated as zero.  A square matrix is first inverted by LU, kept when
    `_certified` proves every singular value above the threshold.  A
    tall one is inverted through its Gram matrix, X = (A^H A)^-1 A^H,
    whose error grows like kappa^2, so X is kept only when its
    left-inverse residual eta = |X A - I| is at most _GRAM_RESIDUAL
    and `_certified` proves every singular value above the threshold
    with the lower bound (1 - eta)/|X|.  For an uncertified square
    matrix, block subspace iteration on X looks for the few singular
    values it drops (`_trailing_subspaces`); the matrix is deflated on
    their singular subspaces and inverted by LU (`_deflated_pinv`), kept
    when `_certified` proves that the truncated SVD drops exactly those
    values.  Any other matrix (wide, an exactly singular factor, a
    non-finite inverse or bound, a Gram inverse with a larger residual,
    an uncertified spectrum) takes the truncated SVD, the only exit that
    computes all singular values.  An identically zero matrix (rank collapse) and an SVD that
    does not converge are NumericalErrors.
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
    if rows > n:
        del x       # dropped before the SVD's work arrays are made
        return _svd_pinv(a, rtol)
    # the largest column 2-norm bounds sigma_max from below; an overflow
    # (a bound beyond 1e308) leaves the matrix to the SVD
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.linalg.norm(a, axis=0).max())
        split = _trailing_subspaces(a, x, rtol, scale)
    del x
    if split is not None:
        v, u, err = split
        pinv = _deflated_pinv(a, scale, v, u)
        # a = K + U_d M V_d^H + E with |E| <= err, so each of its n-d
        # largest singular values is at least sigma_min(K) - err, and
        # pinv = K^+ has 2-norm 1/sigma_min(K)
        info = _certified(a, pinv, rtol, n - v.shape[1], "deflated-lu", err)
        if info is not None:
            return pinv, info
        del pinv
    return _svd_pinv(a, rtol)


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
               kind: str, err: float = 0.0, residual: float = 0.0):
    """`PinvInfo` for `x` as the rank-`rank` inverse of `a`, or None.

    sqrt(|A|_1 |A|_inf) bounds sigma_max from above and
    (1 - residual)/sqrt(|X|_1 |X|_inf) - err the smallest kept singular
    value from below, when the kept part of A lies within 2-norm `err`
    of a matrix with pseudo-inverse X, or when X is a left inverse of A
    with residual |X A - I| <= `residual` (then |X A v| >= 1 - residual
    for a unit v, so |A v| >= (1 - residual)/|X|).  None unless they put
    every kept value above rtol*sigma_max; a non-finite bound proves
    nothing.
    """
    with np.errstate(all="ignore"):
        upper = _norm_1_inf(a)
        lower = (1.0 - residual) / _norm_1_inf(x) - err
    if not rtol * upper < lower:
        return None
    return PinvInfo(rank=rank, sigma_max=upper, sigma_min_kept=lower,
                    rtol=rtol, factorization=kind)


_DEFLATION_STEPS = 8


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
    (more values may be dropped), the iteration overflows, or the
    subspaces do not converge in _DEFLATION_STEPS steps.

    The dropped singular values of A are the dominant ones of
    X = V S^-1 U^H.  Block subspace iteration V <- qr(X X^H V) on
    b = min(16, n//8 + 1) columns finds them (Halko, Martinsson & Tropp,
    "Finding structure with randomness", SIAM Rev. 2011).  Its Ritz
    values theta, the singular values of X^H V = U' diag(theta) W'^H,
    interlace: theta_i <= sigma_i(X) = 1/sigma_(n+1-i)(A).  So
    1/theta_i < rtol*scale proves the i-th smallest singular value of A
    dropped, and V_d = V W'_d, U_d = U'_d are the top-d Ritz vectors.
    The residuals A V_d - U_d M and A^H U_d - V_d M^H, whose norms sum
    to err, shrink by the convergence ratio each step until they reach
    the rounding floor that X's own error sets.  Deflating moves the
    result by about err/sigma_min_kept relative to the truncated SVD's,
    so the iteration stops only at that floor: when err is below
    100 n eps scale and a step no longer halves it (with the same d).
    Stopping as soon as err met that bound left up to 1e3 times the
    SVD's error (a 33 x 33 masked T, kappa 2e5: 4.7e-8 against 3e-12
    relative, two steps before the floor).  The d smallest singular
    values of A are then at most |M|_F + err, and the split is returned
    only when that is below rtol*scale too.  Nor is it returned when the
    next Ritz value shows that `pseudo_inverse` would refuse the
    deflated inverse: its bound on the smallest kept singular value is
    at most sigma_(n-d)(A) <= 1/theta_(d+1), and it must exceed
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
    last = (0, np.inf)      # d and err of the step before
    for _ in range(_DEFLATION_STEPS):
        v = np.linalg.qr(x @ y)[0]
        y = x.conj().T @ v
        if not all_finite(y):
            return None
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
        if err <= tol and last[0] == dropped and 2 * err >= last[1]:
            if (np.linalg.norm(m) + err < rtol * scale
                    and theta[dropped] * rtol * _norm_1_inf(a) < 1.0):
                return v_d, u_d, err
            return None
        last = (dropped, err)
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
