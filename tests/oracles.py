"""Independent reference computations the tests compare the package against.

None of these runs in a reconstruction; each recomputes a quantity by a
slower or more direct route than the package's own.  `no_values_only_svd`
guards a computation instead: it fails any SVD taken without vectors.
"""

import contextlib
import functools
from unittest import mock

import numpy as np

from gridfr import numerics
from gridfr.recon import t_matrix
from gridfr.window import gauss_legendre_01, window_values


def csv_text(header: str, rows) -> str:
    """A gridfr CSV file written row by row: the header line, then each
    row's values with 17 significant digits."""
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def dense_psi(tables) -> np.ndarray:
    """Psi (P x Q) from its per-axis P x (2M_a+1) tables: row-wise
    Kronecker product, modes flattened row-major."""
    if len(tables) == 1:
        return tables[0]
    return np.einsum("pa,pb->pab", *tables).reshape(len(tables[0]), -1)


def dense_omega(tables) -> np.ndarray:
    """Omega (Q x P) from its per-axis (2M_a+1) x P tables: column-wise
    Kronecker product, modes flattened row-major."""
    if len(tables) == 1:
        return tables[0]
    return np.einsum("ap,bp->abp", *tables).reshape(-1, tables[0].shape[1])


def _phased(a_axes, raster, modes) -> tuple:
    """Psi's per-axis tables e^{i pi (m - lambda_{n,a})} A_a[n, m] from the
    real A_a of `build_psi`, as e^{-i pi lambda_{n,a}} A_a[n, m] (-1)^m."""
    return tuple(np.multiply.outer(np.exp(-1j * np.pi * raster.coords(axis)),
                                   1.0 - 2.0 * (np.arange(-m, m + 1) % 2)) * a
                 for axis, (a, m) in enumerate(zip(a_axes, modes)))


def _phased_omega(g_axes, raster, modes) -> tuple:
    """Omega's per-axis tables e^{-i pi (m - lambda_{n,a})} G_a[m, n] from
    the real G_a of `build_omega`: the conjugate phases of `_phased`."""
    return tuple(t.T.conj() for t in
                 _phased([g.T for g in g_axes], raster, modes))


def rephased(x, left, right) -> np.ndarray:
    """diag(left) x diag(right)."""
    return left[:, None] * x * right


def plan_psi(plan) -> np.ndarray:
    """The complex Psi = D A E a plan stands for (P x Q)."""
    d, e = plan.phases
    return rephased(dense_psi(plan.psi_axes), d, e)


def plan_t(plan) -> np.ndarray:
    """The complex T = Psi Omega = D R D^H a plan stands for (P x P)."""
    d, _ = plan.phases
    return rephased(t_matrix(plan.psi_axes, plan.omega_axes), d, d.conj())


def synthesize_fft(coeffs, modes, grid, sigma) -> np.ndarray:
    """sum_m c_m e^{2 pi i <m,x>} / w(x) on the grid x_g = g/G: the
    coefficients scattered into a zero-padded array, an inverse FFT, then
    division by the window."""
    shape = tuple(2 * m + 1 for m in modes)
    arr = np.zeros(grid, dtype=complex)
    arr[np.ix_(*[np.arange(-m, m + 1) % g for m, g in zip(modes, grid)])] = \
        np.asarray(coeffs, dtype=complex).reshape(shape)
    img = np.fft.ifftn(arr) * np.prod(grid)
    w = [window_values(np.arange(g) / g, sigma) for g in grid]
    return img / functools.reduce(np.multiply.outer, w)


def _recip_window_transform(t, window, nodes: int):
    """v(t) = int_0^1 exp(2 pi i t x) / w(x) dx on an array of offsets, by
    the full Gauss-Legendre rule: the complex exponential at every
    (offset, node) pair.  Psi_a[n, m] = v(m - lambda_{n,a}), and
    `recon._half_rule_sums` is e^{-i pi t} v(t) summed over half the rule."""
    xq, wq = gauss_legendre_01(nodes)
    vx = wq / window_values(xq, window.sigma)
    return np.exp(2j * np.pi * np.multiply.outer(np.asarray(t, float), xq)) @ vx


def psi_entry_quad(window, lam, m, nodes: int = 2048) -> complex:
    """Single Psi entry by long quadrature, one 1D factor per axis."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    out = 1.0 + 0j
    for a in range(len(lam)):
        out *= complex(_recip_window_transform(
            np.array([m[a] - lam[a]]), window, nodes)[0])
    return out


def admissibility_slope(window, n_extent: int, nodes: int = 768) -> float:
    """Decay exponent of |<zeta_n, zeta_l>| against mode separation.

    zeta_n(x) = e^{2 pi i <n,x>} / w(x); the pairwise inner products on
    the 2D lattice |n_i| <= N separate into 1D factors
    q(d) = int_0^1 e^{2 pi i d x} / w(x)^2 dx.  Returns the slope of
    log10 |ip| regressed on log10(1 + ||n - l||_2) over all pairs; an
    admissible frame needs decay faster than quadratic (slope <= -2).
    """
    d = np.arange(-2 * n_extent, 2 * n_extent + 1)
    xq, wq = gauss_legendre_01(nodes)
    vx = wq / window_values(xq, window.sigma) ** 2
    q = np.exp(2j * np.pi * np.multiply.outer(d.astype(float), xq)) @ vx
    qabs = dict(zip(d.tolist(), np.abs(q)))
    n = np.arange(-n_extent, n_extent + 1)
    i1, i2 = np.meshgrid(n, n, indexing="ij")
    flat = np.stack([i1.ravel(), i2.ravel()], axis=1)
    d1 = flat[:, 0][:, None] - flat[:, 0][None, :]
    d2 = flat[:, 1][:, None] - flat[:, 1][None, :]
    look = np.vectorize(qabs.get)
    ip = look(d1) * look(d2)
    dist = np.sqrt(d1**2 + d2**2)
    xv = np.log10(1.0 + dist.ravel())
    yv = np.log10(ip.ravel() + 1e-300)
    return float(np.polyfit(xv, yv, 1)[0])


def _negated_pairs(raster):
    """Index pairs (i, j) with point j = -(point i), where both exist."""
    pts = raster.points.reshape(len(raster), -1)
    index = {tuple(np.round(p, 9)): i for i, p in enumerate(pts)}
    keys = [tuple(np.round(-p, 9)) for p in pts]
    return [(i, index[k]) for i, k in enumerate(keys) if k in index]


def negation_permutation(raster) -> np.ndarray:
    """perm with point perm[i] = -(point i); the raster must be closed
    under negation."""
    pairs = _negated_pairs(raster)
    assert len(pairs) == len(raster), "raster is not closed under negation"
    return np.array([j for _, j in pairs])


def check_conjugate_symmetry(samples, raster, tol: float = 1e-10) -> bool:
    """True when f_hat(-lambda) == conj(f_hat(lambda)) wherever both exist."""
    v = samples.values
    return all(abs(v[j] - np.conj(v[i])) <= tol
               for i, j in _negated_pairs(raster))


@contextlib.contextmanager
def no_values_only_svd():
    """Within the block, an SVD taken for its singular values alone
    (``numerics._svd(..., compute_uv=False)``) raises AssertionError."""
    svd = numerics._svd

    def vectors_only(a, **kwargs):
        if kwargs.get("compute_uv", True) is False:
            raise AssertionError("values-only SVD taken")
        return svd(a, **kwargs)

    with mock.patch.object(numerics, "_svd", vectors_only):
        yield
