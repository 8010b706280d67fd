"""Gaussian window function, its analytic spectrum, and truncation radius.

The window is a Gaussian bump centered at 1/2,

    w(x) = exp(-(x - 1/2)^2 / (2 sigma^2)),        x in [0, 1],

extended as a tensor product across axes in 2D.  Its spectrum is taken
to be the whole-line Fourier transform

    w_hat(xi) = sqrt(2 pi) sigma exp(-2 pi^2 sigma^2 xi^2) exp(-i pi xi),

which stands in for the [0,1] Fourier coefficient of w.  The two differ
by the mass of w outside [0,1]; that tail is about 2*sigma*sqrt(2pi)*Q(1/(2 sigma))
with Q the Gaussian tail function, e.g. ~2e-5 at sigma=1/8 and below
1e-10 only for sigma <= ~1/13.6.  `window_coefficient` computes the
exact [0,1] coefficient by quadrature wherever that distinction matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

DEFAULT_SIGMA = 0.125
DEFAULT_TRUNC_EPS = 1e-12


@dataclass(frozen=True)
class WindowSpec:
    """Immutable window description; safe to share across threads."""

    sigma: float
    trunc_eps: float
    K: int
    dim: int


def truncation_radius(sigma: float, trunc_eps: float) -> int:
    """Smallest integer K with |w_hat(K)| <= trunc_eps * |w_hat(0)|.

    Solves exp(-2 pi^2 sigma^2 K^2) = trunc_eps in closed form and
    rounds up; clamped to at least 1.
    """
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    if not 0 < trunc_eps < 1:
        raise ConfigError(f"trunc_eps must be in (0, 1), got {trunc_eps}")
    k = math.sqrt(math.log(1.0 / trunc_eps) / (2.0 * math.pi**2 * sigma**2))
    return max(1, math.ceil(k))


def gaussian_window(sigma: float = DEFAULT_SIGMA,
                    trunc_eps: float = DEFAULT_TRUNC_EPS,
                    dim: int = 1) -> WindowSpec:
    """Build a WindowSpec, deriving the truncation radius K."""
    if dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {dim}")
    return WindowSpec(sigma=float(sigma), trunc_eps=float(trunc_eps),
                      K=truncation_radius(sigma, trunc_eps), dim=dim)


def window_values(x, sigma: float):
    """Vectorized 1D window factor exp(-(x-1/2)^2/(2 sigma^2))."""
    x = np.asarray(x, dtype=float)
    return np.exp(-((x - 0.5) ** 2) / (2.0 * sigma**2))


def spectrum_factor(xi, sigma: float):
    """1D closed-form spectrum sqrt(2pi) s exp(-2 pi^2 s^2 xi^2) e^{-i pi xi}."""
    xi = np.asarray(xi, dtype=float)
    mag = math.sqrt(2.0 * math.pi) * sigma * np.exp(-2.0 * np.pi**2 * sigma**2 * xi**2)
    return mag * np.exp(-1j * np.pi * xi)


@lru_cache(maxsize=16)
def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def window_coefficient(m, sigma: float, nodes: int = 768):
    """Exact [0,1] Fourier coefficient of w: int_0^1 w(x) e^{-2 pi i m x} dx.

    Gauss-Legendre quadrature; `m` may be an array.  This is the
    reference-grade version of `spectrum_factor` without the outside-
    [0,1] tail approximation.
    """
    xq, wq = gauss_legendre_01(nodes)
    wx = wq * window_values(xq, sigma)
    m = np.atleast_1d(np.asarray(m, dtype=float))
    out = np.exp(-2j * np.pi * np.multiply.outer(m, xq)) @ wx
    return out if out.shape != (1,) else complex(out[0])
