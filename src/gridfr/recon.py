"""The three estimators: convolutional gridding, frame approximation, FTCG.

All three synthesize an image from mode coefficients c as

    image(x) = sum_{|m| <= M} c_m exp(2 pi i <m, x>) / w(x)

on a uniform grid (zero-padded inverse FFT, then pointwise division by
the window).  They differ in how the coefficients come out of the
scattered Fourier data f_hat(lambda_n):

* gridding (cg):   gamma = Omega D f_hat, D diagonal density weights;
* frame:           beta  = B f_hat with B the truncated pseudo-inverse
                   of the cross-Gram Psi;
* ftcg:            tau   = Omega C f_hat with C the pseudo-inverse of
                   the band-masked square system T = Psi Omega.

Matrix conventions (P raster points, Q modes, row-major flattening of
the 2D mode lattice):

    Psi[n, m]   = int_[0,1]^d exp(2 pi i <m - lambda_n, x>) / w(x) dx     (P x Q)
    Omega[m, n] = w_hat(m - lambda_n), zero beyond the truncation radius (Q x P)

so T = Psi Omega is P x P and a full band makes C = T^+ collapse FTCG
onto the frame solve.  Entries separate across axes, so both matrices
are assembled from per-axis factor tables.

Note the sign in Psi: the exponent uses m - lambda_n *inside* a forward
kernel, equivalently the inner product is taken conjugate-linear in the
first slot.  With the opposite (textbook-first-slot-linear) convention
the least-squares solve reconstructs phase-corrupted garbage; the
choice here is fixed by requiring gamma = beta at full band and by the
reconstruction quality gates in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .numerics import (PinvInfo, band_kept_fraction, band_mask, default_band,
                       default_rtol, density_weights, pseudo_inverse)
from .raster import Raster
from .sampling import SampleSet, Scene, _outer, _panel_rule, _scene_lattice
from .window import (WindowSpec, gauss_legendre_01, spectrum_factor,
                     window_coefficient, window_values)

METHODS = ("cg", "frame", "ftcg")


@dataclass(frozen=True)
class ReconPlan:
    """Precomputed operators for a fixed raster/window/mode box.

    Immutable after construction (`build_plan` marks its arrays
    read-only); reusable for any SampleSet taken on the same raster.
    `meta` carries build timings, retained-rank info, any raster rescale
    transform, and quadrature self-check drift.
    """

    raster: Raster
    window: WindowSpec
    modes: tuple                 # per-axis half-extent M
    methods: tuple
    band: Optional[int] = None
    rtol: Optional[float] = None
    psi: Optional[np.ndarray] = None
    omega: Optional[np.ndarray] = None
    dvec: Optional[np.ndarray] = None      # cg diagonal weights
    bmat: Optional[np.ndarray] = None      # frame: pinv(Psi)
    tmat: Optional[np.ndarray] = None      # Psi @ Omega
    cmat: Optional[np.ndarray] = None      # ftcg: pinv(T o B_r)
    meta: dict = field(default_factory=dict)

    @property
    def raster_ref(self) -> str:
        return self.raster.raster_id

    def n_modes(self) -> int:
        return int(np.prod([2 * m + 1 for m in self.modes]))

    def mode_arrays(self):
        return [np.arange(-m, m + 1) for m in self.modes]


@dataclass(frozen=True)
class ImageGrid:
    """Complex image on the uniform grid x_g = g/G over [0,1)^d."""

    values: np.ndarray
    grid_size: tuple
    method: str = ""
    plan_ref: Optional[str] = None

    def __post_init__(self):
        vals = np.asarray(self.values)
        if not np.all(np.isfinite(vals)):
            raise ConfigError("non-finite image values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


# ---------------------------------------------------------------- operators

def _axis_modes(raster: Raster, modes) -> tuple:
    if modes is None:
        return default_modes(raster)
    if np.isscalar(modes):
        return (int(modes),) * raster.dim
    return tuple(int(m) for m in modes)


def default_modes(raster: Raster) -> tuple:
    """Per-axis mode half-extent: cover the data, stay overdetermined.

    Takes ceil(max |lambda|) per axis but never more modes than the
    least-squares systems can support, (2M+1)^dim <= point count.
    """
    cap = int((len(raster) ** (1.0 / raster.dim) - 1) // 2)
    return tuple(min(int(np.ceil(a)), max(cap, 1)) for a in raster.max_abs())


def default_grid(modes) -> tuple:
    """Synthesis grid: 4*(2M+1) rounded up to a power of two, per axis."""
    out = []
    for m in np.atleast_1d(modes):
        g = 4 * (2 * int(m) + 1)
        out.append(1 << int(np.ceil(np.log2(g))))
    return tuple(out)


def default_quad_nodes(raster: Raster, modes) -> int:
    reach = float(np.max(raster.max_abs())) + max(modes)
    return max(384, 64 * int(np.ceil(8.0 * reach / 64.0)))


def _recip_window_transform(t, window: WindowSpec, nodes: int):
    """v(t) = int_0^1 exp(2 pi i t x) / w(x) dx on an array of offsets."""
    xq, wq = gauss_legendre_01(nodes)
    vx = wq / window_values(xq, window.sigma)
    return np.exp(2j * np.pi * np.multiply.outer(np.asarray(t, float), xq)) @ vx


def psi_entry_quad(window: WindowSpec, lam, m, nodes: int = 2048) -> complex:
    """Single Psi entry by long quadrature (test oracle)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    out = 1.0 + 0j
    for a in range(len(lam)):
        out *= complex(_recip_window_transform(
            np.array([m[a] - lam[a]]), window, nodes)[0])
    return out


def build_psi(raster: Raster, window: WindowSpec, modes=None,
              quad_nodes: Optional[int] = None) -> np.ndarray:
    """Cross-Gram of data exponentials against windowed modes (P x Q)."""
    modes = _axis_modes(raster, modes)
    if quad_nodes is None:
        quad_nodes = default_quad_nodes(raster, modes)
    factors = []
    for axis in range(raster.dim):
        marr = np.arange(-modes[axis], modes[axis] + 1)
        t = marr[None, :] - raster.coords(axis)[:, None]
        factors.append(_recip_window_transform(t, window, quad_nodes))
    return _kron_modes(factors, mode_axis=1)


def psi_quadrature_drift(raster: Raster, window: WindowSpec, modes,
                         quad_nodes: int, probes: int = 17) -> float:
    """Self-check: max |entry(n) - entry(2n)| over a probe set of offsets."""
    modes = _axis_modes(raster, modes)
    reach = float(np.max(raster.max_abs())) + max(modes)
    t = np.linspace(-reach, reach, probes)
    a = _recip_window_transform(t, window, quad_nodes)
    b = _recip_window_transform(t, window, 2 * quad_nodes)
    return float(np.max(np.abs(a - b)))


def build_omega(raster: Raster, window: WindowSpec, modes=None) -> np.ndarray:
    """Window-spectrum gridding matrix (Q x P), truncated beyond K.

    Entry (m, n) is w_hat(m - lambda_n) per axis, set to exact zero
    where any axis offset exceeds the truncation radius K.
    """
    modes = _axis_modes(raster, modes)
    factors = []
    for axis in range(raster.dim):
        marr = np.arange(-modes[axis], modes[axis] + 1)
        d = marr[:, None] - raster.coords(axis)[None, :]
        f = spectrum_factor(d, window.sigma)
        f[np.abs(d) > window.K] = 0.0
        factors.append(f)
    return _kron_modes(factors, mode_axis=0)


def _kron_modes(factors, mode_axis: int) -> np.ndarray:
    """Tensor-product operator from per-axis factor tables.

    Each table has a point axis and a mode axis (`mode_axis`).  The result
    is their Kronecker product over the mode axis and their entrywise
    product over the shared point axis; modes flatten row-major.
    """
    out = factors[0]
    for f in factors[1:]:
        out = np.expand_dims(out, mode_axis + 1) * np.expand_dims(f, mode_axis)
        out = out.reshape(out.shape[:mode_axis] + (-1,)
                          + out.shape[mode_axis + 2:])
    return out


# ------------------------------------------------------------------- plans

def build_plan(raster: Raster, window: WindowSpec, modes=None,
               methods=METHODS, band: Optional[int] = None,
               quad_nodes: Optional[int] = None,
               rtol: Optional[float] = None, meta: Optional[dict] = None) -> ReconPlan:
    """Assemble every operator the requested methods need, once."""
    methods = tuple(methods)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
    if window.dim != raster.dim:
        raise ConfigError("window/raster dimension mismatch")
    modes = _axis_modes(raster, modes)
    meta = dict(meta or {})
    t0 = time.perf_counter()
    timings = {}

    max_abs = raster.max_abs()
    if np.any(np.array(modes) < np.floor(max_abs)):
        meta["mode_box_warning"] = (
            f"mode box {modes} does not cover data extent {max_abs.round(3)}")

    psi = omega = dvec = bmat = tmat = cmat = None
    if quad_nodes is None:
        quad_nodes = default_quad_nodes(raster, modes)

    needs_psi = bool({"frame", "ftcg"} & set(methods))
    needs_omega = bool({"cg", "ftcg"} & set(methods))
    if needs_psi:
        psi = build_psi(raster, window, modes, quad_nodes)
        timings["psi"] = time.perf_counter() - t0
        drift = psi_quadrature_drift(raster, window, modes, quad_nodes)
        meta["psi_quad_drift"] = drift
        if drift > 1e-8:
            meta["psi_quad_warning"] = (
                f"quadrature drift {drift:.2e} above 1e-8; raise quad_nodes")
    if needs_omega:
        t1 = time.perf_counter()
        omega = build_omega(raster, window, modes)
        timings["omega"] = time.perf_counter() - t1
    if "cg" in methods:
        dvec = density_weights(raster)
    if "frame" in methods:
        t1 = time.perf_counter()
        bmat, info = pseudo_inverse(psi, rtol)
        timings["frame_pinv"] = time.perf_counter() - t1
        meta["psi_pinv"] = info
        meta["kappa_psi"] = info.kappa
    if "ftcg" in methods:
        if band is None:
            band = default_band(len(raster))
        if not 1 <= band <= len(raster):
            raise ConfigError(f"band r={band} outside [1, {len(raster)}]")
        t1 = time.perf_counter()
        tmat = psi @ omega
        cmat, cinfo = pseudo_inverse(band_mask(tmat, band), rtol)
        timings["ftcg_pinv"] = time.perf_counter() - t1
        meta["c_pinv"] = cinfo
        # the retained spectra of the masked system and of its pseudo-
        # inverse are reciprocal, so the two condition numbers coincide
        meta["kappa_masked_t"] = cinfo.kappa
        meta["kappa_c"] = cinfo.kappa
        meta["kept_fraction"] = band_kept_fraction(len(raster), band)
    timings["total"] = time.perf_counter() - t0
    meta["timings"] = timings
    meta["quad_nodes"] = quad_nodes
    for arr in (psi, omega, dvec, bmat, tmat, cmat):
        if arr is not None:
            arr.setflags(write=False)
    return ReconPlan(raster=raster, window=window, modes=modes,
                     methods=methods, band=band,
                     rtol=rtol if rtol is not None else default_rtol(
                         psi.shape if psi is not None else (len(raster),) * 2),
                     psi=psi, omega=omega, dvec=dvec, bmat=bmat,
                     tmat=tmat, cmat=cmat, meta=meta)


# ------------------------------------------------------------ coefficients

def coefficients(plan: ReconPlan, samples: SampleSet,
                 method: Optional[str] = None) -> np.ndarray:
    """Mode coefficients (gamma, beta or tau) for one data vector."""
    if samples.raster_ref != plan.raster_ref:
        raise ConfigError("samples were taken on a different raster")
    if method is None:
        if len(plan.methods) != 1:
            raise ConfigError("plan holds several methods; pass one explicitly")
        method = plan.methods[0]
    if method not in plan.methods:
        raise ConfigError(f"plan was not built for method {method!r}")
    f = samples.values
    if method == "cg":
        return plan.omega @ (plan.dvec * f)
    if method == "frame":
        return plan.bmat @ f
    return plan.omega @ (plan.cmat @ f)


def synthesize(coeffs: np.ndarray, plan: ReconPlan, grid_size=None) -> ImageGrid:
    """Evaluate sum_m c_m e^{2 pi i <m,x>} / w(x) on the output grid."""
    g = _grid_tuple(grid_size, plan.modes)
    return ImageGrid(values=_synthesize_modes(coeffs, plan.modes, g, plan.window),
                     grid_size=g, plan_ref=plan.raster_ref)


def _grid_tuple(grid_size, modes) -> tuple:
    if grid_size is None:
        return default_grid(modes)
    if np.isscalar(grid_size):
        g = (int(grid_size),) * len(modes)
    else:
        g = tuple(int(v) for v in grid_size)
    for gi, m in zip(g, modes):
        if gi < 2 * m + 1:
            raise ConfigError(f"grid {gi} < 2M+1 = {2 * m + 1}: synthesis "
                              "would alias")
    return g


def _synthesize_modes(coeffs, modes, grid, window: WindowSpec) -> np.ndarray:
    shape = tuple(2 * m + 1 for m in modes)
    arr = np.zeros(grid, dtype=complex)
    arr[np.ix_(*[np.arange(-m, m + 1) % g for m, g in zip(modes, grid)])] = \
        np.asarray(coeffs, dtype=complex).reshape(shape)
    img = np.fft.ifftn(arr) * np.prod(grid)
    return img / _outer([window_values(np.arange(g) / g, window.sigma)
                         for g in grid])


def reconstruct(method: str, samples: SampleSet, plan: ReconPlan,
                grid_size=None) -> ImageGrid:
    """coefficients + synthesize, tagged with the method."""
    c = coefficients(plan, samples, method)
    img = synthesize(c, plan, grid_size)
    return ImageGrid(values=img.values, grid_size=img.grid_size,
                     method=method, plan_ref=plan.raster_ref)


# ------------------------------------------------------------- references

def windowed_coefficients(scene: Scene, window: WindowSpec, modes) -> np.ndarray:
    """Exact [0,1] Fourier coefficients of f*w on the mode lattice.

    Trig scenes convolve their coefficient dict with the exact window
    coefficients; pixel scenes are integrated panel by panel.
    """
    modes = tuple(int(m) for m in np.atleast_1d(modes))
    axes = [np.arange(-m, m + 1).astype(float) for m in modes]
    if scene.kind in ("paper_test_fn", "trig_poly"):
        out = np.zeros(tuple(a.size for a in axes), dtype=complex)
        for k, c in scene.coefficients.items():
            out += c * _outer([window_coefficient(a - ka, window.sigma)
                               for a, ka in zip(axes, np.atleast_1d(k))])
        return out.ravel()
    # pixel scenes: per-pixel Gauss-Legendre panels, exact on constants
    rule = _panel_rule(scene.pixels.shape)
    nodes = [x for x, _ in rule]
    fx = (_scene_lattice(scene, nodes)
          * _outer([window_values(x, window.sigma) for x in nodes])
          * _outer([w for _, w in rule]))
    # contract one axis at a time; moving the new mode axis last brings
    # the next node axis to the front
    for a, x in zip(axes, nodes):
        ker = np.exp(-2j * np.pi * np.multiply.outer(a, x))
        fx = np.moveaxis(ker @ fx, 0, -1)
    return fx.ravel()


def reference_image(scene: Scene, window: WindowSpec, modes,
                    grid_size=None) -> ImageGrid:
    """Windowed Fourier partial sum of the scene: S_M[f w] / w.

    This is the yardstick every PSNR and error metric compares against;
    it shares the mode truncation and window division of the estimators
    so those do not register as reconstruction error.
    """
    modes = tuple(int(m) for m in np.atleast_1d(modes))
    g = _grid_tuple(grid_size, modes)
    c = windowed_coefficients(scene, window, modes)
    return ImageGrid(values=_synthesize_modes(c, modes, g, window),
                     grid_size=g, method="reference")


def scene_image(scene: Scene, grid_size, dim: int) -> ImageGrid:
    g = (int(grid_size),) * dim if np.isscalar(grid_size) \
        else tuple(int(v) for v in grid_size)
    vals = _scene_lattice(scene, [np.arange(n) / n for n in g])
    return ImageGrid(values=np.asarray(vals, dtype=complex), grid_size=g,
                     method="scene")


# ---------------------------------------------------------- admissibility

def admissibility_slope(window: WindowSpec, n_extent: int,
                        nodes: int = 768) -> float:
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


# ------------------------------------------------------------------- files

def save_image_csv(img: ImageGrid, path) -> None:
    """Real/imag parts side by side, one grid row per line."""
    vals = np.atleast_2d(img.values)
    stacked = np.hstack([vals.real, vals.imag])
    np.savetxt(path, stacked, delimiter=",", fmt="%.17g",
               header=f"gridfr-image v1, shape={'x'.join(map(str, img.grid_size))}, "
                      f"method={img.method}")


def load_image_csv(path) -> ImageGrid:
    with open(path) as fh:
        header = fh.readline()
        if "gridfr-image v1" not in header:
            raise ConfigError(f"{path}: not a gridfr image CSV")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    half = data.shape[1] // 2
    vals = data[:, :half] + 1j * data[:, half:]
    if vals.shape[0] == 1:
        vals = vals[0]
        shape = (vals.shape[0],)
    else:
        shape = vals.shape
    return ImageGrid(values=vals, grid_size=shape, method="file")


def save_pgm(values: np.ndarray, path, peak: Optional[float] = None,
             bits: int = 8) -> None:
    """Portable graymap of |values| normalized to `peak` (default: max)."""
    mag = np.abs(np.atleast_2d(np.asarray(values)))
    if peak is None or peak <= 0:
        peak = float(mag.max()) or 1.0
    maxval = 255 if bits == 8 else 65535
    img = np.clip(mag / peak, 0.0, 1.0) * maxval
    img = img.astype(">u1" if bits == 8 else ">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode())
        fh.write(img.tobytes())
