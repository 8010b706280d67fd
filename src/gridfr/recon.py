"""The three estimators: convolutional gridding, frame approximation, FTCG.

All three synthesize an image from mode coefficients c as

    image(x) = sum_{|m| <= M} c_m exp(2 pi i <m, x>) / w(x)

on a uniform grid, one axis at a time: image = S_1 C S_2^T with C the
coefficients as a (2M_1+1) x (2M_2+1) array and S_a[g, m] =
e^{2 pi i g m / G_a} / w(g / G_a) a per-axis DFT matrix that carries the
window division (cached per M, G and sigma).  They differ in how the
coefficients come out of the scattered Fourier data f_hat(lambda_n):

* gridding (cg):   gamma = Omega W f_hat, W diagonal density weights;
* frame:           beta  = Psi^+ f_hat, Psi's truncated pseudo-inverse;
* ftcg:            tau   = Omega (T o M)^+ f_hat, T = Psi Omega and M
                   the band mask.

Matrix conventions (P raster points, Q modes, row-major flattening of
the 2D mode lattice):

    Psi[n, m]   = int_[0,1]^d exp(2 pi i <m - lambda_n, x>) / w(x) dx     (P x Q)
    Omega[m, n] = w_hat(m - lambda_n), zero beyond the truncation radius (Q x P)

so T is P x P and a full band makes FTCG collapse onto the frame solve.
Window and quadrature rule are symmetric about 1/2, so Psi = D A E,
Omega = E G D^H and T o M = D (R o M) D^H with A, G and R = A G real,
D = diag(d), d_n = e^{-i pi sum_a lambda_{n,a}}, and E = diag(e),
e_m = (-1)^{sum_a m_a}.  Entries separate across axes: A[n, m] =
prod_a A_a[n, m_a] and G[m, n] = prod_a G_a[m_a, n], with real per-axis
tables A_a (P x (2M_a+1), `build_psi`) and G_a ((2M_a+1) x P,
`build_omega`).  A plan holds the tables, d, e and the real inverses,
and `coefficients` applies each estimator as e times a real operator on
w = conj(d) f_hat, taking w's real and imaginary parts in turn:

    gamma = e o G (W w),   beta = e o A^+ w,   tau = e o G (R o M)^+ w.

Only the frame solve forms the dense A; `_apply_omega` applies G one
axis at a time, and `t_matrix` forms R = (A_1 G_1) o (A_2 G_2) entrywise.
The inverses come from `numerics.pseudo_inverse` (QR, LU, deflated LU
or the truncated SVD, as its docstring says).  The phases change no
singular value, so `meta["psi_pinv"]` and `meta["c_pinv"]` hold Psi's
and the masked T's ranks and singular values (bounds, except after the
SVD) and name the factorization that ran.

Note the sign in Psi: the exponent uses m - lambda_n *inside* a forward
kernel, equivalently the inner product is taken conjugate-linear in the
first slot.  With the opposite (textbook-first-slot-linear) convention
the least-squares solve reconstructs phase-corrupted garbage; the
choice here is fixed by requiring gamma = beta at full band and by the
reconstruction quality gates in the test suite.
"""

from __future__ import annotations

import functools
import logging
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, FormatError
from .numerics import (all_finite, band_mask, band_pairs, default_band,
                       density_weights, pseudo_inverse)
from .raster import Raster, read_rows
from .sampling import SampleSet, Scene, _outer, _panel_rule, _scene_lattice
from .window import (WindowSpec, gauss_legendre_01, spectrum_magnitude,
                     truncation_radius, window_coefficient, window_values)

METHODS = ("cg", "frame", "ftcg")
_log = logging.getLogger("gridfr")


@dataclass(frozen=True, eq=False)
class ReconPlan:
    """Precomputed operators for a fixed raster/window/mode box.

    Immutable after construction (`build_plan` marks its arrays
    read-only); reusable for any SampleSet taken on the same raster.
    Plans compare and hash by identity.  It holds only real operators
    and the phases (see the module docstring): `psi_axes` the tables A_a,
    `omega_axes` the tables G_a = |O_a|, `phases` the diagonals (d, e) of
    D and E, `dvec` cg's density weights, `bmat` = A^+ (Q x P) and
    `cmat` = (R o M)^+ (P x P).  Every array but d is float64;
    `coefficients` applies D^H to the data vector and E to the result.
    `psi`, `omega` and `tmat` are always None, and `t_matrix` forms R
    from the tables (|T| = |R| entrywise).
    `rtol` is the threshold requested of both pseudo-inverses; None lets
    each use `default_rtol` of its own shape, and the applied values are
    in `meta["psi_pinv"].rtol` and `meta["c_pinv"].rtol`.  `meta`
    carries build timings (seconds per stage: psi, drift, omega,
    density, frame_pinv, ftcg_pinv, for the stages the methods need, and
    their enclosing total; frame_pinv includes forming A, ftcg_pinv
    forming R), retained-rank info, any raster rescale transform,
    quadrature self-check drift and the warnings `build_plan` logs.
    """

    raster: Raster
    window: WindowSpec
    modes: tuple                 # per-axis half-extent M
    methods: tuple
    band: Optional[int] = None
    rtol: Optional[float] = None
    psi_axes: Optional[tuple] = None       # frame, ftcg: per-axis A_a
    omega_axes: Optional[tuple] = None     # cg, ftcg: per-axis G_a
    phases: Optional[tuple] = None         # (d, e): diagonals of D and E
    dvec: Optional[np.ndarray] = None      # cg diagonal weights
    bmat: Optional[np.ndarray] = None      # frame: pinv(A)
    cmat: Optional[np.ndarray] = None      # ftcg: pinv(R o M)
    meta: dict = field(default_factory=dict)

    psi = omega = tmat = property(lambda self: None)

    @property
    def raster_ref(self) -> str:
        return self.raster.raster_id


@dataclass(frozen=True)
class ImageGrid:
    """Complex image on the uniform grid x_g = g/G over [0,1)^d."""

    values: np.ndarray
    grid_size: tuple
    method: str = ""
    plan_ref: Optional[str] = None

    def __post_init__(self):
        vals = np.asarray(self.values)
        if not all_finite(vals):
            raise ConfigError("non-finite image values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # the values are read-only, so their reductions are taken once per
    # image, however many metrics use it as a reference
    @functools.cached_property
    def peak(self) -> float:
        """max |values|."""
        return float(np.abs(self.values).max())

    @functools.cached_property
    def norm(self) -> float:
        """The 2-norm of the values, flattened."""
        return float(np.linalg.norm(self.values))


# ---------------------------------------------------------------- operators

def _axis_sizes(value, dim: int, what: str) -> tuple:
    """`dim` non-negative integers from `value`, one for every axis or a
    list of one per axis; ConfigError naming `what` otherwise."""
    sizes = tuple(value) if np.iterable(value) else (value,) * dim
    if len(sizes) != dim or not all(isinstance(s, numbers.Integral)
                                    and s >= 0 for s in sizes):
        raise ConfigError(f"{what} must be one non-negative integer or a "
                          f"list of {dim}, got {value!r}")
    return tuple(int(s) for s in sizes)


def _axis_modes(raster: Raster, modes) -> tuple:
    if modes is None:
        return default_modes(raster)
    return _axis_sizes(modes, raster.dim, "modes")


def default_modes(raster: Raster) -> tuple:
    """Per-axis mode half-extent: cover the data, stay overdetermined.

    Takes ceil(max |lambda|) per axis but never more modes than the
    least-squares systems can support, (2M+1)^dim <= point count.
    """
    cap = int((len(raster) ** (1.0 / raster.dim) - 1) // 2)
    return tuple(min(int(np.ceil(a)), max(cap, 1)) for a in raster.max_abs())


def default_grid(modes) -> tuple:
    """Synthesis grid: 4*(2M+1) rounded up to a power of two, per axis."""
    return tuple(1 << int(np.ceil(np.log2(4 * (2 * m + 1)))) for m in modes)


def default_quad_nodes(raster: Raster, modes) -> int:
    reach = float(np.max(raster.max_abs())) + max(modes)
    return max(384, 64 * int(np.ceil(8.0 * reach / 64.0)))


def _half_rule_sums(lam, m: int, sigma: float, nodes: int) -> np.ndarray:
    """A[n, k] = sum_q 2 v_q cos(2 pi (k - lam_n) u_q), k = -m..m, over the
    upper half u_q = x_q - 1/2 >= 0 of the Gauss-Legendre rule, v_q =
    w_q / w(x_q), the centre node of an odd rule counted once.  Rule and
    window are symmetric about 1/2, so this is the rule's sum of
    e^{2 pi i (k - lam) x} / w(x) times e^{-i pi (k - lam)}.  Two real GEMMs
    (cos.cos + sin.sin), from k = 0..m: cos is even and sin odd in k."""
    xq, wq = (a[nodes // 2:] for a in gauss_legendre_01(nodes))
    u = 2.0 * np.pi * (xq - 0.5)
    v = 2.0 * wq / window_values(xq, sigma)
    if nodes % 2:
        v[0] /= 2.0
    lu, ku = np.multiply.outer(lam, u), np.multiply.outer(np.arange(m + 1), u)
    c, s = v * np.cos(ku), v * np.sin(ku)
    out = np.cos(lu) @ np.vstack([c[:0:-1], c]).T
    if m:       # else the sine terms vanish
        out += np.sin(lu) @ np.vstack([-s[:0:-1], s]).T
    return out


def build_psi(raster: Raster, window: WindowSpec, modes=None,
              quad_nodes: Optional[int] = None) -> tuple:
    """Per-axis real factors of the cross-Gram Psi (P x Q) of data
    exponentials against windowed modes: one P x (2M_a+1) table A_a per
    axis, the Gauss-Legendre sum Psi_a[n, m] of e^{2 pi i (m - lambda) x} /
    w(x) at lambda = lambda_{n,a} taken in real arithmetic over half the
    rule (`_half_rule_sums`): Psi_a[n, m] = e^{i pi (m - lambda_{n,a})}
    A_a[n, m] and Psi[n, m] = prod_a Psi_a[n, m_a]."""
    modes = _axis_modes(raster, modes)
    if quad_nodes is None:
        quad_nodes = default_quad_nodes(raster, modes)
    return tuple(_half_rule_sums(raster.coords(axis), m, window.sigma,
                                 quad_nodes) for axis, m in enumerate(modes))


def psi_quadrature_drift(raster: Raster, window: WindowSpec, modes,
                         quad_nodes: int) -> float:
    """Self-check: max |A(t) on n nodes - A(t) on 2n| over 17 offsets t
    spread evenly across the reach of the data and the mode box, with A
    the half-rule sum; a Psi entry is A times a unit-modulus phase."""
    modes = _axis_modes(raster, modes)
    reach = float(np.max(raster.max_abs())) + max(modes)
    t = np.linspace(-reach, reach, 17)
    a, b = (_half_rule_sums(t, 0, window.sigma, n)
            for n in (quad_nodes, 2 * quad_nodes))
    return float(np.max(np.abs(a - b)))


def build_omega(raster: Raster, window: WindowSpec, modes=None) -> tuple:
    """Per-axis real factors of the window-spectrum gridding matrix Omega
    (Q x P): table a is (2M_a+1) x P with entry (m, n) = |w_hat(m -
    lambda_{n,a})|, exact zero beyond the truncation radius K, so
    Omega[m, n] = prod_a e^{-i pi (m_a - lambda_{n,a})} G_a[m_a, n]."""
    modes = _axis_modes(raster, modes)
    factors = []
    for axis, m in enumerate(modes):
        d = np.arange(-m, m + 1)[:, None] - raster.coords(axis)[None, :]
        f = spectrum_magnitude(d, window.sigma)
        f[np.abs(d) > window.K] = 0.0
        factors.append(f)
    return tuple(factors)


def _kron_rows(factors) -> np.ndarray:
    """Dense P x Q operator from per-axis P x (2M_a+1) tables: the Kronecker
    product over the mode axes, entrywise over the shared point axis, with
    modes flattened row-major."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, :, None] * f[:, None, :]).reshape(len(out), -1)
    return out


def _apply_omega(tables, v) -> np.ndarray:
    """The Kronecker product of per-axis (2M_a+1) x P tables applied to the
    P-vector v, one axis at a time."""
    if len(tables) == 1:
        return tables[0] @ v
    o1, o2 = tables
    return ((o1 * v) @ o2.T).ravel()


def t_matrix(psi_axes, omega_axes) -> np.ndarray:
    """The dense R = A G (P x P) from a plan's per-axis tables: the
    entrywise product over axes of the P x P products A_a G_a.  Given
    the phased tables Psi_a and O_a instead, it forms T = D R D^H."""
    out = psi_axes[0] @ omega_axes[0]
    for p, o in zip(psi_axes[1:], omega_axes[1:]):
        out *= p @ o
    return out


def _diagonal_phases(raster: Raster, modes) -> tuple:
    """The diagonals of D (P) and E (Q) in Psi = D A E: e^{-i pi sum_a
    lambda_{n,a}} per point and (-1)^{sum_a m_a} per mode, row-major."""
    d = np.exp(-1j * np.pi * raster.points.reshape(len(raster), -1).sum(axis=1))
    e = _kron_rows([1.0 - 2.0 * (np.arange(-m, m + 1)[None, :] % 2)
                    for m in modes])[0]
    return d, e


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
        if methods.count(m) > 1:
            raise ConfigError(f"methods lists {m!r} more than once")
    if window.dim != raster.dim:
        raise ConfigError("window/raster dimension mismatch")
    if "ftcg" in methods:
        if band is None:
            band = default_band(len(raster))
        kept = band_pairs(len(raster), band)[0].size    # checks the band
    modes = _axis_modes(raster, modes)
    meta = dict(meta or {})
    t0 = time.perf_counter()
    timings = {}

    def stage(key, fn, *args):
        t1 = time.perf_counter()
        out = fn(*args)
        timings[key] = time.perf_counter() - t1
        return out

    max_abs = raster.max_abs()
    if np.any(np.array(modes) < np.floor(max_abs)):
        meta["mode_box_warning"] = (
            f"mode box {modes} does not cover data extent "
            f"{tuple(round(float(v), 3) for v in max_abs)}")
        _log.warning(meta["mode_box_warning"])

    psi_axes = omega_axes = dvec = bmat = cmat = None
    if quad_nodes is None:
        quad_nodes = default_quad_nodes(raster, modes)
    elif quad_nodes < 1:
        raise ConfigError(f"quad_nodes must be at least 1, got {quad_nodes}")

    if {"frame", "ftcg"} & set(methods):
        psi_axes = stage("psi", build_psi, raster, window, modes, quad_nodes)
        drift = stage("drift", psi_quadrature_drift, raster, window, modes,
                      quad_nodes)
        meta["psi_quad_drift"] = drift
        if drift > 1e-8:
            meta["psi_quad_warning"] = (
                f"quadrature drift {drift:.2e} above 1e-8; raise quad_nodes")
            _log.warning(meta["psi_quad_warning"])
    if {"cg", "ftcg"} & set(methods):
        omega_axes = stage("omega", build_omega, raster, window, modes)
    if "cg" in methods:
        dvec = stage("density", density_weights, raster)
    # the real A and R o M are inverted; `coefficients` applies the phases.
    # C before B: the masked R's inversion needs the most memory, so it
    # runs while neither B nor the dense A is held, nor R once masked
    if "ftcg" in methods:
        cmat, cinfo = stage("ftcg_pinv", lambda: pseudo_inverse(
            band_mask(t_matrix(psi_axes, omega_axes), band), rtol))
        meta["c_pinv"] = cinfo
        # the retained spectra of the masked system and of its pseudo-
        # inverse are reciprocal, so the two condition numbers coincide
        meta["kappa_masked_t"] = cinfo.kappa
        meta["kappa_c"] = cinfo.kappa
        meta["kept_fraction"] = kept / len(raster) ** 2
    if "frame" in methods:
        bmat, info = stage("frame_pinv", lambda: pseudo_inverse(
            _kron_rows(psi_axes), rtol))
        meta["psi_pinv"] = info
        meta["kappa_psi"] = info.kappa
    timings["total"] = time.perf_counter() - t0
    meta["timings"] = timings
    meta["quad_nodes"] = quad_nodes
    phases = _diagonal_phases(raster, modes)
    for arr in (dvec, bmat, cmat, *phases, *(psi_axes or ()),
                *(omega_axes or ())):
        if arr is not None:
            arr.setflags(write=False)
    return ReconPlan(raster=raster, window=window, modes=modes,
                     methods=methods, band=band, rtol=rtol, psi_axes=psi_axes,
                     omega_axes=omega_axes, phases=phases, dvec=dvec,
                     bmat=bmat, cmat=cmat, meta=meta)


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
    d, e = plan.phases
    # the real operators take w = D^H f one part at a time: numpy would
    # cast them to complex temporaries to multiply a complex vector
    w = d.conj() * samples.values
    parts = (w.real, w.imag)
    if method == "cg":
        re, im = (_apply_omega(plan.omega_axes, plan.dvec * v) for v in parts)
    elif method == "frame":
        re, im = _real_matvecs(plan.bmat, parts)
    else:
        re, im = (_apply_omega(plan.omega_axes, v)
                  for v in _real_matvecs(plan.cmat, parts))
    return e * (re + 1j * im)


def _real_matvecs(x: np.ndarray, parts) -> list:
    """x @ v for each real vector v in `parts`: one GEMM over them up to
    500,000 entries, else one GEMV each.  With OpenBLAS on 2 cores, two
    GEMVs on a 625 x 625 x ran on one core (0.32 ms; GEMM 0.15 ms), and
    the GEMM packs a 900 x 900 x first (0.52 ms; GEMVs 0.36 ms).  In
    the benchmark's apply op (the three preset plans, all estimators,
    scored), taking the GEMM at 900 x 900 too made the op slower on the
    same 2 cores: 5.25 -> 6.59 ms (medians of three alternated rounds of
    1,500 ops)."""
    if x.size <= 500_000:
        return list((x @ np.column_stack(parts)).T)
    return [x @ v for v in parts]


def synthesize(coeffs: np.ndarray, plan: ReconPlan, grid_size=None,
               method: str = "") -> ImageGrid:
    """Evaluate sum_m c_m e^{2 pi i <m,x>} / w(x) on the output grid."""
    g = _grid_tuple(grid_size, plan.modes)
    return ImageGrid(values=_synthesize_modes(coeffs, plan.modes, g, plan.window),
                     grid_size=g, method=method, plan_ref=plan.raster_ref)


def _grid_tuple(grid_size, modes) -> tuple:
    if grid_size is None:
        return default_grid(modes)
    g = _axis_sizes(grid_size, len(modes), "grid_size")
    for gi, m in zip(g, modes):
        if gi < 2 * m + 1:
            raise ConfigError(f"grid {gi} < 2M+1 = {2 * m + 1}: synthesis "
                              "would alias")
    return g


@functools.lru_cache(maxsize=32)
def _synthesis_matrix(m: int, g: int, sigma: float) -> np.ndarray:
    """One axis of synthesis, S[x, k] = e^{2 pi i x k / g} / w(x / g) for
    x = 0..g-1 and k = -m..m (g x 2m+1, read-only)."""
    x = np.arange(g)
    phase = np.multiply.outer(x, np.arange(-m, m + 1)) % g / g
    s = np.exp(2j * np.pi * phase) / window_values(x / g, sigma)[:, None]
    s.setflags(write=False)
    return s


def _synthesize_modes(coeffs, modes, grid, window: WindowSpec) -> np.ndarray:
    """S_1 C S_2^T, G(2M+1)(2M+1+G) complex multiply-adds on a G x G grid
    with 2M+1 modes per axis (G(2M+1) in 1D)."""
    s = [_synthesis_matrix(m, g, window.sigma) for m, g in zip(modes, grid)]
    c = np.asarray(coeffs, dtype=complex).reshape(tuple(2 * m + 1
                                                        for m in modes))
    return s[0] @ c if len(s) == 1 else s[0] @ c @ s[1].T


def reconstruct(method: str, samples: SampleSet, plan: ReconPlan,
                grid_size=None) -> ImageGrid:
    """coefficients + synthesize, tagged with the method."""
    c = coefficients(plan, samples, method)
    return synthesize(c, plan, grid_size, method)


# ------------------------------------------------------------- references

def windowed_coefficients(scene: Scene, window: WindowSpec, modes) -> np.ndarray:
    """Exact [0,1] Fourier coefficients of f*w on the mode lattice.

    Trig scenes convolve their coefficient dict with the exact window
    coefficients; pixel scenes are integrated panel by panel, with panels
    sized for the highest mode plus the window's bandwidth (the frequency
    where its spectrum falls below double precision).
    """
    modes = _axis_sizes(modes, scene.dim, "modes")
    axes = [np.arange(-m, m + 1).astype(float) for m in modes]
    if scene.kind in ("paper_test_fn", "trig_poly"):
        out = np.zeros(tuple(a.size for a in axes), dtype=complex)
        for k, c in scene.coefficients.items():
            out += c * _outer([window_coefficient(a - ka, window.sigma)
                               for a, ka in zip(axes, np.atleast_1d(k))])
        return out.ravel()
    reach = max(modes) + truncation_radius(window.sigma, 1e-16)
    rule = _panel_rule(scene.pixels.shape, reach)
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
    modes = _axis_sizes(modes, scene.dim, "modes")
    g = _grid_tuple(grid_size, modes)
    c = windowed_coefficients(scene, window, modes)
    return ImageGrid(values=_synthesize_modes(c, modes, g, window),
                     grid_size=g, method="reference")


def scene_image(scene: Scene, grid_size, dim: int) -> ImageGrid:
    g = _axis_sizes(grid_size, dim, "grid_size")
    vals = _scene_lattice(scene, [np.arange(n) / n for n in g])
    return ImageGrid(values=np.asarray(vals, dtype=complex), grid_size=g,
                     method="scene")


# ------------------------------------------------------------------- files

def save_image_csv(img: ImageGrid, path) -> None:
    """Real/imag parts side by side, one grid row per line; `path` may
    also be an open text stream."""
    vals = np.atleast_2d(img.values)
    stacked = np.hstack([vals.real, vals.imag])
    np.savetxt(path, stacked, delimiter=",", fmt="%.17g",
               header=f"gridfr-image v1, shape={'x'.join(map(str, img.grid_size))}, "
                      f"method={img.method}")


def _image_shape(path, fields: dict) -> tuple:
    """The grid shape in an image file's header fields."""
    try:
        shape = tuple(int(v) for v in fields["shape"].split("x"))
    except (KeyError, ValueError):
        raise FormatError(f"{path}: line 1: missing/invalid shape")
    if len(shape) not in (1, 2) or min(shape) < 1:
        raise FormatError(f"{path}: line 1: invalid shape {shape}")
    return shape


def load_image_csv(path) -> ImageGrid:
    """Parse `save_image_csv`'s format; FormatError carries the offending
    line number."""
    fields, data = read_rows(path, "image",
                             lambda f: 2 * _image_shape(path, f)[-1])
    shape = _image_shape(path, fields)
    if len(data) != (shape[0] if len(shape) == 2 else 1):
        raise FormatError(f"{path}: line 1: shape {fields['shape']} does "
                          f"not match the {len(data)} rows below")
    # assigned, not summed: re + 1j * im turns a real part of -0 into +0
    vals = np.empty(shape, dtype=complex)
    vals.real, vals.imag = np.hsplit(data, 2)
    return ImageGrid(values=vals, grid_size=shape, method="file")


def save_pgm(values: np.ndarray, path, peak: Optional[float] = None) -> None:
    """8-bit graymap (PGM) of |values| normalized to `peak` (default: max),
    each pixel at the nearest of the 256 levels."""
    mag = np.abs(np.atleast_2d(np.asarray(values)))
    if peak is None or peak <= 0:
        peak = float(mag.max()) or 1.0
    mag /= peak         # in place: |T| is P x P in tmatrix.pgm
    np.clip(mag, 0.0, 1.0, out=mag)
    mag *= 255
    img = np.rint(mag, out=mag).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())
