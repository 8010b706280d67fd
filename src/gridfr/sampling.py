"""Fourier data for test scenes: closed forms, a quadrature oracle, noise.

Scenes live on [0, 1]^d and are implicitly 1-periodic; their Fourier
data at a (generally non-integer) wavenumber lambda is

    f_hat(lambda) = int_{[0,1]^d} f(x) exp(-2 pi i <lambda, x>) dx.

Closed forms are available for trigonometric polynomials (including the
sine product test function) and rest on

    E(theta) = int_0^1 e^{i theta x} dx = (e^{i theta} - 1)/(i theta),

so that a pure mode k leaks into non-integer lambda as E(2 pi (k - lambda)).
The quadrature path exists as an independent cross-check and for pixel
scenes, where per-pixel Gauss-Legendre panels integrate the piecewise
constant profile exactly.

Sample CSV format::

    # gridfr-samples v1, raster=<id>
    kx[,ky],re,im
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, FormatError
from .raster import Raster
from .window import gauss_legendre_01

_HEADER_PREFIX = "# gridfr-samples v1"

SCENE_KINDS = ("paper_test_fn", "trig_poly", "grid_image")


@dataclass(frozen=True)
class Scene:
    """Test scene: the 2D sine product, a trig polynomial, or a pixel grid."""

    kind: str
    dim: int
    coefficients: Optional[dict] = None     # trig_poly: {k or (k1,k2): complex}
    pixels: Optional[np.ndarray] = None     # grid_image: cell values

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ConfigError(f"unknown scene kind {self.kind!r}")
        if self.kind == "trig_poly" and not self.coefficients:
            raise ConfigError("trig_poly scene needs coefficients")
        if self.kind == "grid_image":
            if self.pixels is None or not np.all(np.isfinite(self.pixels)):
                raise ConfigError("grid_image scene needs finite pixel values")

    def bandwidth(self) -> float:
        if self.kind == "paper_test_fn":
            return 2.0
        if self.kind == "trig_poly":
            return max(float(np.max(np.abs(k))) for k in self.coefficients)
        return max(np.shape(self.pixels)) / 2.0


def paper_test_scene() -> Scene:
    """f(x) = sin(4 pi x1) sin(2 pi x2) as a 4-coefficient trig polynomial."""
    c = {(2, 1): -0.25 + 0j, (-2, -1): -0.25 + 0j,
         (2, -1): 0.25 + 0j, (-2, 1): 0.25 + 0j}
    return Scene(kind="paper_test_fn", dim=2, coefficients=c)


def sine_scene() -> Scene:
    """1D analog of the test function: f(x) = sin(4 pi x)."""
    return Scene(kind="trig_poly", dim=1,
                 coefficients={2: -0.5j, -2: 0.5j})


def trig_poly_scene(coefficients: dict, dim: int) -> Scene:
    return Scene(kind="trig_poly", dim=dim, coefficients=dict(coefficients))


def grid_image_scene(pixels, dim: int) -> Scene:
    arr = np.asarray(pixels, dtype=float)
    if dim == 1:
        arr = arr.reshape(-1)
    return Scene(kind="grid_image", dim=dim, pixels=arr)


def boxcar_scene(lo: float = 0.25, hi: float = 0.75, npix: int = 64) -> Scene:
    """1D indicator of [lo, hi) sampled onto npix equal cells."""
    edges = np.arange(npix) / npix
    return grid_image_scene(((edges >= lo) & (edges < hi)).astype(float), dim=1)


@dataclass(frozen=True)
class SampleSet:
    """Complex Fourier data bound (by id) to the raster that produced it."""

    raster_ref: str
    values: np.ndarray
    provenance: str = "analytic"    # analytic | quadrature | file
    noise_seed: Optional[int] = None
    warnings: tuple = field(default_factory=tuple)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)


def _E(theta):
    """int_0^1 e^{i theta x} dx, elementwise, stable at theta = 0."""
    theta = np.asarray(theta, dtype=float)
    out = np.ones(theta.shape, dtype=complex)
    nz = np.abs(theta) > 1e-14
    out[nz] = (np.exp(1j * theta[nz]) - 1.0) / (1j * theta[nz])
    return out


def _trig_values(scene: Scene, raster: Raster) -> np.ndarray:
    out = np.zeros(len(raster), dtype=complex)
    for k, c in scene.coefficients.items():
        term = c
        for axis, ka in enumerate(np.atleast_1d(k)):
            term = term * _E(2.0 * np.pi * (ka - raster.coords(axis)))
        out += term
    return out


def analytic_coeffs(scene: Scene, raster: Raster) -> SampleSet:
    """Closed-form Fourier data; pixel scenes must go through quadrature."""
    if scene.kind == "grid_image":
        raise ConfigError("grid_image scenes have no closed form; "
                          "use quadrature_coeffs")
    if scene.dim != raster.dim:
        raise ConfigError(f"scene is {scene.dim}D but raster is {raster.dim}D")
    return SampleSet(raster_ref=raster.raster_id,
                     values=_trig_values(scene, raster), provenance="analytic")


def scene_eval(scene: Scene, x) -> np.ndarray:
    """Evaluate the scene pointwise (x last axis = coordinates in 2D)."""
    x = np.asarray(x, dtype=float)
    xs = [x] if scene.dim == 1 else [x[..., a] for a in range(scene.dim)]
    if scene.kind in ("paper_test_fn", "trig_poly"):
        out = np.zeros(xs[0].shape, dtype=complex)
        for k, c in scene.coefficients.items():
            phase = functools.reduce(np.add, [2j * np.pi * ka * xa for ka, xa
                                              in zip(np.atleast_1d(k), xs)])
            out += c * np.exp(phase)
        return out.real if _is_real_scene(scene) else out
    return scene.pixels[tuple(np.clip((xa * n).astype(int), 0, n - 1)
                              for xa, n in zip(xs, scene.pixels.shape))]


def _is_real_scene(scene: Scene) -> bool:
    if scene.kind == "grid_image":
        return True
    for k, c in scene.coefficients.items():
        neg = tuple(-x for x in k) if isinstance(k, tuple) else -k
        conj = scene.coefficients.get(neg)
        if conj is None or abs(np.conj(conj) - c) > 1e-12:
            return False
    return True


def quadrature_coeffs(scene: Scene, raster: Raster,
                      nodes_per_axis: int = 256) -> SampleSet:
    """Brute-force quadrature of the Fourier integral (oracle path).

    Smooth scenes use a single Gauss-Legendre rule with nodes_per_axis
    nodes; pixel scenes use a 4-node panel per pixel, which integrates
    the piecewise-constant profile exactly.  A too-small node budget is
    flagged on the SampleSet rather than raised.
    """
    if scene.dim != raster.dim:
        raise ConfigError(f"scene is {scene.dim}D but raster is {raster.dim}D")
    warnings = ()
    needed = 4.0 * (float(np.max(raster.max_abs())) + scene.bandwidth())
    if nodes_per_axis < needed:
        warnings = (f"nodes_per_axis={nodes_per_axis} below recommended "
                    f"{int(np.ceil(needed))}",)

    if scene.kind == "grid_image":
        rule = _panel_rule(scene.pixels.shape)
    else:
        rule = [gauss_legendre_01(int(nodes_per_axis))] * scene.dim
    nodes = [x for x, _ in rule]
    fx = _outer([w for _, w in rule]) * _scene_lattice(scene, nodes)
    kernels = [np.exp(-2j * np.pi * np.multiply.outer(raster.coords(axis), x))
               for axis, x in enumerate(nodes)]
    # sum over the first axis's nodes by a product, the others point by point
    vals = kernels[0] @ fx
    for ker in kernels[1:]:
        vals = np.einsum("pa...,pa->p...", vals, ker)
    return SampleSet(raster_ref=raster.raster_id, values=vals,
                     provenance="quadrature", warnings=warnings)


def _outer(vectors):
    """Tensor (outer) product of per-axis vectors, axis 0 first."""
    return functools.reduce(np.multiply.outer, vectors)


def _scene_lattice(scene: Scene, axes) -> np.ndarray:
    """Scene values on the tensor lattice of per-axis coordinates.

    The result has one array axis per scene axis.  A 1D scene sees the
    trailing length-1 coordinate axis as one more array axis, which the
    final reshape drops.
    """
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return scene_eval(scene, pts).reshape(pts.shape[:-1])


def _panel_rule(shape, per_pixel: int = 4):
    """Composite GL nodes/weights with per-pixel panels, one pair per axis."""
    xq, wq = gauss_legendre_01(per_pixel)
    rule = []
    for npix in shape:
        starts = np.arange(npix) / npix
        rule.append(((starts[:, None] + xq[None, :] / npix).ravel(),
                     np.tile(wq / npix, npix)))
    return rule


def add_noise(samples: SampleSet, snr_db: float, seed: int) -> SampleSet:
    """Add circular complex Gaussian noise at the given SNR (dB).

    snr_db = +inf returns the input unchanged.  Deterministic per seed
    (Philox).  Raises on an all-zero signal with finite SNR.
    """
    if len(samples) == 0:
        raise ConfigError("empty sample set")
    if np.isinf(snr_db):
        return samples
    p_signal = float(np.mean(np.abs(samples.values) ** 2))
    if p_signal == 0.0:
        raise ConfigError("all-zero signal has no finite-SNR noise scale")
    p_noise = p_signal * 10.0 ** (-snr_db / 10.0)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    scale = np.sqrt(p_noise / 2.0)
    noise = rng.normal(0.0, scale, len(samples)) \
        + 1j * rng.normal(0.0, scale, len(samples))
    return SampleSet(raster_ref=samples.raster_ref,
                     values=samples.values + noise,
                     provenance=samples.provenance, noise_seed=int(seed),
                     warnings=samples.warnings)


def save_samples(samples: SampleSet, raster: Raster, path) -> None:
    if len(samples) != len(raster):
        raise ConfigError("sample/raster length mismatch")
    with open(path, "w") as fh:
        fh.write(f"{_HEADER_PREFIX}, raster={samples.raster_ref}\n")
        pts = raster.points.reshape(len(raster), -1)
        for p, v in zip(pts, samples.values):
            coords = ",".join(f"{c:.17g}" for c in p)
            fh.write(f"{coords},{v.real:.17g},{v.imag:.17g}\n")


def load_samples(path, raster: Raster) -> SampleSet:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(_HEADER_PREFIX):
            raise FormatError(f"{path}: line 1: bad header")
        vals = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split(",")
            if len(cols) != raster.dim + 2:
                raise FormatError(f"{path}: line {lineno}: expected "
                                  f"{raster.dim + 2} columns")
            try:
                nums = [float(c) for c in cols]
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: unparsable value")
            vals.append(complex(nums[-2], nums[-1]))
    if len(vals) != len(raster):
        raise FormatError(f"{path}: {len(vals)} rows for {len(raster)}-point raster")
    return SampleSet(raster_ref=raster.raster_id, values=np.array(vals),
                     provenance="file")


def check_conjugate_symmetry(samples: SampleSet, raster: Raster,
                             tol: float = 1e-10) -> bool:
    """True when f_hat(-lambda) == conj(f_hat(lambda)) wherever both exist."""
    pts = raster.points.reshape(len(raster), -1)
    index = {tuple(np.round(p, 9)): i for i, p in enumerate(pts)}
    for i, p in enumerate(pts):
        j = index.get(tuple(np.round(-p, 9)))
        if j is not None:
            if abs(samples.values[j] - np.conj(samples.values[i])) > tol:
                return False
    return True
