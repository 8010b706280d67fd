"""Non-uniform sampling geometries: jittered grids, asterisks, SAS wedges.

A Raster is an ordered, immutable set of wavenumber-domain sample
locations.  Reproducibility across platforms comes from the counter
based Philox generator seeded with a 64-bit key.

File format (``save_raster``/``load_raster``)::

    # gridfr-raster v1, dim=<d>, kind=<k>, seed=<s>
    kx[,ky]        one point per line, >=17 significant digits

Point order conventions (this order is what banded FTCG operators see):

* jittered grids: row-major over the integer multi-index;
* asterisks: origin first, then rings of increasing radius, each ring
  sorted by polar angle;
* SAS wedges: range wavenumber k in the outer loop, along-track k_u in
  the inner loop (points consecutive along k_u).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, FormatError

_HEADER_PREFIX = "# gridfr-raster v1"
_DUPLICATE_TOL = 1e-12


@dataclass(frozen=True)
class Raster:
    """Ordered immutable set of sample locations in wavenumber space."""

    dim: int
    points: np.ndarray          # (n,) for 1D, (n, 2) for 2D
    kind: str = "custom"
    seed: Optional[int] = None
    index_extents: Optional[tuple] = None   # per-axis (lo, hi) for grid kinds
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if self.dim == 1:
            pts = pts.reshape(-1)
        elif self.dim == 2:
            pts = pts.reshape(-1, 2)
        else:
            raise ConfigError(f"dim must be 1 or 2, got {self.dim}")
        if pts.size == 0:
            raise ConfigError("empty raster")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("non-finite raster point")
        _check_duplicates(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    def coords(self, axis: int) -> np.ndarray:
        return self.points if self.dim == 1 else self.points[:, axis]

    def max_abs(self) -> np.ndarray:
        """Per-axis maximum |coordinate|."""
        return np.array([np.abs(self.coords(a)).max() for a in range(self.dim)])

    @property
    def raster_id(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.dim}|{self.kind}|{self.seed}".encode())
        h.update(np.ascontiguousarray(self.points).tobytes())
        return h.hexdigest()[:16]


def _check_duplicates(pts):
    """Reject two points within _DUPLICATE_TOL of each other on every axis."""
    arr = pts.reshape(len(pts), -1)
    srt = arr[np.argsort(arr[:, 0], kind="stable")]
    # such a pair is as close on axis 0, so each point is compared with its
    # k-th successor while their first coordinates are that close (the
    # bound is padded against rounding)
    reach = np.searchsorted(srt[:, 0], srt[:, 0] + 2 * _DUPLICATE_TOL,
                            side="right") - np.arange(len(srt))
    for k in range(1, reach.max()):
        i = np.flatnonzero(reach > k)
        if np.any(np.abs(srt[i + k] - srt[i]).max(axis=1) <= _DUPLICATE_TOL):
            raise ConfigError("duplicate raster points")


def _rng(seed):
    return np.random.default_rng(np.random.Philox(key=np.uint64(seed)))


def jittered_grid(extents, jitter: float, seed: int, index_range=None) -> Raster:
    """Integer grid with i.i.d. uniform jitter in [-jitter, jitter] per axis.

    Parameters
    ----------
    extents : int or tuple of int
        Half-extent N per axis; indices run over {-N, ..., N}.
    jitter : float
        Maximum per-axis displacement, must be < 1/2 to keep points
        distinct and the near-integer frame guarantee.
    seed : int
        64-bit key for the Philox counter generator.
    index_range : optional per-axis (lo, hi) inclusive
        Overrides the symmetric index set, e.g. ((-15, 14), (-15, 14))
        for an even 30x30 grid.
    """
    if not 0 <= jitter < 0.5:
        raise ConfigError(f"jitter must be in [0, 1/2), got {jitter}")
    if np.isscalar(extents):
        extents = (int(extents),)
    else:
        extents = tuple(int(n) for n in extents)
    dim = len(extents)
    if dim not in (1, 2):
        raise ConfigError("jittered_grid supports 1 or 2 axes")
    if index_range is None:
        ranges = [(-n, n) for n in extents]
    else:
        if np.ndim(index_range[0]) == 0:
            index_range = (index_range,)
        ranges = [(int(lo), int(hi)) for lo, hi in index_range]
        if len(ranges) != dim:
            raise ConfigError("index_range must give (lo, hi) per axis")
    for lo, hi in ranges:
        if hi < lo:
            raise ConfigError(f"empty index range ({lo}, {hi})")
    axes = [np.arange(lo, hi + 1, dtype=float) for lo, hi in ranges]
    base = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    rng = _rng(seed)
    pts = base + rng.uniform(-jitter, jitter, size=base.shape)
    return Raster(dim=dim, points=pts, kind="jittered_grid", seed=int(seed),
                  index_extents=tuple(ranges), meta={"jitter": float(jitter)})


def asterisk(spokes: int, radial_count: int, max_radius: float) -> Raster:
    """Spoke pattern: radii j*R/J on S diameters through the origin.

    Points are theta_s = pi*s/S for s = 0..S-1 with signed radii
    j in {-J..J}\\{0} plus one origin point: 2*S*J + 1 in total.
    Emitted ring by ring (|radius| ascending, angle ascending within a
    ring) so that spatially close points sit close in index order.
    """
    if spokes < 2 or radial_count < 1 or max_radius <= 0:
        raise ConfigError("need spokes >= 2, radial_count >= 1, max_radius > 0")
    S, J, R = int(spokes), int(radial_count), float(max_radius)
    rows = [(0.0, -np.pi, 0.0, 0.0)]
    for s in range(S):
        th = np.pi * s / S
        for j in list(range(-J, 0)) + list(range(1, J + 1)):
            radius = j * R / J
            x, y = radius * np.cos(th), radius * np.sin(th)
            rows.append((abs(radius), np.arctan2(y, x), x, y))
    arr = np.array(rows)
    order = np.lexsort((arr[:, 1], np.round(arr[:, 0], 9)))
    pts = arr[order][:, 2:]
    return Raster(dim=2, points=pts, kind="asterisk",
                  meta={"spokes": S, "radial_count": J, "max_radius": R})


def sas_wedge(k_min: float, k_max: float, k_count: int,
              ku_max: float, ku_count: int) -> Raster:
    """Side-scan-like annular sector in the wavenumber plane.

    For each range wavenumber k on a uniform grid over [k_min, k_max]
    and each along-track wavenumber k_u over [-ku_max, ku_max], emits
    (k_x, k_y) = (k_u, sqrt(4 k^2 - k_u^2)).  Requires ku_max < 2*k_min
    so k_y stays real.
    """
    if not 0 < k_min < k_max:
        raise ConfigError("need 0 < k_min < k_max")
    if ku_max >= 2.0 * k_min:
        raise ConfigError("ku_max >= 2*k_min gives imaginary k_y")
    if k_count < 1 or ku_count < 1:
        raise ConfigError("counts must be positive")
    ks = np.linspace(k_min, k_max, int(k_count))
    kus = np.linspace(-ku_max, ku_max, int(ku_count)) if ku_count > 1 \
        else np.array([0.0])
    pts = []
    for k in ks:
        for ku in kus:
            pts.append((ku, np.sqrt(4.0 * k * k - ku * ku)))
    return Raster(dim=2, points=np.array(pts), kind="sas_wedge",
                  meta={"k_min": float(k_min), "k_max": float(k_max),
                        "k_count": int(k_count), "ku_max": float(ku_max),
                        "ku_count": int(ku_count)})


def rescale_to_box(raster: Raster, extents) -> tuple:
    """Affinely map each axis onto [-N_axis, N_axis] (mode index units).

    Returns ``(raster, transform)`` where transform lists per-axis
    (scale, offset) with new = scale*old + offset.  The reconstruction
    planner records the transform; sampling must use the rescaled
    raster so the data matches the index-unit geometry.
    """
    if np.isscalar(extents):
        extents = (extents,) * raster.dim
    pts = np.array(raster.points, dtype=float)
    arr = pts.reshape(len(pts), -1)
    transform = []
    for axis in range(raster.dim):
        n = float(extents[axis])
        lo, hi = arr[:, axis].min(), arr[:, axis].max()
        if hi - lo <= 0:
            raise ConfigError("degenerate axis extent, cannot rescale")
        scale = 2.0 * n / (hi - lo)
        offset = -n - scale * lo
        arr[:, axis] = scale * arr[:, axis] + offset
        transform.append((scale, offset))
    meta = dict(raster.meta)
    meta["rescaled_to"] = tuple(float(e) for e in np.atleast_1d(extents))
    out = Raster(dim=raster.dim, points=arr.reshape(pts.shape), kind=raster.kind,
                 seed=raster.seed, index_extents=None, meta=meta)
    return out, tuple(transform)


def save_raster(raster: Raster, path) -> None:
    with open(path, "w") as fh:
        seed = raster.seed if raster.seed is not None else "none"
        fh.write(f"{_HEADER_PREFIX}, dim={raster.dim}, kind={raster.kind}, seed={seed}\n")
        for p in np.atleast_2d(raster.points.reshape(len(raster), -1)):
            fh.write(",".join(f"{v:.17g}" for v in p) + "\n")


def load_raster(path, dim: Optional[int] = None) -> Raster:
    """Parse a raster file; FormatError carries the offending line number."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(_HEADER_PREFIX):
            raise FormatError(f"{path}: line 1: bad header {header!r}")
        fields = {}
        for tok in header[len(_HEADER_PREFIX):].split(","):
            tok = tok.strip()
            if "=" in tok:
                k, v = tok.split("=", 1)
                fields[k.strip()] = v.strip()
        try:
            fdim = int(fields["dim"])
        except (KeyError, ValueError):
            raise FormatError(f"{path}: line 1: missing/invalid dim")
        kind = fields.get("kind", "custom")
        seed_s = fields.get("seed", "none")
        seed = None if seed_s == "none" else int(seed_s)
        if dim is not None and dim != fdim:
            raise FormatError(f"{path}: raster is {fdim}D, expected {dim}D")
        pts = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split(",")
            if len(cols) != fdim:
                raise FormatError(f"{path}: line {lineno}: expected {fdim} "
                                  f"coordinates, got {len(cols)}")
            try:
                vals = [float(c) for c in cols]
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: unparsable value")
            if not all(np.isfinite(v) for v in vals):
                raise FormatError(f"{path}: line {lineno}: non-finite coordinate")
            pts.append(vals)
        if not pts:
            raise FormatError(f"{path}: no points")
    arr = np.array(pts)
    return Raster(dim=fdim, points=arr, kind=kind, seed=seed)
