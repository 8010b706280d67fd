"""Non-uniform sampling geometries: jittered grids, asterisks, SAS wedges.

A Raster is an ordered, immutable set of wavenumber-domain sample
locations.  Reproducibility across platforms comes from the counter
based Philox generator seeded with a 64-bit key.

File formats.  Each gridfr CSV file starts with a ``# gridfr-<kind> v1``
line of ``key=value`` fields, then holds one row of comma-separated
numbers per line; floats have 17 significant digits (``%.17g``), so they
read back bit for bit.  `write_rows` writes all four kinds (for
`save_raster`, `sampling.save_samples`, `recon.save_image_csv` and
`numerics.save_magnitude_csv`); `read_rows` reads the first three and
skips blank and ``#`` lines.  The rows of the raster, samples and image
files are float64 arrays, which a numpy kernel formats (`_g17_lines`):
it writes the bytes of the ``"%.17g" % x`` row loop, and leaves to that
loop each row with a value it cannot prove: one below 1e-280 or above
1e281, one whose log10 rounds up across a power of ten, or one within
1e-9 of a rounding tie at its 17th digit.  The tmatrix file's
``%d,%d,%.8e`` rows take the row loop::

    # gridfr-raster v1, dim=<d>, kind=<k>, seed=<s|none>
    kx[,ky]                   one point per line
    # gridfr-samples v1, raster=<raster_id>
    kx[,ky],re,im             one line per raster point, in its order
    # gridfr-image v1, shape=<G1>[x<G2>], method=<m>
    re_1..re_G,im_1..im_G     one grid row per line, G = last axis
    # gridfr-tmatrix v1, order=<P>, band=<r>
    i,j,|T_ij|                each pair |i-j| <= r-1 in row-major order,
                              zero-based indices, %.8e magnitudes

Point order conventions (this order is what banded FTCG operators see):

* jittered grids: row-major over the integer multi-index;
* asterisks: origin first, then rings of increasing radius, each ring
  sorted by polar angle;
* SAS wedges: range wavenumber k in the outer loop, along-track k_u in
  the inner loop (points consecutive along k_u).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, FormatError

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

    @functools.cached_property
    def raster_id(self) -> str:
        """Content hash of the points, computed once per raster."""
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


def philox_rng(seed) -> np.random.Generator:
    """Philox generator keyed by `seed`, an integer in [0, 2**64)."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), "
                          f"got {seed!r}")
    return np.random.default_rng(np.random.Philox(key=np.uint64(seed)))


def jittered_grid(extents, jitter: float, seed: int, index_range=None) -> Raster:
    """Integer grid with i.i.d. uniform jitter in [-jitter, jitter] per axis.

    Parameters
    ----------
    extents : int or tuple of int, or None
        Half-extent N per axis; indices run over {-N, ..., N}.  May be
        None when `index_range` gives every axis.
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
    if extents is None:
        if index_range is None:
            raise ConfigError("jittered_grid needs extents or index_range")
    elif np.isscalar(extents):
        extents = (int(extents),)
    else:
        extents = tuple(int(n) for n in extents)
    if index_range is None:
        ranges = [(-n, n) for n in extents]
    else:
        if np.ndim(index_range[0]) == 0:
            index_range = (index_range,)
        ranges = [(int(lo), int(hi)) for lo, hi in index_range]
        if extents is not None and len(ranges) != len(extents):
            raise ConfigError("index_range must give (lo, hi) per axis")
    dim = len(ranges)
    if dim not in (1, 2):
        raise ConfigError("jittered_grid supports 1 or 2 axes")
    for lo, hi in ranges:
        if hi < lo:
            raise ConfigError(f"empty index range ({lo}, {hi})")
    axes = [np.arange(lo, hi + 1, dtype=float) for lo, hi in ranges]
    base = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    rng = philox_rng(seed)
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

    `extents` is one N per axis, or a single N (scalar or length-1
    sequence) for every axis.  Returns ``(raster, transform)`` where
    transform lists per-axis (scale, offset) with new = scale*old +
    offset.  The reconstruction planner records the transform; sampling
    must use the rescaled raster so the data matches the index-unit
    geometry.
    """
    extents = np.atleast_1d(np.asarray(extents, dtype=float))
    if extents.ndim != 1 or extents.size not in (1, raster.dim):
        raise ConfigError(f"rescale_to needs 1 or {raster.dim} extents, "
                          f"got {extents.tolist()}")
    extents = np.broadcast_to(extents, (raster.dim,))
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
    meta["rescaled_to"] = tuple(float(e) for e in extents)
    out = Raster(dim=raster.dim, points=arr.reshape(pts.shape), kind=raster.kind,
                 seed=raster.seed, index_extents=None, meta=meta)
    return out, tuple(transform)


def save_raster(raster: Raster, path) -> None:
    write_rows(path, "raster",
               {"dim": raster.dim, "kind": raster.kind,
                "seed": "none" if raster.seed is None else raster.seed},
               raster.points.reshape(len(raster), -1))


def write_rows(path, kind: str, fields: dict, rows, fmt: str = "%.17g") -> None:
    """Write `path` (or an open text stream) as a ``# gridfr-<kind> v1``
    file: `fields` as the header's ``key=value`` pairs, then a line
    ``fmt % tuple(row)`` per row of `rows`.  A `fmt` of one conversion
    serves every column of a 2D array `rows`.

    With the default ``"%.17g"`` and `rows` a 2D float64 array, the
    lines come from `_g17_lines`, a numpy kernel that writes the row
    loop's bytes, in blocks of about `_G17_BLOCK` values, and formats a
    row it cannot prove with the row loop; other formats and rows take
    the row loop."""
    kernel = (fmt == "%.17g" and isinstance(rows, np.ndarray)
              and rows.dtype == np.float64 and rows.ndim == 2
              and rows.shape[1] > 0)
    if fmt.count("%") == 1:
        fmt = ",".join([fmt] * np.shape(rows)[1])
    with (contextlib.nullcontext(path) if hasattr(path, "write")
          else open(path, "w")) as fh:
        fh.write(", ".join([f"# gridfr-{kind} v1"]
                           + [f"{k}={v}" for k, v in fields.items()]) + "\n")
        if kernel:
            step = max(1, _G17_BLOCK // rows.shape[1])
            for i in range(0, len(rows), step):
                fh.write(_g17_lines(rows[i:i + step], fmt))
        else:
            for row in rows:
                fh.write(fmt % tuple(row) + "\n")


# `_g17_lines` formats zero and 1e-280 <= |x| < 1e281, and leaves a row
# to the row loop when one of its values has no exponent in that range or
# has its scaled value within _G17_TIE of a rounding tie; the scaled
# value is exact to within 5e-15, so no other tie can be missed
_G17_LIMIT = 280
_G17_BLOCK = 4096
_G17_TIE = 1e-9
_SPLIT = 134217729.0        # 2**27 + 1, Veltkamp's splitting constant
# a value's 48 byte slots: "-", then 21 digits "0000" d0..d16 with a "."
# slot after each of the first 20, then "e", sign and three exponent
# digits, then "," or a newline
_G17_SLOTS = np.frombuffer(b"-" + b"0." * 20 + b"0e+000,", dtype=np.uint8)


@functools.cache
def _g17_tables() -> tuple:
    """The tables of `_g17_lines`, indexed by the decimal exponent X + L,
    L = _G17_LIMIT: 10**(16 - X) as a double-double hi + lo with hi split
    in two 26-bit halves; the ASCII bytes of "0000".."9999" as uint32;
    X's sign and three digits; and which of the 48 slots `%g` keeps, for
    X and each count of significant digits 0..17, in rows X * 18 + count.
    """
    ks = np.arange(-_G17_LIMIT, _G17_LIMIT + 1)
    hi, lo = np.array([_double_double(16 - k) for k in ks.tolist()]).T
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    digits4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)),
                            dtype=np.uint32)
    exponent = np.frombuffer(b"".join(b"%+04d" % k for k in ks.tolist()),
                             dtype=np.uint8).reshape(len(ks), 4)
    # slot m of the digits "0000" d0..d16 holds the units digit when u = m:
    # u = X + 4 in fixed notation (-4 <= X < 17), u = 4 (d0) otherwise.
    # Kept: the integer digits from min(u, 4) to u, the fraction digits
    # after u up to the last significant one, and a "." after u when a
    # fraction digit is kept
    k, count = ks[:, None, None], np.arange(18)[None, :, None]
    m = np.arange(21)
    fixed = (k >= -4) & (k < 17)
    u = np.where(fixed, k + 4, 4)
    keep = np.zeros((len(ks), 18, 48), dtype=bool)
    keep[..., 1:42:2] = (((m >= np.minimum(u, 4)) & (m <= u))
                         | ((m > u) & (m <= count + 3)))
    keep[..., 2:41:2] = (m[:20] == u) & (count + 3 > u)
    keep[..., 42:47] = ~fixed & np.array([True, True, False, True, True])
    keep[..., 44:45] = np.abs(k) >= 100
    keep[..., 47] = True
    return (hi, hi_hi, hi - hi_hi, lo, digits4, exponent,
            keep.reshape(-1, 48))


def _double_double(e: int) -> tuple:
    """10**e as hi + lo, each rounded to nearest (an int quotient is)."""
    p, q = (10**e, 1) if e >= 0 else (1, 10**-e)
    hi = p / q
    num, den = hi.as_integer_ratio()
    return hi, (p * den - num * q) / (q * den)


def _g17_lines(rows: np.ndarray, fmt: str) -> str:
    """``fmt % tuple(row) + "\\n"`` for every row of the 2D float64
    `rows`, with `fmt` "%.17g" per column.

    A value x = +-d0.d1..d16 10**X is formatted exactly: X is
    floor(log10 |x|), y = |x| 10**(16 - X) is Dekker's product of |x|
    and the double-double power of ten, exact as hi + lo to about
    1e-15, and the digits are the integer nearest y, N.  Zeros print
    as "0" and "-0".  The row loop formats a row instead when one of its
    values is outside the tables (no X: subnormal, huge, inf or nan),
    when y < 1e16 or N = 1e17 (log10 rounded across a power of ten: that
    test is made on hi + lo, since 1e-06 and other doubles just below a
    power of ten have N = 1e16), or when y is within _G17_TIE of a tie,
    where rounding to even decides."""
    pow_hi, pow_hi_hi, pow_hi_lo, pow_lo, digits4, exponent, keeps = \
        _g17_tables()
    x = rows.ravel()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = np.abs(e) <= _G17_LIMIT            # false for 0, inf and nan
    a = np.where(ok, a, 1.0)
    e = np.where(ok, e, 0).astype(np.intp) + _G17_LIMIT
    # y = a 10**(16 - X) = hi + lo: the exact product a * pow_hi (numpy
    # has no fma) plus a * pow_lo
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo, b = pow_hi_hi[e], pow_hi_lo[e], pow_hi[e]
    p = a * b
    err = (((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
           + a * pow_lo[e])
    hi = p + err
    lo = err - (hi - p)
    near = np.rint(lo)
    n = hi.astype(np.int64) + near.astype(np.int64)
    ok &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0))
    ok &= n < 10**17
    ok &= np.abs(np.abs(lo - near) - 0.5) > _G17_TIE
    n = np.where(ok, n, 0)
    ok |= x == 0
    q, r = np.divmod(n, 10**8)
    groups = np.zeros((len(n), 6), dtype=np.intp)
    groups[:, 1], q = np.divmod(q, 10**8)
    groups[:, 2], groups[:, 3] = np.divmod(q, 10**4)
    groups[:, 4], groups[:, 5] = np.divmod(r, 10**4)
    digits = digits4[groups].view(np.uint8)[:, 3:]
    out = np.empty((len(n), 48), dtype=np.uint8)
    out[:] = _G17_SLOTS
    out[:, 1:42:2] = digits
    out[:, 43:47] = np.take(exponent, e, axis=0)
    out.reshape(len(rows), -1)[:, -1] = ord("\n")
    # significant digits: 17 less N's trailing zeros, and 1 for a zero
    count = np.where(n == 0, 1,
                     17 - np.argmax(digits[:, :3:-1] != ord("0"), axis=1))
    keep = np.take(keeps, e * 18 + count, axis=0)
    keep[:, 0] = np.signbit(x)
    fallback = np.flatnonzero(~ok.reshape(rows.shape).all(axis=1))
    keep.reshape(len(rows), -1)[fallback] = False
    # compress, not out[keep], which took three times as long
    text = np.compress(keep.ravel(), out).tobytes().decode("ascii")
    if not len(fallback):
        return text
    # a fallback row keeps no byte, so it starts where the row before ends
    ends = np.cumsum(keep.reshape(len(rows), -1).sum(axis=1))
    parts, at = [], 0
    for i in fallback:
        parts += [text[at:ends[i]], fmt % tuple(rows[i]) + "\n"]
        at = ends[i]
    parts.append(text[at:])
    return "".join(parts)


def read_rows(path, kind: str, columns) -> tuple:
    """Header fields and float rows of a ``# gridfr-<kind> v1`` file.

    `columns(fields)` checks the header's ``key=value`` fields and returns
    the column count every row must have.  Blank and ``#`` lines are
    skipped.  Returns ``(fields, rows)``, rows an (n, columns) array.  A
    bad header line, a wrong column count, an unparsable value and a
    non-finite value are FormatErrors that name the path and line.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header.split(",", 1)[0].rstrip() != f"# gridfr-{kind} v1":
            raise FormatError(f"{path}: line 1: bad header {header!r}, "
                              f"expected '# gridfr-{kind} v1'")
        pairs = (tok.split("=", 1) for tok in header.split(",") if "=" in tok)
        fields = {k.strip(): v.strip() for k, v in pairs}
        ncols = columns(fields)
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split(",")
            if len(cols) != ncols:
                raise FormatError(f"{path}: line {lineno}: expected {ncols} "
                                  f"columns, got {len(cols)}")
            try:
                row = [float(c) for c in cols]
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: unparsable value")
            if not np.all(np.isfinite(row)):
                raise FormatError(f"{path}: line {lineno}: non-finite value")
            rows.append(row)
    return fields, np.array(rows, dtype=float).reshape(len(rows), ncols)


def _raster_dim(path, fields: dict, dim: Optional[int]) -> int:
    """The header's ``dim``, which must be `dim` when that is given."""
    try:
        fdim = int(fields["dim"])
    except (KeyError, ValueError):
        fdim = 0
    if fdim < 1:
        raise FormatError(f"{path}: line 1: missing/invalid dim")
    if dim is not None and dim != fdim:
        raise FormatError(f"{path}: raster is {fdim}D, expected {dim}D")
    return fdim


def load_raster(path, dim: Optional[int] = None) -> Raster:
    """Parse a raster file; FormatError carries the offending line number."""
    fields, pts = read_rows(path, "raster",
                            lambda f: _raster_dim(path, f, dim))
    seed_s = fields.get("seed", "none")
    try:
        seed = None if seed_s == "none" else int(seed_s)
    except ValueError:
        raise FormatError(f"{path}: line 1: invalid seed {seed_s!r}")
    try:        # an empty or invalid point set, with the path
        return Raster(dim=pts.shape[1], points=pts,
                      kind=fields.get("kind", "custom"), seed=seed)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None
