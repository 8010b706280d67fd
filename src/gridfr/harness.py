"""Experiment orchestration: metrics, presets, runs, sweeps, artifacts.

Every preset pins all of its parameters (window, mode box, band, grid,
seeds); its resolved config lists them, so a run is bit-reproducible.
The deterministic metrics go to ``metrics.csv``; wall-clock timings
(which are not reproducible) go to a separate ``timings.json``.

Artifacts of a run with an output directory: resolved_config.json,
raster.csv, samples.csv, reference.csv/.pgm, scene.pgm, per method
recon_<m>.csv/.pgm and error_<m>.pgm (log10 |recon - reference| above
`ERROR_MAP_FLOOR` times the reference's peak), metrics.csv
(METRIC_COLUMNS, a row per method) and timings.json.  With ftcg,
tmatrix.pgm shows all of |T| for T = Psi Omega, and tmatrix.csv lists
the entries the band keeps.  Both are written from the plan's real
R (`recon.t_matrix`), as |T| = |D R D^H| = |R| entrywise.  The CSV
formats are described in `raster`.

PSNR convention: computed on the complex difference against the
windowed-partial-sum reference, peak taken from the reference; a
second column reports the same number against the raw scene so the
ambiguity between the two yardsticks stays visible.  A reference's
peak and norm are cached on its `ImageGrid` (`ImageGrid.peak`,
`ImageGrid.norm`), so scoring an image against it takes one
difference and one reduction per metric.

Plan reuse: `run_preset` and `run_sweep` each keep one store for the
runs of a call, holding at most one value of each kind: the raster, its
samples, the plan, the reference image, the scene image and the last
run.  A value is released before its replacement is made, and the
store is dropped when the call returns.  A run reuses the held
raster when its raster spec and seed are the previous run's, and
the held samples when its raster, scene, SNR and seed are.  A plan is
built only when a run's raster or build arguments differ from the
previous run's; otherwise the run reuses that plan, which holds no
data.  When they differ only in the band, the plan is derived from the
held one (`recon.with_band`): only ftcg's band stage runs, so Psi, its
quadrature drift check, Omega and the phases are computed once per
raster, and a drifting raster's quadrature warning is logged once.  A
sweep runs seed-major, each seed's points one after another, so that a
seed's band points derive their plans.  The seed-free asterisk and
sas-wedge rasters build once per call, noisy-grid once per seed.  A
seed that reused a plan writes ``{"plan_reused": true}`` per method to
its ``timings.json`` instead of build timings.  When a seed's config
differs from the previous seed's only in the seed, and its Fourier data
equal that seed's bit for bit (asterisk and sas-wedge without noise),
it is not reconstructed again: it takes the previous seed's metrics
and copies its artifacts byte for byte, writing only
``resolved_config.json`` and ``timings.json`` anew.  Noisy data differ
per seed, so noisy runs are always reconstructed.  Only the previous
seed's reports and artifact directory are held for this.

Presets
-------
noisy-grid   30x30 jittered grid (indices -15..14), 900-point flattened
             system, band 15 (r=8).
asterisk     22 spokes x 5 radii = 221 points, band 23 (r=12).
sas-wedge    25x25 side-scan wedge rescaled into [-12,12]^2, band 15.

Sweeps (`SWEEPS`, each on the seeds `SWEEP_SEEDS` unless given others)
------
N            1D raster-size sweep N in {8,16,32,64} at 30 dB SNR.
r            1D band sweep r in {2,4,8,33} on a sine scene, N=16 (33 is
             the full band 2N+1).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import numbers
import os
import shutil
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .numerics import default_band, save_magnitude_csv
from .raster import (Raster, asterisk, jittered_grid, rescale_to_box,
                     sas_wedge, save_raster)
from .recon import (METHODS, ImageGrid, _axis_modes, _axis_sizes, build_plan,
                    reconstruct, reference_image, scene_image, save_image_csv,
                    save_pgm, t_matrix, with_band)
from .sampling import (Scene, SampleSet, add_noise, analytic_coeffs,
                       boxcar_scene, check_snr, paper_test_scene,
                       quadrature_coeffs, save_samples, sine_scene,
                       trig_poly_scene)
from .window import DEFAULT_TRUNC_EPS, WindowSpec, gaussian_window

# error maps floor |recon - reference| at this fraction of max |reference|,
# above the rounding noise of the presets' images: sas-wedge's frame image
# (kappa_psi 1.2e7, kappa * eps = 2.7e-9) moves by up to 3.3e-10 of its
# peak when Psi moves at the 1e-13 level
ERROR_MAP_FLOOR = 1e-9
NOISE_SEED_OFFSET = 5000


# ------------------------------------------------------------------ metrics

def _peak(reference: ImageGrid, what: str) -> float:
    peak = reference.peak
    if peak == 0.0:
        raise ConfigError(f"the reference is zero: {what} needs a nonzero peak")
    return peak


def _difference(recon: ImageGrid, reference: ImageGrid, what: str):
    """recon - reference, whose grids must match for `what` to compare."""
    if recon.values.shape != reference.values.shape:
        raise ConfigError(f"{what} needs matching grids")
    return recon.values - reference.values


def psnr(recon: ImageGrid, reference: ImageGrid) -> float:
    """20 log10(peak / RMS error); peak = max |reference|.

    Returns +inf when the grids agree exactly (flagged infinite).
    """
    d = _difference(recon, reference, "PSNR")
    peak = _peak(reference, "PSNR")
    mse = float(np.vdot(d, d).real) / d.size
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(peak / math.sqrt(mse))


def l2_relative(recon: ImageGrid, reference: ImageGrid) -> float:
    d = _difference(recon, reference, "the relative l2 error")
    denom = reference.norm
    if denom == 0.0:
        raise ConfigError("the reference is zero: no relative error")
    return math.sqrt(float(np.vdot(d, d).real)) / denom


def linf_error(recon: ImageGrid, reference: ImageGrid) -> float:
    return float(np.abs(_difference(recon, reference, "the max error")).max())


def _error_decades(recon: ImageGrid, reference: ImageGrid) -> tuple:
    """log10 of |recon - reference| over the floor ERROR_MAP_FLOOR *
    max |reference|, at least 0, and log10 of that floor."""
    d = _difference(recon, reference, "an error map")
    floor = ERROR_MAP_FLOOR * _peak(reference, "an error map")
    ratio = np.abs(d) / floor
    return np.log10(np.maximum(ratio, 1.0)), math.log10(floor)


def error_maps(recon: ImageGrid, reference: ImageGrid) -> ImageGrid:
    """Pointwise log10 |recon - reference|, floored at ERROR_MAP_FLOOR times
    max |reference|, so that rounding-level differences read as the floor."""
    decades, floor = _error_decades(recon, reference)
    return ImageGrid(values=(decades + floor).astype(complex),
                     grid_size=recon.grid_size,
                     method=f"log10-error[{recon.method}]")


def save_error_map(recon: ImageGrid, reference: ImageGrid, path) -> None:
    """PGM of `error_maps`: black at the floor, white at the largest error."""
    span = _error_decades(recon, reference)[0]
    save_pgm(span, path, peak=float(span.max() or 1.0))


@dataclass
class MetricsReport:
    method: str
    psnr_db: float
    psnr_vs_scene_db: float
    l2_rel: float
    l2_rel_vs_scene: float
    linf: float
    kappa_psi: Optional[float] = None
    kappa_c: Optional[float] = None
    kept_fraction: Optional[float] = None
    rank_psi: Optional[int] = None
    rank_c: Optional[int] = None
    timings: dict = field(default_factory=dict)


# ------------------------------------------------------------------- config

@dataclass
class ExperimentConfig:
    """Fully explicit experiment description; JSON round-trippable."""

    name: str
    dim: int
    scene: dict
    raster: dict
    window: dict
    modes: object            # int or per-axis list
    methods: tuple = ("cg", "frame", "ftcg")
    band: Optional[int] = None
    grid_size: int = 128
    rtol: Optional[float] = None
    snr_db: float = math.inf
    seed: int = 0
    quad_nodes: Optional[int] = None

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["snr_db"] = "inf" if self.snr_db == math.inf else self.snr_db
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}")
        return cls.from_dict(d)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _, d = _check_spec(d, "config", CONFIG_KEYS)
        snr = math.inf if d["snr_db"] in ("inf", None) else d["snr_db"]
        if isinstance(snr, bool) or not isinstance(snr, numbers.Real):
            raise ConfigError(f"snr_db must be a number or 'inf', got {snr!r}")
        d["snr_db"] = float(snr)
        check_snr(d["snr_db"])
        d["methods"] = tuple(d["methods"])
        return cls(**d)


def _check_numeric(value, what: str, integral: bool = False) -> None:
    """ConfigError unless `value` is a real number (not a bool) or a
    possibly nested list of them; with `integral`, integers only, so
    8.0 is refused as well as 8.7."""
    if isinstance(value, (list, tuple)):
        for v in value:
            _check_numeric(v, what, integral)
    elif not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{what} must be numeric, got {value!r}")
    elif integral and not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")


# Spec tables: per kind, the required keys and the optional keys with their
# defaults; window specs and the config have no kind.  A value is a real
# number or a nested list of them, integers for INTEGER_KEYS; it may be null
# where its default is None, and for modes; null modes and band take
# default_modes and default_band.  NON_NUMERIC_KEYS hold other values: methods
# is a non-empty list of METHODS, the rest are checked where they are read.
SCENE_KEYS = {"paper_test_fn": ((), {}), "sine": ((), {}),
              "boxcar": ((), {"lo": 0.25, "hi": 0.75, "npix": 64}),
              "trig_poly": (("coefficients",), {})}
RASTER_KEYS = {"jittered_grid": (("extents",), {"jitter": 0.25,
                                                "index_range": None}),
               "asterisk": (("spokes", "radial_count", "max_radius"), {}),
               "sas_wedge": (("k_min", "k_max", "k_count", "ku_max",
                              "ku_count"), {})}
WINDOW_KEYS = {None: (("sigma",), {"trunc_eps": DEFAULT_TRUNC_EPS})}
CONFIG_KEYS = {None: (("name", "dim", "scene", "raster", "window", "modes"),
                      {f.name: f.default
                       for f in dataclasses.fields(ExperimentConfig)
                       if f.default is not dataclasses.MISSING})}
INTEGER_KEYS = ("dim", "modes", "band", "grid_size", "seed", "quad_nodes",
                "npix", "extents", "index_range", "spokes", "radial_count",
                "k_count", "ku_count")
NON_NUMERIC_KEYS = ("name", "scene", "raster", "window", "methods",
                    "snr_db", "coefficients")


def _check_spec(spec: dict, what: str, kinds: dict, extra=None):
    """Returns ``(kind, spec without kind, with defaults filled in)``.

    `extra` holds optional keys every kind takes, with their defaults.
    ConfigError on an unknown kind, an unknown key, a missing one, or a
    value the rules above the spec tables refuse.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} spec must be an object, got {spec!r}")
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    required, optional = kinds[kind]
    optional = {**optional, **(extra or {})}
    unknown = sorted(set(spec) - {*required, *optional})
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    missing = [k for k in required if k not in spec]
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    for key, value in spec.items():
        name = key if what == "config" else f"{what} {key}"
        if key == "methods" and not (
                isinstance(value, (list, tuple)) and value
                and all(m in METHODS for m in value)):
            raise ConfigError(f"methods must be a non-empty list of "
                              f"{list(METHODS)}, got {value!r}")
        if key not in NON_NUMERIC_KEYS and not (value is None and (
                optional.get(key, 0) is None or key == "modes")):
            _check_numeric(value, name, key in INTEGER_KEYS)
    return kind, {**optional, **spec}


def scene_from_config(spec: dict, dim: int) -> Scene:
    kind, spec = _check_spec(spec, "scene", SCENE_KEYS)
    if kind == "paper_test_fn":
        return paper_test_scene()
    if kind == "sine":
        return sine_scene()
    if kind == "boxcar":
        return boxcar_scene(spec["lo"], spec["hi"], spec["npix"])
    coeffs = spec["coefficients"]
    try:        # {"k" (1D) or "k1,k2" (2D): [re, im]}
        terms = {tuple(int(v) for v in k.split(",")): complex(re, im)
                 for k, (re, im) in coeffs.items()}
    except (AttributeError, TypeError, ValueError):
        terms = None
    if terms is None or any(len(k) != dim for k in terms):
        raise ConfigError(f"scene coefficients must map 'k' (1D) or 'k1,k2' "
                          f"(2D) to [re, im], got {coeffs!r}")
    return trig_poly_scene({k if dim == 2 else k[0]: c
                            for k, c in terms.items()}, dim)


def raster_from_config(spec: dict, seed: int) -> tuple:
    """Build the raster; returns (raster, transform-or-None).

    Every kind takes ``rescale_to``, the per-axis `rescale_to_box` extents.
    """
    kind, spec = _check_spec(spec, "raster", RASTER_KEYS,
                             extra={"rescale_to": None})
    if kind == "jittered_grid":
        r = jittered_grid(spec["extents"], spec["jitter"], seed,
                          spec["index_range"])
    elif kind == "asterisk":
        r = asterisk(spec["spokes"], spec["radial_count"], spec["max_radius"])
    else:
        r = sas_wedge(spec["k_min"], spec["k_max"], spec["k_count"],
                      spec["ku_max"], spec["ku_count"])
    if spec["rescale_to"] is not None:
        return rescale_to_box(r, spec["rescale_to"])
    return r, None


def window_from_config(spec: dict, dim: int) -> WindowSpec:
    _, spec = _check_spec(spec, "window", WINDOW_KEYS)
    return gaussian_window(spec["sigma"], spec["trunc_eps"], dim=dim)


def fourier_data(scene: Scene, raster: Raster, snr_db: float,
                 seed: int) -> SampleSet:
    """The scene's Fourier data on `raster`, with noise at a finite SNR.

    Closed form where the scene has one, pixel quadrature otherwise.
    """
    if scene.kind == "grid_image":
        samples = quadrature_coeffs(scene, raster)
    else:
        samples = analytic_coeffs(scene, raster)
    if snr_db != math.inf:
        samples = add_noise(samples, snr_db, seed)
    return samples


# ------------------------------------------------------------------ presets

PRESET_SEEDS = {
    "noisy-grid": (101, 102, 103, 104, 105),
    "asterisk": (101, 102, 103, 104, 105),
    "sas-wedge": (101, 102, 103, 104, 105),
}


# the pinned 2D setups' fields that differ from ExperimentConfig's defaults
PRESETS = {
    "noisy-grid": dict(
        raster={"kind": "jittered_grid", "extents": [15, 15], "jitter": 0.06,
                "index_range": [[-15, 14], [-15, 14]]},
        window={"sigma": 0.2, "trunc_eps": 1e-12}, modes=[14, 14], band=8),
    "asterisk": dict(
        raster={"kind": "asterisk", "spokes": 22, "radial_count": 5,
                "max_radius": 5.0},
        window={"sigma": 0.2, "trunc_eps": 1e-12}, modes=[5, 5], band=12,
        rtol=1e-5),
    "sas-wedge": dict(
        raster={"kind": "sas_wedge", "k_min": 1.0, "k_max": 1.5, "k_count": 25,
                "ku_max": 1.2, "ku_count": 25, "rescale_to": [12, 12]},
        window={"sigma": 1.0 / 6.0, "trunc_eps": 1e-12}, modes=[12, 12],
        band=8),
}


def preset_config(name: str, seed: int) -> ExperimentConfig:
    """Pinned reconstructions of the three experiment setups.

    The source material reports only point counts, band widths and a
    handful of quality figures; everything else here (window width,
    mode box, jitter, seeds) is our own reconstruction of the setup and
    is labeled as such in the emitted metadata.
    """
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} "
                          f"(have {', '.join(PRESETS)})")
    return ExperimentConfig(name=name, dim=2, scene={"kind": "paper_test_fn"},
                            seed=seed, **copy.deepcopy(PRESETS[name]))


def sweep_config(n_extent: int, seed: int) -> ExperimentConfig:
    """1D raster-size sweep point: sine scene, 30 dB SNR, fixed mode box."""
    return ExperimentConfig(
        name=f"sweep-1d-N{n_extent}", dim=1,
        scene={"kind": "sine"},
        raster={"kind": "jittered_grid", "extents": n_extent, "jitter": 0.25},
        window={"sigma": 0.25, "trunc_eps": 1e-12},
        modes=6, methods=("cg", "frame", "ftcg"),
        band=default_band(2 * n_extent + 1),
        grid_size=1024, rtol=None, snr_db=30.0, seed=seed)


def rsweep_config(band: int, seed: int) -> ExperimentConfig:
    """1D band sweep point: sine scene, noiseless, N=16 (full band 33)."""
    return ExperimentConfig(
        name=f"rsweep-1d-r{band}", dim=1,
        scene={"kind": "sine"},
        raster={"kind": "jittered_grid", "extents": 16, "jitter": 0.25},
        window={"sigma": 0.125, "trunc_eps": 1e-12},
        modes=16, methods=("ftcg",), band=band,
        grid_size=1024, rtol=None, snr_db=math.inf, seed=seed)


# per sweep axis: the maker of a config from (point, seed), and the points
SWEEPS = {"N": (sweep_config, (8, 16, 32, 64)),
          "r": (rsweep_config, (2, 4, 8, 33))}
SWEEP_SEEDS = (11, 12, 13, 14, 15)


# --------------------------------------------------------------------- runs

class _Run(NamedTuple):
    """One run's reports, and its artifact directory and file names
    (both None when it wrote none)."""

    reports: dict
    out_dir: Optional[str]
    artifacts: tuple


class _Store:
    """What the runs of one `run_preset` or `run_sweep` call share: the
    raster, its samples, the plan, the reference and scene images and
    the last run.  Holds at most one value of each kind, with the key it
    was made for, and releases a value before it makes the next, or once
    the next is derived from it."""

    def __init__(self):
        self._held = {}

    def find(self, kind: str, key):
        """The held `kind` value if it was made for `key`, else None."""
        held = self._held.get(kind)
        return held[1] if held is not None and held[0] == key else None

    def get(self, kind: str, key, make, derive=None):
        """`find`'s value, or else a new one, which is then held: the
        held value's `derive(held_key, held_value)` when that is not
        None, else `make()`, called once the held value is released."""
        value = self.find(kind, key)
        if value is None:
            held = self._held.pop(kind, None)
            if derive is not None and held is not None:
                value = derive(*held)
            del held
            value = self.put(kind, key, make() if value is None else value)
        return value

    def put(self, kind: str, key, value):
        self._held[kind] = (key, value)
        return value


def run_experiment(config: ExperimentConfig, out_dir=None,
                   store: Optional[_Store] = None) -> dict:
    """Build, sample, reconstruct, measure; optionally write artifacts.

    Returns {method: MetricsReport}.  With `out_dir` set, also writes
    the artifacts listed in the module docstring.
    With `store` set, the run shares what that store holds: the raster
    and its samples, keyed by what makes them; the plan, keyed by
    raster_id and every build_plan argument, and derived from the held
    plan when only the band differs; the images, keyed by the scene spec
    and what else they depend on; and the last run, whose reports and
    artifacts a run repeating it takes (see "Plan reuse" in the module
    docstring).
    """
    window = window_from_config(config.window, config.dim)
    scene = scene_from_config(config.scene, config.dim)
    store = store or _Store()
    rast = store.get("raster", (config.raster, config.seed), lambda:
                     raster_from_config(config.raster, config.seed)[0])
    if scene.dim != config.dim or rast.dim != config.dim:
        raise ConfigError("config dim does not match scene/raster dim")
    samples = store.get(
        "samples", (rast.raster_id, config.scene, config.snr_db, config.seed),
        lambda: fourier_data(scene, rast, config.snr_db,
                             config.seed + NOISE_SEED_OFFSET))
    # the one list of build_plan arguments, so the plan's key cannot miss
    # one; the band comes last, for plans that differ only in the band
    build = dict(modes=config.modes, methods=config.methods,
                 quad_nodes=config.quad_nodes, rtol=config.rtol)
    key = (rast.raster_id, config.window, build, config.band)
    # neither image depends on the raster, seed or noise; both are shared
    # between runs and read-only.  They are made before the plan: made
    # after it, they raised the presets benchmark's peak RSS by 11 MB.
    modes = _axis_modes(rast, config.modes)
    grid = _axis_sizes(config.grid_size, config.dim, "grid_size")
    reference = store.get("reference",
                          (config.scene, config.dim, window, modes, grid),
                          lambda: reference_image(scene, window, modes, grid))
    scn_img = store.get("scene", (config.scene, config.dim, grid),
                        lambda: scene_image(scene, grid, config.dim))
    reused = store.find("plan", key) is not None

    def derive(held_key, held_plan):
        # only ftcg's operator depends on the band: a plan at another
        # band shares every other one with the held plan
        if held_key[:-1] == key[:-1] and "ftcg" in config.methods:
            return with_band(held_plan, config.band)
        return None

    plan = store.get("plan", key, lambda: build_plan(
        rast, window, band=config.band, **build), derive)
    # a repeat: the same plan, config but for the seed, and data, and
    # artifacts to copy when they are asked for
    run_key = (key, dataclasses.replace(config, seed=None),
               samples.values.tobytes(), out_dir is not None)
    last = store.find("run", run_key)
    if last is not None:
        reports = {m: dataclasses.replace(r, timings={"plan_reused": True})
                   for m, r in last.reports.items()}
        if out_dir is not None:
            _copy_artifacts(last, out_dir)
            _write_run_record(out_dir, config, plan, reports)
        return reports
    timings = {"plan_reused": True} if reused else plan.meta.get("timings", {})

    reports, images = {}, {}
    for method in config.methods:
        images[method] = img = reconstruct(method, samples, plan, grid)
        reports[method] = MetricsReport(
            method=method,
            psnr_db=psnr(img, reference),
            psnr_vs_scene_db=psnr(img, scn_img),
            l2_rel=l2_relative(img, reference),
            l2_rel_vs_scene=l2_relative(img, scn_img),
            linf=linf_error(img, reference),
            kappa_psi=plan.meta.get("kappa_psi"),
            kappa_c=plan.meta.get("kappa_c"),
            kept_fraction=plan.meta.get("kept_fraction"),
            rank_psi=getattr(plan.meta.get("psi_pinv"), "rank", None),
            rank_c=getattr(plan.meta.get("c_pinv"), "rank", None),
            timings=timings,
        )

    artifacts = None
    if out_dir is not None:
        artifacts = _write_artifacts(out_dir, config, rast, samples, plan,
                                     reference, scn_img, images, reports)
        _write_run_record(out_dir, config, plan, reports)
    store.put("run", run_key, _Run(reports, out_dir, artifacts))
    return reports


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return "inf" if math.isinf(v) else f"{v:.12g}"
    return str(v)


METRIC_COLUMNS = ("method", "psnr_db", "psnr_vs_scene_db", "l2_rel",
                  "l2_rel_vs_scene", "linf", "kappa_psi", "kappa_c",
                  "kept_fraction", "rank_psi", "rank_c")


def _write_artifacts(out_dir, config, rast, samples, plan, reference,
                     scn_img, images, reports) -> tuple:
    """Writes every artifact but the run record (`_write_run_record`);
    returns their file names."""
    os.makedirs(out_dir, exist_ok=True)
    names = []

    def join(name):
        names.append(name)
        return os.path.join(out_dir, name)

    save_raster(rast, join("raster.csv"))
    save_samples(samples, rast, join("samples.csv"))
    save_image_csv(reference, join("reference.csv"))
    peak = reference.peak
    save_pgm(reference.values, join("reference.pgm"), peak=peak)
    save_pgm(scn_img.values, join("scene.pgm"), peak=peak)
    for method, img in images.items():
        save_image_csv(img, join(f"recon_{method}.csv"))
        save_pgm(img.values, join(f"recon_{method}.pgm"), peak=peak)
        save_error_map(img, reference, join(f"error_{method}.pgm"))
    if "ftcg" in plan.methods:
        rmat = t_matrix(plan.psi_axes, plan.omega_axes)    # |T| = |R|
        save_magnitude_csv(rmat, plan.band, join("tmatrix.csv"))
        save_pgm(rmat, join("tmatrix.pgm"))
    with open(join("metrics.csv"), "w") as fh:
        fh.write("# gridfr metrics v1\n")
        fh.write("# psnr_db / l2_rel are against the windowed Fourier "
                 "partial-sum reference; *_vs_scene against the raw scene\n")
        fh.write(",".join(METRIC_COLUMNS) + "\n")
        for method in config.methods:
            r = reports[method]
            fh.write(",".join(_fmt(getattr(r, c)) for c in METRIC_COLUMNS) + "\n")
    return tuple(names)


def _write_run_record(out_dir, config, plan, reports) -> None:
    """resolved_config.json (`config` with the mode box, band and
    quadrature node count of `plan`) and timings.json, into out_dir."""
    resolved = dataclasses.replace(
        config, modes=plan.modes[0] if config.dim == 1 else plan.modes,
        band=plan.band, quad_nodes=plan.meta["quad_nodes"])
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as fh:
        fh.write(resolved.to_json() + "\n")
    with open(os.path.join(out_dir, "timings.json"), "w") as fh:
        json.dump({m: reports[m].timings for m in reports}, fh, indent=2)


def _copy_artifacts(run: _Run, out_dir) -> None:
    """Copies `run`'s artifacts into `out_dir`, byte for byte."""
    os.makedirs(out_dir, exist_ok=True)
    for name in run.artifacts:
        src, dst = (os.path.join(d, name) for d in (run.out_dir, out_dir))
        if not os.path.exists(dst) or not os.path.samefile(src, dst):
            shutil.copyfile(src, dst)


def run_preset(name: str, seeds=None, out_dir=None,
               overrides: Optional[dict] = None) -> dict:
    """Run a preset for each seed; returns per-method metric lists + medians.

    `overrides` replaces config fields (e.g. band, snr_db, methods) for
    every seed.  Seeds share a plan while raster and build arguments
    stay the same (see the module docstring).

    Result layout: {"per_seed": {method: [MetricsReport, ...]},
    "median": {method: {"psnr_db": ..., "l2_rel": ...}}}.
    """
    if seeds is None:
        seeds = PRESET_SEEDS[name] if name in PRESET_SEEDS else (0,)
    if not seeds:
        raise ConfigError(f"preset {name!r} needs at least one seed")
    store = _Store()
    per_seed = {}
    for seed in seeds:
        config = dataclasses.replace(preset_config(name, seed),
                                     **(overrides or {}))
        sub = None if out_dir is None else os.path.join(out_dir, f"seed{seed}")
        reports = run_experiment(config, sub, store)
        for method, rep in reports.items():
            per_seed.setdefault(method, []).append(rep)
    median = {}
    for method, reps in per_seed.items():
        median[method] = {k: float(np.median([getattr(r, k) for r in reps]))
                          for k in ("psnr_db", "psnr_vs_scene_db", "l2_rel")}
        median[method].update({k: getattr(reps[0], k) for k in
                               ("kappa_psi", "kappa_c", "kept_fraction")})
    return {"per_seed": per_seed, "median": median}


def run_sweep(axis: str = "N", seeds=None, out_path=None) -> dict:
    """Median l2 error (vs the true scene) over the sweep `SWEEPS[axis]`.

    Every point runs on every seed (default `SWEEP_SEEDS`), seed-major,
    so that a seed's points share its raster, samples and, across bands,
    every band-free operator of its plan.  Returns {"axis": ...,
    "values": [points], "table": {method: [median per point]}}.
    """
    if axis not in SWEEPS:
        raise ConfigError(f"unknown sweep axis {axis!r} "
                          f"(have {', '.join(SWEEPS)})")
    make, points = SWEEPS[axis]
    seeds = SWEEP_SEEDS if seeds is None else seeds
    if not seeds:
        raise ConfigError(f"sweep {axis!r} needs at least one seed")
    store = _Store()
    reports = {(p, s): run_experiment(make(p, s), None, store)
               for s in seeds for p in points}
    table = {}
    for point in points:
        for m in reports[point, seeds[0]]:
            table.setdefault(m, []).append(float(np.median(
                [reports[point, s][m].l2_rel_vs_scene for s in seeds])))
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write("# gridfr sweep v1, l2 relative error vs true scene\n")
            fh.write("method," + ",".join(f"{axis}={v}" for v in points) + "\n")
            for m, row in table.items():
                fh.write(m + "," + ",".join(f"{v:.12g}" for v in row) + "\n")
    return {"axis": axis, "values": list(points), "table": table}
