"""Experiment orchestration: metrics, presets, runs, sweeps, artifacts.

Every preset pins all of its parameters (window, mode box, band, grid,
seeds) explicitly, so a run is bit-reproducible from its resolved
config.  The deterministic metrics go to ``metrics.csv``; wall-clock
timings (which are not reproducible) go to a separate ``timings.json``.

PSNR convention: computed on the complex difference against the
windowed-partial-sum reference, peak taken from the reference; a
second column reports the same number against the raw scene so the
ambiguity between the two yardsticks stays visible.

Presets
-------
noisy-grid   30x30 jittered grid (indices -15..14), 900-point flattened
             system, band 15 (r=8).
asterisk     22 spokes x 5 radii = 221 points, band 23 (r=12).
sas-wedge    25x25 side-scan wedge rescaled into [-12,12]^2, band 15.
sweep-1d     1D raster-size sweep N in {8,16,32,64} at 30 dB SNR.
rsweep-1d    1D band sweep r in {2,4,8,full} on a sine scene, N=16.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .numerics import save_magnitude_csv
from .raster import (Raster, asterisk, jittered_grid, rescale_to_box,
                     sas_wedge, save_raster)
from .recon import (ImageGrid, build_plan, reconstruct, reference_image,
                    scene_image, save_image_csv, save_pgm)
from .sampling import (Scene, SampleSet, add_noise, analytic_coeffs,
                       boxcar_scene, paper_test_scene, quadrature_coeffs,
                       save_samples, sine_scene, trig_poly_scene)
from .window import gaussian_window

ERROR_MAP_FLOOR = -16.0
NOISE_SEED_OFFSET = 5000


# ------------------------------------------------------------------ metrics

def psnr(recon: ImageGrid, reference: ImageGrid) -> float:
    """20 log10(peak / RMS error); peak = max |reference|.

    Returns +inf when the grids agree exactly (flagged infinite).
    """
    if recon.values.shape != reference.values.shape:
        raise ConfigError("PSNR needs matching grids")
    peak = float(np.abs(reference.values).max())
    mse = float(np.mean(np.abs(recon.values - reference.values) ** 2))
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(peak / math.sqrt(mse))


def l2_relative(recon: ImageGrid, reference: ImageGrid) -> float:
    denom = float(np.linalg.norm(reference.values))
    return float(np.linalg.norm(recon.values - reference.values)) / denom


def linf_error(recon: ImageGrid, reference: ImageGrid) -> float:
    return float(np.abs(recon.values - reference.values).max())


def error_maps(recon: ImageGrid, reference: ImageGrid) -> ImageGrid:
    """Pointwise log10 |recon - reference|, floored at -16."""
    diff = np.abs(recon.values - reference.values)
    logmap = np.full(diff.shape, ERROR_MAP_FLOOR)
    nz = diff > 10.0 ** ERROR_MAP_FLOOR
    logmap[nz] = np.log10(diff[nz])
    return ImageGrid(values=logmap.astype(complex), grid_size=recon.grid_size,
                     method=f"log10-error[{recon.method}]",
                     plan_ref=recon.plan_ref)


@dataclass
class MetricsReport:
    method: str
    psnr_db: float
    psnr_vs_scene_db: float
    l2_rel: float
    l2_rel_vs_scene: float
    linf: float
    kappa_psi: Optional[float] = None
    kappa_masked_t: Optional[float] = None
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
    band: int = 8
    grid_size: int = 128
    rtol: Optional[float] = None
    snr_db: float = math.inf
    seed: int = 0
    quad_nodes: Optional[int] = None

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["methods"] = list(self.methods)
        d["snr_db"] = "inf" if math.isinf(self.snr_db) else self.snr_db
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
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        missing = {"name", "dim", "scene", "raster", "window", "modes"} - set(d)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        d = dict(d)
        snr = d.get("snr_db", "inf")
        d["snr_db"] = math.inf if snr in ("inf", None) else float(snr)
        d["methods"] = tuple(d.get("methods", ("cg", "frame", "ftcg")))
        return cls(**d)


def scene_from_config(spec: dict, dim: int) -> Scene:
    kind = spec.get("kind")
    if kind == "paper_test_fn":
        return paper_test_scene()
    if kind == "sine":
        return sine_scene()
    if kind == "boxcar":
        return boxcar_scene(spec.get("lo", 0.25), spec.get("hi", 0.75),
                            spec.get("npix", 64))
    if kind == "trig_poly":
        coeffs = {}
        for k, (re, im) in spec["coefficients"].items():
            key = tuple(int(v) for v in k.split(",")) if dim == 2 else int(k)
            coeffs[key] = complex(re, im)
        return trig_poly_scene(coeffs, dim)
    raise ConfigError(f"unknown scene kind {kind!r}")


def raster_from_config(spec: dict, seed: int) -> tuple:
    """Build the raster; returns (raster, transform-or-None)."""
    kind = spec.get("kind")
    if kind == "jittered_grid":
        index_range = spec.get("index_range")
        if index_range is not None:
            index_range = tuple(tuple(p) for p in index_range)
        return jittered_grid(spec["extents"], spec.get("jitter", 0.25),
                             seed, index_range), None
    if kind == "asterisk":
        r = asterisk(spec["spokes"], spec["radial_count"], spec["max_radius"])
    elif kind == "sas_wedge":
        r = sas_wedge(spec["k_min"], spec["k_max"], spec["k_count"],
                      spec["ku_max"], spec["ku_count"])
    else:
        raise ConfigError(f"unknown raster kind {kind!r}")
    rescale = spec.get("rescale_to")
    if rescale is not None:
        return rescale_to_box(r, tuple(rescale))
    return r, None


# ------------------------------------------------------------------ presets

PRESET_SEEDS = {
    "noisy-grid": (101, 102, 103, 104, 105),
    "asterisk": (101, 102, 103, 104, 105),
    "sas-wedge": (101, 102, 103, 104, 105),
    "sweep-1d": (11, 12, 13, 14, 15),
    "rsweep-1d": (11, 12, 13, 14, 15),
}


def preset_config(name: str, seed: int) -> ExperimentConfig:
    """Pinned reconstructions of the three experiment setups.

    The source material reports only point counts, band widths and a
    handful of quality figures; everything else here (window width,
    mode box, jitter, seeds) is our own reconstruction of the setup and
    is labeled as such in the emitted metadata.
    """
    if name == "noisy-grid":
        return ExperimentConfig(
            name=name, dim=2,
            scene={"kind": "paper_test_fn"},
            raster={"kind": "jittered_grid", "extents": [15, 15],
                    "jitter": 0.06,
                    "index_range": [[-15, 14], [-15, 14]]},
            window={"sigma": 0.2, "trunc_eps": 1e-12},
            modes=[14, 14], methods=("cg", "frame", "ftcg"), band=8,
            grid_size=128, rtol=None, snr_db=math.inf, seed=seed)
    if name == "asterisk":
        return ExperimentConfig(
            name=name, dim=2,
            scene={"kind": "paper_test_fn"},
            raster={"kind": "asterisk", "spokes": 22, "radial_count": 5,
                    "max_radius": 5.0},
            window={"sigma": 0.2, "trunc_eps": 1e-12},
            modes=[5, 5], methods=("cg", "frame", "ftcg"), band=12,
            grid_size=128, rtol=1e-5, snr_db=math.inf, seed=seed)
    if name == "sas-wedge":
        return ExperimentConfig(
            name=name, dim=2,
            scene={"kind": "paper_test_fn"},
            raster={"kind": "sas_wedge", "k_min": 1.0, "k_max": 1.5,
                    "k_count": 25, "ku_max": 1.2, "ku_count": 25,
                    "rescale_to": [12, 12]},
            window={"sigma": 1.0 / 6.0, "trunc_eps": 1e-12},
            modes=[12, 12], methods=("cg", "frame", "ftcg"), band=8,
            grid_size=128, rtol=None, snr_db=math.inf, seed=seed)
    raise ConfigError(f"unknown preset {name!r} "
                      f"(have noisy-grid, asterisk, sas-wedge)")


def sweep_config(n_extent: int, seed: int) -> ExperimentConfig:
    """1D raster-size sweep point: sine scene, 30 dB SNR, fixed mode box."""
    return ExperimentConfig(
        name=f"sweep-1d-N{n_extent}", dim=1,
        scene={"kind": "sine"},
        raster={"kind": "jittered_grid", "extents": n_extent, "jitter": 0.25},
        window={"sigma": 0.25, "trunc_eps": 1e-12},
        modes=6, methods=("cg", "frame", "ftcg"),
        band=max(1, math.ceil(math.log(2 * n_extent + 1))),
        grid_size=1024, rtol=None, snr_db=30.0, seed=seed)


def rsweep_config(band: int, seed: int) -> ExperimentConfig:
    """1D band sweep point: sine scene, noiseless, N=16."""
    return ExperimentConfig(
        name=f"rsweep-1d-r{band}", dim=1,
        scene={"kind": "sine"},
        raster={"kind": "jittered_grid", "extents": 16, "jitter": 0.25},
        window={"sigma": 0.125, "trunc_eps": 1e-12},
        modes=16, methods=("ftcg",), band=band,
        grid_size=1024, rtol=None, snr_db=math.inf, seed=seed)


# --------------------------------------------------------------------- runs

def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Build, sample, reconstruct, measure; optionally write artifacts.

    Returns {method: MetricsReport}.  With `out_dir` set, also writes
    the raster, samples, reconstructions, log-error maps, the system
    magnitude map, metrics.csv, timings.json and the resolved config.
    """
    scene = scene_from_config(config.scene, config.dim)
    rast, transform = raster_from_config(config.raster, config.seed)
    if scene.dim != config.dim or rast.dim != config.dim:
        raise ConfigError("config dim does not match scene/raster dim")
    window = gaussian_window(config.window["sigma"],
                             config.window.get("trunc_eps", 1e-12),
                             dim=config.dim)
    if scene.kind == "grid_image":
        nodes = int(4 * (np.max(rast.max_abs()) + scene.bandwidth()) + 64)
        samples = quadrature_coeffs(scene, rast, nodes)
    else:
        samples = analytic_coeffs(scene, rast)
    if not math.isinf(config.snr_db):
        samples = add_noise(samples, config.snr_db,
                            config.seed + NOISE_SEED_OFFSET)
    meta = {"preset": config.name}
    if transform is not None:
        meta["rescale_transform"] = transform
    plan = build_plan(rast, window, config.modes, config.methods,
                      band=config.band, quad_nodes=config.quad_nodes,
                      rtol=config.rtol, meta=meta)
    reference = reference_image(scene, window, plan.modes, config.grid_size)
    scn_img = scene_image(scene, config.grid_size, config.dim)

    reports = {}
    images = {}
    for method in config.methods:
        img = reconstruct(method, samples, plan, config.grid_size)
        images[method] = img
        reports[method] = MetricsReport(
            method=method,
            psnr_db=psnr(img, reference),
            psnr_vs_scene_db=psnr(img, scn_img),
            l2_rel=l2_relative(img, reference),
            l2_rel_vs_scene=l2_relative(img, scn_img),
            linf=linf_error(img, reference),
            kappa_psi=plan.meta.get("kappa_psi"),
            kappa_masked_t=plan.meta.get("kappa_masked_t"),
            kappa_c=plan.meta.get("kappa_c"),
            kept_fraction=plan.meta.get("kept_fraction"),
            rank_psi=getattr(plan.meta.get("psi_pinv"), "rank", None),
            rank_c=getattr(plan.meta.get("c_pinv"), "rank", None),
            timings=plan.meta.get("timings", {}),
        )

    if out_dir is not None:
        _write_artifacts(out_dir, config, rast, samples, plan, reference,
                         scn_img, images, reports)
    return reports


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return "inf" if math.isinf(v) else f"{v:.12g}"
    return str(v)


METRIC_COLUMNS = ("method", "psnr_db", "psnr_vs_scene_db", "l2_rel",
                  "l2_rel_vs_scene", "linf", "kappa_psi", "kappa_masked_t",
                  "kappa_c", "kept_fraction", "rank_psi", "rank_c")


def _write_artifacts(out_dir, config, rast, samples, plan, reference,
                     scn_img, images, reports):
    os.makedirs(out_dir, exist_ok=True)
    join = lambda *p: os.path.join(out_dir, *p)
    with open(join("resolved_config.json"), "w") as fh:
        fh.write(config.to_json() + "\n")
    save_raster(rast, join("raster.csv"))
    save_samples(samples, rast, join("samples.csv"))
    save_image_csv(reference, join("reference.csv"))
    peak = float(np.abs(reference.values).max())
    save_pgm(reference.values, join("reference.pgm"), peak=peak)
    save_pgm(scn_img.values, join("scene.pgm"), peak=peak)
    for method, img in images.items():
        save_image_csv(img, join(f"recon_{method}.csv"))
        save_pgm(img.values, join(f"recon_{method}.pgm"), peak=peak)
        emap = error_maps(img, reference)
        span = emap.values.real - ERROR_MAP_FLOOR
        save_pgm(span, join(f"error_{method}.pgm"), peak=float(span.max() or 1.0))
    if plan.tmat is not None:
        save_magnitude_csv(plan.tmat, join("tmatrix.csv"))
        save_pgm(plan.tmat, join("tmatrix.pgm"))
    with open(join("metrics.csv"), "w") as fh:
        fh.write("# gridfr metrics v1\n")
        fh.write("# psnr_db / l2_rel are against the windowed Fourier "
                 "partial-sum reference; *_vs_scene against the raw scene\n")
        fh.write(",".join(METRIC_COLUMNS) + "\n")
        for method in config.methods:
            r = reports[method]
            fh.write(",".join(_fmt(getattr(r, c)) for c in METRIC_COLUMNS) + "\n")
    with open(join("timings.json"), "w") as fh:
        json.dump({m: reports[m].timings for m in reports}, fh, indent=2)


def run_preset(name: str, seeds=None, out_dir=None) -> dict:
    """Run a preset for each seed; returns per-method metric lists + medians.

    Result layout: {"per_seed": {method: [MetricsReport, ...]},
    "median": {method: {"psnr_db": ..., "l2_rel": ...}}}.
    """
    if seeds is None:
        seeds = PRESET_SEEDS[name] if name in PRESET_SEEDS else (0,)
    per_seed = {}
    for i, seed in enumerate(seeds):
        sub = None if out_dir is None else os.path.join(out_dir, f"seed{seed}")
        reports = run_experiment(preset_config(name, seed), sub)
        for method, rep in reports.items():
            per_seed.setdefault(method, []).append(rep)
    median = {}
    for method, reps in per_seed.items():
        median[method] = {
            "psnr_db": float(np.median([r.psnr_db for r in reps])),
            "psnr_vs_scene_db": float(np.median([r.psnr_vs_scene_db for r in reps])),
            "l2_rel": float(np.median([r.l2_rel for r in reps])),
            "kappa_psi": reps[0].kappa_psi,
            "kappa_c": reps[0].kappa_c,
            "kept_fraction": reps[0].kept_fraction,
        }
    return {"per_seed": per_seed, "median": median}


SWEEP_N_VALUES = (8, 16, 32, 64)
RSWEEP_BANDS = (2, 4, 8, None)     # None = full band (2N+1)


def run_sweep(axis: str = "N", seeds=None, out_path=None) -> dict:
    """Median l2 error (vs the true scene) over a raster-size or band sweep.

    axis="N": methods x sizes table over N in {8,16,32,64}.
    axis="r": FTCG over band half-widths {2,4,8,full} at N=16.
    Returns {"axis": ..., "values": [...], "table": {method: [...]}}.
    """
    if axis == "N":
        if seeds is None:
            seeds = PRESET_SEEDS["sweep-1d"]
        values = list(SWEEP_N_VALUES)
        table = {m: [] for m in ("cg", "frame", "ftcg")}
        for n in values:
            acc = {m: [] for m in table}
            for seed in seeds:
                reports = run_experiment(sweep_config(n, seed))
                for m in table:
                    acc[m].append(reports[m].l2_rel_vs_scene)
            for m in table:
                table[m].append(float(np.median(acc[m])))
    elif axis == "r":
        if seeds is None:
            seeds = PRESET_SEEDS["rsweep-1d"]
        order = 2 * 16 + 1
        values = [b if b is not None else order for b in RSWEEP_BANDS]
        table = {"ftcg": []}
        for band in values:
            acc = []
            for seed in seeds:
                reports = run_experiment(rsweep_config(band, seed))
                acc.append(reports["ftcg"].l2_rel_vs_scene)
            table["ftcg"].append(float(np.median(acc)))
    else:
        raise ConfigError(f"sweep axis must be 'N' or 'r', got {axis!r}")

    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write("# gridfr sweep v1, l2 relative error vs true scene\n")
            fh.write("method," + ",".join(f"{axis}={v}" for v in values) + "\n")
            for m, row in table.items():
                fh.write(m + "," + ",".join(f"{v:.12g}" for v in row) + "\n")
    return {"axis": axis, "values": values, "table": table}
