"""Command line interface.

Subcommands: gen-raster, sample, reconstruct, metrics, run, sweep.
Exit codes: 0 success, 2 configuration/format error, 3 numerical
failure (rank collapse).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import ConfigError, FormatError, NumericalError
from .harness import (ExperimentConfig, PRESET_SEEDS, error_maps,
                      l2_relative, linf_error, preset_config, psnr,
                      run_experiment, run_preset, run_sweep)
from .raster import (asterisk, jittered_grid, load_raster, rescale_to_box,
                     sas_wedge, save_raster)
from .recon import (build_plan, load_image_csv, reconstruct, save_image_csv,
                    save_pgm)
from .sampling import (add_noise, analytic_coeffs, boxcar_scene, load_samples,
                       paper_test_scene, quadrature_coeffs, save_samples,
                       sine_scene)
from .window import gaussian_window


def _parse_snr(text: str) -> float:
    return math.inf if text in ("inf", "Inf", "INF") else float(text)


def _add_gen_raster(sub):
    p = sub.add_parser("gen-raster", help="generate a raster CSV")
    p.add_argument("--kind", required=True,
                   choices=["jittered", "asterisk", "sas-wedge"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extents", type=int, nargs="+", default=[16])
    p.add_argument("--jitter", type=float, default=0.25)
    p.add_argument("--spokes", type=int, default=22)
    p.add_argument("--radial-count", type=int, default=5)
    p.add_argument("--max-radius", type=float, default=5.0)
    p.add_argument("--k-min", type=float, default=1.0)
    p.add_argument("--k-max", type=float, default=1.5)
    p.add_argument("--k-count", type=int, default=25)
    p.add_argument("--ku-max", type=float, default=1.2)
    p.add_argument("--ku-count", type=int, default=25)
    p.add_argument("--rescale-to", type=float, nargs="+", default=None,
                   help="affinely map axes into [-N,N] per axis")


def _cmd_gen_raster(args) -> int:
    if args.kind == "jittered":
        extents = args.extents[0] if len(args.extents) == 1 else args.extents
        r = jittered_grid(extents, args.jitter, args.seed)
    elif args.kind == "asterisk":
        r = asterisk(args.spokes, args.radial_count, args.max_radius)
    else:
        r = sas_wedge(args.k_min, args.k_max, args.k_count,
                      args.ku_max, args.ku_count)
    if args.rescale_to is not None:
        r, _ = rescale_to_box(r, tuple(args.rescale_to))
    save_raster(r, args.out)
    print(f"wrote {len(r)} points to {args.out}")
    return 0


SCENES = {"paper": paper_test_scene, "sine": sine_scene,
          "boxcar": boxcar_scene}


def _scene(name: str):
    if name not in SCENES:
        raise ConfigError(f"unknown scene {name!r} (have {sorted(SCENES)})")
    return SCENES[name]()


def _cmd_sample(args) -> int:
    raster = load_raster(args.raster)
    scene = _scene(args.scene)
    if scene.kind == "grid_image":
        samples = quadrature_coeffs(scene, raster)
    else:
        samples = analytic_coeffs(scene, raster)
    if not math.isinf(args.snr):
        samples = add_noise(samples, args.snr, args.seed)
    save_samples(samples, raster, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    raster = load_raster(args.raster)
    samples = load_samples(args.samples, raster)
    window = gaussian_window(args.sigma, args.trunc_eps, dim=raster.dim)
    plan = build_plan(raster, window, args.modes, methods=(args.method,),
                      band=args.band, rtol=args.rtol)
    img = reconstruct(args.method, samples, plan, args.grid)
    os.makedirs(args.out, exist_ok=True)
    save_image_csv(img, os.path.join(args.out, f"recon_{args.method}.csv"))
    save_pgm(img.values, os.path.join(args.out, f"recon_{args.method}.pgm"))
    print(f"reconstructed {args.method} on {img.grid_size} grid -> {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    recon = load_image_csv(args.recon)
    ref = load_image_csv(args.reference)
    value = psnr(recon, ref)
    print(f"psnr_db={value if math.isfinite(value) else 'inf'}")
    print(f"l2_rel={l2_relative(recon, ref):.6g}")
    print(f"linf={linf_error(recon, ref):.6g}")
    if args.error_map:
        emap = error_maps(recon, ref)
        span = emap.values.real - (-16.0)
        save_pgm(span, args.error_map, peak=float(span.max() or 1.0))
    return 0


def _override(config: ExperimentConfig, args) -> ExperimentConfig:
    """Apply the --band/--snr/--method flags of `run` to a config."""
    if args.band is not None:
        config.band = args.band
    if args.snr is not None:
        config.snr_db = args.snr
    if args.method:
        config.methods = tuple(args.method)
    return config


def _cmd_run(args) -> int:
    if args.config:
        with open(args.config) as fh:
            config = ExperimentConfig.from_json(fh.read())
        if args.seed is not None:
            config.seed = args.seed
        reports = run_experiment(_override(config, args), args.out)
        _print_reports(reports)
        return 0
    if not args.preset:
        raise ConfigError("run needs --preset or --config")
    seeds = [args.seed] if args.seed is not None \
        else list(PRESET_SEEDS[args.preset])
    if args.band is not None or args.snr is not None or args.method:
        for s in seeds:
            c = _override(preset_config(args.preset, s), args)
            sub = None if args.out is None else os.path.join(args.out, f"seed{s}")
            reports = run_experiment(c, sub)
            print(f"seed {s}:")
            _print_reports(reports)
        return 0
    result = run_preset(args.preset, seeds, args.out)
    print(f"preset {args.preset}, median over seeds {seeds}:")
    for method, med in result["median"].items():
        extras = ""
        if med["kappa_psi"] is not None:
            extras += f"  kappa_psi={med['kappa_psi']:.3e}"
        if med["kappa_c"] is not None:
            extras += f"  kappa_c={med['kappa_c']:.3e}"
        if med["kept_fraction"] is not None:
            extras += f"  kept={100 * med['kept_fraction']:.3f}%"
        print(f"  {method:>5}: psnr {med['psnr_db']:7.2f} dB  "
              f"l2_rel {med['l2_rel']:.4g}{extras}")
    return 0


def _print_reports(reports) -> None:
    for method, r in reports.items():
        print(f"  {method:>5}: psnr {r.psnr_db:7.2f} dB  l2_rel {r.l2_rel:.4g}"
              f"  (vs scene: {r.psnr_vs_scene_db:.2f} dB)")


def _cmd_sweep(args) -> int:
    out_path = args.out
    if out_path and os.path.isdir(out_path):
        out_path = os.path.join(out_path, f"sweep_{args.axis}.csv")
    seeds = None if args.seed is None else [args.seed]
    result = run_sweep(args.axis, seeds=seeds, out_path=out_path)
    header = "method," + ",".join(f"{args.axis}={v}" for v in result["values"])
    print(header)
    for method, row in result["table"].items():
        print(method + "," + ",".join(f"{v:.6g}" for v in row))
    if out_path:
        print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridfr",
        description="Non-uniform Fourier reconstruction: convolutional "
                    "gridding, frame approximation, and banded (FTCG) "
                    "quadrature, with experiment presets.")
    sub = ap.add_subparsers(dest="command", required=True)

    _add_gen_raster(sub)

    p = sub.add_parser("sample", help="evaluate scene Fourier data on a raster")
    p.add_argument("--raster", required=True)
    p.add_argument("--scene", default="paper")
    p.add_argument("--snr", type=_parse_snr, default=math.inf)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="reconstruct one image from files")
    p.add_argument("--raster", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--method", choices=["cg", "frame", "ftcg"], default="ftcg")
    p.add_argument("--band", type=int, default=None)
    p.add_argument("--modes", type=int, default=None)
    p.add_argument("--sigma", type=float, default=0.125)
    p.add_argument("--trunc-eps", type=float, default=1e-12)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="compare two image CSVs")
    p.add_argument("--recon", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--error-map", default=None, help="write log-error PGM here")

    p = sub.add_parser("run", help="run a preset or config file")
    p.add_argument("--preset", choices=["noisy-grid", "asterisk", "sas-wedge"])
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--band", type=int, default=None)
    p.add_argument("--snr", type=_parse_snr, default=None)
    p.add_argument("--method", action="append",
                   choices=["cg", "frame", "ftcg"])
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="raster-size or band sweep")
    p.add_argument("--axis", choices=["N", "r"], default="N")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    return ap


COMMANDS = {
    "gen-raster": _cmd_gen_raster,
    "sample": _cmd_sample,
    "reconstruct": _cmd_reconstruct,
    "metrics": _cmd_metrics,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
