"""Command line interface.

Subcommands: gen-raster, sample, reconstruct, metrics, run, sweep.
Exit codes: 0 success, 2 configuration/format error, 3 numerical
failure (rank collapse).  Warnings logged to the ``gridfr`` logger while
a command runs print to stderr as ``warning: ...`` lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys

from .errors import ConfigError, FormatError, NumericalError
from .harness import (PRESET_SEEDS, PRESETS, RASTER_KEYS, SWEEPS,
                      ExperimentConfig, fourier_data, l2_relative, linf_error,
                      psnr, raster_from_config, run_experiment, run_preset,
                      run_sweep, save_error_map, scene_from_config)
from .raster import load_raster, save_raster
from .recon import (METHODS, build_plan, load_image_csv, reconstruct,
                    save_image_csv, save_pgm)
from .sampling import load_samples, save_samples
from .window import gaussian_window


# gen-raster's kinds as raster spec kinds; its other flags are spec keys
RASTER_KINDS = {"jittered": "jittered_grid", "asterisk": "asterisk",
                "sas-wedge": "sas_wedge"}


def _add_gen_raster(sub):
    p = sub.add_parser("gen-raster", help="generate a raster CSV")
    p.add_argument("--kind", required=True, choices=list(RASTER_KINDS))
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
    kind = RASTER_KINDS[args.kind]
    required, optional = RASTER_KEYS[kind]
    keys = {*required, *optional, "rescale_to"}
    spec = {k: v for k, v in vars(args).items() if k in keys}
    r, _ = raster_from_config({"kind": kind, **spec}, args.seed)
    save_raster(r, args.out)
    print(f"wrote {len(r)} points to {args.out}")
    return 0


# sample's scene names as scene specs
SCENES = {"paper": {"kind": "paper_test_fn"}, "sine": {"kind": "sine"},
          "boxcar": {"kind": "boxcar"}}


def _cmd_sample(args) -> int:
    raster = load_raster(args.raster)
    scene = scene_from_config(SCENES[args.scene], raster.dim)
    samples = fourier_data(scene, raster, args.snr, args.seed)
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
        save_error_map(recon, ref, args.error_map)
    return 0


def _overrides(args) -> dict:
    """The config fields set by the --band/--snr/--method flags of `run`."""
    out = {"band": args.band, "snr_db": args.snr,
           "methods": args.method and tuple(args.method)}
    return {k: v for k, v in out.items() if v is not None}


def _cmd_run(args) -> int:
    overrides = _overrides(args)
    if args.config:
        with open(args.config) as fh:
            config = ExperimentConfig.from_json(fh.read())
        if args.seed is not None:
            config.seed = args.seed
        reports = run_experiment(dataclasses.replace(config, **overrides),
                                 args.out)
        _print_reports(reports)
        return 0
    if not args.preset:
        raise ConfigError("run needs --preset or --config")
    seeds = [args.seed] if args.seed is not None \
        else list(PRESET_SEEDS[args.preset])
    result = run_preset(args.preset, seeds, args.out, overrides)
    if overrides:
        for i, s in enumerate(seeds):
            print(f"seed {s}:")
            _print_reports({m: reps[i]
                            for m, reps in result["per_seed"].items()})
        return 0
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
    print("method," + ",".join(f"{args.axis}={v}" for v in result["values"]))
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
    p.add_argument("--scene", choices=sorted(SCENES), default="paper")
    p.add_argument("--snr", type=float, default=math.inf)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="reconstruct one image from files")
    p.add_argument("--raster", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--method", choices=METHODS, default="ftcg")
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
    p.add_argument("--preset", choices=list(PRESETS))
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--band", type=int, default=None)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--method", action="append", choices=METHODS)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="raster-size or band sweep")
    p.add_argument("--axis", choices=list(SWEEPS), default="N")
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
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logging.getLogger("gridfr").addHandler(handler)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        logging.getLogger("gridfr").removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
