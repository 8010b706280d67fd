"""One benchmark trial: set a workload up, then time its ops in a closed loop.

A single client sends the next op only after the previous one has
returned.  The trial runs in a process of its own, started by run.py,
which sets the BLAS thread variables before this module imports numpy.
The last line of standard output is one JSON object with the trial's
per-op records; run.py aggregates them.

    python3 bench/worker.py --workload apply --seed 3 --seconds 5 --trial 0

With --seconds 0 the trial only sets up and times no op.

Workloads (run.py's BENCHMARK.json gives the reason for each):

presets   one op is run_preset(name, two pinned seeds, out_dir) for each of
          asterisk, sas-wedge and noisy-grid: assembly, SVDs and artifacts.
apply     set-up builds the three preset plans once and draws 30 dB data
          vectors; one op reconstructs one fresh vector per plan with all
          three methods and scores it.  Vector 0 is noiseless.
sweep-1d  one op is run_sweep("N") then run_sweep("r") on five seeds drawn
          from the benchmark seed: many small 1D plans.
scaling   (traced runs only) one noisy-grid plan build per P = 900, 1600,
          2500 on a jittered grid with sigma = 0.2.

An op's inputs follow from the trial's key and the op's input index j.
In a traced run ops 2j (untraced) and 2j + 1 (traced) share index j, so
each traced op repeats the untraced op before it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from gridfr import harness, recon, sampling
from gridfr.errors import GridfrError
from gridfr.window import gaussian_window

from run import geomean
from tracer import SETUP, Tracer

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_build"

METHODS = ("cg", "frame", "ftcg")
PRESETS = ("asterisk", "sas-wedge", "noisy-grid")
SEEDS_PER_PRESET = 2

# Median PSNR (dB, vs the windowed reference) of the noiseless presets at
# their pinned seeds; a reconstruction more than PSNR_TOL_DB below fails.
PRESET_PSNR_DB = {
    "noisy-grid": {"cg": 20.4, "frame": 68.3, "ftcg": 23.0},
    "asterisk": {"cg": 17.5, "frame": 43.4, "ftcg": 10.8},
    "sas-wedge": {"cg": 19.3, "frame": 11.3, "ftcg": 14.5},
}
PSNR_TOL_DB = 1.5

# Apply reconstructs each plan's noiseless vector (checked against
# PRESET_PSNR_DB, as in presets) and 30 dB noisy vectors.  Some estimators
# amplify that noise a lot (frame on sas-wedge has kappa ~ 1e7), so a noisy
# vector is checked against a floor taken from 3000 noise draws per preset:
# the 1st percentile minus three times its distance below the median (9
# standard deviations below the median for a normal spread), rounded down.
APPLY_SNR_DB = 30.0
APPLY_PSNR_FLOOR_DB = {
    "noisy-grid": {"cg": 19.2, "frame": 34.6, "ftcg": -30.2},
    "asterisk": {"cg": 16.7, "frame": -21.0, "ftcg": -12.8},
    "sas-wedge": {"cg": 16.4, "frame": -61.1, "ftcg": 14.1},
}

# Geometric mean, over the cells of one N sweep plus one r sweep (ftcg),
# of the median l2 error vs the scene: medians over 40 random seed sets.
# An op fails above SWEEP_L2_FACTOR times these.
SWEEP_SEEDS = 5
SWEEP_L2 = {"cg": 0.343, "frame": 0.0199, "ftcg": 0.0868}
SWEEP_L2_FACTOR = 2.0

SCALING_SIDES = (30, 40, 50)     # P = side^2


def psnr_floor_problems(name, method, seed, value, floor):
    if value >= floor:      # False for NaN
        return []
    return [f"{name} seed {seed} {method}: PSNR {value:.2f} dB "
            f"below {floor:.2f} dB"]


class Presets:
    """Full preset runs with artifacts, as `gridfr run --preset X --out D`."""

    def __init__(self, key, presets=PRESETS):
        self.key = key
        self.presets = presets
        self.out = WORK / f"presets-{os.getpid()}"

    def op(self, j):
        l2 = {m: [] for m in METHODS}
        problems = []
        rng = random.Random(f"{self.key}:{j}")
        for name in self.presets:
            seeds = rng.sample(harness.PRESET_SEEDS[name], SEEDS_PER_PRESET)
            result = harness.run_preset(name, seeds,
                                        out_dir=str(self.out / name))
            for method, reports in result["per_seed"].items():
                ref = PRESET_PSNR_DB[name][method]
                for seed, rep in zip(seeds, reports):
                    l2[method].append(rep.l2_rel)
                    problems += psnr_floor_problems(
                        name, method, seed, rep.psnr_db, ref - PSNR_TOL_DB)
        return l2, problems

    def after_op(self):
        """Untimed: count and delete the artifacts the op wrote."""
        size = sum(p.stat().st_size for p in self.out.rglob("*")
                   if p.is_file())
        shutil.rmtree(self.out, ignore_errors=True)
        return {"artifact_bytes": size}

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


@dataclasses.dataclass
class ApplyCase:
    name: str
    config: harness.ExperimentConfig
    plan: recon.ReconPlan
    reference: recon.ImageGrid
    data: list


class Apply:
    """Reuse three prebuilt preset plans on fresh noisy data vectors."""

    def __init__(self, key, seconds, presets=PRESETS):
        # enough vectors for one op per 5 ms; more ops cycle through them
        pool = max(64, int(seconds * 200))
        rng = random.Random(key)
        self.cases = []
        for name in presets:
            # the first pinned seed, as `gridfr run` starts with: the plan
            # stays fixed and only the noise varies with the benchmark seed
            cfg = harness.preset_config(name, harness.PRESET_SEEDS[name][0])
            scene = harness.scene_from_config(cfg.scene, cfg.dim)
            rast, _ = harness.raster_from_config(cfg.raster, cfg.seed)
            win = gaussian_window(cfg.window["sigma"],
                                  cfg.window["trunc_eps"], dim=cfg.dim)
            plan = recon.build_plan(rast, win, cfg.modes, cfg.methods,
                                    band=cfg.band, quad_nodes=cfg.quad_nodes,
                                    rtol=cfg.rtol)
            reference = recon.reference_image(scene, win, plan.modes,
                                              cfg.grid_size)
            clean = sampling.analytic_coeffs(scene, rast)
            data = [clean] + [sampling.add_noise(clean, APPLY_SNR_DB,
                                                 rng.randrange(2**63))
                              for _ in range(pool - 1)]
            self.cases.append(ApplyCase(name, cfg, plan, reference, data))
        self.op(0)      # warm-up: first-call costs belong to set-up

    def op(self, j):
        l2 = {m: [] for m in METHODS}
        problems = []
        i = j % len(self.cases[0].data)
        for case in self.cases:
            for method in case.config.methods:
                img = recon.reconstruct(method, case.data[i], case.plan,
                                        case.config.grid_size)
                value = harness.psnr(img, case.reference)
                l2[method].append(harness.l2_relative(img, case.reference))
                floor = (PRESET_PSNR_DB[case.name][method] - PSNR_TOL_DB
                         if i == 0 else APPLY_PSNR_FLOOR_DB[case.name][method])
                problems += psnr_floor_problems(
                    case.name, method, case.config.seed, value, floor)
        return l2, problems

    def after_op(self):
        return {}

    def close(self):
        pass


class Sweep:
    """`gridfr sweep --axis N` and `--axis r` on seeds drawn per op."""

    def __init__(self, key):
        self.key = key

    def op(self, j):
        base = random.Random(f"{self.key}:{j}").randrange(1, 2**31)
        seeds = tuple(range(base, base + SWEEP_SEEDS))
        n_table = harness.run_sweep("N", seeds)["table"]
        r_table = harness.run_sweep("r", seeds)["table"]
        l2 = {"cg": n_table["cg"], "frame": n_table["frame"],
              "ftcg": n_table["ftcg"] + r_table["ftcg"]}
        problems = []
        for method, cells in l2.items():
            limit = SWEEP_L2[method] * SWEEP_L2_FACTOR
            gmean = geomean(cells)
            if not gmean <= limit:
                problems.append(f"sweep seeds {base}.. {method}: l2 geomean "
                                f"{gmean:.4g} above {limit:.4g}")
        return l2, problems

    def after_op(self):
        return {}

    def close(self):
        pass


def make_workload(name, key, seconds):
    if name == "presets":
        return Presets(key)
    if name == "apply":
        return Apply(key, seconds)
    if name == "sweep-1d":
        return Sweep(key)
    raise SystemExit(f"unknown workload {name!r}")


def run_op(workload, j):
    """Time one op on inputs j; a GridfrError or a missed check fails it."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        l2, problems = workload.op(j)
    except GridfrError as exc:
        l2, problems = {}, [f"inputs {j}: {type(exc).__name__}: {exc}"]
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return {"wall_s": wall, "cpu_s": cpu, "l2": l2, "problems": problems}


def measure(workload, seconds, tracer=None):
    """Closed loop for `seconds`, at least one op (two when traced).

    With a tracer, odd ops run traced and even ops untraced; an odd op
    has the inputs of the even op before it, so each pair gives the
    tracing overhead on the same inputs.
    """
    ops = []
    min_ops = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < deadline:
        k = len(ops)
        traced = tracer is not None and k % 2 == 1
        j = k if tracer is None else k // 2
        if traced:
            tracer.op, first = k, len(tracer.spans)
            with tracer.installed():
                rec = run_op(workload, j)
            rec["layers"] = tracer.layer_totals(k, first)
        else:
            rec = run_op(workload, j)
        rec.update(workload.after_op(), traced=traced)
        ops.append(rec)
    return ops


def run_trial(make, seconds, tracer=None) -> dict:
    """Set a workload up with `make()`, then measure it for `seconds`."""
    with tracer.installed() if tracer else contextlib.nullcontext():
        workload = make()
    try:
        ready = time.monotonic()
        ops = measure(workload, seconds, tracer) if seconds > 0 else []
    finally:
        workload.close()
    out = {"ready_monotonic": ready, "ops": ops}
    if tracer is not None:
        out["setup_layers"] = tracer.layer_totals(SETUP)
    return out


def scaling_series(seed, tracer, sides=SCALING_SIDES):
    """Build the noisy-grid plan once per P on growing jittered grids."""
    base = harness.preset_config("noisy-grid", seed)
    win = gaussian_window(base.window["sigma"], base.window["trunc_eps"],
                          dim=2)
    out = {}
    for i, side in enumerate(sides):
        h = side // 2
        spec = dict(base.raster, extents=[h, h],
                    index_range=[[-h, h - 1], [-h, h - 1]])
        rast, _ = harness.raster_from_config(spec, seed)
        tracer.op = i
        with tracer.installed():
            plan = recon.build_plan(rast, win, [h - 1, h - 1], base.methods,
                                    band=base.band, rtol=base.rtol)
        del plan
        out[f"P{len(rast)}"] = tracer.layer_totals(i)
    return out


def blas_version(config) -> str:
    try:
        return config["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(np.show_config(mode="dicts")),
        "scipy_openblas": blas_version(scipy.show_config(mode="dicts")),
    }


def trial_key(workload, seed, trial):
    return f"{workload}:{seed}:{trial}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trial", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    scaling = args.workload == "scaling"
    tracer = Tracer() if args.trace or scaling else None
    result = {"env": environment()}
    if scaling:
        seed = random.Random(trial_key("scaling", args.seed, 0)).choice(
            harness.PRESET_SEEDS["noisy-grid"])
        result["scaling"] = scaling_series(seed, tracer)
    else:
        key = trial_key(args.workload, args.seed, args.trial)
        result.update(run_trial(
            lambda: make_workload(args.workload, key, args.seconds),
            args.seconds, tracer))
    if tracer is not None:
        (WORK / "trace").mkdir(exist_ok=True)
        tracer.dump(WORK / "trace" /
                    f"{args.workload}-seed{args.seed}-{os.getpid()}.json")
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
