"""gridfr benchmark: one workload, end to end or layer by layer.

    python3 bench/run.py --workload {presets,apply,sweep-1d} --seed N \\
        --seconds S --trace {0,1}

--trace 0  TRIALS fresh worker processes (worker.py) each set the workload
           up and then time its ops for S / TRIALS seconds, but at least
           one op: a presets op takes ~11 s, so a presets run is TRIALS
           ops whatever S.  Workers that only set up add set-up samples
           (SETUP_SAMPLES).  Prints every end_to_end metric of
           BENCHMARK.json.
--trace 1  one worker times S seconds of ops, every other op traced, and a
           second worker builds the P-scaling plans.  Prints every
           per_layer metric of BENCHMARK.json (layers only some workloads
           enter go to the detail record); spans go to .bench_build/trace/.

Standard output ends with two JSON lines: a detail record (environment,
sample counts, tail latency, failed ops) and the result
{"correct", "attempted", "failed", "metrics"}.  The worker processes get
the BLAS thread variables pinned to the number of usable cores before
they import numpy.  Without the gridfr sources in src/ next to this
directory the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRIALS = 3
# A cheap set-up (imports only, ~0.25 s) is sampled more often, by workers
# that set up and exit, up to SETUP_SAMPLES set-ups or SETUP_BUDGET_S.
SETUP_SAMPLES = 9
SETUP_BUDGET_S = 4.0
DEADLINE_S = 175.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# ten samples beyond the 99th percentile; only apply has that many ops
P99_MIN_OPS = 1000
# Layers that only some workloads enter (noisy data: apply and sweep-1d;
# artifacts: presets).  They read exactly 0 elsewhere, so they go to the
# detail record instead of BENCHMARK.json's per_layer list.
PARTIAL_LAYERS = {"sampling.add_noise_s": "s", "harness.artifacts_s": "s",
                  "harness.artifact_bytes": "bytes"}


def fail(message: str, code: int = 1):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}", 2)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list, env: dict, deadline: float):
    """Run one worker to completion; returns (its result, spawn time)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], env=env,
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        fail(f"worker {args} did not finish before the deadline")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker {args} exited with status {proc.returncode}")
    return json.loads(lines[-1]), t0


def geomean(values) -> float:
    """Geometric mean; NaN when a value is NaN or negative, 0 for a 0."""
    values = list(values)
    if not values or not all(v >= 0 for v in values):
        return math.nan
    return math.exp(statistics.fmean(math.log(v) if v > 0 else -math.inf
                                     for v in values))


def end_to_end(trials, setups):
    ops = [op for t in trials for op in t["ops"]]
    walls = [op["wall_s"] for op in ops]
    metrics, samples = {}, {}

    def put(name, value, n):
        metrics[name], samples[name] = value, n

    put("setup_s", statistics.median(setups), len(setups))
    put("wall_s", statistics.median(walls), len(walls))
    put("cpu_s", statistics.median(op["cpu_s"] for op in ops), len(ops))
    put("peak_rss_mb", statistics.median(t["peak_rss_mb"] for t in trials),
        len(trials))
    for method in ("cg", "frame", "ftcg"):
        l2 = [v for op in ops for v in op["l2"].get(method, ())]
        put(f"l2_rel.{method}", geomean(l2), len(l2))
    extra = {"samples": samples}
    if len(walls) >= P99_MIN_OPS:
        extra["wall_s.p99"] = {
            "value": statistics.quantiles(walls, n=100)[98], "unit": "s",
            "samples": len(walls)}
    return ops, metrics, extra


def failed_ops(ops) -> list:
    """Ops that raised a GridfrError or missed their output check."""
    return [op for op in ops if op["problems"]]


def layer_key(name: str) -> str:
    return name[:-2] if name.endswith("_s") else name


def per_layer(names, trial, scaling):
    """Per-op medians over the traced ops; set-up for set-up-only layers."""
    ops = trial["ops"]
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(
                t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced))
        elif name == "harness.artifact_bytes":
            metrics[name] = statistics.median(
                op.get("artifact_bytes", 0) for op in traced)
        elif name.startswith("scaling."):
            _, size, layer = name.split(".", 2)
            metrics[name] = scaling[size].get(layer_key(layer), 0.0)
        else:
            key = layer_key(name)
            if any(key in op["layers"] for op in traced):
                metrics[name] = statistics.median(
                    op["layers"].get(key, 0.0) for op in traced)
            else:
                metrics[name] = trial["setup_layers"].get(key, 0.0)
    # trace.overhead_s is a median over op pairs on the same inputs
    extra = {"samples": {"traced_ops": len(traced), "untraced_ops": len(plain),
                         "trace.overhead_s": min(len(traced), len(plain))}}
    return ops, metrics, extra


def main(argv=None) -> int:
    started = time.monotonic()
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="gridfr benchmark")
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gridfr" / "__init__.py").is_file():
        fail(f"gridfr sources not found under {ROOT / 'src'}", 2)

    deadline = started + DEADLINE_S
    threads = len(os.sched_getaffinity(0))
    env = worker_env(threads)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        trial, _ = spawn(common + ["--seconds", str(args.seconds),
                                   "--trace", "1"], env, deadline)
        scaling, _ = spawn(["--workload", "scaling", "--seed",
                            str(args.seed), "--seconds", "0"], env, deadline)
        wanted = spec["per_layer"]
        ops, metrics, extra = per_layer(
            [m["name"] for m in wanted] + list(PARTIAL_LAYERS), trial,
            scaling["scaling"])
        extra["partial_layers"] = {
            name: {"value": metrics.pop(name), "unit": unit}
            for name, unit in PARTIAL_LAYERS.items()}
        worker_record = trial["env"]
    else:
        wanted = spec["end_to_end"]
        trials, setups = [], []
        while len(setups) < TRIALS or (len(setups) < SETUP_SAMPLES
                                       and sum(setups) < SETUP_BUDGET_S):
            timed = len(setups) < TRIALS
            t, t0 = spawn(common + [
                "--seconds", str(args.seconds / TRIALS if timed else 0),
                "--trial", str(len(setups))], env, deadline)
            setups.append(t["ready_monotonic"] - t0)
            if timed:
                trials.append(t)
        ops, metrics, extra = end_to_end(trials, setups)
        worker_record = trials[0]["env"]

    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        fail(f"metric names differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(units))}")
    failed = failed_ops(ops)
    detail = dict(
        workload=args.workload, seconds=args.seconds, trace=args.trace,
        env=dict(worker_record, python=platform.python_version(),
                 nproc=os.cpu_count(), usable_cores=threads,
                 blas_threads={v: env[v] for v in THREAD_VARS},
                 git_commit=git_commit(), seed=args.seed),
        failed_frac=len(failed) / len(ops),
        problems=[p for op in failed for p in op["problems"]][:10],
        **extra)
    result = {
        "correct": not failed and all(map(math.isfinite, metrics.values())),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
