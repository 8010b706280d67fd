"""Fast self-test of the benchmark (a few seconds).

    python3 bench/selftest.py

Runs shrunken variants of each workload in this process (asterisk only
for presets and apply, small grids for the P-scaling series) and checks:

* the end-to-end metric names equal BENCHMARK.json's, with finite values;
* every per-layer metric is fed by a span or count that some workload's
  traced run records, and the scaling series yields every scaling metric;
* an injected failing op raises the failed fraction without ending the run,
  and a NaN PSNR, a NaN sweep cell or an all-zero image fails its op;
* run.py exits non-zero, printing nothing, when the gridfr sources are
  missing.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (stdlib only; sets nothing up on import)

os.environ.update(run.worker_env(len(os.sched_getaffinity(0))))

import numpy as np  # noqa: E402  (after the thread variables)
import worker  # noqa: E402
from gridfr.errors import NumericalError  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SIDES = (6, 8)


def tiny(name, key):
    if name == "presets":
        return worker.Presets(key, presets=("asterisk",))
    if name == "apply":
        return worker.Apply(key, 0.5, presets=("asterisk",))
    return worker.Sweep(key)


def trial(name, traced):
    """One in-process trial shaped like worker.py's output."""
    spawned = time.monotonic()
    out = worker.run_trial(lambda: tiny(name, f"selftest:{name}"), 0.3,
                           Tracer() if traced else None)
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out, out["ready_monotonic"] - spawned


def nan_sweep(axis, seeds):
    """A run_sweep stand-in whose ftcg table has a NaN cell."""
    return {"table": {"cg": [0.3, 0.3], "frame": [0.02, 0.02],
                      "ftcg": [0.08, math.nan]}}


def zero_reconstruct(method, samples, plan, grid_size):
    """A recon.reconstruct stand-in that returns an all-zero image."""
    return worker.recon.ImageGrid(np.zeros(grid_size, complex), grid_size)


class FailingEveryOther:
    """Wraps a workload so that every odd op raises a GridfrError."""

    def __init__(self, inner):
        self.inner = inner

    def op(self, k):
        if k % 2:
            raise NumericalError("injected failure")
        return self.inner.op(k)

    def after_op(self):
        return self.inner.after_op()

    def close(self):
        self.inner.close()


def check(cond, message, errors):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        errors.append(message)


def main() -> int:
    errors = []
    e2e_names = {m["name"] for m in SPEC["end_to_end"]}
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    workload_layers = [n for n in layer_names + list(run.PARTIAL_LAYERS)
                       if not n.startswith("scaling.")
                       and n not in ("trace.overhead_s",
                                     "harness.artifact_bytes")]
    check({w["name"] for w in SPEC["workloads"]}
          == {"presets", "apply", "sweep-1d"},
          "BENCHMARK.json names the three workloads", errors)

    recorded = set()
    for name in ("presets", "apply", "sweep-1d"):
        t, setup = trial(name, traced=False)
        ops, metrics, _ = run.end_to_end([t], [setup])
        check(set(metrics) == e2e_names,
              f"{name}: end-to-end names match BENCHMARK.json", errors)
        check(all(math.isfinite(v) and v > 0 for v in metrics.values()),
              f"{name}: end-to-end values finite and positive", errors)
        check(not run.failed_ops(ops), f"{name}: no op failed", errors)

        t, _ = trial(name, traced=True)
        ops, metrics, _ = run.per_layer(workload_layers + ["trace.overhead_s"],
                                        t, {})
        check(any(op["traced"] for op in ops) and
              any(not op["traced"] for op in ops),
              f"{name}: traced run mixes traced and untraced ops", errors)
        for source in [op["layers"] for op in ops if op["traced"]] + \
                [t["setup_layers"]]:
            recorded |= set(source)
    missing = [n for n in workload_layers if run.layer_key(n) not in recorded]
    check(not missing, f"every per-layer metric is recorded {missing}",
          errors)

    series = worker.scaling_series(101, Tracer(), sides=TINY_SIDES)
    want = {n.split(".", 2)[2] for n in layer_names if n.startswith("scaling.")}
    check(all({run.layer_key(n) for n in want} <= set(layers)
              for layers in series.values()),
          "the scaling series records every scaling metric", errors)
    sizes = {n.split(".")[1] for n in layer_names if n.startswith("scaling.")}
    check(sizes == {f"P{s * s}" for s in worker.SCALING_SIDES},
          "BENCHMARK.json scaling sizes match worker.SCALING_SIDES", errors)

    ops = worker.measure(FailingEveryOther(tiny("apply", "selftest:inject")),
                         0.2)
    check(len(ops) >= 2 and len(run.failed_ops(ops)) == len(ops) // 2,
          "an injected failing op counts as failed and the run goes on",
          errors)
    check(worker.psnr_floor_problems("x", "cg", 0, math.nan, 0.0) != [],
          "a NaN PSNR misses its check", errors)
    real_sweep, worker.harness.run_sweep = worker.harness.run_sweep, nan_sweep
    try:
        rec = worker.run_op(worker.Sweep("selftest:nan"), 0)
    finally:
        worker.harness.run_sweep = real_sweep
    _, metrics, _ = run.end_to_end(
        [{"ops": [rec], "peak_rss_mb": 1.0}], [1.0])
    check(rec["problems"] != [] and math.isnan(metrics["l2_rel.ftcg"]),
          "a NaN sweep cell fails its op and makes l2_rel NaN", errors)
    apply = tiny("apply", "selftest:zero")
    real_recon, worker.recon.reconstruct = (worker.recon.reconstruct,
                                            zero_reconstruct)
    try:
        rec = worker.run_op(apply, 0)
    finally:
        worker.recon.reconstruct = real_recon
    check(rec["problems"] != [],
          "an all-zero image on apply's noiseless vector fails its op", errors)

    bare = worker.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "apply", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and proc.stdout == "",
          "run.py without the gridfr sources exits non-zero silently", errors)

    print(f"{len(errors)} failed check(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
