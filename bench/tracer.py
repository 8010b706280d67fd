"""In-memory spans around calls into gridfr's public functions.

`Tracer.installed()` replaces module attributes of gridfr with timing
wrappers for the length of a `with` block, so the calls the package
makes between its own modules (build_plan -> build_psi, reconstruct ->
coefficients, run_experiment -> psnr, ...) are recorded as nested spans
from the benchmark's side.  No file of the package changes, and with
tracing off nothing is patched.

A span's self time is its duration minus the time its child spans
cover.  Spans of one op share the op's index; set-up spans carry -1.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass

from gridfr import harness, recon, sampling

SETUP = -1

# (module, attribute, span name); the same function is wrapped in every
# namespace it is called through.
TARGETS = (
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "jittered_grid", "raster.generate"),
    (harness, "asterisk", "raster.generate"),
    (harness, "sas_wedge", "raster.generate"),
    (harness, "rescale_to_box", "raster.generate"),
    (harness, "analytic_coeffs", "sampling.analytic_coeffs"),
    (sampling, "analytic_coeffs", "sampling.analytic_coeffs"),
    (harness, "add_noise", "sampling.add_noise"),
    (sampling, "add_noise", "sampling.add_noise"),
    (harness, "build_plan", "recon.build_plan"),
    (recon, "build_plan", "recon.build_plan"),
    (recon, "build_psi", "recon.build_psi"),
    (recon, "psi_quadrature_drift", "recon.psi_quadrature_drift"),
    (recon, "build_omega", "recon.build_omega"),
    (recon, "density_weights", "numerics.density_weights"),
    (recon, "pseudo_inverse", "numerics.pseudo_inverse"),
    (recon, "coefficients", "recon.coefficients"),
    (recon, "synthesize", "recon.synthesize"),
    (harness, "reference_image", "recon.reference_image"),
    (recon, "reference_image", "recon.reference_image"),
    (harness, "psnr", "harness.metrics"),
    (harness, "l2_relative", "harness.metrics"),
    (harness, "linf_error", "harness.metrics"),
    (harness, "error_maps", "harness.artifacts"),
    (harness, "save_raster", "harness.artifacts"),
    (harness, "save_samples", "harness.artifacts"),
    (harness, "save_image_csv", "harness.artifacts"),
    (harness, "save_pgm", "harness.artifacts"),
    (harness, "save_magnitude_csv", "harness.artifacts"),
)

# plan.meta["timings"] stages; build_plan time outside them is unattributed
PLAN_STAGES = ("psi", "omega", "frame_pinv", "ftcg_pinv")
PLAN_ARRAYS = ("psi", "omega", "bmat", "tmat", "cmat")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    op: int
    child_s: float = 0.0
    info: dict | None = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def plan_info(plan) -> dict:
    """Counts the benchmark reads off a finished ReconPlan."""
    meta = plan.meta
    psi_pinv, c_pinv = meta.get("psi_pinv"), meta.get("c_pinv")
    return {
        "timings": {k: meta["timings"].get(k, 0.0) for k in PLAN_STAGES},
        "plan_bytes": sum(getattr(plan, a).nbytes for a in PLAN_ARRAYS
                          if getattr(plan, a) is not None),
        "rank_psi": psi_pinv.rank if psi_pinv else 0,
        "rank_t": c_pinv.rank if c_pinv else 0,
        "kappa_psi": meta.get("kappa_psi") or 0.0,
        "kappa_t": meta.get("kappa_masked_t") or 0.0,
    }


class Tracer:
    """Span recorder; `op` is set by the caller before each op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = SETUP
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.end - span.start
        if name == "recon.build_plan":
            span.info = plan_info(result)
        return result

    def _wrap(self, name, fn):
        if name == "recon.coefficients":
            def wrapper(plan, samples, method=None):
                label = method if method is not None else plan.methods[0]
                return self.call(f"{name}.{label}", fn,
                                 (plan, samples, method), {})
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Route calls through the span wrappers inside the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for (mod, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def layer_totals(self, op: int, first: int = 0) -> dict:
        """Seconds per span name (inclusive) and plan counts of one op,
        looking at spans from index `first` on."""
        out: dict = {}
        for s in self.spans[first:]:
            if s.op != op:
                continue
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
            if s.info is not None:
                add_plan(out, s.end - s.start, s.info)
        return out

    def dump(self, path) -> None:
        """Write every span, with its self time, as JSON."""
        rows = [dict(asdict(s), self_s=s.self_s) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def add_plan(out: dict, build_s: float, info: dict) -> None:
    """Fold one plan build into per-op totals: sums, and max for kappa."""
    t = info["timings"]
    for key, value in (
            ("numerics.pseudo_inverse.psi", t["frame_pinv"]),
            ("numerics.pseudo_inverse.t", t["ftcg_pinv"]),
            ("recon.build_plan.unattributed", build_s - sum(t.values())),
            ("recon.plan_bytes", info["plan_bytes"]),
            ("numerics.rank_psi", info["rank_psi"]),
            ("numerics.rank_t", info["rank_t"])):
        out[key] = out.get(key, 0) + value
    for key in ("kappa_psi", "kappa_t"):
        out[f"numerics.{key}"] = max(out.get(f"numerics.{key}", 0.0),
                                     info[key])
