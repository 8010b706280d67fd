import collections
import dataclasses
import io
import json
import math
import os
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridfr import (ConfigError, ExperimentConfig, ImageGrid, build_plan,
                    error_maps, harness, load_raster, load_samples,
                    preset_config, psnr, recon, reconstruct, run_experiment,
                    run_preset, run_sweep, save_image_csv, save_raster,
                    save_samples)
from gridfr.harness import (METRIC_COLUMNS, RASTER_KEYS, SCENE_KEYS,
                            WINDOW_KEYS, fourier_data, raster_from_config,
                            rsweep_config, scene_from_config, sweep_config,
                            window_from_config)
from gridfr.numerics import default_band


def grid(vals):
    vals = np.asarray(vals, dtype=complex)
    return ImageGrid(values=vals, grid_size=vals.shape)


def test_psnr_identical_flagged_infinite():
    g = grid(np.ones((8, 8)))
    assert math.isinf(psnr(g, g))


def test_psnr_formula():
    ref = grid(np.ones((10, 10)))
    rec = grid(np.ones((10, 10)) * 0.9)
    assert psnr(rec, ref) == pytest.approx(20.0, abs=1e-12)


def test_psnr_shape_mismatch():
    with pytest.raises(ConfigError, match="^PSNR needs matching grids$"):
        psnr(grid(np.ones(4)), grid(np.ones(5)))


@pytest.mark.parametrize("metric", [psnr, harness.l2_relative,
                                    harness.linf_error, error_maps])
def test_metrics_reject_mismatched_grids(metric):
    # a 1-pixel image would broadcast against a 4-pixel reference
    with pytest.raises(ConfigError, match="needs matching grids"):
        metric(grid([1.0]), grid([0.0, 1.0, 2.0, 3.0]))


# parts are 0 or of magnitude 1e-3..1e3, so no square of a difference
# underflows and a sum of at most 64 of them rounds well below 1e-13
_PART = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
_IMAGES = hnp.array_shapes(min_dims=1, max_dims=2, max_side=8).flatmap(
    lambda shape: st.tuples(*[hnp.arrays(np.complex128, shape,
                                         elements=st.builds(complex, _PART,
                                                            _PART))] * 2))


def _exact_square_sum(z) -> Fraction:
    return sum((Fraction(v.real) ** 2 + Fraction(v.imag) ** 2 for v in z.flat),
               Fraction(0))


@settings(max_examples=100, deadline=None)
@given(images=_IMAGES)
def test_psnr_and_l2_match_textbook_formulas(images):
    rec, ref = images
    assume(np.any(ref != 0))
    diff = [complex(Fraction(a.real) - Fraction(b.real),
                    Fraction(a.imag) - Fraction(b.imag))
            for a, b in zip(rec.flat, ref.flat)]
    sq = _exact_square_sum(np.array(diff))
    peak = max(abs(v) for v in ref.flat)
    value = psnr(grid(rec), grid(ref))
    if sq == 0:
        assert value == math.inf
    else:
        # mse = mean |rec - ref|^2, recovered from 20 log10(peak / rms)
        mse = (peak * 10.0 ** (-value / 20.0)) ** 2
        assert mse == pytest.approx(float(sq / rec.size), rel=1e-13)
    expected = math.sqrt(sq / _exact_square_sum(ref))
    assert harness.l2_relative(grid(rec), grid(ref)) == \
        pytest.approx(expected, rel=1e-13, abs=0.0)
    g = grid(ref)
    assert psnr(g, g) == math.inf and harness.l2_relative(g, g) == 0.0


@settings(max_examples=100, deadline=None)
@given(v=hnp.arrays(np.complex128,
                    hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
                    elements=st.complex_numbers(allow_nan=False,
                                                allow_infinity=False,
                                                max_magnitude=1e150)))
def test_image_peak_and_norm(v):
    g = grid(v)
    assert g.peak == np.abs(v).max()
    assert g.norm == np.linalg.norm(v)
    assert g.peak is g.peak and g.norm is g.norm     # taken once


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                 complex(-np.inf, 1.0)])
def test_image_rejects_non_finite_values(bad):
    vals = np.ones((3, 4), complex)
    vals[2, 1] = bad
    with pytest.raises(ConfigError, match="non-finite image values"):
        grid(vals)
    # finite values whose sum overflows are accepted, read-only
    g = grid(np.full((3, 4), 1e308 + 1e308j))
    assert not g.values.flags.writeable


def test_zero_reference_is_a_config_error():
    zero = grid(np.zeros(4))
    for rec in (zero, grid(np.ones(4))):
        for metric in (psnr, harness.l2_relative):
            with pytest.raises(ConfigError, match="reference is zero"):
                metric(rec, zero)


def test_error_map_floor_and_values():
    # the floor is 1e-9 of the reference's peak, here 4
    a = grid(np.full((4, 4), 4.0))
    m = error_maps(a, a)
    np.testing.assert_allclose(m.values.real, np.log10(4e-9), rtol=0, atol=1e-12)
    b = grid(np.full((4, 4), 4.01))
    m = error_maps(b, a)
    np.testing.assert_allclose(m.values.real, -2.0, atol=1e-12)
    assert m.values.shape == (4, 4)
    # differences at rounding level read as the floor, one above it does not
    offsets = np.array([2.0**-29, 2.0**-27, 2.0**-20, 0.0])    # exact on 4.0
    c = grid(np.full((4, 4), 4.0) + offsets)
    np.testing.assert_allclose(error_maps(c, a).values.real[0],
                               np.log10([4e-9, 2.0**-27, 2.0**-20, 4e-9]),
                               rtol=0, atol=1e-12)
    with pytest.raises(ConfigError, match="reference is zero"):
        error_maps(a, grid(np.zeros((4, 4))))


def test_config_round_trip():
    cfg = preset_config("noisy-grid", 101)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert back.to_json() == cfg.to_json()


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"name": "x"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**json.loads(preset_config(
            "asterisk", 1).to_json()), "bogus_key": 1})


@pytest.mark.parametrize("snr", [math.nan, -math.inf, "nan", "-inf"])
def test_config_rejects_nan_and_negative_infinite_snr(snr):
    d = {**json.loads(preset_config("asterisk", 1).to_json()), "snr_db": snr}
    with pytest.raises(ConfigError, match="snr_db"):
        ExperimentConfig.from_dict(d)
    # +inf is noiseless, however it is spelled
    for inf in ("inf", math.inf, None):
        assert ExperimentConfig.from_dict({**d, "snr_db": inf}).snr_db == \
            math.inf


def test_scene_from_config_kinds():
    assert scene_from_config({"kind": "paper_test_fn"}, 2).kind == "paper_test_fn"
    assert scene_from_config({"kind": "sine"}, 1).dim == 1
    assert scene_from_config({"kind": "boxcar", "npix": 32}, 1).pixels.size == 32
    tp = scene_from_config({"kind": "trig_poly",
                            "coefficients": {"1": [0.0, -0.5],
                                             "-1": [0.0, 0.5]}}, 1)
    assert tp.coefficients[1] == -0.5j
    with pytest.raises(ConfigError):
        scene_from_config({"kind": "nope"}, 1)


def test_scene_spec_unknown_key():
    with pytest.raises(ConfigError, match="'low'"):
        scene_from_config({"kind": "boxcar", "low": 0.1}, 1)


def test_raster_spec_unknown_key():
    with pytest.raises(ConfigError, match="'jiter'"):
        raster_from_config({"kind": "jittered_grid", "extents": 8,
                            "jiter": 0.1}, 5)


def test_window_spec_unknown_key():
    cfg = small_config()
    cfg.window = {**cfg.window, "sigam": 0.2}
    with pytest.raises(ConfigError, match="'sigam'"):
        run_experiment(cfg)


SPEC_BUILDERS = {"scene": (SCENE_KEYS, lambda s: scene_from_config(s, 1)),
                 "raster": (RASTER_KEYS, lambda s: raster_from_config(s, 0)),
                 "window": (WINDOW_KEYS, lambda s: window_from_config(s, 1))}


@pytest.mark.parametrize("what, kind, key", [
    (what, kind, key) for what, (kinds, _) in SPEC_BUILDERS.items()
    for kind, (required, _) in kinds.items() for key in required])
def test_spec_missing_required_key(what, kind, key):
    kinds, build = SPEC_BUILDERS[what]
    spec = {k: 1 for k in kinds[kind][0] if k != key}
    if kind is not None:
        spec["kind"] = kind
    with pytest.raises(ConfigError, match=f"missing {what} keys: .*'{key}'"):
        build(spec)


def test_spec_not_an_object():
    with pytest.raises(ConfigError, match="raster spec must be an object"):
        raster_from_config([8], 0)


def test_jittered_raster_spec_rescales():
    rast, transform = raster_from_config(
        {"kind": "jittered_grid", "extents": 8, "rescale_to": [4]}, 5)
    assert transform is not None
    assert rast.max_abs()[0] == pytest.approx(4.0, rel=1e-12)


def small_config(seed=3):
    return ExperimentConfig(
        name="tiny", dim=1,
        scene={"kind": "sine"},
        raster={"kind": "jittered_grid", "extents": 8, "jitter": 0.25},
        window={"sigma": 0.125, "trunc_eps": 1e-12},
        modes=8, methods=("cg", "frame", "ftcg"), band=3,
        grid_size=64, rtol=None, snr_db=math.inf, seed=seed)


def test_run_experiment_reports():
    reports = run_experiment(small_config())
    assert set(reports) == {"cg", "frame", "ftcg"}
    assert reports["frame"].psnr_db > 40.0
    assert reports["ftcg"].kept_fraction == pytest.approx((5 * 17 - 6) / 17**2)
    for r in reports.values():
        assert r.l2_rel >= 0.0
        assert math.isfinite(r.psnr_vs_scene_db)


def test_run_experiment_artifacts(tmp_path):
    out = tmp_path / "run"
    run_experiment(small_config(), str(out))
    names = sorted(os.listdir(out))
    for expected in ("resolved_config.json", "raster.csv", "samples.csv",
                     "reference.csv", "reference.pgm", "scene.pgm",
                     "recon_cg.csv", "recon_cg.pgm", "recon_frame.csv",
                     "recon_ftcg.csv", "error_frame.pgm", "tmatrix.csv",
                     "tmatrix.pgm", "metrics.csv", "timings.json"):
        assert expected in names
    cfg_back = ExperimentConfig.from_json(
        (out / "resolved_config.json").read_text())
    # the config as given, with the plan's default node count filled in
    assert cfg_back == dataclasses.replace(small_config(), quad_nodes=384)
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[2] == ",".join(METRIC_COLUMNS)
    assert "kappa_masked_t" not in metrics[2]
    # the kept entries of the 17-point system at r=3: 5 per row less 6
    tmatrix = (out / "tmatrix.csv").read_text().splitlines()
    assert tmatrix[0] == "# gridfr-tmatrix v1, order=17, band=3"
    assert len(tmatrix) == 1 + 5 * 17 - 6


def test_resolved_config_names_the_plan_defaults(tmp_path):
    # a 1D config that leaves the mode box, band and node count to the plan
    # resolves to the integers the plan used, tmatrix.csv's band among
    # them, and replays bit for bit from them
    config = dataclasses.replace(small_config(), modes=None, band=None)
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(config, str(a))
    resolved = json.loads((a / "resolved_config.json").read_text())
    for key in ("modes", "band", "quad_nodes"):
        assert isinstance(resolved[key], int), key
    header = (a / "tmatrix.csv").read_text().splitlines()[0]
    assert header.endswith(f", band={resolved['band']}")
    run_experiment(ExperimentConfig.from_dict(resolved), str(b))
    names = ["metrics.csv", "tmatrix.csv",
             *(f"recon_{m}.csv" for m in config.methods)]
    assert [n for n in names
            if (a / n).read_bytes() != (b / n).read_bytes()] == []


def test_copied_seed_writes_its_resolved_config(tmp_path):
    # a seed that copies the previous seed's artifacts still writes its
    # own resolved config, with the plan's node count
    run_preset("asterisk", (101, 102), str(tmp_path))
    first, second = (json.loads((tmp_path / f"seed{s}" /
                                 "resolved_config.json").read_text())
                     for s in (101, 102))
    assert second["seed"] == 102 and isinstance(second["quad_nodes"], int)
    assert {**first, "seed": 102} == second


@pytest.mark.parametrize("name", ["asterisk", "noisy-grid", "sas-wedge"])
def test_csv_bytes_match_savetxt(tmp_path, name):
    # each preset's seed-101 raster, samples and ftcg image: their savers
    # write the bytes np.savetxt writes for the same float rows
    cfg = preset_config(name, 101)
    raster, _ = raster_from_config(cfg.raster, cfg.seed)
    samples = fourier_data(scene_from_config(cfg.scene, cfg.dim), raster,
                           cfg.snr_db, cfg.seed + harness.NOISE_SEED_OFFSET)
    plan = build_plan(raster, window_from_config(cfg.window, cfg.dim),
                      cfg.modes, ("ftcg",), band=cfg.band,
                      quad_nodes=cfg.quad_nodes, rtol=cfg.rtol)
    img = reconstruct("ftcg", samples, plan, cfg.grid_size)
    pts = raster.points.reshape(len(raster), -1)
    seed = "none" if raster.seed is None else raster.seed
    cases = {
        "raster": (lambda path: save_raster(raster, path), pts,
                   f"dim=2, kind={raster.kind}, seed={seed}"),
        "samples": (lambda path: save_samples(samples, raster, path),
                    np.column_stack([pts, samples.values.real,
                                     samples.values.imag]),
                    f"raster={raster.raster_id}"),
        "image": (lambda path: save_image_csv(img, path),
                  np.hstack([img.values.real, img.values.imag]),
                  "shape=128x128, method=ftcg"),
    }
    for kind, (save, rows, fields) in cases.items():
        save(tmp_path / "saved.csv")
        np.savetxt(tmp_path / "savetxt.csv", rows, fmt="%.17g",
                   delimiter=",", header=f"gridfr-{kind} v1, {fields}")
        # compared first: a diff of two image files takes minutes
        same = ((tmp_path / "saved.csv").read_bytes()
                == (tmp_path / "savetxt.csv").read_bytes())
        assert same, kind


@pytest.mark.parametrize("config", [
    pytest.param(small_config(), id="tiny"),
    pytest.param(preset_config("asterisk", 101), id="asterisk"),
    pytest.param(preset_config("sas-wedge", 101), id="sas-wedge"),
])
def test_run_bit_reproducible(tmp_path, config):
    # a run replays bit for bit from its resolved_config.json, and its
    # images from its raster.csv and samples.csv
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(config, str(a))
    run_experiment(ExperimentConfig.from_json(
        (a / "resolved_config.json").read_text()), str(b))
    recons = [f"recon_{m}.csv" for m in config.methods]
    # names, not contents, in the failure message: a diff of two image
    # files takes minutes
    assert [name for name in ("metrics.csv", "samples.csv", *recons)
            if (a / name).read_bytes() != (b / name).read_bytes()] == []
    raster = load_raster(a / "raster.csv")
    samples = load_samples(a / "samples.csv", raster)
    plan = build_plan(raster, window_from_config(config.window, config.dim),
                      config.modes, config.methods, band=config.band,
                      quad_nodes=config.quad_nodes, rtol=config.rtol)
    rebuilt = {}
    for method, name in zip(config.methods, recons):
        rebuilt[name] = io.StringIO()
        save_image_csv(reconstruct(method, samples, plan, config.grid_size),
                       rebuilt[name])
    assert [name for name in recons
            if rebuilt[name].getvalue() != (a / name).read_text()] == []


# median PSNR (dB) of each method over a preset's five seeds; a seed-101
# run may fall at most PSNR_TOL_DB below it
PRESET_MEDIAN_PSNR_DB = {
    "noisy-grid": {"cg": 20.4, "frame": 68.3, "ftcg": 23.0},
    "asterisk": {"cg": 17.5, "frame": 43.4, "ftcg": 10.8},
    "sas-wedge": {"cg": 19.3, "frame": 11.3, "ftcg": 14.5},
}
PSNR_TOL_DB = 1.5


@pytest.mark.parametrize("name", sorted(PRESET_MEDIAN_PSNR_DB))
def test_preset_quality_gate(name):
    reports = run_experiment(preset_config(name, 101))
    for method, median in PRESET_MEDIAN_PSNR_DB[name].items():
        assert reports[method].psnr_db >= median - PSNR_TOL_DB, method


def test_noisy_grid_ftcg_beats_cg_at_30_db():
    # T = Psi Omega has rank at most Q = 841 < P = 900, and ftcg keeps at
    # most Q singular values of its masked system; inverting all 900
    # amplified the noise and put ftcg at -2 to 7 dB on these seeds
    for seed in harness.PRESET_SEEDS["noisy-grid"]:
        cfg = dataclasses.replace(preset_config("noisy-grid", seed),
                                  methods=("cg", "ftcg"), snr_db=30.0)
        reports = run_experiment(cfg)
        assert reports["ftcg"].psnr_db >= reports["cg"].psnr_db, seed


def test_run_with_noise_deterministic():
    cfg = small_config()
    cfg.snr_db = 20.0
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a["frame"].psnr_db == b["frame"].psnr_db


def test_sweep_table_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run_sweep("N", seeds=(11,), out_path=str(out))
    assert res["values"] == [8, 16, 32, 64]
    assert set(res["table"]) == {"cg", "frame", "ftcg"}
    assert all(len(row) == 4 for row in res["table"].values())
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5   # comment + header + 3 method rows


# run_sweep tables computed with the SVD pseudo-inverse throughout, ftcg's
# capped at the mode count Q = 13 where P > Q (the N-sweep); the LU, Gram
# and capped inverses agree with it to rounding
SWEEP_TABLES = {
    "N": {"cg": [0.4271027687167723, 0.2695411916199673,
                 0.4163095774097778, 0.351756645619003],
          "frame": [0.03061712488439605, 0.0228387832298315,
                    0.015682259399713166, 0.014003263190469078],
          "ftcg": [0.13174965035339992, 0.11195633888316674,
                   0.06238161576524319, 0.056708206763963716]},
    "r": {"ftcg": [0.19070525714357175, 0.13316893639249078,
                   0.0838803484100202, 0.0018565098094616476]},
}


@pytest.mark.parametrize("axis", ["N", "r"])
def test_sweep_reference_computed_once(monkeypatch, axis):
    calls = []
    fresh = harness.reference_image

    def counting(*args):
        calls.append(args)
        return fresh(*args)

    monkeypatch.setattr(harness, "reference_image", counting)
    table = run_sweep(axis)["table"]
    # every sweep point shares scene, window, mode box and grid
    assert len(calls) == 1
    for m, row in SWEEP_TABLES[axis].items():
        np.testing.assert_allclose(table[m], row, rtol=1e-9, atol=0)
    # the image is not kept between calls: the next computes its own,
    # with the same result
    assert run_sweep(axis)["table"] == table
    assert len(calls) == 2


def test_band_sweep_assembles_each_raster_once(monkeypatch):
    # seed-major, a seed's four bands share its raster, samples, Psi with
    # its drift check, and Omega: only ftcg's band stage runs per band
    calls = []
    for module, name in ((harness, "jittered_grid"),
                         (harness, "analytic_coeffs"), (recon, "build_psi"),
                         (recon, "psi_quadrature_drift"),
                         (recon, "build_omega")):
        def counting(*args, name=name, fresh=getattr(module, name),
                     **kwargs):
            calls.append(name)
            return fresh(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    seeds = harness.SWEEP_SEEDS
    table = run_sweep("r", seeds)["table"]
    assert collections.Counter(calls) == dict.fromkeys(
        ("jittered_grid", "analytic_coeffs", "build_psi",
         "psi_quadrature_drift", "build_omega"), len(seeds))
    np.testing.assert_allclose(table["ftcg"], SWEEP_TABLES["r"]["ftcg"],
                               rtol=1e-9, atol=0)


@pytest.mark.parametrize("axis", sorted(harness.SWEEPS))
def test_sweep_matches_runs_without_a_store(axis):
    # seed-major through one store, each cell is the median of the runs
    # made alone, point by point and seed by seed, to the last bit
    make, points = harness.SWEEPS[axis]
    seeds = (11, 12)
    result = run_sweep(axis, seeds)
    assert result["values"] == list(points)
    alone = {(p, s): run_experiment(make(p, s)) for p in points
             for s in seeds}
    assert result["table"] == {
        m: [float(np.median([alone[p, s][m].l2_rel_vs_scene
                             for s in seeds])) for p in points]
        for m in alone[points[0], seeds[0]]}


def test_sweep_bad_axis():
    with pytest.raises(ConfigError, match="have N, r"):
        run_sweep("Q")


@pytest.mark.parametrize("call", [lambda: run_sweep("N", []),
                                  lambda: run_preset("asterisk", [])],
                         ids=["run_sweep", "run_preset"])
def test_empty_seed_list(call):
    with pytest.raises(ConfigError, match="at least one seed"):
        call()


def test_preset_configs_well_formed():
    # every preset pins its band, the same for every seed
    for name, band in (("noisy-grid", 8), ("asterisk", 12), ("sas-wedge", 8)):
        cfg = preset_config(name, 0)
        assert cfg.dim == 2
        assert cfg.methods == ("cg", "frame", "ftcg")
        assert {preset_config(name, s).band
                for s in harness.PRESET_SEEDS[name]} == {band}
        # each call builds its own specs, so changing one leaves the next
        again = preset_config(name, 0)
        assert again.raster is not cfg.raster
        assert again.window is not cfg.window
    with pytest.raises(ConfigError):
        preset_config("nope", 0)
    # sweep point configs resolve too
    assert sweep_config(16, 1).band == math.ceil(math.log(33))
    assert rsweep_config(4, 1).modes == 16


def test_config_without_band_takes_default_band(tmp_path):
    # one default for the band: default_band(P), as for a null band and
    # for `gridfr reconstruct`
    spec = json.loads(small_config().to_json())
    del spec["band"]
    config = ExperimentConfig.from_dict(spec)
    assert config.band is None
    run_experiment(config, str(tmp_path))
    header = (tmp_path / "tmatrix.csv").read_text().splitlines()[0]
    assert header == f"# gridfr-tmatrix v1, order=17, band={default_band(17)}"
    assert default_band(17) != 8


def _count_builds(monkeypatch):
    built = []
    fresh = harness.build_plan

    def counting(*args, **kwargs):
        built.append(args[0].raster_id)
        return fresh(*args, **kwargs)

    monkeypatch.setattr(harness, "build_plan", counting)
    return built


@pytest.mark.parametrize("name, seeds, builds", [
    ("asterisk", harness.PRESET_SEEDS["asterisk"], 1),
    ("noisy-grid", (101, 102), 2),
], ids=["asterisk", "noisy-grid"])
def test_run_preset_builds_each_distinct_plan_once(monkeypatch, name, seeds,
                                                   builds):
    # the asterisk raster does not depend on the seed; noisy-grid's does
    built = _count_builds(monkeypatch)
    result = run_preset(name, seeds)
    assert len(built) == len(set(built)) == builds
    assert all(len(reps) == len(seeds) for reps in result["per_seed"].values())


def _count_reconstructs(monkeypatch):
    calls = []
    fresh = harness.reconstruct

    def counting(method, *args, **kwargs):
        calls.append(method)
        return fresh(method, *args, **kwargs)

    monkeypatch.setattr(harness, "reconstruct", counting)
    return calls


def test_run_preset_artifacts_match_run_experiment(monkeypatch, tmp_path):
    # noiseless asterisk data do not depend on the seed: the first seed
    # reconstructs, the others copy its reports and artifacts
    seeds = (101, 103, 105)
    calls = _count_reconstructs(monkeypatch)
    result = run_preset("asterisk", seeds, str(tmp_path / "preset"))
    assert sorted(calls) == ["cg", "frame", "ftcg"]
    for method, reps in result["per_seed"].items():
        assert [r.psnr_db for r in reps] == [reps[0].psnr_db] * len(seeds)
        assert [r.timings for r in reps[1:]] == [{"plan_reused": True}] * 2
    for i, seed in enumerate(seeds):
        alone = tmp_path / "alone" / f"seed{seed}"
        run_experiment(preset_config("asterisk", seed), str(alone))
        shared = tmp_path / "preset" / f"seed{seed}"
        names = sorted(os.listdir(alone))
        assert sorted(os.listdir(shared)) == names
        for fname in names:
            if fname != "timings.json":
                assert (shared / fname).read_bytes() == \
                    (alone / fname).read_bytes(), fname
        timings = json.loads((shared / "timings.json").read_text())
        # only the first seed builds; the others say they reused its plan
        assert all(("plan_reused" in t) == (i > 0) for t in timings.values())


def test_store_repeats_only_identical_runs(monkeypatch, tmp_path):
    # a shared store hands back the last run's reports only when nothing
    # but the seed changed; another grid size is run afresh, and a run
    # that asks for artifacts after one that wrote none writes its own
    store = harness._Store()
    first = run_experiment(preset_config("asterisk", 101), None, store)
    coarse = dataclasses.replace(preset_config("asterisk", 102), grid_size=64)
    shared = run_experiment(coarse, None, store)
    assert shared["cg"].psnr_db == run_experiment(coarse)["cg"].psnr_db
    assert shared["cg"].psnr_db != first["cg"].psnr_db
    out = tmp_path / "seed103"
    again = run_experiment(dataclasses.replace(coarse, seed=103), str(out),
                           store)
    assert again["cg"].psnr_db == shared["cg"].psnr_db
    assert (out / "recon_cg.csv").is_file()
    # the next seed repeats that run: no reconstruction, its files copied
    calls = _count_reconstructs(monkeypatch)
    run_experiment(dataclasses.replace(coarse, seed=104),
                   str(tmp_path / "seed104"), store)
    assert calls == []
    assert (tmp_path / "seed104" / "recon_cg.csv").read_bytes() == \
        (out / "recon_cg.csv").read_bytes()


def test_run_preset_releases_previous_plan(monkeypatch):
    # every seed of a 1D jittered grid has its own raster, so each builds;
    # the plan before must be gone by then, and the last one on return
    monkeypatch.setattr(harness, "preset_config",
                        lambda name, seed: sweep_config(8, seed))
    plans = []
    fresh = harness.build_plan

    def tracking(*args, **kwargs):
        assert all(ref() is None for ref in plans)
        plan = fresh(*args, **kwargs)
        plans.append(weakref.ref(plan))
        return plan

    monkeypatch.setattr(harness, "build_plan", tracking)
    run_preset("sweep", (11, 12, 13))
    assert len(plans) == 3
    assert all(ref() is None for ref in plans)


@pytest.mark.parametrize("call, counts", [
    (lambda out: run_preset("asterisk", (101, 102), str(out)),
     {"build_plan": 1, "with_band": 0}),
    (lambda out: run_sweep("r", (11, 12), str(out / "sweep.csv")),
     {"build_plan": 2, "with_band": 6}),
], ids=["run_preset", "run_sweep"])
def test_store_released_on_return(monkeypatch, tmp_path, call, counts):
    # the plans, band-derived ones too, and the images a call's store
    # held are unreachable once the call returns
    made = {}
    for name in ("build_plan", "with_band", "reference_image",
                 "scene_image"):
        made[name] = []

        def tracking(*args, name=name, fresh=getattr(harness, name),
                     **kwargs):
            value = fresh(*args, **kwargs)
            made[name].append(weakref.ref(value))
            return value

        monkeypatch.setattr(harness, name, tracking)
    call(tmp_path)
    assert {k: len(made[k]) for k in counts} == counts
    assert len(made["reference_image"]) == len(made["scene_image"]) == 1
    assert all(ref() is None for refs in made.values() for ref in refs)


def test_run_preset_overrides_reuse_plans(monkeypatch):
    # noise changes the data, not the plan; each seed draws its own noise
    # and is reconstructed
    built = _count_builds(monkeypatch)
    calls = _count_reconstructs(monkeypatch)
    result = run_preset("asterisk", (101, 102), overrides={"snr_db": 30.0})
    assert len(built) == 1
    assert len(calls) == 2 * 3
    cg = result["per_seed"]["cg"]
    assert cg[0].psnr_db != cg[1].psnr_db
    assert cg[0].psnr_db == run_experiment(dataclasses.replace(
        preset_config("asterisk", 101), snr_db=30.0))["cg"].psnr_db
