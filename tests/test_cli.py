import json
import math
import os

import numpy as np
import pytest

from gridfr import ImageGrid, harness, save_image_csv
from gridfr.cli import main


def test_gen_raster_and_sample_and_reconstruct(tmp_path):
    raster = tmp_path / "r.csv"
    samples = tmp_path / "s.csv"
    out = tmp_path / "out"
    assert main(["gen-raster", "--kind", "jittered", "--extents", "8",
                 "--jitter", "0.25", "--seed", "5",
                 "--out", str(raster)]) == 0
    assert raster.exists()
    assert main(["sample", "--raster", str(raster), "--scene", "sine",
                 "--out", str(samples)]) == 0
    assert main(["reconstruct", "--raster", str(raster),
                 "--samples", str(samples), "--method", "ftcg",
                 "--band", "3", "--modes", "8", "--grid", "64",
                 "--out", str(out)]) == 0
    assert (out / "recon_ftcg.csv").exists()
    assert (out / "recon_ftcg.pgm").exists()


def test_metrics_command(tmp_path, capsys):
    raster = tmp_path / "r.csv"
    samples = tmp_path / "s.csv"
    out = tmp_path / "out"
    main(["gen-raster", "--kind", "jittered", "--extents", "8",
          "--seed", "5", "--out", str(raster)])
    main(["sample", "--raster", str(raster), "--scene", "sine",
          "--out", str(samples)])
    main(["reconstruct", "--raster", str(raster), "--samples", str(samples),
          "--method", "frame", "--modes", "8", "--grid", "64",
          "--out", str(out)])
    rc = main(["metrics", "--recon", str(out / "recon_frame.csv"),
               "--reference", str(out / "recon_frame.csv"),
               "--error-map", str(tmp_path / "e.pgm")])
    assert rc == 0
    assert "psnr_db=inf" in capsys.readouterr().out
    assert (tmp_path / "e.pgm").exists()


def test_zero_reference_typed_error(tmp_path, capsys):
    # a noiseless all-zero scene has an all-zero reference
    cfg = {"name": "zero", "dim": 1,
           "scene": {"kind": "trig_poly", "coefficients": {"0": [0, 0]}},
           "raster": {"kind": "jittered_grid", "extents": 8},
           "window": {"sigma": 0.125}, "modes": 8}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the reference is zero")
    assert "Traceback" not in err
    zero, ones = tmp_path / "zero.csv", tmp_path / "ones.csv"
    for path, value in ((zero, 0.0), (ones, 1.0)):
        save_image_csv(ImageGrid(np.full(8, value, complex), (8,)), str(path))
    assert main(["metrics", "--recon", str(ones),
                 "--reference", str(zero)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the reference is zero")
    assert "Traceback" not in err


def test_gen_raster_one_rescale_extent_for_every_axis(tmp_path, capsys):
    out = tmp_path / "a4.csv"
    assert main(["gen-raster", "--kind", "asterisk", "--rescale-to", "4",
                 "--out", str(out)]) == 0
    pts = np.loadtxt(out, delimiter=",", comments="#")
    np.testing.assert_allclose(pts.min(axis=0), [-4.0, -4.0], rtol=1e-12)
    np.testing.assert_allclose(pts.max(axis=0), [4.0, 4.0], rtol=1e-12)
    assert main(["gen-raster", "--kind", "asterisk", "--rescale-to", "4",
                 "4", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: rescale_to")


def test_gen_asterisk_and_wedge(tmp_path):
    a = tmp_path / "a.csv"
    w = tmp_path / "w.csv"
    assert main(["gen-raster", "--kind", "asterisk", "--spokes", "4",
                 "--radial-count", "3", "--max-radius", "3",
                 "--out", str(a)]) == 0
    assert main(["gen-raster", "--kind", "sas-wedge", "--k-count", "6",
                 "--ku-count", "5", "--rescale-to", "4", "4",
                 "--out", str(w)]) == 0
    assert sum(1 for _ in open(a)) == 1 + 2 * 4 * 3 + 1
    assert sum(1 for _ in open(w)) == 1 + 30


def test_run_config_file(tmp_path):
    cfg = {
        "name": "tiny", "dim": 1,
        "scene": {"kind": "sine"},
        "raster": {"kind": "jittered_grid", "extents": 8, "jitter": 0.25},
        "window": {"sigma": 0.125, "trunc_eps": 1e-12},
        "modes": 8, "methods": ["frame"], "band": 3,
        "grid_size": 64, "rtol": None, "snr_db": "inf", "seed": 4,
        "quad_nodes": None,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()


def test_run_prints_plan_warnings(tmp_path, capsys):
    # 8 Gauss-Legendre nodes cannot integrate Psi's entries on this grid
    cfg = {"name": "q8", "dim": 1, "scene": {"kind": "sine"},
           "raster": {"kind": "jittered_grid", "extents": 8},
           "window": {"sigma": 0.125}, "modes": 8, "quad_nodes": 8}
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(cfg))
    for _ in range(2):      # one line per plan build, however many runs
        assert main(["run", "--config", str(path)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: quadrature drift ")
        assert err[0].endswith(" above 1e-8; raise quad_nodes")


def test_run_preset_with_override_builds_once(monkeypatch, capsys):
    built = []
    fresh = harness.build_plan

    def counting(*args, **kwargs):
        built.append(args[0].raster_id)
        return fresh(*args, **kwargs)

    monkeypatch.setattr(harness, "build_plan", counting)
    assert main(["run", "--preset", "asterisk", "--snr", "30"]) == 0
    assert len(built) == 1
    out = capsys.readouterr().out
    seeds = harness.PRESET_SEEDS["asterisk"]
    assert [ln for ln in out.splitlines() if ln.startswith("seed")] == \
        [f"seed {s}:" for s in seeds]
    assert out.count("psnr") == 3 * len(seeds)


def test_svd_failure_exit_code(monkeypatch, capsys):
    # asterisk's masked T is rank-deficient, so its inverse needs an SVD
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert main(["run", "--preset", "asterisk", "--seed", "101"]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_run_requires_preset_or_config():
    assert main(["run"]) == 2


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": \"x\"}")
    assert main(["run", "--config", str(bad)]) == 2


def _tiny_config(**fields):
    return {"name": "tiny", "dim": 1, "scene": {"kind": "sine"},
            "raster": {"kind": "jittered_grid", "extents": 8},
            "window": {"sigma": 0.125}, "modes": 8, "methods": ["ftcg"],
            "band": 3, "grid_size": 64, "seed": 4, **fields}


# each config is malformed in the field its name starts with, up to a "-"
MALFORMED_CONFIGS = {
    "extents": _tiny_config(raster={"kind": "jittered_grid"}),
    "sigma": _tiny_config(window={"trunc_eps": 1e-12}),
    "coefficients": _tiny_config(scene={"kind": "trig_poly"}),
    "band": _tiny_config(band=2.5),
    "snr_db": _tiny_config(snr_db="abc"),
    "seed": _tiny_config(seed=-1),
    "modes": _tiny_config(modes=-1),
    "methods-name": _tiny_config(methods="ftcg"),
    "methods-empty": _tiny_config(methods=[]),
    "coefficients-key": _tiny_config(scene={"kind": "trig_poly",
                                            "coefficients": {"a": [1, 0]}}),
    "coefficients-list": _tiny_config(scene={"kind": "trig_poly",
                                             "coefficients": [1]}),
    "quad_nodes": _tiny_config(quad_nodes=0),
    "grid_size": _tiny_config(grid_size=[64, 64]),
    "config": 5,
    "methods-repeat": _tiny_config(methods=["cg", "cg"]),
}


# each config holds a value of the wrong type in the field it is named after
WRONG_TYPE_CONFIGS = {
    "grid_size": _tiny_config(grid_size="abc"),
    "extents": _tiny_config(raster={"kind": "jittered_grid", "extents": "a"}),
    "rtol": _tiny_config(rtol="x"),
    "sigma": _tiny_config(window={"sigma": "a"}),
    "jitter": _tiny_config(raster={"kind": "jittered_grid", "extents": 8,
                                   "jitter": "a"}),
    "snr_db": _tiny_config(snr_db="30"),
}


# each config holds a non-integer size in the field it is named after;
# integral floats such as 8.0 are refused too, as they are for band
NON_INTEGER_CONFIGS = {
    "extents": _tiny_config(raster={"kind": "jittered_grid", "extents": 8.7}),
    "grid_size": _tiny_config(grid_size=64.9),
    "modes": _tiny_config(modes=8.0),
}


IMAGE_HEADER = "# gridfr-image v1, shape=2x2, method=frame\n"

# each file is malformed as its name says
MALFORMED_FILES = {
    "image-value.csv": IMAGE_HEADER + "1,2,3,4\n1,x,3,4\n",
    "image-columns.csv": IMAGE_HEADER + "1,2,3,4\n1,2,3,4,5\n",
    "image-shape.csv": IMAGE_HEADER + "1,2,3,4\n",
    "image-header.csv": "# gridfr-image v1, shape=2by2\n1,2,3,4\n1,2,3,4\n",
    "raster-seed.csv": "# gridfr-raster v1, dim=1, kind=custom, seed=1.5\n"
                       "0.5\n",
    "raster-duplicate.csv": "# gridfr-raster v1, dim=1, kind=custom, "
                            "seed=none\n0.5\n0.5\n",
    "samples-raster.csv": "# gridfr-samples v1, raster=0123456789abcdef\n"
                          + "0,1,0\n" * 9,
}


def _metrics(name):
    return ["metrics", "--recon", "{tmp}/" + name,
            "--reference", "{tmp}/" + name]


@pytest.mark.parametrize("field, argv", [
    *(pytest.param(f.split("-")[0],
                   ["run", "--config", "{tmp}/" + f + ".json"],
                   id=f"config-{f}") for f in MALFORMED_CONFIGS),
    *(pytest.param(f, ["run", "--config", "{tmp}/type-" + f + ".json"],
                   id=f"config-type-{f}") for f in WRONG_TYPE_CONFIGS),
    *(pytest.param(f, ["run", "--config", "{tmp}/int-" + f + ".json"],
                   id=f"config-int-{f}") for f in NON_INTEGER_CONFIGS),
    pytest.param("seed", ["run", "--preset", "noisy-grid", "--seed", "-1"],
                 id="preset-seed"),
    pytest.param("methods lists 'cg'",
                 ["run", "--preset", "asterisk", "--seed", "101",
                  "--method", "cg", "--method", "cg"], id="preset-methods"),
    pytest.param("seed", ["gen-raster", "--kind", "jittered", "--seed", "-1",
                          "--out", "{tmp}/r.csv"], id="gen-raster-seed"),
    pytest.param("seed", ["sample", "--raster", "{tmp}/ok.csv", "--scene",
                          "sine", "--snr", "30", "--seed", "-3",
                          "--out", "{tmp}/s.csv"], id="sample-seed"),
    pytest.param("snr_db", ["sample", "--raster", "{tmp}/ok.csv", "--scene",
                            "sine", "--snr", "nan", "--out", "{tmp}/s.csv"],
                 id="sample-snr-nan"),
    pytest.param("samples-raster.csv: line 1: samples taken on raster "
                 "0123456789abcdef",
                 ["reconstruct", "--raster", "{tmp}/ok.csv", "--samples",
                  "{tmp}/samples-raster.csv", "--out", "{tmp}/rec"],
                 id="samples-other-raster"),
    pytest.param("image-value.csv: line 3: unparsable",
                 _metrics("image-value.csv"), id="image-value"),
    pytest.param("image-columns.csv: line 3: expected 4 columns, got 5",
                 _metrics("image-columns.csv"), id="image-columns"),
    pytest.param("image-shape.csv: line 1: shape 2x2",
                 _metrics("image-shape.csv"), id="image-shape"),
    pytest.param("image-header.csv: line 1: missing/invalid shape",
                 _metrics("image-header.csv"), id="image-header"),
    pytest.param("raster-seed.csv: line 1: invalid seed",
                 ["sample", "--raster", "{tmp}/raster-seed.csv",
                  "--out", "{tmp}/s.csv"], id="raster-seed"),
    pytest.param("raster-duplicate.csv: duplicate raster points",
                 ["sample", "--raster", "{tmp}/raster-duplicate.csv",
                  "--out", "{tmp}/s.csv"], id="raster-duplicate"),
])
def test_malformed_input_typed_error(tmp_path, capsys, field, argv):
    for name, cfg in MALFORMED_CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    for name, cfg in WRONG_TYPE_CONFIGS.items():
        (tmp_path / f"type-{name}.json").write_text(json.dumps(cfg))
    for name, cfg in NON_INTEGER_CONFIGS.items():
        (tmp_path / f"int-{name}.json").write_text(json.dumps(cfg))
    for name, text in MALFORMED_FILES.items():
        (tmp_path / name).write_text(text)
    assert main(["gen-raster", "--kind", "jittered", "--extents", "4",
                 "--out", str(tmp_path / "ok.csv")]) == 0
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert field in err


def test_missing_file_exit_code(tmp_path):
    assert main(["sample", "--raster", str(tmp_path / "none.csv"),
                 "--scene", "sine", "--out", str(tmp_path / "s.csv")]) == 2


def test_bad_raster_format_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# gridfr-raster v1, dim=1, kind=custom, seed=none\nnan\n")
    assert main(["sample", "--raster", str(bad), "--scene", "sine",
                 "--out", str(tmp_path / "s.csv")]) == 2


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sw"
    os.makedirs(out)
    rc = main(["sweep", "--axis", "r", "--seed", "11", "--out", str(out)])
    assert rc == 0
    assert (out / "sweep_r.csv").exists()
    assert "ftcg" in capsys.readouterr().out
