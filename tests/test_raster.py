import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridfr import (ConfigError, FormatError, ImageGrid, analytic_coeffs,
                    asterisk, jittered_grid, load_image_csv, load_raster,
                    load_samples, paper_test_scene, rescale_to_box, sas_wedge,
                    save_image_csv, save_raster, save_samples, sine_scene)
from gridfr.raster import read_rows, write_rows
from oracles import csv_text


def test_zero_jitter_grid_is_integer():
    r = jittered_grid(2, 0.0, 7)
    np.testing.assert_array_equal(r.points, [-2, -1, 0, 1, 2])


def test_jitter_bound_and_count_2d():
    r = jittered_grid((2, 2), 0.25, 7)
    assert len(r) == 25
    base = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3)], float)
    assert np.max(np.abs(r.points - base)) <= 0.25


def test_determinism_bitwise():
    a = jittered_grid((3, 3), 0.2, 123)
    b = jittered_grid((3, 3), 0.2, 123)
    assert np.array_equal(a.points, b.points)
    assert a.raster_id == b.raster_id


def test_different_seed_differs():
    a = jittered_grid(4, 0.2, 1)
    b = jittered_grid(4, 0.2, 2)
    assert not np.array_equal(a.points, b.points)


def test_jitter_half_rejected():
    with pytest.raises(ConfigError):
        jittered_grid(4, 0.5, 0)


def test_index_range_even_grid():
    r = jittered_grid((15, 15), 0.1, 5, index_range=((-15, 14), (-15, 14)))
    assert len(r) == 900
    assert r.index_extents == ((-15, 14), (-15, 14))


def test_index_range_alone_gives_the_axes():
    r = jittered_grid(None, 0.1, 1, index_range=((0, 2), (0, 2)))
    assert r.dim == 2 and len(r) == 9
    assert r.index_extents == ((0, 2), (0, 2))
    base = np.array([(i, j) for i in range(3) for j in range(3)], float)
    assert np.max(np.abs(r.points - base)) <= 0.1
    assert np.array_equal(
        r.points,
        jittered_grid((1, 1), 0.1, 1, index_range=((0, 2), (0, 2))).points)
    assert jittered_grid(None, 0.1, 1, index_range=(-1, 3)).dim == 1
    with pytest.raises(ConfigError, match="extents or index_range"):
        jittered_grid(None, 0.1, 1)
    with pytest.raises(ConfigError, match="per axis"):
        jittered_grid(2, 0.1, 1, index_range=((0, 2), (0, 2)))


def test_asterisk_axis_spokes():
    r = asterisk(2, 1, 1.0)
    got = {tuple(np.round(p, 12)) for p in r.points}
    assert got == {(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}


def test_asterisk_half_radii():
    r = asterisk(2, 2, 1.0)
    assert len(r) == 9
    got = {tuple(np.round(p, 12)) for p in r.points}
    assert {(0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)} <= got


@pytest.mark.parametrize("s,j", [(3, 2), (8, 5), (22, 5)])
def test_asterisk_count_no_duplicates(s, j):
    r = asterisk(s, j, 5.0)
    assert len(r) == 2 * s * j + 1
    # Raster constructor rejects duplicates, so construction succeeding
    # is the check; spot-check pairwise distances anyway
    d = np.linalg.norm(r.points[:, None] - r.points[None, :], axis=-1)
    assert np.min(d[np.triu_indices(len(r), 1)]) > 1e-12


def test_asterisk_ring_order():
    r = asterisk(4, 3, 3.0)
    radii = np.linalg.norm(r.points, axis=1)
    assert np.all(np.diff(np.round(radii, 9)) >= 0)


def test_wedge_broadside_single_point():
    r = sas_wedge(1.0, 1.0001, 1, 0.0, 1)
    assert len(r) == 1
    np.testing.assert_allclose(r.points[0], [0.0, 2.0], atol=1e-12)


def test_wedge_two_ranges():
    r = sas_wedge(1.0, 2.0, 2, 0.0, 1)
    np.testing.assert_allclose(sorted(r.points[:, 1]), [2.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(r.points[:, 0], 0.0, atol=1e-15)


def test_wedge_circle_identity():
    r = sas_wedge(1.0, 1.5, 25, 1.2, 25)
    assert len(r) == 625
    ks = np.linspace(1.0, 1.5, 25)
    rad2 = r.points[:, 0] ** 2 + r.points[:, 1] ** 2
    ok = np.isclose(rad2[:, None], (4 * ks * ks)[None, :], rtol=1e-12).any(axis=1)
    assert ok.all()


def test_wedge_parameter_error():
    with pytest.raises(ConfigError):
        sas_wedge(1.0, 2.0, 5, 2.0, 5)   # ku_max >= 2*k_min
    with pytest.raises(ConfigError):
        sas_wedge(2.0, 1.0, 5, 0.5, 5)


def test_rescale_to_box():
    r = sas_wedge(1.0, 1.5, 10, 1.2, 9)
    out, transform = rescale_to_box(r, (12, 12))
    assert out.points[:, 0].min() == pytest.approx(-12.0)
    assert out.points[:, 0].max() == pytest.approx(12.0)
    assert out.points[:, 1].min() == pytest.approx(-12.0)
    assert out.points[:, 1].max() == pytest.approx(12.0)
    (s1, o1), (s2, o2) = transform
    np.testing.assert_allclose(out.points[:, 0], s1 * r.points[:, 0] + o1)
    np.testing.assert_allclose(out.points[:, 1], s2 * r.points[:, 1] + o2)


def test_rescale_to_box_one_extent_for_every_axis():
    r = asterisk(22, 5, 5.0)
    want, want_transform = rescale_to_box(r, (4, 4))
    for extents in (4, [4], (4.0,)):
        out, transform = rescale_to_box(r, extents)
        assert np.array_equal(out.points, want.points)
        assert transform == want_transform
        assert out.meta["rescaled_to"] == (4.0, 4.0)
    for extents in ((4, 4, 4), ()):
        with pytest.raises(ConfigError, match="rescale_to"):
            rescale_to_box(r, extents)
    with pytest.raises(ConfigError, match="rescale_to"):
        rescale_to_box(jittered_grid(4, 0.25, 1), (4, 4))


def test_save_load_round_trip(tmp_path):
    for r in (jittered_grid(5, 0.2, 99), asterisk(4, 3, 2.5),
              sas_wedge(1.0, 1.5, 6, 1.0, 5)):
        path = tmp_path / "r.csv"
        save_raster(r, path)
        back = load_raster(path)
        assert back.dim == r.dim
        assert back.kind == r.kind
        assert back.seed == r.seed
        np.testing.assert_array_equal(back.points, r.points)


def test_load_nan_coordinate(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# gridfr-raster v1, dim=1, kind=custom, seed=none\n"
                    "0.5\nnan\n")
    with pytest.raises(FormatError, match="line 3"):
        load_raster(path)


def test_load_dim_mismatch(tmp_path):
    path = tmp_path / "r.csv"
    save_raster(jittered_grid(3, 0.1, 1), path)
    with pytest.raises(FormatError, match="1D"):
        load_raster(path, dim=2)


def test_load_bad_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# gridfr-raster v1, dim=2, kind=custom, seed=none\n"
                    "0.5,1.0\n0.25\n")
    with pytest.raises(FormatError, match="line 3"):
        load_raster(path)


def _csv_file(tmp_path, kind):
    """A valid `kind` file and the function that loads it."""
    path = tmp_path / f"{kind}.csv"
    r = jittered_grid((2, 2), 0.25, 5)
    if kind == "raster":
        save_raster(r, path)
        return path, load_raster
    if kind == "samples":
        save_samples(analytic_coeffs(paper_test_scene(), r), r, path)
        return path, lambda p: load_samples(p, r)
    vals = np.arange(6.0).reshape(3, 2) - 2.5j
    save_image_csv(ImageGrid(values=vals, grid_size=(3, 2)), path)
    return path, load_image_csv


# each fault, made to the text of a file's third line (its second row) or
# its header, and the error it gives: line number and wording
CSV_FAULTS = {
    "columns": (lambda line: line + ",1", 3,
                r"expected \d+ columns, got \d+"),
    "value": (lambda line: "x," + line.split(",", 1)[1], 3,
              "unparsable value"),
    "non-finite": (lambda line: "inf," + line.split(",", 1)[1], 3,
                   "non-finite value"),
    "header": (lambda line: "# gridfr-other v1", 1,
               "bad header '# gridfr-other v1', expected '# gridfr-.* v1'"),
}


@pytest.mark.parametrize("kind", ["raster", "samples", "image"])
@pytest.mark.parametrize("fault", sorted(CSV_FAULTS))
def test_csv_loaders_share_line_numbered_errors(tmp_path, kind, fault):
    path, load = _csv_file(tmp_path, kind)
    change, lineno, wording = CSV_FAULTS[fault]
    lines = path.read_text().splitlines()
    lines[lineno - 1] = change(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError,
                       match=re.escape(f"{path}: line {lineno}: ") + wording):
        load(path)


@pytest.mark.parametrize("kind", ["raster", "samples", "image"])
def test_csv_loaders_skip_blank_and_comment_lines(tmp_path, kind):
    path, load = _csv_file(tmp_path, kind)
    expected = load(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["", "# a note", "  "] + lines[2:]))
    back = load(path)
    got, want = ((back.points, expected.points) if kind == "raster"
                 else (back.values, expected.values))
    np.testing.assert_array_equal(got, want)


def test_csv_writers_match_row_loop(tmp_path):
    path = tmp_path / "f.csv"
    for r, scene in ((jittered_grid(4, 0.25, 3), sine_scene()),
                     (asterisk(6, 3, 2.5), paper_test_scene())):
        pts = r.points.reshape(len(r), -1)
        seed = "none" if r.seed is None else r.seed
        save_raster(r, path)
        assert path.read_text() == csv_text(
            f"# gridfr-raster v1, dim={r.dim}, kind={r.kind}, seed={seed}",
            pts)
        s = analytic_coeffs(scene, r)
        save_samples(s, r, path)
        assert path.read_text() == csv_text(
            f"# gridfr-samples v1, raster={r.raster_id}",
            [[*p, v.real, v.imag] for p, v in zip(pts, s.values)])


# signed zeros, the smallest subnormal and the largest finite doubles,
# drawn as often as any other finite float
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7976931348623157e308, -1.7976931348623157e308]


@pytest.mark.parametrize("kind, fields, ncols", [
    ("raster", {"dim": 1, "kind": "custom", "seed": "none"}, 1),
    ("raster", {"dim": 2, "kind": "jittered_grid", "seed": 7}, 2),
    ("samples", {"raster": "0123456789abcdef"}, 4),
    ("image", {"shape": "3x4", "method": "ftcg"}, 8),
])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(nrows=st.integers(1, 12),
       values=hnp.arrays(np.float64, 12 * 8, elements=st.one_of(
           st.sampled_from(EDGE_FLOATS),
           st.floats(allow_nan=False, allow_infinity=False))))
@example(nrows=1, values=np.resize(EDGE_FLOATS, 12 * 8))
@example(nrows=12, values=np.resize(EDGE_FLOATS, 12 * 8))
def test_write_rows_read_rows_round_trip_bits(tmp_path, kind, fields, ncols,
                                              nrows, values):
    rows = values[:nrows * ncols].reshape(nrows, ncols)
    path = tmp_path / "rows.csv"
    write_rows(path, kind, fields, rows)
    back_fields, back = read_rows(path, kind, lambda f: ncols)
    assert back_fields == {k: str(v) for k, v in fields.items()}
    np.testing.assert_array_equal(back.view(np.uint64), rows.view(np.uint64))
    # an open text stream gets the file's text
    buf = io.StringIO()
    write_rows(buf, kind, fields, rows)
    assert buf.getvalue() == path.read_text()



def _row_loop(rows) -> str:
    """`write_rows`'s lines for `rows` formatted one row at a time."""
    fmt = ",".join(["%.17g"] * rows.shape[1])
    return "".join(fmt % tuple(row) + "\n" for row in rows)


def _written(rows) -> str:
    """The lines under the header of `write_rows`'s file for `rows`."""
    buf = io.StringIO()
    write_rows(buf, "image", {}, rows)
    return buf.getvalue().split("\n", 1)[1]


def _ulps(values, span=4):
    """Each of `values` and the `span` doubles either side of it."""
    out = []
    for v in values:
        out.append(v)
        up = down = v
        for _ in range(span):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    return np.array(out).reshape(-1, 1)


# every power of ten in 1e-30..1e30 and its neighbours, one value a row so
# that no row is left to the row loop for another value's sake: the
# doubles just below a power of ten, such as 1e-06 = 9.9999999999999995e-07,
# scale to just below 1e16 and read "1e-06" if the scaled value is judged
# by its rounded digits
POWERS_OF_TEN = _ulps([s * 10.0**e for e in range(-30, 31) for s in (1, -1)])
# either side of 1e-5, 1e-4, 1e16 and 1e17: %g switches from exponential
# to fixed notation at 1e-4 and back at 1e17
G_SWITCHES = np.array([s * c * m for c in (1e-5, 1e-4, 1e16, 1e17)
                       for m in (0.5, 0.9999999999999999, 1.25,
                                 1.2345678901234567, 3.0000000000000004)
                       for s in (1, -1)]).reshape(-1, 1)
# exact ties at the 17th digit, rounded to even, and 2**51 + 1/2
TIES = np.array([[1000000000000000.25, 1000000000000000.75,
                  2251799813685248.5]])
# a row the kernel formats, then two the row loop formats: for a
# subnormal, and for 1e300 and 1e-07
MIXED = np.array([[0.1, -2.5, 3e-5], [7.0, 5e-324, -0.0], [1e300, 0.0, 1e-7]])


def _bits(pattern):
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(rows=hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
    elements=st.one_of(
        st.sampled_from(EDGE_FLOATS),
        st.integers(0, 2**64 - 1).map(_bits).filter(np.isfinite),
        st.floats(allow_nan=False, allow_infinity=False))))
@example(rows=POWERS_OF_TEN)
@example(rows=G_SWITCHES)
@example(rows=TIES)
@example(rows=MIXED)
def test_write_rows_matches_row_loop(rows):
    assert _written(rows) == _row_loop(rows)


def test_write_rows_ties_round_to_even():
    assert _written(TIES) == ("1000000000000000.2,1000000000000000.8,"
                              "2251799813685248.5\n")


def test_write_rows_blocks_match_row_loop():
    # 23 columns, 178 rows to a block: four blocks, the last of 66 rows,
    # with rows for the row loop in the first two
    rng = np.random.default_rng(5)
    rows = (rng.standard_normal((600, 23))
            * 10.0 ** rng.integers(-30, 30, (600, 23)))
    rows[[3, 200, 201], [0, 22, 7]] = 1e-6, 5e-324, 1e300
    rows[400] = 0.0
    assert _written(rows) == _row_loop(rows)


def test_duplicate_points_rejected():
    from gridfr.raster import Raster
    with pytest.raises(ConfigError):
        Raster(dim=1, points=np.array([0.0, 1.0, 1.0]))


def test_near_duplicates_apart_in_sort_order_rejected():
    # the first and third points agree within 1e-12 on both axes, but
    # sorting by x puts (5e-14, 0) between them
    from gridfr.raster import Raster
    with pytest.raises(ConfigError):
        Raster(dim=2, points=np.array([(0.0, 1.0), (5e-14, 0.0), (1e-13, 1.0)]))
    r = Raster(dim=2, points=np.array([(0.0, 1.0), (5e-14, 0.0), (3e-12, 1.0)]))
    assert len(r) == 3
