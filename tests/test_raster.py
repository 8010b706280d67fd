import numpy as np
import pytest

from gridfr import (ConfigError, FormatError, asterisk, jittered_grid,
                    load_raster, rescale_to_box, sas_wedge, save_raster)


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
