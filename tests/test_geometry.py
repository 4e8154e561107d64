import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semgrid import geometry
from semgrid.geometry import (
    CameraCalib,
    VoxelRangeError,
    bresenham3d_keys,
    bresenham3d_walk,
    clip_walk_to_box,
    load_calibs,
    pack_voxel_keys,
    save_calibs,
    unpack_voxel_keys,
    voxel_indices_of,
)
from tests.conftest import make_ring_calibs
from tests.oracles import (
    backproject,
    backproject_many,
    bresenham3d,
    bresenham3d_many,
    epipolar_line,
    point_line_distance,
    project,
)

coords = st.integers(min_value=-60, max_value=60)
cells3 = st.tuples(coords, coords, coords)
# cells within 40 of a corner of the packable range
EDGE = (1 << 20) - 1
edge_coords = st.one_of(st.integers(-EDGE, -EDGE + 40), st.integers(EDGE - 40, EDGE))
edge_cells3 = st.tuples(edge_coords, edge_coords, edge_coords)


def naive_bresenham(a, b):
    """Independent reference: dominant-axis error accumulation, written
    the textbook way with explicit per-step error counters."""
    a, b = list(a), list(b)
    d = [abs(b[i] - a[i]) for i in range(3)]
    s = [0 if b[i] == a[i] else (1 if b[i] > a[i] else -1) for i in range(3)]
    dom = max(range(3), key=lambda i: (d[i], -i))
    others = [i for i in range(3) if i != dom]
    err = {i: 2 * d[i] - d[dom] for i in others}
    cur = a[:]
    cells = [tuple(cur)]
    for _ in range(d[dom]):
        cur[dom] += s[dom]
        for i in others:
            if err[i] > 0:
                cur[i] += s[i]
                err[i] -= 2 * d[dom]
            err[i] += 2 * d[i]
        cells.append(tuple(cur))
    return cells


def voxel_of(p, resolution=0.1) -> tuple:
    """voxel_indices_of for one point, as a tuple."""
    return tuple(voxel_indices_of(np.array([p]), resolution)[0].tolist())


class TestVoxelIndexing:
    def test_examples(self):
        assert voxel_of((0.05, 0.05, 0.05)) == (0, 0, 0)
        assert voxel_of((0.15, 0.25, 0.35)) == (1, 2, 3)
        assert voxel_of((-0.05, 0.0, 0.0)) == (-1, 0, 0)

    def test_boundary_snaps_up(self):
        # a point computed to land on a cell face (within float noise)
        # must bin deterministically into the upper cell
        assert voxel_of((0.3 - 1e-12, 0.0, 0.0))[0] == 3

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50),
                              st.floats(-50, 50)), min_size=1, max_size=20))
    def test_batch_matches_scalar(self, pts):
        batch = voxel_indices_of(np.array(pts), 0.1)
        for p, row in zip(pts, batch):
            assert voxel_of(p) == tuple(row)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e30, -1e30])
    def test_unbinnable_point_rejected(self, bad):
        with pytest.raises(VoxelRangeError):
            voxel_indices_of(np.array([[0.0, bad, 0.0]]), 0.1)


class TestKeyPacking:
    @given(st.lists(cells3, min_size=1, max_size=50))
    def test_roundtrip(self, idx):
        arr = np.array(idx, dtype=np.int64)
        assert np.array_equal(unpack_voxel_keys(pack_voxel_keys(arr)), arr)

    def test_keys_unique_per_cell(self):
        a = pack_voxel_keys(np.array([[1, 0, 0]]))
        b = pack_voxel_keys(np.array([[0, 1, 0]]))
        c = pack_voxel_keys(np.array([[0, 0, 1]]))
        assert len({int(a[0]), int(b[0]), int(c[0])}) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_voxel_keys(np.array([[1 << 20, 0, 0]]))

    @pytest.mark.parametrize("bad", [np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                                     -(1 << 20), 1 << 20])
    def test_range_checked_at_both_ends(self, bad):
        # abs(INT64_MIN) overflows to INT64_MIN, so the check must not
        # take the absolute value
        for axis in range(3):
            idx = np.zeros((2, 3), dtype=np.int64)
            idx[1, axis] = bad
            with pytest.raises(VoxelRangeError):
                pack_voxel_keys(idx)
            with pytest.raises(VoxelRangeError):
                bresenham3d_keys(np.zeros(3, dtype=np.int64), idx)
        edge = np.array([[-(1 << 20) + 1, (1 << 20) - 1, 0]])
        assert np.array_equal(unpack_voxel_keys(pack_voxel_keys(edge)), edge)


class TestBresenham:
    @given(cells3, cells3)
    def test_matches_reference(self, a, b):
        got = bresenham3d(a, b)
        assert got == naive_bresenham(a, b)

    @given(cells3, cells3)
    def test_line_properties(self, a, b):
        cells = bresenham3d(a, b)
        dmax = max(abs(b[i] - a[i]) for i in range(3))
        assert len(cells) == dmax + 1
        assert cells[0] == a and cells[-1] == b
        for prev, nxt in zip(cells, cells[1:]):
            step = [abs(nxt[i] - prev[i]) for i in range(3)]
            assert max(step) == 1  # 26-connected, one dominant step each
        for axis in range(3):
            vals = [c[axis] for c in cells]
            diffs = np.diff(vals)
            assert np.all(diffs >= 0) or np.all(diffs <= 0)

    @given(cells3, st.lists(cells3, min_size=1, max_size=30))
    def test_vectorized_matches_scalar(self, origin, targets):
        cells, ray_id = bresenham3d_many(np.array(origin), np.array(targets))
        for i, t in enumerate(targets):
            assert [tuple(r) for r in cells[ray_id == i].tolist()] == bresenham3d(origin, t)

    @given(cells3, st.lists(cells3, min_size=1, max_size=30))
    def test_keys_variant_matches_cells(self, origin, targets):
        cells, rid_a = bresenham3d_many(np.array(origin), np.array(targets))
        keys, rid_b = bresenham3d_keys(np.array(origin), np.array(targets))
        assert np.array_equal(rid_a, rid_b)
        assert np.array_equal(keys, pack_voxel_keys(cells))

    @given(st.lists(st.tuples(cells3, cells3), min_size=1, max_size=30))
    def test_origin_per_ray_equals_one_call_per_origin(self, rays):
        origins, targets = (np.array(c) for c in zip(*rays))
        keys, ray_id = bresenham3d_keys(origins, targets)
        for i, (origin, target) in enumerate(rays):
            want, _ = bresenham3d_keys(np.array(origin), np.array([target]))
            assert np.array_equal(keys[ray_id == i], want)
        assert np.array_equal(np.diff(ray_id), np.diff(ray_id).clip(0, 1))  # rays in order
        with pytest.raises(ValueError):  # neither one origin nor one per ray
            bresenham3d_keys(origins[:1].repeat(2, axis=0), targets.repeat(3, axis=0))

    def test_keys_at_index_extremes(self):
        # rays across the whole packable range give the largest numerators
        # of the walk's closed form (about 2**43); short rays at the edges
        m = (1 << 20) - 1
        origin = np.array([-m, m, -m])
        targets = np.array([[m, -m, m], [m, -m + 1, 3], [-m + 7, -m, m - 1],
                            [-m, m, -m], [-m + 2, m - 5, -m + 1], [-m, m - 9, -m + 4]])
        cells, rid_a = bresenham3d_many(origin, targets)
        keys, rid_b = bresenham3d_keys(origin, targets)
        assert np.array_equal(rid_a, rid_b)
        assert np.array_equal(keys, pack_voxel_keys(cells))
        # the oracle's closed form against the scalar walk, at the edge
        a, b = (m, -m, m), (m - (1 << 17), 5 - m, m - 54321)
        cells, _ = bresenham3d_many(np.array(a), np.array([b]))
        assert [tuple(c) for c in cells.tolist()] == bresenham3d(a, b)

    @given(edge_cells3, st.lists(st.tuples(*[st.integers(-40, 40)] * 3), min_size=1, max_size=10))
    def test_keys_at_range_extremes_match_scalar(self, origin, offsets):
        targets = np.clip(np.array(origin) + offsets, -EDGE, EDGE)
        keys, ray_id = bresenham3d_keys(np.array(origin), targets)
        for i, t in enumerate(targets.tolist()):
            want = pack_voxel_keys(np.array(bresenham3d(origin, tuple(t))))
            assert np.array_equal(keys[ray_id == i], want)

    @given(st.lists(st.tuples(cells3, cells3), min_size=1, max_size=20),
           cells3, st.tuples(*[st.integers(-1, 50)] * 3))
    def test_clip_keeps_exactly_the_cells_in_the_box(self, rays, lo, size):
        origins, targets = (np.array(c) for c in zip(*rays))
        lo = np.array(lo)
        hi = lo + size  # a size of -1 is an empty box
        d0 = np.abs(targets - origins).max(axis=1)
        k_lo, k_hi = clip_walk_to_box(origins, targets, lo, hi, np.ones_like(d0), d0)
        keys, ray_id = bresenham3d_walk(origins, targets, geometry.KEY_WEIGHTS,
                                        pack_voxel_keys(origins), k_lo, k_hi)
        for i, (a, b) in enumerate(rays):
            cells = np.array(bresenham3d(a, b))[1:-1]
            inside = cells[((cells >= lo) & (cells <= hi)).all(axis=1)]
            assert np.array_equal(keys[ray_id == i], pack_voxel_keys(inside))

    @given(st.lists(st.tuples(*[st.integers(-40000, 40000)] * 3), min_size=1, max_size=5),
           st.lists(st.tuples(*[st.integers(0, 255)] * 3), min_size=5, max_size=5))
    def test_int32_strides_match_int64(self, origins, targets):
        # a 256**3 grid: offsets from far origins times its strides overflow
        # int32 (rays of d0 >= 2**15 are walked in int64 instead), yet every
        # cell in the box comes out exact
        origins, targets = np.array(origins), np.array(targets[:len(origins)])
        strides = np.array([1 << 16, 1 << 8, 1])
        d0 = np.abs(targets - origins).max(axis=1)
        k_lo, k_hi = clip_walk_to_box(origins, targets, 0, 255, np.zeros_like(d0), d0 + 1)
        got, rid_a = bresenham3d_walk(origins, targets, strides.astype(np.int32),
                                      origins @ strides, k_lo, k_hi)
        want, rid_b = bresenham3d_walk(origins, targets, strides, origins @ strides, k_lo, k_hi)
        assert np.array_equal(rid_a, rid_b) and np.array_equal(got, want)
        assert np.array_equal(got[np.cumsum(k_hi - k_lo) - 1], targets @ strides)


class TestProjection:
    @given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.2, 2.2),
           st.integers(0, 3))
    def test_backproject_project_roundtrip(self, x, y, z, cam):
        calib = make_ring_calibs()[cam]
        p = np.array([x, y, z])
        uvd = project(calib, p)
        assert uvd is not None
        u, v, depth = uvd
        back = backproject(calib, u, v, depth)
        assert np.abs(back - p).max() <= 1e-9

    def test_principal_point_is_optical_axis(self):
        calib = make_ring_calibs()[0]
        p = calib.cam_to_world(np.array([0.0, 0.0, 2.0]))
        u, v, depth = project(calib, p)
        assert abs(u - calib.cx) <= 1e-9
        assert abs(v - calib.cy) <= 1e-9
        assert abs(depth - 2.0) <= 1e-9

    def test_behind_camera_rejected(self):
        calib = make_ring_calibs()[0]
        behind = calib.cam_to_world(np.array([0.0, 0.0, -1.0]))
        assert project(calib, behind) is None

    def test_batch_matches_scalar(self):
        calib = make_ring_calibs()[1]
        rng = np.random.default_rng(7)
        pts = rng.uniform([-1, -1, 0.3], [1, 1, 2.0], size=(40, 3))
        pc = calib.world_to_cam(pts)
        uv, _, valid = geometry.project(calib, pc)
        depth = pc[:, 2]
        for i, p in enumerate(pts):
            ref = project(calib, p)
            assert valid[i] == (ref is not None)
            if ref is not None:
                assert np.abs(uv[i] - ref[:2]).max() <= 1e-9
                assert abs(depth[i] - ref[2]) <= 1e-9
        back = backproject_many(calib, uv[valid], depth[valid])
        assert np.abs(back - pts[valid]).max() <= 1e-9

    @given(st.lists(st.integers(1, 3), max_size=3), st.integers(0, 3), st.data())
    def test_project_matches_oracle(self, lead, cam, data):
        # any leading shape; points in front of, behind and beside the
        # camera.  Camera-frame points come from the same one-point
        # world_to_cam the oracle applies, so results agree bit for bit.
        calib = make_ring_calibs()[cam]
        n = int(np.prod(lead))
        coord = st.floats(-4.0, 4.0, allow_nan=False)
        pts = np.array(data.draw(st.lists(st.tuples(coord, coord, coord),
                                          min_size=n, max_size=n)),
                       dtype=np.float64).reshape(n, 3)
        pc = np.array([calib.world_to_cam(p) for p in pts]).reshape(n, 3)
        uv, front, in_image = geometry.project(calib, pc.reshape(*lead, 3))
        assert uv.shape == (*lead, 2) and front.shape == in_image.shape == tuple(lead)
        uv, front, in_image = uv.reshape(n, 2), front.reshape(n), in_image.reshape(n)
        for i, p in enumerate(pts):
            ref = project(calib, p)
            assert front[i] == (pc[i, 2] > 1e-6)
            assert in_image[i] == (ref is not None)
            if ref is not None:
                assert (uv[i, 0], uv[i, 1]) == ref[:2]

    @given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2), st.floats(0.4, 1.8))
    def test_epipolar_constraint(self, x, y, z):
        a, b = make_ring_calibs()[:2]
        p = np.array([x, y, z])
        uv_a = project(a, p)
        uv_b = project(b, p)
        assert uv_a is not None and uv_b is not None
        line = epipolar_line(a, b, uv_a[:2])
        assert point_line_distance(line, uv_b[:2]) <= 1e-6


class TestCalibIO:
    def test_roundtrip(self, tmp_path):
        calibs = make_ring_calibs(3, depth_noise_sigma=0.02)
        save_calibs(tmp_path / "c.txt", calibs)
        loaded = load_calibs(tmp_path / "c.txt")
        assert sorted(loaded) == [0, 1, 2]
        for c in calibs:
            got = loaded[c.sensor_id]
            assert np.abs(got.rotation - c.rotation).max() <= 1e-12
            assert np.abs(got.translation - c.translation).max() <= 1e-12
            assert got.fx == c.fx and got.depth_noise_sigma == c.depth_noise_sigma

    def test_duplicate_id_rejected(self, tmp_path):
        c = make_ring_calibs(1)[0]
        save_calibs(tmp_path / "c.txt", [c, c])
        with pytest.raises(ValueError):
            load_calibs(tmp_path / "c.txt")

    def test_calib_validation(self):
        with pytest.raises(ValueError):
            CameraCalib(0, 640, 480, -1.0, 500.0, 320, 240, np.eye(3),
                        np.zeros(3))
        with pytest.raises(ValueError):
            CameraCalib(0, 640, 480, 500.0, 500.0, 320, 240,
                        np.eye(3) * 2.0, np.zeros(3))
