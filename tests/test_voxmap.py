import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semgrid.cloud import SemanticCloud
from semgrid.geometry import (
    CameraCalib,
    pack_voxel_keys,
    unpack_voxel_keys,
    voxel_indices_of,
)
from semgrid.ply import read_ply
from semgrid.semantics import (
    NUM_CLASSES,
    PERSON_CLASS,
    fuse_rows,
    log_softmax_rows,
)
from semgrid.voxmap import (
    L_FREE,
    L_MAX,
    L_MIN,
    L_OCC,
    L_PRIOR_OCC,
    OCCLUSION_K,
    SOURCE_OBSERVED,
    SOURCE_PRIOR,
    VoxelMap,
)
from tests.oracles import DenseRowMap, bresenham3d, map_cell, sorted_state

RES = 0.10


def forward_calib(center=(0.0, 0.0, 0.0)) -> CameraCalib:
    """Camera at `center` looking along +z world."""
    return CameraCalib(0, 64, 48, 40.0, 40.0, 32.0, 24.0, np.eye(3),
                       np.asarray(center, dtype=np.float64))


def cloud_of(points_world, class_idx, calib, ts=0) -> SemanticCloud:
    pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
    pts_cam = calib.world_to_cam(pts)
    scores = np.zeros((len(pts), NUM_CLASSES))
    scores[:, class_idx] = 12.0
    return SemanticCloud(0, ts, pts_cam, log_softmax_rows(scores))


def full_state(vmap: VoxelMap):
    n = vmap._n
    return (vmap._keys[:n].copy(), vmap._log_odds[:n].copy(),
            vmap._class_rows(np.arange(n)))


def is_occluded(vmap: VoxelMap, from_world, to_world, k: int = OCCLUSION_K) -> bool:
    """Reference for is_occluded_many: walk the scalar Bresenham line and
    count occupied cells strictly between the endpoint voxels."""
    a, b = voxel_indices_of(np.array([from_world, to_world]), vmap.resolution).tolist()
    hits = 0
    for c in bresenham3d(a, b)[1:-1]:
        cell = map_cell(vmap, c)
        hits += cell is not None and cell[0] > 0
    return hits >= k


def occluded(vmap: VoxelMap, from_world, to_world, k: int = OCCLUSION_K) -> bool:
    """is_occluded_many for one target, checked against the reference."""
    got = bool(vmap.is_occluded_many(from_world, [to_world], k=k)[0])
    assert got == is_occluded(vmap, from_world, to_world, k)
    return got


class DictVoxelMap:
    """Reference map: cells in a dict keyed by packed voxel key, updated
    one cell at a time along scalar Bresenham rays."""

    def __init__(self, resolution: float = RES):
        self.resolution = resolution
        self.cells = {}  # key -> [log_odds, log_p, source]

    def _cell(self, key: int) -> list:
        if key not in self.cells:
            self.cells[key] = [0.0, np.full(NUM_CLASSES, -np.log(NUM_CLASSES)),
                               SOURCE_OBSERVED]
        return self.cells[key]

    def load_prior(self, points) -> None:
        for key in pack_voxel_keys(voxel_indices_of(points, self.resolution)).tolist():
            cell = self._cell(key)
            cell[0], cell[2] = L_PRIOR_OCC, SOURCE_PRIOR

    def integrate_cloud(self, cloud, calib) -> int:
        """Returns the number of cells freed to uniform."""
        pts = calib.cam_to_world(cloud.positions)
        keep = cloud.argmax_classes() != PERSON_CLASS
        sums = {}
        keys = pack_voxel_keys(voxel_indices_of(pts[keep], self.resolution))
        for key, log_p in zip(keys.tolist(), cloud.log_probs[keep]):
            sums[key] = sums.get(key, 0.0) + log_p
        origin = voxel_indices_of(calib.center[None], self.resolution)[0].tolist()
        crossed = set()
        for key in sums:
            end = unpack_voxel_keys(np.array([key]))[0].tolist()
            crossed.update(pack_voxel_keys(np.array(bresenham3d(origin, end))).tolist())
        freed = 0
        for key in crossed - sums.keys():
            cell = self._cell(key)
            before = cell[0]
            cell[0] = min(max(before + L_FREE, L_MIN), L_MAX)
            if before > 0 and cell[0] <= 0:
                cell[1] = np.full(NUM_CLASSES, -np.log(NUM_CLASSES))
                freed += 1
            cell[2] = SOURCE_OBSERVED
        for key, log_p in sums.items():
            cell = self._cell(key)
            cell[0] = min(max(cell[0] + L_OCC, L_MIN), L_MAX)
            cell[1] = fuse_rows(cell[1][None], log_p[None])[0]
            cell[2] = SOURCE_OBSERVED
        return freed

    def state(self):
        keys = sorted(self.cells)
        cols = list(zip(*(self.cells[k] for k in keys)))
        return (np.array(keys, dtype=np.int64), np.array(cols[0]),
                np.array(cols[1]), np.array(cols[2], dtype=np.uint8))


class TestBasics:
    def test_empty(self):
        vmap = VoxelMap()
        assert len(vmap) == 0
        assert map_cell(vmap, (0, 0, 0)) is None
        assert len(vmap.occupied_arrays()[0]) == 0

    def test_prior_cells_occupied_and_uniform(self):
        vmap = VoxelMap()
        n = vmap.load_prior(np.array([[0.05, 0.05, 0.05], [0.35, 0.05, 0.05]]))
        assert n == 2 and len(vmap) == 2
        log_odds, log_p, source = map_cell(vmap, (0, 0, 0))
        assert log_odds == L_PRIOR_OCC
        assert source == SOURCE_PRIOR
        assert np.allclose(np.exp(log_p), 1.0 / NUM_CLASSES)

    def test_prior_requires_empty_map(self):
        vmap = VoxelMap()
        vmap.load_prior(np.array([[0.05, 0.05, 0.05]]))
        with pytest.raises(ValueError):
            vmap.load_prior(np.array([[1.0, 1.0, 1.0]]))

    def test_endpoint_occupancy_and_class(self):
        vmap = VoxelMap()
        calib = forward_calib()
        target = [0.05, 0.05, 2.05]
        vmap.integrate_cloud(cloud_of([target], 4, calib), calib)
        cell = map_cell(vmap, (0, 0, 20))
        assert cell is not None
        assert abs(cell[0] - L_OCC) <= 1e-12
        assert int(np.argmax(cell[1])) == 4

    def test_crossed_cells_freed(self):
        vmap = VoxelMap()
        calib = forward_calib()
        vmap.integrate_cloud(cloud_of([[0.05, 0.05, 2.05]], 4, calib), calib)
        crossed = map_cell(vmap, (0, 0, 10))
        assert crossed is not None
        assert abs(crossed[0] - L_FREE) <= 1e-12

    def test_log_odds_clamped(self):
        vmap = VoxelMap()
        calib = forward_calib()
        cloud = cloud_of([[0.05, 0.05, 1.05]], 4, calib)
        for _ in range(20):
            vmap.integrate_cloud(cloud, calib)
        assert map_cell(vmap, (0, 0, 10))[0] == L_MAX
        assert map_cell(vmap, (0, 0, 5))[0] == L_MIN


class TestPersonPointsSkipped:
    def test_person_only_cloud_changes_nothing(self):
        vmap = VoxelMap()
        vmap.load_prior(np.array([[0.05, 0.05, 0.05], [1.05, 0.05, 0.05]]))
        calib = forward_calib()
        before = full_state(vmap)
        pts = [[0.05 + 0.1 * i, 0.05, 1.55] for i in range(10)]
        stats = vmap.integrate_cloud(cloud_of(pts, PERSON_CLASS, calib), calib)
        after = full_state(vmap)
        assert stats.occupied_updates == 0
        assert stats.freed == 0
        assert stats.semantic_fused == 0
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_mixed_cloud_integrates_only_nonperson(self):
        vmap = VoxelMap()
        calib = forward_calib()
        person = cloud_of([[0.05, 0.05, 2.05]], PERSON_CLASS, calib)
        chair = cloud_of([[1.05, 0.05, 2.05]], 5, calib)
        mixed = SemanticCloud(
            0, 0,
            np.vstack([person.positions, chair.positions]),
            np.vstack([person.log_probs, chair.log_probs]),
        )
        stats = vmap.integrate_cloud(mixed, calib)
        assert stats.occupied_updates == 1
        assert map_cell(vmap, (0, 0, 20)) is None
        assert map_cell(vmap, (10, 0, 20)) is not None


class TestMovingObject:
    def test_vacated_voxels_freed_and_uniform(self):
        vmap = VoxelMap()
        calib = forward_calib()
        # chair-sized slab of surface points 2 m ahead
        xs = np.arange(-0.25, 0.26, 0.05)
        zs = np.arange(1.95, 2.16, 0.05)
        gx, gz = np.meshgrid(xs, zs)
        old = np.column_stack([gx.ravel(),
                               np.full(gx.size, 0.05), gz.ravel()])
        for t in range(3):
            vmap.integrate_cloud(cloud_of(old, 5, calib, ts=t), calib)
        old_idx = np.unique(voxel_indices_of(old, RES), axis=0)
        assert all(map_cell(vmap, i)[0] > 0 for i in old_idx)

        # object moves away; the sensor now sees the wall behind it, so
        # every frame casts rays straight through the vacated cells (the
        # wall points sit on the same rays, scaled out from the camera)
        scale = (old[:, 2:3] + 2.0) / old[:, 2:3]
        wall = old * scale
        n_clears = int(np.ceil((3 * L_OCC) / -L_FREE)) + 2
        for t in range(n_clears):
            vmap.integrate_cloud(cloud_of(wall, 6, calib, ts=10 + t), calib)

        freed = uniform = 0
        for i in old_idx:
            log_odds, log_p, _ = map_cell(vmap, i)
            if log_odds <= 0:
                freed += 1
                if np.allclose(np.exp(log_p), 1.0 / NUM_CLASSES):
                    uniform += 1
        assert freed >= 0.9 * len(old_idx)
        assert uniform == freed


class TestOcclusion:
    def _map_with_blockers(self, blocker_x):
        vmap = VoxelMap()
        centers = [[x + 0.05, 0.05, 0.05] for x in blocker_x]
        if centers:
            vmap.load_prior(np.array(centers))
        return vmap

    def test_k2_boundary(self):
        origin = [0.05, 0.05, 0.05]
        target = [1.55, 0.05, 0.05]
        assert OCCLUSION_K == 2
        vmap = self._map_with_blockers([0.5])
        assert not occluded(vmap, origin, target)
        vmap = self._map_with_blockers([0.5, 0.9])
        assert occluded(vmap, origin, target)

    def test_endpoints_never_count(self):
        origin = [0.05, 0.05, 0.05]
        target = [1.55, 0.05, 0.05]
        vmap = self._map_with_blockers([0.0, 1.5])  # both endpoint voxels
        assert not occluded(vmap, origin, target)

    def test_k_parameter(self):
        origin = [0.05, 0.05, 0.05]
        target = [1.55, 0.05, 0.05]
        vmap = self._map_with_blockers([0.3])
        assert occluded(vmap, origin, target, k=1)
        assert not occluded(vmap, origin, target, k=2)

    def test_many_matches_scalar(self):
        rng = np.random.default_rng(3)
        vmap = VoxelMap()
        vmap.load_prior(rng.uniform(0, 2, size=(150, 3)))
        origin = [1.0, 1.0, 1.0]
        targets = rng.uniform(0, 2, size=(60, 3))
        batch = vmap.is_occluded_many(origin, targets)
        for i, t in enumerate(targets):
            assert batch[i] == is_occluded(vmap, origin, t)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        # every path rejects it: an empty map, a ray with no interior cell
        # and a ray through occupied cells alike
        origin, target = [0.05, 0.05, 0.05], [1.55, 0.05, 0.05]
        for vmap in (VoxelMap(), self._map_with_blockers([0.5, 0.9])):
            for to in (origin, target):
                with pytest.raises(ValueError):
                    vmap.is_occluded_many(origin, [to], k=k)

    def test_free_cells_do_not_block(self):
        vmap = VoxelMap()
        calib = forward_calib()
        # integrating a far wall leaves a tube of freed cells; freed
        # cells must not count as blockers
        vmap.integrate_cloud(cloud_of([[0.05, 0.05, 3.05]], 6, calib), calib)
        assert not occluded(vmap, [0.05, 0.05, 0.05], [0.05, 0.05, 2.55])


cell = st.tuples(*[st.integers(-6, 18)] * 3)


class TestOcclusionMatchesScalar:
    """is_occluded_many against the scalar reference on random maps whose
    occupied box (cells 0 ... 12 per axis) the rays start in, end in,
    cross, enter, leave or graze."""

    # a second cluster ~1 km away puts the occupied box over the grid's
    # cap, so queries search the sorted keys instead
    FAR = np.array([[600.05, 600.05, 500.05]])

    @given(occupied=st.lists(st.tuples(*[st.integers(0, 12)] * 3), min_size=1, max_size=80),
           rays=st.lists(st.tuples(cell, cell), min_size=1, max_size=20),
           one_origin=st.booleans(), k=st.sampled_from([1, 2, 3]), far=st.booleans())
    def test_matches_scalar(self, occupied, rays, one_origin, k, far):
        vmap = VoxelMap()
        centers = (np.array(occupied) + 0.5) * RES
        vmap.load_prior(np.vstack([centers, self.FAR]) if far else centers)
        assert (vmap._occ_grid is None) == far
        origins = (np.array([a for a, _ in rays]) + 0.3) * RES
        if one_origin:
            origins = origins[:1].repeat(len(rays), axis=0)
        # the last target shares its origin's voxel
        targets = (np.array([b for _, b in rays[:-1]] + [rays[-1][0]]) + 0.7) * RES
        got = vmap.is_occluded_many(origins[0] if one_origin else origins, targets, k=k)
        assert got.tolist() == [is_occluded(vmap, a, b, k) for a, b in zip(origins, targets)]
        assert vmap.is_occluded_many(origins[0], np.zeros((0, 3)), k=k).shape == (0,)


class TestPublishedGrid:
    def test_freeing_a_blocker_changes_the_next_answer(self):
        vmap = VoxelMap()
        vmap.load_prior(np.array([[1.05, 0.05, 1.05], [1.55, 0.05, 1.05]]))
        origin, target = [0.05, 0.05, 1.05], [2.05, 0.05, 1.05]
        assert occluded(vmap, origin, target)
        # a camera below the nearer blocker sees a wall above it, so its
        # rays cross that blocker's cell until it is free
        calib = forward_calib((1.0, 0.0, 0.0))
        wall = cloud_of([[1.05, 0.05, 2.05]], 6, calib)
        while map_cell(vmap, (10, 0, 10))[0] > 0:
            assert occluded(vmap, origin, target)
            vmap.integrate_cloud(wall, calib)
        assert not occluded(vmap, origin, target)
        assert occluded(vmap, origin, target, k=1)

    def test_taken_grid_unchanged_by_a_write(self):
        vmap = VoxelMap()
        vmap.load_prior(np.array([[0.05, 0.05, 1.05], [0.35, 0.05, 2.55]]))
        calib = forward_calib()
        # the first cloud's endpoint lies in the occupied box, so the grid
        # is updated from the cells that flipped; the second grows the box
        for point in ([0.05, 0.05, 2.05], [1.05, 0.05, 1.55]):
            taken = vmap._occ_grid
            copies = [a.copy() for a in taken]
            vmap.integrate_cloud(cloud_of([point], 6, calib), calib)
            assert vmap._occ_grid is not taken
            assert all(np.array_equal(a, b) for a, b in zip(taken, copies))


# voxels around the optical axis of forward_calib, so rays cross each other's ends
near_axis = st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(2, 7))


class TestSlotTable:
    """Class rows only for cells that were an endpoint, equal bit for bit
    to the dense rows of DenseRowMap."""

    @staticmethod
    def check(vmap, ref, ever_end):
        n = len(vmap)
        keys, log_odds, log_p = sorted_state(vmap)[:3]
        assert np.array_equal(keys, ref.keys)
        assert np.array_equal(log_odds, ref.log_odds)
        assert np.array_equal(log_p, ref.log_p)
        assert vmap._n_slots <= len(ever_end)
        # crossed cells and prior cells that were never an endpoint hold no row
        never = ~np.isin(vmap._keys[:n], list(ever_end))
        assert (vmap._slot[:n][never] == -1).all()

    @given(prior=st.lists(near_axis, max_size=12),
           clouds=st.lists(st.tuples(st.lists(st.tuples(near_axis, st.integers(0, NUM_CLASSES - 1)),
                                              min_size=1, max_size=12),
                                     st.booleans()), min_size=1, max_size=10),
           seed=st.integers(0, 2**16))
    def test_rows_match_dense_reference(self, prior, clouds, seed):
        rng = np.random.default_rng(seed)
        calib = forward_calib()
        vmap, ref = VoxelMap(), DenseRowMap()
        if prior:
            centers = (np.array(prior) + 0.5) * RES
            vmap.load_prior(centers)
            ref.load_prior(centers)
        ever_end = set()
        for t, (points, person_only) in enumerate(clouds):
            cells = np.array([c for c, _ in points])
            classes = np.array([PERSON_CLASS if person_only else k for _, k in points])
            scores = rng.normal(scale=3.0, size=(len(cells), NUM_CLASSES))
            scores[np.arange(len(cells)), classes] += 20.0
            pts = (cells + rng.uniform(0.1, 0.9, cells.shape)) * RES
            cloud = SemanticCloud(0, t + 1, calib.world_to_cam(pts), log_softmax_rows(scores))
            vmap.integrate_cloud(cloud, calib)
            ref.integrate_cloud(cloud, calib)
            ever_end.update(pack_voxel_keys(cells[cloud.argmax_classes() != PERSON_CLASS]).tolist())
            self.check(vmap, ref, ever_end)

    def test_freed_cell_keeps_its_slot(self):
        calib = forward_calib()
        vmap, ref = VoxelMap(), DenseRowMap()
        near, prior, far = [0.05, 0.05, 1.05], [0.05, 0.05, 1.55], [0.05, 0.05, 2.05]
        vmap.load_prior(np.array([prior]))
        ref.load_prior(np.array([prior]))
        ever_end = set()
        # the far surface frees the near cell and the prior cell, then both are hit
        for i, (point, cls) in enumerate([(near, 4)] + [(far, 6)] * 3 + [(near, 5), (prior, 7)]):
            cloud = cloud_of([point], cls, calib)
            vmap.integrate_cloud(cloud, calib)
            ref.integrate_cloud(cloud, calib)
            ever_end.add(int(pack_voxel_keys(voxel_indices_of(np.array(point), RES))[0]))
            self.check(vmap, ref, ever_end)
            if i == 3:
                log_odds, log_p, _ = map_cell(vmap, (0, 0, 10))
                assert log_odds <= 0 and (log_p == -np.log(NUM_CLASSES)).all()
        assert vmap._n_slots == 3
        assert np.argmax(map_cell(vmap, (0, 0, 10))[1]) == 5
        assert np.argmax(map_cell(vmap, (0, 0, 15))[1]) == 7


class TestOccupiedIndex:
    """The occupied keys, merged from the rows each write flips, equal
    their full recomputation after every write."""

    @given(prior=st.lists(near_axis, max_size=12),
           clouds=st.lists(st.lists(near_axis, min_size=1, max_size=12), min_size=1, max_size=12),
           seed=st.integers(0, 2**16))
    def test_merged_keys_match_recomputation(self, prior, clouds, seed):
        rng = np.random.default_rng(seed)
        calib = forward_calib()
        vmap = VoxelMap()
        if prior:
            vmap.load_prior((np.array(prior) + 0.5) * RES)
        for t, cells in enumerate(clouds):
            pts = (np.array(cells) + rng.uniform(0.1, 0.9, (len(cells), 3))) * RES
            vmap.integrate_cloud(cloud_of(pts, 1, calib, t + 1), calib)
            rows = vmap._sorted_rows
            assert np.array_equal(vmap._occ_keys, vmap._sorted_keys[vmap._log_odds[rows] > 0])

    def test_cells_flip_both_ways(self):
        # a wall, a nearer wall that joins the index, then the far wall
        # again, whose rays free the near wall's cells: they leave it
        calib = forward_calib()
        far = np.column_stack([np.linspace(-0.3, 0.3, 7), np.zeros(7), np.full(7, 1.05)])
        near = far * 0.5  # on the rays to the far wall
        vmap = VoxelMap()
        sizes = []
        for t, wall in enumerate([far] * 2 + [near] * 2 + [far] * 6):
            vmap.integrate_cloud(cloud_of(wall, 1, calib, t + 1), calib)
            rows = vmap._sorted_rows
            assert np.array_equal(vmap._occ_keys, vmap._sorted_keys[vmap._log_odds[rows] > 0])
            sizes.append(len(vmap._occ_keys))
        assert sizes[1] < sizes[3] and sizes[-1] < sizes[3]


class TestSnapshotAndExport:
    def test_snapshot_sorted_and_occupied_only(self):
        vmap = VoxelMap()
        vmap.load_prior(np.array([[0.35, 0.05, 0.05], [0.05, 0.05, 0.05]]))
        calib = forward_calib((0.0, 0.0, -1.0))
        # free one of them
        for _ in range(10):
            vmap.integrate_cloud(
                cloud_of([[0.35, 0.05, 1.05]], 6, calib), calib)
        idx, log_odds, _, _, _ = vmap.occupied_arrays()
        indices = [tuple(i) for i in idx.tolist()]
        assert indices == sorted(indices)
        assert (log_odds > 0).all()
        assert (0, 0, 0) in indices

    def test_export_ply_fields(self, tmp_path):
        vmap = VoxelMap()
        vmap.load_prior(np.array([[0.05, 0.15, 0.25]]))
        vmap.export_ply(tmp_path / "m.ply")
        fields = read_ply(tmp_path / "m.ply")
        assert set(fields) == {"x", "y", "z", "class", "occupancy", "prob"}
        assert np.allclose(
            [fields["x"][0], fields["y"][0], fields["z"][0]],
            [0.05, 0.15, 0.25])
        expected_occ = 1.0 / (1.0 + np.exp(-L_PRIOR_OCC))
        assert abs(fields["occupancy"][0] - expected_occ) <= 1e-6
        assert abs(fields["prob"][0] - 1.0 / NUM_CLASSES) <= 1e-6


class TestMatchesDictReference:
    """VoxelMap against DictVoxelMap on random cloud sequences that reach
    every branch of integrate_cloud; full state, free cells included."""

    @staticmethod
    def _sequence(rng):
        center = rng.uniform(-0.5, 0.5, size=3)
        calib = forward_calib(center)
        lo, hi = center + [-1.0, -1.0, 0.3], center + [1.0, 1.0, 2.5]
        # prior cells between the camera and the surfaces, so rays cross them
        prior = rng.uniform(lo, hi, size=(int(rng.integers(50, 300)), 3))
        surface = rng.uniform(lo + [0, 0, 0.5], hi + [0, 0, 1.0],
                              size=(int(rng.integers(10, 60)), 3))
        clouds = []
        for t in range(14):
            if t == 7:  # the scene moves: old surfaces get freed
                surface = center + (surface - center) * 1.3
            seen = surface[rng.random(len(surface)) < 0.8]
            # several points in one endpoint voxel
            pts = np.repeat(seen, rng.integers(1, 5, size=len(seen)), axis=0)
            pts = pts + rng.uniform(-0.004, 0.004, size=pts.shape)
            scores = rng.normal(scale=3.0, size=(len(pts), NUM_CLASSES))
            if t == 4:
                scores[:, PERSON_CLASS] += 50.0  # person points only
            pts_cam = calib.world_to_cam(pts)
            clouds.append(SemanticCloud(0, 1000 * (t + 1), pts_cam,
                                        log_softmax_rows(scores)))
        return prior, calib, clouds

    @staticmethod
    def _assert_index_invariant(vmap):
        keys, rows = vmap._sorted_keys, vmap._sorted_rows
        assert len(keys) == len(rows) == len(vmap)
        assert (np.diff(keys) > 0).all()
        assert np.array_equal(vmap._keys[rows], keys)
        assert np.array_equal(vmap._occ_keys, keys[vmap._log_odds[rows] > 0])
        grid, lo, strides = vmap._occ_grid
        # C order of the box is packed-key order
        assert np.array_equal(pack_voxel_keys(np.argwhere(grid) + lo), vmap._occ_keys)
        assert grid.dtype == np.uint8 and tuple(strides) == grid.strides

    def test_random_sequences(self):
        reached = dict(crossed_zero=0, prior_freed=0, person_only=0,
                       shared_voxel=0, l_min=0, l_max=0)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            prior, calib, clouds = self._sequence(rng)
            vmap, ref = VoxelMap(), DictVoxelMap()
            vmap.load_prior(prior)
            ref.load_prior(prior)
            self._assert_index_invariant(vmap)
            prior_keys = vmap._sorted_keys.copy()
            for cloud in clouds:
                stats = vmap.integrate_cloud(cloud, calib)
                assert stats.freed == ref.integrate_cloud(cloud, calib)
                reached["crossed_zero"] += stats.freed
                self._assert_index_invariant(vmap)
                targets = cloud.positions[:20] @ calib.rotation.T + calib.translation
                occluded = vmap.is_occluded_many(calib.center, targets)
                assert [is_occluded(vmap, calib.center, t) for t in targets] == occluded.tolist()
                keep = cloud.argmax_classes() != PERSON_CLASS
                reached["person_only"] += not keep.any() and len(cloud) > 0
                reached["shared_voxel"] += stats.semantic_fused > stats.occupied_updates
            for got, want in zip(sorted_state(vmap), ref.state()):
                assert np.array_equal(got, want)
            keys, log_odds = sorted_state(vmap)[:2]
            was_prior = np.isin(keys, prior_keys)
            reached["prior_freed"] += int((log_odds[was_prior] <= 0).any())
            reached["l_min"] += int((log_odds == L_MIN).any())
            reached["l_max"] += int((log_odds == L_MAX).any())
        assert all(reached.values()), reached
