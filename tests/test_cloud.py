import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from semgrid import cloud as cloud_mod
from semgrid import synthworld
from semgrid.cloud import (
    CLOUD_VOXEL_RES,
    CLUSTER_DIST,
    FLOOR_Z,
    DepthImage,
    Detection,
    SegmentationMask,
    SemanticCloud,
    depth_to_points,
    fuse_semantics,
    nms_detections,
    remove_ground_and_cluster,
    statistical_outlier_filter,
    voxel_downsample,
)
from semgrid.geometry import VoxelRangeError, pack_voxel_keys, voxel_indices_of
from semgrid.semantics import NUM_CLASSES, PERSON_CLASS, uniform_rows
from semgrid.sim import SimConfig, simulate
from tests.conftest import make_ring_calibs
from tests.oracles import count_outlier_filter


def reference_clusters(points_world, floor_z=FLOOR_Z, cluster_dist=0.25, min_cluster=10):
    """Clustering with cKDTree.query_pairs and one scan of all points per
    label: the reference for the grid clustering and the sorted-label
    grouping of remove_ground_and_cluster."""
    pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
    above = np.nonzero(pts[:, 2] > floor_z)[0]
    if len(above) == 0:
        return []
    pairs = cKDTree(pts[above]).query_pairs(cluster_dist, output_type="ndarray")
    n = len(above)
    if len(pairs):
        adj = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
        _, labels = connected_components(adj, directed=False)
    else:
        labels = np.arange(n)
    clusters = []
    for lbl in np.unique(labels):
        members = above[labels == lbl]
        if len(members) >= min_cluster:
            clusters.append(members)
    return clusters


def flat_depth(calib, value: float) -> DepthImage:
    return DepthImage(calib.width, calib.height,
                      np.full((calib.height, calib.width), value))


class TestDepthToPoints:
    def test_principal_pixel_on_axis(self):
        calib = make_ring_calibs(1, width=8, height_px=6, f_px=5.0)[0]
        depth = np.zeros((6, 8))
        depth[3, 4] = 2.0  # principal point (cx=4, cy=3)
        pts = depth_to_points(DepthImage(8, 6, depth), calib)
        assert pts.shape == (1, 3)
        assert np.abs(pts[0] - [0.0, 0.0, 2.0]).max() <= 1e-12

    def test_pinhole_hand_computed(self):
        calib = make_ring_calibs(1, width=8, height_px=6, f_px=5.0)[0]
        depth = np.zeros((6, 8))
        depth[1, 6] = 2.0  # u=6, v=1
        pts = depth_to_points(DepthImage(8, 6, depth), calib)
        # x = (u - cx) / fx * z = (6-4)/5*2; y = (v - cy) / fy * z = (1-3)/5*2
        assert np.abs(pts[0] - [0.8, -0.8, 2.0]).max() <= 1e-12

    def test_invalid_pixels_skipped(self):
        calib = make_ring_calibs(1, width=8, height_px=6, f_px=5.0)[0]
        pts = depth_to_points(flat_depth(calib, 0.0), calib)
        assert len(pts) == 0

    def test_size_mismatch_rejected(self):
        calib = make_ring_calibs(1)[0]
        with pytest.raises(ValueError):
            depth_to_points(DepthImage(8, 6, np.ones((6, 8))), calib)

    def test_depth_image_rejects_nan(self):
        with pytest.raises(ValueError):
            DepthImage(2, 2, np.array([[1.0, np.nan], [1.0, 1.0]]))


class TestVoxelDownsample:
    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3),
                              st.floats(-3, 3)), min_size=1, max_size=60))
    def test_one_point_per_occupied_cell(self, raw):
        pts = np.array(raw)
        out = voxel_downsample(pts)
        in_keys = np.unique(pack_voxel_keys(voxel_indices_of(pts, CLOUD_VOXEL_RES)))
        out_keys = pack_voxel_keys(voxel_indices_of(out, CLOUD_VOXEL_RES))
        assert len(out) == len(in_keys)
        assert np.array_equal(np.sort(out_keys), in_keys)

    def test_centroid_value(self):
        pts = np.array([[0.01, 0.01, 0.01], [0.03, 0.03, 0.03]])
        out = voxel_downsample(pts)
        assert len(out) == 1
        assert np.abs(out[0] - [0.02, 0.02, 0.02]).max() <= 1e-12

    def test_empty(self):
        assert len(voxel_downsample(np.empty((0, 3)))) == 0


class TestOutlierFilter:
    def test_removes_isolated_point(self):
        rng = np.random.default_rng(0)
        dense = rng.normal(scale=0.05, size=(200, 3))
        outlier = np.array([[5.0, 5.0, 5.0]])
        kept = statistical_outlier_filter(np.vstack([dense, outlier]))
        assert len(kept) < 201
        assert not np.any(np.all(np.isclose(kept, outlier), axis=1))

    def test_small_input_passthrough(self):
        # two lone points have equal counts, and equal counts keep every point
        pts = np.array([[0, 0, 0], [1, 1, 1.0]])
        assert np.array_equal(statistical_outlier_filter(pts), pts)

    def test_equal_counts_keep_every_point(self):
        # counts of 1, of 4 (one point per cell of a 2 x 2 patch), and of
        # 3 x 3 x 3 = 27 points in one cell: the standard deviation is 0
        lone = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        patch = (np.mgrid[0:2, 0:2, 0:1].reshape(3, -1).T + 0.5) * CLOUD_VOXEL_RES
        blob = np.full((27, 3), 0.52) + np.arange(27)[:, None] * 1e-4
        for pts in (lone, patch, blob, np.array([[3.0, -2.0, 7.0]])):
            assert np.array_equal(statistical_outlier_filter(pts), pts)

    def test_lone_point_dropped_and_dense_plane_kept_whole(self):
        # a 20 x 20 plane, one point per cell, among 100 lone points a metre
        # apart: the plane's corners count 9, the lone points 1
        plane = (np.mgrid[0:20, 0:20, 0:1].reshape(3, -1).T + 0.5) * CLOUD_VOXEL_RES
        lone = np.mgrid[0:10, 0:10, 2:3].reshape(3, -1).T + 0.01
        pts = np.vstack([plane, lone])
        assert np.array_equal(statistical_outlier_filter(pts), plane)
        assert np.array_equal(count_outlier_filter(pts), plane)

    def test_empty(self):
        out = statistical_outlier_filter(np.empty((0, 3)))
        assert out.shape == (0, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e16])
    def test_non_finite_rejected(self, bad):
        pts = np.random.default_rng(0).normal(size=(60, 3))
        pts[17, 1] = bad
        with pytest.raises(VoxelRangeError):
            statistical_outlier_filter(pts)

    def test_cloud_spanning_the_packable_range(self):
        # cells of index +-(2**20 - 1) are the packable range's ends; a
        # cloud's keys need 2 spare cells beyond its extent on each side
        top = (1 << 20) - 1
        for spare in (3, 2):
            idx = np.array([[0, -top + spare, 0], [0, top, 0]])
            pts = (idx + 0.5) * CLOUD_VOXEL_RES
            if spare == 3:
                assert np.array_equal(statistical_outlier_filter(pts), pts)
            else:
                with pytest.raises(VoxelRangeError):
                    statistical_outlier_filter(pts)


def per_cell(pts: np.ndarray, count: int) -> np.ndarray:
    """count points for each of pts: pts, then copies moved a little up
    each axis, so most stay in their cell (several points per cell, as in
    a cloud that was not downsampled) and some cross into the next."""
    step = 0.5 * CLOUD_VOXEL_RES / count
    return np.vstack([pts + j * step for j in range(count)])


@pytest.fixture(scope="module")
def sim_captures():
    """The inputs of the outlier filter (voxel-downsampled sensor-frame
    clouds) and of clustering (filtered world-frame clouds) in a short
    seeded simulate."""
    captured = {"filter": [], "cluster": []}
    mp = pytest.MonkeyPatch()
    for name, key in (("statistical_outlier_filter", "filter"),
                      ("remove_ground_and_cluster", "cluster")):
        def capture(points, *args, _real=getattr(cloud_mod, name), _key=key, **kwargs):
            captured[_key].append(np.array(points))
            return _real(points, *args, **kwargs)

        mp.setattr(cloud_mod, name, capture)
    try:
        scene = synthworld.make_default_scene(seed=3, n_persons=2)
        simulate(scene, synthworld.make_camera_rig(scene),
                 SimConfig(duration_s=2 / 30, cloud_rate_hz=30.0))
    finally:
        mp.undo()
    return captured


@pytest.fixture(scope="module")
def sim_clouds(sim_captures):
    return sim_captures["filter"]


class TestOutlierFilterMatchesReference:
    """The filter keeps exactly the points the offset-by-offset count
    filter keeps; the parameter is the number of points per input point
    (per_cell)."""

    def check(self, pts):
        got = statistical_outlier_filter(pts)
        want = count_outlier_filter(pts)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("count", [1, 10, 50])
    @given(st.lists(st.tuples(st.integers(-7, 7), st.integers(-7, 7), st.integers(-7, 7),
                              st.sampled_from([0.0, 0.25, 0.5, 0.999])),
                    min_size=1, max_size=120),
           st.sampled_from([0.0, -3.3, 1e3, 5.2e4, -5.2e4]))
    def test_random_clouds(self, count, raw, shift):
        # integer cells, with fractions that put points on cell faces and
        # corners; shifts up to the packable range's ends (+-52,428 m)
        cells = np.array(raw, dtype=np.float64)
        pts = (cells[:, :3] + cells[:, 3:]) * CLOUD_VOXEL_RES + shift
        self.check(per_cell(pts, count))

    @pytest.mark.parametrize("count", [1, 10, 50])
    def test_lattice_ties(self, count):
        # lattice steps of a cell put points on cell faces; a step of two
        # and three cells leaves neighbours at the block's edge and beyond
        for step in (1, 2, 3):
            grid = np.mgrid[0:11, 0:11, 0:11].reshape(3, -1).T * step * CLOUD_VOXEL_RES
            for pts in (grid, grid - 5 * step * CLOUD_VOXEL_RES, grid[::7], grid[::3]):
                self.check(per_cell(pts, count))

    @pytest.mark.parametrize("count", [1, 10, 50])
    def test_planes_and_lines(self, count):
        rng = np.random.default_rng(7)
        plane = np.column_stack([rng.uniform(0, 3, 4000), rng.uniform(0, 3, 4000),
                                 np.full(4000, 1.25)])
        tilted = plane @ np.array([[1, 0, 0], [0, 0.6, 0.8], [0, -0.8, 0.6]])
        line = np.outer(np.arange(800) * CLOUD_VOXEL_RES, [0.6, 0.0, 0.8])
        scattered = rng.uniform(-5, 5, size=(300, 3))
        for pts in (plane, tilted, line, line + rng.normal(scale=0.01, size=line.shape),
                    np.vstack([plane, scattered])):
            kept = self.check(per_cell(pts, count))
            assert 0 < len(kept) < count * len(pts)

    @pytest.mark.parametrize("count", [1, 10, 50])
    def test_sim_clouds(self, sim_clouds, count):
        assert len(sim_clouds) == 8 and all(len(c) > 1000 for c in sim_clouds)
        for pts in sim_clouds if count == 1 else sim_clouds[::4]:
            kept = self.check(per_cell(pts, count))
            assert 0.5 * count * len(pts) < len(kept) < count * len(pts)


class TestClustering:
    def test_two_blobs(self):
        rng = np.random.default_rng(1)
        a = rng.normal(loc=(0, 0, 1.0), scale=0.05, size=(30, 3))
        b = rng.normal(loc=(3, 0, 1.0), scale=0.05, size=(30, 3))
        floor = np.column_stack([rng.uniform(-1, 4, 40),
                                 rng.uniform(-1, 1, 40),
                                 np.full(40, 0.02)])
        pts = np.vstack([a, b, floor])
        clusters = remove_ground_and_cluster(pts)
        assert len(clusters) == 2
        for members in clusters:
            assert np.all(pts[members][:, 2] > 0.1)
        assert sum(len(c) for c in clusters) == 60

    def test_small_clusters_dropped(self):
        pts = np.array([[0, 0, 1.0], [0.01, 0, 1.0]])
        assert remove_ground_and_cluster(pts) == []

    @pytest.mark.parametrize("min_cluster", [1, 2, 10])
    def test_matches_per_label_reference(self, min_cluster):
        # many singletons and small groups beside a few blobs
        rng = np.random.default_rng(4)
        scattered = rng.uniform([-8, -8, 0], [8, 8, 3], size=(1500, 3))
        blobs = [rng.normal(loc=c, scale=0.08, size=(40, 3))
                 for c in ((0, 0, 1.0), (2, 1, 0.5), (-3, 2, 1.5))]
        pts = np.vstack([scattered] + blobs)
        pts = pts[rng.permutation(len(pts))]
        got = remove_ground_and_cluster(pts, min_cluster=min_cluster)
        want = reference_clusters(pts, min_cluster=min_cluster)
        assert len(got) == len(want) >= 3
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        if min_cluster == 1:
            assert sum(len(c) == 1 for c in want) > 300


def assert_same_clusters(pts, **kwargs):
    got = remove_ground_and_cluster(pts, **kwargs)
    want = reference_clusters(pts, **kwargs)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return got


class TestGridClusteringMatchesReference:
    """The grid clustering gives the cKDTree query_pairs clusters, list for
    list and member for member."""

    @given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-0.5, 2)),
                    min_size=1, max_size=200),
           st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.7]),
           st.integers(1, 4))
    def test_random_clouds(self, raw, cluster_dist, min_cluster):
        assert_same_clusters(np.array(raw), cluster_dist=cluster_dist, min_cluster=min_cluster)

    @pytest.mark.parametrize("cluster_dist", [0.25, 0.1, 0.3])
    @pytest.mark.parametrize("spacing", [1.0, 0.5, 0.55])
    def test_lattices(self, cluster_dist, spacing):
        # spacing cluster_dist puts every neighbour pair exactly at the
        # join distance; cluster_dist / 2 and the cell edge put points on
        # cell faces
        step = spacing * cluster_dist
        grid = np.mgrid[0:9, 0:9, 0:9].reshape(3, -1).T * step + [0.0, 0.0, 0.5]
        for pts in (grid, grid - [4 * step, 4 * step, 0.0], grid[::3], grid[::7]):
            got = assert_same_clusters(pts, cluster_dist=cluster_dist, min_cluster=1)
            if cluster_dist == 0.25 and spacing in (0.5, 1.0) and len(pts) == len(grid):
                # dyadic coordinates: the pairs at exactly cluster_dist join
                assert len(got) == 1

    def test_pairs_just_beyond_the_distance_stay_apart(self):
        # isolated point pairs along cube diagonals, a little farther apart
        # than cluster_dist: a grid cell holding both would join them
        rng = np.random.default_rng(10)
        base = np.mgrid[0:30, 0:30, 0:30].reshape(3, -1).T * 2.0 + rng.uniform(0, 1, (27000, 3))
        step = rng.uniform(1.0 + 1e-9, 1.05, (27000, 1)) * CLUSTER_DIST / np.sqrt(3)
        pts = np.vstack([base, base + step]) + [0.0, 0.0, 1.0]
        assert len(assert_same_clusters(pts, min_cluster=1)) == len(pts)

    def test_far_offsets(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(scale=0.4, size=(2000, 3)) + [1e4, -1e4, 1e4]
        assert_same_clusters(pts, min_cluster=1)
        assert_same_clusters(pts)

    def test_all_below_the_floor_and_single_points(self):
        rng = np.random.default_rng(9)
        flat = np.column_stack([rng.uniform(-3, 3, (300, 2)), np.full(300, FLOOR_Z)])
        assert remove_ground_and_cluster(flat) == reference_clusters(flat) == []
        for p in ([0.0, 0.0, 1.0], [-5.0, 7.0, FLOOR_Z + 1e-9]):
            got = assert_same_clusters(np.array([p]), min_cluster=1)
            assert [c.tolist() for c in got] == [[0]]
            assert remove_ground_and_cluster(np.array([p])) == []

    def test_sim_clouds(self, sim_captures):
        clouds = sim_captures["cluster"]
        assert len(clouds) == 8 and all(len(c) > 1000 for c in clouds)
        for pts in clouds:
            assert len(assert_same_clusters(pts)) > 0
            assert_same_clusters(pts, min_cluster=1)


def assert_components_match_scipy(n, edges):
    """_components finds scipy's partition of the n nodes, labelled
    densely 0 .. count - 1."""
    count, labels = cloud_mod._components(n, edges)
    a = np.concatenate([e[0] for e in edges])
    b = np.concatenate([e[1] for e in edges])
    want_count, want = connected_components(
        coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n)), directed=False)
    assert count == want_count
    assert labels.shape == (n,) and np.array_equal(np.unique(labels), np.arange(count))
    # one pair of labels per component: the same partition
    assert len(set(zip(labels.tolist(), want.tolist()))) == count


def oriented(rng, a, b):
    """The edges (a, b), each turned round with probability one half."""
    flip = rng.random(len(a)) < 0.5
    return np.where(flip, b, a), np.where(flip, a, b)


class TestComponentsMatchScipy:
    """The hook-and-jump labelling gives the components of scipy's
    connected_components."""

    @given(st.data())
    def test_random_graphs(self, data):
        n = data.draw(st.integers(1, 60))
        node = st.integers(0, n - 1)
        ab = np.array(data.draw(st.lists(st.tuples(node, node), max_size=150)),
                      dtype=np.intp).reshape(-1, 2)
        cut = data.draw(st.integers(0, len(ab)))
        # nodes past the last one the edges can name
        n_isolated = data.draw(st.integers(0, 5))
        assert_components_match_scipy(n + n_isolated, [(ab[:cut, 0], ab[:cut, 1]),
                                                       (ab[cut:, 0], ab[cut:, 1])])

    @given(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), min_size=1, max_size=40),
           st.lists(st.integers(0, 29), min_size=1, max_size=10))
    def test_duplicate_and_self_edges(self, pairs, loops):
        ab = np.array(pairs, dtype=np.intp)
        a = np.concatenate([ab[:, 0], ab[:, 1], ab[:, 0], loops])
        b = np.concatenate([ab[:, 1], ab[:, 0], ab[:, 1], loops])
        assert_components_match_scipy(30, [(a, b), (ab[:, 1], ab[:, 0])])

    @given(st.integers(2, 3000), st.sampled_from([0.0, 0.001, 0.1]), st.integers(0, 2**32 - 1))
    def test_shuffled_paths(self, n, drop, seed):
        # a path through the nodes in random order, a few of its edges cut
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        keep = rng.random(n - 1) >= drop
        assert_components_match_scipy(n, [oriented(rng, order[:-1][keep], order[1:][keep])])

    @given(st.integers(1, 2000), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_stars(self, n, n_stars, seed):
        rng = np.random.default_rng(seed)
        nodes = rng.permutation(n)
        hubs, leaves = nodes[:n_stars], nodes[n_stars:]
        assert_components_match_scipy(
            n, [oriented(rng, hubs[rng.integers(0, len(hubs), len(leaves))], leaves)])


class TestFuseSemantics:
    def _setup(self):
        calib = make_ring_calibs(1, width=40, height_px=30, f_px=30.0)[0]
        scores = np.zeros((30, 40, NUM_CLASSES))
        scores[..., 2] = 5.0  # whole mask votes class 2
        return calib, SegmentationMask(scores)

    def test_mask_only(self):
        calib, mask = self._setup()
        pts = np.array([[0.0, 0.0, 2.0], [0.1, 0.0, 2.0]])
        cloud = fuse_semantics(pts, calib, mask, [], [])
        assert list(cloud.argmax_classes()) == [2, 2]

    def test_detection_overrides_in_cluster(self):
        calib, mask = self._setup()
        pts = np.array([[0.0, 0.0, 2.0], [0.1, 0.0, 2.0]])
        det = Detection(PERSON_CLASS, 0.95,
                        (calib.cx - 5, calib.cy - 5, calib.cx + 5, calib.cy + 5))
        # only point 0 projects into the box and only point 0 is clustered
        cloud = fuse_semantics(pts, calib, mask, [det],
                               [np.array([0])])
        assert cloud.argmax_classes()[0] == PERSON_CLASS
        assert cloud.argmax_classes()[1] == 2

    def test_unclustered_points_ignore_detections(self):
        calib, mask = self._setup()
        pts = np.array([[0.0, 0.0, 2.0]])
        det = Detection(PERSON_CLASS, 0.95, (0, 0, calib.width, calib.height))
        cloud = fuse_semantics(pts, calib, mask, [det], [])
        assert cloud.argmax_classes()[0] == 2

    def test_point_behind_camera_stays_uniform(self):
        calib, mask = self._setup()
        cloud = fuse_semantics(np.array([[0.0, 0.0, -1.0]]), calib, mask,
                               [], [])
        assert np.allclose(np.exp(cloud.log_probs[0]), 1.0 / NUM_CLASSES)

    def test_nms_drops_duplicate(self):
        box = (10.0, 10.0, 30.0, 25.0)
        strong = Detection(3, 0.9, box)
        weak = Detection(3, 0.6, (11.0, 11.0, 31.0, 26.0))
        other = Detection(4, 0.6, box)  # different class survives
        kept = nms_detections([strong, weak, other])
        assert strong in kept and other in kept and weak not in kept

    def test_nms_order_and_ties(self):
        """Suppression runs by falling score, the earlier of equal scores
        first, and the kept detections keep their input order."""
        box, near = (10.0, 10.0, 30.0, 25.0), (11.0, 11.0, 31.0, 26.0)
        first, second = Detection(3, 0.7, box), Detection(3, 0.7, near)
        low, high = Detection(5, 0.6, box), Detection(5, 0.8, near)
        apart = Detection(3, 0.65, (50.0, 50.0, 60.0, 60.0))
        kept = nms_detections([low, first, apart, second, high])
        assert kept == [first, apart, high]
        assert nms_detections([]) == []


class TestCloudContainer:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SemanticCloud(0, 0, np.zeros((2, 3)), uniform_rows(3))


class TestDetection:
    def test_rejects_bad_class_and_score(self):
        with pytest.raises(ValueError):
            Detection(NUM_CLASSES, 0.5, (0, 0, 1, 1))
        with pytest.raises(ValueError):
            Detection(-1, 0.5, (0, 0, 1, 1))
        with pytest.raises(ValueError):
            Detection(0, 1.0, (0, 0, 1, 1))
        with pytest.raises(ValueError):
            Detection(0, 0.0, (0, 0, 1, 1))


# run in a fresh interpreter: a one-sensor semgrid simulate that builds a cloud
NO_SCIPY_PROBE = """
import json, sys, tempfile
from pathlib import Path
from semgrid import backend, cli, cloud, protocol, sensor_node, sim, synthworld, voxmap

with tempfile.TemporaryDirectory() as out:
    assert cli.main(["simulate", "--out", out, "--sensors", "1", "--duration", "0.04"]) == 0
    stats = json.loads((Path(out) / "stats.json").read_text())
assert stats["clouds_received"] >= 1, stats
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded == [], loaded
"""


def test_no_scipy_at_run_time():
    """Importing the program's modules and a simulate run that builds,
    clusters and integrates a cloud load no scipy module at all."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
