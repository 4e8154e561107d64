import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgrid import sensor_node, synthworld
from semgrid.geometry import CameraCalib, unpack_voxel_keys
from semgrid.pose import BONES, NUM_JOINTS
from semgrid.semantics import FLOOR_CLASS, PERSON_CLASS
from semgrid.voxmap import VoxelMap
from tests.oracles import (
    capsule_hits_dense,
    cast_persons_dense,
    project,
    ray_boxes_dense,
    ray_capsule_pairs_per_pair,
    render_depth_sparse,
    sphere_test_dense,
    visible_joints,
)
from tests.conftest import pose_set


def small_scene(seed=1, n_persons=2):
    return synthworld.make_default_scene(seed=seed, n_persons=n_persons)


def rig(scene):
    return synthworld.make_camera_rig(scene)


def patch_pixels(uvs) -> np.ndarray:
    """The pixels a sensor reads depth at around confident keypoints at
    `uvs`, at most 17."""
    return sensor_node.patch_pixels(
        pose_set(0, 0, [(0, {j: (u, v, 0.9) for j, (u, v) in enumerate(uvs)})]))


class TestDeterminism:
    def test_depth_render_repeatable(self):
        scene, scene2 = small_scene(3), small_scene(3)
        calib = rig(scene)[0]
        a = synthworld.render_depth(scene, calib, 1.5, frame_idx=7)
        b = synthworld.render_depth(scene2, calib, 1.5, frame_idx=7)
        assert np.array_equal(a.depth, b.depth)

    def test_seed_changes_noise(self):
        ca = rig(small_scene(1))[0]
        a = synthworld.render_depth(small_scene(1), ca, 1.5, frame_idx=7)
        b = synthworld.render_depth(small_scene(2), ca, 1.5, frame_idx=7)
        assert not np.array_equal(a.depth, b.depth)

    def test_frame_changes_noise(self):
        scene = small_scene(1)
        calib = rig(scene)[0]
        a = synthworld.render_depth(scene, calib, 1.5, frame_idx=7)
        b = synthworld.render_depth(scene, calib, 1.5, frame_idx=8)
        assert not np.array_equal(a.depth, b.depth)

    def test_keypoints_repeatable(self):
        scene = small_scene(4)
        calib = rig(scene)[0]
        a = synthworld.render_keypoints(scene, calib, 2.0, frame_idx=3)
        b = synthworld.render_keypoints(small_scene(4), calib, 2.0, frame_idx=3)
        assert np.array_equal(a.person_ids, b.person_ids)
        assert np.array_equal(a.present, b.present)
        assert np.array_equal(a.keypoints, b.keypoints, equal_nan=True)


class TestPersonAnimator:
    def test_bone_lengths_constant(self):
        person = small_scene().persons[0]
        ref = None
        for t in np.linspace(0.0, 20.0, 17):
            joints = person.joints_at(t)
            lengths = np.array([
                np.linalg.norm(joints[a] - joints[b]) for a, b in BONES
            ])
            if ref is None:
                ref = lengths
            else:
                assert np.abs(lengths - ref).max() <= 1e-9

    def test_stays_in_room(self):
        scene = small_scene(n_persons=3)
        for person in scene.persons:
            for t in np.linspace(0.0, 30.0, 31):
                joints = person.joints_at(t)
                assert np.all(joints[:, :2] >= scene.room_min[:2] - 0.6)
                assert np.all(joints[:, :2] <= scene.room_max[:2] + 0.6)
                # ankles can dip slightly below the floor mid-stride
                assert np.all(joints[:, 2] >= -0.05)

    def test_path_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            synthworld.PersonAnimator(np.array([[1.0, 1.0]]))


class TestKeypointNoise:
    def test_frame_form(self):
        """A camera's keypoint frame: the persons with a keypoint, by scene
        index; u, v and confidence where present and 0 elsewhere; NaN
        depth and sigma; nothing from feedback."""
        scene = small_scene(5, n_persons=3)
        calib = rig(scene)[1]
        ps = synthworld.render_keypoints(scene, calib, 2.5, frame_idx=15)
        assert (ps.sensor_id, ps.timestamp_us) == (calib.sensor_id, 2_500_000)
        ids = ps.person_ids.tolist()
        assert ids and ids == sorted(set(ids)) and set(ids) <= {0, 1, 2}
        assert ps.present.any(axis=1).all()
        assert (ps.keypoints[~ps.present][:, :3] == 0).all()
        assert (ps.keypoints[ps.present][:, 2] > 0).all()
        assert np.isnan(ps.keypoints[..., 3:]).all() and not ps.from_feedback.any()
        empty = synthworld.render_keypoints(dataclasses.replace(scene, persons=[]), calib, 2.5)
        assert len(empty.person_ids) == 0 and empty.keypoints.shape == (0, NUM_JOINTS, 5)

    def test_visible_rmse_matches_sigma(self):
        scene = small_scene(5)
        calib = rig(scene)[0]
        errs = []
        for i in range(120):
            t = i / 6.0
            vis = visible_joints(scene, calib, t)
            ps = synthworld.render_keypoints(scene, calib, t, frame_idx=i,
                                             vis=vis)
            for pid, kps, present in zip(ps.person_ids, ps.keypoints, ps.present):
                joints = scene.persons[pid].joints_at(t)
                for j, kp in enumerate(kps):
                    if not present[j] or not vis[pid, j]:
                        continue
                    uvd = project(calib, joints[j])
                    if uvd is None:
                        continue
                    # skip clipped image-border keypoints
                    if not (2 < kp[0] < calib.width - 2
                            and 2 < kp[1] < calib.height - 2):
                        continue
                    errs.append((kp[0] - uvd[0]) ** 2 + (kp[1] - uvd[1]) ** 2)
        assert len(errs) > 2000
        rmse = float(np.sqrt(np.mean(errs) / 2.0))  # per-axis sigma
        assert abs(rmse - synthworld.KEYPOINT_NOISE_PX) <= 0.2

    def test_noiseless_exact(self):
        scene = small_scene(5)
        calib = rig(scene)[0]
        vis = visible_joints(scene, calib, 1.0)
        ps = synthworld.render_keypoints(scene, calib, 1.0, noise_px=0.0,
                                         miss_rate=0.0, p_occ_fail=0.0,
                                         frame_idx=0, vis=vis)
        for pid, kps, present in zip(ps.person_ids, ps.keypoints, ps.present):
            joints = scene.persons[pid].joints_at(1.0)
            for j, kp in enumerate(kps):
                if not present[j] or not vis[pid, j]:
                    continue
                uvd = project(calib, joints[j])
                if 1 < uvd[0] < calib.width - 1 and 1 < uvd[1] < calib.height - 1:
                    assert abs(kp[0] - uvd[0]) <= 1e-6
                    assert abs(kp[1] - uvd[1]) <= 1e-6

    def test_occluded_confidence_low(self):
        scene = small_scene(6)
        calib = rig(scene)[0]
        vis_confs, occ_confs = [], []
        for i in range(60):
            t = i / 6.0
            vis = visible_joints(scene, calib, t)
            ps = synthworld.render_keypoints(scene, calib, t, frame_idx=i, vis=vis)
            for pid, kps, present in zip(ps.person_ids, ps.keypoints, ps.present):
                for j, kp in enumerate(kps):
                    if not present[j]:
                        continue
                    (occ_confs, vis_confs)[int(vis[pid, j])].append(kp[2])
        assert vis_confs and occ_confs
        assert min(vis_confs) >= 0.55
        assert max(occ_confs) < 0.55


class TestVisibilityAgainstMap:
    def test_agreement_with_voxel_occlusion(self):
        scene = small_scene(2)
        calibs = rig(scene)
        vmap = VoxelMap()
        keys = synthworld.structure_voxel_keys(scene, 0.0, vmap.resolution)
        vmap.load_prior((unpack_voxel_keys(keys) + 0.5) * vmap.resolution)
        agree = total = 0
        for i in range(0, 60, 5):
            t = i / 6.0
            vis = synthworld.visible_joints_many(scene, calibs, t)
            joints = np.stack([p.joints_at(t) for p in scene.persons])
            for ci, calib in enumerate(calibs):
                occluded = vmap.is_occluded_many(
                    calib.center, joints.reshape(-1, 3)).reshape(vis[ci].shape)
                # visibility additionally accounts for person-on-person
                # occlusion and image bounds, so only one direction is
                # checkable: a geometrically visible joint must not be
                # flagged occluded by the structure map (up to rays
                # grazing the voxelized shell)
                total += int(vis[ci].sum())
                agree += int(np.sum(vis[ci] & ~occluded))
        assert total > 500
        assert agree / total >= 0.95


def _uncached_static_hits(scene, calib, t_s):
    """Per-pixel hit parameters against the static structure, cast from
    scratch, no cache involved."""
    uu, vv = np.meshgrid(np.arange(calib.width), np.arange(calib.height))
    dirs = np.stack([(uu.ravel() - calib.cx) / calib.fx,
                     (vv.ravel() - calib.cy) / calib.fy,
                     np.ones(uu.size)], axis=1) @ calib.rotation.T
    return synthworld._cast_static(scene, t_s, calib.center, dirs)[0]


class TestCachesFollowContent:
    """The renderer's caches must never hand one camera or scene the
    results of another, even when new objects reuse old ones' memory."""

    def test_rebuilt_rigs_render_their_own_cast(self):
        scene = small_scene(1)
        stale = 0
        for i in range(40):
            # a new rig each round, shifted so no camera repeats, and
            # dropped before the next one is built
            calib = synthworld.make_camera_rig(scene, inset=0.3 + 0.01 * i)[i % 4]
            t, _ = synthworld._static_cast(scene, calib, 0.0)
            stale += not np.array_equal(t, _uncached_static_hits(scene, calib, 0.0))
            del calib
        assert stale == 0

    def test_depth_noise_follows_the_scene_seed(self):
        calib = rig(small_scene(1))[0]
        stale = 0
        for seed in range(40):
            scene = small_scene(seed, n_persons=0)
            noisy = synthworld.render_depth(scene, calib, 0.0, frame_idx=3).depth
            clean = synthworld.render_frame(scene, calib, 0.0)[0]
            field = synthworld.scene_rng(
                scene, calib.sensor_id, 3, synthworld._STREAM_DEPTH
            ).standard_normal(clean.shape)
            sigma = calib.depth_noise_sigma * (clean / 4.0) ** 2
            expected = np.where(clean > 0, np.maximum(clean + field * sigma, 1e-3), 0.0)
            stale += not np.array_equal(noisy, expected)
            del scene
        assert stale == 0


def pixel_rays(calib) -> np.ndarray:
    return synthworld._pixel_dirs_cam(calib) @ calib.rotation.T


def assert_cast_matches_dense(capsules, blocks, dirs, best_t=None, best_c=None,
                              blocked=None) -> tuple:
    """Assert that the person cast gives the dense cast's bits and that
    its cull selects, each once, every pair that passes the sphere test
    and whose capsule quadratics hit: the pairs the bits depend on.
    Return the (N,M) selection, sphere-test passes and hits."""
    if best_t is None:
        best_t = np.full(len(dirs), np.inf)
        best_c = np.full(len(dirs), synthworld.NO_CLASS, dtype=np.int64)
    got = synthworld._cast_persons(capsules, blocks, dirs, best_t.copy(), best_c.copy(),
                                   blocked)
    expected = cast_persons_dense(capsules, blocks, dirs, best_t.copy(), best_c.copy(),
                                  blocked)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    if capsules is None or len(dirs) == 0:
        return None, None, None
    times = np.zeros((len(dirs), len(capsules[2])), dtype=np.int64)
    for rays, caps in synthworld._cull_pairs(capsules, blocks, dirs):
        np.add.at(times, (rays, caps), 1)
    assert times.max(initial=0) <= 1
    selected = times == 1
    hits = np.isfinite(capsule_hits_dense(capsules, blocks, dirs, blocked))
    assert not (hits & ~selected).any()
    return selected, sphere_test_dense(capsules, blocks, dirs), hits


def moved(calib, translation, rotation=None):
    return dataclasses.replace(calib, translation=np.asarray(translation, dtype=np.float64),
                               rotation=calib.rotation if rotation is None else rotation)


class TestPersonCastMatchesDense:
    """The culled person cast gives the bits of the sphere test run on
    every (ray, capsule) pair, whatever the rays and the camera."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_frames_from_every_camera(self, seed):
        scene = small_scene(seed, n_persons=8)
        t_s = 1.3 * seed
        capsules = synthworld._scene_capsules(scene, t_s)
        hits = 0
        for calib in rig(scene):
            t, cls = synthworld._static_cast(scene, calib, t_s)
            selected, _, _ = assert_cast_matches_dense(capsules, [(calib, len(t))],
                                                    pixel_rays(calib), t.copy(), cls.copy())
            assert selected.mean() < 0.05
            hits += np.count_nonzero(synthworld.render_frame(scene, calib, t_s)[1]
                                     == PERSON_CLASS)
        assert hits > 1000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sparse_patches_of_all_cameras(self, seed):
        scene = small_scene(seed, n_persons=8)
        t_s = 1.3 * seed
        blocks, dirs = [], []
        for i, calib in enumerate(rig(scene)):
            # the third camera reads no depth this frame
            ps = synthworld.render_keypoints(scene, calib, t_s)
            pixels = [] if i == 2 else [patch_pixels(kps[present, :2])
                                        for kps, present in zip(ps.keypoints, ps.present)]
            flat = synthworld.flat_pixel_indices(calib, np.concatenate(pixels) if pixels else [])
            blocks.append((calib, len(flat)))
            dirs.append(synthworld._pixel_dirs_cam(calib)[flat] @ calib.rotation.T)
        assert_cast_matches_dense(synthworld._scene_capsules(scene, t_s), blocks,
                                  np.concatenate(dirs))

    # at 2 persons the pairs are too few to cull, so all are selected
    @pytest.mark.parametrize("seed, persons", [(1, 8), (2, 8), (3, 8), (1, 2)])
    def test_joint_rays_with_own_capsules_blocked(self, seed, persons):
        scene = small_scene(seed, n_persons=persons)
        t_s = 1.3 * seed
        calibs = rig(scene)
        flat = np.stack([p.joints_at(t_s) for p in scene.persons]).reshape(-1, 3)
        origins = np.repeat([c.center for c in calibs], len(flat), axis=0)
        dirs = np.concatenate([flat - c.center for c in calibs])
        t, cls = synthworld._cast_static(scene, t_s, origins, dirs)
        blocked = np.tile(synthworld._self_blocked(persons), (len(calibs), 1))
        assert_cast_matches_dense(synthworld._scene_capsules(scene, t_s),
                                  [(c, len(flat)) for c in calibs], dirs, t, cls, blocked)

    def _scene(self):
        scene = small_scene(1, n_persons=8)
        capsules = synthworld._scene_capsules(scene, 2.0)
        centers, radii = synthworld._bounding_spheres(capsules)
        return rig(scene)[0], capsules, centers, radii

    def test_camera_inside_a_bounding_sphere(self):
        calib, capsules, centers, radii = self._scene()
        for m in (0, 1, 13):  # torso, head, a shin
            inside = moved(calib, centers[m] + 0.3 * radii[m] * calib.rotation[:, 1])
            _, passed, _ = assert_cast_matches_dense(
                capsules, [(inside, calib.width * calib.height)], pixel_rays(inside))
            assert passed[:, m].all()

    @pytest.mark.parametrize("depth", [0.0, 0.5, 0.99, 1.01])
    def test_capsule_straddling_the_camera_plane(self, depth):
        calib, capsules, centers, radii = self._scene()
        m = 0
        # the sphere's centre at (1.5 R, 0, depth R) in the camera frame
        beside = moved(calib, centers[m] - radii[m] * (1.5 * calib.rotation[:, 0]
                                                       + depth * calib.rotation[:, 2]))
        # the frame, a fan of rays across the sphere on both sides of the
        # plane and its mirror image, and rays to points all over the
        # sphere just inside it
        side = calib.rotation[:, 0] + np.linspace(-1, 1, 201)[:, None] * calib.rotation[:, 2]
        unit = np.random.default_rng(0).standard_normal((500, 3))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        inside = centers[m] + 0.999 * radii[m] * unit - beside.center
        dirs = np.concatenate([pixel_rays(beside), side, -side, inside])
        _, passed, _ = assert_cast_matches_dense(capsules, [(beside, len(dirs))], dirs)
        assert passed[:, m].any()

    def test_rays_behind_the_camera(self):
        calib, capsules, centers, radii = self._scene()
        dirs = pixel_rays(calib)
        # rays away from the persons, then a camera turned away from them
        # whose backward rays reach them
        assert_cast_matches_dense(capsules, [(calib, 2 * len(dirs))],
                                  np.concatenate([dirs, -dirs]))
        turned = moved(calib, calib.translation, calib.rotation * (-1.0, 1.0, -1.0))
        t = np.full(len(dirs), np.inf)
        c = np.full(len(dirs), synthworld.NO_CLASS, dtype=np.int64)
        synthworld._cast_persons(capsules, [(turned, len(dirs))], dirs, t, c)
        assert np.count_nonzero(c == PERSON_CLASS) > 100
        assert_cast_matches_dense(capsules, [(turned, len(dirs))], dirs)

    def test_rays_grazing_the_spheres(self):
        calib, capsules, centers, radii = self._scene()
        for cam in (calib, moved(calib, calib.translation + (2.0, 1.5, -1.0))):
            axis = centers - cam.center
            dist = np.linalg.norm(axis, axis=1)
            e1 = np.cross(axis, (0.0, 0.0, 1.0))
            e1 /= np.linalg.norm(e1, axis=1)[:, None]
            e2 = np.cross(axis / dist[:, None], e1)
            # points at which rays from the camera are tangent to the
            # sphere, scaled by 1 + tiny steps either side
            reach = radii * dist / np.sqrt(dist ** 2 - radii ** 2)
            angle = np.linspace(0, 2 * np.pi, 24, endpoint=False)
            scale = 1 + np.array([-1e-3, -1e-9, -1e-12, -1e-15, 0, 1e-15, 1e-12, 1e-9, 1e-3])
            ring = np.cos(angle)[:, None, None] * e1 + np.sin(angle)[:, None, None] * e2
            dirs = (axis + (scale[:, None, None, None] * reach[:, None] * ring)).reshape(-1, 3)
            _, passed, _ = assert_cast_matches_dense(capsules, [(cam, len(dirs))], dirs)
            assert passed.any() and not passed.all()

    def test_no_persons_or_no_rays(self):
        calib, capsules, _, _ = self._scene()
        assert_cast_matches_dense(None, [(calib, 5)], pixel_rays(calib)[:5])
        assert_cast_matches_dense(capsules, [(calib, 0)], np.empty((0, 3)))
        assert_cast_matches_dense(capsules, [(calib, 0), (calib, 0)], np.empty((0, 3)))


# where a random capsule sits relative to the camera
_PLACEMENTS = ("front", "border", "end-on", "inside", "straddling", "behind")


def unit_rows(rng, n) -> np.ndarray:
    u = rng.standard_normal((n, 3))
    return u / np.linalg.norm(u, axis=1)[:, None]


@st.composite
def capsule_casts(draw):
    """A small random camera, capsules placed in its frame as drawn from
    _PLACEMENTS (bones seen end-on and spheres included), and rays: every
    pixel's, their reverse, rays to points on and just off the capsules'
    surfaces and rays tangent to their end spheres, in one or two blocks.
    Returns (capsules, blocks, dirs)."""
    placements = draw(st.lists(st.sampled_from(_PLACEMENTS), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    width, height = 32, 24
    calib = CameraCalib(0, width, height, *rng.uniform(15, 60, 2),
                        *rng.uniform((12, 8), (20, 16)), q * np.sign(np.linalg.det(q)),
                        rng.uniform(-2, 2, 3))
    ends = []
    for placement in placements:
        r = rng.uniform(0.01, 0.3)
        axis = unit_rows(rng, 1)[0] * rng.choice([0.0, rng.uniform(0.05, 1.0)])
        u, v = rng.uniform((-4, -4), (width + 4, height + 4))
        if placement == "border":
            u = rng.choice([-0.5, 0.0, 0.5, width - 0.5, width, width + 0.5])
        p0 = np.array([(u - calib.cx) / calib.fx, (v - calib.cy) / calib.fy, 1.0])
        p0 *= rng.uniform(0.05, 6.0)
        if placement == "end-on":
            axis = p0 / np.linalg.norm(p0) * rng.uniform(0.05, 1.0) * rng.choice([-1, 1])
        elif placement == "inside":
            p0 = -rng.uniform(0, 1) * axis + 0.9 * r * unit_rows(rng, 1)[0]
        elif placement == "straddling":
            p0[2] = rng.uniform(-r, r + 2e-3)
        elif placement == "behind":
            p0[2] *= -1
        ends.append((p0, p0 + axis, r))
    p0s, p1s, rs = (np.array(part) for part in zip(*ends))
    capsules = (calib.cam_to_world(p0s), calib.cam_to_world(p1s), rs)
    dirs = [pixel_rays(calib)]
    dirs.append(-dirs[0])
    for p0, p1, r in zip(*capsules):
        # points on the surface, and scaled just off it either way
        s = p0 + rng.uniform(0, 1, (40, 1)) * (p1 - p0) + r * unit_rows(rng, 40)
        dirs.append((s - calib.center) * rng.choice([1 - 1e-9, 1.0, 1 + 1e-9], (40, 1)))
        for end in (p0, p1):
            axis = end - calib.center
            dist = np.linalg.norm(axis)
            if dist > r * 1.01:
                e1 = np.cross(axis, unit_rows(rng, 1)[0])
                e1 /= np.linalg.norm(e1)
                e2 = np.cross(axis / dist, e1)
                angle = rng.uniform(0, 2 * np.pi, (12, 1))
                reach = r * dist / np.sqrt(dist ** 2 - r ** 2)
                dirs.append(axis + reach * (np.cos(angle) * e1 + np.sin(angle) * e2)
                            * rng.choice([1 - 1e-12, 1.0, 1 + 1e-12], (12, 1)))
    dirs = np.concatenate(dirs)
    split = draw(st.integers(0, len(dirs)))
    return capsules, [(calib, split), (calib, len(dirs) - split)], dirs


class TestCullKeepsHitPairs:
    """Property: with the cull forced on and the pairs cast in small
    chunks, the cull keeps every pair whose capsule quadratics hit and
    the cast gives the dense cast's bits, wherever the capsules are."""

    @settings(max_examples=60)
    @given(capsule_casts())
    def test_random_capsules(self, cast):
        with mock.patch.object(synthworld, "_CULL_MIN_PAIRS", 0), \
                mock.patch.object(synthworld, "_CAST_CHUNK", 97):
            assert_cast_matches_dense(*cast)


def boxes_at(scene, t_s) -> list:
    return [(*b.corners_at(t_s), b.class_idx) for b in scene.all_boxes()]


def assert_boxes_match_dense(origins, dirs, boxes) -> tuple:
    """Assert that the box-by-box slab test gives the bits of the
    all-boxes-at-once one; return its (t, class)."""
    got = synthworld._ray_boxes(origins, dirs, boxes)
    expected = ray_boxes_dense(origins, dirs, boxes)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    return got


# a unit box and the coordinates of its faces, centre and outside
_UNIT_BOX = (np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.0, 2.0]), 4)
_COORDS = (0.0, 1.0, 1.5, 2.0, 3.0)


class TestStaticCastMatchesDense:
    """The static cast, slab-testing one box at a time, gives the bits of
    the test of every box at once, whatever the rays."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_frames_before_and_after_box_moves(self, seed):
        scene = small_scene(seed, n_persons=0)
        for i, offset in ((0, (0.6, 0.4, 0.0)), (3, (-0.5, 0.0, 0.3))):
            scene.boxes[i] = dataclasses.replace(scene.boxes[i], move_time_s=1.0,
                                                 move_offset=offset)
        moved_pixels = 0
        for calib in rig(scene):
            before = assert_boxes_match_dense(calib.center, pixel_rays(calib), boxes_at(scene, 0.0))
            after = assert_boxes_match_dense(calib.center, pixel_rays(calib), boxes_at(scene, 2.0))
            moved_pixels += np.count_nonzero(before[0] != after[0])
        assert moved_pixels > 1000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_joint_rays_with_one_origin_per_ray(self, seed):
        scene = small_scene(seed, n_persons=8)
        t_s = 1.3 * seed
        calibs = rig(scene)
        flat = np.stack([p.joints_at(t_s) for p in scene.persons]).reshape(-1, 3)
        origins = np.repeat([c.center for c in calibs], len(flat), axis=0)
        dirs = np.concatenate([flat - c.center for c in calibs])
        t, _ = assert_boxes_match_dense(origins, dirs, boxes_at(scene, t_s))
        assert np.isfinite(t).any() and not np.isfinite(t).all()

    def test_axis_parallel_rays_from_faces_and_inside(self):
        # every origin on the grid of face, centre and outside coordinates
        # along every direction with components in -1, 0, 1: zero components
        # give inf slabs, or NaN ones where the origin lies in a face's plane
        grid = np.stack(np.meshgrid(_COORDS, _COORDS, _COORDS, indexing="ij"), -1).reshape(-1, 3)
        steps = np.stack(np.meshgrid(*[(-1.0, 0.0, 1.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        origins = np.repeat(grid, len(steps), axis=0)
        dirs = np.tile(steps, (len(grid), 1))
        for scale in (1.0, 0.37):
            t, cls = assert_boxes_match_dense(origins, scale * dirs, [_UNIT_BOX])
            assert (cls == 4).any() and (cls == synthworld.NO_CLASS).any()
        for origin in ((1.0, 1.5, 1.5), (1.5, 1.5, 1.5), (2.0, 2.0, 2.0)):
            assert_boxes_match_dense(np.array(origin), steps, [_UNIT_BOX])

    def test_rays_grazing_edges(self):
        rng = np.random.default_rng(0)
        bmin, bmax, _ = _UNIT_BOX
        # points on the 12 edges, from origins all around the box, and rays
        # scaled by 1 + tiny steps either side
        t = rng.random((12, 1))
        corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        pairs = [(a, b) for a in range(8) for b in range(a + 1, 8)
                 if np.abs(corners[a] - corners[b]).sum() == 1]
        edge = np.array([corners[a] + t[i] * (corners[b] - corners[a])
                         for i, (a, b) in enumerate(pairs)]) + bmin
        origins = rng.uniform(-1.0, 4.0, (40, 3))
        scale = 1 + np.array([-1e-6, -1e-12, -1e-15, 0, 1e-15, 1e-12, 1e-6])
        dirs = (scale[:, None, None, None] * (edge[None, :] - origins[:, None])[None]).reshape(-1, 3)
        at = np.broadcast_to(origins[None, :, None], (len(scale), 40, 12, 3)).reshape(-1, 3)
        _, cls = assert_boxes_match_dense(at, dirs, [_UNIT_BOX])
        assert (cls == 4).any() and (cls == synthworld.NO_CLASS).any()
        # along an edge, and along a face, from outside
        along = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert_boxes_match_dense(np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.5]]), along, [_UNIT_BOX])

    def test_equal_entry_the_earlier_box_wins(self):
        front = (np.array([1.0, 0.0, 0.0]), np.array([2.0, 1.0, 1.0]), 4)
        deep = (np.array([1.0, 0.0, 0.0]), np.array([3.0, 2.0, 2.0]), 5)
        dirs = np.array([[1.0, 0.0, 0.0], [1.0, 0.1, 0.2], [2.0, 0.5, 0.5]])
        for boxes in ([front, deep], [deep, front]):
            t, cls = assert_boxes_match_dense(np.array([0.0, 0.5, 0.5]), dirs, boxes)
            assert np.array_equal(t, [1.0, 1.0, 0.5])
            assert (cls == boxes[0][2]).all()

    def test_no_boxes_or_no_rays(self):
        scene = small_scene(1, n_persons=0)
        calib = rig(scene)[0]
        t, cls = assert_boxes_match_dense(calib.center, pixel_rays(calib), [])
        assert np.isinf(t).all() and (cls == synthworld.NO_CLASS).all()
        assert_boxes_match_dense(calib.center, np.empty((0, 3)), boxes_at(scene, 0.0))
        assert_boxes_match_dense(np.empty((0, 3)), np.empty((0, 3)), boxes_at(scene, 0.0))


def assert_capsule_pairs_match(capsules, origins, at, caps, dirs) -> np.ndarray:
    """Assert that the capsule quadratics with their capsule and (origin,
    capsule) terms gathered give the bits of the per-pair form."""
    p0s, p1s, rs = capsules
    got = synthworld._ray_capsule_pairs(capsules, origins, at, caps, dirs,
                                        synthworld._rowdot(dirs, dirs))
    assert np.array_equal(got, ray_capsule_pairs_per_pair(
        origins[at], dirs, p0s[caps], p1s[caps], rs[caps]))
    return got


def all_pairs(n_rays: int, n_caps: int) -> tuple:
    return np.repeat(np.arange(n_rays), n_caps), np.tile(np.arange(n_caps), n_rays)


class TestCapsulePairsMatchPerPair:
    """The capsule quadratics give the bits of their per-pair form."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_pair_of_frames_from_every_camera(self, seed):
        scene = small_scene(seed, n_persons=8)
        capsules = synthworld._scene_capsules(scene, 1.3 * seed)
        calibs = rig(scene)
        # every 7th pixel of each camera against every capsule
        dirs = [pixel_rays(calib)[seed::7] for calib in calibs]
        rays, caps = all_pairs(sum(map(len, dirs)), len(capsules[2]))
        block = np.repeat(np.arange(len(calibs)), list(map(len, dirs)))
        t = assert_capsule_pairs_match(capsules, np.array([c.center for c in calibs]),
                                       block[rays], caps, np.concatenate(dirs)[rays])
        assert np.isfinite(t).sum() > 1000

    def _capsules(self):
        # a body, a sphere (zero-length axis) and an axis below the body
        # threshold
        p0s = np.array([[1.0, 1.0, 0.5], [3.0, 1.0, 1.0], [1.0, 3.0, 1.0]])
        p1s = np.array([[1.0, 1.0, 1.5], [3.0, 1.0, 1.0], [1.0, 3.0, 1.0 + 1e-7]])
        return p0s, p1s, np.array([0.2, 0.3, 0.25])

    def test_zero_length_axes_and_origins_inside(self):
        capsules = self._capsules()
        p0s, p1s, rs = capsules
        unit = np.random.default_rng(1).standard_normal((300, 3))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        # rays in all directions from the capsules' ends, from inside the
        # body and a cap of the first, and from outside
        origins = np.concatenate([p0s, p1s, [[1.0, 1.0, 1.0], [1.05, 1.0, 1.55],
                                             [0.0, 0.0, 0.0], [2.0, 2.0, 3.0]]])
        rays, caps = all_pairs(len(origins) * len(unit), len(rs))
        at = rays // len(unit)
        t = assert_capsule_pairs_match(capsules, origins, at, caps, unit[rays % len(unit)])
        assert np.isfinite(t).any() and not np.isfinite(t).all()

    def test_tangent_rays(self):
        capsules = self._capsules()
        p0s, p1s, rs = capsules
        # rays perpendicular to the (vertical) axes, at the radius times
        # 1 + tiny steps from the middle and the top end: tangent to the
        # body and to the end caps
        scale = 1 + np.array([-1e-9, -1e-15, 0, 1e-15, 1e-9])
        origins, dirs = [], []
        for c in range(len(rs)):
            for end in (0.5 * (p0s[c] + p1s[c]), p1s[c]):
                for offset in ((0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)):
                    for d in ((1.0, 0.0, 0.0), (0.7, 0.0, 0.35)):
                        reach = end + rs[c] * scale[:, None] * offset
                        origins.append(reach - 2.0 * np.array(d))
                        dirs.append(np.broadcast_to(d, reach.shape))
        origins, dirs = np.concatenate(origins), np.concatenate(dirs)
        rays, caps = all_pairs(len(dirs), len(rs))
        t = assert_capsule_pairs_match(capsules, origins, rays, caps, dirs[rays])
        assert np.isfinite(t).any() and not np.isfinite(t).all()


class TestDepthRendering:
    def test_sparse_matches_full_at_pixels(self):
        scene = small_scene(7)
        calib = rig(scene)[0]
        full = synthworld.render_depth(scene, calib, 2.0, frame_idx=4)
        rng = np.random.default_rng(0)
        pixels = np.column_stack([
            rng.integers(0, calib.width, 200),
            rng.integers(0, calib.height, 200),
        ])
        sparse = render_depth_sparse(scene, calib, 2.0, pixels,
                                                frame_idx=4)
        for u, v in pixels:
            assert sparse.depth[v, u] == full.depth[v, u]

    def test_sparse_many_matches_single(self):
        scene = small_scene(7)
        calibs = rig(scene)[:2]
        pixels = patch_pixels([(20.5, 30.5), (100.2, 80.9)])
        many = synthworld.render_depth_sparse_many(
            scene, [(c, pixels) for c in calibs], 2.0, frame_idx=4)
        for calib, got in zip(calibs, many):
            single = render_depth_sparse(scene, calib, 2.0, pixels,
                                                    frame_idx=4)
            assert np.array_equal(got.depth, single.depth)

    def test_depth_against_ground_truth_floor(self):
        scene = small_scene()
        calib = rig(scene)[0]
        depth, classes = synthworld.render_frame(scene, calib, 0.0)
        # pick floor pixels and verify the ray-cast depth geometrically:
        # depth is camera-frame z, so the hit point must land on z=0
        vs, us = np.nonzero(classes == FLOOR_CLASS)
        for u, v in list(zip(us, vs))[::301]:
            d = depth[v, u]
            ray = np.array([(u - calib.cx) / calib.fx,
                            (v - calib.cy) / calib.fy, 1.0])
            p = calib.translation + calib.rotation @ ray * d
            assert abs(p[2]) <= 1e-6

    def test_person_pixels_present(self):
        scene = small_scene()
        calib = rig(scene)[0]
        found = any(
            np.any(synthworld.render_frame(scene, calib, t)[1] == PERSON_CLASS)
            for t in (0.0, 1.0, 2.0, 3.0)
        )
        assert found


class TestSegmentationAndDetections:
    def test_label_noise_rate(self):
        scene = small_scene()
        calib = rig(scene)[0]
        clean = synthworld.render_segmentation(scene, calib, 0.0,
                                               label_noise=0.0, frame_idx=0)
        noisy = synthworld.render_segmentation(scene, calib, 0.0,
                                               label_noise=0.2, frame_idx=0)
        flips = np.mean(np.argmax(clean.scores, axis=2)
                        != np.argmax(noisy.scores, axis=2))
        # a flipped pixel can land on its original class
        assert 0.1 <= flips <= 0.25

    def test_detections_cover_persons(self):
        scene = small_scene()
        calib = rig(scene)[0]
        dets = synthworld.render_detections(scene, calib, 0.0, frame_idx=0)
        classes = {d.class_idx for d in dets}
        assert PERSON_CLASS in classes


class TestSceneIO:
    def test_roundtrip_preserves_behavior(self, tmp_path):
        scene = small_scene(9, n_persons=3)
        scene.boxes[1].move_time_s = 15.0
        scene.boxes[1].move_offset = np.array([1.0, -0.5, 0.0])
        synthworld.save_scene(tmp_path / "s.ini", scene)
        loaded = synthworld.load_scene(tmp_path / "s.ini")
        assert loaded.rng_seed == scene.rng_seed
        assert len(loaded.boxes) == len(scene.boxes)
        assert loaded.boxes[1].move_time_s == 15.0
        calib = rig(scene)[0]
        a = synthworld.render_depth(scene, calib, 2.0, frame_idx=1)
        b = synthworld.render_depth(loaded, calib, 2.0, frame_idx=1)
        assert np.array_equal(a.depth, b.depth)
        ja = np.stack([p.joints_at(3.0) for p in scene.persons])
        jb = np.stack([p.joints_at(3.0) for p in loaded.persons])
        assert np.abs(ja - jb).max() <= 1e-9

    def test_box_outside_room_rejected(self):
        with pytest.raises(ValueError):
            synthworld.GroundTruthScene(
                room_min=(0, 0, 0), room_max=(4, 4, 3),
                boxes=[synthworld.SceneBox(4, (3, 3, 0), (5, 4, 1))])
