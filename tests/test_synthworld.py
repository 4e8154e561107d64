import numpy as np
import pytest

from semgrid import synthworld
from semgrid.geometry import unpack_voxel_keys
from semgrid.pose import BONES, NUM_JOINTS
from semgrid.semantics import FLOOR_CLASS, PERSON_CLASS
from semgrid.voxmap import VoxelMap
from tests.oracles import project, render_depth_sparse, visible_joints


def small_scene(seed=1, n_persons=2):
    return synthworld.make_default_scene(seed=seed, n_persons=n_persons)


def rig(scene):
    return synthworld.make_camera_rig(scene)


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
        assert len(a) == len(b)
        for oa, ob in zip(a, b):
            assert np.array_equal(oa.present, ob.present)
            assert np.array_equal(oa.uvc, ob.uvc)


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
    def test_visible_rmse_matches_sigma(self):
        scene = small_scene(5)
        calib = rig(scene)[0]
        errs = []
        for i in range(120):
            t = i / 6.0
            vis = visible_joints(scene, calib, t)
            obs = synthworld.render_keypoints(scene, calib, t, frame_idx=i,
                                              vis=vis)
            for o in obs:
                joints = scene.persons[o.local_id].joints_at(t)
                for j, kp in enumerate(o.uvc):
                    if not o.present[j] or not o.gt_visible[j]:
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
        obs = synthworld.render_keypoints(scene, calib, 1.0, noise_px=0.0,
                                          miss_rate=0.0, p_occ_fail=0.0,
                                          frame_idx=0, vis=vis)
        for o in obs:
            joints = scene.persons[o.local_id].joints_at(1.0)
            for j, kp in enumerate(o.uvc):
                if not o.present[j] or not o.gt_visible[j]:
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
            for o in synthworld.render_keypoints(scene, calib, t, frame_idx=i,
                                                 vis=vis):
                for j, kp in enumerate(o.uvc):
                    if not o.present[j]:
                        continue
                    (occ_confs, vis_confs)[int(o.gt_visible[j])].append(kp[2])
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


def _uncached_static_depth(scene, calib, t_s):
    """Static-structure depth image cast from scratch, no cache involved."""
    uu, vv = np.meshgrid(np.arange(calib.width), np.arange(calib.height))
    dirs = np.stack([(uu.ravel() - calib.cx) / calib.fx,
                     (vv.ravel() - calib.cy) / calib.fy,
                     np.ones(uu.size)], axis=1) @ calib.rotation.T
    t, _ = synthworld._cast(scene, t_s, calib.center, dirs, include_persons=False)
    depth = np.where(np.isfinite(t) & (t <= synthworld.MAX_RANGE), t, 0.0)
    return depth.reshape(calib.height, calib.width)


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
            depth, _ = synthworld.render_frame(scene, calib, 0.0, include_persons=False)
            stale += not np.array_equal(depth, _uncached_static_depth(scene, calib, 0.0))
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
        pixels = synthworld.patch_pixels([(20.5, 30.5), (100.2, 80.9)])
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
        classes = {d.class_idx for d in dets.detections}
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
