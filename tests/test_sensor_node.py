import numpy as np
import pytest

from semgrid import protocol, synthworld
from semgrid.cloud import DepthImage
from semgrid.geometry import save_calibs
from semgrid.pose import NUM_JOINTS, CONF_MIN, FeedbackPose
from semgrid.sensor_node import (
    FEEDBACK_PERSON_ID_BASE,
    KAPPA_FB,
    SEND_QUEUE_LIMIT,
    SensorConfig,
    SensorNode,
    estimate_keypoint_depths,
    load_sensor_config,
)
from semgrid.synthworld import PersonObservation
from tests import conftest
from tests.conftest import make_ring_calibs
from tests.oracles import estimate_keypoint_depth, render_depth_sparse

CALIB = make_ring_calibs(1, width=64, height_px=48, f_px=40.0,
                         depth_noise_sigma=0.02)[0]


def depth_image(values: np.ndarray) -> DepthImage:
    return DepthImage(values.shape[1], values.shape[0], values)


def obs_of(local_id, joints: dict) -> PersonObservation:
    uvc = np.zeros((NUM_JOINTS, 3))
    present = np.zeros(NUM_JOINTS, dtype=bool)
    for j, kp in joints.items():
        uvc[j] = kp
        present[j] = True
    return PersonObservation(local_id, uvc, present, np.zeros(NUM_JOINTS, dtype=bool))


def feedback_pose(person_id, joints: dict, ts=0) -> FeedbackPose:
    """Feedback to CALIB's sensor from {joint: (u, v, occluded)}."""
    return conftest.feedback_pose(CALIB.sensor_id, person_id, ts,
                                  {j: (u, v, 0.8, occ) for j, (u, v, occ) in joints.items()})


def node(**overrides) -> SensorNode:
    cfg = SensorConfig(sensor_id=CALIB.sensor_id, calib=CALIB, **overrides)
    return SensorNode(cfg, class_fingerprint=42)


class TestDepthEstimation:
    def test_patch_median(self):
        img = np.zeros((20, 20))
        img[8:13, 8:13] = [[1, 2, 3, 4, 5]] * 5  # 5x5 patch around (10,10)
        d, s = estimate_keypoint_depth(depth_image(img), 10.0, 10.0)
        assert d == 3.0
        # MAD of columns 1..5 around 3 is 1, scaled by 1.4826
        assert abs(s - 1.4826) <= 1e-9

    def test_constant_patch_zero_spread(self):
        img = np.full((20, 20), 2.5)
        d, s = estimate_keypoint_depth(depth_image(img), 10.0, 10.0)
        assert d == 2.5 and s == 0.0

    def test_sigma_floor(self):
        img = np.full((20, 20), 2.5)
        _, s = estimate_keypoint_depth(depth_image(img), 10.0, 10.0,
                                       sigma_floor=0.07)
        assert s == 0.07

    def test_empty_patch_nan(self):
        img = np.zeros((20, 20))
        assert estimate_keypoint_depth(depth_image(img), 10.0, 10.0) is None
        d, s = estimate_keypoint_depths(depth_image(img), [(10.0, 10.0)])
        assert np.isnan(d[0]) and np.isnan(s[0])

    def test_off_image_rejected(self):
        img = np.ones((20, 20))
        with pytest.raises(ValueError):
            estimate_keypoint_depths(depth_image(img), [(25.0, 10.0)])
        with pytest.raises(ValueError):
            estimate_keypoint_depths(depth_image(img), [(10.0, -1.0)])

    def test_border_patch_uses_inside_pixels(self):
        img = np.full((20, 20), 1.5)
        d, _ = estimate_keypoint_depth(depth_image(img), 0.0, 0.0)
        assert d == 1.5

    def test_outlier_robustness(self):
        img = np.full((20, 20), 2.0)
        img[8, 8] = 50.0  # one bad pixel in the patch
        d, _ = estimate_keypoint_depth(depth_image(img), 10.0, 10.0)
        assert d == 2.0

    def test_invalid_pixels_skipped(self):
        img = np.full((20, 20), 3.0)
        img[8:13, 8:11] = 0.0  # left part of the patch invalid
        d, _ = estimate_keypoint_depth(depth_image(img), 10.0, 10.0)
        assert d == 3.0

    def test_empty_input(self):
        d, s = estimate_keypoint_depths(depth_image(np.ones((4, 4))), [])
        assert len(d) == 0 and len(s) == 0


class TestConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            SensorConfig(0, CALIB, pose_rate_hz=0.0)
        with pytest.raises(ValueError):
            SensorConfig(0, CALIB, cloud_rate_hz=40.0, pose_rate_hz=30.0)

    def test_load_roundtrip(self, tmp_path):
        save_calibs(tmp_path / "calibs.ini", [CALIB])
        (tmp_path / "sensor.ini").write_text(
            "[sensor]\n"
            f"sensor_id = {CALIB.sensor_id}\n"
            "calib_file = calibs.ini\n"
            "pose_rate_hz = 15\n"
            "cloud_rate_hz = 0.5\n"
            "has_depth = false\n"
            "kappa_fb = 0.2\n"
        )
        import os
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            cfg = load_sensor_config("sensor.ini")
        finally:
            os.chdir(cwd)
        assert cfg.pose_rate_hz == 15.0
        assert cfg.cloud_rate_hz == 0.5
        assert cfg.has_depth is False
        assert cfg.use_feedback is True
        assert cfg.kappa_fb == 0.2
        assert cfg.calib.fx == CALIB.fx

    def test_load_errors(self, tmp_path):
        with pytest.raises(ValueError):
            load_sensor_config(tmp_path / "missing.ini")
        bad = tmp_path / "bad.ini"
        bad.write_text("[other]\nx = 1\n")
        with pytest.raises(ValueError):
            load_sensor_config(bad)
        save_calibs(tmp_path / "calibs.ini", [CALIB])
        wrong = tmp_path / "wrong.ini"
        wrong.write_text(
            "[sensor]\nsensor_id = 99\n"
            f"calib_file = {tmp_path / 'calibs.ini'}\n")
        with pytest.raises(ValueError):
            load_sensor_config(wrong)


class TestFeedbackMerge:
    def test_missing_joint_completed(self):
        n = node()
        n.latest_feedback[7] = feedback_pose(
            7, {0: (10.0, 10.0, False), 1: (12.0, 10.0, False),
                2: (14.0, 10.0, False), 3: (30.0, 30.0, False)})
        obs = obs_of(0, {0: (10.5, 10.2, 0.9), 1: (12.1, 9.8, 0.9),
                         2: (13.9, 10.1, 0.9)})
        ps = n.process_frame([obs], None, 1000)
        assert ps.present[0, 3]
        u, v, conf = ps.keypoints[0, 3, :3]
        assert u == 30.0 and v == 30.0
        assert conf == KAPPA_FB
        assert KAPPA_FB < CONF_MIN  # never re-enters triangulation
        assert ps.from_feedback[0, 3]
        # locally observed joints keep their own measurement
        assert ps.keypoints[0, 0, 0] == 10.5
        assert not ps.from_feedback[0, 0]

    def test_occlusion_flag_overrides_local(self):
        n = node()
        n.latest_feedback[7] = feedback_pose(
            7, {0: (10.0, 10.0, True), 1: (12.0, 10.0, False),
                2: (14.0, 10.0, False)})
        obs = obs_of(0, {0: (35.0, 10.0, 0.9), 1: (12.0, 10.0, 0.9),
                         2: (14.0, 10.0, 0.9)})
        ps = n.process_frame([obs], None, 1000)
        assert ps.present[0, 0]
        assert ps.keypoints[0, 0, 0] == 10.0 and ps.keypoints[0, 0, 2] == KAPPA_FB
        assert ps.from_feedback[0, 0]

    def test_occlusion_replacement_gated(self):
        n = node(use_occlusion=False)
        n.latest_feedback[7] = feedback_pose(
            7, {0: (10.0, 10.0, True), 1: (12.0, 10.0, False),
                2: (14.0, 10.0, False)})
        obs = obs_of(0, {0: (35.0, 10.0, 0.9), 1: (12.0, 10.0, 0.9),
                         2: (14.0, 10.0, 0.9)})
        ps = n.process_frame([obs], None, 1000)
        assert ps.present[0, 0] and ps.keypoints[0, 0, 0] == 35.0

    def test_feedback_disabled(self):
        n = node(use_feedback=False)
        n.latest_feedback[7] = feedback_pose(7, {3: (30.0, 30.0, False)})
        obs = obs_of(0, {0: (10.0, 10.0, 0.9)})
        ps = n.process_frame([obs], None, 1000)
        assert not ps.present[0, 3]

    def test_hidden_person_appended(self):
        n = node()
        n.latest_feedback[9] = feedback_pose(
            9, {j: (20.0 + j, 20.0, True) for j in range(5)})
        ps = n.process_frame([], None, 1000)
        assert ps.person_ids.tolist() == [FEEDBACK_PERSON_ID_BASE + 9]
        for j in range(5):
            assert ps.present[0, j]
            assert ps.keypoints[0, j, 2] == KAPPA_FB
            assert ps.from_feedback[0, j]

    def test_hidden_person_gated_on_occlusion(self):
        n = node(use_occlusion=False)
        n.latest_feedback[9] = feedback_pose(9, {0: (20.0, 20.0, True)})
        ps = n.process_frame([], None, 1000)
        assert len(ps.person_ids) == 0

    def test_stale_feedback_dropped(self):
        n = node()
        n.latest_feedback[9] = feedback_pose(9, {0: (20.0, 20.0, True)}, ts=0)
        ps = n.process_frame([], None, 600_000)
        assert len(ps.person_ids) == 0
        assert n.latest_feedback == {}

    def test_far_feedback_not_matched(self):
        n = node()
        n.latest_feedback[7] = feedback_pose(
            7, {0: (10.0, 10.0, False), 1: (12.0, 10.0, False),
                2: (14.0, 10.0, False), 3: (30.0, 30.0, False)},
            ts=1000)
        obs = obs_of(0, {0: (50.0, 45.0, 0.9), 1: (52.0, 45.0, 0.9),
                         2: (54.0, 45.0, 0.9)})
        ps = n.process_frame([obs], None, 1000)
        assert not ps.present[0, 3]

    def test_monotonic_timestamps_enforced(self):
        n = node()
        n.process_frame([], None, 1000)
        with pytest.raises(ValueError):
            n.process_frame([], None, 999)

    def test_depth_attached_from_image(self):
        n = node()
        img = np.full((CALIB.height, CALIB.width), 2.0)
        obs = obs_of(0, {0: (10.0, 10.0, 0.9)})
        ps = n.process_frame([obs], depth_image(img), 1000)
        assert ps.present[0, 0]
        assert ps.keypoints[0, 0, 3] == 2.0
        assert ps.keypoints[0, 0, 4] == CALIB.depth_noise_sigma

    def test_no_depth_sensor(self):
        n = node(has_depth=False)
        img = np.full((CALIB.height, CALIB.width), 2.0)
        obs = obs_of(0, {0: (10.0, 10.0, 0.9)})
        ps = n.process_frame([obs], depth_image(img), 1000)
        assert ps.present[0, 0] and np.isnan(ps.keypoints[0, 0, 3:]).all()


class TestFramePlan:
    """plan_frame names every pixel process_frame reads, so a depth image
    rendered only in the patches around them gives the same pose set."""

    def _feedback(self, obs, sensor_id, ts):
        poses = []
        for o in obs:
            joints = {j: (kp[0] + 3.0, kp[1] - 2.0, 0.5, j % 3 == 0)
                      for j, kp in enumerate(o.uvc.tolist()) if o.present[j]}
            joints.setdefault(0, (50.0, 50.0, 0.5, False))
            poses.append(conftest.feedback_pose(sensor_id, 10 + o.local_id, ts, joints))
        hidden = {j: (20.0 + j, 30.0, 0.5, True) for j in range(NUM_JOINTS)}
        poses.append(conftest.feedback_pose(sensor_id, 99, ts, hidden))
        return protocol.FeedbackMessage(sensor_id, ts, poses)

    @pytest.mark.parametrize("flags", [{}, {"use_occlusion": False},
                                       {"use_feedback": False, "use_occlusion": False}])
    def test_depth_in_planned_patches_suffices(self, flags):
        scene = synthworld.make_default_scene(seed=3)
        calib = synthworld.make_camera_rig(scene)[1]
        t_s, frame, now = 2.0, 12, 2_000_000
        obs = synthworld.render_keypoints(scene, calib, t_s, frame_idx=frame)
        assert obs
        full = synthworld.render_depth(scene, calib, t_s, frame_idx=frame)
        nodes = [SensorNode(SensorConfig(sensor_id=calib.sensor_id, calib=calib, **flags), 42)
                 for _ in range(2)]
        for n in nodes:
            n.handle_feedback(self._feedback(obs, calib.sensor_id, now - 100_000), now)
        plan = nodes[1].plan_frame(obs, now)
        sparse = render_depth_sparse(
            scene, calib, t_s, synthworld.patch_pixels(plan.uv), frame_idx=frame)
        assert np.count_nonzero(sparse.depth) < np.count_nonzero(full.depth)
        expected = nodes[0].process_frame(obs, full, now)
        got = nodes[1].process_frame(obs, sparse, now, plan=plan)
        assert (protocol.encode(protocol.PoseMessage(got))
                == protocol.encode(protocol.PoseMessage(expected)))
        assert nodes[1].latest_feedback.keys() == nodes[0].latest_feedback.keys()

    def test_plan_for_another_frame_rejected(self):
        n = node()
        obs = [obs_of(0, {3: (10.0, 10.0, 0.9)})]
        plan = n.plan_frame(obs, 1000)
        with pytest.raises(ValueError):
            n.process_frame(obs, None, 2000, plan=plan)
        n.handle_feedback(protocol.FeedbackMessage(CALIB.sensor_id, 0, []), 1000)
        with pytest.raises(ValueError):
            n.process_frame(obs, None, 1000, plan=plan)
        n.process_frame(obs, None, 1000, plan=n.plan_frame(obs, 1000))


class TestTransport:
    def test_handle_feedback_updates_delay_and_store(self):
        n = node()
        msg = protocol.FeedbackMessage(0, 1_000_000, [
            feedback_pose(3, {0: (5.0, 5.0, False)}, ts=1_000_000)])
        n.handle_feedback(msg, now_us=1_200_000)
        assert n.feedback_delay_s == pytest.approx(0.2)
        assert 3 in n.latest_feedback
        n.handle_feedback(msg, now_us=1_100_000)
        assert n.feedback_delay_s == pytest.approx(0.9 * 0.2 + 0.1 * 0.1)

    def test_queue_drops_oldest_cloud_first(self):
        n = node()
        for i in range(SEND_QUEUE_LIMIT - 1):
            n.pose_tick([], None, i)
        from semgrid.cloud import DetectionSet, SegmentationMask
        from semgrid.semantics import NUM_CLASSES
        img = np.zeros((CALIB.height, CALIB.width))
        mask = SegmentationMask(
            np.zeros((CALIB.height, CALIB.width, NUM_CLASSES)))
        n.cloud_tick(depth_image(img), mask, DetectionSet(), 100)
        assert len(n._queue) == SEND_QUEUE_LIMIT
        n.pose_tick([], None, 200)  # overflow: the cloud goes first
        assert len(n._queue) == SEND_QUEUE_LIMIT
        assert n.stats["clouds_dropped"] == 1
        types = [t for t, _ in n._queue]
        assert protocol.MSG_CLOUD not in types

    def test_poses_never_dropped(self):
        n = node()
        for i in range(SEND_QUEUE_LIMIT + 10):
            n.pose_tick([], None, i)
        assert len(n.pop_frames()) == SEND_QUEUE_LIMIT + 10
        assert n.stats["pose_sent"] == SEND_QUEUE_LIMIT + 10

    def test_hello_decodes(self):
        n = node()
        msg = protocol.decode(n.hello(123))
        assert isinstance(msg, protocol.Hello)
        assert msg.sensor_id == CALIB.sensor_id
        assert msg.class_set_fingerprint == 42

    def test_pop_frames_clears(self):
        n = node()
        n.pose_tick([], None, 0)
        assert len(n.pop_frames()) == 1
        assert n.pop_frames() == []
