import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semgrid import protocol, synthworld
from semgrid.cloud import DepthImage
from semgrid.geometry import save_calibs
from semgrid.pose import NUM_JOINTS, CONF_MIN, PoseSet2p5D
from semgrid.sensor_node import (
    FEEDBACK_PERSON_ID_BASE,
    KAPPA_FB,
    MIN_DEPTH_SIGMA,
    SEND_QUEUE_LIMIT,
    SensorConfig,
    SensorNode,
    estimate_keypoint_depths,
    load_sensor_config,
    patch_pixels,
)
from tests import conftest
from tests.conftest import make_ring_calibs
from tests.oracles import estimate_keypoint_depth, match_feedback, render_depth_sparse

CALIB = make_ring_calibs(1, width=64, height_px=48, f_px=40.0,
                         depth_noise_sigma=0.02)[0]


def depth_image(values: np.ndarray) -> DepthImage:
    return DepthImage(values.shape[1], values.shape[0], values)


def obs_of(local_id, joints: dict) -> PoseSet2p5D:
    """A keypoint frame of one person, {joint: (u, v, conf)}."""
    return conftest.pose_set(CALIB.sensor_id, 0, [(local_id, joints)])


NO_OBS = conftest.pose_set(CALIB.sensor_id, 0)  # a keypoint frame without persons


def feedback(persons, ts=0) -> protocol.FeedbackMessage:
    """Feedback to CALIB's sensor from (person id, {joint: (u, v,
    occluded)}) pairs."""
    return conftest.feedback_message(CALIB.sensor_id, ts, [
        (pid, {j: (u, v, 0.8, occ) for j, (u, v, occ) in joints.items()})
        for pid, joints in persons])


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


class TestZeroDepthNoise:
    """A camera calibrated without depth noise sends POSE frames that
    decode: a constant patch and a patch with one valid pixel have zero
    spread, and the sensor sends MIN_DEPTH_SIGMA for them."""

    def test_zero_spread_patches_decode(self):
        calib = dataclasses.replace(CALIB, depth_noise_sigma=0.0)
        n = SensorNode(SensorConfig(sensor_id=calib.sensor_id, calib=calib),
                       class_fingerprint=42)
        constant = np.full((calib.height, calib.width), 2.0)
        lone = np.zeros_like(constant)
        lone[20, 30] = 3.0  # the only valid pixel of the patch around (30, 20)
        for ts, (img, depth) in enumerate(((constant, 2.0), (lone, 3.0))):
            n.pose_tick(obs_of(0, {5: (30.0, 20.0, 0.9)}), depth_image(img), ts)
            (frame,) = n.pop_frames()
            keypoints = protocol.decode(frame).pose_set.keypoints
            assert keypoints[0, 5, 3] == depth
            assert keypoints[0, 5, 4] == np.float32(MIN_DEPTH_SIGMA)


class TestConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            SensorConfig(0, CALIB, pose_rate_hz=0.0)
        for rate in (-1.0, float("nan"), float("inf")):
            for key in ("pose_rate_hz", "cloud_rate_hz"):
                with pytest.raises(ValueError, match="finite and positive"):
                    SensorConfig(0, CALIB, **{key: rate})
        with pytest.raises(ValueError):
            SensorConfig(0, CALIB, cloud_rate_hz=40.0, pose_rate_hz=30.0)

    def test_load_roundtrip(self, tmp_path, monkeypatch):
        save_calibs(tmp_path / "calibs.ini", [CALIB])
        (tmp_path / "sensor.ini").write_text(
            "[sensor]\n"
            f"sensor_id = {CALIB.sensor_id}\n"
            "calib_file = calibs.ini\n"
            "pose_rate_hz = 15\n"
            "cloud_rate_hz = 0.5\n"
            "has_depth = false\n"
        )
        # calib_file is relative to the INI file, not the working directory
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        cfg = load_sensor_config(tmp_path / "sensor.ini")
        assert cfg.pose_rate_hz == 15.0
        assert cfg.cloud_rate_hz == 0.5
        assert cfg.has_depth is False
        assert cfg.use_feedback is True
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

    @pytest.mark.parametrize("key", ["sensor_id", "calib_file"])
    def test_missing_key_named(self, tmp_path, key):
        save_calibs(tmp_path / "calibs.ini", [CALIB])
        keys = {"sensor_id": CALIB.sensor_id, "calib_file": "calibs.ini"}
        del keys[key]
        (tmp_path / "sensor.ini").write_text(
            "[sensor]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        with pytest.raises(ValueError, match=f"lacks {key}"):
            load_sensor_config(tmp_path / "sensor.ini")


class TestFeedbackMerge:
    def test_missing_joint_completed(self):
        n = node()
        n.handle_feedback(feedback([(7, {0: (10.0, 10.0, False), 1: (12.0, 10.0, False),
                                   2: (14.0, 10.0, False), 3: (30.0, 30.0, False)})]), 0)
        obs = obs_of(0, {0: (10.5, 10.2, 0.9), 1: (12.1, 9.8, 0.9),
                         2: (13.9, 10.1, 0.9)})
        ps = n.process_frame(obs, None, 1000)
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
        n.handle_feedback(feedback([(7, {0: (10.0, 10.0, True), 1: (12.0, 10.0, False),
                                   2: (14.0, 10.0, False)})]), 0)
        obs = obs_of(0, {0: (35.0, 10.0, 0.9), 1: (12.0, 10.0, 0.9),
                         2: (14.0, 10.0, 0.9)})
        ps = n.process_frame(obs, None, 1000)
        assert ps.present[0, 0]
        assert ps.keypoints[0, 0, 0] == 10.0 and ps.keypoints[0, 0, 2] == KAPPA_FB
        assert ps.from_feedback[0, 0]

    def test_occlusion_replacement_gated(self):
        n = node(use_occlusion=False)
        n.handle_feedback(feedback([(7, {0: (10.0, 10.0, True), 1: (12.0, 10.0, False),
                                   2: (14.0, 10.0, False)})]), 0)
        obs = obs_of(0, {0: (35.0, 10.0, 0.9), 1: (12.0, 10.0, 0.9),
                         2: (14.0, 10.0, 0.9)})
        ps = n.process_frame(obs, None, 1000)
        assert ps.present[0, 0] and ps.keypoints[0, 0, 0] == 35.0

    def test_feedback_disabled(self):
        n = node(use_feedback=False)
        n.handle_feedback(feedback([(7, {3: (30.0, 30.0, False)})]), 0)
        obs = obs_of(0, {0: (10.0, 10.0, 0.9)})
        ps = n.process_frame(obs, None, 1000)
        assert not ps.present[0, 3]

    def test_hidden_person_appended(self):
        n = node()
        n.handle_feedback(feedback([(9, {j: (20.0 + j, 20.0, True) for j in range(5)})]), 0)
        ps = n.process_frame(NO_OBS, None, 1000)
        assert ps.person_ids.tolist() == [FEEDBACK_PERSON_ID_BASE + 9]
        for j in range(5):
            assert ps.present[0, j]
            assert ps.keypoints[0, j, 2] == KAPPA_FB
            assert ps.from_feedback[0, j]

    def test_hidden_person_gated_on_occlusion(self):
        n = node(use_occlusion=False)
        n.handle_feedback(feedback([(9, {0: (20.0, 20.0, True)})]), 0)
        ps = n.process_frame(NO_OBS, None, 1000)
        assert len(ps.person_ids) == 0

    def test_message_without_an_id_removes_it(self):
        # each message is the backend's complete current set, so a person
        # it no longer sends is not sent back uplink as feedback
        n = node()
        n.handle_feedback(feedback([(7, {0: (20.0, 20.0, True)}),
                                    (9, {0: (40.0, 20.0, True)})]), 0)
        n.handle_feedback(feedback([(9, {0: (41.0, 20.0, True)})], ts=33_000), 33_000)
        ps = n.process_frame(NO_OBS, None, 40_000)
        assert ps.person_ids.tolist() == [FEEDBACK_PERSON_ID_BASE + 9]
        assert ps.keypoints[0, 0, 0] == 41.0
        n.handle_feedback(feedback([], ts=66_000), 66_000)
        assert len(n.process_frame(NO_OBS, None, 70_000).person_ids) == 0

    @given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.integers(0, 5), st.booleans())
    def test_matching_equals_loop(self, seed, n_obs, n_fb, duplicate):
        # persons a few pixels apart, so that distances fall on both sides
        # of the gate and several feedback persons compete for a detection;
        # a duplicated feedback row makes exact ties
        rng = np.random.default_rng(seed)
        centres = rng.uniform(0, 60, size=(3, 1, 2))
        uvc = np.zeros((n_obs, NUM_JOINTS, 3))
        uvc[..., :2] = centres[rng.integers(0, 3, n_obs)] + rng.normal(0, 8, (n_obs, NUM_JOINTS, 2))
        persons = [(pid, {j: (*(centres[rng.integers(0, 3), 0] + rng.normal(0, 8, 2)),
                              0.8, False)
                          for j in np.flatnonzero(rng.random(NUM_JOINTS) < 0.6).tolist()})
                   for pid in range(n_fb)]
        if duplicate and persons:
            persons.insert(int(rng.integers(0, len(persons))), persons[-1])
        fb = conftest.feedback_message(CALIB.sensor_id, 0, persons)
        present = rng.random((n_obs, NUM_JOINTS)) < 0.6
        assert (SensorNode._match_feedback(uvc, present, fb).tolist()
                == match_feedback(uvc, present, fb).tolist())

    def test_stale_feedback_dropped(self):
        n = node()
        n.handle_feedback(feedback([(9, {0: (20.0, 20.0, True)})], ts=0), 0)
        ps = n.process_frame(NO_OBS, None, 600_000)
        assert len(ps.person_ids) == 0
        assert n.latest_feedback is None

    def test_far_feedback_not_matched(self):
        n = node()
        n.handle_feedback(feedback([(7, {0: (10.0, 10.0, False), 1: (12.0, 10.0, False),
                                   2: (14.0, 10.0, False), 3: (30.0, 30.0, False)})],
                                   ts=1000), 1000)
        obs = obs_of(0, {0: (50.0, 45.0, 0.9), 1: (52.0, 45.0, 0.9),
                         2: (54.0, 45.0, 0.9)})
        ps = n.process_frame(obs, None, 1000)
        assert not ps.present[0, 3]

    def test_frame_left_unchanged(self):
        """process_frame writes only to copies: the sweep's observation
        cache hands one keypoint frame to the runs of every ablation."""
        img = depth_image(np.full((CALIB.height, CALIB.width), 2.0))
        fields = ("person_ids", "keypoints", "present", "from_feedback")
        for n in (node(), node(use_feedback=False, use_occlusion=False)):
            n.handle_feedback(feedback([
                (7, {0: (10.0, 10.0, True), 1: (12.0, 10.0, False), 2: (14.0, 10.0, False),
                     3: (30.0, 30.0, False)}),
                (9, {j: (40.0 + j, 20.0, True) for j in range(5)})]), 0)
            frame = obs_of(0, {0: (35.0, 10.0, 0.9), 1: (12.0, 10.0, 0.9),
                               2: (14.0, 10.0, 0.9)})
            before = {name: getattr(frame, name).copy() for name in fields}
            for ts in (1000, 2000):
                ps = n.process_frame(frame, img, ts)
                if n.config.use_feedback:
                    # joint 0 replaced, joint 3 completed, person 9 appended
                    assert ps.from_feedback[0, [0, 3]].all()
                    assert ps.person_ids.tolist() == [0, FEEDBACK_PERSON_ID_BASE + 9]
                for name in fields:
                    assert np.array_equal(getattr(frame, name), before[name], equal_nan=True)
                    assert not any(np.shares_memory(getattr(ps, name), getattr(frame, other))
                                   for other in fields)

    def test_monotonic_timestamps_enforced(self):
        n = node()
        n.process_frame(NO_OBS, None, 1000)
        with pytest.raises(ValueError):
            n.process_frame(NO_OBS, None, 999)

    def test_depth_attached_from_image(self):
        n = node()
        img = np.full((CALIB.height, CALIB.width), 2.0)
        obs = obs_of(0, {0: (10.0, 10.0, 0.9)})
        ps = n.process_frame(obs, depth_image(img), 1000)
        assert ps.present[0, 0]
        assert ps.keypoints[0, 0, 3] == 2.0
        assert ps.keypoints[0, 0, 4] == CALIB.depth_noise_sigma

    def test_no_depth_sensor(self):
        n = node(has_depth=False)
        img = np.full((CALIB.height, CALIB.width), 2.0)
        obs = obs_of(0, {0: (10.0, 10.0, 0.9)})
        ps = n.process_frame(obs, depth_image(img), 1000)
        assert ps.present[0, 0] and np.isnan(ps.keypoints[0, 0, 3:]).all()


class TestFramePlan:
    """patch_pixels plans a frame's depth from its observations alone: it
    names every pixel process_frame reads, whatever the feedback, so a
    depth image rendered only in those patches gives the same pose set."""

    def _feedback(self, obs, sensor_id, ts):
        persons = []
        for pid, kps, present in zip(obs.person_ids.tolist(), obs.keypoints.tolist(), obs.present):
            joints = {j: (kp[0] + 3.0, kp[1] - 2.0, 0.5, j % 3 == 0)
                      for j, kp in enumerate(kps) if present[j]}
            joints.setdefault(0, (50.0, 50.0, 0.5, False))
            persons.append((10 + pid, joints))
        persons.append((99, {j: (20.0 + j, 30.0, 0.5, True) for j in range(NUM_JOINTS)}))
        return conftest.feedback_message(sensor_id, ts, persons)

    @pytest.mark.parametrize("flags", [{}, {"use_occlusion": False},
                                       {"use_feedback": False, "use_occlusion": False}])
    def test_depth_in_planned_patches_suffices(self, flags):
        scene = synthworld.make_default_scene(seed=3)
        calib = synthworld.make_camera_rig(scene)[1]
        t_s, frame, now = 2.0, 12, 2_000_000
        obs = synthworld.render_keypoints(scene, calib, t_s, frame_idx=frame)
        assert len(obs.person_ids)
        full = synthworld.render_depth(scene, calib, t_s, frame_idx=frame)
        nodes = [SensorNode(SensorConfig(sensor_id=calib.sensor_id, calib=calib, **flags), 42)
                 for _ in range(2)]
        for n in nodes:
            n.handle_feedback(self._feedback(obs, calib.sensor_id, now - 100_000), now)
        sparse = render_depth_sparse(scene, calib, t_s, patch_pixels(obs), frame_idx=frame)
        assert np.count_nonzero(sparse.depth) < np.count_nonzero(full.depth)
        expected = nodes[0].process_frame(obs, full, now)
        got = nodes[1].process_frame(obs, sparse, now)
        assert (protocol.encode(protocol.PoseMessage(got))
                == protocol.encode(protocol.PoseMessage(expected)))
        # with occlusion handling, feedback replaces joints in the patches
        assert got.from_feedback[:len(obs.person_ids)].any() == flags.get("use_occlusion", True)
        assert (nodes[1].latest_feedback.person_ids.tolist()
                == nodes[0].latest_feedback.person_ids.tolist() == [10, 11, 99])

    def test_patch_pixels_are_the_5x5_around_each_joint(self):
        pixels = patch_pixels(obs_of(0, {3: (10.7, 20.2, 0.9), 5: (3.0, 4.9, 0.9)}))
        expected = [(u + du, v + dv) for u, v in ((10, 20), (3, 4))
                    for dv in range(-2, 3) for du in range(-2, 3)]
        assert pixels.tolist() == [list(p) for p in expected]

    def test_depth_only_for_fusable_joints(self):
        """The sensor measures depth, 25 pixels each, for exactly the
        joints the backend can fuse, as the backend will see them after
        the wire rounds their confidence to float32, and sends NaN depth
        and sigma for every other present joint."""
        f32_min = np.float32(CONF_MIN)
        confs = [0.9, float(f32_min), np.nextafter(CONF_MIN, 0.0),  # rounds up to f32_min
                 float(np.nextafter(f32_min, np.float32(0))), 0.39, 0.1, 1.0, CONF_MIN]
        fusable = [True, True, True, False, False, False, True, True]
        local = {j: (8.0 + 3 * j, 20.0, c) for j, c in enumerate(confs)}
        n = node()
        # feedback matches the local person and adds joints 8-11, and
        # brings a person seen only in feedback
        n.handle_feedback(feedback([
            (5, {j: (8.0 + 3 * j, 20.0, False) for j in range(12)}),
            (6, {j: (10.0 + 2 * j, 35.0, False) for j in range(4)})]), 0)
        frame = obs_of(0, local)
        pixels = patch_pixels(frame)
        assert len(pixels) == 25 * sum(fusable)
        assert pixels.tolist() == [
            [int(u) + du, int(v) + dv] for (u, v, _), fus in zip(local.values(), fusable)
            if fus for dv in range(-2, 3) for du in range(-2, 3)]
        img = np.full((CALIB.height, CALIB.width), 2.0)
        sent = n.process_frame(frame, depth_image(img), 1000)
        assert sent.present.sum() == 8 + 4 + 4 and sent.from_feedback.sum() == 4 + 4
        expected = np.zeros(sent.present.shape, dtype=bool)
        expected[0, :8] = fusable
        assert (sent.fusable == expected).all()
        depth = sent.keypoints[..., 3:]
        assert np.isfinite(depth[expected]).all()
        assert np.isnan(depth[sent.present & ~expected]).all()
        (msg,) = protocol.StreamDecoder().feed(protocol.encode(protocol.PoseMessage(sent)))
        assert (msg.pose_set.fusable == expected).all()


class TestTransport:
    def test_handle_feedback_updates_delay_and_store(self):
        n = node()
        msg = feedback([(3, {0: (5.0, 5.0, False)})], ts=1_000_000)
        n.handle_feedback(msg, now_us=1_200_000)
        assert n.feedback_delay_s == pytest.approx(0.2)
        assert n.latest_feedback is msg
        n.handle_feedback(msg, now_us=1_100_000)
        assert n.feedback_delay_s == pytest.approx(0.9 * 0.2 + 0.1 * 0.1)

    def test_queue_drops_oldest_cloud_first(self):
        n = node()
        for i in range(SEND_QUEUE_LIMIT - 1):
            n.pose_tick(NO_OBS, None, i)
        from semgrid.cloud import SegmentationMask
        from semgrid.semantics import NUM_CLASSES
        img = np.zeros((CALIB.height, CALIB.width))
        mask = SegmentationMask(
            np.zeros((CALIB.height, CALIB.width, NUM_CLASSES)))
        n.cloud_tick(depth_image(img), mask, [], 100)
        assert len(n._queue) == SEND_QUEUE_LIMIT
        n.pose_tick(NO_OBS, None, 200)  # overflow: the cloud goes first
        assert len(n._queue) == SEND_QUEUE_LIMIT
        assert n.stats["clouds_dropped"] == 1
        types = [t for t, _ in n._queue]
        assert protocol.MSG_CLOUD not in types

    def test_poses_never_dropped(self):
        n = node()
        for i in range(SEND_QUEUE_LIMIT + 10):
            n.pose_tick(NO_OBS, None, i)
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
        n.pose_tick(NO_OBS, None, 0)
        assert len(n.pop_frames()) == 1
        assert n.pop_frames() == []
