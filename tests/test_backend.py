import dataclasses
import logging
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from semgrid import backend as backend_mod
from semgrid import protocol, synthworld
from semgrid.backend import (
    ABLATIONS,
    STALE_S,
    AblationFlags,
    Backend,
    HandshakeError,
)
from semgrid.cloud import SemanticCloud
from semgrid.geometry import VoxelRangeError
from semgrid.pose import CONF_MIN, NUM_JOINTS, TRACK_STALE_S, PoseSet2p5D
from semgrid.semantics import NUM_CLASSES, log_softmax_rows
from semgrid.sim import SimConfig, simulate
from tests import oracles
from tests.conftest import make_ring_calibs, pose_set
from tests.oracles import project

CALIBS = make_ring_calibs(4)
FP = 0xC0FFEE


def hello(sensor_id, version=None) -> protocol.Hello:
    h = protocol.Hello(sensor_id, 0, CALIBS[sensor_id], FP)
    if version is not None:
        h.protocol_version = version
    return h


def backend_with_sensors(n=4, **kw) -> Backend:
    b = Backend(FP, **kw)
    for i in range(n):
        b.handshake(hello(i))
    return b


def pose_set_for_points(points, sensor_id, ts, local_ids=None) -> PoseSet2p5D:
    """One person per point (ids 0, 1, ... unless given), whose first
    three joints observe the point exactly."""
    calib = CALIBS[sensor_id]
    persons = []
    for k, point in enumerate(points):
        joints = {}
        for j in range(3):
            uvd = project(calib, np.asarray(point) + [0.0, 0.0, 0.05 * j])
            joints[j] = (uvd[0], uvd[1], 0.9)
        persons.append((k if local_ids is None else local_ids[k], joints))
    return pose_set(sensor_id, ts, persons)


def pose_set_for_point(point, sensor_id, ts) -> PoseSet2p5D:
    """One person whose first three joints observe `point` exactly."""
    return pose_set_for_points([point], sensor_id, ts)


class TestAblationFlags:
    def test_table(self):
        assert AblationFlags.parse("none") == AblationFlags(False, False, False)
        assert AblationFlags.parse("fb") == AblationFlags(True, False, False)
        assert AblationFlags.parse("fb-occ") == AblationFlags(True, True, False)
        assert AblationFlags.parse("fb-occ-depth") == AblationFlags(
            True, True, True)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            AblationFlags.parse("everything")

    def test_names_fixed(self):
        assert ABLATIONS == ("none", "fb", "fb-occ", "fb-occ-depth")


class TestHandshake:
    def test_accepts_matching_fingerprint(self):
        b = Backend(FP)
        b.handshake(hello(0))
        assert 0 in b.sensors
        assert b.stats["handshakes"] == 1

    def test_rejects_wrong_fingerprint(self):
        b = Backend(FP)
        with pytest.raises(HandshakeError):
            b.handshake(protocol.Hello(0, 0, CALIBS[0], FP + 1))

    def test_rejects_wrong_version(self):
        b = Backend(FP)
        with pytest.raises(HandshakeError):
            b.handshake(hello(0, version=protocol.PROTOCOL_VERSION + 1))

    def test_rejects_version_1_in_a_version_2_frame(self):
        b = Backend(FP)
        (msg,) = protocol.StreamDecoder().feed(protocol.encode(hello(0, version=1)))
        with pytest.raises(HandshakeError, match="protocol version 1 != 2"):
            b.on_message(msg, 0)
        assert 0 not in b.sensors

    def test_message_before_handshake_refused(self):
        b = Backend(FP)
        msg = protocol.PoseMessage(PoseSet2p5D(0, 0))
        with pytest.raises(HandshakeError):
            b.on_message(msg, now_us=0)
        cloud = SemanticCloud(1, 0, np.zeros((0, 3)), np.zeros((0, NUM_CLASSES)))
        with pytest.raises(HandshakeError):
            b.on_message(protocol.CloudMessage(cloud), now_us=0)

    def test_unexpected_message_type_refused(self):
        # FEEDBACK flows from the backend to sensors, never the other way
        b = backend_with_sensors(1)
        with pytest.raises(HandshakeError):
            b.on_message(protocol.FeedbackMessage(0, 0), now_us=0)


class TestIngest:
    def test_pose_buffered_and_counted(self):
        b = backend_with_sensors(1)
        b.on_message(protocol.PoseMessage(PoseSet2p5D(0, 100)), now_us=200)
        assert b.stats["poses_received"] == 1
        assert len(b.sensors[0].pose_buffer) == 1
        assert b.sensors[0].last_seen_us == 200

    def test_delay_ema(self):
        b = backend_with_sensors(1)
        b.on_message(protocol.PoseMessage(PoseSet2p5D(0, 0)),
                     now_us=200_000)
        assert b.sensors[0].delay_s == pytest.approx(0.2)
        b.on_message(protocol.PoseMessage(PoseSet2p5D(0, 100_000)),
                     now_us=200_000)
        assert b.sensors[0].delay_s == pytest.approx(0.9 * 0.2 + 0.1 * 0.1)

    def test_cloud_integrated(self):
        b = backend_with_sensors(1)
        calib = CALIBS[0]
        target = calib.center + calib.rotation @ np.array([0.0, 0.0, 2.0])
        pts_cam = np.array([[0.0, 0.0, 2.0]])
        scores = np.zeros((1, NUM_CLASSES))
        scores[0, 5] = 12.0
        cloud = SemanticCloud(0, 0, pts_cam, log_softmax_rows(scores))
        b.on_message(protocol.CloudMessage(cloud), now_us=0)
        assert b.stats["clouds_received"] == 1
        assert len(b.vmap) > 0


class TestSyncWindow:
    def test_within_window_selected(self):
        b = backend_with_sensors(2)
        t = 1_000_000
        b.on_message(protocol.PoseMessage(PoseSet2p5D(0, t - 20_000)), t)
        b.on_message(protocol.PoseMessage(PoseSet2p5D(1, t + 10_000)), t)
        selected = b.sync_window_select(t)
        assert set(selected) == {0, 1}

    def test_outside_window_absent(self):
        b = backend_with_sensors(1)
        t = 1_000_000
        b.on_message(protocol.PoseMessage(PoseSet2p5D(0, t - 40_000)), t)
        assert b.sync_window_select(t) == {}

    def test_nearest_of_several(self):
        b = backend_with_sensors(1)
        t = 1_000_000
        for ts in (t - 24_000, t - 3_000, t + 15_000):
            b.on_message(protocol.PoseMessage(PoseSet2p5D(0, ts)), t)
        selected = b.sync_window_select(t)
        assert selected[0].timestamp_us == t - 3_000

    def test_stale_sensor_excluded(self):
        b = backend_with_sensors(1)
        t = 1_000_000
        b.on_message(protocol.PoseMessage(PoseSet2p5D(0, t)), t)
        later = t + int((STALE_S + 1) * 1e6)
        assert b.sync_window_select(later) == {}


class TestTick:
    def test_no_views_no_skeletons(self):
        b = backend_with_sensors(2)
        out = b.tick(now_us=1_000_000)
        assert len(b.skeletons) == 0
        assert set(out) == {0, 1}  # feedback channel exists, just empty
        assert all(len(msg.person_ids) == 0 for msg in out.values())

    def test_feedback_off_for_none_ablation(self):
        b = backend_with_sensors(2, ablation="none")
        assert b.tick(now_us=1_000_000) == {}

    def test_triangulates_and_feeds_back(self):
        b = backend_with_sensors(4)
        t = 1_000_000
        point = np.array([0.2, -0.1, 1.2])
        for sid in range(4):
            b.on_message(protocol.PoseMessage(
                pose_set_for_point(point, sid, t - 5_000)), t)
        out = b.tick(now_us=t)
        skels = b.skeletons
        assert len(skels) == 1
        assert skels.present[0, 0]
        assert np.abs(skels.pos[0, 0] - point).max() <= 1e-6
        pid = int(skels.person_ids[0])
        assert [v.sensor_id for v in b.last_views] == [0, 1, 2, 3]
        assert b.last_rows.tolist() == [[0, 0, 0, 0]]
        fb = out[0]
        assert fb.person_ids.tolist() == [pid]
        uvd = project(CALIBS[0], point)
        assert fb.present[0, 0]
        assert abs(fb.uvc[0, 0, 0] - uvd[0]) <= 1.0

    def test_occlusion_flags_cleared_for_fb_ablation(self):
        b = backend_with_sensors(4, ablation="fb")
        t = 1_000_000
        point = np.array([0.2, -0.1, 1.2])
        for sid in range(4):
            b.on_message(protocol.PoseMessage(
                pose_set_for_point(point, sid, t - 5_000)), t)
        out = b.tick(now_us=t)
        assert any(len(msg.person_ids) for msg in out.values())
        for msg in out.values():
            assert not msg.occluded[msg.present].any()

    def test_repeated_person_id_in_a_view(self):
        """Person ids need not be unique within a frame: view 0 sends two
        persons both as id 7, and both are still fused from all 4 views."""
        b = backend_with_sensors(4)
        t = 1_000_000
        points = [np.array([-0.8, 0.0, 1.2]), np.array([0.9, 0.3, 1.2])]
        for sid in range(4):
            b.on_message(protocol.PoseMessage(pose_set_for_points(
                points, sid, t - 5_000, [7, 7] if sid == 0 else None)), t)
        b.tick(now_us=t)
        assert len(b.skeletons) == 2
        assert (b.last_rows >= 0).sum(axis=1).tolist() == [4, 4]
        assert sorted(b.last_rows[:, 0].tolist()) == [0, 1]
        found = b.skeletons.pos[:, 0]
        for p in points:
            assert np.abs(found - p).max(axis=1).min() <= 1e-6

    def test_track_id_stable_across_ticks(self):
        b = backend_with_sensors(4)
        point = np.array([0.2, -0.1, 1.2])
        ids = []
        for k in range(3):
            t = 1_000_000 + k * 33_000
            for sid in range(4):
                b.on_message(protocol.PoseMessage(
                    pose_set_for_point(point + [0.01 * k, 0, 0], sid,
                                       t - 5_000)), t)
            b.tick(now_us=t)
            ids.append(int(b.skeletons.person_ids[0]))
        assert len(set(ids)) == 1


class FakeClock:
    """Stands in for the `time` module: monotonic time moves only when a
    tick does work or the loop sleeps."""

    def __init__(self):
        self.t = 100.0
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.t

    def sleep(self, dt: float) -> None:
        assert dt >= 0
        self.sleeps.append(dt)
        self.t += dt


class TestServeSchedule:
    def test_sleeps_fill_the_period_and_skip_missed_deadlines(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(backend_mod, "time", clock)
        rate_hz = 25.0
        period = 1.0 / rate_hz
        works = [0.010, 0.005, 0.050, 0.020, 0.0]
        b = backend_with_sensors(0, tick_rate_hz=rate_hz)
        stop = threading.Event()
        ticks = []

        def tick(now_us):
            clock.t += works[len(ticks)]
            ticks.append(now_us)
            if len(ticks) == len(works):
                stop.set()
            return {}

        b.tick = tick
        backend_mod.serve(b, "127.0.0.1", 0, lambda: int(clock.t * 1e6), stop)
        # the overrun tick (50 ms) is followed at once by the next, which
        # starts a new deadline grid: no burst of catch-up ticks
        expected = [period - 0.010, period - 0.005, 0.0, period - 0.020, period]
        assert clock.sleeps == pytest.approx(expected, abs=1e-12)
        starts = np.array(ticks) / 1e6
        assert np.diff(starts) == pytest.approx(
            [period, period, 0.050, period], abs=1e-6)


class _Server:
    """What _SensorConnection reads from its socketserver."""

    def __init__(self, backend):
        self.backend = backend
        self.lock = threading.Lock()
        self.clock_us = lambda: 1_000_000
        self.connections = {}
        self.sockets = set()
        self.closed = False


def serve_frames(backend, frames, caplog):
    """Run one connection handler over a socket pair: the sensor side
    sends frames and closes.  Returns the server and the backend's log
    records."""
    server = _Server(backend)
    ours, theirs = socket.socketpair()
    with theirs:
        theirs.sendall(b"".join(frames))
    with caplog.at_level(logging.INFO, logger="semgrid.backend"):
        backend_mod._SensorConnection(ours, ("10.0.0.7", 4242), server)
    ours.close()
    return server, [r for r in caplog.records if r.name == "semgrid.backend"]


class TestConnectionLogging:
    def test_clean_disconnect_logged(self, caplog):
        b = Backend(FP)
        server, records = serve_frames(b, [protocol.encode(hello(2))], caplog)
        assert b.stats["handshakes"] == 1
        assert server.connections == {}
        (rec,) = records
        assert rec.levelno == logging.INFO
        assert "sensor 2" in rec.getMessage() and "10.0.0.7" in rec.getMessage()
        assert "disconnected" in rec.getMessage()

    def test_handshake_refusal_logged(self, caplog):
        b = Backend(FP)
        frame = protocol.encode(protocol.Hello(3, 0, CALIBS[3], FP + 1))
        _, records = serve_frames(b, [frame], caplog)
        assert 3 not in b.sensors
        (rec,) = records
        assert rec.levelno == logging.WARNING
        msg = rec.getMessage()
        assert "refused sensor 3" in msg and "10.0.0.7" in msg
        assert "HandshakeError" in msg and "fingerprint" in msg

    def test_hello_then_garbage_in_one_chunk(self, caplog):
        b = Backend(FP)
        server, records = serve_frames(b, [protocol.encode(hello(2)), b"NOPE" + b"\0" * 30],
                                       caplog)
        assert b.stats["handshakes"] == 1
        assert server.connections == {}
        (rec,) = records
        assert rec.levelno == logging.WARNING
        msg = rec.getMessage()
        assert "refused sensor 2 at ('10.0.0.7', 4242)" in msg and "BadMagicError" in msg

    def test_cloud_beyond_the_map_logged(self, caplog):
        b = Backend(FP)
        scores = np.zeros((1, NUM_CLASSES))
        scores[0, 2] = 5.0  # not a person point, which the map would skip
        far = SemanticCloud(2, 0, np.array([[2e5, 0.0, 1.0]]), log_softmax_rows(scores))
        _, records = serve_frames(
            b, [protocol.encode(hello(2)), protocol.encode(protocol.CloudMessage(far))], caplog)
        assert b.stats["clouds_received"] == 0
        (rec,) = records
        assert rec.levelno == logging.WARNING
        assert "refused sensor 2" in rec.getMessage()
        assert "VoxelRangeError" in rec.getMessage()

    def test_version_1_hello_refused(self, caplog):
        # a version-1 peer: magic SES1, a 19-byte header without a CRC
        payload = protocol.encode(hello(2, version=1))[protocol._HEADER.size:]
        frame = struct.pack("<4sBHQI", b"SES1", protocol.MSG_HELLO, 2, 0, len(payload)) + payload
        b = Backend(FP)
        _, records = serve_frames(b, [frame], caplog)
        assert b.stats["handshakes"] == 0
        (rec,) = records
        assert rec.levelno == logging.WARNING
        msg = rec.getMessage()
        assert "refused sensor None at ('10.0.0.7', 4242)" in msg
        assert "BadMagicError" in msg and "SES1" in msg

    def test_checksum_error_logged(self, caplog):
        good = protocol.encode(protocol.PoseMessage(PoseSet2p5D(2, 0)))
        bad = good[:7] + bytes([good[7] ^ 1]) + good[8:]  # a timestamp bit
        b = Backend(FP)
        server, records = serve_frames(b, [protocol.encode(hello(2)), bad], caplog)
        assert b.stats["poses_received"] == 0 and server.connections == {}
        (rec,) = records
        assert rec.levelno == logging.WARNING
        assert "refused sensor 2" in rec.getMessage() and "ChecksumError" in rec.getMessage()

    def test_protocol_error_logged(self, caplog):
        b = Backend(FP)
        _, records = serve_frames(b, [b"NOPE" + b"\0" * 30], caplog)
        (rec,) = records
        assert rec.levelno == logging.WARNING
        msg = rec.getMessage()
        assert "10.0.0.7" in msg and "BadMagicError" in msg

    def test_message_before_handshake_logged(self, caplog):
        b = Backend(FP)
        frame = protocol.encode(protocol.PoseMessage(PoseSet2p5D(0, 0)))
        _, records = serve_frames(b, [frame], caplog)
        (rec,) = records
        assert "refused sensor None at ('10.0.0.7', 4242)" in rec.getMessage()
        assert "has not completed handshake" in rec.getMessage()


class TestTickMatchesOracles:
    def test_eight_person_sim_matches_per_group_fusion(self, monkeypatch):
        """A seed-1 8-person 20-tick simulate gives the same skeleton log
        and feedback bytes with the batched fusion as with the
        per-group association and triangulation and the per-skeleton
        tracker of tests/oracles.py."""
        encode = protocol.encode

        def run():
            feedback = []

            def spy(msg):
                frame = encode(msg)
                if isinstance(msg, protocol.FeedbackMessage):
                    feedback.append(frame)
                return frame

            monkeypatch.setattr(protocol, "encode", spy)
            scene = synthworld.make_default_scene(seed=1, n_persons=8)
            result = simulate(scene, synthworld.make_camera_rig(scene), SimConfig(
                duration_s=20 / 30, integrate_clouds=False, map_source="structure"))
            return result.skeleton_log, feedback

        log, feedback = run()
        monkeypatch.setattr(backend_mod, "associate", oracles.associate)
        monkeypatch.setattr(backend_mod, "triangulate_group", oracles.triangulate_group)
        monkeypatch.setattr(backend_mod, "SkeletonTracker", oracles.SkeletonTracker)
        ref_log, ref_feedback = run()
        assert len(log) == 20 and len(feedback) == 4 * 20
        assert log == ref_log
        assert feedback == ref_feedback


class TestUnindexableJoints:
    """A buffered POSE whose joint lies beyond what the map can index is
    fused, and the joint is never flagged occluded: the tick never raises.
    The decoder refuses such a depth off the wire."""

    def tick_after(self, msg):
        b = backend_with_sensors(1)
        b.on_message(msg, 0)
        out = b.tick(0)
        (person,) = b.skeletons.pos
        return person, out[0]

    def test_realigned_cut_frame(self, monkeypatch):
        # a one-person POSE cut short, then sent whole: without a CRC the
        # stream would realign the bytes into a POSE of garbage (version 1
        # gave joint 2 a depth of 8.475e11 m); every cut fails its CRC,
        # also with the depth bound lifted
        frame = protocol.encode(protocol.PoseMessage(
            pose_set_for_points([(0.2, -0.3, 1.0)], 0, 0)))
        monkeypatch.setattr(protocol, "MAX_DEPTH_M", np.inf)
        for cut in range(protocol._HEADER.size, len(frame)):
            with pytest.raises(protocol.ChecksumError):
                protocol.StreamDecoder().feed(frame[:cut] + frame)

    def test_depth_of_1e12_m(self):
        uvd = project(CALIBS[0], np.array([0.2, -0.3, 1.0]))
        ps = pose_set(0, 0, [(0, {j: (uvd[0], uvd[1], 0.9, 1e12, 0.05) for j in range(3)})])
        person, feedback = self.tick_after(protocol.PoseMessage(ps))
        assert np.abs(person[:3]).max() > 1e11
        assert feedback.present[0, :3].all() and not feedback.occluded.any()


# confidences at CONF_MIN's edge: float32(CONF_MIN) and the float32 steps
# either side of it, and the float64 just below CONF_MIN, which the wire
# rounds up to float32(CONF_MIN)
_F32_MIN = np.float32(CONF_MIN)
EDGE_CONFS = [float(np.nextafter(_F32_MIN, np.float32(0))), float(_F32_MIN),
              float(np.nextafter(_F32_MIN, np.float32(1))), float(np.nextafter(CONF_MIN, 0.0))]
CONFS = st.sampled_from([0.0, 0.2, 0.35, 0.39, 0.41, 0.9, 1.0] + EDGE_CONFS)


class TestUnfusableDepthIgnored:
    """The backend reads a joint's depth only where PoseSet2p5D.fusable
    holds, so depth and sigma on feedback-sourced joints and on joints
    below CONF_MIN change nothing: a tick's skeletons and feedback are the
    same bits with any values there as with NaN."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), ablation=st.sampled_from(ABLATIONS))
    def test_tick_unchanged(self, data, ablation):
        t = 1_000_000
        points = [np.array([-0.5, 0.2, 1.0]), np.array([0.6, -0.3, 1.1])]
        # a small cloud of joints around each person's point
        spread = np.linspace(-0.2, 0.2, NUM_JOINTS)[:, None] * [1.0, 0.5, 2.0]
        frames = []
        for sid in range(4):
            persons = []
            for k, point in enumerate(points):
                joints = {}
                for j in range(NUM_JOINTS):
                    if not data.draw(st.booleans()):
                        continue
                    u, v, z = project(CALIBS[sid], point + spread[j])
                    du, dv = data.draw(st.tuples(st.floats(-4, 4), st.floats(-4, 4)))
                    joints[j] = (u + du, v + dv, data.draw(CONFS), z, 0.02,
                                 data.draw(st.booleans()))
                persons.append((k, joints))
            # the backend's own view of the frame, confidences rounded
            (msg,) = protocol.StreamDecoder().feed(protocol.encode(
                protocol.PoseMessage(pose_set(sid, t - 5_000, persons))))
            frames.append(msg.pose_set)
        ignored = [ps.present & ~ps.fusable for ps in frames]
        counts = [int(m.sum()) for m in ignored]
        odd = data.draw(st.lists(st.tuples(st.floats(), st.floats()),
                                 min_size=sum(counts), max_size=sum(counts)))
        odd = np.split(np.array(odd, dtype=np.float64).reshape(-1, 2), np.cumsum(counts)[:-1])

        def tick(fills):
            b = backend_with_sensors(4, ablation=ablation)
            for ps, mask, fill in zip(frames, ignored, fills):
                kp = ps.keypoints.copy()
                kp[mask, 3:] = fill
                b.on_message(protocol.PoseMessage(dataclasses.replace(ps, keypoints=kp)), t)
            out = b.tick(now_us=t)
            skels = b.skeletons
            return ([a.tobytes() for a in (skels.person_ids, skels.pos, skels.conf,
                                           skels.n_views, skels.present)],
                    [protocol.encode(out[sid]) for sid in sorted(out)])

        expected = tick([np.nan] * len(frames))
        # values no frame can carry (inf, negative, 1e308) overflow in the
        # entries that are computed for the whole array and never read
        with np.errstate(over="ignore", invalid="ignore"):
            assert tick(odd) == expected


# the refusals the live service turns into a log line and a closed
# connection (_SensorConnection.handle); anything else is a defect
REFUSALS = (HandshakeError, protocol.ProtocolError, VoxelRangeError)
SENSOR_IDS = st.integers(0, 3)


class BackendMachine(RuleBasedStateMachine):
    """Interleaved HELLO, POSE and CLOUD frames, malformed frames and
    reconnects from up to four sensors, and fusion ticks, driven through
    one stream decoder per connection as the live service drives them."""

    def __init__(self):
        super().__init__()
        self.backend = Backend(FP)
        self.links: dict[int, protocol.StreamDecoder] = {}
        self.now_us = 0

    def send(self, sid: int, data: bytes) -> None:
        link = self.links.setdefault(sid, protocol.StreamDecoder())
        try:
            msgs = link.feed(data)
            while msgs:
                for msg in msgs:
                    self.backend.on_message(msg, self.now_us)
                msgs = link.feed(b"")
        except REFUSALS:
            del self.links[sid]  # the service closes a refused connection

    def pose_frame(self, sid: int, points, lag_us: int) -> bytes:
        ps = pose_set_for_points(points, sid, max(self.now_us - lag_us, 0))
        return protocol.encode(protocol.PoseMessage(ps))

    @initialize(sids=st.sets(SENSOR_IDS))
    def connect(self, sids):
        for sid in sids:
            self.hello(sid, "ok")

    @rule(sid=SENSOR_IDS, fault=st.sampled_from(["ok", "ok", "version", "fingerprint"]),
          reconnect=st.booleans())
    def hello(self, sid, fault, reconnect=False):
        if reconnect:
            self.links.pop(sid, None)  # a partial frame goes with the connection
        h = protocol.Hello(sid, self.now_us, CALIBS[sid], FP + (fault == "fingerprint"))
        h.protocol_version += fault == "version"
        self.send(sid, protocol.encode(h))

    @rule(sids=st.sets(SENSOR_IDS, min_size=1), lag_us=st.sampled_from([0, 0, 10_000, 40_000]),
          points=st.lists(st.tuples(*[st.floats(-1.5, 1.5)] * 2, st.floats(0.3, 1.8)),
                          min_size=1, max_size=3))
    def poses(self, sids, lag_us, points):
        """The same persons seen by each of the sensors."""
        for sid in sids:
            self.send(sid, self.pose_frame(sid, points, lag_us))

    @rule(sid=SENSOR_IDS, n=st.integers(0, 40), seed=st.integers(0, 2**16))
    def cloud(self, sid, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform((-2.0, -1.5, 0.5), (2.0, 1.5, 6.0), (n, 3))  # camera frame
        cloud = SemanticCloud(sid, self.now_us, pts,
                              log_softmax_rows(rng.normal(0, 3, (n, NUM_CLASSES))))
        self.send(sid, protocol.encode(protocol.CloudMessage(cloud)))

    @rule(sid=SENSOR_IDS, kind=st.sampled_from(["flip", "cut", "junk"]), data=st.data())
    def malformed(self, sid, kind, data):
        frame = bytearray(self.pose_frame(sid, [(0.2, -0.3, 1.0)], 0))
        if kind == "flip":
            at = data.draw(st.integers(0, len(frame) - 1))
            frame[at] ^= data.draw(st.integers(1, 255))
        elif kind == "cut":  # a frame cut short, then a whole one
            frame = frame[:data.draw(st.integers(1, len(frame) - 1))] + frame
        else:
            frame = data.draw(st.binary(min_size=1, max_size=64))
        self.send(sid, bytes(frame))

    # the tracker's clock counts ticks, so a track goes stale only after
    # TRACK_STALE_S worth of them
    @rule(n=st.sampled_from([1] * 9 + [int(TRACK_STALE_S * 32)]),
          dt_us=st.one_of(st.just(33_333), st.just(33_333), st.integers(0, 3_000_000)))
    def ticks(self, n, dt_us):
        """n ticks, after each of which the clock moves on."""
        for _ in range(n):
            for msg in self.backend.tick(self.now_us).values():
                protocol.decode(protocol.encode(msg))
            self.now_us += dt_us

    @invariant()
    def state_is_bounded(self):
        b = self.backend
        assert all(len(s.pose_buffer) <= s.pose_buffer.maxlen for s in b.sensors.values())
        tracker = b.tracker
        assert all(len(getattr(tracker, name)) == len(tracker.track_ids)
                   for name in tracker._SLOTS)
        # every track was matched within the stale window of update time
        assert (tracker._clock_s - tracker._matched_s <= TRACK_STALE_S).all()
        assert len(b.skeletons) <= len(tracker.track_ids)
        assert b.last_rows.shape == (len(b.skeletons), len(b.last_views))


TestBackendMachine = BackendMachine.TestCase
TestBackendMachine.settings = settings(max_examples=50, stateful_step_count=40)
