import logging
import socket
import threading

import numpy as np
import pytest

from semgrid import backend as backend_mod
from semgrid import protocol
from semgrid.backend import (
    ABLATIONS,
    STALE_S,
    AblationFlags,
    Backend,
    HandshakeError,
)
from semgrid.cloud import SemanticCloud
from semgrid.pose import PoseSet2p5D
from semgrid.semantics import NUM_CLASSES, log_softmax_rows
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


def pose_set_for_point(point, sensor_id, ts, local_id=0) -> PoseSet2p5D:
    """One person whose first three joints observe `point` exactly."""
    calib = CALIBS[sensor_id]
    joints = {}
    for j in range(3):
        uvd = project(calib, np.asarray(point) + [0.0, 0.0, 0.05 * j])
        joints[j] = (uvd[0], uvd[1], 0.9)
    return pose_set(sensor_id, ts, [(local_id, joints)])


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

    def test_message_before_handshake_refused(self):
        b = Backend(FP)
        msg = protocol.PoseMessage(PoseSet2p5D(0, 0))
        with pytest.raises(HandshakeError):
            b.on_message(msg, now_us=0)
        cloud = SemanticCloud(1, 0, np.zeros((0, 3)), np.zeros((0, NUM_CLASSES)))
        with pytest.raises(HandshakeError):
            b.on_message(protocol.CloudMessage(cloud), now_us=0)

    def test_unexpected_message_type_refused(self):
        b = backend_with_sensors(1)
        snap = protocol.SnapshotMessage(
            0, np.zeros((0, 3), np.int32), np.zeros(0, np.float32),
            np.zeros(0, np.uint8), np.zeros(0, np.float32), [])
        with pytest.raises(HandshakeError):
            b.on_message(snap, now_us=0)


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
        assert b.skeletons == []
        assert set(out) == {0, 1}  # feedback channel exists, just empty
        assert all(msg.poses == [] for msg in out.values())

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
        assert len(b.skeletons) == 1
        skel = b.skeletons[0]
        assert skel.present[0]
        assert np.abs(skel.pos[0] - point).max() <= 1e-6
        assert skel.person_id in b.last_associations
        assert len(b.last_associations[skel.person_id]) == 4
        fb = out[0].poses
        assert len(fb) == 1
        uvd = project(CALIBS[0], point)
        assert fb[0].present[0]
        assert abs(fb[0].uvc[0, 0] - uvd[0]) <= 1.0

    def test_occlusion_flags_cleared_for_fb_ablation(self):
        b = backend_with_sensors(4, ablation="fb")
        t = 1_000_000
        point = np.array([0.2, -0.1, 1.2])
        for sid in range(4):
            b.on_message(protocol.PoseMessage(
                pose_set_for_point(point, sid, t - 5_000)), t)
        out = b.tick(now_us=t)
        for msg in out.values():
            for fp in msg.poses:
                assert not fp.occluded[fp.present].any()

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
            ids.append(b.skeletons[0].person_id)
        assert len(set(ids)) == 1


class TestSnapshot:
    def test_snapshot_period(self):
        b = backend_with_sensors(1)
        assert b.maybe_snapshot(0) is not None
        assert b.maybe_snapshot(500_000) is None
        assert b.maybe_snapshot(1_000_000) is not None

    def test_snapshot_roundtrips(self):
        b = backend_with_sensors(1)
        calib = CALIBS[0]
        scores = np.zeros((1, NUM_CLASSES))
        scores[0, 5] = 12.0
        cloud = SemanticCloud(0, 0, np.array([[0.0, 0.0, 2.0]]),
                              log_softmax_rows(scores))
        b.on_message(protocol.CloudMessage(cloud), now_us=0)
        snap = b.snapshot(123)
        wire = protocol.encode(snap)
        out = protocol.decode(wire)
        assert np.array_equal(out.voxel_indices, snap.voxel_indices)
        assert len(snap.voxel_indices) == len(b.vmap.occupied_arrays()[0])


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
        period = 1.0 / 30
        works = [0.010, 0.005, 0.050, 0.020, 0.0]
        b = backend_with_sensors(0)
        stop = threading.Event()
        ticks = []

        def tick(now_us):
            clock.t += works[len(ticks)]
            ticks.append(now_us)
            if len(ticks) == len(works):
                stop.set()
            return {}

        b.tick = tick
        backend_mod.serve(b, "127.0.0.1", 0, lambda: int(clock.t * 1e6), stop,
                          tick_sleep_s=period)
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
