"""Central fusion service.

Aggregates sensor streams: semantic clouds are integrated into the
sparse voxel map as they arrive; 2.5D pose sets are buffered per sensor
and fused at the tick rate into 3D skeletons, which are reprojected into
each camera — with map-based occlusion checks — and sent back as
semantic feedback.  Driven by an external clock (simulated or wall).
"""

from __future__ import annotations

import contextlib
import logging
import math
import socket
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import protocol
from .geometry import CameraCalib, VoxelRangeError
from .pose import (
    PoseSet2p5D,
    SkeletonSet,
    SkeletonTracker,
    associate,
    make_feedback,
    triangulate_group,
    update_delay,
)
from .voxmap import VoxelMap

TICK_RATE_HZ = 30.0
DELTA_SYNC_S = 0.025
STALE_S = 2.0

ABLATIONS = ("none", "fb", "fb-occ", "fb-occ-depth")

log = logging.getLogger(__name__)


class HandshakeError(Exception):
    """Typed refusal of an incompatible sensor connection."""


@dataclass
class AblationFlags:
    """What an ablation name means operationally on each side of the loop."""

    send_feedback: bool
    occlusion_flags: bool
    depth_association: bool

    @classmethod
    def parse(cls, name: str) -> "AblationFlags":
        if name not in ABLATIONS:
            raise ValueError(f"unknown ablation {name!r}; expected one of {ABLATIONS}")
        return cls(
            send_feedback=name != "none",
            occlusion_flags=name in ("fb-occ", "fb-occ-depth"),
            depth_association=name == "fb-occ-depth",
        )


@dataclass
class _SensorState:
    calib: CameraCalib
    pose_buffer: deque = field(default_factory=lambda: deque(maxlen=16))
    last_seen_us: int = 0
    delay_s: float | None = None


class Backend:
    def __init__(self, class_fingerprint: int, ablation: str = "fb-occ-depth",
                 vmap: VoxelMap | None = None, tick_rate_hz: float = TICK_RATE_HZ):
        if not (math.isfinite(tick_rate_hz) and tick_rate_hz > 0):
            raise ValueError("tick rate must be finite and positive")
        self.class_fingerprint = class_fingerprint
        self.flags = AblationFlags.parse(ablation)
        self.vmap = vmap if vmap is not None else VoxelMap()
        self.tick_rate_hz = tick_rate_hz
        self.sensors: dict[int, _SensorState] = {}
        self.tracker = SkeletonTracker()
        self.skeletons = SkeletonSet(0)
        # the last tick's views in sensor-id order, and the person row in
        # each of them of every fused skeleton (-1 where it has none)
        self.last_views: list[PoseSet2p5D] = []
        self.last_rows = np.empty((0, 0), dtype=np.int64)
        self.stats = {"poses_received": 0, "clouds_received": 0, "ticks": 0,
                      "handshakes": 0}

    # -- ingest ------------------------------------------------------------

    def handshake(self, hello: protocol.Hello) -> None:
        if hello.protocol_version != protocol.PROTOCOL_VERSION:
            raise HandshakeError(
                f"protocol version {hello.protocol_version} != "
                f"{protocol.PROTOCOL_VERSION}"
            )
        if hello.class_set_fingerprint != self.class_fingerprint:
            raise HandshakeError(
                f"class-set fingerprint mismatch: sensor "
                f"{hello.class_set_fingerprint:#x} != backend "
                f"{self.class_fingerprint:#x}"
            )
        self.sensors[hello.sensor_id] = _SensorState(calib=hello.calib)
        self.stats["handshakes"] += 1

    def on_message(self, msg, now_us: int) -> None:
        """Dispatch one decoded frame from a connected sensor."""
        if isinstance(msg, protocol.Hello):
            self.handshake(msg)
            return
        if isinstance(msg, protocol.PoseMessage):
            state = self._require_sensor(msg.pose_set.sensor_id)
            state.pose_buffer.append(msg.pose_set)
            state.last_seen_us = now_us
            measured = max((now_us - msg.pose_set.timestamp_us) / 1e6, 0.0)
            state.delay_s = update_delay(state.delay_s, measured)
            self.stats["poses_received"] += 1
            return
        if isinstance(msg, protocol.CloudMessage):
            state = self._require_sensor(msg.cloud.sensor_id)
            state.last_seen_us = now_us
            self.vmap.integrate_cloud(msg.cloud, state.calib)
            self.stats["clouds_received"] += 1
            return
        raise HandshakeError(f"unexpected message type {type(msg).__name__}")

    def _require_sensor(self, sensor_id: int) -> _SensorState:
        state = self.sensors.get(sensor_id)
        if state is None:
            raise HandshakeError(f"sensor {sensor_id} has not completed handshake")
        return state

    # -- fusion tick -------------------------------------------------------

    def sync_window_select(self, t_tick_us: int) -> dict[int, PoseSet2p5D]:
        """Per sensor, the buffered pose set nearest the tick time if it
        falls within the sync window; stale sensors are excluded."""
        window_us = int(DELTA_SYNC_S * 1e6)
        stale_us = int(STALE_S * 1e6)
        selected: dict[int, PoseSet2p5D] = {}
        for sid, state in self.sensors.items():
            if state.last_seen_us and t_tick_us - state.last_seen_us > stale_us:
                continue
            best = min(state.pose_buffer, key=lambda ps: abs(ps.timestamp_us - t_tick_us),
                       default=None)
            if best is not None and abs(best.timestamp_us - t_tick_us) <= window_us:
                selected[sid] = best
        return selected

    def tick(self, now_us: int) -> dict[int, protocol.FeedbackMessage]:
        """One fusion cycle: gather -> associate -> triangulate -> track,
        then build per-sensor feedback (empty dict when feedback is off).
        Association groups are (G,V) person rows of the views sorted by
        sensor id; those of the fused skeletons are kept in last_rows."""
        self.stats["ticks"] += 1
        views = sorted(self.sync_window_select(now_us).values(), key=lambda v: v.sensor_id)
        calibs = {sid: st.calib for sid, st in self.sensors.items()}
        # the raw skeletons and the rows of the group of each
        raw, rows = SkeletonSet(now_us), np.empty((0, len(views)), dtype=np.int64)
        if views:
            rows = associate(views, calibs, use_depth=self.flags.depth_association)
            raw, group_of = triangulate_group(views, rows, calibs, now_us)
            rows = rows[group_of]
        self.skeletons = self.tracker.update(raw, 1.0 / self.tick_rate_hz)
        # the tracker stamps final person ids onto the raw skeletons, so
        # the fused skeletons can be tied to their groups
        self.last_views = views
        self.last_rows = rows[(self.skeletons.person_ids[:, None] == raw.person_ids).nonzero()[1]]
        if not self.flags.send_feedback:
            return {}
        # prediction horizon: measured uplink delay plus one fusion cycle —
        # feedback produced now is consumed with the sensor's next frame at
        # the earliest
        states = self.sensors.values()
        feedback = make_feedback(
            self.skeletons, [st.calib for st in states], self.vmap,
            [(st.delay_s or 0.0) + 1.0 / self.tick_rate_hz for st in states],
            compute_occlusion=self.flags.occlusion_flags)
        return {sid: protocol.FeedbackMessage(sid, now_us, *rows)
                for sid, rows in zip(self.sensors, feedback)}


# -- standalone TCP service -----------------------------------------------------


class _SensorConnection(socketserver.BaseRequestHandler):
    """One sensor's TCP stream.  Every refusal (a failed handshake, a
    protocol violation or a cloud the map cannot index) and every
    disconnect is logged with the peer and the sensor id, the one the
    sensor claimed if it never got in."""

    def handle(self):
        server = self.server
        with server.lock:  # type: ignore[attr-defined]
            if server.closed:  # type: ignore[attr-defined]
                return
            server.sockets.add(self.request)  # type: ignore[attr-defined]
        decoder = protocol.StreamDecoder()
        sensor_id = claimed = None
        try:
            while True:
                chunk = self.request.recv(65536)
                if not chunk:
                    log.info("sensor %s at %s disconnected", claimed, self.client_address)
                    return
                msgs = decoder.feed(chunk)
                while msgs:
                    for msg in msgs:
                        hello = isinstance(msg, protocol.Hello)
                        if hello:
                            claimed = msg.sensor_id
                        with server.lock:  # type: ignore[attr-defined]
                            if server.closed:  # type: ignore[attr-defined]
                                return
                            server.backend.on_message(msg, server.clock_us())  # type: ignore[attr-defined]
                        if hello:
                            sensor_id = claimed
                            server.connections[sensor_id] = self.request  # type: ignore[attr-defined]
                    # a malformed frame after these raises now, not on the next recv
                    msgs = decoder.feed(b"")
        except (HandshakeError, protocol.ProtocolError, VoxelRangeError) as exc:
            log.warning("refused sensor %s at %s: %s: %s", claimed, self.client_address,
                        type(exc).__name__, exc)
            self.request.close()
        except OSError as exc:
            log.info("sensor %s at %s disconnected: %s", claimed, self.client_address, exc)
        finally:
            server.sockets.discard(self.request)  # type: ignore[attr-defined]
            if sensor_id is not None:
                server.connections.pop(sensor_id, None)  # type: ignore[attr-defined]


def serve(backend: Backend, host: str, port: int, clock_us,
          stop_event: threading.Event | None = None) -> None:
    """Run the backend as a TCP service until stop_event is set.

    clock_us: zero-argument callable returning the current time in us.
    Feedback frames are pushed to each connected sensor every tick.
    Ticks start on a monotonic deadline every 1 / backend.tick_rate_hz;
    a tick that overruns its period is followed at once by the next, and
    the missed deadlines are dropped rather than run in a burst.  On
    return no frame reaches the backend any more and every sensor
    connection is shut down.
    """
    period_s = 1.0 / backend.tick_rate_hz
    server = socketserver.ThreadingTCPServer((host, port), _SensorConnection,
                                             bind_and_activate=True)
    server.daemon_threads = True
    server.backend = backend  # type: ignore[attr-defined]
    server.lock = threading.Lock()  # type: ignore[attr-defined]
    server.clock_us = clock_us  # type: ignore[attr-defined]
    server.connections = {}  # type: ignore[attr-defined]  # handshaken sensor id -> socket
    server.sockets = set()  # type: ignore[attr-defined]  # every accepted socket
    server.closed = False  # type: ignore[attr-defined]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    log.info("backend listening on %s:%d", *server.server_address[:2])
    try:
        deadline = time.monotonic()
        while stop_event is None or not stop_event.is_set():
            now = clock_us()
            with server.lock:  # type: ignore[attr-defined]
                feedback = backend.tick(now)
            for sid, msg in feedback.items():
                conn = server.connections.get(sid)  # type: ignore[attr-defined]
                if conn is None:
                    continue
                try:
                    conn.sendall(protocol.encode(msg))
                except OSError:
                    server.connections.pop(sid, None)  # type: ignore[attr-defined]
            t = time.monotonic()
            deadline = max(deadline + period_s, t)
            time.sleep(deadline - t)
    finally:
        server.shutdown()
        with server.lock:  # type: ignore[attr-defined]
            server.closed = True  # type: ignore[attr-defined]
            for sock in list(server.sockets):  # type: ignore[attr-defined]
                with contextlib.suppress(OSError):  # a peer that is gone already
                    sock.shutdown(socket.SHUT_RDWR)
        server.server_close()
