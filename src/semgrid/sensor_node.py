"""Simulated smart edge sensor.

Consumes the outputs of the CNN stand-ins (a keypoint frame as a
PoseSet2p5D, depth images, segmentation masks and detection lists),
runs the local pipeline — 2.5D keypoint estimation at the pose rate,
semantic cloud construction at the cloud rate — completes the local pose
model from the backend's newest feedback, and emits wire-protocol frames.
"""

from __future__ import annotations

import configparser
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cloud as cloudmod
from . import protocol
from .cloud import DepthImage, Detection, SegmentationMask, SemanticCloud
from .geometry import CameraCalib, load_calibs
from .pose import PoseSet2p5D, update_delay

KAPPA_FB = 0.35  # confidence of feedback-sourced joints, below the
# backend's triangulation gate so they never feed back into fusion
FEEDBACK_MATCH_PX = 30.0
FEEDBACK_PERSON_ID_BASE = 1000
FEEDBACK_TTL_US = 500_000  # feedback not refreshed for this long is dropped
SEND_QUEUE_LIMIT = 64
# m, the least depth sigma a POSE frame carries: protocol requires sigma
# > 0, and a constant patch or one valid pixel has zero spread, which a
# camera calibrated with no depth noise would send as is
MIN_DEPTH_SIGMA = 1e-3


@dataclass
class SensorConfig:
    sensor_id: int
    calib: CameraCalib
    pose_rate_hz: float = 30.0
    cloud_rate_hz: float = 1.0
    has_depth: bool = True
    use_feedback: bool = True
    use_occlusion: bool = True

    def __post_init__(self):
        if not all(math.isfinite(r) and r > 0 for r in (self.pose_rate_hz, self.cloud_rate_hz)):
            raise ValueError("rates must be finite and positive")
        if self.cloud_rate_hz > self.pose_rate_hz:
            raise ValueError("cloud rate must not exceed pose rate")


def load_sensor_config(path) -> SensorConfig:
    """INI-style sensor config with a [sensor] section; the calibration
    file is referenced via calib_file (see geometry.load_calibs format).
    A relative calib_file or scene_file is read relative to the INI
    file's directory, not to the working directory."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ValueError(f"cannot read sensor config {path}")
    if "sensor" not in cp:
        raise ValueError(f"{path}: missing [sensor] section")
    s = cp["sensor"]
    for key in ("sensor_id", "calib_file"):
        if key not in s:
            raise ValueError(f"{path}: [sensor] section lacks {key}")
    sensor_id = s.getint("sensor_id")
    calibs = load_calibs(Path(path).parent / s["calib_file"])
    if sensor_id not in calibs:
        raise ValueError(f"{path}: sensor {sensor_id} not in calibration file")
    return SensorConfig(
        sensor_id=sensor_id,
        calib=calibs[sensor_id],
        pose_rate_hz=s.getfloat("pose_rate_hz", fallback=30.0),
        cloud_rate_hz=s.getfloat("cloud_rate_hz", fallback=1.0),
        has_depth=s.getboolean("has_depth", fallback=True),
        use_feedback=s.getboolean("use_feedback", fallback=True),
        use_occlusion=s.getboolean("use_occlusion", fallback=True),
    )


# pixel offsets (du, dv) of the 5x5 depth patch around a keypoint, row by row
_PATCH_DU, _PATCH_DV = (g.ravel() for g in np.meshgrid(np.arange(-2, 3), np.arange(-2, 3)))


def estimate_keypoint_depths(depth: DepthImage, uvs: np.ndarray,
                             sigma_floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Median of the valid depths in the 5x5 patch around each (u, v),
    with a robust spread estimate (scaled MAD) floored at the camera
    noise.  Returns (depths, sigmas), NaN where a patch has no valid
    pixel; raises for keypoints outside the image."""
    uvs = np.asarray(uvs, dtype=np.float64).reshape(-1, 2)
    n = len(uvs)
    if n == 0:
        return np.empty(0), np.empty(0)
    cols = uvs[:, 0].astype(np.int64)
    rows = uvs[:, 1].astype(np.int64)
    if np.any((cols < 0) | (cols >= depth.width) | (rows < 0) | (rows >= depth.height)):
        raise ValueError("keypoint outside image")
    # patches read from a copy with a 2-pixel invalid (zero) border
    padded = np.zeros((depth.height + 4, depth.width + 4))
    padded[2:-2, 2:-2] = depth.depth
    vals = padded[rows[:, None] + _PATCH_DV + 2, cols[:, None] + _PATCH_DU + 2]
    vals[vals <= 0] = np.nan
    # sort-based median over the valid prefix (NaNs sort to the end); an
    # empty patch gives NaN for both
    count = np.sum(~np.isnan(vals), axis=1)
    c = np.maximum(count, 1)
    lo = (c - 1) // 2
    hi = c // 2
    ridx = np.arange(n)
    svals = np.sort(vals, axis=1)
    med = 0.5 * (svals[ridx, lo] + svals[ridx, hi])
    sdev = np.sort(np.abs(vals - med[:, None]), axis=1)
    mad = 0.5 * (sdev[ridx, lo] + sdev[ridx, hi]) * 1.4826
    return med, np.maximum(mad, sigma_floor)


def patch_pixels(frame: PoseSet2p5D) -> np.ndarray:
    """(col, row) pixels of the 5x5 depth patches around the joints that
    PoseSet2p5D.fusable keeps of a keypoint frame (render_keypoints'
    form), patch by patch.  Feedback only replaces local joints or adds
    its own, and fusable excludes both, so these patches hold every pixel
    a sensor reads of the frame (see SensorNode.process_frame)."""
    u, v = frame.keypoints[frame.fusable][:, :2].astype(np.int64).T
    return np.stack([(u[:, None] + _PATCH_DU).ravel(), (v[:, None] + _PATCH_DV).ravel()], axis=1)


class SensorNode:
    """State machine of one edge sensor; driven by the orchestrator.

    Outgoing frames go through a bounded send queue: on overflow the
    oldest cloud frame is dropped; pose frames are never dropped.
    """

    def __init__(self, config: SensorConfig, class_fingerprint: int):
        self.config = config
        self.class_fingerprint = class_fingerprint
        self.latest_feedback: protocol.FeedbackMessage | None = None
        self.feedback_delay_s: float | None = None
        self._queue: deque[tuple[int, bytes]] = deque()
        self._last_pose_ts = -1
        self.stats = {"pose_sent": 0, "cloud_sent": 0, "clouds_dropped": 0,
                      "feedback_received": 0}

    # -- transport --------------------------------------------------------

    def _enqueue(self, msg_type: int, frame: bytes) -> None:
        if len(self._queue) >= SEND_QUEUE_LIMIT:
            for i, (mt, _) in enumerate(self._queue):
                if mt == protocol.MSG_CLOUD:
                    del self._queue[i]
                    self.stats["clouds_dropped"] += 1
                    break
            # all-pose queue: keep everything, poses must not be dropped
        self._queue.append((msg_type, frame))

    def pop_frames(self) -> list[bytes]:
        frames = [f for _, f in self._queue]
        self._queue.clear()
        return frames

    def hello(self, timestamp_us: int) -> bytes:
        frame = protocol.encode(
            protocol.Hello(
                sensor_id=self.config.sensor_id,
                timestamp_us=timestamp_us,
                calib=self.config.calib,
                class_set_fingerprint=self.class_fingerprint,
            )
        )
        return frame

    def handle_feedback(self, msg: protocol.FeedbackMessage, now_us: int) -> None:
        self.stats["feedback_received"] += 1
        measured = max((now_us - msg.timestamp_us) / 1e6, 0.0)
        self.feedback_delay_s = update_delay(self.feedback_delay_s, measured)
        # a message is the backend's complete current set: persons it no
        # longer sends are gone
        self.latest_feedback = msg

    # -- pose path ---------------------------------------------------------

    @staticmethod
    def _match_feedback(uvc: np.ndarray, present: np.ndarray,
                        feedback: protocol.FeedbackMessage) -> np.ndarray:
        """Associate feedback persons to local detections (uvc (O,17,3),
        present (O,17)) by mean pixel distance over at least 3 shared
        joints, below FEEDBACK_MATCH_PX: detection by detection, the
        nearest feedback person not yet taken (the first of equals).
        Returns the feedback row of each detection, -1 for none."""
        shared = present[:, None] & feedback.present  # (O,F,17)
        n = shared.sum(axis=-1)
        d = uvc[:, None, :, :2] - feedback.uvc[..., :2]
        # summed joint by joint in order, as a scalar loop adds them
        total = np.cumsum(np.where(shared, np.hypot(d[..., 0], d[..., 1]), 0.0), axis=-1)
        mean = total[..., -1] / np.maximum(n, 1)
        cost = np.where((n >= 3) & (mean < FEEDBACK_MATCH_PX), mean, np.inf)
        rows = np.full(len(uvc), -1)
        if cost.size:
            for o in range(len(uvc)):
                f = int(np.argmin(cost[o]))
                if cost[o, f] < np.inf:
                    rows[o] = f
                    cost[:, f] = np.inf
        return rows

    def process_frame(self, frame: PoseSet2p5D, depth: DepthImage | None,
                      timestamp_us: int) -> PoseSet2p5D:
        """Local 2.5D pose model for one tick, stamped timestamp_us.

        frame: the keypoint CNN's output (render_keypoints' form), left
        unchanged, since the sweep's observation cache shares it across
        runs.  With feedback enabled, missing joints are completed from
        the backend's reprojections; with occlusion handling,
        occlusion-flagged local detections are discarded and replaced as
        well, and persons seen only in feedback are appended.
        Feedback-sourced joints always carry confidence KAPPA_FB and
        from_feedback set.  Depth is read in the patch around each joint
        the backend can fuse (PoseSet2p5D.fusable); every other present
        joint keeps NaN depth and sigma, since the backend never reads
        them.
        """
        if timestamp_us < self._last_pose_ts:
            raise ValueError("observation timestamps must be monotonic")
        self._last_pose_ts = timestamp_us
        cfg = self.config
        live = self.latest_feedback
        if live is not None and timestamp_us - live.timestamp_us > FEEDBACK_TTL_US:
            live = self.latest_feedback = None
        ids, uvc, present = (frame.person_ids.copy(), frame.keypoints[..., :3].copy(),
                             frame.present.copy())
        from_fb = np.zeros(present.shape, dtype=bool)
        if live is not None:
            fb_uvc = live.uvc.copy()
            fb_uvc[..., 2] = KAPPA_FB
            row = (self._match_feedback(uvc, present, live) if cfg.use_feedback
                   else np.full(len(ids), -1))
            hit, fb = row >= 0, row[row >= 0]
            from_fb[hit] = live.present[fb] & (~present[hit]
                                               | (cfg.use_occlusion & live.occluded[fb]))
            present = present | from_fb
            uvc[from_fb] = fb_uvc[fb][from_fb[hit]]
            if cfg.use_occlusion:
                # persons present only in feedback (fully occluded locally) are
                # added back; without occlusion information the sensor cannot
                # distinguish an absent person from an occluded one
                add = live.present.any(axis=1)
                add[fb] = False
                ids = np.concatenate([ids, FEEDBACK_PERSON_ID_BASE + live.person_ids[add]])
                uvc = np.concatenate([uvc, fb_uvc[add]])
                present = np.concatenate([present, live.present[add]])
                from_fb = np.concatenate([from_fb, live.present[add]])
        keypoints = np.full(present.shape + (5,), np.nan)
        keypoints[..., :3] = np.where(present[..., None], uvc, 0.0)
        ps = PoseSet2p5D(cfg.sensor_id, timestamp_us, ids, keypoints, present, from_fb)
        measured = ps.fusable
        if cfg.has_depth and depth is not None and measured.any():
            # NaN depth and sigma where a patch has no valid pixel
            ps.keypoints[measured, 3:] = np.column_stack(estimate_keypoint_depths(
                depth, ps.keypoints[measured][:, :2],
                max(cfg.calib.depth_noise_sigma, MIN_DEPTH_SIGMA)))
        return ps

    def pose_tick(self, frame: PoseSet2p5D, depth: DepthImage | None,
                  timestamp_us: int) -> PoseSet2p5D:
        pose_set = self.process_frame(frame, depth, timestamp_us)
        self._enqueue(protocol.MSG_POSE, protocol.encode(protocol.PoseMessage(pose_set)))
        self.stats["pose_sent"] += 1
        return pose_set

    # -- cloud path --------------------------------------------------------

    def build_semantic_cloud(self, depth: DepthImage, mask: SegmentationMask,
                             dets: list[Detection], timestamp_us: int) -> SemanticCloud:
        """Back-project, downsample, filter, cluster and semantically
        label one depth frame (the full local cloud pipeline)."""
        if not self.config.has_depth:
            raise ValueError("cloud path requires a depth sensor")
        calib = self.config.calib
        points = cloudmod.depth_to_points(depth, calib)
        points = cloudmod.voxel_downsample(points)
        points = cloudmod.statistical_outlier_filter(points)
        clusters = cloudmod.remove_ground_and_cluster(calib.cam_to_world(points))
        return cloudmod.fuse_semantics(
            points, calib, mask, dets, clusters,
            sensor_id=self.config.sensor_id, timestamp_us=timestamp_us,
        )

    def cloud_tick(self, depth: DepthImage, mask: SegmentationMask,
                   dets: list[Detection], timestamp_us: int) -> SemanticCloud:
        cloud = self.build_semantic_cloud(depth, mask, dets, timestamp_us)
        frame = protocol.encode(protocol.CloudMessage(cloud))
        self._enqueue(protocol.MSG_CLOUD, frame)
        self.stats["cloud_sent"] += 1
        return cloud
