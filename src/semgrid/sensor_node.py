"""Simulated smart edge sensor.

Consumes synthetic observations (the CNN stand-ins), runs the local
pipeline — 2.5D keypoint estimation at the pose rate, semantic cloud
construction at the cloud rate — merges backend feedback into the local
pose model, and emits wire-protocol frames.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import cloud as cloudmod
from . import protocol
from .cloud import DepthImage, DetectionSet, SegmentationMask, SemanticCloud
from .geometry import CameraCalib, load_calibs
from .pose import NUM_JOINTS, FeedbackPose, PoseSet2p5D, update_delay

KAPPA_FB = 0.35  # confidence of feedback-sourced joints, below the
# backend's triangulation gate so they never feed back into fusion
FEEDBACK_MATCH_PX = 30.0
FEEDBACK_PERSON_ID_BASE = 1000
SEND_QUEUE_LIMIT = 64


@dataclass
class SensorConfig:
    sensor_id: int
    calib: CameraCalib
    pose_rate_hz: float = 30.0
    cloud_rate_hz: float = 1.0
    detector_period_s: float = 1.0
    has_depth: bool = True
    use_feedback: bool = True
    use_occlusion: bool = True
    kappa_fb: float = KAPPA_FB

    def __post_init__(self):
        if self.pose_rate_hz <= 0 or self.cloud_rate_hz <= 0 or self.detector_period_s <= 0:
            raise ValueError("rates must be positive")
        if self.cloud_rate_hz > self.pose_rate_hz:
            raise ValueError("cloud rate must not exceed pose rate")


def load_sensor_config(path) -> SensorConfig:
    """INI-style sensor config with a [sensor] section; the calibration
    file is referenced via calib_file (see geometry.load_calibs format)."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ValueError(f"cannot read sensor config {path}")
    if "sensor" not in cp:
        raise ValueError(f"{path}: missing [sensor] section")
    s = cp["sensor"]
    sensor_id = s.getint("sensor_id")
    calibs = load_calibs(s["calib_file"])
    if sensor_id not in calibs:
        raise ValueError(f"{path}: sensor {sensor_id} not in calibration file")
    return SensorConfig(
        sensor_id=sensor_id,
        calib=calibs[sensor_id],
        pose_rate_hz=s.getfloat("pose_rate_hz", fallback=30.0),
        cloud_rate_hz=s.getfloat("cloud_rate_hz", fallback=1.0),
        detector_period_s=s.getfloat("detector_period_s", fallback=1.0),
        has_depth=s.getboolean("has_depth", fallback=True),
        use_feedback=s.getboolean("use_feedback", fallback=True),
        use_occlusion=s.getboolean("use_occlusion", fallback=True),
        kappa_fb=s.getfloat("kappa_fb", fallback=KAPPA_FB),
    )


_PATCH_DU, _PATCH_DV = np.meshgrid(np.arange(-2, 3), np.arange(-2, 3))
_PATCH_DU = _PATCH_DU.ravel()
_PATCH_DV = _PATCH_DV.ravel()


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


@dataclass
class FramePlan:
    """What process_frame builds for one frame before depth is known: the
    frame's pose set with depth and sigma still NaN.  The depth of every
    present joint is read in the patch around its (u, v)."""

    persons: list
    feedback_version: int
    live_feedback: dict[int, FeedbackPose]
    pose_set: PoseSet2p5D

    @property
    def uv(self) -> np.ndarray:
        """(K,2) pixel of every present joint, person by person."""
        ps = self.pose_set
        return ps.keypoints[ps.present][:, :2]


def _feedback_keypoints(fp: FeedbackPose, kappa_fb: float) -> np.ndarray:
    """(17,3) u, v and confidence of keypoints taken from feedback."""
    return np.column_stack([fp.uvc[:, :2], np.full(NUM_JOINTS, kappa_fb)])


class SensorNode:
    """State machine of one edge sensor; driven by the orchestrator.

    Outgoing frames go through a bounded send queue: on overflow the
    oldest cloud frame is dropped; pose frames are never dropped.
    """

    def __init__(self, config: SensorConfig, class_fingerprint: int):
        self.config = config
        self.class_fingerprint = class_fingerprint
        self.latest_feedback: dict[int, FeedbackPose] = {}
        self.feedback_delay_s: float | None = None
        self._queue: deque[tuple[int, bytes]] = deque()
        self._last_pose_ts = -1
        self._feedback_version = 0  # bumped on every feedback message
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
        for fp in msg.poses:
            self.latest_feedback[fp.person_id] = fp
        self._feedback_version += 1

    # -- pose path ---------------------------------------------------------

    @staticmethod
    def _match_feedback(persons: list, feedback: dict[int, FeedbackPose]) -> dict[int, FeedbackPose]:
        """Associate feedback poses to local detections by mean pixel
        distance over shared joints; returns local_id -> feedback."""
        matches: dict[int, FeedbackPose] = {}
        used: set[int] = set()
        for obs in persons:
            best = None
            best_d = FEEDBACK_MATCH_PX
            for pid, fp in feedback.items():
                if pid in used:
                    continue
                shared = obs.present & fp.present
                n = int(np.count_nonzero(shared))
                if n >= 3:
                    d = obs.uvc[shared, :2] - fp.uvc[shared, :2]
                    mean_d = sum(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist())) / n
                    if mean_d < best_d:
                        best_d = mean_d
                        best = pid
            if best is not None:
                used.add(best)
                matches[obs.local_id] = feedback[best]
        return matches

    def plan_frame(self, persons: list, timestamp_us: int) -> FramePlan:
        """Decide, without changing any state, which keypoint every output
        joint slot of this frame takes and where its depth is read.

        persons: keypoint observations (objects with local_id, a (17,3)
        u, v, conf array uvc and a (17,) present mask).  With feedback
        enabled, missing joints are completed from the backend's
        reprojections; with occlusion handling, occlusion-flagged local
        detections are discarded and replaced as well, and persons seen
        only in feedback are appended.  Feedback-sourced joints always
        carry confidence kappa_fb and from_feedback set.
        """
        cfg = self.config
        # feedback that has gone stale (no refresh for half a second) is dropped
        live = {
            pid: fp
            for pid, fp in self.latest_feedback.items()
            if timestamp_us - fp.timestamp_us <= 500_000
        }
        matches = self._match_feedback(persons, live) if cfg.use_feedback else {}
        rows = []  # (person id, present, u v conf, from feedback) per output person
        for obs in persons:
            fp = matches.get(obs.local_id)
            if fp is None:
                rows.append((obs.local_id, obs.present, obs.uvc, np.zeros(NUM_JOINTS, dtype=bool)))
                continue
            fb = fp.present & (~obs.present | (cfg.use_occlusion & fp.occluded))
            rows.append((obs.local_id, obs.present | fb,
                         np.where(fb[:, None], _feedback_keypoints(fp, cfg.kappa_fb), obs.uvc),
                         fb))
        if cfg.use_occlusion:
            # persons present only in feedback (fully occluded locally) are
            # added back; without occlusion information the sensor cannot
            # distinguish an absent person from an occluded one
            matched = {id(fp) for fp in matches.values()}
            for pid, fp in live.items():
                if id(fp) not in matched and fp.present.any():
                    rows.append((FEEDBACK_PERSON_ID_BASE + pid, fp.present,
                                 _feedback_keypoints(fp, cfg.kappa_fb), fp.present))
        ids, present, uvc, fb = (list(col) for col in zip(*rows)) if rows else ([], [], [], [])
        present = np.array(present, dtype=bool).reshape(-1, NUM_JOINTS)
        keypoints = np.full((len(ids), NUM_JOINTS, 5), np.nan)
        keypoints[..., :3] = np.where(present[..., None],
                                      np.array(uvc).reshape(-1, NUM_JOINTS, 3), 0.0)
        pose_set = PoseSet2p5D(cfg.sensor_id, timestamp_us, np.array(ids, dtype=np.int64),
                               keypoints, present,
                               np.array(fb, dtype=bool).reshape(-1, NUM_JOINTS))
        return FramePlan(persons, self._feedback_version, live, pose_set)

    def process_frame(self, persons: list, depth: DepthImage | None,
                      timestamp_us: int, plan: FramePlan | None = None) -> PoseSet2p5D:
        """Local 2.5D pose model for one tick (see plan_frame).

        plan: plan_frame's result for these persons at this timestamp, if
        the caller already made it (to render depth only where it is read).
        """
        if timestamp_us < self._last_pose_ts:
            raise ValueError("observation timestamps must be monotonic")
        if plan is None:
            plan = self.plan_frame(persons, timestamp_us)
        elif (plan.persons is not persons or plan.pose_set.timestamp_us != timestamp_us
              or plan.feedback_version != self._feedback_version):
            raise ValueError("frame plan was made for another frame or feedback state")
        self._last_pose_ts = timestamp_us
        self.latest_feedback = plan.live_feedback
        ps = plan.pose_set
        keypoints = ps.keypoints.copy()
        if self.config.has_depth and depth is not None and ps.present.any():
            # NaN depth and sigma where a patch has no valid pixel
            keypoints[ps.present, 3:] = np.column_stack(estimate_keypoint_depths(
                depth, plan.uv, self.config.calib.depth_noise_sigma))
        return dataclasses.replace(ps, keypoints=keypoints)

    def pose_tick(self, persons: list, depth: DepthImage | None,
                  timestamp_us: int, plan: FramePlan | None = None) -> PoseSet2p5D:
        pose_set = self.process_frame(persons, depth, timestamp_us, plan)
        frame = protocol.encode(protocol.PoseMessage(pose_set))
        self._enqueue(protocol.MSG_POSE, frame)
        self.stats["pose_sent"] += 1
        return pose_set

    # -- cloud path --------------------------------------------------------

    def build_semantic_cloud(self, depth: DepthImage, mask: SegmentationMask,
                             dets: DetectionSet, timestamp_us: int) -> SemanticCloud:
        """Back-project, downsample, filter, cluster and semantically
        label one depth frame (the full local cloud pipeline)."""
        if not self.config.has_depth:
            raise ValueError("cloud path requires a depth sensor")
        calib = self.config.calib
        points = cloudmod.depth_to_points(depth, calib)
        points = cloudmod.voxel_downsample(points)
        points = cloudmod.statistical_outlier_filter(points)
        points_world = points @ calib.rotation.T + calib.translation
        clusters = cloudmod.remove_ground_and_cluster(points_world)
        return cloudmod.fuse_semantics(
            points, calib, mask, dets, clusters,
            sensor_id=self.config.sensor_id, timestamp_us=timestamp_us,
        )

    def cloud_tick(self, depth: DepthImage, mask: SegmentationMask,
                   dets: DetectionSet, timestamp_us: int) -> SemanticCloud:
        cloud = self.build_semantic_cloud(depth, mask, dets, timestamp_us)
        frame = protocol.encode(protocol.CloudMessage(cloud))
        self._enqueue(protocol.MSG_CLOUD, frame)
        self.stats["cloud_sent"] += 1
        return cloud
