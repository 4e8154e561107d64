import math

import numpy as np
from hypothesis import HealthCheck, settings

from semgrid.geometry import CameraCalib
from semgrid.pose import NUM_JOINTS, PoseSet2p5D, SkeletonSet
from semgrid.protocol import FeedbackMessage, PoseMessage, encode

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_ring_calibs(n: int = 4, radius: float = 4.0, height: float = 2.0,
                     target=(0.0, 0.0, 1.0), width: int = 640,
                     height_px: int = 480, f_px: float = 500.0,
                     depth_noise_sigma: float = 0.0) -> list[CameraCalib]:
    """Cameras on a circle around `target`, all looking at it."""
    target = np.asarray(target, dtype=np.float64)
    calibs = []
    for sid in range(n):
        ang = 2 * math.pi * sid / n
        pos = np.array([radius * math.cos(ang), radius * math.sin(ang), height])
        fwd = target - pos
        fwd /= np.linalg.norm(fwd)
        up = np.array([0.0, 0.0, 1.0])
        right = np.cross(fwd, up)
        right /= np.linalg.norm(right)
        down = np.cross(fwd, right)
        R = np.stack([right, down, fwd], axis=1)
        calibs.append(CameraCalib(sid, width, height_px, f_px, f_px,
                                  width / 2, height_px / 2, R, pos,
                                  depth_noise_sigma))
    return calibs


def pose_set(sensor_id: int, ts: int, persons=()):
    """PoseSet2p5D from (person id, {joint: keypoint}) pairs, a keypoint
    being (u, v, conf), (u, v, conf, depth, sigma) or (u, v, conf, depth,
    sigma, from_feedback); a depth of None means none."""
    kp = np.zeros((len(persons), NUM_JOINTS, 5))
    kp[..., 3:] = np.nan
    present = np.zeros((len(persons), NUM_JOINTS), dtype=bool)
    from_feedback = np.zeros_like(present)
    for i, (_, joints) in enumerate(persons):
        for j, vals in joints.items():
            u, v, conf, depth, sigma, fb = (*vals, None, None, False)[:6]
            kp[i, j, :3] = u, v, conf
            if depth is not None:
                kp[i, j, 3:] = depth, sigma
            present[i, j], from_feedback[i, j] = True, fb
    ids = np.array([pid for pid, _ in persons], dtype=np.int64)
    return PoseSet2p5D(sensor_id, ts, ids, kp, present, from_feedback)


def feedback_message(sensor_id: int, ts: int, persons=()):
    """FeedbackMessage from (person id, {joint: (u, v, conf, occluded)})
    pairs."""
    uvc = np.zeros((len(persons), NUM_JOINTS, 3))
    present = np.zeros((len(persons), NUM_JOINTS), dtype=bool)
    occluded = np.zeros_like(present)
    for i, (_, joints) in enumerate(persons):
        for j, (u, v, conf, occ) in joints.items():
            uvc[i, j], present[i, j], occluded[i, j] = (u, v, conf), True, occ
    ids = np.array([pid for pid, _ in persons], dtype=np.int64)
    return FeedbackMessage(sensor_id, ts, ids, uvc, present, occluded)


def skeletons(ts: int, persons=()):
    """SkeletonSet from (person id, {joint: (position, conf, n_views)})
    pairs, no velocities."""
    pos = np.full((len(persons), NUM_JOINTS, 3), np.nan)
    conf = np.zeros((len(persons), NUM_JOINTS))
    n_views = np.zeros((len(persons), NUM_JOINTS), dtype=np.int64)
    present = np.zeros((len(persons), NUM_JOINTS), dtype=bool)
    for i, (_, joints) in enumerate(persons):
        for j, (p, c, n) in joints.items():
            pos[i, j], conf[i, j], n_views[i, j], present[i, j] = p, c, n, True
    ids = np.array([pid for pid, _ in persons], dtype=np.int64)
    return SkeletonSet(ts, ids, pos, conf, n_views, present, np.full(pos.shape, np.nan),
                       np.zeros(present.shape, dtype=bool))


def assert_stream_drained(decoder) -> None:
    """Nothing pends in a StreamDecoder: one more valid frame decodes to
    exactly itself."""
    frame = encode(PoseMessage(pose_set(1, 2, [(0, {0: (1.0, 2.0, 0.5)})])))
    assert [encode(m) for m in decoder.feed(frame)] == [frame]


def class_file_text(class_set) -> str:
    """A class-set file for ClassSet.load: one 'index name r g b' line
    per class."""
    return "".join(f"{i} {name} {r} {g} {b}\n"
                   for i, (name, (r, g, b)) in enumerate(zip(class_set.names, class_set.colors)))
