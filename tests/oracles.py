"""Reference implementations that the tests check the batched functions
of semgrid against: scalar ones, one point, keypoint, ray or camera at a
time, written for clarity rather than speed, and per-group forms of
association and triangulation (one candidate loop per group and member,
one solve per group), the per-camera form of feedback, the per-skeleton
form of the tracker and the dense form of the person-capsule cast, which
the batched ones must match bit for bit.
Also the readers tests use to look at one voxel-map cell, the dense
form of the map's class rows, one per cell, that its slot table must
match, the cloud outlier filter offset by offset, and the CLOUD, POSE
and FEEDBACK payloads written a point, person and joint at a time."""

from __future__ import annotations

import dataclasses
import itertools
import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from semgrid import synthworld
from semgrid.cloud import CLOUD_VOXEL_RES, OUTLIER_STDDEV_MULT
from semgrid.geometry import (
    _KEY_BIAS,
    CameraCalib,
    bresenham3d_keys,
    pack_voxel_keys,
    unpack_voxel_keys,
    voxel_indices_of,
)
from semgrid.geometry import project as project_camera_frame
from semgrid.pose import (
    _BONE_J0,
    _BONE_J1,
    ALPHA_POS,
    ALPHA_VEL,
    BONE_DEV_MAX,
    BONE_WINDOW,
    BONES,
    CONF_MIN,
    NUM_JOINTS,
    TAU_EPI,
    TAU_CONF,
    TRACK_GATE,
    TRACK_STALE_S,
    VEL_MAX,
    PoseSet2p5D,
    SkeletonSet,
    _camera_matrices,
    _clip_project_segments,
    _predicted,
    _pt_seg_dists,
    _view_arrays,
    row_norms,
    triangulate_points,
)
from semgrid.semantics import FLOOR_CLASS, NUM_CLASSES, PERSON_CLASS, PROB_FLOOR, fuse_rows
from semgrid.sensor_node import FEEDBACK_MATCH_PX, estimate_keypoint_depths
from semgrid.voxmap import (
    L_FREE,
    L_MAX,
    L_MIN,
    L_OCC,
    L_PRIOR_OCC,
    MAP_RESOLUTION,
    VoxelMap,
)

_EPS_Z = 1e-6


# -- geometry ------------------------------------------------------------------


def project(calib: CameraCalib, p_world):
    """Project a world point; None when behind the camera or off-image."""
    pc = calib.world_to_cam(np.asarray(p_world, dtype=np.float64).reshape(3))
    z = pc[2]
    if z <= _EPS_Z:
        return None
    u = calib.cx + calib.fx * pc[0] / z
    v = calib.cy + calib.fy * pc[1] / z
    if not (0 <= u < calib.width and 0 <= v < calib.height):
        return None
    return (u, v, z)


def backproject(calib: CameraCalib, u: float, v: float, depth: float) -> np.ndarray:
    """Back-project one pixel with its depth to a world point."""
    if depth <= 0:
        raise ValueError("depth must be positive")
    pc = np.array(
        [(u - calib.cx) / calib.fx * depth, (v - calib.cy) / calib.fy * depth, depth]
    )
    return calib.cam_to_world(pc)


def backproject_many(calib: CameraCalib, uv: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Back-project (N,2) pixels with (N,) depths to (N,3) world points."""
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    d = np.asarray(depth, dtype=np.float64).reshape(-1)
    pc = np.empty((len(d), 3))
    pc[:, 0] = (uv[:, 0] - calib.cx) / calib.fx * d
    pc[:, 1] = (uv[:, 1] - calib.cy) / calib.fy * d
    pc[:, 2] = d
    return pc @ calib.rotation.T + calib.translation


def _hproject(calib: CameraCalib, p_world: np.ndarray) -> np.ndarray:
    """Homogeneous pixel coordinates of a world point (no frustum test)."""
    pc = calib.world_to_cam(p_world)
    return np.array(
        [
            calib.fx * pc[0] + calib.cx * pc[2],
            calib.fy * pc[1] + calib.cy * pc[2],
            pc[2],
        ]
    )


def epipolar_line(calib_a: CameraCalib, calib_b: CameraCalib, kp_a) -> np.ndarray:
    """Epipolar line (a,b,c) in image b of pixel kp_a from image a.

    Normalized so a^2 + b^2 = 1; signed distance of pixel (u,v) is
    a*u + b*v + c.  The line is obtained by projecting two points of the
    back-projected ray of kp_a (the camera center and the point at unit
    depth) homogeneously into image b.
    """
    if np.linalg.norm(calib_a.center - calib_b.center) < 1e-9:
        raise ValueError("coincident camera centers: epipolar geometry degenerate")
    u, v = float(kp_a[0]), float(kp_a[1])
    x1 = _hproject(calib_b, calib_a.center)
    x2 = _hproject(calib_b, backproject(calib_a, u, v, 1.0))
    line = np.cross(x1, x2)
    n = math.hypot(line[0], line[1])
    if n < 1e-12:
        raise ValueError("degenerate epipolar line")
    return line / n


def epipolar_segment(calib_a: CameraCalib, calib_b: CameraCalib, kp_a, depth_interval):
    """Projection into image b of kp_a's ray restricted to a depth interval.

    Returns (e0, e1) pixel endpoints (possibly outside image bounds), or
    None when the whole segment lies behind camera b.
    """
    d_min, d_max = float(depth_interval[0]), float(depth_interval[1])
    if not (0 < d_min <= d_max):
        raise ValueError("need 0 < d_min <= d_max")
    u, v = float(kp_a[0]), float(kp_a[1])
    p0 = calib_b.world_to_cam(backproject(calib_a, u, v, d_min))
    p1 = calib_b.world_to_cam(backproject(calib_a, u, v, d_max))
    z0, z1 = p0[2], p1[2]
    if z0 <= _EPS_Z and z1 <= _EPS_Z:
        return None
    # clip the 3D segment to the z > eps half-space of camera b
    if z0 <= _EPS_Z:
        s = (2 * _EPS_Z - z0) / (z1 - z0)
        p0 = p0 + s * (p1 - p0)
    elif z1 <= _EPS_Z:
        s = (2 * _EPS_Z - z1) / (z0 - z1)
        p1 = p1 + s * (p0 - p1)
    e0 = np.array([calib_b.cx + calib_b.fx * p0[0] / p0[2], calib_b.cy + calib_b.fy * p0[1] / p0[2]])
    e1 = np.array([calib_b.cx + calib_b.fx * p1[0] / p1[2], calib_b.cy + calib_b.fy * p1[1] / p1[2]])
    return e0, e1


def point_line_distance(line, pt) -> float:
    return abs(line[0] * pt[0] + line[1] * pt[1] + line[2])


def point_segment_distance(pt, e0, e1) -> float:
    p = np.asarray(pt, dtype=np.float64)
    a = np.asarray(e0, dtype=np.float64)
    b = np.asarray(e1, dtype=np.float64)
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-18:
        return float(np.linalg.norm(p - a))
    s = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + s * ab)))


def _bres_core(start, delta_perm, sign_perm):
    """Bresenham walk in permuted axis order (dominant axis first).

    Tie rule: an error term of exactly zero does not trigger a side step,
    so exact midpoints advance the dominant axis only.
    """
    d0, d1, d2 = delta_perm
    s0, s1, s2 = sign_perm
    c0, c1, c2 = start
    p1 = 2 * d1 - d0
    p2 = 2 * d2 - d0
    cells = [(c0, c1, c2)]
    for _ in range(d0):
        if p1 > 0:
            c1 += s1
            p1 -= 2 * d0
        if p2 > 0:
            c2 += s2
            p2 -= 2 * d0
        p1 += 2 * d1
        p2 += 2 * d2
        c0 += s0
        cells.append((c0, c1, c2))
    return cells


def bresenham3d(a: tuple[int, int, int], b: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """26-connected integer line of voxel tuples from a to b, inclusive.

    Cell count is max(|dx|,|dy|,|dz|) + 1 and the walk is monotone along
    every axis.
    """
    delta = [b[i] - a[i] for i in range(3)]
    d = [abs(x) for x in delta]
    s = [(0 if x == 0 else (1 if x > 0 else -1)) for x in delta]
    # dominant axis: lowest index among maxima; remaining axes keep order
    dom = max(range(3), key=lambda i: (d[i], -i))
    rest = [i for i in range(3) if i != dom]
    perm = [dom, rest[0], rest[1]]
    cells = _bres_core(
        [a[perm[0]], a[perm[1]], a[perm[2]]],
        [d[perm[0]], d[perm[1]], d[perm[2]]],
        [s[perm[0]], s[perm[1]], s[perm[2]]],
    )
    out = []
    for c in cells:
        w = [0, 0, 0]
        w[perm[0]], w[perm[1]], w[perm[2]] = c
        out.append(tuple(w))
    return out


def bresenham3d_many(origin: np.ndarray, targets: np.ndarray):
    """The walk of bresenham3d from one origin to many targets, as voxel
    cells: (cells (M,3) int64, ray_id (M,)), every ray's cells contiguous,
    origin first, target last.  Side-axis advances come from the closed
    form of the error-accumulation walk in exact int64 floor division."""
    origin = np.asarray(origin, dtype=np.int64).reshape(3)
    tg = np.asarray(targets, dtype=np.int64).reshape(-1, 3)
    if len(tg) == 0:
        return np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.intp)
    delta = tg - origin
    d = np.abs(delta)
    s = np.sign(delta)
    cells, ray_ids = [], []
    for i in range(len(tg)):
        dom = max(range(3), key=lambda a: (d[i, a], -a))
        r1, r2 = [a for a in range(3) if a != dom]
        d0 = d[i, dom]
        k = np.arange(d0 + 1, dtype=np.int64)
        c = np.empty((d0 + 1, 3), dtype=np.int64)
        c[:, dom] = origin[dom] + s[i, dom] * k
        for axis in (r1, r2):
            # after k dominant steps the side axis has advanced
            # floor((2*d*k + d0 - 1) / (2*d0)) cells
            adv = (2 * d[i, axis] * k + d0 - 1) // (2 * max(d0, 1)) if d0 else 0 * k
            c[:, axis] = origin[axis] + s[i, axis] * adv
        cells.append(c)
        ray_ids.append(np.full(d0 + 1, i, dtype=np.intp))
    return np.concatenate(cells), np.concatenate(ray_ids)


# -- cloud ---------------------------------------------------------------------


def count_outlier_filter(points: np.ndarray) -> np.ndarray:
    """The voxel-count outlier filter offset by offset: a point's count
    sums, over the 125 offsets within 2 cells on every axis, the points
    of the offset cell, looked up by packed key among the occupied cells
    (an offset cell beyond the packable range holds none); a point is kept
    when its count is at least the counts' mean minus OUTLIER_STDDEV_MULT
    standard deviations."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        return pts
    keys, cell_of, size = np.unique(pack_voxel_keys(voxel_indices_of(pts, CLOUD_VOXEL_RES)),
                                    return_inverse=True, return_counts=True)
    cells = unpack_voxel_keys(keys)
    block = np.zeros(len(keys), dtype=np.intp)
    for offset in itertools.product(range(-2, 3), repeat=3):
        near = cells + offset
        packable = (np.abs(near) < _KEY_BIAS).all(axis=1)
        near_keys = pack_voxel_keys(near[packable])
        at = np.minimum(np.searchsorted(keys, near_keys), len(keys) - 1)
        block[packable] += np.where(keys[at] == near_keys, size[at], 0)
    counts = block[cell_of]
    return pts[counts >= counts.mean() - OUTLIER_STDDEV_MULT * counts.std()]


# -- semantics, voxel map -----------------------------------------------------


def from_probs(p) -> np.ndarray:
    """Log-probability row of a probability vector: normalized, floored at
    PROB_FLOOR and normalized again, as semantics.detection_row does."""
    p = np.asarray(p, dtype=np.float64)
    p = np.maximum(p / p.sum(), PROB_FLOOR)
    return np.log(p / p.sum())


def bayes_fuse(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """semantics.fuse_rows for one pair of rows, in the probability
    domain: product, normalized, floored, normalized again."""
    p = np.exp(log_a) * np.exp(log_b)
    p = np.maximum(p / p.sum(), PROB_FLOOR)
    return np.log(p / p.sum())


def sorted_state(vmap: VoxelMap):
    """The map's cells as columns in packed-key order: (keys, log_odds,
    log_p (N,C), source)."""
    n = vmap._n
    order = np.argsort(vmap._keys[:n])
    return (vmap._keys[:n][order], vmap._log_odds[:n][order],
            vmap._class_rows(order), vmap._source[:n][order])


class DenseRowMap:
    """A voxel map's class rows in dense form: one row per cell, uniform
    when the cell is made, reset to uniform when a cloud frees the cell,
    and fused at every endpoint with one fuse_rows call per cloud.  Cells
    are in packed-key order; log-odds are kept only to tell which cells a
    cloud frees."""

    def __init__(self, resolution: float = MAP_RESOLUTION):
        self.resolution = resolution
        self.keys = np.zeros(0, dtype=np.int64)
        self.log_odds = np.zeros(0)
        self.log_p = np.zeros((0, NUM_CLASSES))

    def _rows_for(self, keys: np.ndarray) -> np.ndarray:
        """Rows of sorted distinct keys; missing cells are inserted."""
        new = ~np.isin(keys, self.keys)
        pos = np.searchsorted(self.keys, keys[new])
        self.keys = np.insert(self.keys, pos, keys[new])
        self.log_odds = np.insert(self.log_odds, pos, 0.0)
        self.log_p = np.insert(self.log_p, pos, -np.log(NUM_CLASSES), axis=0)
        return np.searchsorted(self.keys, keys)

    def load_prior(self, points) -> None:
        keys = np.unique(pack_voxel_keys(voxel_indices_of(points, self.resolution)))
        rows = self._rows_for(keys)  # before self.log_odds is read: it replaces it
        self.log_odds[rows] = L_PRIOR_OCC

    def integrate_cloud(self, cloud, calib: CameraCalib) -> None:
        keep = cloud.argmax_classes() != PERSON_CLASS
        if not keep.any():
            return
        pts = calib.cam_to_world(cloud.positions)[keep]
        end_keys, inv = np.unique(pack_voxel_keys(voxel_indices_of(pts, self.resolution)),
                                  return_inverse=True)
        origin = voxel_indices_of(calib.center[None], self.resolution)[0]
        cells = np.unique(bresenham3d_keys(origin, unpack_voxel_keys(end_keys))[0])
        rows = self._rows_for(cells)
        is_end = np.isin(cells, end_keys)
        free = rows[~is_end]
        before = self.log_odds[free]
        self.log_odds[free] = np.clip(before + L_FREE, L_MIN, L_MAX)
        self.log_p[free[(before > 0) & (self.log_odds[free] <= 0)]] = -np.log(NUM_CLASSES)
        end = rows[is_end]  # in end_keys order
        self.log_odds[end] = np.clip(self.log_odds[end] + L_OCC, L_MIN, L_MAX)
        sums = np.stack([np.bincount(inv, weights=cloud.log_probs[keep][:, c],
                                     minlength=len(end_keys)) for c in range(NUM_CLASSES)],
                        axis=1)
        self.log_p[end] = fuse_rows(self.log_p[end], sums)


def map_cell(vmap: VoxelMap, idx):
    """(log_odds, log_p, source) of the cell at voxel index
    idx, read from sorted_state; None when the map has no such cell."""
    keys, *cols = sorted_state(vmap)
    key = pack_voxel_keys(np.array([idx]))[0]
    i = int(np.searchsorted(keys, key))
    if i == len(keys) or keys[i] != key:
        return None
    return tuple(col[i] for col in cols)


# -- protocol ------------------------------------------------------------------


def quantize_probs(probs: np.ndarray) -> np.ndarray:
    """protocol.quantize_probs by a stable sort of each row's fractions,
    largest first: the first `remainder` entries in that order get one
    more count."""
    p = np.asarray(probs, dtype=np.float64).reshape(-1, NUM_CLASSES)
    scaled = p * 65535.0
    q = np.floor(scaled).astype(np.int64)
    remainder = (65535 - q.sum(axis=-1)).astype(np.int64)
    frac = scaled - q
    order = np.argsort(-frac, axis=-1, kind="stable")
    bump = np.arange(p.shape[-1])[None, :] < remainder[:, None]
    out = q.copy()
    np.put_along_axis(out, order, np.take_along_axis(q, order, -1) + bump, -1)
    return out.astype(np.uint16)


def cloud_payload(positions: np.ndarray, log_probs: np.ndarray) -> bytes:
    """protocol._encode_cloud point by point: each row quantized on its
    own and looked up in a dict of the palette rows so far."""
    palette: dict[bytes, int] = {}
    index = [palette.setdefault(quantize_probs(np.exp(row)).tobytes(), len(palette))
             for row in log_probs]
    record = "<3fH" if len(palette) <= 1 << 16 else "<3fI"
    return b"".join([struct.pack("<II", len(index), len(palette)), *palette,
                     *(struct.pack(record, *xyz, i) for xyz, i in zip(positions, index))])


def persons_payload(ids, present: np.ndarray, values: np.ndarray, flags: np.ndarray) -> bytes:
    """protocol._encode_persons person by person and joint by joint."""
    def mask(bits) -> int:
        return sum(1 << j for j in range(NUM_JOINTS) if bits[j])

    table = [struct.pack("<III", pid, mask(pr), mask(pr & fl))
             for pid, pr, fl in zip(ids, present, flags)]
    joints = [struct.pack(f"<{values.shape[-1]}f", *values[p, j])
              for p in range(len(ids)) for j in range(NUM_JOINTS) if present[p, j]]
    return b"".join([bytes([len(ids)]), *table, *joints])


# -- sensor, pose --------------------------------------------------------------


def estimate_keypoint_depth(depth, u: float, v: float,
                            sigma_floor: float = 0.0) -> tuple[float, float] | None:
    """estimate_keypoint_depths for one keypoint; None without a depth."""
    med, sigma = estimate_keypoint_depths(depth, [(u, v)], sigma_floor)
    if np.isnan(med[0]):
        return None
    return float(med[0]), float(sigma[0])


def match_feedback(uvc: np.ndarray, present: np.ndarray, feedback) -> np.ndarray:
    """SensorNode._match_feedback as a loop over detections and feedback
    persons, each mean distance a scalar sum over the shared joints in
    joint order.  The distances come from np.hypot, as in the batched
    form: math.hypot differs from it in the last bit for some inputs."""
    rows = np.full(len(uvc), -1)
    for o in range(len(uvc)):
        best, best_d = -1, FEEDBACK_MATCH_PX
        for f in range(len(feedback.person_ids)):
            if f in rows:
                continue
            shared = present[o] & feedback.present[f]
            n = int(np.count_nonzero(shared))
            if n >= 3:
                d = uvc[o, shared, :2] - feedback.uvc[f, shared, :2]
                mean_d = sum(float(np.hypot(dx, dy)) for dx, dy in d.tolist()) / n
                if mean_d < best_d:
                    best, best_d = f, mean_d
        rows[o] = best
    return rows


def triangulate_joint(observations: list[tuple[CameraCalib, float, float, float]]):
    """triangulate_points for a single joint.

    observations: (calib, u, v, confidence) per view.  Returns (position,
    mean reprojection residual px) or None when triangulate_points
    rejects the joint.
    """
    if len(observations) < 2:
        return None
    calibs = [o[0] for o in observations]
    uv = np.array([(o[1], o[2]) for o in observations], dtype=np.float64)
    conf = np.array([o[3] for o in observations], dtype=np.float64)
    pos, res, ok = triangulate_points(calibs, uv[:, None, :], conf[:, None],
                                      np.ones((len(calibs), 1), dtype=bool))
    if not ok[0]:
        return None
    return pos[0], float(res[0])


@dataclass
class Skeleton3D:
    """One fused 3D person, a row of pose.SkeletonSet: pos (17,3), conf
    (17,), n_views (17,) int and vel (17,3), with the masks present and
    has_vel (17,)."""

    person_id: int
    timestamp_us: int
    pos: np.ndarray
    conf: np.ndarray
    n_views: np.ndarray
    present: np.ndarray
    vel: np.ndarray = field(default_factory=lambda: np.full((NUM_JOINTS, 3), np.nan))
    has_vel: np.ndarray = field(default_factory=lambda: np.zeros(NUM_JOINTS, dtype=bool))

    def centroid(self) -> np.ndarray | None:
        return self.pos[self.present].mean(axis=0) if self.present.any() else None


_SKELETON_ARRAYS = ("pos", "conf", "n_views", "present", "vel", "has_vel")


def skeleton_rows(skels: SkeletonSet) -> list[Skeleton3D]:
    """The rows of a SkeletonSet as Skeleton3D copies."""
    return [Skeleton3D(pid, skels.timestamp_us,
                       *(getattr(skels, name)[k].copy() for name in _SKELETON_ARRAYS))
            for k, pid in enumerate(skels.person_ids.tolist())]


def skeleton_set(skels: list[Skeleton3D], timestamp_us: int) -> SkeletonSet:
    """Skeleton3D rows stacked into a SkeletonSet."""
    n = len(skels)
    return SkeletonSet(timestamp_us, np.array([s.person_id for s in skels], dtype=np.int64),
                       *(np.array([getattr(s, name) for s in skels], dtype=dtype).reshape(
                           (n, NUM_JOINTS) + shape)
                         for name, dtype, shape in (
                             ("pos", float, (3,)), ("conf", float, ()), ("n_views", np.int64, ()),
                             ("present", bool, ()), ("vel", float, (3,)),
                             ("has_vel", bool, ()))))


def refine_skeleton(raw: Skeleton3D, prev: Skeleton3D | None, dt_s: float = 1.0 / 30.0,
                    bone_ref: np.ndarray | None = None) -> Skeleton3D:
    """The refinement of pose.SkeletonTracker for one skeleton:
    exponential smoothing against prev plus bone-length outlier gating.

    Joints whose adjacent bone deviates more than 50% from the reference
    (running median) length are demoted to low confidence; velocities are
    finite differences against prev.
    """
    present = raw.present
    if not present.any():
        raise ValueError("skeleton must have at least one joint")
    pos = raw.pos.copy()
    vel = np.zeros((NUM_JOINTS, 3))  # a joint seen for the first time starts at rest
    if prev is not None:
        both = present & prev.present
        smooth = ALPHA_POS * raw.pos + (1 - ALPHA_POS) * prev.pos
        pos[both] = smooth[both]
        step = (smooth - prev.pos) / max(dt_s, 1e-9)
        speed = row_norms(step)
        fast = both & (speed > VEL_MAX)
        step[fast] *= (VEL_MAX / speed[fast])[:, None]
        blend = both & prev.has_vel
        step[blend] = ALPHA_VEL * step[blend] + (1 - ALPHA_VEL) * prev.vel[blend]
        vel[both] = step[both]
    conf = raw.conf
    if bone_ref is not None:
        lengths = row_norms(pos[_BONE_J0] - pos[_BONE_J1])
        with np.errstate(invalid="ignore"):
            bad = (
                np.isfinite(bone_ref) & (bone_ref > 0) & present[_BONE_J0] & present[_BONE_J1]
                & (np.abs(lengths - bone_ref) > BONE_DEV_MAX * bone_ref)
            )
        demote = np.zeros(NUM_JOINTS, dtype=bool)
        demote[np.maximum(_BONE_J0, _BONE_J1)[bad]] = True
        conf = np.where(demote, conf * 0.1, conf)
    return Skeleton3D(raw.person_id, raw.timestamp_us, pos, conf, raw.n_views, present,
                      vel, present.copy())


class SkeletonTracker:
    """pose.SkeletonTracker one skeleton at a time, its state in dicts
    keyed by person id (in order of birth): a linear scan for each
    skeleton's nearest track, then refine_skeleton per skeleton in order
    of that distance."""

    def __init__(self):
        self.next_id = 0
        self._clock_s = 0.0
        self._prev: dict[int, Skeleton3D] = {}
        self._centroids: dict[int, np.ndarray] = {}
        self._bones: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._matched_s: dict[int, float] = {}

    @property
    def track_ids(self) -> np.ndarray:
        return np.array(list(self._prev), dtype=np.int64)

    def update(self, raw: SkeletonSet, dt_s: float) -> SkeletonSet:
        self._clock_s += dt_s
        for pid, t in list(self._matched_s.items()):
            if self._clock_s - t > TRACK_STALE_S:
                for state in (self._prev, self._centroids, self._bones, self._matched_s):
                    del state[pid]
        prev_ids = list(self._centroids)
        prev_cent = np.array(list(self._centroids.values())).reshape(-1, 3)
        candidates = []
        skels = skeleton_rows(raw)
        for row, skel in enumerate(skels):
            c = skel.centroid()
            if c is None:
                continue
            best_id, best_d = None, TRACK_GATE
            if prev_ids:
                dists = row_norms(c - prev_cent)
                i = int(np.argmin(dists))  # first of equal minima, as dict order
                if dists[i] < best_d:
                    best_id, best_d = prev_ids[i], float(dists[i])
            candidates.append((row, skel, best_id, best_d))
        candidates.sort(key=lambda x: x[3])
        assigned: set[int] = set()
        refined = []
        for row, skel, pid, _ in candidates:
            if pid is None or pid in assigned:
                pid = self.next_id
                self.next_id += 1
            assigned.add(pid)
            skel.person_id = raw.person_ids[row] = pid
            out = refine_skeleton(skel, self._prev.get(pid), dt_s, self._bone_reference(pid))
            self._record_bones(pid, out)
            self._prev[pid] = out
            self._centroids[pid] = out.centroid()
            self._matched_s[pid] = self._clock_s
            refined.append(out)
        return skeleton_set(refined, raw.timestamp_us)

    def _bone_reference(self, pid: int) -> np.ndarray | None:
        """Median of each bone's recorded lengths; NaN below 3 samples."""
        hist = self._bones.get(pid)
        if hist is None:
            return None
        values, _, count = hist
        svals = np.sort(values, axis=1)  # NaN (unfilled) sorts last
        rows = np.arange(len(BONES))
        c = np.maximum(count, 1)
        med = 0.5 * (svals[rows, (c - 1) // 2] + svals[rows, c // 2])
        return np.where(count >= 3, med, np.nan)

    def _record_bones(self, pid: int, skel: Skeleton3D) -> None:
        hist = self._bones.get(pid)
        if hist is None:
            hist = (np.full((len(BONES), BONE_WINDOW), np.nan),
                    np.zeros(len(BONES), dtype=np.int64),
                    np.zeros(len(BONES), dtype=np.int64))
            self._bones[pid] = hist
        values, head, count = hist
        have = np.nonzero(skel.present[_BONE_J0] & skel.present[_BONE_J1])[0]
        values[have, head[have]] = row_norms(skel.pos[_BONE_J0[have]] - skel.pos[_BONE_J1[have]])
        head[have] = (head[have] + 1) % BONE_WINDOW
        count[have] = np.minimum(count[have] + 1, BONE_WINDOW)


def predict(skel: Skeleton3D, dt_s: float, tau_conf: float = TAU_CONF) -> Skeleton3D:
    """The prediction make_feedback applies, for one skeleton."""
    if dt_s < 0:
        raise ValueError("dt must be non-negative")
    pos, conf = _predicted(skel.pos, skel.conf, skel.vel, skel.has_vel, dt_s, tau_conf)
    return dataclasses.replace(skel, timestamp_us=skel.timestamp_us + int(round(dt_s * 1e6)),
                               pos=pos, conf=conf)


def make_feedback_one(skels: list[Skeleton3D], calib: CameraCalib, vmap, delay_s: float,
                      compute_occlusion: bool = True):
    """pose.make_feedback for one camera, as the backend built it sensor
    by sensor: its own prediction of the stacked skeletons and its own
    occlusion query from the camera centre.  Returns (person_ids, uvc,
    present, occluded)."""
    if not skels:
        return (np.empty(0, dtype=np.int64), np.empty((0, NUM_JOINTS, 3)),
                np.empty((0, NUM_JOINTS), dtype=bool), np.empty((0, NUM_JOINTS), dtype=bool))
    pos, conf = _predicted(*(np.stack([getattr(s, name) for s in skels])
                             for name in ("pos", "conf", "vel", "has_vel")), delay_s, TAU_CONF)
    present = np.stack([s.present for s in skels])
    uv, _, in_image = project_camera_frame(calib, calib.world_to_cam(pos))
    ok = present & in_image
    occluded = np.zeros(ok.shape, dtype=bool)
    if compute_occlusion and vmap is not None and ok.any():
        occluded[ok] = vmap.is_occluded_many(calib.center, pos[ok])
    uvc = np.where(ok[..., None], np.concatenate([uv, conf[..., None]], axis=-1), 0.0)
    keep = ok.any(axis=1)
    ids = np.array([s.person_id for s in skels], dtype=np.int64)
    return ids[keep], uvc[keep], ok[keep], occluded[keep]


def pair_costs_full(views: list[PoseSet2p5D], calibs: list[CameraCalib],
                    use_depth: bool) -> np.ndarray:
    """pose._pair_costs over every ordered view pair, a == b included:
    (V,V,P,P), entry [a, b, i, q] the cost of person i of view a and
    person q of view b."""
    kp, usable = _view_arrays(views)
    uv = np.where(usable[..., None], kp[..., :2], 0.0)
    depth, sigma = kp[..., 3], kp[..., 4]
    K, K_inv, R, t = _camera_matrices(calibs)
    to_b = K @ R.transpose(0, 2, 1)
    rel = t[:, None] - t[None, :]  # (a, b, 3): a's centre relative to b's
    e = (to_b[None] @ rel[..., None])[..., 0]
    ray = np.broadcast_to((R @ K_inv)[:, None], rel.shape + (3,)).copy()
    ray[..., 2] += rel
    m = to_b[None] @ ray
    e_cross = np.zeros(e.shape + (3,))
    e_cross[..., 0, 1], e_cross[..., 0, 2] = -e[..., 2], e[..., 1]
    e_cross[..., 1, 0], e_cross[..., 1, 2] = e[..., 2], -e[..., 0]
    e_cross[..., 2, 0], e_cross[..., 2, 1] = -e[..., 1], e[..., 0]
    f = e_cross @ m  # (V,V,3,3)
    n_v, n_p = uv.shape[:2]
    uvh = np.concatenate([uv, np.ones((n_v, n_p, NUM_JOINTS, 1))], axis=-1)
    lines = (uvh.reshape(n_v, 1, -1, 3) @ f.transpose(0, 1, 3, 2)).reshape(
        n_v, n_v, n_p, NUM_JOINTS, 3)
    norms = np.hypot(lines[..., 0], lines[..., 1])
    lines /= np.where(norms < 1e-12, 1.0, norms)[..., None]
    line = lines[:, :, :, None]
    ub = uv[None, :, None]
    d = np.abs(line[..., 0] * ub[..., 0] + line[..., 1] * ub[..., 1] + line[..., 2])
    shared = usable[:, None, :, None] & usable[None, :, None]
    if use_depth:
        have_d = usable & np.isfinite(depth)
        with np.errstate(invalid="ignore"):
            lo = np.maximum(depth - 2 * sigma, 1e-3)
            hi = np.maximum(depth + 2 * sigma, lo)
        world = uvh @ (R @ K_inv)[:, None].transpose(0, 1, 3, 2)
        ends = [
            ((dist[..., None] * world)[:, None] + rel[:, :, None, None]) @ R[None, :, None]
            for dist in (lo, hi)
        ]
        seg0, seg1, front = _clip_project_segments(K[None, :, None, None], *ends)
        ds = _pt_seg_dists(ub, seg0[:, :, :, None], seg1[:, :, :, None])
        checked = shared & (have_d[:, None] & front)[:, :, :, None]
        shared &= ~(checked & (ds > TAU_EPI))
        d = np.where(checked, ds, d)
    counts = shared.sum(axis=-1)
    sums = np.where(shared, d, 0.0).sum(axis=-1)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.inf)


def associate(views: list[PoseSet2p5D], calibs: dict[int, CameraCalib],
              use_depth: bool = False) -> np.ndarray:
    """pose.associate with one candidate list per view, built group by
    group, member by member and person by person, over the costs of
    every person; a person without a usable keypoint starts no group."""
    if not views:
        return np.empty((0, 0), dtype=np.int64)
    cost = pair_costs_full(views, [calibs[v.sensor_id] for v in views], use_depth)
    usable = _view_arrays(views)[1].any(axis=-1)
    groups: list[dict[int, int]] = []  # view index -> person row
    for ib, v in enumerate(views):
        nb = len(v.person_ids)
        if nb == 0:
            continue
        candidates = []  # (cost, group index, person row)
        for gi, group in enumerate(groups):
            best = np.full(nb, np.inf)
            for ia, row in group.items():
                best = np.minimum(best, cost[ia, ib, row, :nb])
            for q in range(nb):
                if best[q] <= TAU_EPI:
                    candidates.append((float(best[q]), gi, q))
        candidates.sort()
        taken_groups: set[int] = set()
        taken_persons: set[int] = set()
        for _, gi, q in candidates:
            if gi in taken_groups or q in taken_persons:
                continue
            groups[gi][ib] = q
            taken_groups.add(gi)
            taken_persons.add(q)
        for q in range(nb):
            if q not in taken_persons and usable[ib, q]:
                groups.append({ib: q})
    rows = np.full((len(groups), len(views)), -1, dtype=np.int64)
    for g, group in enumerate(groups):
        for ia, row in group.items():
            rows[g, ia] = row
    return rows


def triangulate_one_group(views: list[PoseSet2p5D], group: np.ndarray,
                          calibs: dict[int, CameraCalib], timestamp_us: int) -> Skeleton3D | None:
    """pose.triangulate_group for one group, its person row in each view
    (-1 for none): one triangulate_points call over the group's own
    views, one back-projection per single-view joint."""
    members = [(v, row) for v, row in zip(views, group.tolist()) if row >= 0]
    kp = np.stack([v.keypoints[row] for v, row in members])  # (V,17,5)
    conf = kp[:, :, 2]
    seen = np.stack([v.present[row] & ~v.from_feedback[row] for v, row in members])
    seen &= conf >= CONF_MIN
    n_seen = seen.sum(axis=0)
    member_calibs = [calibs[v.sensor_id] for v, _ in members]
    skel = Skeleton3D(-1, timestamp_us, np.full((NUM_JOINTS, 3), np.nan), np.zeros(NUM_JOINTS),
                      np.zeros(NUM_JOINTS, dtype=np.int64), np.zeros(NUM_JOINTS, dtype=bool))
    if (n_seen >= 2).any():
        pos, _, ok = triangulate_points(member_calibs, kp[:, :, :2], conf, seen)
        skel.pos[ok] = pos[ok]
        skel.conf[ok] = (np.where(seen, conf, 0.0).sum(axis=0) / np.maximum(n_seen, 1))[ok]
        skel.n_views[ok] = n_seen[ok]
        skel.present[ok] = True
    for j in np.flatnonzero(n_seen == 1).tolist():
        i = int(np.argmax(seen[:, j]))
        u, v, c, depth = kp[i, j, :4].tolist()
        if depth == depth:  # not NaN
            skel.pos[j] = backproject(member_calibs[i], u, v, depth)
            skel.conf[j], skel.n_views[j], skel.present[j] = c * 0.5, 1, True
    return skel if skel.present.any() else None


def triangulate_group(views: list[PoseSet2p5D], rows: np.ndarray,
                      calibs: dict[int, CameraCalib], timestamp_us: int):
    """pose.triangulate_group one group at a time."""
    skels = [triangulate_one_group(views, group, calibs, timestamp_us) for group in rows]
    at = [g for g, skel in enumerate(skels) if skel is not None]
    return skeleton_set([skels[g] for g in at], timestamp_us), np.array(at, dtype=np.intp)


# -- synthetic world -----------------------------------------------------------


def ray_boxes_dense(origins, dirs, boxes_at):
    """synthworld._ray_boxes with every box slab-tested at once, on
    (N,B,3) arrays, and NaN slabs skipped by nanmax/nanmin."""
    n = len(dirs)
    if not boxes_at or n == 0:
        return np.full(n, np.inf), np.full(n, synthworld.NO_CLASS, dtype=np.int64)
    bmin = np.array([b[0] for b in boxes_at])  # (B,3)
    bmax = np.array([b[1] for b in boxes_at])
    classes = np.array([b[2] for b in boxes_at], dtype=np.int64)
    origins = np.asarray(origins).reshape(-1, 1, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = (1.0 / dirs)[:, None, :]
        t1 = (bmin - origins) * inv  # (N,B,3)
        t2 = (bmax - origins) * inv
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slabs
            tmin = np.nanmax(np.minimum(t1, t2), axis=2)
            tmax = np.nanmin(np.maximum(t1, t2), axis=2)
    t = np.where(tmin > 1e-9, tmin, tmax)
    hit = (tmax >= np.maximum(tmin, 1e-9)) & (t > 1e-9)
    t = np.where(hit, t, np.inf)
    first = np.argmin(t, axis=1)
    best_t = t[np.arange(n), first]
    best_c = np.where(np.isfinite(best_t), classes[first], synthworld.NO_CLASS)
    return best_t, best_c


def cast_static_dense(scene, t_s: float, origins, dirs):
    """synthworld._cast_static with the boxes tested by ray_boxes_dense."""
    boxes_at = [(*b.corners_at(t_s), b.class_idx) for b in scene.all_boxes()]
    best_t, best_c = ray_boxes_dense(origins, dirs, boxes_at)
    tf = synthworld._ray_floor(origins, dirs, scene.room_min, scene.room_max)
    floor_hit = tf < best_t
    return np.where(floor_hit, tf, best_t), np.where(floor_hit, FLOOR_CLASS, best_c)


def sphere_test_dense(capsules, blocks, dirs) -> np.ndarray:
    """(N,M) bool: the bounding-sphere test of synthworld._cast_persons
    run on every (ray, capsule) pair, one (N,M) array per term."""
    p0s, p1s, rs = capsules
    centers = 0.5 * (p0s + p1s)
    radii = 0.5 * np.sqrt(synthworld._rowdot(p1s - p0s, p1s - p0s)) + rs
    block_origins = np.array([calib.center for calib, _ in blocks], dtype=np.float64)
    block = np.repeat(np.arange(len(blocks)), [n for _, n in blocks])
    offset = block_origins[:, None, :] - centers
    dots = (dirs[:, 0:1] * centers[:, 0] + dirs[:, 1:2] * centers[:, 1]
            + dirs[:, 2:3] * centers[:, 2])
    B = 2 * (synthworld._rowdot(dirs, block_origins[block])[:, None] - dots)
    C = (np.einsum("bmj,bmj->bm", offset, offset) - radii * radii)[block]
    disc = B * B - 4 * synthworld._rowdot(dirs, dirs)[:, None] * C
    return (disc >= 0) & ((B < 0) | (C < 0))


def ray_capsule_pairs_per_pair(origins, dirs, p0, p1, r):
    """synthworld._ray_capsule_pairs with every term computed per pair:
    ray k from origins[k] along dirs[k] against the capsule p0[k], p1[k],
    r[k], all given as (K,3) or (K,) rows."""
    axis = p1 - p0
    aa = synthworld._rowdot(axis, axis)
    has_body = aa > 1e-12
    aa_safe = np.where(has_body, aa, 1.0)
    m = origins - p0
    da = synthworld._rowdot(dirs, axis) / aa_safe
    ma = synthworld._rowdot(m, axis) / aa_safe
    dn = dirs - da[:, None] * axis
    mn = m - ma[:, None] * axis
    rr = r * r
    A = synthworld._rowdot(dn, dn)
    B = 2 * synthworld._rowdot(dn, mn)
    disc = B * B - 4 * A * (synthworld._rowdot(mn, mn) - rr)
    ok = (disc >= 0) & (A > 1e-14) & has_body
    t = (-B - np.sqrt(np.where(ok, disc, 0.0))) / np.where(ok, 2 * A, 1.0)
    s = ma + t * da
    best = np.where(ok & (t > 1e-9) & (s >= 0.0) & (s <= 1.0), t, np.inf)
    A = synthworld._rowdot(dirs, dirs)
    for mm in (m, origins - p1):
        B = 2 * synthworld._rowdot(mm, dirs)
        disc = B * B - 4 * A * (synthworld._rowdot(mm, mm) - rr)
        ok = (disc >= 0) & (A > 1e-14)
        t = (-B - np.sqrt(np.where(ok, disc, 0.0))) / np.where(ok, 2 * A, 1.0)
        best = np.minimum(best, np.where(ok & (t > 1e-9), t, np.inf))
    return best


def capsule_hits_dense(capsules, blocks, dirs, blocked=None) -> np.ndarray:
    """(N,M) hit parameter of every (ray, capsule) pair that passes the
    bounding-sphere test and is not blocked; np.inf for the others and
    for the pairs whose capsule quadratics miss."""
    cand = sphere_test_dense(capsules, blocks, dirs)
    if blocked is not None:
        cand &= ~blocked
    rays, caps = np.nonzero(cand)
    p0s, p1s, rs = capsules
    origins = np.repeat([calib.center for calib, _ in blocks], [n for _, n in blocks], axis=0)
    t = np.full(cand.shape, np.inf)
    t[rays, caps] = ray_capsule_pairs_per_pair(origins[rays], dirs[rays], p0s[caps], p1s[caps],
                                               rs[caps])
    return t


def cast_persons_dense(capsules, blocks, dirs, best_t, best_c, blocked=None):
    """synthworld._cast_persons with the bounding-sphere test run densely."""
    if capsules is None or len(dirs) == 0:
        return best_t, best_c
    nearest = capsule_hits_dense(capsules, blocks, dirs, blocked).min(axis=1)
    hit = nearest < best_t
    best_t[hit] = nearest[hit]
    best_c[hit] = PERSON_CLASS
    return best_t, best_c


def render_depth_sparse(scene, calib: CameraCalib, t_s: float, pixels: np.ndarray,
                        frame_idx: int = 0):
    """render_depth_sparse_many for one camera."""
    return synthworld.render_depth_sparse_many(scene, [(calib, pixels)], t_s, frame_idx)[0]


def visible_joints(scene, calib: CameraCalib, t_s: float) -> np.ndarray:
    """Ground-truth per-person, per-joint visibility from one camera."""
    return synthworld.visible_joints_many(scene, [calib], t_s)[0]
