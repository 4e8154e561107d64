"""Ground-truth scene oracle: geometry, animated persons, virtual cameras.

Stands in for the real CNNs: renders depth/class images by ray casting
against axis-aligned boxes and per-bone person capsules, produces noisy
2D keypoints with occlusion failure modes (a sensor's PoseSet2p5D
frame), segmentation masks and detection boxes (a list of Detection).
Everything is a pure function of (scene, time, seed).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import DepthImage, Detection, SegmentationMask
from .geometry import CameraCalib, pack_voxel_keys, project, unpack_voxel_keys
from .semantics import FLOOR_CLASS, NUM_CLASSES, PERSON_CLASS
from .pose import NUM_JOINTS, PoseSet2p5D
from .voxmap import MAP_RESOLUTION

NO_CLASS = 255
MAX_RANGE = 12.0

# the room's walls, shells of this thickness around it
WALL_CLASS = 2  # "wall" in the default class set
WALL_THICKNESS = 0.10  # m

# the cameras of make_camera_rig
RIG_WIDTH_PX = 160
RIG_HEIGHT_PX = 120
RIG_F_PX = 130.0
RIG_CAM_Z = 2.5  # m, mounting height
RIG_DEPTH_NOISE_SIGMA = 0.02  # m, depth noise sigma at 4 m

# default observation-noise knobs; chosen so the feedback ablations are
# resolvable above noise at room scale
KEYPOINT_NOISE_PX = 2.0
MISS_RATE = 0.05
P_OCC_FAIL = 0.7
OCC_ERROR_PX = 25.0
LOGIT_MARGIN = 4.0

# rng stream tags so different observation kinds never share a substream
_STREAM_DEPTH = 1
_STREAM_KEYPOINTS = 2
_STREAM_SEGMENTATION = 3
_STREAM_DETECTIONS = 4


@dataclass
class SceneBox:
    class_idx: int
    min_corner: np.ndarray
    max_corner: np.ndarray
    move_time_s: float | None = None
    move_offset: np.ndarray | None = None

    def __post_init__(self):
        self.min_corner = np.asarray(self.min_corner, dtype=np.float64)
        self.max_corner = np.asarray(self.max_corner, dtype=np.float64)
        if np.any(self.min_corner >= self.max_corner):
            raise ValueError("box min corner must be strictly below max corner")
        if self.move_offset is not None:
            self.move_offset = np.asarray(self.move_offset, dtype=np.float64)

    def corners_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        if self.move_time_s is not None and t >= self.move_time_s and self.move_offset is not None:
            return self.min_corner + self.move_offset, self.max_corner + self.move_offset
        return self.min_corner, self.max_corner


# canonical skeleton proportions (meters)
_HIP_HALF = 0.14
_SHOULDER_HALF = 0.18
_TORSO = 0.50
_THIGH = 0.42
_SHANK = 0.43
_UPPER_ARM = 0.30
_FOREARM = 0.27
_NECK_TO_NOSE = 0.22


class PersonAnimator:
    """Parametric walk cycle along a closed waypoint loop.

    Limbs swing as rigid pendulums so every bone length is constant over
    time; the path and phase are the only per-person parameters.
    """

    def __init__(self, waypoints: np.ndarray, speed: float = 0.9, phase: float = 0.0,
                 stride_hz: float = 1.6):
        wp = np.asarray(waypoints, dtype=np.float64).reshape(-1, 2)
        if len(wp) < 2:
            raise ValueError("a path needs at least two waypoints")
        self.waypoints = wp
        self.speed = float(speed)
        self.phase = float(phase)
        self.stride_hz = float(stride_hz)
        closed = np.vstack([wp, wp[:1]])
        seg = np.diff(closed, axis=0)
        self._seg_len = np.linalg.norm(seg, axis=1)
        self._cum = np.concatenate(([0.0], np.cumsum(self._seg_len)))
        self._total = float(self._cum[-1])
        self._closed = closed
        self._cache: tuple[float, np.ndarray] | None = None

    def _pose_frame(self, t: float):
        s = (self.speed * t + self.phase * self._total) % self._total
        i = int(np.searchsorted(self._cum, s, side="right") - 1)
        i = min(i, len(self._seg_len) - 1)
        frac = (s - self._cum[i]) / max(self._seg_len[i], 1e-9)
        pos = self._closed[i] + frac * (self._closed[i + 1] - self._closed[i])
        fwd2 = self._closed[i + 1] - self._closed[i]
        fwd2 = fwd2 / max(np.linalg.norm(fwd2), 1e-9)
        f = np.array([fwd2[0], fwd2[1], 0.0])
        l = np.array([-fwd2[1], fwd2[0], 0.0])
        return np.array([pos[0], pos[1], 0.0]), f, l

    def joints_at(self, t: float) -> np.ndarray:
        """World positions of the 17 COCO joints, shape (17,3)."""
        if self._cache is not None and self._cache[0] == t:
            return self._cache[1]
        ground, f, l = self._pose_frame(t)
        up = np.array([0.0, 0.0, 1.0])
        w = 2 * math.pi * self.stride_hz
        swing = 0.5 * math.sin(w * t + self.phase * 2 * math.pi)
        hip_h = _THIGH + _SHANK - 0.03
        pelvis = ground + hip_h * up
        joints = np.zeros((NUM_JOINTS, 3))
        joints[11] = pelvis + _HIP_HALF * l  # left hip
        joints[12] = pelvis - _HIP_HALF * l
        for hip_j, knee_j, ankle_j, sgn in ((11, 13, 15, 1.0), (12, 14, 16, -1.0)):
            a = sgn * swing
            thigh_dir = -up * math.cos(a) + f * math.sin(a)
            knee = joints[hip_j] + _THIGH * thigh_dir
            flex = 0.35 * max(0.0, -math.sin(w * t + self.phase * 2 * math.pi) * sgn)
            b = a - flex
            shank_dir = -up * math.cos(b) + f * math.sin(b)
            joints[knee_j] = knee
            joints[ankle_j] = knee + _SHANK * shank_dir
        neck = pelvis + _TORSO * up
        joints[5] = neck + _SHOULDER_HALF * l
        joints[6] = neck - _SHOULDER_HALF * l
        for sh_j, el_j, wr_j, sgn in ((5, 7, 9, -1.0), (6, 8, 10, 1.0)):
            a = 0.6 * sgn * swing
            ua_dir = -up * math.cos(a) + f * math.sin(a)
            elbow = joints[sh_j] + _UPPER_ARM * ua_dir
            b = a + 0.3
            fa_dir = -up * math.cos(b) + f * math.sin(b)
            joints[el_j] = elbow
            joints[wr_j] = elbow + _FOREARM * fa_dir
        nose = neck + _NECK_TO_NOSE * up + 0.10 * f
        joints[0] = nose
        joints[1] = nose + 0.05 * up + 0.035 * l - 0.02 * f
        joints[2] = nose + 0.05 * up - 0.035 * l - 0.02 * f
        joints[3] = nose + 0.03 * up + 0.08 * l - 0.09 * f
        joints[4] = nose + 0.03 * up - 0.08 * l - 0.09 * f
        self._cache = (t, joints)
        return joints

    def capsules_at(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-bone capsules approximating the body: (p0s, p1s, radii),
        shapes (10,3), (10,3), (10,), in _CAPSULE_JOINTS order."""
        j = self.joints_at(t)
        head = j[0].copy()
        head[2] += 0.04
        pts = np.vstack([j, 0.5 * (j[11] + j[12]), 0.5 * (j[5] + j[6]), head])
        return pts[_CAPSULE_P0], pts[_CAPSULE_P1], _CAPSULE_RADII


# capsule endpoints as rows of the joints stacked with pelvis (17), neck
# (18) and head centre (19); the head is a sphere
_CAPSULE_P0 = np.array([17, 19, 11, 13, 12, 14, 5, 7, 6, 8])
_CAPSULE_P1 = np.array([18, 19, 13, 15, 14, 16, 7, 9, 8, 10])
_CAPSULE_RADII = np.array([0.15, 0.12, 0.07, 0.06, 0.07, 0.06, 0.05, 0.045, 0.05, 0.045])

# capsule index -> joints it belongs to (for self-occlusion exclusions)
_CAPSULE_JOINTS = (
    (5, 6, 11, 12),
    (0, 1, 2, 3, 4),
    (11, 13), (13, 15),
    (12, 14), (14, 16),
    (5, 7), (7, 9),
    (6, 8), (8, 10),
)


@dataclass
class GroundTruthScene:
    room_min: np.ndarray
    room_max: np.ndarray
    boxes: list[SceneBox] = field(default_factory=list)
    persons: list[PersonAnimator] = field(default_factory=list)
    rng_seed: int = 0
    # per-camera static casts (see _static_cast), owned by this scene
    _static_casts: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        self.room_min = np.asarray(self.room_min, dtype=np.float64)
        self.room_max = np.asarray(self.room_max, dtype=np.float64)
        for b in self.boxes:
            if np.any(b.min_corner < self.room_min - 1e-9) or np.any(
                b.max_corner > self.room_max + 1e-9
            ):
                raise ValueError("scene box outside room bounds")

    def wall_boxes(self) -> list[SceneBox]:
        x0, y0, _ = self.room_min
        x1, y1, _ = self.room_max
        h = self.room_max[2]
        th, wc = WALL_THICKNESS, WALL_CLASS
        return [
            SceneBox(wc, (x0 - th, y0 - th, 0), (x1 + th, y0, h)),
            SceneBox(wc, (x0 - th, y1, 0), (x1 + th, y1 + th, h)),
            SceneBox(wc, (x0 - th, y0, 0), (x0, y1, h)),
            SceneBox(wc, (x1, y0, 0), (x1 + th, y1, h)),
        ]

    def all_boxes(self) -> list[SceneBox]:
        return self.boxes + self.wall_boxes()


def scene_rng(scene: GroundTruthScene, sensor_id: int, frame_idx: int, stream: int):
    return np.random.default_rng([scene.rng_seed, sensor_id, frame_idx, stream])


# -- ray casting ---------------------------------------------------------------


def _ray_boxes(origins, dirs, boxes_at):
    """Nearest-hit parameter and class per ray against AABBs.

    origins are (3,) or (N,3) and dirs (N,3), unnormalized; returned t
    in dir units.  Slab test (Kay & Kajiya 1986), box by box on all rays
    with the axes as rows: fmax/fmin skip the NaN slab of a ray that lies
    in a face's plane (Williams et al. 2005).  On equal hit parameters
    the earlier box wins.
    """
    n = len(dirs)
    best_t = np.full(n, np.inf)
    best_c = np.full(n, NO_CLASS, dtype=np.int64)
    origins = np.ascontiguousarray(np.asarray(origins).reshape(-1, 3).T)  # (3,1) or (3,N)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.ascontiguousarray(dirs.T)
        for bmin, bmax, cls in boxes_at:
            t1 = (bmin[:, None] - origins) * inv
            t2 = (bmax[:, None] - origins) * inv
            lo = np.minimum(t1, t2)
            hi = np.maximum(t1, t2)
            tmin = np.fmax(np.fmax(lo[0], lo[1]), lo[2])
            tmax = np.fmin(np.fmin(hi[0], hi[1]), hi[2])
            t = np.where(tmin > 1e-9, tmin, tmax)
            hit = (tmax >= np.maximum(tmin, 1e-9)) & (t > 1e-9) & (t < best_t)
            best_t[hit] = t[hit]
            best_c[hit] = cls
    return best_t, best_c


def _ray_floor(origins, dirs, room_min, room_max):
    n = len(dirs)
    t = np.full(n, np.inf)
    dz = dirs[:, 2]
    moving = np.abs(dz) > 1e-12
    tc = np.where(moving, -origins[..., 2] / np.where(moving, dz, 1.0), np.inf)
    px = origins[..., 0] + tc * dirs[:, 0]
    py = origins[..., 1] + tc * dirs[:, 1]
    ok = (
        moving
        & (tc > 1e-9)
        & (px >= room_min[0])
        & (px <= room_max[0])
        & (py >= room_min[1])
        & (py <= room_max[1])
    )
    t[ok] = tc[ok]
    return t


def _dots(a, b):
    """Dot products of broadcast pairs of 3-vectors, (...,3) each.

    Spelled out per component, in the order x, y, z, rather than as a
    matmul, so a pair's value does not depend on which other pairs share
    the call."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _rowdot(a, b):
    return np.einsum("kj,kj->k", a, b)


def _ray_capsule_pairs(capsules, origins, at, caps, dirs, dd):
    """Nearest hit parameter of K (ray, capsule) pairs; np.inf marks a miss.

    Pair k is the ray from origins[at[k]] along dirs[k] (K,3), with
    dd[k] = |dirs[k]|^2, against capsule caps[k] of capsules
    (_scene_capsules output).  Solves the quadratic of the cylinder body
    (clamped to the segment) and of both end-cap spheres.  The terms of a
    capsule and of an (origin, capsule) pair are computed once and
    gathered; each comes from the expression and operands it would have
    per pair, as in tests/oracles.ray_capsule_pairs_per_pair."""
    p0s, p1s, rs = capsules
    n_o = len(origins)
    axis = p1s - p0s
    aa = _rowdot(axis, axis)
    has_body = aa > 1e-12
    aa_safe = np.where(has_body, aa, 1.0)
    rr = np.tile(rs * rs, n_o)
    # (origin, capsule) terms, origin-major
    m0 = (origins[:, None] - p0s).reshape(-1, 3)
    m1 = (origins[:, None] - p1s).reshape(-1, 3)
    axis_o = np.tile(axis, (n_o, 1))
    ma = _rowdot(m0, axis_o) / np.tile(aa_safe, n_o)
    mn = m0 - ma[:, None] * axis_o
    om = at * len(rs) + caps
    axis = axis.take(caps, axis=0)
    da = _rowdot(dirs, axis) / aa_safe[caps]
    dn = dirs - da[:, None] * axis
    A = _rowdot(dn, dn)
    B = 2 * _rowdot(dn, mn.take(om, axis=0))
    disc = B * B - 4 * A * (_rowdot(mn, mn) - rr)[om]
    ok = (disc >= 0) & (A > 1e-14) & has_body[caps]
    t = (-B - np.sqrt(np.where(ok, disc, 0.0))) / np.where(ok, 2 * A, 1.0)
    s = ma[om] + t * da
    best = np.where(ok & (t > 1e-9) & (s >= 0.0) & (s <= 1.0), t, np.inf)
    for mm in (m0, m1):
        B = 2 * _rowdot(mm.take(om, axis=0), dirs)
        disc = B * B - 4 * dd * (_rowdot(mm, mm) - rr)[om]
        ok = (disc >= 0) & (dd > 1e-14)
        t = (-B - np.sqrt(np.where(ok, disc, 0.0))) / np.where(ok, 2 * dd, 1.0)
        best = np.minimum(best, np.where(ok & (t > 1e-9), t, np.inf))
    return best


def _scene_capsules(scene: GroundTruthScene, t_s: float):
    """All person capsules at time t_s as (p0s, p1s, radii), person-major
    (capsule m belongs to person m // 10); None without persons."""
    caps = [person.capsules_at(t_s) for person in scene.persons]
    if not caps:
        return None
    return tuple(np.concatenate(part) for part in zip(*caps))


# The broad phase of the person cast (_cull_pairs): a capsule whose near
# side is less than _CULL_NEAR m in front of the camera plane is tested
# against every ray of its camera; any other only against the rays whose
# image lies in its stadium, the points within rho of its projected axis.
# A point q of the capsule is s + u, s on the axis and |u| <= r; in the
# camera frame its image is s/s_z + (u s_z - s u_z)/(s_z q_z), and
# |u s_z - s u_z| = |e_z x (u x s)| <= r |s|, with |s| at most the
# larger of the ends' distances (the norm is convex on the segment),
# s_z >= z_min and q_z >= z_min - r.  So every image of the capsule lies
# within rho = f_max r max|p| / (z_min (z_min - r)) pixels of the
# projected axis (Mara & McGuire 2013 bound a projected sphere the same
# way).  rho is widened by _CULL_MARGIN_PX against rounding: float64
# loses about 1e-15 of a coordinate, and the room-scale points at least
# _CULL_NEAR in front of the plane have images within about 1e7 px of
# the centre.  Below _CULL_MIN_PAIRS (ray, capsule) pairs every pair
# is selected: scripts/bench_cast.py puts the crossover of the two forms
# there.  The selected pairs are cast _CAST_CHUNK at a time, which keeps
# a call's temporaries small: cast in one go, the fresh pages of the
# temporaries took about a third of a crowd's keypoint-patch cast on a
# 2-vCPU VM.
_CULL_NEAR = 1e-3
_CULL_MARGIN_PX = 0.01
_CULL_MIN_PAIRS = 3 << 14
_CAST_CHUNK = 8192


def _runs(lo, hi):
    """Every index of the ranges lo[i]:hi[i], range after range."""
    size = hi - lo
    return np.arange(size.sum()) + np.repeat(lo - (np.cumsum(size) - size), size)


def _cell(x, size):
    """Pixel cell of image coordinates x, from 0 to size + 1: cells 1 to
    size are the image's, 0 and size + 1 take everything off either side."""
    return np.minimum(np.maximum(np.floor(x), -1), size).astype(np.int64) + 1


def _bounding_spheres(capsules):
    """(centres, radii) of the spheres around the capsules."""
    p0s, p1s, rs = capsules
    return 0.5 * (p0s + p1s), 0.5 * np.sqrt(_rowdot(p1s - p0s, p1s - p0s)) + rs


def _cull_pairs(capsules, blocks, dirs):
    """(ray, capsule) pairs on which the capsule can be hit: a superset of
    the pairs whose capsule quadratics hit, yielded as (rays, caps) index
    arrays, each pair once, in chunks of about _CAST_CHUNK pairs (or of a
    block's rays for one capsule); below _CULL_MIN_PAIRS every pair at
    once, as (N,1) and (M,) arrays.

    Rays start at their block's camera centre.  A ray can only hit a
    capsule wholly in front of the camera plane at a point whose image is
    the ray's own image position, and that lies in the capsule's stadium
    (see _CULL_NEAR).  So the rays in front of the plane are sorted by
    the pixel cell of their image (block, column, row), and such a
    capsule takes, column by column of its stadium, the run of rays keyed
    within rho of the y-range of its projected axis clipped to the column
    widened by rho (a point of the stadium in the column is within rho of
    an axis point in that widened column), and of those the rays whose
    image is within rho of the projected axis.  Columns, not rows: the
    people of these scenes stand, so a stadium spans fewer columns than
    rows.  A capsule not wholly in front takes every ray of the block:
    only it can be reached by rays that point behind the camera plane.
    """
    p0s, p1s, rs = capsules
    if len(dirs) * len(rs) < _CULL_MIN_PAIRS:
        yield np.arange(len(dirs))[:, None], np.arange(len(rs))
        return
    counts = np.array([n for _, n in blocks])
    start = np.cumsum(counts) - counts
    focal, centre, size = np.array([
        ((calib.fx, calib.fy), (calib.cx, calib.cy), (calib.width, calib.height))
        for calib, _ in blocks]).transpose(1, 0, 2)  # (blocks, 2) each, x then y
    columns, rows = size.max(axis=0).astype(np.int64) + 2
    # fx x + cx z, fy y + cy z and z of the camera-frame directions
    image = np.concatenate([np.array(
        [[calib.fx, 0.0, calib.cx], [0.0, calib.fy, calib.cy], [0.0, 0.0, 1.0]])
        @ calib.rotation.T @ dirs[s:s + n].T for (calib, n), s in zip(blocks, start.tolist())],
        axis=1)
    ahead = image[2] > 0
    x, y = image[:2] / np.where(ahead, image[2], 1.0)
    width, height = np.repeat(size, counts, axis=0).T
    keys = np.where(ahead, (np.repeat(np.arange(len(blocks)) * columns, counts)
                            + _cell(x, width)) * rows + _cell(y, height), -1)
    order = np.argsort(keys)
    origins = np.array([calib.center for calib, _ in blocks])
    rot = np.array([calib.rotation for calib, _ in blocks])
    # both axis ends in every camera's frame, (blocks, M, end, 3)
    ends = np.einsum("bmej,bjk->bmek", np.stack([p0s, p1s], axis=1)
                     - origins[:, None, None], rot)
    z_min = ends[..., 2].min(axis=2)
    front = z_min - rs > _CULL_NEAR
    b, m = np.nonzero(front)
    ends, z_min, r = ends[b, m], z_min[b, m], rs[m]
    rho = (focal[b].max(axis=1) * r * np.sqrt(_dots(ends, ends).max(axis=1))
           / (z_min * (z_min - r)) + _CULL_MARGIN_PX)
    uv = centre[b, None] + focal[b, None] * ends[..., :2] / ends[..., 2:]  # (F, end, x/y)
    # the projected axis a + s d, 0 <= s <= 1, and its stadium's columns
    (ax, ay), (dx, dy) = uv[:, 0].T, (uv[:, 1] - uv[:, 0]).T
    x_lo = _cell(np.minimum(ax, ax + dx) - rho, size[b, 0])
    x_hi = _cell(np.maximum(ax, ax + dx) + rho, size[b, 0])
    col = _runs(x_lo, x_hi + 1)
    f = np.repeat(np.arange(len(b)), x_hi + 1 - x_lo)
    # the column's band of image x, unbounded for the off-image cells,
    # widened by rho, as a range of the axis parameter
    band = np.stack([np.where(col > 0, col - 1.0, -np.inf),
                     np.where(col <= size[b[f], 0], col, np.inf)])
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (band + [-rho[f], rho[f]] - ax[f]) / dx[f]
    upright = dx[f] == 0
    s = np.clip([np.where(upright, 0.0, np.fmin(*s)), np.where(upright, 1.0, np.fmax(*s))], 0, 1)
    y_axis = ay[f] + s * dy[f]
    key = (b[f] * columns + col) * rows
    # keys are integers, so the run of keys lo to hi is [lo, hi + 1)
    first, last = np.searchsorted(keys[order], [
        key + _cell(y_axis.min(axis=0) - rho[f], size[b[f], 1]),
        key + _cell(y_axis.max(axis=0) + rho[f], size[b[f], 1]) + 1])
    dd = dx * dx + dy * dy
    inv = 1.0 / np.where(dd > 0, dd, np.inf)
    rr = rho * rho
    # the runs' pairs, a chunk of runs at a time, and of those the rays
    # whose image is within rho of the projected axis
    pairs = last - first
    bounds = np.unique(np.searchsorted(
        np.cumsum(pairs), np.arange(_CAST_CHUNK, pairs.sum(), _CAST_CHUNK), "right")).tolist()
    for lo, hi in zip([0, *bounds], [*bounds, len(pairs)]):
        rays = order[_runs(first[lo:hi], last[lo:hi])]
        pf = np.repeat(f[lo:hi], pairs[lo:hi])
        px = x.take(rays) - ax.take(pf)
        py = y.take(rays) - ay.take(pf)
        pdx, pdy = dx.take(pf), dy.take(pf)
        along = np.minimum(np.maximum((px * pdx + py * pdy) * inv.take(pf), 0.0), 1.0)
        px -= along * pdx
        py -= along * pdy
        inside = px * px + py * py <= rr.take(pf)
        yield rays[inside], m.take(pf[inside])
    for near_b, near_m in zip(*np.nonzero(~front)):
        rays = np.arange(start[near_b], start[near_b] + counts[near_b])
        yield rays, np.full(len(rays), near_m)


def _cast_persons(capsules, blocks, dirs, best_t, best_c, blocked=None):
    """Fold person-capsule hits into (best_t, best_c) in place.

    capsules: _scene_capsules output.  blocks: (camera, ray count) for
    each run of consecutive rays cast from one camera's centre.
    blocked: optional (N,M) bool, True where capsule m must not block
    ray n.  Each capsule's bounding sphere is tested on the (ray,
    capsule) pairs _cull_pairs selects, chunk by chunk, and the capsule
    quadratics run only on the pairs that pass.  Every value is computed
    per ray or per pair, never summed across them, so a ray's result
    does not depend on which other rays or pairs share the call or a
    chunk, nor on the cull, which keeps every pair whose quadratics hit:
    it is the result of testing the sphere against every ray.
    """
    if capsules is None or len(dirs) == 0:
        return best_t, best_c
    centers, radii = _bounding_spheres(capsules)
    block_origins = np.array([calib.center for calib, _ in blocks], dtype=np.float64)
    counts = [n for _, n in blocks]
    block = np.repeat(np.arange(len(blocks)), counts)
    # sphere test: t^2 |d|^2 + 2 t d.(o - c) + |o - c|^2 - R^2 has a
    # positive root where the discriminant is >= 0 and the ray points
    # towards the sphere or starts inside it.  (K,3) rows are gathered
    # with take, several times faster than fancy indexing.
    offset = block_origins[:, None, :] - centers  # (blocks, M, 3)
    C_all = (np.einsum("bmj,bmj->bm", offset, offset) - radii * radii).ravel()
    od = _rowdot(dirs, np.repeat(block_origins, counts, axis=0))
    dd = _rowdot(dirs, dirs)
    nearest = np.full(len(dirs), np.inf)
    for rays, caps in _cull_pairs(capsules, blocks, dirs):
        C = C_all.take(block[rays] * len(radii) + caps)
        B = 2 * (od[rays] - _dots(dirs.take(rays, axis=0), centers.take(caps, axis=0)))
        disc = B * B - 4 * dd[rays] * C
        cand = (disc >= 0) & ((B < 0) | (C < 0))
        if blocked is not None:
            cand &= ~blocked.take(rays * len(radii) + caps)
        rays, caps = (np.broadcast_to(i, cand.shape)[cand] for i in (rays, caps))
        if len(rays):
            np.minimum.at(nearest, rays, _ray_capsule_pairs(
                capsules, block_origins, block[rays], caps, dirs.take(rays, axis=0), dd[rays]))
    hit = nearest < best_t
    best_t[hit] = nearest[hit]
    best_c[hit] = PERSON_CLASS
    return best_t, best_c


def _cast_static(scene: GroundTruthScene, t_s: float, origins, dirs):
    """Nearest hit over walls, boxes and floor: (t, class) arrays.
    origins: (3,) or one per ray, (N,3)."""
    boxes_at = [(*b.corners_at(t_s), b.class_idx) for b in scene.all_boxes()]
    best_t, best_c = _ray_boxes(origins, dirs, boxes_at)
    tf = _ray_floor(origins, dirs, scene.room_min, scene.room_max)
    floor_hit = tf < best_t
    best_t = np.where(floor_hit, tf, best_t)
    best_c = np.where(floor_hit, FLOOR_CLASS, best_c)
    return best_t, best_c


_PIXEL_DIRS_MAX = 16
_pixel_dirs_cache: dict[tuple, np.ndarray] = {}


def _pixel_dirs_cam(calib: CameraCalib) -> np.ndarray:
    """Camera-frame ray directions (z = 1) of every pixel, row-major.

    Keyed on the intrinsics themselves, so cameras that share them share
    one entry and a lookup can never return another model's rays."""
    key = (calib.width, calib.height, calib.fx, calib.fy, calib.cx, calib.cy)
    cached = _pixel_dirs_cache.get(key)
    if cached is None:
        if len(_pixel_dirs_cache) >= _PIXEL_DIRS_MAX:
            _pixel_dirs_cache.pop(next(iter(_pixel_dirs_cache)))
        uu, vv = np.meshgrid(np.arange(calib.width), np.arange(calib.height))
        dirs = np.empty((calib.height * calib.width, 3))
        dirs[:, 0] = ((uu.ravel() + 0.0) - calib.cx) / calib.fx
        dirs[:, 1] = ((vv.ravel() + 0.0) - calib.cy) / calib.fy
        dirs[:, 2] = 1.0
        dirs.flags.writeable = False
        _pixel_dirs_cache[key] = cached = dirs
    return cached


def _calib_key(calib: CameraCalib) -> tuple:
    return (calib.width, calib.height, calib.fx, calib.fy, calib.cx, calib.cy,
            calib.rotation.tobytes(), calib.translation.tobytes())


def _box_state(scene: GroundTruthScene, t_s: float) -> tuple:
    return tuple(
        b.move_time_s is not None and t_s >= b.move_time_s for b in scene.boxes
    )


_STATIC_CAST_MAX = 32


def _static_cast(scene: GroundTruthScene, calib: CameraCalib, t_s: float):
    """Per-pixel nearest hit against the static structure.

    Cached on the scene itself (so an entry never outlives or crosses to
    another scene), keyed by the camera's pose and intrinsics and by the
    box configuration (boxes only change at move events); the scene's
    geometry is treated as fixed once it has been cast."""
    cache = scene._static_casts
    key = (_calib_key(calib), _box_state(scene, t_s))
    cached = cache.get(key)
    if cached is None:
        if len(cache) >= _STATIC_CAST_MAX:
            cache.pop(next(iter(cache)))
        dirs_world = _pixel_dirs_cam(calib) @ calib.rotation.T
        t, cls = _cast_static(scene, t_s, calib.center, dirs_world)
        t.flags.writeable = False
        cls.flags.writeable = False
        cache[key] = cached = (t, cls)
    return cached


def render_frame(scene: GroundTruthScene, calib: CameraCalib, t_s: float):
    """Per-pixel camera-frame depth and ground-truth class, noise-free."""
    t, cls = _static_cast(scene, calib, t_s)
    t = t.copy()
    cls = cls.copy()
    if scene.persons:
        dirs_world = _pixel_dirs_cam(calib) @ calib.rotation.T
        _cast_persons(_scene_capsules(scene, t_s), [(calib, len(t))], dirs_world, t, cls)
    # dir z-component is 1 in the camera frame, so t equals z depth
    depth = np.where(np.isfinite(t) & (t <= MAX_RANGE), t, 0.0)
    cls = np.where(depth > 0, cls, NO_CLASS)
    return (
        depth.reshape(calib.height, calib.width),
        cls.reshape(calib.height, calib.width),
    )


def _depth_normals(scene: GroundTruthScene, sensor_id: int, frame_idx: int,
                   flat: np.ndarray) -> np.ndarray:
    """The unit-normal depth-noise draws at flat pixel indices.

    The noise of a frame is one row-major standard-normal stream per
    (seed, sensor, frame), drawn only up to the largest index requested,
    so the noise at a pixel is a pure function of (seed, sensor, frame,
    pixel) and sparse and full renders agree whichever pixels they ask for."""
    if len(flat) == 0:
        return np.empty(0)
    rng = scene_rng(scene, sensor_id, frame_idx, _STREAM_DEPTH)
    return rng.standard_normal(int(flat.max()) + 1)[flat]


def _with_depth_noise(calib: CameraCalib, depth: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Range-dependent Gaussian noise: sigma grows with depth squared."""
    sigma = calib.depth_noise_sigma * (depth / 4.0) ** 2
    noisy = depth + normals * sigma
    return np.where(depth > 0, np.maximum(noisy, 1e-3), 0.0)


def render_depth(scene: GroundTruthScene, calib: CameraCalib, t_s: float,
                 frame_idx: int = 0, depth_image: np.ndarray | None = None) -> DepthImage:
    """Ray-cast depth image with range-dependent Gaussian noise.

    depth_image: optional precomputed noise-free render_frame output, to
    avoid casting the same frame twice."""
    depth = depth_image if depth_image is not None else render_frame(scene, calib, t_s)[0]
    if calib.depth_noise_sigma > 0:
        normals = _depth_normals(scene, calib.sensor_id, frame_idx,
                                 np.arange(calib.height * calib.width))
        depth = _with_depth_noise(calib, depth.ravel(), normals).reshape(depth.shape)
    return DepthImage(calib.width, calib.height, depth, int(round(t_s * 1e6)))


def flat_pixel_indices(calib: CameraCalib, pixels) -> np.ndarray:
    """Sorted unique row-major indices of the in-image (col, row) pixels."""
    pixels = np.asarray(pixels, dtype=np.int64).reshape(-1, 2)
    keep = (
        (pixels[:, 0] >= 0)
        & (pixels[:, 0] < calib.width)
        & (pixels[:, 1] >= 0)
        & (pixels[:, 1] < calib.height)
    )
    flat = np.sort(pixels[keep, 1] * calib.width + pixels[keep, 0])
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))] if len(flat) else flat


def sparse_pixel_depths_many(scene: GroundTruthScene, requests, t_s: float,
                             frame_idx: int = 0) -> list[np.ndarray]:
    """Depth values at in-image flat pixel indices, for several cameras.

    requests: list of (calib, flat indices) of frame `frame_idx`.  The
    static structure comes from each camera's cached full-frame cast; the
    person capsules are built once and cast for all cameras together."""
    capsules = _scene_capsules(scene, t_s)
    static = [_static_cast(scene, calib, t_s)[0][flat] for calib, flat in requests]
    best_t = np.concatenate(static) if static else np.empty(0)
    if capsules is not None:
        dirs = np.concatenate(
            [_pixel_dirs_cam(calib)[flat] @ calib.rotation.T for calib, flat in requests]
        ) if requests else np.empty((0, 3))
        blocks = [(calib, len(flat)) for calib, flat in requests]
        _cast_persons(capsules, blocks, dirs, best_t,
                      np.full(len(best_t), NO_CLASS, dtype=np.int64))
    depth = np.where(np.isfinite(best_t) & (best_t <= MAX_RANGE), best_t, 0.0)
    out = np.split(depth, np.cumsum([len(flat) for _, flat in requests])[:-1]) \
        if requests else []
    return [_with_depth_noise(calib, d, _depth_normals(scene, calib.sensor_id, frame_idx, flat))
            if calib.depth_noise_sigma > 0 else d
            for (calib, flat), d in zip(requests, out)]


def render_depth_sparse_many(scene: GroundTruthScene, requests, t_s: float,
                             frame_idx: int = 0) -> list[DepthImage]:
    """Depth images populated only at the requested pixels, one per camera.

    requests: list of (calib, (col, row) pixels).  A cheap stand-in for
    full frames when only keypoint-patch depths are needed; unrendered
    pixels stay 0 (invalid)."""
    flats = [(calib, flat_pixel_indices(calib, pixels)) for calib, pixels in requests]
    depths = sparse_pixel_depths_many(scene, flats, t_s, frame_idx)
    images = []
    for (calib, flat), depth in zip(flats, depths):
        img = np.zeros(calib.height * calib.width)
        img[flat] = depth
        images.append(DepthImage(calib.width, calib.height,
                                 img.reshape(calib.height, calib.width),
                                 int(round(t_s * 1e6))))
    return images


def render_segmentation(scene: GroundTruthScene, calib: CameraCalib, t_s: float,
                        label_noise: float = 0.0, frame_idx: int = 0,
                        class_image: np.ndarray | None = None) -> SegmentationMask:
    """Per-pixel class scores peaked at the ground-truth class.

    label_noise is the probability of a pixel's peak moving to a random
    wrong class.
    """
    if class_image is None:
        _, class_image = render_frame(scene, calib, t_s)
    cls = class_image.copy()
    valid = cls != NO_CLASS
    cls = np.where(valid, cls, 0)
    if label_noise > 0:
        rng = scene_rng(scene, calib.sensor_id, frame_idx, _STREAM_SEGMENTATION)
        flip = rng.random(cls.shape) < label_noise
        wrong = (cls + 1 + rng.integers(0, NUM_CLASSES - 1, size=cls.shape)) % NUM_CLASSES
        cls = np.where(flip & valid, wrong, cls)
    scores = np.zeros((calib.height, calib.width, NUM_CLASSES))
    rows, cols = np.nonzero(valid)
    scores[rows, cols, cls[rows, cols]] = LOGIT_MARGIN
    return SegmentationMask(scores)


def _project_box_to_image(calib: CameraCalib, bmin, bmax):
    corners = np.array(
        [[x, y, z] for x in (bmin[0], bmax[0]) for y in (bmin[1], bmax[1]) for z in (bmin[2], bmax[2])]
    )
    uv, front, _ = project(calib, calib.world_to_cam(corners))
    if front.sum() < 2:
        return None
    us, vs = uv[front, 0], uv[front, 1]
    u0, u1 = np.clip([us.min(), us.max()], 0, calib.width - 1)
    v0, v1 = np.clip([vs.min(), vs.max()], 0, calib.height - 1)
    if u1 - u0 < 2 or v1 - v0 < 2:
        return None
    return (float(u0), float(v0), float(u1), float(v1))


def render_detections(scene: GroundTruthScene, calib: CameraCalib, t_s: float,
                      frame_idx: int = 0) -> list[Detection]:
    """Ground-truth 2D boxes of sufficiently visible objects and persons.

    An object is visible when the camera sees at least 30 % of its
    samples: a box's centre and top centre, a person's joints, which the
    person's own capsules never block.  The samples of every object in
    the image are cast at once."""
    rng = scene_rng(scene, calib.sensor_id, frame_idx, _STREAM_DETECTIONS)
    # (class, 2D box, samples, person whose capsules do not block them)
    candidates = []
    for b in scene.boxes:
        bmin, bmax = b.corners_at(t_s)
        box2d = _project_box_to_image(calib, bmin, bmax)
        if box2d is None:
            continue
        center = 0.5 * (bmin + bmax)
        top = center.copy()
        top[2] = bmax[2]
        candidates.append((b.class_idx, box2d, np.vstack([center, top]), -1))
    for pi, person in enumerate(scene.persons):
        joints = person.joints_at(t_s)
        uv, front, _ = project(calib, calib.world_to_cam(joints))
        if front.sum() < 4:
            continue
        us, vs = uv[front, 0], uv[front, 1]
        u0, u1 = np.clip([us.min() - 3, us.max() + 3], 0, calib.width - 1)
        v0, v1 = np.clip([vs.min() - 3, vs.max() + 8], 0, calib.height - 1)
        if u1 - u0 < 2 or v1 - v0 < 2:
            continue
        candidates.append((PERSON_CLASS, (u0, v0, u1, v1), joints, pi))
    if not candidates:
        return []
    counts = [len(samples) for _, _, samples, _ in candidates]
    dirs = np.concatenate([samples for _, _, samples, _ in candidates]) - calib.center
    owner = np.repeat([pi for _, _, _, pi in candidates], counts)
    t, cls = _cast_static(scene, t_s, calib.center, dirs)
    capsule_owner = np.repeat(np.arange(len(scene.persons)), len(_CAPSULE_JOINTS))
    _cast_persons(_scene_capsules(scene, t_s), [(calib, len(dirs))], dirs, t, cls,
                  owner[:, None] == capsule_owner)
    seen = np.split(t > 0.98, np.cumsum(counts)[:-1])
    return [Detection(class_idx, float(rng.uniform(0.6, 0.95)), box2d)
            for (class_idx, box2d, _, _), s in zip(candidates, seen) if np.mean(s) >= 0.3]


# (joint, capsule): the capsule contains the joint
_OWN_CAPSULES = np.zeros((NUM_JOINTS, len(_CAPSULE_JOINTS)), dtype=bool)
for _ci, _members in enumerate(_CAPSULE_JOINTS):
    _OWN_CAPSULES[list(_members), _ci] = True


def _self_blocked(n_p: int) -> np.ndarray:
    """(P*17, P*10) bool: the ray to joint j of person p ignores p's
    capsules that contain j (a joint sits on the surface of its own bones)."""
    return np.kron(np.eye(n_p, dtype=bool), _OWN_CAPSULES)


def visible_joints_many(scene: GroundTruthScene, calibs: list[CameraCalib],
                        t_s: float) -> np.ndarray:
    """Ground-truth joint visibility for every camera at once, (C,P,17).

    A joint is visible when it projects inside the image and the sight
    ray reaches it without hitting scene geometry or a body capsule
    (bones incident to the joint itself are excluded).  One batched cast
    over all cameras x persons x joints keeps per-tick cost flat."""
    n_c = len(calibs)
    n_p = len(scene.persons)
    if n_p == 0 or n_c == 0:
        return np.zeros((n_c, n_p, NUM_JOINTS), dtype=bool)
    flat = np.stack([p.joints_at(t_s) for p in scene.persons]).reshape(-1, 3)
    n_rays = len(flat)
    origins = np.repeat(np.stack([c.center for c in calibs]), n_rays, axis=0)
    dirs = np.concatenate([flat - c.center for c in calibs])
    t, cls = _cast_static(scene, t_s, origins, dirs)
    _cast_persons(_scene_capsules(scene, t_s), [(c, n_rays) for c in calibs],
                  dirs, t, cls, np.tile(_self_blocked(n_p), (n_c, 1)))
    in_img = np.stack([project(c, c.world_to_cam(flat))[2] for c in calibs])
    return (in_img & (t.reshape(n_c, n_rays) > 0.98)).reshape(n_c, n_p, NUM_JOINTS)


def render_keypoints(scene: GroundTruthScene, calib: CameraCalib, t_s: float,
                     noise_px: float = KEYPOINT_NOISE_PX,
                     miss_rate: float = MISS_RATE,
                     p_occ_fail: float = P_OCC_FAIL,
                     frame_idx: int = 0,
                     vis: np.ndarray | None = None) -> PoseSet2p5D:
    """Noisy 2D keypoints standing in for the pose-estimation CNN.

    Visible joints get isotropic Gaussian noise; occluded joints fail
    with probability p_occ_fail (dropped or displaced by a large error,
    emulating pose collapse towards the visible side) and always carry
    lower confidence.  Returns the camera's frame at t_s: the persons
    with a keypoint, by scene index, with u, v and confidence where
    present and 0 elsewhere, NaN depth and sigma, and no joint from
    feedback."""
    if noise_px < 0:
        raise ValueError("noise_px must be non-negative")
    rng = scene_rng(scene, calib.sensor_id, frame_idx, _STREAM_KEYPOINTS)
    timestamp_us = int(round(t_s * 1e6))
    if not scene.persons:
        return PoseSet2p5D(calib.sensor_id, timestamp_us)
    if vis is None:
        vis = visible_joints_many(scene, [calib], t_s)[0]
    joints = np.stack([person.joints_at(t_s) for person in scene.persons])
    uv, _, in_img = project(calib, calib.world_to_cam(joints))
    # fixed-shape draws, person after person, keep the rng stream aligned
    # across configs
    draws, nudge = np.array([(rng.random((NUM_JOINTS, 2)), rng.standard_normal((NUM_JOINTS, 2)))
                             for _ in scene.persons]).transpose(1, 0, 2, 3)
    # occluded joints fail with probability p_occ_fail: half of the
    # failures are dropped, the rest displaced by the large error
    fail = ~vis & (draws[..., 0] < p_occ_fail)
    keep = in_img & np.where(vis, draws[..., 0] >= miss_rate, ~fail | (draws[..., 1] >= 0.5))
    err = np.where(fail, OCC_ERROR_PX, noise_px)
    u = np.clip(uv[..., 0] + err * nudge[..., 0], 0, calib.width - 1e-3)
    v = np.clip(uv[..., 1] + err * nudge[..., 1], 0, calib.height - 1e-3)
    # occluded estimates score low, as a pose CNN's would; the top of
    # the range still leaks past downstream gates
    conf = np.where(vis, 0.55 + 0.4 * draws[..., 1], 0.15 + 0.3 * draws[..., 1] * draws[..., 0])
    ids = np.flatnonzero(keep.any(axis=1))
    keep = keep[ids]
    keypoints = np.full(keep.shape + (5,), np.nan)
    keypoints[..., :3] = np.where(keep[..., None], np.stack([u, v, conf], axis=-1)[ids], 0.0)
    return PoseSet2p5D(calib.sensor_id, timestamp_us, ids, keypoints, keep,
                       np.zeros(keep.shape, dtype=bool))


def box_shell_keys(bmin, bmax, resolution: float) -> np.ndarray:
    """Packed keys of the voxels on the surface shell of an AABB."""
    lo = np.floor(np.asarray(bmin) / resolution + 1e-9).astype(np.int64)
    hi = np.floor((np.asarray(bmax) - 1e-9) / resolution + 1e-9).astype(np.int64)
    xs = np.arange(lo[0], hi[0] + 1)
    ys = np.arange(lo[1], hi[1] + 1)
    zs = np.arange(lo[2], hi[2] + 1)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    idx = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    interior = np.all((idx > lo) & (idx < hi), axis=1)
    return pack_voxel_keys(idx[~interior])


def _structure_keys(scene: GroundTruthScene, boxes: list[SceneBox], t_s: float,
                    resolution: float) -> np.ndarray:
    """Sorted unique packed keys of the floor layer, one voxel thick at z
    index 0, and of the surface shells of boxes at t_s."""
    x, y = (np.arange(int(np.floor(scene.room_min[i] / resolution)),
                      int(np.floor(scene.room_max[i] / resolution)) + 1) for i in range(2))
    gx, gy = np.meshgrid(x, y, indexing="ij")
    floor = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size, dtype=np.int64)], axis=1)
    return np.unique(np.concatenate([*(box_shell_keys(*b.corners_at(t_s), resolution)
                                       for b in boxes), pack_voxel_keys(floor)]))


def structure_voxel_keys(scene: GroundTruthScene, t_s: float,
                         resolution: float = MAP_RESOLUTION) -> np.ndarray:
    """Voxelization of walls, floor and boxes (surface shells)."""
    return _structure_keys(scene, scene.all_boxes(), t_s, resolution)


def structure_class_of_keys(scene: GroundTruthScene, t_s: float, keys: np.ndarray,
                            resolution: float = MAP_RESOLUTION) -> np.ndarray:
    """Ground-truth class per packed voxel key (boxes override floor)."""
    classes = np.full(len(keys), FLOOR_CLASS, dtype=np.int64)
    for b in scene.all_boxes():
        bmin, bmax = b.corners_at(t_s)
        shell = box_shell_keys(bmin, bmax, resolution)
        classes[np.isin(keys, shell)] = b.class_idx
    return classes


def prior_map_points(scene: GroundTruthScene) -> np.ndarray:
    """Voxel-center points of walls and floor (the 'empty building') on
    the map's grid."""
    keys = _structure_keys(scene, scene.wall_boxes(), 0.0, MAP_RESOLUTION)
    return (unpack_voxel_keys(keys) + 0.5) * MAP_RESOLUTION


# -- scene configuration -------------------------------------------------------


def make_camera_rig(scene: GroundTruthScene, n: int = 4,
                    inset: float = 0.4) -> list[CameraCalib]:
    """Cameras near the room corners, facing down towards the center."""
    x0, y0, _ = scene.room_min
    x1, y1, _ = scene.room_max
    corners = [(x0 + inset, y0 + inset), (x1 - inset, y0 + inset),
               (x1 - inset, y1 - inset), (x0 + inset, y1 - inset)]
    target = np.array([(x0 + x1) / 2, (y0 + y1) / 2, 0.8])
    calibs = []
    for sid in range(n):
        cx, cy = corners[sid % 4]
        pos = np.array([cx, cy, RIG_CAM_Z])
        fwd = target - pos
        fwd = fwd / np.linalg.norm(fwd)
        up_world = np.array([0.0, 0.0, 1.0])
        right = np.cross(fwd, up_world)
        right /= np.linalg.norm(right)
        down = np.cross(fwd, right)
        R = np.stack([right, down, fwd], axis=1)
        calibs.append(
            CameraCalib(sid, RIG_WIDTH_PX, RIG_HEIGHT_PX, RIG_F_PX, RIG_F_PX,
                        RIG_WIDTH_PX / 2, RIG_HEIGHT_PX / 2, R, pos, RIG_DEPTH_NOISE_SIGMA)
        )
    return calibs


def make_default_scene(seed: int = 1, n_persons: int = 2) -> GroundTruthScene:
    """Office-like room with a central pillar that causes occlusions."""
    boxes = [
        SceneBox(4, (3.2, 2.2, 0.0), (4.8, 3.0, 0.75)),  # table
        SceneBox(5, (5.2, 3.6, 0.0), (5.7, 4.1, 0.9)),  # chair
        SceneBox(7, (0.4, 4.8, 0.0), (1.2, 5.4, 1.8)),  # cabinet
        SceneBox(15, (3.6, 3.6, 0.0), (4.4, 4.4, 2.2)),  # pillar
    ]
    paths = [
        np.array([[1.5, 1.5], [6.5, 1.5], [6.5, 4.8], [1.5, 4.8]]),
        np.array([[2.2, 4.2], [2.2, 2.2], [6.0, 2.6], [5.6, 4.6]]),
        np.array([[1.2, 3.0], [6.8, 3.2], [4.0, 1.2]]),
    ]
    persons = [
        PersonAnimator(paths[i % len(paths)], speed=0.8 + 0.15 * i, phase=0.37 * i)
        for i in range(n_persons)
    ]
    return GroundTruthScene(
        room_min=(0, 0, 0), room_max=(8, 6, 3), boxes=boxes, persons=persons,
        rng_seed=seed,
    )


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split()])


def load_scene(path) -> GroundTruthScene:
    """INI-style scene file: [room], [scene], [box:*], [person:*] sections."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValueError(f"cannot read scene config {path}")
    if "room" not in cp:
        raise ValueError(f"{path}: missing [room] section")
    room_min = _parse_vec(cp["room"].get("min", "0 0 0"))
    room_max = _parse_vec(cp["room"]["max"])
    boxes = []
    persons = []
    for section in cp.sections():
        if section.startswith("box:"):
            s = cp[section]
            move_t = s.getfloat("move_time", fallback=None)
            offset = _parse_vec(s["move_offset"]) if "move_offset" in s else None
            boxes.append(
                SceneBox(
                    class_idx=s.getint("class"),
                    min_corner=_parse_vec(s["min"]),
                    max_corner=_parse_vec(s["max"]),
                    move_time_s=move_t,
                    move_offset=offset,
                )
            )
        elif section.startswith("person:"):
            s = cp[section]
            wp = _parse_vec(s["waypoints"]).reshape(-1, 2)
            persons.append(
                PersonAnimator(
                    wp,
                    speed=s.getfloat("speed", fallback=0.9),
                    phase=s.getfloat("phase", fallback=0.0),
                )
            )
    seed = cp.getint("scene", "seed", fallback=0) if "scene" in cp else 0
    return GroundTruthScene(
        room_min=room_min, room_max=room_max, boxes=boxes, persons=persons, rng_seed=seed
    )


def save_scene(path, scene: GroundTruthScene) -> None:
    cp = configparser.ConfigParser()
    cp["room"] = {
        "min": " ".join(str(x) for x in scene.room_min),
        "max": " ".join(str(x) for x in scene.room_max),
    }
    cp["scene"] = {"seed": str(scene.rng_seed)}
    for i, b in enumerate(scene.boxes):
        sec = f"box:{i}"
        cp[sec] = {
            "class": str(b.class_idx),
            "min": " ".join(str(x) for x in b.min_corner),
            "max": " ".join(str(x) for x in b.max_corner),
        }
        if b.move_time_s is not None:
            cp[sec]["move_time"] = str(b.move_time_s)
            cp[sec]["move_offset"] = " ".join(str(x) for x in b.move_offset)
    for i, p in enumerate(scene.persons):
        cp[f"person:{i}"] = {
            "waypoints": " ".join(str(x) for x in p.waypoints.ravel()),
            "speed": str(p.speed),
            "phase": str(p.phase),
        }
    with open(path, "w") as f:
        cp.write(f)
