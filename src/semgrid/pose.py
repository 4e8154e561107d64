"""Multi-person 3D pose fusion on the backend.

Cross-view greedy association on epipolar distances (optionally gated by
local depth segments), confidence-weighted linear triangulation, temporal
smoothing with bone-length gating as a lightweight skeleton refinement,
constant-velocity prediction and occlusion-annotated feedback.

Every pose container holds per-person arrays over the 17 COCO joints and
boolean masks, from the sensor over the wire to the backend and back:

- PoseSet2p5D, one sensor frame of P persons: person_ids (P,), keypoints
  (P,17,5) float64 with the columns u, v, confidence, depth and depth
  sigma, and the masks present and from_feedback (P,17).
- feedback for one sensor, the fused persons as it should see them
  (protocol.FeedbackMessage): person_ids (P,), uvc (P,17,3) with u, v
  and confidence, and the masks present and occluded (P,17).
- Skeleton3D, one fused person: pos (17,3), conf (17,), n_views (17,)
  int and vel (17,3), with the masks present and has_vel (17,); has_vel
  is set only where present is.

An absent entry holds 0 in u, v, confidence and n_views and NaN in depth,
sigma, pos and vel; a present keypoint without a depth estimate has NaN
depth and sigma.  Readers select entries by the masks, never by these
fill values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraCalib, project, row_norms

NUM_JOINTS = 17

JOINT_NAMES = (
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist", "left_hip", "right_hip",
    "left_knee", "right_knee", "left_ankle", "right_ankle",
)

BONES = (
    (5, 7), (7, 9), (6, 8), (8, 10),
    (11, 13), (13, 15), (12, 14), (14, 16),
    (5, 6), (11, 12), (5, 11), (6, 12),
    (0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (0, 6),
)

_BONE_J0 = np.array([b[0] for b in BONES])
_BONE_J1 = np.array([b[1] for b in BONES])

TAU_EPI = 20.0  # px, association gate
TAU_TRI = 15.0  # px, triangulation residual gate
MIN_RAY_ANGLE_DEG = 2.0
CONF_MIN = 0.4  # keypoints below this stay out of association/triangulation
ALPHA_POS = 0.35
ALPHA_DELAY = 0.1
TAU_CONF = 1.0  # s, confidence decay constant for prediction
BONE_DEV_MAX = 0.5
VEL_MAX = 4.0  # m/s, cap on per-joint velocity estimates
ALPHA_VEL = 0.3  # EMA factor for per-joint velocity smoothing
TRACK_GATE = 0.8  # m, cross-frame nearest-centroid identity gate
BONE_WINDOW = 15  # bone-length samples behind each running median
TRACK_STALE_S = 2.0  # s unmatched before a track is retired (backend.STALE_S)


def _check_shapes(obj, **shapes) -> None:
    for name, shape in shapes.items():
        if np.shape(getattr(obj, name)) != shape:
            raise ValueError(f"{name} must have shape {shape}")


@dataclass
class PoseSet2p5D:
    """One sensor frame's 2.5D keypoints of P persons (layout above)."""

    sensor_id: int
    timestamp_us: int
    person_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    keypoints: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_JOINTS, 5)))
    present: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_JOINTS), dtype=bool))
    from_feedback: np.ndarray = field(
        default_factory=lambda: np.empty((0, NUM_JOINTS), dtype=bool))

    def __post_init__(self):
        n = len(self.person_ids)
        _check_shapes(self, keypoints=(n, NUM_JOINTS, 5), present=(n, NUM_JOINTS),
                      from_feedback=(n, NUM_JOINTS))

    def row_of(self, person_id: int) -> int | None:
        """Row of the first person with this id; None when there is none."""
        hit = np.flatnonzero(self.person_ids == person_id)
        return int(hit[0]) if len(hit) else None


@dataclass
class Skeleton3D:
    """One fused 3D person (layout above)."""

    person_id: int
    timestamp_us: int
    pos: np.ndarray
    conf: np.ndarray
    n_views: np.ndarray
    present: np.ndarray
    vel: np.ndarray = field(default_factory=lambda: np.full((NUM_JOINTS, 3), np.nan))
    has_vel: np.ndarray = field(default_factory=lambda: np.zeros(NUM_JOINTS, dtype=bool))

    def __post_init__(self):
        _check_shapes(self, pos=(NUM_JOINTS, 3), conf=(NUM_JOINTS,), n_views=(NUM_JOINTS,),
                      present=(NUM_JOINTS,), vel=(NUM_JOINTS, 3), has_vel=(NUM_JOINTS,))

    def centroid(self) -> np.ndarray | None:
        return self.pos[self.present].mean(axis=0) if self.present.any() else None


# -- association ---------------------------------------------------------------


def _view_arrays(views: list[PoseSet2p5D], conf_min: float):
    """Keypoints of V views padded with NaN to the most persons P of any
    view and at least one, (V,P,17,5), and usable (V,P,17): the confident
    keypoints not sourced from feedback, which association and
    triangulation read."""
    n_p = max([1] + [len(v.person_ids) for v in views])
    kp = np.full((len(views), n_p, NUM_JOINTS, 5), np.nan)
    usable = np.zeros((len(views), n_p, NUM_JOINTS), dtype=bool)
    for i, v in enumerate(views):
        n = len(v.person_ids)
        kp[i, :n] = v.keypoints
        usable[i, :n] = v.present & ~v.from_feedback
    usable &= kp[..., 2] >= conf_min
    return kp, usable


def _camera_matrices(calibs: list[CameraCalib]):
    """Stacked intrinsics K, inverse intrinsics, rotations R (world from
    camera) and centres t of V cameras."""
    K = np.array([((c.fx, 0.0, c.cx), (0.0, c.fy, c.cy), (0.0, 0.0, 1.0)) for c in calibs])
    K_inv = np.array([((1.0 / c.fx, 0.0, -c.cx / c.fx), (0.0, 1.0 / c.fy, -c.cy / c.fy),
                       (0.0, 0.0, 1.0)) for c in calibs])
    R = np.array([c.rotation for c in calibs])
    t = np.array([c.translation for c in calibs])
    return K, K_inv, R, t


def _clip_project_segments(K, p0, p1, eps: float = 1e-6):
    """Project camera-frame 3D segments (...,3) to pixel endpoints (...,2)
    with intrinsics K (broadcast to (...,3,3)), clipping to z > eps; the
    mask is False where a segment lies entirely behind the camera."""
    z0 = p0[..., 2]
    z1 = p1[..., 2]
    front = (z0 > eps) | (z1 > eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        clip0 = front & (z0 <= eps)
        clip1 = front & ~clip0 & (z1 <= eps)
        s0 = np.where(clip0, (eps - z0) / (z1 - z0), 0.0)[..., None]
        s1 = np.where(clip1, (eps - z1) / (z0 - z1), 0.0)[..., None]
        q0 = np.where(clip0[..., None], p0 + s0 * (p1 - p0), p0)
        q1 = np.where(clip1[..., None], p1 + s1 * (p0 - p1), p1)
        z0 = np.where(clip0, eps, np.where(front, z0, 1.0))[..., None]
        z1 = np.where(clip1, eps, np.where(front, z1, 1.0))[..., None]
        f = K[..., [0, 1], [0, 1]]
        c = K[..., [0, 1], [2, 2]]
        return c + f * q0[..., :2] / z0, c + f * q1[..., :2] / z1, front


def _pt_seg_dists(pts, a, b) -> np.ndarray:
    """Distances of points (...,2) to segments a-b (...,2), broadcast."""
    ab = b - a
    ap = pts - a
    denom = ab[..., 0] * ab[..., 0] + ab[..., 1] * ab[..., 1]
    degenerate = denom < 1e-18
    with np.errstate(invalid="ignore"):
        s = (ap[..., 0] * ab[..., 0] + ap[..., 1] * ab[..., 1]) / np.where(degenerate, 1.0, denom)
        s = np.where(degenerate, 0.0, np.clip(s, 0.0, 1.0))
        return np.hypot(ap[..., 0] - s * ab[..., 0], ap[..., 1] - s * ab[..., 1])


def _pair_costs(views: list[PoseSet2p5D], calibs: list[CameraCalib], use_depth: bool,
                gate: float, conf_min: float) -> np.ndarray:
    """Cost of every person pair of every view pair a < b, stacked over
    the upper triangle in np.triu_indices order, (E,P,P) with E = V(V-1)/2:
    entry [e, i, q] of the pair (a, b) is the mean distance of person q's
    usable keypoints in view b to the epipolar lines of person i's same
    joints in view a, over the joints both have; inf when they share none
    (and for pads).

    With use_depth, a keypoint of a that has a local depth restricts its
    epipolar line to the projection of the depth interval +- 2 sigma: a
    b keypoint farther than gate from that segment is no correspondence,
    and one within it costs its distance to the segment."""
    kp, usable = _view_arrays(views, conf_min)
    uv = np.where(usable[..., None], kp[..., :2], 0.0)
    K, K_inv, R, t = _camera_matrices(calibs)
    ia, ib = np.triu_indices(len(views), 1)
    # fundamental matrices F of the pairs: the image in b of pixel x of
    # a's ray at unit depth is M x, and its line joins the epipole e =
    # (a's centre seen from b), so the line is [e]x M x
    to_b = (K @ R.transpose(0, 2, 1))[ib]  # world (relative to b's centre) -> b pixels
    rel = t[ia] - t[ib]  # (E,3): a's centre relative to b's
    e = (to_b @ rel[..., None])[..., 0]
    ray = (R @ K_inv)[ia]
    ray[..., 2] += rel
    m = to_b @ ray
    e_cross = np.zeros(e.shape + (3,))
    e_cross[..., 0, 1], e_cross[..., 0, 2] = -e[..., 2], e[..., 1]
    e_cross[..., 1, 0], e_cross[..., 1, 2] = e[..., 2], -e[..., 0]
    e_cross[..., 2, 0], e_cross[..., 2, 1] = -e[..., 1], e[..., 0]
    f = e_cross @ m  # (E,3,3)
    n_v, n_p = uv.shape[:2]
    uvh = np.concatenate([uv, np.ones((n_v, n_p, NUM_JOINTS, 1))], axis=-1)
    lines = (uvh.reshape(n_v, -1, 3)[ia] @ f.transpose(0, 2, 1)).reshape(
        len(ia), n_p, NUM_JOINTS, 3)
    norms = np.hypot(lines[..., 0], lines[..., 1])
    lines /= np.where(norms < 1e-12, 1.0, norms)[..., None]
    # distance of every b keypoint to every a epipolar line, same joint:
    # (pair, person of a, person of b, joint)
    line = lines[:, :, None]
    ub = uv[ib][:, None]
    d = np.abs(line[..., 0] * ub[..., 0] + line[..., 1] * ub[..., 1] + line[..., 2])
    shared = usable[ia][:, :, None] & usable[ib][:, None]
    if use_depth:
        depth, sigma = kp[..., 3], kp[..., 4]
        have_d = usable & np.isfinite(depth)
        with np.errstate(invalid="ignore"):
            lo = np.maximum(depth - 2 * sigma, 1e-3)
            hi = np.maximum(depth + 2 * sigma, lo)
        # world direction of each keypoint's ray at unit depth, (V,P,J,3)
        world = uvh @ (R @ K_inv)[:, None].transpose(0, 1, 3, 2)
        # both segment endpoints in camera b: (pair, P, J, 3)
        ends = [((dist[..., None] * world)[ia] + rel[:, None, None]) @ R[ib][:, None]
                for dist in (lo, hi)]
        seg0, seg1, front = _clip_project_segments(K[ib][:, None, None], *ends)
        ds = _pt_seg_dists(ub, seg0[:, :, None], seg1[:, :, None])
        checked = shared & (have_d[ia] & front)[:, :, None]
        # correspondences outside the interval are dropped
        shared &= ~(checked & (ds > gate))
        d = np.where(checked, ds, d)
    counts = shared.sum(axis=-1)
    sums = np.where(shared, d, 0.0).sum(axis=-1)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.inf)


def associate(
    views: list[PoseSet2p5D],
    calibs: dict[int, CameraCalib],
    use_depth: bool = False,
    tau_epi: float = TAU_EPI,
    conf_min: float = CONF_MIN,
) -> list[list[tuple[int, int]]]:
    """Greedy iterative cross-view grouping of person detections, one
    view per sensor.

    Views are visited in sensor-id order; each person of the incoming
    view joins the cheapest existing group with cost <= tau_epi (one
    person per group per view; ties go to the lower group, then the
    lower person), otherwise starts a new group.  A group's cost to a
    person is the least pair cost over the group's members.  Returns
    groups of (sensor_id, local_person_id) in sensor-id order.
    """
    if not views:
        return []
    ordered = sorted(views, key=lambda v: v.sensor_id)
    cost = _pair_costs(ordered, [calibs[v.sensor_id] for v in ordered], use_depth,
                       tau_epi, conf_min)
    n_v = len(ordered)
    pair = np.zeros((n_v, n_v), dtype=np.intp)
    pair[np.triu_indices(n_v, 1)] = np.arange(len(cost))
    counts = [len(v.person_ids) for v in ordered]
    # person row of each group in each view, -1 where it has none
    members = np.full((sum(counts), n_v), -1)
    n_g = 0
    for ib, nb in enumerate(counts):
        joined = [False] * nb
        if n_g and nb:
            rows = members[:n_g, :ib]
            best = np.where((rows >= 0)[..., None],
                            cost[pair[:ib, ib], np.maximum(rows, 0), :nb], np.inf).min(axis=1)
            gi, q = np.nonzero(best <= tau_epi)
            order = np.argsort(best[gi, q], kind="stable")
            taken = [False] * n_g
            for g, p in zip(gi[order].tolist(), q[order].tolist()):
                if not (taken[g] or joined[p]):
                    members[g, ib] = p
                    taken[g] = joined[p] = True
        new = [p for p in range(nb) if not joined[p]]
        members[n_g:n_g + len(new), ib] = new
        n_g += len(new)
    ids = [(v.sensor_id, v.person_ids.tolist()) for v in ordered]
    return [
        [(ids[ia][0], ids[ia][1][row]) for ia, row in enumerate(group) if row >= 0]
        for group in members[:n_g].tolist()
    ]


# -- triangulation -------------------------------------------------------------


def triangulate_points(
    calibs: list[CameraCalib],
    uv: np.ndarray,
    conf: np.ndarray,
    seen: np.ndarray,
    tau_tri: float = TAU_TRI,
    min_angle_deg: float = MIN_RAY_ANGLE_DEG,
):
    """Confidence-weighted linear triangulation of J points from V views.

    calibs: the V cameras; uv (V,J,2) pixels, conf (V,J) confidences and
    seen (V,J) which view observes which point.  Every point's two DLT
    rows per view (Hartley & Zisserman) are accumulated into a stacked
    (J,3,3) normal-equation system, weighted by squared confidence, and
    solved in one batched np.linalg.solve.  Returns (positions (J,3), mean reprojection
    residual px (J,), ok (J,)); ok is False when fewer than two views see
    the point, all its rays are within min_angle_deg of each other, the
    system is singular, the point lies behind a camera that sees it, or
    the residual exceeds tau_tri.
    """
    seen = np.asarray(seen, dtype=bool)
    n_views, n_pts = seen.shape
    uv = np.asarray(uv, dtype=np.float64).reshape(n_views, n_pts, 2)
    conf = np.asarray(conf, dtype=np.float64).reshape(n_views, n_pts)
    K, _, R, t = _camera_matrices(calibs)
    f = K[:, None, [0, 1], [0, 1]]  # (V,1,2) focal lengths
    duv = np.where(seen[..., None], uv - K[:, None, [0, 1], [2, 2]], 0.0)  # (V,J,2)
    # parallax gate on the unit viewing rays
    rays = np.concatenate([duv / f, np.ones((n_views, n_pts, 1))], axis=-1) @ R.transpose(0, 2, 1)
    rays /= np.sqrt((rays * rays).sum(axis=-1, keepdims=True))
    cos = np.einsum("vjk,wjk->vwj", rays, rays)
    upper = np.arange(n_views)[:, None] < np.arange(n_views)
    pairs = seen[:, None] & seen[None] & upper[..., None]
    min_cos = np.where(pairs, cos, 1.0).min(axis=(0, 1), initial=1.0)
    # two DLT rows per view, (du r3 - fx r1) . (x - t) = 0 and
    # (dv r3 - fy r2) . (x - t) = 0 with r_k the columns of R; stacked
    # per point as (J,2V,3) with right-hand sides (J,2V)
    Rt = R.transpose(0, 2, 1)
    rows = duv[..., None] * Rt[:, None, None, 2, :] - f[..., None] * Rt[:, None, :2, :]
    rows = rows.transpose(1, 0, 2, 3).reshape(n_pts, 2 * n_views, 3)
    rhs = (rows * np.repeat(t, 2, axis=0)).sum(axis=-1)
    w2 = np.repeat(np.where(seen, np.maximum(conf, 1e-3) ** 2, 0.0).T, 2, axis=1)
    weighted = (rows * w2[..., None]).transpose(0, 2, 1)
    ata = weighted @ rows  # (J,3,3)
    atb = (weighted @ rhs[..., None])[..., 0]
    solvable = np.abs(np.linalg.det(ata)) >= 1e-12
    x = np.zeros((n_pts, 3))
    if solvable.any():
        x[solvable] = np.linalg.solve(ata[solvable], atb[solvable][..., None])[..., 0]
    # cheirality and mean reprojection residual over the seeing views
    pc = (x[None] - t[:, None]) @ R  # (V,J,3) camera frame
    front = pc[..., 2] > 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        d = f * pc[..., :2] / pc[..., 2:] - duv
    err = np.sqrt((d * d).sum(axis=-1))
    n_seen = seen.sum(axis=0)
    res = np.where(seen, err, 0.0).sum(axis=0) / np.maximum(n_seen, 1)
    ok = (
        (n_seen >= 2)
        & (min_cos <= math.cos(math.radians(min_angle_deg)))
        & solvable
        & ~(seen & ~front).any(axis=0)
        & (res <= tau_tri)
    )
    return x, res, ok


def triangulate_group(
    pose_sets: dict[int, PoseSet2p5D],
    groups: list[list[tuple[int, int]]],
    calibs: dict[int, CameraCalib],
    timestamp_us: int,
    conf_min: float = CONF_MIN,
) -> list[Skeleton3D | None]:
    """Skeletons of one tick's association groups, one per group; None
    for a group of which no joint can be placed.

    A joint's keypoints are the group's confident ones not sourced from
    feedback; groups with none are dropped first.  Joints seen so by two
    or more views are triangulated in one triangulate_points call per set
    of member views (padding a group with other views would change the
    rounding of the BLAS product that forms the normal equations), one
    seen so by a single depth-capable view is back-projected from its
    local depth (n_views = 1, half the confidence).  A member whose person
    id its view lacks is skipped; of repeated ids the first row counts.
    """
    if not groups:
        return []
    sids = sorted(pose_sets)
    views = [pose_sets[sid] for sid in sids]
    first_row = [{pid: row for row, pid in reversed(list(enumerate(v.person_ids.tolist())))}
                 for v in views]
    rows = np.full((len(groups), len(views)), -1)
    for g, group in enumerate(groups):
        for sid, pid in group:
            i = sids.index(sid)
            rows[g, i] = first_row[i].get(pid, -1)
    kp, usable = _view_arrays(views, conf_min)
    member = rows >= 0
    at = (np.arange(len(views)), np.maximum(rows, 0))
    seen = usable[at] & member[..., None]  # (G,V,17)
    keep = np.flatnonzero(seen.any(axis=(1, 2)))
    member, seen, kp = member[keep], seen[keep], kp[at[0], at[1][keep]]  # kp (G,V,17,5)
    conf = kp[..., 2]
    n_seen = seen.sum(axis=1)  # (G,17)
    pos = np.full(n_seen.shape + (3,), np.nan)
    n_views = np.zeros(n_seen.shape, dtype=np.int64)
    tick_calibs = [calibs[sid] for sid in sids]
    multi = n_seen >= 2
    by_views: dict[bytes, list[int]] = {}
    for k in np.flatnonzero(multi.any(axis=1)).tolist():
        by_views.setdefault(member[k].tobytes(), []).append(k)
    for ks in by_views.values():
        vi = np.flatnonzero(member[ks[0]])
        g, j = np.nonzero(multi[ks])
        g, j = np.array(ks)[g, None], j[:, None]
        x, _, ok = triangulate_points([tick_calibs[i] for i in vi], kp[g, vi, j, :2].swapaxes(0, 1),
                                      conf[g, vi, j].T, seen[g, vi, j].T)
        g, j = g[ok, 0], j[ok, 0]
        pos[g, j], n_views[g, j] = x[ok], n_seen[g, j]
    joint_conf = np.where(n_views > 0, np.where(seen, conf, 0.0).sum(axis=1)
                          / np.maximum(n_seen, 1), 0.0)
    g, j = np.nonzero(n_seen == 1)
    i = seen[g, :, j].argmax(axis=1)
    u, v, c, depth = kp[g, i, j, :4].T
    has = ~np.isnan(depth)
    g, j, i, u, v, c, depth = (a[has] for a in (g, j, i, u, v, c, depth))
    K, _, R, t = (a[i] for a in _camera_matrices(tick_calibs))
    pc = np.stack([(u - K[:, 0, 2]) / K[:, 0, 0] * depth,
                   (v - K[:, 1, 2]) / K[:, 1, 1] * depth, depth], axis=-1)
    pos[g, j] = (pc[:, None] @ R.transpose(0, 2, 1))[:, 0] + t
    joint_conf[g, j], n_views[g, j] = c * 0.5, 1
    out: list[Skeleton3D | None] = [None] * len(groups)
    for k in np.flatnonzero(n_views.any(axis=1)).tolist():
        out[keep[k]] = Skeleton3D(-1, timestamp_us, pos[k], joint_conf[k], n_views[k],
                                  n_views[k] > 0)
    return out


# -- temporal refinement, prediction, feedback ---------------------------------


def refine_skeleton(
    raw: Skeleton3D,
    prev: Skeleton3D | None,
    dt_s: float = 1.0 / 30.0,
    bone_ref: np.ndarray | None = None,
) -> Skeleton3D:
    """Exponential smoothing against prev plus bone-length outlier gating.

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
        # a finite-difference spike beyond plausible human motion is
        # triangulation noise, not movement
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
        # demote the outer joint of the bone (larger joint index is
        # further from the torso in the COCO ordering)
        demote = np.zeros(NUM_JOINTS, dtype=bool)
        demote[np.maximum(_BONE_J0, _BONE_J1)[bad]] = True
        conf = np.where(demote, conf * 0.1, conf)
    return Skeleton3D(raw.person_id, raw.timestamp_us, pos, conf, raw.n_views, present,
                      vel, present.copy())


def _predicted(pos, conf, vel, has_vel, dt_s: float, tau_conf: float):
    """Constant-velocity positions and decayed confidences after dt_s, for
    one skeleton's arrays or stacked ones."""
    if dt_s <= 0:
        return pos, conf
    return (pos + np.where(has_vel[..., None], vel * dt_s, 0.0),
            conf * math.exp(-dt_s / tau_conf))


def make_feedback(
    skels: list[Skeleton3D],
    calibs: list[CameraCalib],
    vmap,
    delays_s: list[float],
    compute_occlusion: bool = True,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Reprojection of the predicted skeletons into every camera, with
    occlusion flags: camera i sees them delays_s[i] ahead.

    Returns, per camera, (person_ids (P,), uvc (P,17,3), present (P,17),
    occluded (P,17)) of the persons with a joint in its image, in
    skeleton order; joints behind the camera or off-image are absent.
    The skeletons are stacked once, then predicted and projected per
    camera, and the joints of all cameras are occlusion-tested in one
    query with one origin per joint.
    """
    n = len(skels)
    stacked = [np.array([getattr(s, name) for s in skels], dtype=dt).reshape(
                   (n, NUM_JOINTS) + shape)
               for name, dt, shape in (("pos", float, (3,)), ("conf", float, ()),
                                       ("vel", float, (3,)), ("has_vel", bool, ()),
                                       ("present", bool, ()))]
    present = stacked.pop()
    ids = np.array([s.person_id for s in skels], dtype=np.int64)
    views = []  # (conf, uv, ok, occluded) per camera
    targets = []  # the joints to occlusion-test, camera by camera
    for calib, delay in zip(calibs, delays_s):
        pos, conf = _predicted(*stacked, delay, TAU_CONF)
        uv, _, in_image = project(calib, calib.world_to_cam(pos))
        ok = present & in_image
        views.append((conf, uv, ok, np.zeros(ok.shape, dtype=bool)))
        targets.append(pos[ok])
    counts = [len(t) for t in targets]
    if compute_occlusion and vmap is not None and sum(counts):
        origins = np.repeat([calib.center for calib in calibs], counts, axis=0)
        flags = vmap.is_occluded_many(origins, np.concatenate(targets))
        for (_, _, ok, occluded), part in zip(views, np.split(flags, np.cumsum(counts)[:-1])):
            occluded[ok] = part
    out = []
    for conf, uv, ok, occluded in views:
        uvc = np.where(ok[..., None], np.concatenate([uv, conf[..., None]], axis=-1), 0.0)
        keep = ok.any(axis=1)
        out.append((ids[keep], uvc[keep], ok[keep], occluded[keep]))
    return out


def update_delay(current: float | None, measured: float, alpha: float = ALPHA_DELAY) -> float:
    """Exponential moving average of the feedback loop delay."""
    if measured < 0:
        raise ValueError("measured delay must be non-negative")
    if current is None:
        return measured
    return (1 - alpha) * current + alpha * measured


# -- cross-frame identity ------------------------------------------------------


class SkeletonTracker:
    """Stable person ids by nearest-centroid matching, plus per-person
    smoothing state and running median bone lengths.

    The tracker keeps each person's last refined skeleton, and a (bones,
    window) ring buffer of bone lengths with one write position and fill
    count per bone.  A track left unmatched for more than TRACK_STALE_S
    of update time is retired with all its state, so the state is bounded
    by the persons seen in that window; its id is never issued again."""

    def __init__(self):
        self._next_id = 0
        self._clock_s = 0.0  # the sum of every update's dt_s
        self._prev: dict[int, Skeleton3D] = {}
        self._centroids: dict[int, np.ndarray] = {}  # of the _prev entries
        self._bones: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._matched_s: dict[int, float] = {}  # clock of each track's last match

    def update(self, raw_skeletons: list[Skeleton3D], dt_s: float) -> list[Skeleton3D]:
        self._clock_s += dt_s
        for pid, t in list(self._matched_s.items()):
            if self._clock_s - t > TRACK_STALE_S:
                for state in (self._prev, self._centroids, self._bones, self._matched_s):
                    del state[pid]
        prev_ids = list(self._centroids)
        prev_cent = np.array(list(self._centroids.values())).reshape(-1, 3)
        candidates = []
        for skel in raw_skeletons:
            c = skel.centroid()
            if c is None:
                continue
            best_id, best_d = None, TRACK_GATE
            if prev_ids:
                dists = row_norms(c - prev_cent)
                i = int(np.argmin(dists))  # first of equal minima, as dict order
                if dists[i] < best_d:
                    best_id, best_d = prev_ids[i], float(dists[i])
            candidates.append((skel, best_id, best_d))
        candidates.sort(key=lambda x: x[2])
        assigned: set[int] = set()
        refined = []
        for skel, pid, _ in candidates:
            if pid is None or pid in assigned:
                pid = self._next_id
                self._next_id += 1
            assigned.add(pid)
            skel.person_id = pid
            out = refine_skeleton(skel, self._prev.get(pid), dt_s, self._bone_reference(pid))
            self._record_bones(pid, out)
            self._prev[pid] = out
            self._centroids[pid] = out.centroid()
            self._matched_s[pid] = self._clock_s
            refined.append(out)
        return refined

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


def format_skeleton_log(skels: list[Skeleton3D]) -> str:
    """Newline-delimited `timestamp person_id joint x y z conf n_views`."""
    lines = []
    for skel in skels:
        pos, conf, n_views = skel.pos.tolist(), skel.conf.tolist(), skel.n_views.tolist()
        for j in np.flatnonzero(skel.present).tolist():
            x, y, z = pos[j]
            lines.append(
                f"{skel.timestamp_us} {skel.person_id} {j} "
                f"{x:.6f} {y:.6f} {z:.6f} {conf[j]:.4f} {n_views[j]}"
            )
    return "\n".join(lines) + ("\n" if lines else "")
