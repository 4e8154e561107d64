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
- SkeletonSet, the P fused persons of one tick: person_ids (P,), pos
  (P,17,3), conf (P,17), n_views (P,17) int and vel (P,17,3), with the
  masks present and has_vel (P,17); has_vel is set only where present is.

An absent entry holds 0 in u, v, confidence and n_views and NaN in depth,
sigma, pos and vel; a present keypoint without a depth estimate has NaN
depth and sigma; sensors estimate depth only for the joints the backend
can fuse (PoseSet2p5D.fusable), the only ones whose depth it reads.
Readers select entries by the masks, never by these fill values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraCalib, project, row_norms

NUM_JOINTS = 17

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
CLIP_Z = 1e-6  # m, depth segments are clipped to the camera-frame z > CLIP_Z
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

    @property
    def fusable(self) -> np.ndarray:
        """(P,17) the joints the backend can fuse, the only ones whose depth
        it reads: present, not sourced from feedback, and confident by
        CONF_MIN.  The confidence is compared as the backend sees it,
        rounded to float32 on the wire, so a sensor asks this of its frame
        before encoding and gets the backend's answer."""
        conf = self.keypoints[..., 2].astype(np.float32).astype(np.float64)
        return self.present & ~self.from_feedback & (conf >= CONF_MIN)


@dataclass
class SkeletonSet:
    """The fused 3D persons of one tick (layout above)."""

    timestamp_us: int
    person_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    pos: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_JOINTS, 3)))
    conf: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_JOINTS)))
    n_views: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_JOINTS), dtype=np.int64))
    present: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_JOINTS), dtype=bool))
    vel: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_JOINTS, 3)))
    has_vel: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_JOINTS), dtype=bool))

    def __post_init__(self):
        n = len(self.person_ids)
        _check_shapes(self, pos=(n, NUM_JOINTS, 3), conf=(n, NUM_JOINTS),
                      n_views=(n, NUM_JOINTS), present=(n, NUM_JOINTS),
                      vel=(n, NUM_JOINTS, 3), has_vel=(n, NUM_JOINTS))

    def __len__(self) -> int:
        return len(self.person_ids)


def _centroids(pos: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Mean of each skeleton's present joints, (P,3), summed in joint
    order as pos[present].mean(axis=0) sums one skeleton's."""
    return (np.where(present[..., None], pos, 0.0).sum(axis=1)
            / present.sum(axis=1)[:, None])


# -- association ---------------------------------------------------------------


def _view_arrays(views: list[PoseSet2p5D]):
    """Keypoints of V views padded with NaN to the most persons P of any
    view and at least one, (V,P,17,5), and usable (V,P,17): the fusable
    keypoints, which association and triangulation read."""
    n_p = max([1] + [len(v.person_ids) for v in views])
    kp = np.full((len(views), n_p, NUM_JOINTS, 5), np.nan)
    usable = np.zeros((len(views), n_p, NUM_JOINTS), dtype=bool)
    for i, v in enumerate(views):
        n = len(v.person_ids)
        kp[i, :n] = v.keypoints
        usable[i, :n] = v.fusable
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


def _clip_project_segments(K, p0, p1):
    """Project camera-frame 3D segments (...,3) to pixel endpoints (...,2)
    with intrinsics K (broadcast to (...,3,3)), clipping to z > CLIP_Z;
    the mask is False where a segment lies entirely behind the camera."""
    z0 = p0[..., 2]
    z1 = p1[..., 2]
    front = (z0 > CLIP_Z) | (z1 > CLIP_Z)
    with np.errstate(divide="ignore", invalid="ignore"):
        clip0 = front & (z0 <= CLIP_Z)
        clip1 = front & ~clip0 & (z1 <= CLIP_Z)
        s0 = np.where(clip0, (CLIP_Z - z0) / (z1 - z0), 0.0)[..., None]
        s1 = np.where(clip1, (CLIP_Z - z1) / (z0 - z1), 0.0)[..., None]
        q0 = np.where(clip0[..., None], p0 + s0 * (p1 - p0), p0)
        q1 = np.where(clip1[..., None], p1 + s1 * (p0 - p1), p1)
        z0 = np.where(clip0, CLIP_Z, np.where(front, z0, 1.0))[..., None]
        z1 = np.where(clip1, CLIP_Z, np.where(front, z1, 1.0))[..., None]
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


def _pair_costs(kp: np.ndarray, usable: np.ndarray, calibs: list[CameraCalib],
                pairs: tuple[np.ndarray, np.ndarray], use_depth: bool) -> np.ndarray:
    """Cost of every person pair of the view pairs (a, b) in pairs, the
    index arrays of the upper triangle in np.triu_indices order, of V
    views' keypoints kp (V,P,17,5) and their usable mask (V,P,17), as
    _view_arrays gives them, (E,P,P) with E = V(V-1)/2:
    entry [e, i, q] of the pair (a, b) is the mean distance of person q's
    usable keypoints in view b to the epipolar lines of person i's same
    joints in view a, over the joints both have; inf when they share none
    (and for pads).

    With use_depth, a keypoint of a that has a local depth restricts its
    epipolar line to the projection of the depth interval +- 2 sigma: a
    b keypoint farther than TAU_EPI from that segment is no correspondence,
    and one within it costs its distance to the segment."""
    uv = np.where(usable[..., None], kp[..., :2], 0.0)
    K, K_inv, R, t = _camera_matrices(calibs)
    ia, ib = pairs
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
        shared &= ~(checked & (ds > TAU_EPI))
        d = np.where(checked, ds, d)
    counts = shared.sum(axis=-1)
    sums = np.where(shared, d, 0.0).sum(axis=-1)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.inf)


def associate(views: list[PoseSet2p5D], calibs: dict[int, CameraCalib],
              use_depth: bool = False) -> np.ndarray:
    """Greedy iterative cross-view grouping of the person detections of V
    views in sensor-id order, one view per sensor.

    Views are visited in order; each person of the incoming view joins
    the cheapest existing group with cost <= TAU_EPI (one person per
    group per view; ties go to the lower group, then the lower person),
    otherwise starts a new group.  A group's cost to a person is the
    least pair cost over the group's members.  A person without a usable
    keypoint could only ever form a group of its own, of which no joint
    can be placed, so it is left out before the costs are sized.
    Returns the groups in order of creation as a (G,V) matrix of person
    rows, one column per view, -1 where a group has no person in a view.
    """
    if not views:
        return np.empty((0, 0), dtype=np.int64)
    n_v = len(views)
    r = np.arange(n_v)
    kp, usable = _view_arrays(views)
    # the persons left in, moved to the front of their view in order
    keep = usable.any(axis=-1)
    counts = keep.sum(axis=1)
    kept_rows = np.argsort(~keep, axis=1, kind="stable")[:, :max(1, counts.max())]
    at = (r[:, None], kept_rows)
    pairs = np.nonzero(np.less.outer(r, r))  # the pairs a < b in np.triu_indices order
    cost = _pair_costs(kp[at], usable[at], [calibs[v.sensor_id] for v in views], pairs,
                       use_depth)
    pair = np.zeros((n_v, n_v), dtype=np.intp)
    pair[pairs] = np.arange(len(cost))
    counts = counts.tolist()
    # kept person of each group in each view, -1 where it has none
    members = np.full((sum(counts), n_v), -1)
    n_g = 0
    for ib, nb in enumerate(counts):
        joined = [False] * nb
        if n_g and nb:
            rows = members[:n_g, :ib]
            best = np.where((rows >= 0)[..., None],
                            cost[pair[:ib, ib], np.maximum(rows, 0), :nb], np.inf).min(axis=1)
            gi, q = np.nonzero(best <= TAU_EPI)
            order = np.argsort(best[gi, q], kind="stable")
            taken = [False] * n_g
            for g, p in zip(gi[order].tolist(), q[order].tolist()):
                if not (taken[g] or joined[p]):
                    members[g, ib] = p
                    taken[g] = joined[p] = True
        new = [p for p in range(nb) if not joined[p]]
        members[n_g:n_g + len(new), ib] = new
        n_g += len(new)
    members = members[:n_g]
    return np.where(members >= 0, kept_rows[r, np.maximum(members, 0)], -1)


# -- triangulation -------------------------------------------------------------


def triangulate_points(calibs: list[CameraCalib], uv: np.ndarray, conf: np.ndarray,
                       seen: np.ndarray):
    """Confidence-weighted linear triangulation of J points from V views.

    calibs: the V cameras; uv (V,J,2) pixels, conf (V,J) confidences and
    seen (V,J) which view observes which point.  Every point's two DLT
    rows per view (Hartley & Zisserman) are accumulated into a stacked
    (J,3,3) normal-equation system, weighted by squared confidence, and
    solved in one batched np.linalg.solve.  Returns (positions (J,3), mean reprojection
    residual px (J,), ok (J,)); ok is False when fewer than two views see
    the point, all its rays are within MIN_RAY_ANGLE_DEG of each other,
    the system is singular, the point lies behind a camera that sees it,
    or the residual exceeds TAU_TRI.
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
        & (min_cos <= math.cos(math.radians(MIN_RAY_ANGLE_DEG)))
        & solvable
        & ~(seen & ~front).any(axis=0)
        & (res <= TAU_TRI)
    )
    return x, res, ok


def triangulate_group(
    views: list[PoseSet2p5D],
    rows: np.ndarray,
    calibs: dict[int, CameraCalib],
    timestamp_us: int,
) -> tuple[SkeletonSet, np.ndarray]:
    """Skeletons of one tick's association groups, with person id -1, and
    the group of each row: one row per group of which a joint can be
    placed, in group order.

    views are the tick's views in sensor-id order and rows the groups as
    associate gives them, (G,V) person rows with -1 where a group has no
    person in a view.  A joint's keypoints are the group's confident ones
    not sourced from feedback; groups with none are dropped first.  Joints
    seen so by two or more views are triangulated in one
    triangulate_points call per set of member views (padding a group with
    other views would change the rounding of the BLAS product that forms
    the normal equations), one seen so by a single depth-capable view is
    back-projected from its local depth (n_views = 1, half the
    confidence).
    """
    kp, usable = _view_arrays(views)
    member = rows >= 0
    at = (np.arange(len(views)), np.maximum(rows, 0))
    seen = usable[at] & member[..., None]  # (G,V,17)
    keep = np.flatnonzero(seen.any(axis=(1, 2)))
    member, seen, kp = member[keep], seen[keep], kp[at[0], at[1][keep]]  # kp (G,V,17,5)
    conf = kp[..., 2]
    n_seen = seen.sum(axis=1)  # (G,17)
    pos = np.full(n_seen.shape + (3,), np.nan)
    n_views = np.zeros(n_seen.shape, dtype=np.int64)
    tick_calibs = [calibs[v.sensor_id] for v in views]
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
    k = n_views.any(axis=1)
    pos, joint_conf, n_views = pos[k], joint_conf[k], n_views[k]
    return SkeletonSet(timestamp_us, np.full(len(pos), -1, dtype=np.int64), pos, joint_conf,
                       n_views, n_views > 0, np.full(pos.shape, np.nan),
                       np.zeros(n_views.shape, dtype=bool)), keep[k]


# -- prediction, feedback ------------------------------------------------------


def _predicted(pos, conf, vel, has_vel, dt_s: float, tau_conf: float):
    """Constant-velocity positions and decayed confidences after dt_s, for
    one skeleton's arrays or stacked ones."""
    if dt_s <= 0:
        return pos, conf
    return (pos + np.where(has_vel[..., None], vel * dt_s, 0.0),
            conf * math.exp(-dt_s / tau_conf))


def make_feedback(
    skels: SkeletonSet,
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
    The skeletons are predicted and projected per camera, and the joints
    of all cameras are occlusion-tested in one query with one origin per
    joint.
    """
    views = []  # (conf, uv, ok, occluded) per camera
    targets = []  # the joints to occlusion-test, camera by camera
    for calib, delay in zip(calibs, delays_s):
        pos, conf = _predicted(skels.pos, skels.conf, skels.vel, skels.has_vel, delay, TAU_CONF)
        uv, _, in_image = project(calib, calib.world_to_cam(pos))
        ok = skels.present & in_image
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
        out.append((skels.person_ids[keep], uvc[keep], ok[keep], occluded[keep]))
    return out


def update_delay(current: float | None, measured: float) -> float:
    """Exponential moving average of the feedback loop delay."""
    if measured < 0:
        raise ValueError("measured delay must be non-negative")
    if current is None:
        return measured
    return (1 - ALPHA_DELAY) * current + ALPHA_DELAY * measured


# -- cross-frame identity, temporal refinement ---------------------------------


class SkeletonTracker:
    """Stable person ids by nearest-centroid matching, plus per-person
    smoothing state and running median bone lengths.

    Each live track is one slot of a set of arrays, in order of birth:
    its id, its last refined skeleton (which has a velocity at each of
    its joints), that skeleton's centroid, a (bones, window) ring buffer
    of bone lengths with one write position and fill count per bone, and
    the update clock of its last match.  A track left unmatched for more
    than TRACK_STALE_S of update time is retired with its slot, so the
    state is bounded by the persons seen in that window; its id is never
    issued again."""

    _SLOTS = ("track_ids", "_pos", "_vel", "_present", "_centroids", "_bones", "_heads",
              "_counts", "_matched_s")

    def __init__(self):
        self.next_id = 0  # the number of ids issued
        self._clock_s = 0.0  # the sum of every update's dt_s
        self.track_ids = np.empty(0, dtype=np.int64)
        self._pos = np.empty((0, NUM_JOINTS, 3))
        self._vel = np.empty((0, NUM_JOINTS, 3))
        self._present = np.empty((0, NUM_JOINTS), dtype=bool)
        self._centroids = np.empty((0, 3))
        self._bones = np.empty((0, len(BONES), BONE_WINDOW))
        self._heads = np.empty((0, len(BONES)), dtype=np.int64)
        self._counts = np.empty((0, len(BONES)), dtype=np.int64)
        self._matched_s = np.empty(0)

    def _resize(self, keep: np.ndarray, n_new: int) -> None:
        """Keep the slots keep lists, in order, and append n_new blank
        ones: NaN in float arrays (unfilled bone lengths sort last), 0 or
        False in the others."""
        if len(keep) == len(self.track_ids) and not n_new:
            return
        for name in self._SLOTS:
            kept = getattr(self, name)[keep]
            blank = np.full((n_new,) + kept.shape[1:], np.nan if kept.dtype.kind == "f" else 0,
                            kept.dtype)
            setattr(self, name, np.concatenate([kept, blank]))

    def update(self, raw: SkeletonSet, dt_s: float) -> SkeletonSet:
        """Refined skeletons of raw's rows that have a joint, in stable
        order of their distance to the nearest track centroid (TRACK_GATE
        for a row none is strictly within it).  A row continues that track
        unless an earlier row took it; any other row opens a new track
        with the next id.  The ids are also written into raw.person_ids.

        Refinement is exponential smoothing against the track's last
        skeleton, finite-difference velocities (capped at VEL_MAX, then
        smoothed) and bone-length gating: a joint whose bone to a joint
        nearer the torso deviates more than BONE_DEV_MAX from the bone's
        running median length is demoted to a tenth of its confidence."""
        self._clock_s += dt_s
        live = np.flatnonzero(~(self._clock_s - self._matched_s > TRACK_STALE_S))
        n_tracks = len(live)
        rows = np.flatnonzero(raw.present.any(axis=1))
        slot = np.full(len(rows), -1)  # among the live slots
        dist = np.full(len(rows), TRACK_GATE)
        if n_tracks:
            d = row_norms(_centroids(raw.pos[rows], raw.present[rows])[:, None]
                          - self._centroids[live])
            nearest = d.argmin(axis=1)  # the first of equal minima, in slot order
            d = d[np.arange(len(rows)), nearest]
            near = d < TRACK_GATE
            slot[near], dist[near] = nearest[near], d[near]
        order = np.argsort(dist, kind="stable")
        rows, slot = rows[order], slot[order]
        first = np.zeros(len(rows), dtype=bool)
        matched = np.flatnonzero(slot >= 0)
        first[matched[np.unique(slot[matched], return_index=True)[1]]] = True
        born = np.flatnonzero(~first)
        slot[born] = n_tracks + np.arange(len(born))
        self._resize(live, len(born))
        self.track_ids[slot[born]] = self.next_id + np.arange(len(born))
        self.next_id += len(born)

        present, raw_pos = raw.present[rows], raw.pos[rows]
        prev_pos = self._pos[slot]
        both = present & self._present[slot]  # False throughout a new track
        smooth = ALPHA_POS * raw_pos + (1 - ALPHA_POS) * prev_pos
        pos = np.where(both[..., None], smooth, raw_pos)
        step = (smooth - prev_pos) / max(dt_s, 1e-9)
        speed = row_norms(step)
        # a finite-difference spike beyond plausible human motion is
        # triangulation noise, not movement
        fast = both & (speed > VEL_MAX)
        step[fast] *= (VEL_MAX / speed[fast])[:, None]
        # a joint seen for the first time starts at rest
        vel = np.where(both[..., None], ALPHA_VEL * step + (1 - ALPHA_VEL) * self._vel[slot], 0.0)

        # running median of each bone's recorded lengths, NaN below 3
        # samples; unfilled entries are NaN and sort last
        lengths = row_norms(pos[:, _BONE_J0] - pos[:, _BONE_J1])
        ends = present[:, _BONE_J0] & present[:, _BONE_J1]
        svals = np.sort(self._bones[slot], axis=-1)
        count = self._counts[slot]
        c = np.maximum(count, 1)
        at = (np.arange(len(slot))[:, None], np.arange(len(BONES)))
        ref = np.where(count >= 3, 0.5 * (svals[at + ((c - 1) // 2,)] + svals[at + (c // 2,)]),
                       np.nan)
        with np.errstate(invalid="ignore"):
            bad = (np.isfinite(ref) & (ref > 0) & ends
                   & (np.abs(lengths - ref) > BONE_DEV_MAX * ref))
        # demote the outer joint of the bone (larger joint index is
        # further from the torso in the COCO ordering)
        demote = np.zeros(present.shape, dtype=bool)
        k, b = np.nonzero(bad)
        demote[k, np.maximum(_BONE_J0, _BONE_J1)[b]] = True
        conf = np.where(demote, raw.conf[rows] * 0.1, raw.conf[rows])

        k, b = np.nonzero(ends)
        at = (slot[k], b)
        self._bones[at + (self._heads[at],)] = lengths[k, b]
        self._heads[at] = (self._heads[at] + 1) % BONE_WINDOW
        self._counts[at] = np.minimum(self._counts[at] + 1, BONE_WINDOW)
        self._pos[slot], self._vel[slot] = pos, vel
        self._present[slot] = present
        self._centroids[slot] = _centroids(pos, present)
        self._matched_s[slot] = self._clock_s
        ids = self.track_ids[slot]
        raw.person_ids[rows] = ids
        return SkeletonSet(raw.timestamp_us, ids, pos, conf, raw.n_views[rows], present, vel,
                           present.copy())


def format_skeleton_log(skels: SkeletonSet) -> str:
    """Newline-delimited `timestamp person_id joint x y z conf n_views`."""
    k, j = np.nonzero(skels.present)
    lines = [f"{skels.timestamp_us} {pid} {jj} {x:.6f} {y:.6f} {z:.6f} {c:.4f} {n}"
             for pid, jj, (x, y, z), c, n in zip(
                 skels.person_ids[k].tolist(), j.tolist(), skels.pos[k, j].tolist(),
                 skels.conf[k, j].tolist(), skels.n_views[k, j].tolist())]
    return "\n".join(lines) + ("\n" if lines else "")
