import copy
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgrid import protocol, synthworld
from semgrid.geometry import CameraCalib
from semgrid.pose import (
    ALPHA_DELAY,
    ALPHA_POS,
    ALPHA_VEL,
    BONES,
    CONF_MIN,
    MIN_RAY_ANGLE_DEG,
    NUM_JOINTS,
    TAU_EPI,
    TAU_TRI,
    TRACK_GATE,
    TRACK_STALE_S,
    VEL_MAX,
    PoseSet2p5D,
    SkeletonSet,
    SkeletonTracker,
    associate,
    format_skeleton_log,
    make_feedback,
    triangulate_group,
    triangulate_points,
    update_delay,
    _pair_costs,
    _view_arrays,
)
from semgrid.sim import SimConfig, simulate
from semgrid.voxmap import VoxelMap
from tests import oracles
from tests.conftest import make_ring_calibs, pose_set, skeletons
from tests.oracles import (
    backproject,
    epipolar_line,
    epipolar_segment,
    point_line_distance,
    point_segment_distance,
    predict,
    project,
    triangulate_joint,
)


def observations_of(point, calibs, conf=0.9, noise=None, rng=None):
    obs = []
    for calib in calibs:
        uvd = project(calib, point)
        if uvd is None:
            continue
        u, v, _ = uvd
        if noise:
            u += rng.normal(scale=noise)
            v += rng.normal(scale=noise)
        obs.append((calib, u, v, conf))
    return obs


def skeleton_with(joint_positions: dict[int, np.ndarray], ts=0,
                  conf=0.9) -> SkeletonSet:
    """One skeleton, id 0, of the given joints."""
    return skeletons(ts, [(0, {j: (p, conf, 2) for j, p in joint_positions.items()})])


def at_points(*points) -> SkeletonSet:
    """One single-joint skeleton at each point, ids not yet issued."""
    return skeletons(0, [(-1, {0: (p, 0.9, 2)}) for p in points])


def with_velocity(skels: SkeletonSet, j: int, vel, row: int = 0) -> SkeletonSet:
    skels.vel[row, j], skels.has_vel[row, j] = vel, True
    return skels


def assert_same_skeletons(got: SkeletonSet, want: SkeletonSet) -> None:
    """Equal bit for bit: every array's dtype, shape and bytes."""
    assert got.timestamp_us == want.timestamp_us
    for name in ("person_ids", "pos", "conf", "n_views", "present", "vel", "has_vel"):
        x, y = getattr(got, name), getattr(want, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


class TestTriangulateJoint:
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.3, 1.9))
    def test_noiseless_recovery(self, x, y, z):
        calibs = make_ring_calibs()
        p = np.array([x, y, z])
        result = triangulate_joint(observations_of(p, calibs))
        assert result is not None
        pos, residual = result
        assert np.linalg.norm(pos - p) <= 1e-6
        assert residual <= 1e-6

    def test_single_view_rejected(self):
        calibs = make_ring_calibs()
        p = np.array([0.2, 0.1, 1.0])
        assert triangulate_joint(observations_of(p, calibs[:1])) is None

    def test_near_parallel_rays_rejected(self):
        # two cameras almost at the same place see almost parallel rays
        a = make_ring_calibs(1, radius=4.0)[0]
        b = make_ring_calibs(1, radius=4.001)[0]
        p = np.array([0.0, 0.0, 1.0])
        obs = observations_of(p, [a, b])
        assert triangulate_joint(obs) is None

    def test_residual_gate(self):
        calibs = make_ring_calibs()
        p = np.array([0.0, 0.0, 1.0])
        obs = observations_of(p, calibs)
        # push one observation far off; the joint fit degrades past the gate
        calib, u, v, conf = obs[0]
        obs[0] = (calib, u + 400.0, v, conf)
        assert triangulate_joint(obs) is None

    def test_noisy_recovery_reasonable(self):
        rng = np.random.default_rng(0)
        calibs = make_ring_calibs()
        errs = []
        for _ in range(50):
            p = rng.uniform([-1, -1, 0.4], [1, 1, 1.8])
            result = triangulate_joint(
                observations_of(p, calibs, noise=2.0, rng=rng))
            if result is not None:
                errs.append(np.linalg.norm(result[0] - p))
        assert len(errs) >= 40
        assert np.median(errs) < 0.05


def reference_pair_cost(pose_a, calib_a, pose_b, calib_b, use_depth, gate=TAU_EPI):
    """Per person pair of views a and b, the mean over their shared
    usable joints of the b keypoint's distance to the a keypoint's
    epipolar line, one keypoint at a time.  With use_depth an a keypoint
    with depth uses the segment of its depth interval +- 2 sigma instead,
    and a b keypoint farther than gate from it is no correspondence."""

    def usable(ps, i, j):
        return bool(ps.present[i, j] and ps.keypoints[i, j, 2] >= CONF_MIN
                    and not ps.from_feedback[i, j])

    cost = np.full((len(pose_a.person_ids), len(pose_b.person_ids)), np.inf)
    for i in range(len(pose_a.person_ids)):
        for q in range(len(pose_b.person_ids)):
            dists = []
            for j in range(NUM_JOINTS):
                if not (usable(pose_a, i, j) and usable(pose_b, q, j)):
                    continue
                ua, va, _, depth, sigma = pose_a.keypoints[i, j].tolist()
                ub, vb = pose_b.keypoints[q, j, :2].tolist()
                seg = None
                if use_depth and not math.isnan(depth):
                    lo = max(depth - 2 * sigma, 1e-3)
                    hi = max(depth + 2 * sigma, lo)
                    seg = epipolar_segment(calib_a, calib_b, (ua, va), (lo, hi))
                if seg is not None:
                    dist = point_segment_distance((ub, vb), *seg)
                    if dist <= gate:
                        dists.append(dist)
                else:
                    line = epipolar_line(calib_a, calib_b, (ua, va))
                    dists.append(point_line_distance(line, (ub, vb)))
            if dists:
                cost[i, q] = np.mean(dists)
    return cost


class TestAssociate:
    def _views(self, people, calibs, conf=0.9):
        views = []
        for calib in calibs:
            persons = []
            for pid, center in enumerate(people):
                joints = {}
                uvd = project(calib, center)
                if uvd is not None:
                    joints[0] = (uvd[0], uvd[1], conf)
                    joints[5] = (uvd[0] + 5, uvd[1] + 5, conf)
                persons.append((pid, joints))
            views.append(pose_set(calib.sensor_id, 0, persons))
        return views

    def test_two_people_grouped_across_views(self):
        calibs = make_ring_calibs()
        people = [np.array([-0.8, 0.0, 1.2]), np.array([0.9, 0.3, 1.2])]
        views = self._views(people, calibs)
        rows = associate(views, {c.sensor_id: c for c in calibs})
        assert rows.shape == (2, 4) and (rows >= 0).all()
        for group in rows.tolist():  # the same person everywhere
            assert len({int(v.person_ids[row]) for v, row in zip(views, group)}) == 1

    def test_low_confidence_not_grouped(self):
        calibs = make_ring_calibs()
        views = self._views([np.array([0.0, 0.0, 1.2])], calibs,
                            conf=CONF_MIN / 2)
        # without usable joints a detection forms no group, not even its own
        assert associate(views, {c.sensor_id: c for c in calibs}).shape == (0, 4)

    def test_empty(self):
        assert associate([], {}).shape == (0, 0)

    @pytest.mark.parametrize("use_depth", [False, True])
    def test_pair_costs_match_reference(self, use_depth):
        rng = np.random.default_rng(5 + use_depth)
        calibs = make_ring_calibs()
        checked = 0
        for _ in range(20):
            views = []
            for calib in calibs:
                persons = []
                for pid in range(int(rng.integers(0, 4))):
                    center = rng.uniform([-1.0, -1.0, 0.8], [1.0, 1.0, 1.6])
                    joints = {}
                    for j in rng.choice(NUM_JOINTS, size=10, replace=False):
                        u, v, z = project(calib, center + rng.normal(scale=0.2, size=3))
                        depth = z + rng.normal(scale=0.1) if rng.random() < 0.6 else None
                        joints[int(j)] = (
                            u + rng.normal(scale=3.0), v + rng.normal(scale=3.0),
                            float(rng.uniform(0.2, 1.0)), depth,
                            None if depth is None else float(rng.uniform(0.02, 0.3)),
                            bool(rng.random() < 0.1))
                    persons.append((pid, joints))
                views.append(pose_set(calib.sensor_id, 0, persons))
            if not any(len(v.person_ids) for v in views):
                continue
            # the pairs a < b that association reads, in np.triu_indices order
            upper = np.triu_indices(len(views), 1)
            cost = _pair_costs(*_view_arrays(views), calibs, upper, use_depth)
            pairs = list(zip(*upper))
            assert len(cost) == len(pairs)
            for got, (a, b) in zip(cost, pairs):
                va, ca, vb, cb = views[a], calibs[a], views[b], calibs[b]
                ref = reference_pair_cost(va, ca, vb, cb, use_depth)
                got = got[: len(va.person_ids), : len(vb.person_ids)]
                assert np.array_equal(np.isinf(got), np.isinf(ref))
                fin = np.isfinite(ref)
                assert np.allclose(got[fin], ref[fin], rtol=1e-7, atol=1e-7)
                checked += int(fin.sum())
        assert checked > 100


class TestTriangulateGroup:
    def test_two_view_joint(self):
        calibs = make_ring_calibs()
        p = np.array([0.1, -0.2, 1.4])
        persons = {}
        for calib in calibs[:2]:
            u, v, _ = project(calib, p)
            persons[calib.sensor_id] = pose_set(calib.sensor_id, 0, [(0, {7: (u, v, 0.8)})])
        skels, group_of = triangulate_group(list(persons.values()), np.array([[0, 0]]),
                                            {c.sensor_id: c for c in calibs}, 123)
        assert group_of.tolist() == [0] and skels.person_ids.tolist() == [-1]
        assert skels.present[0, 7]
        assert np.linalg.norm(skels.pos[0, 7] - p) <= 1e-6
        assert skels.n_views[0, 7] == 2

    def test_single_depth_view_backprojects(self):
        calib = make_ring_calibs()[0]
        p = np.array([0.1, -0.2, 1.4])
        u, v, depth = project(calib, p)
        views = [pose_set(0, 0, [(0, {0: (u, v, 0.8, depth, 0.05)})])]
        skels, group_of = triangulate_group(views, np.array([[0]]), {0: calib}, 0)
        assert group_of.tolist() == [0]
        assert skels.present[0, 0]
        assert np.linalg.norm(skels.pos[0, 0] - p) <= 1e-9
        assert skels.n_views[0, 0] == 1

    def test_feedback_joints_excluded(self):
        calibs = make_ring_calibs()
        p = np.array([0.1, -0.2, 1.4])
        persons = {}
        for calib in calibs[:2]:
            u, v, _ = project(calib, p)
            persons[calib.sensor_id] = pose_set(
                calib.sensor_id, 0, [(0, {7: (u, v, 0.8, None, None, True)})])
        skels, group_of = triangulate_group(list(persons.values()), np.array([[0, 0]]),
                                            {c.sensor_id: c for c in calibs}, 0)
        assert len(skels) == 0 and group_of.tolist() == []

    def test_no_groups(self):
        skels, group_of = triangulate_group([pose_set(0, 0)], np.empty((0, 1), dtype=np.int64),
                                            {0: make_ring_calibs()[0]}, 5)
        assert_same_skeletons(skels, SkeletonSet(5))
        assert group_of.tolist() == []


def reference_triangulate_joint(observations, tau_tri=TAU_TRI,
                                min_angle_deg=MIN_RAY_ANGLE_DEG):
    """Plain per-joint confidence-weighted DLT, one view at a time.

    Returns (position, residual px, None) or (None, None, reason) with
    reason one of "views", "parallel", "singular", "behind", "residual".
    """
    if len(observations) < 2:
        return None, None, "views"
    dirs = []
    for calib, u, v, _ in observations:
        d = calib.rotation @ np.array([(u - calib.cx) / calib.fx,
                                       (v - calib.cy) / calib.fy, 1.0])
        dirs.append(d / np.linalg.norm(d))
    min_cos = min(float(a @ b) for i, a in enumerate(dirs) for b in dirs[i + 1:])
    if min_cos > math.cos(math.radians(min_angle_deg)):
        return None, None, "parallel"
    ata = np.zeros((3, 3))
    atb = np.zeros(3)
    for calib, u, v, conf in observations:
        R, t = calib.rotation, calib.translation
        w2 = max(conf, 1e-3) ** 2
        # (u - cx) z_cam = fx x_cam and (v - cy) z_cam = fy y_cam, with
        # the camera coordinates R^T (p - t)
        for row in ((u - calib.cx) * R[:, 2] - calib.fx * R[:, 0],
                    (v - calib.cy) * R[:, 2] - calib.fy * R[:, 1]):
            ata += w2 * np.outer(row, row)
            atb += w2 * row * (row @ t)
    if abs(np.linalg.det(ata)) < 1e-12:
        return None, None, "singular"
    x = np.linalg.solve(ata, atb)
    total = 0.0
    for calib, u, v, _ in observations:
        pc = calib.world_to_cam(x)
        if pc[2] <= 1e-6:
            return None, None, "behind"
        total += math.hypot(calib.cx + calib.fx * pc[0] / pc[2] - u,
                            calib.cy + calib.fy * pc[1] / pc[2] - v)
    res = total / len(observations)
    if res > tau_tri:
        return None, None, "residual"
    return x, res, None


def reference_triangulate_group(persons, calibs):
    """Per joint: reference triangulation of the confident, non-feedback
    keypoints; a joint seen so by one depth view back-projects its depth.
    persons: sensor id -> {joint: (u, v, conf, depth, sigma, from
    feedback)}.  Returns (17 x (position, n_views) or None, 17 x reason)."""
    out, reasons = [None] * NUM_JOINTS, [None] * NUM_JOINTS
    for j in range(NUM_JOINTS):
        seen = [(sid, kp) for sid, joints in persons.items()
                if (kp := joints.get(j)) is not None and kp[2] >= CONF_MIN and not kp[5]]
        if len(seen) == 1:
            sid, (u, v, _, depth, _, _) = seen[0]
            reasons[j] = "single"
            if depth is not None:
                out[j] = (backproject(calibs[sid], u, v, depth), 1)
            continue
        pos, _, reasons[j] = reference_triangulate_joint(
            [(calibs[sid], kp[0], kp[1], kp[2]) for sid, kp in seen])
        if pos is not None:
            out[j] = (pos, len(seen))
    return out, reasons


def _random_group(rng, calibs, n_views):
    """One person seen by n_views of the calibs: per joint a random point
    near the rig centre, projected with pixel noise; some joints get
    gross outliers, some are hidden, feedback-sourced, unconfident or
    carry depth, so that every gate of the triangulation is reached."""
    sids = sorted(rng.choice(len(calibs), size=n_views, replace=False).tolist())
    points = rng.uniform([-1.0, -1.0, 0.3], [1.0, 1.0, 1.9], size=(NUM_JOINTS, 3))
    persons = {}
    for sid in sids:
        calib = calibs[sid]
        joints = {}
        for j in range(NUM_JOINTS):
            if rng.random() < 0.2:
                continue
            u, v, z = project(calib, points[j])
            kind = rng.random()
            if kind < 0.1:  # a gross outlier, anywhere in the image
                u, v = rng.uniform(0, calib.width), rng.uniform(0, calib.height)
            else:
                u, v = u + rng.normal(scale=2.0), v + rng.normal(scale=2.0)
            conf = float(rng.uniform(0.2, 1.0))
            depth = float(z) if rng.random() < 0.5 else None
            joints[j] = (float(u), float(v), conf, depth, None if depth is None else 0.05,
                         bool(rng.random() < 0.1))
        persons[sid] = joints
    return persons


class TestBatchedTriangulation:
    """triangulate_points / triangulate_group against the per-joint
    reference above, over random groups."""

    def _rig(self):
        calibs = make_ring_calibs(6)
        # a camera at the same place as camera 0 and looking the same
        # way: its rays are parallel to camera 0's
        c0 = calibs[0]
        calibs.append(CameraCalib(6, c0.width, c0.height, c0.fx, c0.fy, c0.cx, c0.cy,
                                  c0.rotation, c0.translation + 1e-3))
        return calibs

    def test_matches_reference_over_random_groups(self):
        rng = np.random.default_rng(11)
        calibs = self._rig()
        by_id = {c.sensor_id: c for c in calibs}
        reasons_seen = set()
        for _ in range(300):
            persons = _random_group(rng, calibs, int(rng.integers(1, 5)))
            ref, reasons = reference_triangulate_group(persons, by_id)
            reasons_seen.update(reasons)
            views = [pose_set(sid, 0, [(0, joints)]) for sid, joints in persons.items()]
            skels, _ = triangulate_group(views, np.zeros((1, len(views)), dtype=np.int64), by_id, 0)
            got = skels.present[0] if len(skels) else np.zeros(NUM_JOINTS, dtype=bool)
            for j in range(NUM_JOINTS):
                if ref[j] is None:
                    assert not got[j], (j, reasons[j])
                    continue
                assert got[j], j
                pos, n_views = ref[j]
                assert skels.n_views[0, j] == n_views
                assert np.abs(skels.pos[0, j] - pos).max() <= 1e-9
        # every gate was exercised
        assert {"single", "views", "parallel", "behind", "residual", None} <= reasons_seen

    def test_point_behind_a_seeing_camera_rejected(self):
        # cameras 0 and 2 of the ring face each other across the target;
        # a point beyond camera 2 is in front of camera 0 only.  Its
        # pixel in camera 2, projected through the centre from behind,
        # fits the DLT exactly, so only the cheirality gate rejects it.
        calibs = make_ring_calibs()
        a, b = calibs[0], calibs[2]
        p = b.center + 0.5 * (b.center - a.center) + np.array([0.0, 0.1, 0.0])
        uv = []
        for c in (a, b):
            pc = c.world_to_cam(p)
            uv.append((c.cx + c.fx * pc[0] / pc[2], c.cy + c.fy * pc[1] / pc[2]))
        assert b.world_to_cam(p)[2] < 0 < a.world_to_cam(p)[2]
        obs = [(a, *uv[0], 0.9), (b, *uv[1], 0.9)]
        assert reference_triangulate_joint(obs)[2] == "behind"
        assert triangulate_joint(obs) is None

    def test_points_batch_matches_single_joints(self):
        rng = np.random.default_rng(12)
        calibs = self._rig()
        n_views, n_pts = len(calibs), 200
        uv = np.stack([rng.uniform([0, 0], [c.width, c.height], size=(n_pts, 2))
                       for c in calibs])
        points = rng.uniform([-1.0, -1.0, 0.3], [1.0, 1.0, 1.9], size=(n_pts, 3))
        for i, c in enumerate(calibs):
            good = rng.random(n_pts) < 0.7
            uv[i, good] = [project(c, p)[:2] for p in points[good]]
        conf = rng.uniform(0.1, 1.0, size=(n_views, n_pts))
        seen = rng.random((n_views, n_pts)) < 0.5
        pos, res, ok = triangulate_points(calibs, uv, conf, seen)
        for j in range(n_pts):
            obs = [(calibs[i], uv[i, j, 0], uv[i, j, 1], conf[i, j])
                   for i in range(n_views) if seen[i, j]]
            ref_pos, ref_res, _ = reference_triangulate_joint(obs)
            assert ok[j] == (ref_pos is not None)
            if ok[j]:
                assert np.abs(pos[j] - ref_pos).max() <= 1e-9
                assert abs(res[j] - ref_res) <= 1e-9
            single = triangulate_joint(obs)
            assert (single is None) == (ref_pos is None)
            if single is not None:
                assert np.abs(single[0] - ref_pos).max() <= 1e-9


@st.composite
def fusion_ticks(draw):
    """The views of one tick, in shuffled sensor order, with their
    cameras: up to 5 views of 0-12 persons each.  A person is one of six
    bodies near the rig centre (so that association groups it across
    views), a ghost made only of feedback keypoints, or clutter seen in
    no other view; depth is on or off per view, so a single-view group
    has depth or not.  Some joints are unconfident or from feedback, and
    person ids may repeat within a view."""
    n_views = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(0, 12), min_size=n_views, max_size=n_views))
    with_depth = draw(st.lists(st.booleans(), min_size=n_views, max_size=n_views))
    repeat_ids = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    calibs = make_ring_calibs(n_views)
    bodies = (rng.uniform([-1.5, -1.5, 0.9], [1.5, 1.5, 1.1], size=(6, 1, 3))
              + rng.normal(scale=0.3, size=(6, NUM_JOINTS, 3)))
    views = []
    for calib, n, depth_on in zip(calibs, counts, with_depth):
        ids = rng.choice(3 * n if repeat_ids else 1000, size=n, replace=repeat_ids)
        persons = []
        for pid in ids.tolist():
            kind = rng.random()
            ghost = kind < 0.2
            points = (bodies[rng.integers(6)] if kind < 0.8
                      else rng.uniform([-2.0, -2.0, 0.0], [2.0, 2.0, 2.0], size=(NUM_JOINTS, 3)))
            joints = {}
            for j in range(NUM_JOINTS):
                uvd = project(calib, points[j])
                if uvd is None or rng.random() < 0.15:
                    continue
                u, v, z = uvd
                depth = z + rng.normal(scale=0.05) if depth_on and rng.random() < 0.7 else None
                joints[j] = (u + rng.normal(scale=2.0), v + rng.normal(scale=2.0),
                             float(rng.uniform(0.2, 1.0)), depth,
                             None if depth is None else float(rng.uniform(0.02, 0.3)),
                             ghost or bool(rng.random() < 0.1))
            persons.append((pid, joints))
        views.append(pose_set(calib.sensor_id, 0, persons))
    order = rng.permutation(n_views)
    return [views[i] for i in order], calibs


class TestBatchedFusionMatchesOracles:
    """_pair_costs, associate and triangulate_group against the full-matrix
    and per-group forms in tests/oracles.py, bit for bit."""

    @given(tick=fusion_ticks(), use_depth=st.booleans())
    @settings(max_examples=150)
    def test_bit_for_bit(self, tick, use_depth):
        views, calibs = tick
        by_id = {c.sensor_id: c for c in calibs}
        views = sorted(views, key=lambda v: v.sensor_id)
        upper = np.triu_indices(len(views), 1)
        cost = _pair_costs(*_view_arrays(views), calibs, upper, use_depth)
        full = oracles.pair_costs_full(views, calibs, use_depth)
        assert cost.tobytes() == full[upper].tobytes()

        # the oracle sizes its costs by every person, and skips the ones
        # without a usable keypoint only when it opens groups
        rows = associate(views, by_id, use_depth)
        want_rows = oracles.associate(views, by_id, use_depth)
        assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
        assert np.array_equal(rows, want_rows)
        # every row is in range, every group has a member, no view row is
        # in two groups and every member has a usable keypoint
        counts = np.array([len(v.person_ids) for v in views])
        assert ((rows >= -1) & (rows < counts)).all()
        member = rows >= 0
        assert member.any(axis=1).all()
        view, row = np.nonzero(member)[1], rows[member]
        assert len(set(zip(view.tolist(), row.tolist()))) == len(row)
        assert _view_arrays(views)[1].any(axis=-1)[view, row].all()
        got, got_groups = triangulate_group(views, rows, by_id, 7)
        want, want_groups = oracles.triangulate_group(views, rows, by_id, 7)
        assert got_groups.tolist() == want_groups.tolist()
        assert_same_skeletons(got, want)


def track(*frames, dt=0.1) -> list[SkeletonSet]:
    """A fresh tracker's output for each frame of one skeleton's joints."""
    tracker = SkeletonTracker()
    return [tracker.update(skeleton_with(joints), dt) for joints in frames]


class TestRefineAndPredict:
    def test_position_ema(self):
        first, out = track({0: [0.0, 0.0, 1.0]}, {0: [0.1, 0.0, 1.0]})
        assert out.person_ids.tolist() == first.person_ids.tolist()
        assert abs(out.pos[0, 0, 0] - ALPHA_POS * 0.1) <= 1e-12

    def test_velocity_capped(self):
        first, out = track({0: [0.0, 0.0, 1.0]}, {0: [0.7, 0.0, 1.0]}, dt=0.01)  # 70 m/s
        assert out.person_ids.tolist() == first.person_ids.tolist()
        assert 0 < np.linalg.norm(out.vel[0, 0]) <= ALPHA_VEL * VEL_MAX + 1e-9

    def test_velocity_ema(self):
        _, mid, out = track({0: [0.0, 0.0, 1.0]}, {0: [0.1, 0.0, 1.0]}, {0: [0.1, 0.0, 1.0]})
        step = (out.pos[0, 0] - mid.pos[0, 0]) / 0.1
        expected = ALPHA_VEL * step + (1 - ALPHA_VEL) * mid.vel[0, 0]
        assert mid.has_vel[0, 0] and np.abs(out.vel[0, 0] - expected).max() <= 1e-12

    def test_bone_outlier_demoted(self):
        j0, j1 = BONES[0]
        usual = {j0: [0.0, 0.0, 1.0], j1: [0.0, 0.0, 1.25]}
        # three samples of 0.25 m make the running median; the fourth
        # frame stretches the bone to 1 m, 0.51 m after smoothing
        *_, out = track(usual, usual, usual, {j0: [0.0, 0.0, 1.0], j1: [0.0, 0.0, 2.0]})
        assert out.conf[0, max(j0, j1)] < 0.2
        assert out.conf[0, min(j0, j1)] == 0.9

    def test_predict_advances_and_decays(self):
        skel, = oracles.skeleton_rows(
            with_velocity(skeleton_with({0: [1.0, 2.0, 1.0]}, conf=0.8), 0, [0.5, 0.0, 0.0]))
        out = predict(skel, 0.2)
        assert np.abs(out.pos[0] - [1.1, 2.0, 1.0]).max() <= 1e-12
        assert out.conf[0] < 0.8

    def test_predict_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            predict(oracles.skeleton_rows(skeleton_with({0: [0, 0, 1.0]}))[0], -0.1)


def feedback_one(skels, calib, vmap, delay_s):
    """make_feedback's rows for one camera."""
    return make_feedback(skels, [calib], vmap, [delay_s])[0]


def _looking_away(calib: CameraCalib, sensor_id: int) -> CameraCalib:
    """A camera at calib's centre facing the other way."""
    R = calib.rotation * [-1.0, 1.0, -1.0]  # right and forward flipped, det stays +1
    return CameraCalib(sensor_id, calib.width, calib.height, calib.fx, calib.fy,
                       calib.cx, calib.cy, R, calib.translation)


# two voxels thick between camera 0 of the ring and the middle of the room,
# so joints there are occluded from camera 0 and seen from the others
_WALL = np.array([[x, y, z] for x in (2.05, 2.15) for y in np.arange(-0.5, 0.55, 0.1)
                  for z in np.arange(0.5, 2.05, 0.1)])
_FEEDBACK_MAP = VoxelMap()
_FEEDBACK_MAP.load_prior(_WALL)
_FEEDBACK_CALIBS = make_ring_calibs() + [_looking_away(make_ring_calibs()[0], 4)]


@st.composite
def feedback_skeletons(draw):
    """Up to 4 skeletons of random joints around the room's middle, some
    moving, with distinct ids."""
    persons = []
    for pid in draw(st.lists(st.integers(0, 2**31), max_size=4, unique=True)):
        persons.append((pid, draw(st.dictionaries(
            st.integers(0, NUM_JOINTS - 1),
            st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5), st.floats(0.0, 2.5),
                      st.floats(0.05, 1.0), st.booleans()),
            min_size=1, max_size=8))))
    skels = skeletons(0, [(pid, {j: ((x, y, z), c, 2) for j, (x, y, z, c, _) in joints.items()})
                          for pid, joints in persons])
    for row, (_, joints) in enumerate(persons):
        for j, (*_, moving) in joints.items():
            if moving:
                with_velocity(skels, j, draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3)), row)
    return skels


class TestFeedback:
    def test_projection_and_no_occlusion(self):
        calib = make_ring_calibs()[0]
        p = np.array([0.0, 0.0, 1.0])
        ids, uvc, present, occluded = feedback_one(skeleton_with({0: p}), calib,
                                                   VoxelMap(), 0.0)
        assert ids.tolist() == [0]
        assert present[0, 0]
        fu, fv, _ = uvc[0, 0]
        u, v, _ = project(calib, p)
        assert abs(fu - u) <= 1e-9 and abs(fv - v) <= 1e-9
        assert not occluded[0, 0]

    def test_occlusion_flag_behind_wall(self):
        calib = make_ring_calibs()[0]  # at (4, 0, 2) looking at origin
        p = np.array([0.0, 0.0, 1.0])
        # a slab of occupied voxels between camera and target, two voxels
        # thick (k=2)
        _, _, present, occluded = feedback_one(skeleton_with({0: p}), calib,
                                               _FEEDBACK_MAP, 0.0)
        assert present[0, 0] and occluded[0, 0]

    def test_behind_camera_dropped(self):
        calib = make_ring_calibs()[0]  # looks towards origin from (4,0,2)
        p = calib.translation + calib.rotation[:, 2] * -2.0  # behind
        ids, uvc, present, occluded = feedback_one(skeleton_with({0: p}), calib,
                                                   VoxelMap(), 0.0)
        assert len(ids) == 0
        assert (uvc.shape, present.shape, occluded.shape) == (
            (0, NUM_JOINTS, 3), (0, NUM_JOINTS), (0, NUM_JOINTS))

    def test_delay_prediction_applied(self):
        calib = make_ring_calibs()[0]
        skel = with_velocity(skeleton_with({0: [0.0, 0.0, 1.0]}), 0, [0.0, 1.0, 0.0])
        still = feedback_one(skel, calib, VoxelMap(), 0.0)[1][0, 0]
        moved = feedback_one(skel, calib, VoxelMap(), 0.2)[1][0, 0]
        assert abs(moved[0] - still[0]) > 1.0  # the sideways motion shows up

    @given(feedback_skeletons(),
           st.lists(st.floats(0.0, 0.5), min_size=len(_FEEDBACK_CALIBS),
                    max_size=len(_FEEDBACK_CALIBS)),
           st.sampled_from(["map", "off", "no map"]))
    @settings(max_examples=60)
    def test_batched_equals_per_camera(self, skels, delays, occlusion):
        """One call for all cameras equals the per-camera reference bit for
        bit: no skeletons, a camera that sees none of them (the last one
        looks away), occlusion off or without a map, and a delay per
        camera."""
        vmap = None if occlusion == "no map" else _FEEDBACK_MAP
        got = make_feedback(skels, _FEEDBACK_CALIBS, vmap, delays,
                            compute_occlusion=occlusion != "off")
        assert len(got) == len(_FEEDBACK_CALIBS)
        for calib, delay, rows in zip(_FEEDBACK_CALIBS, delays, got):
            want = oracles.make_feedback_one(oracles.skeleton_rows(skels), calib, vmap, delay,
                                             compute_occlusion=occlusion != "off")
            for a, b in zip(rows, want):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert len(got[-1][0]) == 0  # the camera looking away sees no one

    def test_occlusion_differs_between_cameras(self):
        # the wall hides the middle of the room from camera 0 only, so one
        # batched query must keep each joint's own origin
        skel = skeleton_with({0: [0.0, 0.0, 1.0]})
        rows = make_feedback(skel, _FEEDBACK_CALIBS[:4], _FEEDBACK_MAP, [0.0] * 4)
        assert [bool(occ[0, 0]) for _, _, _, occ in rows] == [True, False, False, False]


class TestTrackerAndLog:
    def test_stable_ids(self):
        tracker = SkeletonTracker()
        first = tracker.update(at_points([0.0, 0.0, 1.0], [2.0, 0.0, 1.0]), 1 / 30)
        ids = dict(zip(first.pos[:, 0, 0].tolist(), first.person_ids.tolist()))
        second = tracker.update(at_points([2.05, 0.0, 1.0], [0.05, 0.0, 1.0]), 1 / 30)
        for x, pid in zip(second.pos[:, 0, 0].tolist(), second.person_ids.tolist()):
            assert pid == ids[0.0 if x < 1 else 2.0]

    def test_new_id_outside_gate(self):
        tracker = SkeletonTracker()
        first = tracker.update(at_points([0.0, 0.0, 1.0]), 1 / 30)
        second = tracker.update(at_points([5.0, 0.0, 1.0]), 1 / 30)
        assert second.person_ids[0] != first.person_ids[0]

    def test_stale_tracks_retired(self):
        # A stays; B leaves for 1.5 s at a time and keeps its id; C leaves
        # for 4.7 s at a time and comes back under a new one
        tracker = SkeletonTracker()
        dt = 1 / 30
        assert TRACK_STALE_S == 2.0  # the backend's STALE_S
        recent = deque(maxlen=int(round(TRACK_STALE_S / dt)) + 1)  # ids of this window
        ids = {"A": set(), "B": set(), "C": set()}
        for k in range(900):
            here = {"A": [0.0, 0.0, 1.0]}
            if (k // 45) % 2 == 0:
                here["B"] = [3.0, 0.0, 1.0]
            if k % 150 < 10:
                here["C"] = [-3.0, 0.0, 1.0]
            out = tracker.update(at_points(*here.values()), dt)
            # in match order, told apart by where they stand
            for x, pid in zip(out.pos[:, 0, 0].tolist(), out.person_ids.tolist()):
                ids["CAB"[int(np.sign(x)) + 1]].add(pid)
            recent.append(set(out.person_ids.tolist()))
            assert set(tracker.track_ids.tolist()) <= set().union(*recent)
        assert len(ids["A"]) == len(ids["B"]) == 1
        assert len(ids["C"]) == 6  # one id per return
        assert tracker.next_id == 8
        assert set(tracker.track_ids.tolist()) == ids["A"] | ids["B"]  # C's visit ended 4.7 s ago

    def test_update_delay_ema(self):
        assert update_delay(None, 0.1) == 0.1
        d = update_delay(0.1, 0.2)
        assert abs(d - ((1 - ALPHA_DELAY) * 0.1 + ALPHA_DELAY * 0.2)) <= 1e-15
        with pytest.raises(ValueError):
            update_delay(0.1, -0.1)

    def test_format_skeleton_log(self):
        skels = skeletons(42, [(7, {3: ([1.0, 2.0, 3.0], 0.9, 2)}),
                               (5, {1: ([0.5, 0.0, 1.0], 0.25, 1), 0: ([0.0, 0.0, 1.0], 0.5, 3)})])
        assert format_skeleton_log(skels) == (
            "42 7 3 1.000000 2.000000 3.000000 0.9000 2\n"
            "42 5 0 0.000000 0.000000 1.000000 0.5000 3\n"
            "42 5 1 0.500000 0.000000 1.000000 0.2500 1\n")
        assert format_skeleton_log(SkeletonSet(0)) == ""

    def test_skeleton_slot_validation(self):
        short = NUM_JOINTS - 1
        with pytest.raises(ValueError):
            SkeletonSet(0, np.zeros(1, dtype=np.int64), np.zeros((1, short, 3)),
                        np.zeros((1, short)), np.zeros((1, short), dtype=int),
                        np.ones((1, short), dtype=bool), np.zeros((1, short, 3)),
                        np.zeros((1, short), dtype=bool))
        with pytest.raises(ValueError):
            protocol.FeedbackMessage(0, 0, np.zeros(1, dtype=np.int64), np.zeros((1, short, 3)),
                                     np.ones((1, short), dtype=bool),
                                     np.zeros((1, short), dtype=bool))
        with pytest.raises(ValueError):
            PoseSet2p5D(0, 0, np.zeros(1, dtype=np.int64), np.zeros((1, short, 5)),
                        np.ones((1, short), dtype=bool), np.zeros((1, short), dtype=bool))
        # keypoint values are checked where they enter the backend, in the
        # POSE decoder
        for kp in ((1.0, 1.0, 1.5), (1.0, 1.0, 0.5, 1.0, None)):  # depth without sigma
            wire = protocol.encode(protocol.PoseMessage(pose_set(0, 0, [(0, {0: kp})])))
            with pytest.raises(protocol.MalformedPayloadError):
                protocol.decode(wire)


# where the persons of tracker_runs start, 0.2 m apart, so that distances
# tie, two skeletons fall nearest one track, and a skeleton stands
# exactly TRACK_GATE from a track born at a lattice point
_LATTICE = (-0.8, -0.4, -0.2, 0.0, 0.2, 0.4, 0.8, 1.6)


@st.composite
def tracker_runs(draw):
    """(dt_s, SkeletonSet) updates of one tracker.  Up to 5 persons stand
    at lattice points and step 0.2 m now and then; each is a single
    joint, a pair of joints, a body whose joints are partly absent (NaN)
    and some far off (bone-length outliers), or has no joint at all, and
    is seen in about three updates of four.  Steps are dyadic, so a track
    can be unmatched for exactly TRACK_STALE_S, and steps of 2 and 2.5 s
    retire tracks, whose persons come back under new ids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cast = [[np.array([draw(st.sampled_from(_LATTICE)), draw(st.sampled_from(_LATTICE)), 1.0]),
             draw(st.sampled_from(["joint", "pair", "body", "none"])),
             rng.normal(scale=0.3, size=(NUM_JOINTS, 3))]
            for _ in range(draw(st.integers(1, 5)))]
    updates = []
    for _ in range(draw(st.integers(1, 20))):
        dt = draw(st.sampled_from([1 / 32, 1 / 8, 3 / 4, 2.0, 5 / 2]))
        persons = []
        for person in cast:
            person[0] = person[0] + [0.2 * draw(st.integers(-1, 1)), 0.0, 0.0]
            at, kind, body = person
            if not draw(st.integers(0, 3)):
                continue
            joints = {}
            if kind == "joint":
                joints = {draw(st.integers(0, NUM_JOINTS - 1)): at}
            elif kind == "pair":
                joints = {5: at - [0.1, 0.0, 0.0], 6: at + [0.1, 0.0, 0.0]}
            elif kind == "body":
                jitter = rng.normal(scale=0.02, size=(NUM_JOINTS, 3))
                jitter[rng.random(NUM_JOINTS) < 0.15] *= rng.uniform(1.0, 30.0)
                joints = {j: at + body[j] + jitter[j]
                          for j in np.flatnonzero(rng.random(NUM_JOINTS) < 0.7).tolist()}
            persons.append((-1, {j: (p, float(rng.uniform(0.2, 1.0)), int(rng.integers(1, 4)))
                                 for j, p in joints.items()}))
        order = draw(st.permutations(range(len(persons))))
        updates.append((dt, skeletons(int(rng.integers(0, 2**40)), [persons[i] for i in order])))
    return updates


def replay_trackers(updates) -> None:
    """Run the columnar tracker and the per-skeleton oracle on the same
    updates; every output, every id written back into the input and the
    live tracks match bit for bit."""
    tracker, oracle = SkeletonTracker(), oracles.SkeletonTracker()
    for dt, raw in updates:
        raw, twin = copy.deepcopy(raw), copy.deepcopy(raw)
        assert_same_skeletons(tracker.update(raw, dt), oracle.update(twin, dt))
        assert raw.person_ids.tobytes() == twin.person_ids.tobytes()
        assert tracker.track_ids.tolist() == oracle.track_ids.tolist()
        assert tracker.next_id == oracle.next_id


@pytest.fixture(scope="module")
def crowd_updates():
    """The tracker inputs of the seed 1-3 units of the benchmark's
    crowd-8p workload (8 persons, 4 sensors, 20 ticks, poses only)."""
    units = []
    real = SkeletonTracker.update

    def spy(tracker, raw, dt_s):
        units[-1].append((dt_s, copy.deepcopy(raw)))
        return real(tracker, raw, dt_s)

    SkeletonTracker.update = spy
    try:
        for seed in (1, 2, 3):
            units.append([])
            scene = synthworld.make_default_scene(seed=seed, n_persons=8)
            simulate(scene, synthworld.make_camera_rig(scene), SimConfig(
                duration_s=20 / 30, integrate_clouds=False, map_source="structure"))
    finally:
        SkeletonTracker.update = real
    return units


class TestColumnarTrackerMatchesOracle:
    """SkeletonTracker against the per-skeleton tracker of tests/oracles.py."""

    @given(tracker_runs())
    @settings(max_examples=200)
    def test_bit_for_bit(self, updates):
        replay_trackers(updates)

    @pytest.mark.parametrize("tracks, points, want", [
        # two skeletons nearest one track, equally far: the first keeps it
        ([[0.2, 0.0, 1.0]], [[0.0, 0.0, 1.0], [0.4, 0.0, 1.0]], [0, 1]),
        # equal distances to two tracks: the first born wins
        ([[-0.4, 0.0, 1.0], [0.4, 0.0, 1.0]], [[0.0, 0.0, 1.0]], [0]),
        # exactly TRACK_GATE away is outside the gate
        ([[0.0, 0.0, 1.0]], [[TRACK_GATE, 0.0, 1.0]], [1]),
        # nearer skeletons are matched first, whatever their input order
        ([[0.0, 0.0, 1.0], [2.0, 0.0, 1.0]], [[0.4, 0.0, 1.0], [2.2, 0.0, 1.0], [0.2, 0.0, 1.0]],
         [2, 1, 0]),
    ])
    def test_named_cases(self, tracks, points, want):
        """want: the ids written into the input rows."""
        replay_trackers([(1 / 30, at_points(*tracks)), (1 / 30, at_points(*points))])
        tracker = SkeletonTracker()
        tracker.update(at_points(*tracks), 1 / 30)
        raw = at_points(*points)
        out = tracker.update(raw, 1 / 30)
        assert raw.person_ids.tolist() == want
        assert sorted(out.person_ids.tolist()) == sorted(want)

    def test_absent_skeleton_skipped(self):
        raw = skeletons(0, [(-1, {}), (-1, {2: ([0.0, 0.0, 1.0], 0.9, 2)})])
        out = SkeletonTracker().update(raw, 1 / 30)
        assert out.person_ids.tolist() == [0] and raw.person_ids.tolist() == [-1, 0]
        replay_trackers([(1 / 30, skeletons(0, [(-1, {}), (-1, {2: ([0.0, 0.0, 1.0], 0.9, 2)})]))])

    def test_retirement_and_rebirth(self):
        tracker = SkeletonTracker()
        first = tracker.update(at_points([0.0, 0.0, 1.0]), 1 / 30)
        tracker.update(SkeletonSet(0), TRACK_STALE_S)  # unmatched for exactly the limit: kept
        assert tracker.track_ids.tolist() == first.person_ids.tolist()
        tracker.update(SkeletonSet(0), 0.1)
        assert tracker.track_ids.tolist() == []
        assert tracker.update(at_points([0.0, 0.0, 1.0]), 1 / 30).person_ids.tolist() == [1]
        replay_trackers([(1 / 30, at_points([0.0, 0.0, 1.0])), (TRACK_STALE_S, SkeletonSet(0)),
                         (0.1, SkeletonSet(0)), (1 / 30, at_points([0.0, 0.0, 1.0]))])

    def test_crowd_units(self, crowd_updates):
        for updates in crowd_updates:
            assert len(updates) == 20 and sum(len(raw) for _, raw in updates) > 100
            replay_trackers(updates)
