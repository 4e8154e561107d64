"""Per-sensor point-cloud pipeline.

Back-projects a depth image, downsamples on a 5 cm grid, removes sparse
outliers, clusters the above-ground points and attaches a class
distribution to every point by sampling the segmentation mask and fusing
overlapping detections.

The outlier filter and the clustering run on one cell grid
(`_cell_grid`): points sorted by cell key, with the runs of occupied
cells around each cell.  The filter counts the points in the 5x5x5 block
of cells around each point, from the run bounds alone, and drops the
points whose count lies more than a standard deviation below the mean.
The clustering is exact grid DBSCAN with minPts = 1: its cells are small
enough to be cliques, so only neighbour cells still in different
components need their point pairs tested.  The components come from a
hook-and-jump labelling in numpy, so the pipeline needs no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import semantics
from .geometry import (
    KEY_WEIGHTS,
    CameraCalib,
    VoxelRangeError,
    pack_voxel_keys,
    project,
    voxel_indices_of,
)
from .semantics import NUM_CLASSES

CLOUD_VOXEL_RES = 0.05
OUTLIER_STDDEV_MULT = 1.0
CLUSTER_DIST = 0.25
MIN_CLUSTER = 10
FLOOR_Z = 0.10
NMS_IOU = 0.5
# the most point pairs clustering tests at once
_PAIR_BLOCK = 1 << 20


@dataclass
class DepthImage:
    width: int
    height: int
    depth: np.ndarray  # (height, width) meters, 0 = invalid
    timestamp_us: int = 0

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=np.float64).reshape(self.height, self.width)
        if not np.all(np.isfinite(self.depth)) or np.any(self.depth < 0):
            raise ValueError("depth entries must be finite and non-negative")


@dataclass
class SemanticCloud:
    """Downsampled sensor-frame points with per-point class distributions.

    Stored columnar: positions (N,3) and log-probability rows (N,C).
    """

    sensor_id: int
    timestamp_us: int
    positions: np.ndarray
    log_probs: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.log_probs = np.asarray(self.log_probs, dtype=np.float64).reshape(
            -1, NUM_CLASSES
        )
        if len(self.positions) != len(self.log_probs):
            raise ValueError("positions and log_probs must align")

    def __len__(self):
        return len(self.positions)

    def argmax_classes(self) -> np.ndarray:
        if len(self) == 0:
            return np.empty(0, dtype=np.int64)
        return np.argmax(self.log_probs, axis=1)


@dataclass
class SegmentationMask:
    """Per-pixel raw class scores, shape (height, width, C)."""

    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 3 or self.scores.shape[2] != NUM_CLASSES:
            raise ValueError("mask must be (H, W, C)")

    @property
    def height(self):
        return self.scores.shape[0]

    @property
    def width(self):
        return self.scores.shape[1]


@dataclass
class Detection:
    class_idx: int
    score: float
    box: tuple[float, float, float, float]  # u0, v0, u1, v1

    def __post_init__(self):
        if not 0 <= self.class_idx < NUM_CLASSES:
            raise ValueError("detection class index out of range")
        if not 0.0 < self.score < 1.0:
            raise ValueError("detection score must lie in (0, 1)")
        u0, v0, u1, v1 = self.box
        if not (u0 <= u1 and v0 <= v1):
            raise ValueError("malformed detection box")


def depth_to_points(depth: DepthImage, calib: CameraCalib) -> np.ndarray:
    """One sensor-frame 3D point per valid depth pixel, (N,3)."""
    if depth.width != calib.width or depth.height != calib.height:
        raise ValueError("depth image size does not match calibration")
    d = depth.depth
    vv, uu = np.nonzero(d > 0)
    z = d[vv, uu]
    pts = np.empty((len(z), 3))
    pts[:, 0] = (uu + 0.0 - calib.cx) / calib.fx * z
    pts[:, 1] = (vv + 0.0 - calib.cy) / calib.fy * z
    pts[:, 2] = z
    return pts


def voxel_downsample(points: np.ndarray) -> np.ndarray:
    """Centroid of the points in every occupied CLOUD_VOXEL_RES cell."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        return pts
    keys = pack_voxel_keys(voxel_indices_of(pts, CLOUD_VOXEL_RES))
    uniq, inv = np.unique(keys, return_inverse=True)
    counts = np.bincount(inv, minlength=len(uniq)).astype(np.float64)
    out = np.empty((len(uniq), 3))
    for k in range(3):
        out[:, k] = np.bincount(inv, weights=pts[:, k], minlength=len(uniq)) / counts
    return out


def statistical_outlier_filter(points: np.ndarray) -> np.ndarray:
    """Drop the points of sparse neighbourhoods: statistical outlier
    removal with a voxel count for the mean neighbour distance.

    A point's count is the number of points whose CLOUD_VOXEL_RES cell
    lies in the 5x5x5 block of cells around its own, itself included.  A
    point is kept when its count is at least the counts' mean minus
    OUTLIER_STDDEV_MULT standard deviations, so equal counts keep every
    point.  The block is symmetric, so each cell counts the points of the
    neighbour cells after it, and adds its own points to those cells: a
    range add over their runs, one difference array for all.  Raises
    VoxelRangeError for a point beyond the packable cell range, and for a
    cloud that spans almost all of it (see _cell_grid).
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        return pts
    order, starts, run_lo, run_hi = _cell_grid(voxel_indices_of(pts, CLOUD_VOXEL_RES), 2)
    size = np.diff(starts)
    after = (starts[run_hi] - starts[run_lo]).sum(axis=1)
    # integer sums in float64, exact far beyond any cloud's point count
    added = np.repeat(size.astype(np.float64), run_lo.shape[1])
    before = np.cumsum(np.bincount(run_lo.ravel(), added, len(starts))
                       - np.bincount(run_hi.ravel(), added, len(starts)))[:-1]
    counts = np.empty(len(pts), dtype=np.intp)
    counts[order] = np.repeat(size + after + before.astype(np.intp), size)
    return pts[counts >= counts.mean() - OUTLIER_STDDEV_MULT * counts.std()]


def _cell_grid(idx: np.ndarray, reach: int):
    """Points sorted by cell, and the occupied cells after every occupied
    cell within +-reach of it on every axis.

    idx holds the points' (N,3) cell indices.  Returns (order, starts,
    run_lo, run_hi).  `order` sorts the points by cell, stably, so the
    points of a cell keep their index order; starts[c]:starts[c + 1] are
    the sorted positions of occupied cell c.  Keys sort like cells, x
    first, so the cells after c are those of its own x-y column after c
    and of the columns after that one; each column is a run of
    2*reach + 1 consecutive cell keys, and occupied cells
    run_lo[c, j]:run_hi[c, j] are the j-th column's, columns in (dx, dy)
    order from c's own.  A cell's key packs its index less the cloud's
    lowest, with reach spare cells below and above on every axis, so no
    run wraps onto cells at the far side of the cloud; a cloud that spans
    more cells than that leaves raises VoxelRangeError.
    """
    rel = idx - (idx.min(axis=0) - reach)
    if rel.max() + reach >= KEY_WEIGHTS[1]:  # a key's field holds 0 ... KEY_WEIGHTS[1] - 1
        raise VoxelRangeError("cloud spans more cells than a cell key holds")
    keys = rel @ KEY_WEIGHTS
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    first = np.flatnonzero(np.r_[True, skeys[1:] != skeys[:-1]])
    ckeys = skeys[first]
    off = range(-reach, reach + 1)
    cols = np.array([(dx, dy, 0) for dx in off for dy in off])[len(off) ** 2 // 2:] @ KEY_WEIGHTS
    run_lo = np.empty((len(cols), len(ckeys)), dtype=np.intp)
    run_hi = np.empty_like(run_lo)
    run_lo[0] = np.arange(1, len(ckeys) + 1)  # in c's own column, the cells after c
    for j, col in enumerate(cols.tolist()):
        if j:
            run_lo[j] = _ranks(ckeys, ckeys + (col - reach))
        run_hi[j] = _ranks(ckeys, ckeys + (col + reach + 1))
    return order, np.r_[first, len(keys)], run_lo.T, run_hi.T


def _ranks(cells: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """np.searchsorted(cells, needles) for sorted needles, by one stable
    merge sort of both, faster than a binary search per needle: equal keys
    keep their concatenation order, so needles sort before the cells they
    equal."""
    merged = np.argsort(np.concatenate([needles, cells]), kind="stable")
    return np.flatnonzero(merged < len(needles)) - np.arange(len(needles))


def remove_ground_and_cluster(
    points_world: np.ndarray,
    cluster_dist: float = CLUSTER_DIST,
    min_cluster: int = MIN_CLUSTER,
) -> list[np.ndarray]:
    """Euclidean clusters of the points above FLOOR_Z, as original-index arrays:
    the connected components of the graph that joins every two points at
    most cluster_dist apart, in the order of their lowest index, each in
    ascending index order, without those smaller than min_cluster.

    The components come from a grid (DBSCAN with minPts = 1).  Cells of
    edge 0.55 * cluster_dist have a diagonal shorter than cluster_dist, so
    every cell is a clique; cells more than 2 apart on an axis are more
    than cluster_dist apart, so a cell can join only the cells within +-2.
    Neighbour cells are joined in three steps: one representative point
    pair per cell pair, the components of that cell graph, then the
    components of those components that a point pair joins.  Two
    points join when their squared coordinate differences, summed in x,
    y, z order, are at most cluster_dist**2, as in cKDTree.query_pairs.
    Raises VoxelRangeError for a point beyond the packable cell range.
    """
    if cluster_dist <= 0:
        raise ValueError("cluster_dist must be positive")
    pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
    above = np.nonzero(pts[:, 2] > FLOOR_Z)[0]
    if len(above) == 0:
        return []
    order, starts, run_lo, run_hi = _cell_grid(
        voxel_indices_of(pts[above], 0.55 * cluster_dist), 2)
    # the sorted points' coordinates, one row per axis
    xyz = pts[above[order]].T.copy()
    n_cell = len(starts) - 1
    size = np.diff(starts)
    # every neighbour cell pair once, as a < b
    run_len = run_hi - run_lo
    a = np.repeat(np.arange(n_cell), run_len.sum(axis=1))
    run_len = run_len.ravel()
    run_end = np.cumsum(run_len)
    b = np.arange(run_end[-1]) + np.repeat(run_lo.ravel() - (run_end - run_len), run_len)
    r2 = cluster_dist * cluster_dist
    # a cell's first point stands for it
    hit = _sq_dist(xyz, starts[a], starts[b]) <= r2
    n_comp, comp = _components(n_cell, [(a[hit], b[hit])])
    open_pairs = comp[a] != comp[b]
    a, b = a[open_pairs], b[open_pairs]
    # every point pair of those, in blocks of about _PAIR_BLOCK pairs
    work = size[a] * size[b]
    joined = np.zeros(len(a), dtype=bool)
    cuts = np.searchsorted(np.cumsum(work), np.arange(0, work.sum(), _PAIR_BLOCK), "right")
    for i0, i1 in zip(cuts.tolist(), cuts[1:].tolist() + [len(a)]):
        w = work[i0:i1]
        pair = np.repeat(np.arange(i0, i1), w)
        t = np.arange(len(pair)) - np.repeat(np.cumsum(w) - w, w)
        nb = size[b[pair]]
        near = _sq_dist(xyz, starts[a[pair]] + t // nb, starts[b[pair]] + t % nb) <= r2
        joined[pair[near]] = True
    if joined.any():
        # the cell pairs a point pair joins, over the components so far
        n_comp, merged = _components(n_comp, [(comp[a[joined]], comp[b[joined]])])
        comp = merged[comp]
    # number the components by their lowest member; a cell's first sorted
    # point is its lowest
    low = np.full(n_comp, len(above))
    np.minimum.at(low, comp, order[starts[:-1]])
    rank = np.empty(n_comp, dtype=np.intp)
    rank[np.argsort(low)] = np.arange(n_comp)
    labels = np.empty(len(above), dtype=np.intp)
    labels[order] = np.repeat(rank[comp], size)
    # members of each label, in label order, each in ascending index order
    members = above[np.argsort(labels, kind="stable")]
    sizes = np.bincount(labels)
    ends = np.cumsum(sizes)
    return [members[e - z:e] for e, z in zip(ends.tolist(), sizes.tolist()) if z >= min_cluster]


def _sq_dist(xyz: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared distances between points i and j of (3, N) coordinates,
    summed in x, y, z order."""
    out = np.zeros(len(i))
    for axis in xyz:
        d = axis.take(i)
        d -= axis.take(j)
        d *= d
        out += d
    return out


def _components(n: int, edges: list[tuple[np.ndarray, np.ndarray]]):
    """(count, labels) of the connected components of n nodes joined by
    the (a, b) edge arrays, labels dense in 0 .. count - 1.

    Hook and jump, after Shiloach & Vishkin (1982): every node points at
    a lower or equal node, and a root at itself.  Each round keeps the
    edges whose roots still differ, hooks the larger root of each under
    the smaller, then jumps pointers until every node points at its root.
    """
    a = np.concatenate([e[0] for e in edges])
    b = np.concatenate([e[1] for e in edges])
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
    roots, labels = np.unique(root, return_inverse=True)
    return len(roots), labels


def _bilinear_rows(scores: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Bilinear sample of an (H,W,C) score image at (N,2) pixel locations."""
    h, w = scores.shape[:2]
    flat = scores.reshape(h * w, -1)
    u = np.clip(uv[:, 0], 0.0, w - 1.0)
    v = np.clip(uv[:, 1], 0.0, h - 1.0)
    u0 = np.floor(u).astype(np.intp)
    v0 = np.floor(v).astype(np.intp)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = (u - u0)[:, None]
    fv = (v - v0)[:, None]
    gu = 1 - fu
    gv = 1 - fv
    # ((s * wu) * wv) per corner, summed left to right
    out = flat.take(v0 * w + u0, axis=0)
    out *= gu
    out *= gv
    for row, wu, wv in ((v0 * w + u1, fu, gv), (v1 * w + u0, gu, fv), (v1 * w + u1, fu, fv)):
        term = flat.take(row, axis=0)
        term *= wu
        term *= wv
        out += term
    return out


def _box_iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def nms_detections(dets: list[Detection]) -> list[Detection]:
    """Same-class non-maximum suppression on the boxes.

    Detection by falling score (the earlier of equal scores first), one
    is suppressed when its box overlaps a kept box of its class with IoU
    above NMS_IOU.  The kept detections come back in input order.
    """
    keep: list[int] = []
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].score):
        if not any(dets[i].class_idx == dets[j].class_idx
                   and _box_iou(dets[i].box, dets[j].box) > NMS_IOU for j in keep):
            keep.append(i)
    return [dets[i] for i in sorted(keep)]


def fuse_semantics(
    points_cam: np.ndarray,
    calib: CameraCalib,
    mask: SegmentationMask,
    dets: list[Detection],
    clusters: list[np.ndarray],
    sensor_id: int = 0,
    timestamp_us: int = 0,
) -> SemanticCloud:
    """Attach a class distribution to every point.

    Segmentation scores are sampled bilinearly at the projected point and
    soft-maxed; detection distributions are fused in only for points that
    project inside a (deduplicated) detection box and belong to a cluster.
    Points projecting outside the image keep a uniform distribution.
    """
    pts = np.asarray(points_cam, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    log_p = semantics.uniform_rows(n)
    if n == 0:
        return SemanticCloud(sensor_id, timestamp_us, pts, log_p)
    uv, _, inside = project(calib, pts)
    if inside.any():
        raw = _bilinear_rows(mask.scores, uv[inside])
        log_p[inside] = semantics.log_softmax_rows(raw)
    clustered = np.zeros(n, dtype=bool)
    for members in clusters:
        clustered[members] = True
    for det in nms_detections(dets):
        u0, v0, u1, v1 = det.box
        sel = (clustered & inside & (uv[:, 0] >= u0) & (uv[:, 0] <= u1)
               & (uv[:, 1] >= v0) & (uv[:, 1] <= v1))
        if not sel.any():
            continue
        det_row = semantics.detection_row(det.class_idx, det.score)
        log_p[sel] = semantics.fuse_rows(log_p[sel], det_row[None, :])
    return SemanticCloud(sensor_id, timestamp_us, pts, log_p)

