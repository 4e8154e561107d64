"""Allocentric sparse semantic occupancy map.

Cells are addressed by packed integer voxel keys and stored columnar
(log-odds, class slot, bookkeeping) so whole clouds can be integrated with
array arithmetic; only cells observed as endpoints hold a slot, and with it
a class log-probability row (slot -1 is the uniform row).  A sorted key
column with the row of each key indexes the cells, so lookups are binary
searches and new cells are merged in one batch.  Every write also publishes
the occupied keys, and a uint8 grid of them over their box for occlusion
queries (none over GRID_MAX_CELLS), each replaced whole.  Occupancy follows
the additive log-odds model; semantics fuse multiplicatively per Bayes' rule.
Single-writer / multi-reader: integrate_cloud requires exclusive access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ply, semantics
from .geometry import (
    KEY_WEIGHTS,
    CameraCalib,
    VoxelRangeError,
    bresenham3d_keys,
    bresenham3d_walk,
    clip_walk_to_box,
    key_components,
    pack_voxel_keys,
    unpack_voxel_keys,
    voxel_indexable,
    voxel_indices_of,
)
from .semantics import NUM_CLASSES, PERSON_CLASS

MAP_RESOLUTION = 0.10
L_OCC = 0.85
L_FREE = -0.4
L_MIN = -2.0
L_MAX = 3.5
L_PRIOR_OCC = 1.0
OCCLUSION_K = 2
# cells of the largest occupancy grid (16 MB); a larger map searches its sorted keys
GRID_MAX_CELLS = 1 << 24

SOURCE_PRIOR = 0
SOURCE_OBSERVED = 1


@dataclass
class IntegrationStats:
    occupied_updates: int = 0
    freed: int = 0
    semantic_fused: int = 0


class VoxelMap:
    def __init__(self, resolution: float = MAP_RESOLUTION):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self._resolution = float(resolution)
        cap = 1024
        self._keys = np.zeros(cap, dtype=np.int64)
        self._log_odds = np.zeros(cap)
        self._slot = np.zeros(cap, dtype=np.int32)
        self._source = np.zeros(cap, dtype=np.uint8)
        self._n = 0
        self._log_p = np.zeros((cap, NUM_CLASSES))  # the rows of slots 0 ... _n_slots - 1
        self._n_slots = 0
        # index: every key in increasing order, and the row holding it
        self._sorted_keys = np.zeros(0, dtype=np.int64)
        self._sorted_rows = np.zeros(0, dtype=np.int64)
        # _occ_keys, the occupied keys, and _occ_grid, their (grid, lo, strides)
        self._index_occupied()

    @property
    def resolution(self) -> float:
        return self._resolution

    def __len__(self) -> int:
        return self._n

    def _class_rows(self, rows: np.ndarray) -> np.ndarray:
        """The class log-probability rows (len(rows), C) of cells."""
        slots = self._slot[rows][:, None]  # -1 reads the last row, which np.where drops
        return np.where(slots < 0, -np.log(NUM_CLASSES), self._log_p[slots[:, 0]])

    def _locate(self, keys: np.ndarray):
        """Index positions of packed keys, and their rows (-1 where the
        map has no cell)."""
        pos = np.searchsorted(self._sorted_keys, keys)
        rows = np.full(len(keys), -1, dtype=np.int64)
        if len(self._sorted_keys):
            at = np.minimum(pos, len(self._sorted_keys) - 1)
            hit = self._sorted_keys[at] == keys
            rows[hit] = self._sorted_rows[at[hit]]
        return pos, rows

    def _rows_for(self, keys: np.ndarray) -> np.ndarray:
        """Rows for sorted, distinct packed keys; missing cells are
        appended (uniform, log-odds 0) and merged into the index."""
        pos, rows = self._locate(keys)
        new = rows < 0
        m = int(new.sum())
        if m:
            for name in ("_keys", "_log_odds", "_slot", "_source"):
                setattr(self, name, _grown(getattr(self, name), self._n, self._n + m))
            fresh = slice(self._n, self._n + m)
            rows[new] = np.arange(self._n, self._n + m)
            self._keys[fresh] = keys[new]
            self._log_odds[fresh] = 0.0
            self._slot[fresh] = -1
            self._source[fresh] = SOURCE_OBSERVED
            self._sorted_keys = np.insert(self._sorted_keys, pos[new], keys[new])
            self._sorted_rows = np.insert(self._sorted_rows, pos[new], rows[new])
            self._n += m
        return rows

    def _index_occupied(self, flipped=None) -> None:
        """Refresh the occupied keys and their grid after a write (from the rows
        that flipped, if given), each replaced whole: a reader sees one state."""
        if flipped is None:
            keys = self._sorted_keys[self._log_odds[self._sorted_rows] > 0]
        else:  # the freed keys leave the sorted occupied keys, the newly occupied join
            now = self._log_odds[flipped] > 0
            occ = self._occ_keys
            keys = np.delete(occ, np.searchsorted(occ, self._keys[flipped[~now]]))
            joined = np.sort(self._keys[flipped[now]])
            keys = np.insert(keys, np.searchsorted(keys, joined), joined)
        if flipped is not None and self._occ_grid is not None:
            grid, lo, strides = self._occ_grid
            idx = unpack_voxel_keys(self._keys[flipped]) - lo
            if (idx >= 0).all() and (idx < grid.shape).all():  # the box holds them
                grid = grid.copy()
                grid[tuple(idx.T)] = self._log_odds[flipped] > 0
                self._occ_keys, self._occ_grid = keys, (grid, lo, strides)
                return
        x, y, z = key_components(keys)  # bit fields: no (N,3) array, no matmul
        lo = np.array([f.min() if len(keys) else 0 for f in (x, y, z)])
        shape = np.array([f.max() + 1 if len(keys) else 0 for f in (x, y, z)]) - lo
        grid = None
        if shape.prod(dtype=float) <= GRID_MAX_CELLS:  # a float product cannot overflow
            grid = np.zeros(shape, dtype=np.uint8)
            strides = np.array(grid.strides, dtype=np.int32)  # uint8: element strides
            grid.reshape(-1)[(x - lo[0]) * strides[0] + (y - lo[1]) * strides[1] + z - lo[2]] = 1
            grid = (grid, lo, strides)
        self._occ_keys, self._occ_grid = keys, grid

    def load_prior(self, prior_points: np.ndarray) -> int:
        """Seed an empty map: one occupied, uniformly-classed cell per
        distinct voxel touched by the prior points."""
        if self._n != 0:
            raise ValueError("prior can only be loaded into an empty map")
        pts = np.asarray(prior_points, dtype=np.float64).reshape(-1, 3)
        if len(pts) == 0:
            return 0
        keys = _sorted_unique(pack_voxel_keys(voxel_indices_of(pts, self._resolution)))
        rows = self._rows_for(keys)
        self._log_odds[rows] = L_PRIOR_OCC
        self._source[rows] = SOURCE_PRIOR
        self._index_occupied()
        return len(keys)

    def integrate_cloud(self, cloud, calib: CameraCalib) -> IntegrationStats:
        """Ray-traced occupancy update plus per-voxel semantic fusion.

        Person-labeled points are skipped entirely.  Every cell crossed by
        a ray gets one free-space update per call; measured endpoint
        voxels get one occupied update and fuse the distributions of all
        their points.  A cell whose log-odds crosses zero downward has its
        class distribution reset to uniform.
        """
        stats = IntegrationStats()
        if len(cloud) == 0:
            return stats
        pts_world = calib.cam_to_world(cloud.positions)
        keep = cloud.argmax_classes() != PERSON_CLASS
        if not keep.any():
            return stats
        pts = pts_world[keep]
        log_p_pts = cloud.log_probs[keep]
        end_idx = voxel_indices_of(pts, self._resolution)
        end_keys = pack_voxel_keys(end_idx)
        uniq_end, inv = np.unique(end_keys, return_inverse=True)
        origin_idx = voxel_indices_of(calib.center[None], self._resolution)[0]
        ray_keys, _ = bresenham3d_keys(origin_idx, unpack_voxel_keys(uniq_end))
        # walks include their endpoints, so these are all touched cells
        cells = _sorted_unique(ray_keys)
        rows = self._rows_for(cells)
        is_end = np.zeros(len(cells), dtype=bool)
        is_end[np.searchsorted(cells, uniq_end)] = True

        free = rows[~is_end]
        before = self._log_odds[free]
        after = np.clip(before + L_FREE, L_MIN, L_MAX)
        self._log_odds[free] = after
        freed = free[(before > 0) & (after <= 0)]
        slots = self._slot[freed]
        self._log_p[slots[slots >= 0]] = -np.log(NUM_CLASSES)
        stats.freed = len(freed)
        self._source[free] = SOURCE_OBSERVED

        end = rows[is_end]
        new = end[self._slot[end] < 0]  # these take the next slots, with the uniform row
        self._log_p = _grown(self._log_p, self._n_slots, self._n_slots + len(new))
        self._log_p[self._n_slots:self._n_slots + len(new)] = -np.log(NUM_CLASSES)
        self._slot[new] = np.arange(self._n_slots, self._n_slots + len(new))
        self._n_slots += len(new)
        before = self._log_odds[end]
        self._log_odds[end] = np.clip(before + L_OCC, L_MIN, L_MAX)
        occupied = end[(before <= 0) & (self._log_odds[end] > 0)]
        # bincount adds each voxel's points in input order, so the sums
        # are those of a sequential loop to the last bit
        sums = np.stack([np.bincount(inv, weights=log_p_pts[:, c], minlength=len(uniq_end))
                         for c in range(NUM_CLASSES)], axis=1)
        self._log_p[self._slot[end]] = semantics.fuse_rows(self._log_p[self._slot[end]], sums)
        self._source[end] = SOURCE_OBSERVED
        stats.occupied_updates = len(uniq_end)
        stats.semantic_fused = int(keep.sum())
        self._index_occupied(np.concatenate([freed, occupied]))
        return stats

    def is_occluded_many(self, from_world, targets_world: np.ndarray, k: int = OCCLUSION_K) -> np.ndarray:
        """True for each target whose ray from its origin crosses at least k >= 1
        occupied cells strictly between the endpoint voxels (a ray with an end
        the map cannot index crosses none).  from_world is one origin (3,) for
        all targets or one per target (N,3)."""
        if k < 1:
            raise ValueError("k must be at least 1")
        targets = np.asarray(targets_world, dtype=np.float64).reshape(-1, 3)
        origins, res = np.broadcast_to(from_world, targets.shape), self._resolution
        try:
            target_idx, origin_idx = voxel_indices_of(targets, res), voxel_indices_of(origins, res)
        except VoxelRangeError:  # some ray has an end the map cannot index
            ok = voxel_indexable(targets, res) & voxel_indexable(origins, res)
            flags = np.zeros(len(targets), dtype=bool)
            flags[ok] = self.is_occluded_many(origins[ok], targets[ok], k)
            return flags
        k_hi = np.abs(target_idx - origin_idx).max(axis=1)
        k_lo = np.ones_like(k_hi)  # each walk's interior: k = 1 ... d0 - 1
        occ = self._occ_grid  # one map state, whatever write comes next
        if occ is None:
            keys, _ = bresenham3d_walk(origin_idx, target_idx, KEY_WEIGHTS,
                                       pack_voxel_keys(origin_idx), k_lo, k_hi)
            occ_keys = self._occ_keys
            hits = np.zeros(len(keys), dtype=bool)
            if len(occ_keys):
                at = np.minimum(np.searchsorted(occ_keys, keys), len(occ_keys) - 1)
                hits = occ_keys[at] == keys
        else:
            grid, lo, strides = occ
            # cells outside the box are free, so each walk is clipped to it
            k_lo, k_hi = clip_walk_to_box(origin_idx, target_idx, lo, lo + grid.shape - 1,
                                          k_lo, k_hi)
            cells, _ = bresenham3d_walk(origin_idx, target_idx, strides,
                                        ((origin_idx - lo) * strides).sum(axis=1), k_lo, k_hi)
            hits = grid.reshape(-1)[cells]
        lengths = np.maximum(k_hi - k_lo, 0)
        walked = lengths > 0
        counts = np.zeros(len(targets), dtype=np.intp)
        counts[walked] = np.add.reduceat(hits, (np.cumsum(lengths) - lengths)[walked],
                                         dtype=np.intp)
        return counts >= k

    def occupied_arrays(self):
        """(indices (N,3), log_odds, classes, probs, source) of occupied
        cells in lexicographic index order, which is packed key order."""
        occ = self._sorted_rows[self._log_odds[self._sorted_rows] > 0]
        idx = unpack_voxel_keys(self._keys[occ])
        log_p = self._class_rows(occ)
        classes = np.argmax(log_p, axis=1)
        probs = np.exp(log_p[np.arange(len(occ)), classes])
        return idx, self._log_odds[occ], classes, probs, self._source[occ]

    def export_ply(self, path) -> None:
        """Binary PLY of occupied voxel centers with class and occupancy
        probability."""
        idx, log_odds, classes, probs, _ = self.occupied_arrays()
        centers = (idx + 0.5) * self._resolution
        occ_prob = 1.0 / (1.0 + np.exp(-log_odds))
        ply.write_ply(
            path,
            {
                "x": centers[:, 0].astype(np.float32),
                "y": centers[:, 1].astype(np.float32),
                "z": centers[:, 2].astype(np.float32),
                "class": classes.astype(np.uint8),
                "occupancy": occ_prob.astype(np.float32),
                "prob": probs.astype(np.float32),
            },
        )


def _grown(a: np.ndarray, n: int, need: int) -> np.ndarray:
    """a if it has need rows, else a larger empty array (only a's first n rows touched)."""
    if need <= len(a):
        return a
    out = np.empty((max(2 * len(a), need),) + a.shape[1:], dtype=a.dtype)
    out[:n] = a[:n]
    return out


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique of int64 keys by sort and neighbour difference, which is
    much faster than the hash path np.unique takes for large inputs."""
    s = np.sort(keys)
    first = np.ones(len(s), dtype=bool)
    first[1:] = s[1:] != s[:-1]
    return s[first]
