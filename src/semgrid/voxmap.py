"""Allocentric sparse semantic occupancy map.

Cells are addressed by packed integer voxel keys and stored columnar
(log-odds, class log-probabilities, bookkeeping) so whole clouds can be
integrated with array arithmetic.  A sorted key column with the row of
each key indexes the cells, so lookups are binary searches and new cells
are merged in one batch.  Occupancy follows the additive log-odds model;
semantics fuse multiplicatively per Bayes' rule.
Single-writer / multi-reader: integrate_cloud requires exclusive access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ply, semantics
from .geometry import (
    CameraCalib,
    VoxelIndex,
    bresenham3d_keys,
    pack_voxel_keys,
    unpack_voxel_keys,
    voxel_index_of,
    voxel_indices_of,
)
from .semantics import NUM_CLASSES, PERSON_CLASS, ClassDistribution

MAP_RESOLUTION = 0.10
L_OCC = 0.85
L_FREE = -0.4
L_MIN = -2.0
L_MAX = 3.5
L_PRIOR_OCC = 1.0
OCCLUSION_K = 2

SOURCE_PRIOR = 0
SOURCE_OBSERVED = 1


@dataclass
class VoxelCell:
    occupancy_log_odds: float
    dist: ClassDistribution
    last_update_us: int
    source: str  # "prior" | "observed"


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
        self._log_p = np.zeros((cap, NUM_CLASSES))
        self._last_update = np.zeros(cap, dtype=np.int64)
        self._source = np.zeros(cap, dtype=np.uint8)
        self._n = 0
        # index: every key in increasing order, and the row holding it
        self._sorted_keys = np.zeros(0, dtype=np.int64)
        self._sorted_rows = np.zeros(0, dtype=np.int64)
        # the occupied keys of the index, which occlusion queries search:
        # far fewer than all cells, so the search stays in cache
        self._occ_keys = np.zeros(0, dtype=np.int64)

    @property
    def resolution(self) -> float:
        return self._resolution

    def __len__(self) -> int:
        return self._n

    def _grow(self, need: int) -> None:
        cap = len(self._keys)
        if self._n + need <= cap:
            return
        new_cap = max(cap * 2, self._n + need)
        self._keys = np.resize(self._keys, new_cap)
        self._log_odds = np.resize(self._log_odds, new_cap)
        self._log_p = np.resize(self._log_p, (new_cap, NUM_CLASSES))
        self._last_update = np.resize(self._last_update, new_cap)
        self._source = np.resize(self._source, new_cap)

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
            self._grow(m)
            fresh = slice(self._n, self._n + m)
            rows[new] = np.arange(self._n, self._n + m)
            self._keys[fresh] = keys[new]
            self._log_odds[fresh] = 0.0
            self._log_p[fresh] = -np.log(NUM_CLASSES)
            self._last_update[fresh] = 0
            self._source[fresh] = SOURCE_OBSERVED
            self._sorted_keys = np.insert(self._sorted_keys, pos[new], keys[new])
            self._sorted_rows = np.insert(self._sorted_rows, pos[new], rows[new])
            self._n += m
        return rows

    def _index_occupied(self) -> None:
        """Refresh the occupied keys after a write."""
        self._occ_keys = self._sorted_keys[self._log_odds[self._sorted_rows] > 0]

    def cell(self, idx: VoxelIndex) -> VoxelCell | None:
        row = self._locate(pack_voxel_keys(np.array([idx.as_tuple()])))[1][0]
        if row < 0:
            return None
        return VoxelCell(
            occupancy_log_odds=float(self._log_odds[row]),
            dist=ClassDistribution(self._log_p[row].copy(), _trusted=True),
            last_update_us=int(self._last_update[row]),
            source="prior" if self._source[row] == SOURCE_PRIOR else "observed",
        )

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
        pts_world = cloud.positions @ calib.rotation.T + calib.translation
        keep = cloud.argmax_classes() != PERSON_CLASS
        if not keep.any():
            return stats
        pts = pts_world[keep]
        log_p_pts = cloud.log_probs[keep]
        end_idx = voxel_indices_of(pts, self._resolution)
        end_keys = pack_voxel_keys(end_idx)
        uniq_end, inv = np.unique(end_keys, return_inverse=True)
        origin_idx = np.array(voxel_index_of(calib.center, self._resolution).as_tuple())
        ray_keys, _ = bresenham3d_keys(origin_idx, unpack_voxel_keys(uniq_end))
        # walks include their endpoints, so these are all touched cells
        cells = _sorted_unique(ray_keys)
        rows = self._rows_for(cells)
        is_end = np.zeros(len(cells), dtype=bool)
        is_end[np.searchsorted(cells, uniq_end)] = True

        ts = int(cloud.timestamp_us)
        free = rows[~is_end]
        if len(free):
            before = self._log_odds[free]
            after = np.clip(before + L_FREE, L_MIN, L_MAX)
            crossed = (before > 0) & (after <= 0)
            self._log_odds[free] = after
            if crossed.any():
                self._log_p[free[crossed]] = -np.log(NUM_CLASSES)
                stats.freed = int(crossed.sum())
            self._last_update[free] = ts
            self._source[free] = SOURCE_OBSERVED

        end = rows[is_end]
        self._log_odds[end] = np.clip(self._log_odds[end] + L_OCC, L_MIN, L_MAX)
        # bincount adds each voxel's points in input order, so the sums
        # are those of a sequential loop to the last bit
        sums = np.stack([np.bincount(inv, weights=log_p_pts[:, c], minlength=len(uniq_end))
                         for c in range(NUM_CLASSES)], axis=1)
        self._log_p[end] = semantics.fuse_rows(self._log_p[end], sums)
        self._last_update[end] = ts
        self._source[end] = SOURCE_OBSERVED
        stats.occupied_updates = len(uniq_end)
        stats.semantic_fused = int(keep.sum())
        self._index_occupied()
        return stats

    def is_occluded_many(self, from_world, targets_world: np.ndarray, k: int = OCCLUSION_K) -> np.ndarray:
        """True for each target whose ray from the origin crosses at least
        k occupied cells strictly between the endpoint voxels.  Endpoint
        voxels never count."""
        targets = np.asarray(targets_world, dtype=np.float64).reshape(-1, 3)
        n = len(targets)
        if n == 0:
            return np.zeros(0, dtype=bool)
        origin_idx = voxel_indices_of(from_world, self._resolution)
        target_idx = voxel_indices_of(targets, self._resolution)
        all_keys, ray_id = bresenham3d_keys(origin_idx[0], target_idx)
        # a walk visits each cell once, so its endpoint voxels are exactly
        # the cells equal to the origin or to its target
        end_keys = pack_voxel_keys(np.concatenate([origin_idx, target_idx]))
        interior = (all_keys != end_keys[0]) & (all_keys != end_keys[1:][ray_id])
        if not interior.any():
            return np.zeros(n, dtype=bool)
        occ_keys = self._occ_keys
        if len(occ_keys) == 0:
            return np.zeros(n, dtype=bool)
        keys = all_keys[interior]
        occ = occ_keys[np.minimum(np.searchsorted(occ_keys, keys), len(occ_keys) - 1)] == keys
        counts = np.bincount(ray_id[interior], weights=occ.astype(np.float64), minlength=n)
        return counts >= k

    def occupied_arrays(self):
        """(indices (N,3), log_odds, classes, probs, source) of occupied
        cells in lexicographic index order, which is packed key order."""
        occ = self._sorted_rows[self._log_odds[self._sorted_rows] > 0]
        idx = unpack_voxel_keys(self._keys[occ])
        classes = np.argmax(self._log_p[occ], axis=1)
        probs = np.exp(self._log_p[occ, classes])
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


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique of int64 keys by sort and neighbour difference, which is
    much faster than the hash path np.unique takes for large inputs."""
    s = np.sort(keys)
    first = np.ones(len(s), dtype=bool)
    first[1:] = s[1:] != s[:-1]
    return s[first]
