"""Camera models, epipolar geometry and integer 3D ray traversal.

Conventions: world frame is right-handed with z up; camera frame has
x right, y down, z along the optical axis (computer-vision standard).
``pose_world_from_cam`` maps camera-frame points to world:
p_world = R @ p_cam + t, so ``t`` is the camera center in world
coordinates.  Pinhole model, no lens distortion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS_Z = 1e-6


@dataclass(frozen=True)
class CameraCalib:
    sensor_id: int
    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray  # 3x3, world from cam
    translation: np.ndarray  # camera center in world, meters
    depth_noise_sigma: float = 0.0

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point outside image")
        if np.abs(R.T @ R - np.eye(3)).max() >= 1e-9:
            raise ValueError("rotation is not orthonormal")
        if np.linalg.det(R) < 0:
            raise ValueError("rotation determinant must be +1")

    @property
    def center(self) -> np.ndarray:
        return self.translation

    def world_to_cam(self, p_world: np.ndarray) -> np.ndarray:
        p = np.asarray(p_world, dtype=np.float64)
        return (p - self.translation) @ self.rotation

    def cam_to_world(self, p_cam: np.ndarray) -> np.ndarray:
        p = np.asarray(p_cam, dtype=np.float64)
        return p @ self.rotation.T + self.translation


@dataclass(frozen=True, order=True)
class VoxelIndex:
    ix: int
    iy: int
    iz: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.ix, self.iy, self.iz)


# Snap applied before floor so points computed to lie exactly on a cell
# boundary (up to float rounding) bin into the upper cell.
_BIN_SNAP = 1e-9


def voxel_index_of(p, resolution: float) -> VoxelIndex:
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    p = np.asarray(p, dtype=np.float64)
    i = np.floor(p / resolution + _BIN_SNAP).astype(np.int64)
    return VoxelIndex(int(i[0]), int(i[1]), int(i[2]))


def voxel_indices_of(points: np.ndarray, resolution: float) -> np.ndarray:
    """Vectorized binning of an (N,3) point array to (N,3) int64 indices;
    raises VoxelRangeError for a point outside the packable range."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    idx = np.floor(pts / resolution + _BIN_SNAP)
    # checked before the cast: NaN and huge values have no int64 index
    if not (np.abs(idx) < _KEY_BIAS).all():
        raise VoxelRangeError("point outside the packable voxel range")
    return idx.astype(np.int64)


def project_many(calib: CameraCalib, pts_world: np.ndarray):
    """Project (N,3) world points.

    Returns (uv (N,2), z (N,), in_image (N,) bool).  uv/z are valid only
    where z > 0; in_image additionally requires the pixel inside bounds.
    """
    pts = np.asarray(pts_world, dtype=np.float64).reshape(-1, 3)
    pc = (pts - calib.translation) @ calib.rotation
    z = pc[:, 2]
    front = z > _EPS_Z
    zsafe = np.where(front, z, 1.0)
    uv = np.empty((len(pts), 2))
    uv[:, 0] = calib.cx + calib.fx * pc[:, 0] / zsafe
    uv[:, 1] = calib.cy + calib.fy * pc[:, 1] / zsafe
    in_image = (
        front
        & (uv[:, 0] >= 0)
        & (uv[:, 0] < calib.width)
        & (uv[:, 1] >= 0)
        & (uv[:, 1] < calib.height)
    )
    return uv, z, in_image


def backproject(calib: CameraCalib, u: float, v: float, depth: float) -> np.ndarray:
    if depth <= 0:
        raise ValueError("depth must be positive")
    pc = np.array(
        [(u - calib.cx) / calib.fx * depth, (v - calib.cy) / calib.fy * depth, depth]
    )
    return calib.cam_to_world(pc)


def _bres_walk(origin: np.ndarray, tg: np.ndarray):
    """Bresenham walk of rays from one origin voxel to many targets: per
    cell its ray, dominant step count and side-axis advances, plus the
    per-ray axis layout.

    Each ray is the 26-connected line of max(|dx|,|dy|,|dz|) + 1 cells,
    origin first, target last, stepping along the dominant axis (the
    lowest index among equal maxima); an error term of exactly zero does
    not trigger a side step, so exact midpoints advance the dominant axis
    only."""
    n = len(tg)
    delta = tg - origin
    d = np.abs(delta)
    s = np.sign(delta)
    # dominant axis = lowest index among maxima
    dom = np.where(
        (d[:, 0] >= d[:, 1]) & (d[:, 0] >= d[:, 2]),
        0,
        np.where(d[:, 1] >= d[:, 2], 1, 2),
    )
    rest = np.array([[1, 2], [0, 2], [0, 1]])[dom]  # (N,2)
    idx = np.arange(n)
    d0 = d[idx, dom]
    d1 = d[idx, rest[:, 0]]
    d2 = d[idx, rest[:, 1]]
    s0 = s[idx, dom]
    s1 = s[idx, rest[:, 0]]
    s2 = s[idx, rest[:, 1]]
    lengths = d0 + 1
    total = int(lengths.sum())
    ray_id = np.repeat(idx, lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    k = np.arange(total, dtype=np.int64) - offsets[ray_id]
    # closed form of the error-accumulation walk: after k dominant steps
    # the side axis has advanced floor((2*d*k + d0 - 1) / (2*d0)) cells,
    # which reproduces the strict "error > 0" tie rule exactly
    d0_r = d0[ray_id]
    d0_safe = np.maximum(d0_r, 1)
    adv1 = (2 * d1[ray_id] * k + d0_r - 1) // (2 * d0_safe)
    adv2 = (2 * d2[ray_id] * k + d0_r - 1) // (2 * d0_safe)
    adv1[d0_r == 0] = 0
    adv2[d0_r == 0] = 0
    return ray_id, k, adv1, adv2, dom, s0, s1, s2


def bresenham3d_keys(origin: np.ndarray, targets: np.ndarray):
    """Bresenham rays (see _bres_walk) from one origin voxel to many target
    voxels, as packed voxel keys with the ray of each (every ray's keys
    contiguous, origin first, target last).

    The packed key is linear in the three components, so each cell's key
    is origin's key plus the axis advances times fixed per-axis weights —
    the (M,3) cell array and the separate packing pass never materialize.
    """
    origin = np.asarray(origin, dtype=np.int64).reshape(3)
    tg = np.asarray(targets, dtype=np.int64).reshape(-1, 3)
    if len(tg) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp)
    if max(np.abs(origin).max(), np.abs(tg).max()) >= _KEY_BIAS:
        raise VoxelRangeError("voxel index out of packable range")
    ray_id, k, adv1, adv2, dom, s0, s1, s2 = _bres_walk(origin, tg)
    weights = np.array([1 << (2 * _KEY_BITS), 1 << _KEY_BITS, 1],
                       dtype=np.int64)
    rest = np.array([[1, 2], [0, 2], [0, 1]])[dom]
    # per-ray key increments of one step along each walk axis
    step0 = (s0 * weights[dom])[ray_id]
    step1 = (s1 * weights[rest[:, 0]])[ray_id]
    step2 = (s2 * weights[rest[:, 1]])[ray_id]
    base = int(pack_voxel_keys(origin[None, :])[0])
    return base + step0 * k + step1 * adv1 + step2 * adv2, ray_id


# Voxel indices are packed into a single int64 key (21 bits per signed
# component) for hashing and uniqueness operations.
_KEY_BIAS = 1 << 20
_KEY_BITS = 21
_KEY_MASK = (1 << _KEY_BITS) - 1


class VoxelRangeError(ValueError):
    """A point or voxel index beyond what a packed voxel key can hold."""


def row_norms(vecs: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each rounded as np.linalg.norm
    rounds a single vector."""
    return np.sqrt(np.matmul(vecs[..., None, :], vecs[..., :, None])[..., 0, 0])


def pack_voxel_keys(indices: np.ndarray) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    if np.abs(idx).max(initial=0) >= _KEY_BIAS:
        raise VoxelRangeError("voxel index out of packable range")
    return (
        ((idx[:, 0] + _KEY_BIAS) << (2 * _KEY_BITS))
        | ((idx[:, 1] + _KEY_BIAS) << _KEY_BITS)
        | (idx[:, 2] + _KEY_BIAS)
    )


def unpack_voxel_keys(keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    out = np.empty((len(keys), 3), dtype=np.int64)
    out[:, 0] = (keys >> (2 * _KEY_BITS)) - _KEY_BIAS
    out[:, 1] = ((keys >> _KEY_BITS) & _KEY_MASK) - _KEY_BIAS
    out[:, 2] = (keys & _KEY_MASK) - _KEY_BIAS
    return out


def load_calibs(path) -> dict[int, CameraCalib]:
    """Read the one-camera-per-line calibration text format, keyed by
    sensor id."""
    calibs: dict[int, CameraCalib] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 20:
                raise ValueError(f"{path}:{lineno}: expected 20 fields, got {len(parts)}")
            vals = [float(x) for x in parts]
            if int(vals[0]) in calibs:
                raise ValueError(f"{path}:{lineno}: duplicate sensor id {int(vals[0])}")
            calibs[int(vals[0])] = CameraCalib(
                sensor_id=int(vals[0]),
                width=int(vals[1]),
                height=int(vals[2]),
                fx=vals[3],
                fy=vals[4],
                cx=vals[5],
                cy=vals[6],
                rotation=np.array(vals[7:16]).reshape(3, 3),
                translation=np.array(vals[16:19]),
                depth_noise_sigma=vals[19],
            )
    return calibs


def save_calibs(path, calibs) -> None:
    with open(path, "w") as f:
        for c in calibs:
            r = " ".join(f"{x:.17g}" for x in c.rotation.reshape(-1))
            t = " ".join(f"{x:.17g}" for x in c.translation)
            f.write(
                f"{c.sensor_id} {c.width} {c.height} {c.fx:.17g} {c.fy:.17g} "
                f"{c.cx:.17g} {c.cy:.17g} {r} {t} {c.depth_noise_sigma:.17g}\n"
            )
