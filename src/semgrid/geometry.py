"""The one camera model (pinhole projection, camera/world transforms),
voxel binning and packed voxel keys, and integer 3D ray traversal.

Conventions: world frame is right-handed with z up; camera frame has
x right, y down, z along the optical axis (computer-vision standard).
``CameraCalib`` maps camera-frame points to world as
p_world = R @ p_cam + t (``cam_to_world``; ``world_to_cam`` inverts it),
so ``t`` is the camera center in world coordinates.  Pinhole model, no
lens distortion.
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


# Snap applied before floor so points computed to lie exactly on a cell
# boundary (up to float rounding) bin into the upper cell.
_BIN_SNAP = 1e-9


def voxel_indices_of(points: np.ndarray, resolution: float) -> np.ndarray:
    """Vectorized binning of an (N,3) point array to (N,3) int64 indices;
    raises VoxelRangeError for a point outside the packable range."""
    idx = _voxel_bins(points, resolution)
    # checked before the cast: NaN and huge values have no int64 index
    if not (np.abs(idx) < _KEY_BIAS).all():
        raise VoxelRangeError("point outside the packable voxel range")
    return idx.astype(np.int64)


def voxel_indexable(points: np.ndarray, resolution: float) -> np.ndarray:
    """For each point of an (N,3) array, whether voxel_indices_of bins it."""
    return (np.abs(_voxel_bins(points, resolution)) < _KEY_BIAS).all(axis=1)


def _voxel_bins(points: np.ndarray, resolution: float) -> np.ndarray:
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    return np.floor(np.asarray(points, dtype=np.float64).reshape(-1, 3) / resolution + _BIN_SNAP)


def project(calib: CameraCalib, pc: np.ndarray):
    """Pinhole projection of camera-frame points of any leading shape.

    Returns (uv (...,2), front (...), in_image (...)): uv is valid only
    where front (z > 1e-6); in_image also requires the pixel inside the
    image bounds.
    """
    pc = np.asarray(pc, dtype=np.float64)
    z = pc[..., 2]
    front = z > _EPS_Z
    zs = np.where(front, z, 1.0)
    uv = np.empty(pc.shape[:-1] + (2,))
    uv[..., 0] = calib.cx + calib.fx * pc[..., 0] / zs
    uv[..., 1] = calib.cy + calib.fy * pc[..., 1] / zs
    in_image = (
        front
        & (uv[..., 0] >= 0)
        & (uv[..., 0] < calib.width)
        & (uv[..., 1] >= 0)
        & (uv[..., 1] < calib.height)
    )
    return uv, front, in_image


def bresenham3d_walk(origin: np.ndarray, tg: np.ndarray, weights: np.ndarray, base,
                     k_lo: np.ndarray, k_hi: np.ndarray):
    """Cells k_lo[i] <= k < k_hi[i] of the Bresenham rays from origin voxels
    (one (3,), or one per ray (N,3)) to target voxels tg (N,3), as (values,
    ray_id), each ray's values contiguous and in walk order.  A cell's value
    is base (one, or one per ray) plus weights (3,) times its offset from
    the origin: its packed key for KEY_WEIGHTS and the origin's key, its
    flat index for a grid's strides and the origin's index in the grid.
    Values take the weights' dtype, and the step arithmetic int32, while
    d0 < 2**15 (int32 wraps, so a value within its range comes out exact).

    Each ray is the 26-connected line of d0 + 1 cells, d0 = max(|dx|,|dy|,
    |dz|), origin (k = 0) first, target (k = d0) last, stepping along the
    dominant axis (the lowest index among equal maxima); an error term of
    exactly zero does not trigger a side step, so exact midpoints advance
    the dominant axis only."""
    delta = tg - origin
    d = np.abs(delta)
    s = np.sign(delta)
    dom = np.argmax(d, axis=1)  # the first of equal maxima
    idx = np.arange(len(tg))
    d0 = d[idx, dom]
    step_t = np.int32 if d0.max(initial=0) < 1 << 15 else np.int64  # 2*d0**2 must fit
    value_t = np.promote_types(weights.dtype, step_t)
    lengths = np.maximum(k_hi - k_lo, 0)

    def per_cell(per_ray, dtype=step_t):
        return np.repeat(np.asarray(per_ray, dtype=dtype), lengths)

    k = np.arange(lengths.sum(), dtype=step_t)
    k -= per_cell(np.cumsum(lengths) - lengths - k_lo)
    # closed form of the error-accumulation walk: after k dominant steps
    # an axis has advanced floor((2*d*k + d0 - 1) / (2*d0)) cells, which
    # reproduces the strict "error > 0" tie rule exactly (and is k on the
    # dominant axis); a ray of one cell (d0 = 0) advances 0
    values = per_cell(base, value_t) if np.size(base) > 1 else np.full(len(k), base, value_t)
    for axis in np.array([[1, 2], [0, 2], [0, 1]])[dom].T:
        steps = per_cell(2 * d[idx, axis])
        steps *= k
        steps += per_cell(np.maximum(d0 - 1, 0))
        steps //= per_cell(2 * np.maximum(d0, 1))
        values += steps * per_cell(s[idx, axis] * weights[axis], value_t)
    values += k * per_cell(s[idx, dom] * weights[dom], value_t)
    return values, np.repeat(idx, lengths)


def clip_walk_to_box(origin: np.ndarray, tg: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     k_lo: np.ndarray, k_hi: np.ndarray):
    """Narrow each ray's k-range [k_lo, k_hi) of bresenham3d_walk to its
    cells in the box lo <= cell <= hi.  Every axis is monotone along a walk,
    so they are one k-interval, found per axis in closed form: an axis has
    advanced m cells from k = ceil((2*d0*m - d0 + 1) / (2*d)) on."""
    delta = tg - origin
    d = np.abs(delta)
    d0 = d.max(axis=1, keepdims=True)
    # the box bounds each axis's advance to [least, most]
    least = np.where(delta < 0, origin - hi, lo - origin)
    most = np.where(delta < 0, origin - lo, hi - origin)
    two_d = 2 * np.maximum(d, 1)
    first = (2 * d0 * least - d0 + two_d) // two_d
    stop = (2 * d0 * (most + 1) - d0 + two_d) // two_d
    # an axis the ray does not move along is in the box for every k or none
    still = d == 0
    first[still] = np.where(least > 0, k_hi[:, None], 0)[still]
    stop[still] = np.where(most < 0, 0, k_hi[:, None])[still]
    return np.maximum(k_lo, first.max(axis=1)), np.minimum(k_hi, stop.min(axis=1))


def bresenham3d_keys(origin: np.ndarray, targets: np.ndarray):
    """Bresenham rays (see bresenham3d_walk) to many target voxels (N,3),
    as packed voxel keys with the ray of each (every ray's keys contiguous,
    origin first, target last).  origin broadcasts against the targets:
    one voxel (3,) for all rays, or one per ray (N,3)."""
    tg = np.asarray(targets, dtype=np.int64).reshape(-1, 3)
    origin = np.asarray(origin, dtype=np.int64)
    np.broadcast_shapes(origin.shape, tg.shape)  # raises for another shape
    _check_packable(origin)
    _check_packable(tg)
    d0 = np.abs(tg - origin).max(axis=1)
    return bresenham3d_walk(origin, tg, KEY_WEIGHTS, pack_voxel_keys(origin),
                            np.zeros_like(d0), d0 + 1)


# Voxel indices are packed into a single int64 key (21 bits per signed
# component) for sorting, searching and uniqueness operations.
_KEY_BIAS = 1 << 20
_KEY_BITS = 21
_KEY_MASK = (1 << _KEY_BITS) - 1
# a packed key is linear in the index: its per-axis weights
KEY_WEIGHTS = np.array([1 << (2 * _KEY_BITS), 1 << _KEY_BITS, 1], dtype=np.int64)


class VoxelRangeError(ValueError):
    """A point or voxel index beyond what a packed voxel key can hold."""


def _check_packable(idx: np.ndarray) -> None:
    # both bounds, not abs: abs(INT64_MIN) overflows to INT64_MIN
    if idx.size and (idx.min() <= -_KEY_BIAS or idx.max() >= _KEY_BIAS):
        raise VoxelRangeError("voxel index out of packable range")


def row_norms(vecs: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each rounded as np.linalg.norm
    rounds a single vector."""
    return np.sqrt(np.matmul(vecs[..., None, :], vecs[..., :, None])[..., 0, 0])


def pack_voxel_keys(indices: np.ndarray) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    _check_packable(idx)
    return (
        ((idx[:, 0] + _KEY_BIAS) << (2 * _KEY_BITS))
        | ((idx[:, 1] + _KEY_BIAS) << _KEY_BITS)
        | (idx[:, 2] + _KEY_BIAS)
    )


def key_components(keys: np.ndarray):
    """The x, y and z voxel indices of packed int64 keys (N,), each (N,)."""
    return ((keys >> (2 * _KEY_BITS)) - _KEY_BIAS, ((keys >> _KEY_BITS) & _KEY_MASK) - _KEY_BIAS,
            (keys & _KEY_MASK) - _KEY_BIAS)


def unpack_voxel_keys(keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    out = np.empty((len(keys), 3), dtype=np.int64)
    out[:, 0], out[:, 1], out[:, 2] = key_components(keys)
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
