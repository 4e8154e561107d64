"""Bit-exact wire format between sensor nodes and backend.

Frame layout (all integers little-endian):

    magic 'SES1' | msg_type u8 | sensor_id u16 | timestamp_us u64 |
    payload_len u32 | payload

See PROTOCOL.md for the payload layouts and hex-dump examples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .cloud import SemanticCloud
from .geometry import CameraCalib
from .pose import NUM_JOINTS, PoseSet2p5D, _check_shapes
from .semantics import NUM_CLASSES, PROB_FLOOR

MAGIC = b"SES1"
PROTOCOL_VERSION = 1
MAX_PAYLOAD = 64 * 1024 * 1024
# largest POSE depth a frame may carry, meters: far beyond any RGB-D
# range, far inside the map's index range
MAX_DEPTH_M = 1000.0

MSG_HELLO = 1
MSG_CLOUD = 2
MSG_POSE = 3
MSG_FEEDBACK = 4

_HEADER = struct.Struct("<4sBHQI")


class ProtocolError(Exception):
    """Base class for wire-format violations."""


class BadMagicError(ProtocolError):
    pass


class UnknownMessageTypeError(ProtocolError):
    pass


class TruncatedFrameError(ProtocolError):
    pass


class LengthMismatchError(ProtocolError):
    pass


class MalformedPayloadError(ProtocolError):
    pass


@dataclass
class Hello:
    sensor_id: int
    timestamp_us: int
    calib: CameraCalib
    class_set_fingerprint: int
    protocol_version: int = PROTOCOL_VERSION


@dataclass
class CloudMessage:
    cloud: SemanticCloud


@dataclass
class PoseMessage:
    pose_set: PoseSet2p5D


@dataclass
class FeedbackMessage:
    """The backend's complete current feedback for one sensor: the fused
    persons as that sensor should see them, one row per person (the
    layout of pose.py).  It replaces the sensor's previous feedback."""

    sensor_id: int
    timestamp_us: int
    person_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    uvc: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_JOINTS, 3)))
    present: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_JOINTS), dtype=bool))
    occluded: np.ndarray = field(default_factory=lambda: np.empty((0, NUM_JOINTS), dtype=bool))

    def __post_init__(self):
        n = len(self.person_ids)
        _check_shapes(self, uvc=(n, NUM_JOINTS, 3), present=(n, NUM_JOINTS),
                      occluded=(n, NUM_JOINTS))


def quantize_probs(probs: np.ndarray) -> np.ndarray:
    """Sum-preserving u16 quantization: rows sum to exactly 65535.

    Largest-remainder rounding keeps each entry within 1/65535 of the
    input, so decoding never needs a lossy renormalization step.  A row's
    remainder r goes to its r largest fractions, of equal ones the leftmost.
    """
    p = np.asarray(probs, dtype=np.float64).reshape(-1, NUM_CLASSES)
    scaled = p * 65535.0
    q = np.floor(scaled).astype(np.int64)
    remainder = 65535 - q.sum(axis=-1)
    frac = scaled - q
    at = np.clip(NUM_CLASSES - remainder, 0, NUM_CLASSES - 1)  # r <= 0: the largest, none bumped
    cut = np.sort(frac, axis=-1)[np.arange(len(p)), at, None]  # the r-th largest fraction
    above, ties = frac > cut, frac == cut
    q += above | (ties & (np.cumsum(ties, axis=-1) <= (remainder - above.sum(axis=-1))[:, None]))
    return q.astype(np.uint16)


def dequantize_probs(q: np.ndarray) -> np.ndarray:
    """Back to floored, normalized log-probability rows."""
    p = np.asarray(q, dtype=np.float64) / 65535.0
    p = np.maximum(p, PROB_FLOOR)
    p /= p.sum(axis=-1, keepdims=True)
    return np.log(p)


def _encode_hello(msg: Hello) -> bytes:
    c = msg.calib
    vals = [c.fx, c.fy, c.cx, c.cy, *c.rotation.reshape(-1), *c.translation, c.depth_noise_sigma]
    return struct.pack(
        "<HQHH17d",
        msg.protocol_version,
        msg.class_set_fingerprint,
        c.width,
        c.height,
        *vals,
    )


def _decode_hello(sensor_id: int, ts: int, payload: bytes) -> Hello:
    try:
        version, fp, w, h, *vals = struct.unpack("<HQHH17d", payload)
    except struct.error as e:
        raise MalformedPayloadError(str(e)) from None
    try:
        calib = CameraCalib(
            sensor_id=sensor_id,
            width=w,
            height=h,
            fx=vals[0],
            fy=vals[1],
            cx=vals[2],
            cy=vals[3],
            rotation=np.array(vals[4:13]).reshape(3, 3),
            translation=np.array(vals[13:16]),
            depth_noise_sigma=vals[16],
        )
    except ValueError as e:
        raise MalformedPayloadError(f"invalid calibration: {e}") from None
    return Hello(sensor_id, ts, calib, fp, version)


_cloud_point_dtype = np.dtype(
    [("xyz", "<f4", (3,)), ("q", "<u2", (NUM_CLASSES,))]
)


def _encode_cloud(msg: CloudMessage) -> bytes:
    cloud = msg.cloud
    n = len(cloud)
    rec = np.empty(n, dtype=_cloud_point_dtype)
    rec["xyz"] = cloud.positions.astype(np.float32)
    rec["q"] = quantize_probs(np.exp(cloud.log_probs)) if n else 0
    return struct.pack("<I", n) + rec.tobytes()


def _decode_cloud(sensor_id: int, ts: int, payload: bytes) -> CloudMessage:
    if len(payload) < 4:
        raise MalformedPayloadError("cloud payload shorter than point count")
    (n,) = struct.unpack_from("<I", payload)
    expect = 4 + n * _cloud_point_dtype.itemsize
    if len(payload) != expect:
        raise MalformedPayloadError(
            f"cloud payload size {len(payload)} != expected {expect}"
        )
    rec = np.frombuffer(payload, dtype=_cloud_point_dtype, count=n, offset=4)
    positions = rec["xyz"].astype(np.float64)
    if not np.isfinite(positions).all():
        raise MalformedPayloadError("cloud positions must be finite")
    log_p = dequantize_probs(rec["q"]) if n else np.empty((0, NUM_CLASSES))
    return CloudMessage(SemanticCloud(sensor_id, ts, positions, log_p))


_PERSON = struct.Struct("<II")
_JOINT_BITS = 1 << np.arange(NUM_JOINTS, dtype=np.int64)
# joint records, packed: f32 values and a u8
_KP = np.dtype([("f", "<f4", (5,)), ("b", "u1")])  # <5fB: u v conf depth sigma | from feedback
_FBJ = np.dtype([("f", "<f4", (3,)), ("b", "u1")])  # <3fB: u v conf | occluded


def _encode_persons(ids, present: np.ndarray, values: np.ndarray, flags: np.ndarray,
                    dtype: np.dtype) -> bytes:
    """u8 person count, then per person its (id, joint mask) header and
    the records of its present joints in joint order, one tobytes call
    per person.  present (P,17); values (P,17,k) and flags (P,17) fill
    the records."""
    if len(ids) > 255:
        raise ValueError("at most 255 persons per message")
    rec = np.empty(present.shape, dtype=dtype)
    rec["f"] = values
    rec["b"] = flags
    masks = (present * _JOINT_BITS).sum(axis=1).tolist()
    parts = [struct.pack("<B", len(ids))]
    for pid, mask, r, p in zip(ids, masks, rec, present):
        parts += [_PERSON.pack(pid, mask), r[p].tobytes()]
    return b"".join(parts)


def _decode_persons(payload: bytes, dtype: np.dtype):
    """Inverse of _encode_persons: ids (P,) int64, present (P,17) and
    records (P,17) of dtype, zero where a joint is absent."""
    if not payload:
        raise MalformedPayloadError("payload ends before the person count")
    count = payload[0]
    off = 1
    ids = np.empty(count, dtype=np.int64)
    present = np.zeros((count, NUM_JOINTS), dtype=bool)
    rec = np.zeros((count, NUM_JOINTS), dtype=dtype)
    for p in range(count):
        if off + _PERSON.size > len(payload):
            raise MalformedPayloadError("truncated person header")
        ids[p], mask = _PERSON.unpack_from(payload, off)
        off += _PERSON.size
        if mask >> NUM_JOINTS:
            raise MalformedPayloadError("joint mask has bits beyond joint count")
        n = mask.bit_count()
        if off + n * dtype.itemsize > len(payload):
            raise MalformedPayloadError("truncated joint record")
        present[p] = (mask & _JOINT_BITS) != 0
        rec[p, present[p]] = np.frombuffer(payload, dtype=dtype, count=n, offset=off)
        off += n * dtype.itemsize
    if off != len(payload):
        raise MalformedPayloadError("trailing bytes after last person")
    return ids, present, rec


def _encode_pose(msg: PoseMessage) -> bytes:
    ps = msg.pose_set
    return _encode_persons(ps.person_ids.tolist(), ps.present, ps.keypoints,
                           ps.from_feedback, _KP)


def _decode_pose(sensor_id: int, ts: int, payload: bytes) -> PoseMessage:
    ids, present, rec = _decode_persons(payload, _KP)
    if (rec["b"] > 1).any():
        raise MalformedPayloadError("keypoint flags must be 0 or 1")
    kp = rec["f"].astype(np.float64)
    vals = kp[present]
    if not np.isfinite(vals[:, :3]).all() or ((vals[:, 2] < 0) | (vals[:, 2] > 1)).any():
        raise MalformedPayloadError("keypoint u, v, confidence must be finite, confidence in [0, 1]")
    depth_sigma = vals[~np.isnan(vals[:, 3]), 3:]
    if not (np.isfinite(depth_sigma) & (depth_sigma > 0)).all():
        raise MalformedPayloadError("a depth needs finite depth > 0 and finite sigma > 0")
    if (depth_sigma[:, 0] > MAX_DEPTH_M).any():
        raise MalformedPayloadError(f"depth beyond {MAX_DEPTH_M:g} m")
    kp[..., 3:] = np.where(np.isnan(kp[..., 3:4]) | ~present[..., None], np.nan, kp[..., 3:])
    return PoseMessage(PoseSet2p5D(sensor_id, ts, ids, kp, present, rec["b"] == 1))


def _encode_feedback(msg: FeedbackMessage) -> bytes:
    return _encode_persons(msg.person_ids.tolist(), msg.present, msg.uvc, msg.occluded, _FBJ)


def _decode_feedback(sensor_id: int, ts: int, payload: bytes) -> FeedbackMessage:
    ids, present, rec = _decode_persons(payload, _FBJ)
    if (rec["b"] > 1).any():
        raise MalformedPayloadError("occluded flag must be 0 or 1")
    uvc = rec["f"].astype(np.float64)
    if not np.isfinite(uvc).all():
        raise MalformedPayloadError("feedback u, v, confidence must be finite")
    return FeedbackMessage(sensor_id, ts, ids, uvc, present, rec["b"] == 1)


def encode(msg) -> bytes:
    """Serialize a message into one complete frame."""
    if isinstance(msg, Hello):
        mt, sid, ts, payload = MSG_HELLO, msg.sensor_id, msg.timestamp_us, _encode_hello(msg)
    elif isinstance(msg, CloudMessage):
        c = msg.cloud
        mt, sid, ts, payload = MSG_CLOUD, c.sensor_id, c.timestamp_us, _encode_cloud(msg)
    elif isinstance(msg, PoseMessage):
        p = msg.pose_set
        mt, sid, ts, payload = MSG_POSE, p.sensor_id, p.timestamp_us, _encode_pose(msg)
    elif isinstance(msg, FeedbackMessage):
        mt, sid, ts, payload = MSG_FEEDBACK, msg.sensor_id, msg.timestamp_us, _encode_feedback(msg)
    else:
        raise TypeError(f"cannot encode {type(msg).__name__}")
    if len(payload) > MAX_PAYLOAD:
        raise ValueError("payload exceeds 64 MiB limit")
    return _HEADER.pack(MAGIC, mt, sid, ts, len(payload)) + payload


_DECODERS = {
    MSG_HELLO: _decode_hello,
    MSG_CLOUD: _decode_cloud,
    MSG_POSE: _decode_pose,
    MSG_FEEDBACK: _decode_feedback,
}


def _parse_header(data: bytes):
    if len(data) < _HEADER.size:
        raise TruncatedFrameError(f"need {_HEADER.size} header bytes, have {len(data)}")
    magic, mt, sid, ts, plen = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if mt not in _DECODERS:
        raise UnknownMessageTypeError(f"unknown message type {mt}")
    if plen > MAX_PAYLOAD:
        raise LengthMismatchError(f"payload length {plen} exceeds 64 MiB limit")
    return mt, sid, ts, plen


def _decode_payload(mt: int, sid: int, ts: int, payload: bytes):
    # a float32 signalling NaN warns when cast; the decoders reject NaN
    with np.errstate(invalid="ignore"):
        return _DECODERS[mt](sid, ts, payload)


def decode(data: bytes):
    """Decode exactly one frame; trailing bytes are a length mismatch."""
    mt, sid, ts, plen = _parse_header(data)
    if len(data) < _HEADER.size + plen:
        raise TruncatedFrameError("frame shorter than declared payload length")
    if len(data) != _HEADER.size + plen:
        raise LengthMismatchError("frame longer than declared payload length")
    return _decode_payload(mt, sid, ts, data[_HEADER.size :])


class StreamDecoder:
    """Reassembles a byte stream into messages, chunk boundaries ignored."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list:
        """Append chunk and decode every complete frame, in order.

        A malformed frame raises a ProtocolError, but not before the
        frames ahead of it are returned: it stays at the head of the
        buffer and raises on the next call, `feed(b"")` included."""
        self._buf.extend(chunk)
        out = []
        off = 0
        try:
            while len(self._buf) - off >= _HEADER.size:
                mt, sid, ts, plen = _parse_header(bytes(self._buf[off : off + _HEADER.size]))
                end = off + _HEADER.size + plen
                if len(self._buf) < end:
                    break
                out.append(_decode_payload(mt, sid, ts, bytes(self._buf[off + _HEADER.size : end])))
                off = end
        except ProtocolError:
            if not out:
                raise
        finally:
            del self._buf[:off]
        return out
