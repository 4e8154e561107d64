"""Bit-exact wire format between sensor nodes and backend.

Frame layout (all integers little-endian):

    magic 'SES2' | msg_type u8 | sensor_id u16 | timestamp_us u64 |
    payload_len u32 | crc32 u32 | payload

The CRC32 (zlib's) covers the header from msg_type to payload_len, then
the payload.

See PROTOCOL.md for the payload layouts and hex-dump examples.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .cloud import SemanticCloud
from .geometry import CameraCalib
from .pose import NUM_JOINTS, PoseSet2p5D, _check_shapes
from .semantics import NUM_CLASSES, PROB_FLOOR

MAGIC = b"SES2"
PROTOCOL_VERSION = 2
MAX_PAYLOAD = 64 * 1024 * 1024
# largest POSE depth a frame may carry, meters: far beyond any RGB-D
# range, far inside the map's index range
MAX_DEPTH_M = 1000.0

MSG_HELLO = 1
MSG_CLOUD = 2
MSG_POSE = 3
MSG_FEEDBACK = 4

_HEADER = struct.Struct("<4sBHQII")
_CHECKED = struct.Struct("<BHQI")  # the header fields the CRC covers, after the magic
_CRC_AT = 4 + _CHECKED.size


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


class ChecksumError(ProtocolError):
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


# distinct odd 64-bit multipliers, one per column, that hash a row's bits
_ROW_MIX = (np.arange(NUM_CLASSES, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C16)
            | np.uint64(1))


def _first_appearance(keys: np.ndarray, order: np.ndarray):
    """Group the rows of keys (N,k) by a stable sort `order` that puts
    equal rows next to each other: a row in that order joins the group of
    the row before it when the two are equal, else starts a group.
    Returns the first row of each group, the groups in order of first
    appearance, and each row's group."""
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    first = order[new]  # the stable order leads each run with its first row
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.intp)
    rank[by_first] = np.arange(len(first))
    group = np.empty(len(keys), dtype=np.intp)
    group[order] = rank[np.cumsum(new) - 1]
    return first[by_first], group


def _palette(log_probs: np.ndarray):
    """The distinct quantized rows of a cloud's log-probabilities in order
    of first appearance, and each point's index among them.

    The float rows are grouped first in the order of a hash of their bits.
    Equal rows share a hash and distinct rows never share a group; a hash
    collision can only split a group.  Only each group's first row is
    quantized, which is row-wise, so the bits are those of quantizing
    every row.  The quantized rows are then grouped exactly, sorted
    column by column."""
    bits = np.ascontiguousarray(log_probs).view(np.uint64)
    rows, group = _first_appearance(bits, np.argsort((bits * _ROW_MIX).sum(axis=1),
                                                     kind="stable"))
    q = quantize_probs(np.exp(log_probs[rows]))
    words = q.view("<u8")  # a row's 16 u16 as 4 u64
    pal, pal_of = _first_appearance(words, np.lexsort(words.T))
    return q[pal], pal_of[group]


_CLOUD_COUNTS = struct.Struct("<II")  # points, palette rows
_PALETTE_ROW = 2 * NUM_CLASSES  # bytes


def _cloud_records(n_palette: int) -> np.dtype:
    """A CLOUD point record: position and palette index, u16 when every
    index fits."""
    return np.dtype([("xyz", "<f4", (3,)),
                     ("i", "<u2" if n_palette <= 1 << 16 else "<u4")])


def _encode_cloud(msg: CloudMessage) -> bytes:
    cloud = msg.cloud
    n = len(cloud)
    palette, index = _palette(cloud.log_probs) if n else (np.empty((0, NUM_CLASSES), "<u2"), 0)
    rec = np.empty(n, dtype=_cloud_records(len(palette)))
    rec["xyz"] = cloud.positions
    rec["i"] = index
    return b"".join([_CLOUD_COUNTS.pack(n, len(palette)), palette.tobytes(), rec.tobytes()])


def _decode_cloud(sensor_id: int, ts: int, payload: bytes) -> CloudMessage:
    if len(payload) < _CLOUD_COUNTS.size:
        raise MalformedPayloadError("cloud payload shorter than its counts")
    n, m = _CLOUD_COUNTS.unpack_from(payload)
    if m > n or (n and not m):
        raise MalformedPayloadError(f"{m} palette rows for {n} points")
    dtype = _cloud_records(m)
    expect = _CLOUD_COUNTS.size + m * _PALETTE_ROW + n * dtype.itemsize
    if len(payload) != expect:
        raise MalformedPayloadError(f"cloud payload size {len(payload)} != expected {expect}")
    palette = np.frombuffer(payload, "<u2", m * NUM_CLASSES, _CLOUD_COUNTS.size)
    rec = np.frombuffer(payload, dtype, n, _CLOUD_COUNTS.size + m * _PALETTE_ROW)
    positions = rec["xyz"].astype(np.float64)
    if not np.isfinite(positions).all():
        raise MalformedPayloadError("cloud positions must be finite")
    if n and rec["i"].max() >= m:
        raise MalformedPayloadError(f"palette index beyond {m} rows")
    log_p = dequantize_probs(palette.reshape(m, NUM_CLASSES))[rec["i"]]
    return CloudMessage(SemanticCloud(sensor_id, ts, positions, log_p))


_JOINT_BITS = 1 << np.arange(NUM_JOINTS, dtype=np.int64)
# a person's row of the POSE and FEEDBACK table: id, joints present, flags
_PERSON = np.dtype([("id", "<u4"), ("present", "<u4"), ("flags", "<u4")])
_POSE_VALUES = 5  # u v conf depth sigma per present joint; flag: from feedback
_FEEDBACK_VALUES = 3  # u v conf per present joint; flag: occluded


def _encode_persons(ids: np.ndarray, present: np.ndarray, values: np.ndarray,
                    flags: np.ndarray) -> bytes:
    """u8 person count, the person table, then the f32 values (P,17,k) of
    every present joint in (person, joint) order.  present and flags
    (P,17) become bit masks; a flag counts only on a present joint."""
    if len(ids) > 255:
        raise ValueError("at most 255 persons per message")
    if len(ids) and not 0 <= ids.min() <= ids.max() <= 0xFFFFFFFF:
        raise ValueError("person ids must fit in u32")
    table = np.empty(len(ids), dtype=_PERSON)
    table["id"] = ids
    table["present"] = present @ _JOINT_BITS
    table["flags"] = (present & flags) @ _JOINT_BITS
    return b"".join([bytes([len(ids)]), table.tobytes(), values[present].astype("<f4").tobytes()])


def _decode_persons(payload: bytes, k: int):
    """Inverse of _encode_persons: ids (P,) int64, present and flags
    (P,17) bool, and values (P,17,k) float64, zero where a joint is
    absent."""
    if not payload:
        raise MalformedPayloadError("payload ends before the person count")
    count = payload[0]
    start = 1 + count * _PERSON.itemsize
    if len(payload) < start:
        raise MalformedPayloadError("truncated person table")
    table = np.frombuffer(payload, _PERSON, count, 1)
    masks = table["present"].astype(np.int64)
    if (masks >> NUM_JOINTS).any():
        raise MalformedPayloadError("joint mask has bits beyond joint count")
    if (table["flags"] & ~table["present"]).any():
        raise MalformedPayloadError("flag mask has bits outside the joint mask")
    present = (masks[:, None] & _JOINT_BITS) != 0
    flags = (table["flags"].astype(np.int64)[:, None] & _JOINT_BITS) != 0
    n = int(present.sum())
    if len(payload) != start + 4 * k * n:
        raise MalformedPayloadError(
            f"payload size {len(payload)} != {start + 4 * k * n} for {n} joints")
    values = np.zeros((count, NUM_JOINTS, k))
    values[present] = np.frombuffer(payload, "<f4", k * n, start).reshape(n, k)
    return table["id"].astype(np.int64), present, flags, values


def _encode_pose(msg: PoseMessage) -> bytes:
    ps = msg.pose_set
    return _encode_persons(ps.person_ids, ps.present, ps.keypoints, ps.from_feedback)


def _decode_pose(sensor_id: int, ts: int, payload: bytes) -> PoseMessage:
    ids, present, from_feedback, kp = _decode_persons(payload, _POSE_VALUES)
    vals = kp[present]
    if not np.isfinite(vals[:, :3]).all() or ((vals[:, 2] < 0) | (vals[:, 2] > 1)).any():
        raise MalformedPayloadError("keypoint u, v, confidence must be finite, confidence in [0, 1]")
    depth_sigma = vals[~np.isnan(vals[:, 3]), 3:]
    if not (np.isfinite(depth_sigma) & (depth_sigma > 0)).all():
        raise MalformedPayloadError("a depth needs finite depth > 0 and finite sigma > 0")
    if (depth_sigma[:, 0] > MAX_DEPTH_M).any():
        raise MalformedPayloadError(f"depth beyond {MAX_DEPTH_M:g} m")
    kp[..., 3:] = np.where(np.isnan(kp[..., 3:4]) | ~present[..., None], np.nan, kp[..., 3:])
    return PoseMessage(PoseSet2p5D(sensor_id, ts, ids, kp, present, from_feedback))


def _encode_feedback(msg: FeedbackMessage) -> bytes:
    return _encode_persons(msg.person_ids, msg.present, msg.uvc, msg.occluded)


def _decode_feedback(sensor_id: int, ts: int, payload: bytes) -> FeedbackMessage:
    ids, present, occluded, uvc = _decode_persons(payload, _FEEDBACK_VALUES)
    if not np.isfinite(uvc).all():
        raise MalformedPayloadError("feedback u, v, confidence must be finite")
    return FeedbackMessage(sensor_id, ts, ids, uvc, present, occluded)


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
    return _frame(mt, sid, ts, payload)


def _frame(mt: int, sid: int, ts: int, payload: bytes) -> bytes:
    """The header for payload, CRC included, then payload."""
    checked = _CHECKED.pack(mt, sid, ts, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(checked))
    return b"".join([MAGIC, checked, struct.pack("<I", crc), payload])


_DECODERS = {
    MSG_HELLO: _decode_hello,
    MSG_CLOUD: _decode_cloud,
    MSG_POSE: _decode_pose,
    MSG_FEEDBACK: _decode_feedback,
}


def _parse_header(data: bytes) -> int:
    """The payload length a frame header declares, once its magic, type
    and length are valid; the CRC is checked with the payload."""
    if len(data) < _HEADER.size:
        raise TruncatedFrameError(f"need {_HEADER.size} header bytes, have {len(data)}")
    magic, mt, _, _, plen, _ = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if mt not in _DECODERS:
        raise UnknownMessageTypeError(f"unknown message type {mt}")
    if plen > MAX_PAYLOAD:
        raise LengthMismatchError(f"payload length {plen} exceeds 64 MiB limit")
    return plen


def _decode_payload(header: bytes, payload: bytes):
    """The message of a frame whose header _parse_header accepted."""
    _, mt, sid, ts, _, crc = _HEADER.unpack(header)
    if zlib.crc32(payload, zlib.crc32(header[4:_CRC_AT])) != crc:
        raise ChecksumError(f"CRC32 mismatch in a type {mt} frame of sensor {sid}")
    # a float32 signalling NaN warns when cast; the decoders reject NaN
    with np.errstate(invalid="ignore"):
        return _DECODERS[mt](sid, ts, payload)


def decode(data: bytes):
    """Decode exactly one frame; trailing bytes are a length mismatch."""
    plen = _parse_header(data)
    if len(data) < _HEADER.size + plen:
        raise TruncatedFrameError("frame shorter than declared payload length")
    if len(data) != _HEADER.size + plen:
        raise LengthMismatchError("frame longer than declared payload length")
    return _decode_payload(data[:_HEADER.size], data[_HEADER.size :])


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
                header = bytes(self._buf[off : off + _HEADER.size])
                end = off + _HEADER.size + _parse_header(header)
                if len(self._buf) < end:
                    break
                out.append(_decode_payload(header, bytes(self._buf[off + _HEADER.size : end])))
                off = end
        except ProtocolError:
            if not out:
                raise
        finally:
            del self._buf[:off]
        return out
