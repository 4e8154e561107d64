import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semgrid import protocol
from semgrid.backend import Backend
from semgrid.cloud import SemanticCloud
from semgrid.geometry import VoxelRangeError
from semgrid.pose import NUM_JOINTS, PoseSet2p5D
from semgrid.protocol import (
    MAGIC,
    MAX_DEPTH_M,
    MSG_CLOUD,
    MSG_FEEDBACK,
    MSG_POSE,
    ChecksumError,
    CloudMessage,
    MalformedPayloadError,
    Hello,
    PoseMessage,
    ProtocolError,
    StreamDecoder,
    UnknownMessageTypeError,
    decode,
    dequantize_probs,
    encode,
    quantize_probs,
)
from semgrid.semantics import NUM_CLASSES
from tests import oracles
from tests.conftest import assert_stream_drained, feedback_message, make_ring_calibs, pose_set

CALIBS = make_ring_calibs()

f32 = st.floats(-1e4, 1e4, width=32)
conf32 = st.floats(0.0, 1.0, width=32).map(lambda x: float(np.float32(x)))
uint = st.integers(0, 2**32 - 1)


@st.composite
def keypoints(draw):
    """(u, v, conf, depth, sigma, from_feedback), depth and sigma None
    for a keypoint without depth."""
    if draw(st.booleans()):
        depth = float(np.float32(draw(st.floats(0.125, 50.0, width=32))))
        sigma = float(np.float32(draw(st.floats(0.015625, 5.0, width=32))))
    else:
        depth = sigma = None
    return (draw(f32), draw(f32), draw(conf32), depth, sigma, draw(st.booleans()))


@st.composite
def joint_slots(draw, element):
    """{joint: record} for up to 6 joints."""
    return {j: draw(element) for j in draw(st.sets(st.integers(0, NUM_JOINTS - 1), max_size=6))}


@st.composite
def pose_messages(draw):
    persons = [
        (draw(uint), draw(joint_slots(keypoints())))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return PoseMessage(pose_set(draw(st.integers(0, 65535)),
                                draw(st.integers(0, 2**63 - 1)), persons))


@st.composite
def feedback_messages(draw):
    sid = draw(st.integers(0, 65535))
    ts = draw(st.integers(0, 2**63 - 1))
    joints = st.tuples(f32, f32, conf32, st.booleans())  # u, v, conf, occluded
    persons = [
        (draw(uint), draw(joint_slots(joints)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return feedback_message(sid, ts, persons)


@st.composite
def cloud_messages(draw):
    n = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = rng.uniform(-10, 10, size=(n, 3)).astype(np.float32)
    p = rng.dirichlet(np.ones(NUM_CLASSES), size=n) if n else np.empty((0, NUM_CLASSES))
    log_p = np.log(np.maximum(p, 1e-12)) if n else p
    return CloudMessage(SemanticCloud(draw(st.integers(0, 65535)),
                                      draw(st.integers(0, 2**63 - 1)),
                                      positions, log_p))


@st.composite
def hello_messages(draw):
    return Hello(
        sensor_id=draw(st.integers(0, 3)),
        timestamp_us=draw(st.integers(0, 2**63 - 1)),
        calib=CALIBS[draw(st.integers(0, 3))],
        class_set_fingerprint=draw(st.integers(0, 2**64 - 1)),
    )


any_message = st.one_of(hello_messages(), pose_messages(), feedback_messages(),
                        cloud_messages())


class TestRoundTrip:
    @given(any_message)
    def test_reencode_bit_exact(self, msg):
        wire = encode(msg)
        assert encode(decode(wire)) == wire

    @given(pose_messages())
    def test_pose_fields_survive(self, msg):
        a, b = msg.pose_set, decode(encode(msg)).pose_set
        assert b.sensor_id == a.sensor_id
        assert b.timestamp_us == a.timestamp_us
        assert np.array_equal(b.person_ids, a.person_ids)
        assert np.array_equal(b.present, a.present)
        assert np.array_equal(b.keypoints[b.present, 0],
                              a.keypoints[a.present, 0].astype(np.float32))
        assert np.array_equal(b.from_feedback[b.present], a.from_feedback[a.present])
        assert np.array_equal(np.isnan(b.keypoints[..., 3]), np.isnan(a.keypoints[..., 3]))

    @given(cloud_messages())
    def test_cloud_probs_within_quantization_step(self, msg):
        out = decode(encode(msg)).cloud
        if len(out):
            orig = np.exp(msg.cloud.log_probs)
            got = np.exp(out.log_probs)
            assert np.abs(got - orig).max() <= 1.5 / 65535

    @given(st.one_of(pose_messages(), feedback_messages()))
    def test_person_table_matches_joint_by_joint_form(self, msg):
        if isinstance(msg, PoseMessage):
            ps = msg.pose_set
            rows = ps.person_ids, ps.present, ps.keypoints, ps.from_feedback
        else:
            rows = msg.person_ids, msg.present, msg.uvc, msg.occluded
        assert encode(msg)[protocol._HEADER.size:] == oracles.persons_payload(*rows)

    @given(hello_messages())
    def test_hello_calib_exact(self, msg):
        out = decode(encode(msg))
        assert out.class_set_fingerprint == msg.class_set_fingerprint
        assert np.array_equal(out.calib.rotation, msg.calib.rotation)
        assert np.array_equal(out.calib.translation, msg.calib.translation)


@st.composite
def palette_clouds(draw):
    """0 to 60 points whose rows are drawn from k random rows: few
    distinct rows, or as many as points."""
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([1, 3, max(n, 1)]))
    rows = np.log(np.maximum(rng.dirichlet(np.full(NUM_CLASSES, 0.5), size=k), 1e-12))
    pick = np.arange(n) if k == n else rng.integers(0, k, n)
    positions = rng.uniform(-10, 10, size=(n, 3))
    return CloudMessage(SemanticCloud(1, 2, positions, rows[pick]))


def palette_size(frame: bytes) -> int:
    return struct.unpack_from("<I", frame, protocol._HEADER.size + 4)[0]


class TestPalette:
    """CLOUD rows travel as a palette of distinct quantized rows and an
    index per point, and decode to exactly what per-point quantization
    gives."""

    @staticmethod
    def check(msg) -> bytes:
        cloud = msg.cloud
        wire = encode(msg)
        out = decode(wire).cloud
        assert encode(decode(wire)) == wire
        assert np.array_equal(out.positions, cloud.positions.astype(np.float32))
        q = quantize_probs(np.exp(cloud.log_probs))
        expected = dequantize_probs(q) if len(cloud) else np.empty((0, NUM_CLASSES))
        assert out.log_probs.shape == expected.shape
        assert out.log_probs.tobytes() == expected.tobytes()
        m = palette_size(wire)
        assert m == (len(np.unique(q, axis=0)) if len(cloud) else 0)
        width = 2 if m <= 1 << 16 else 4
        assert len(wire) == protocol._HEADER.size + 8 + 32 * m + (12 + width) * len(cloud)
        return wire

    @given(palette_clouds())
    @example(CloudMessage(SemanticCloud(1, 2, np.empty((0, 3)), np.empty((0, NUM_CLASSES)))))
    @example(CloudMessage(SemanticCloud(1, 2, [[1.0, 2.0, 3.0]],
                                        np.log(np.full((1, NUM_CLASSES), 1 / NUM_CLASSES)))))
    def test_round_trip(self, msg):
        wire = self.check(msg)
        assert wire[protocol._HEADER.size:] == oracles.cloud_payload(
            msg.cloud.positions, msg.cloud.log_probs)

    def test_palette_in_order_of_first_appearance(self):
        rows = np.log(np.eye(NUM_CLASSES) * (1 - 15e-9) + 1e-9)
        pick = [5, 5, 2, 9, 2, 5, 0]
        wire = self.check(CloudMessage(SemanticCloud(1, 2, np.zeros((7, 3)), rows[pick])))
        palette = np.frombuffer(wire, "<u2", 4 * NUM_CLASSES, protocol._HEADER.size + 8)
        assert palette.reshape(4, NUM_CLASSES).argmax(axis=1).tolist() == [5, 2, 9, 0]
        index = np.frombuffer(wire, [("xyz", "<f4", 3), ("i", "<u2")], 7,
                              protocol._HEADER.size + 8 + 4 * 32)["i"]
        assert index.tolist() == [0, 0, 1, 2, 1, 0, 3]

    def test_float_rows_that_quantize_alike_share_a_row(self):
        # two float rows one ulp apart quantize to one palette row
        row = np.log(np.full(NUM_CLASSES, 1 / NUM_CLASSES))
        rows = np.stack([row, np.nextafter(row, 0)])
        wire = self.check(CloudMessage(SemanticCloud(1, 2, np.zeros((2, 3)), rows)))
        assert palette_size(wire) == 1

    @settings(max_examples=20)
    @given(palette_clouds())
    def test_hash_collisions_change_no_byte(self, msg):
        # a hash that sends every row to one bucket groups only runs of
        # equal rows, so the palette is still exact
        wire = encode(msg)
        saved = protocol._ROW_MIX
        protocol._ROW_MIX = np.zeros_like(saved)
        try:
            assert encode(msg) == wire
        finally:
            protocol._ROW_MIX = saved

    @settings(max_examples=3)
    @given(st.sampled_from([1 << 16, (1 << 16) + 1, (1 << 16) + 40]), st.integers(0, 2**32 - 1))
    def test_u32_index_beyond_65536_rows(self, m, seed):
        # m distinct quantized rows, then a few repeats, in shuffled order
        i = np.arange(m)
        q = np.zeros((m, NUM_CLASSES), dtype=np.int64)
        q[:, 0], q[:, 1] = i % 60_000, i // 60_000
        q[:, 2] = 65535 - q[:, 0] - q[:, 1]
        rng = np.random.default_rng(seed)
        pick = rng.permutation(np.r_[i, rng.integers(0, m, 10)])
        rows = dequantize_probs(q.astype(np.uint16))[pick]
        wire = self.check(CloudMessage(SemanticCloud(1, 2, np.zeros((len(pick), 3)), rows)))
        assert palette_size(wire) == m


class TestQuantization:
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_rows_sum_exactly(self, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(NUM_CLASSES), size=n)
        q = quantize_probs(p)
        assert np.all(q.sum(axis=1) == 65535)
        assert np.abs(q / 65535.0 - p).max() <= 1.0 / 65535

    @given(rows=st.lists(st.one_of(
        st.integers(0, NUM_CLASSES - 1).map(lambda c: np.eye(NUM_CLASSES)[c]),  # one-hot
        st.just(np.full(NUM_CLASSES, 1 / NUM_CLASSES)),  # 15 tied fractions
        # m equal entries: ties at the cut
        st.lists(st.integers(0, NUM_CLASSES - 1), min_size=1, unique=True).map(
            lambda at: np.bincount(at, minlength=NUM_CLASSES) / len(at)),
        # whole counts: the floors already sum to 65535, a remainder of 0
        st.lists(st.integers(0, 65535), min_size=NUM_CLASSES - 1, max_size=NUM_CLASSES - 1).map(
            lambda c: np.diff(np.r_[0, np.sort(c), 65535]) / 65535.0),
        st.integers(0, 2**32 - 1).map(
            lambda seed: np.random.default_rng(seed).dirichlet(np.full(NUM_CLASSES, 0.3)))),
        min_size=1, max_size=20))
    def test_matches_stable_sort_rule(self, rows):
        p = np.array(rows)
        q = quantize_probs(p)
        assert np.array_equal(q, oracles.quantize_probs(p))
        assert (q.sum(axis=1) == 65535).all()

    def test_dequantize_normalized(self):
        q = np.zeros((1, NUM_CLASSES), dtype=np.uint16)
        q[0, 0] = 65535
        log_p = dequantize_probs(q)
        assert abs(np.exp(log_p).sum() - 1.0) <= 1e-9


# malformed frames a stream can detect (a truncated one only pends)
MALFORMED_TAILS = {
    "bad magic": lambda: b"NOPE" + b"\0" * 30,
    "unknown type": lambda: (lambda good: good[:4] + b"\x2a" + good[5:])(
        encode(PoseMessage(PoseSet2p5D(1, 2)))),
    "oversized length": lambda: protocol._HEADER.pack(MAGIC, MSG_POSE, 0, 0, 1 << 31, 0),
    "payload byte flipped": lambda: (lambda good: good[:-1] + bytes([good[-1] ^ 1]))(
        encode(PoseMessage(pose_set(1, 2, [(0, {0: (1.0, 2.0, 0.5)})])))),
    "sensor id flipped": lambda: (lambda good: good[:5] + bytes([good[5] ^ 2]) + good[6:])(
        encode(PoseMessage(pose_set(1, 2, [(0, {0: (1.0, 2.0, 0.5)})])))),
    "pose nan u": lambda: hostile_frames()["pose nan u"],
    "cloud nan position": lambda: hostile_frames()["cloud nan position"],
}


class TestStreamDecoder:
    @given(st.lists(any_message, min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_chunking_invariant(self, msgs, seed):
        stream = b"".join(encode(m) for m in msgs)
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.integers(0, len(stream) + 1,
                                    size=rng.integers(0, 12)))
        pieces = np.split(np.frombuffer(stream, dtype=np.uint8), cuts)
        dec = StreamDecoder()
        out = []
        for piece in pieces:
            out.extend(dec.feed(piece.tobytes()))
        assert_stream_drained(dec)
        assert len(out) == len(msgs)
        for a, b in zip(msgs, out):
            assert encode(a) == encode(b)

    @given(st.lists(any_message, max_size=4), st.sampled_from(sorted(MALFORMED_TAILS)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_malformed_frame_after_valid_ones(self, msgs, tail, seed):
        # every split yields the valid frames, then the error
        stream = b"".join(encode(m) for m in msgs) + MALFORMED_TAILS[tail]()
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.integers(0, len(stream) + 1, size=rng.integers(0, 12)))
        dec = StreamDecoder()
        out = []
        with pytest.raises(ProtocolError):
            for piece in np.split(np.frombuffer(stream, dtype=np.uint8), cuts):
                out.extend(dec.feed(piece.tobytes()))
            dec.feed(b"")
        assert [encode(m) for m in out] == [encode(m) for m in msgs]
        with pytest.raises(ProtocolError):
            dec.feed(b"")

    def test_partial_frame_pends(self):
        wire = encode(PoseMessage(PoseSet2p5D(1, 2)))
        dec = StreamDecoder()
        assert dec.feed(wire[:5]) == []
        assert [encode(m) for m in dec.feed(wire[5:])] == [wire]
        assert_stream_drained(dec)


def persons_frame(msg_type: int, present: int, flags: int, values) -> bytes:
    """A POSE or FEEDBACK frame with a valid CRC: one person (id 0) with
    the given joint and flag masks, then the f32 values."""
    payload = (struct.pack("<BIII", 1, 0, present, flags)
               + struct.pack(f"<{len(values)}f", *values))
    return protocol._frame(msg_type, 1, 2, payload)


# a palette row that puts all mass on class 2
PALETTE_ROW = struct.pack(f"<{NUM_CLASSES}H", *(65535 * (c == 2) for c in range(NUM_CLASSES)))


def cloud_payload_frame(n: int, m: int, body: bytes) -> bytes:
    """A CLOUD frame with a valid CRC that claims n points and m palette
    rows, then body."""
    return protocol._frame(MSG_CLOUD, 1, 2, struct.pack("<II", n, m) + body)


def corrupt_cases():
    good = encode(PoseMessage(pose_set(1, 2, [(0, {0: (1.0, 2.0, 0.5)})])))
    hello = encode(Hello(0, 0, CALIBS[0], 1234))
    cases = {
        "bad magic": b"XXXX" + good[4:],
        "unknown type": good[:4] + b"\x2a" + good[5:],
        "truncated header": good[:10],
        "truncated payload": good[:-3],
        "trailing garbage": good + b"\x00\x00",
        "bad keypoint flags": persons_frame(MSG_POSE, 1, 2, [1.0, 2.0, 0.5, 3.0, 0.1]),
        "mask beyond joints": persons_frame(MSG_POSE, 1 << NUM_JOINTS, 0, []),
        "hello short payload": hello[: protocol._HEADER.size + 4]
        [:protocol._HEADER.size] + b"\x00\x00\x00\x00",
        "hello bad rotation": None,
        "cloud size mismatch": None,
        "oversized length": good[:15] + struct.pack("<I", 1 << 31) + good[19:],
    }
    # hello whose rotation matrix is not orthonormal
    bad_vals = [500.0, 500.0, 320.0, 240.0] + [2.0] * 9 + [0.0, 0.0, 0.0, 0.0]
    payload = struct.pack("<HQHH17d", protocol.PROTOCOL_VERSION, 0, 640, 480,
                          *bad_vals)
    cases["hello bad rotation"] = protocol._frame(protocol.MSG_HELLO, 0, 0, payload)
    # cloud that claims more points than the payload carries
    cases["cloud size mismatch"] = cloud_payload_frame(100, 1, PALETTE_ROW + b"\x00" * 14)
    # fix the header length for the truncated/trailing variants so the
    # error surfaces in the payload decoder, not just the length check
    return cases


@pytest.mark.filterwarnings("error")
class TestMalformedInput:
    @pytest.mark.parametrize("name", sorted(corrupt_cases()))
    def test_typed_errors_never_panics(self, name):
        data = corrupt_cases()[name]
        with pytest.raises(ProtocolError):
            decode(data)

    @given(st.binary(max_size=200))
    def test_random_bytes_raise_protocol_errors_only(self, data):
        try:
            decode(data)
        except ProtocolError:
            pass

    @given(st.binary(max_size=120), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_mutated_valid_frame(self, junk, seed):
        rng = np.random.default_rng(seed)
        wire = bytearray(encode(PoseMessage(pose_set(1, 2, [(0, {0: (1.0, 2.0, 0.5)})]))))
        for _ in range(rng.integers(1, 6)):
            wire[rng.integers(0, len(wire))] = rng.integers(0, 256)
        data = bytes(wire) + junk
        try:
            decode(data)
        except ProtocolError:
            pass

    def test_type_5_is_unassigned(self):
        frame = protocol._frame(5, 0, 0, struct.pack("<I", 0) + b"\x00")
        with pytest.raises(UnknownMessageTypeError):
            decode(frame)
        with pytest.raises(UnknownMessageTypeError):
            StreamDecoder().feed(frame)

    def test_stream_decoder_raises_on_garbage(self):
        dec = StreamDecoder()
        with pytest.raises(ProtocolError):
            dec.feed(b"NOPE" + b"\x00" * 30)


def cloud_frame(position) -> bytes:
    """A one-point CLOUD frame, the point at `position` (camera frame)
    and most likely of class 2."""
    p = np.full((1, NUM_CLASSES), 0.01)
    p[0, 2] += 1 - p.sum()
    return encode(CloudMessage(SemanticCloud(1, 2, np.array([position], dtype=np.float64),
                                             np.log(p))))


def hostile_frames() -> dict[str, bytes]:
    """Well-framed POSE, FEEDBACK and CLOUD messages whose
    records carry values no sensor or backend produces."""
    nan, inf = math.nan, math.inf

    def pose(kp):
        return encode(PoseMessage(pose_set(1, 2, [(0, {0: (1.0, 2.0, 0.5), 3: kp})])))

    return {
        "pose nan u": pose((nan, 2.0, 0.5)),
        "pose +inf u": pose((inf, 2.0, 0.5)),
        "pose -inf u": pose((-inf, 2.0, 0.5)),
        "pose inf v": pose((1.0, inf, 0.5)),
        "pose nan conf": pose((1.0, 2.0, nan)),
        "pose conf above 1": pose((1.0, 2.0, 1.5)),
        "pose negative conf": pose((1.0, 2.0, -0.25)),
        "pose depth nan sigma": pose((1.0, 2.0, 0.5, 2.0, nan)),
        "pose depth inf sigma": pose((1.0, 2.0, 0.5, 2.0, inf)),
        "pose depth zero sigma": pose((1.0, 2.0, 0.5, 2.0, 0.0)),
        "pose inf depth": pose((1.0, 2.0, 0.5, inf, 0.1)),
        "pose negative depth": pose((1.0, 2.0, 0.5, -2.0, 0.1)),
        "pose depth just beyond MAX_DEPTH_M": pose(
            (1.0, 2.0, 0.5, float(np.nextafter(np.float32(MAX_DEPTH_M), np.float32(np.inf))), 0.1)),
        "pose depth 1e12": pose((1.0, 2.0, 0.5, 1e12, 0.1)),
        "feedback nan u, conf 7": encode(feedback_message(1, 2, [
            (5, {4: (nan, 2.0, 7.0, False)})])),
        "feedback inf v": encode(feedback_message(1, 2, [
            (5, {4: (1.0, -inf, 0.5, True)})])),
        "cloud nan position": cloud_frame([nan, 0.0, 1.0]),
        "cloud -inf position": cloud_frame([0.0, -inf, 1.0]),
        "cloud index beyond palette": cloud_payload_frame(
            1, 1, PALETTE_ROW + struct.pack("<3fH", 0.0, 0.0, 1.0, 1)),
        "cloud points without palette": cloud_payload_frame(
            1, 0, struct.pack("<3fH", 0.0, 0.0, 1.0, 0)),
        "cloud more palette rows than points": cloud_payload_frame(
            1, 2, 2 * PALETTE_ROW + struct.pack("<3fH", 0.0, 0.0, 1.0, 0)),
        "cloud u32 index for one palette row": cloud_payload_frame(
            1, 1, PALETTE_ROW + struct.pack("<3fI", 0.0, 0.0, 1.0, 0)),
        "cloud fewer records than points": cloud_payload_frame(
            2, 1, PALETTE_ROW + struct.pack("<3fH", 0.0, 0.0, 1.0, 0)),
        "pose mask beyond joint 16": persons_frame(
            MSG_POSE, 1 | 1 << NUM_JOINTS, 0, [1.0, 2.0, 0.5, nan, nan] * 2),
        "pose flag outside joint mask": persons_frame(
            MSG_POSE, 1, 1 << 3, [1.0, 2.0, 0.5, nan, nan]),
        "feedback mask beyond joint 16": persons_frame(
            MSG_FEEDBACK, 1 | 1 << 20, 0, [1.0, 2.0, 0.5] * 2),
        "feedback flag outside joint mask": persons_frame(
            MSG_FEEDBACK, 1, 1 | 1 << 16, [1.0, 2.0, 0.5]),
    }


@pytest.mark.filterwarnings("error")
class TestHostileRecords:
    @pytest.mark.parametrize("name", sorted(hostile_frames()))
    def test_rejected_with_malformed_payload(self, name):
        frame = hostile_frames()[name]
        with pytest.raises(MalformedPayloadError):
            decode(frame)
        with pytest.raises(MalformedPayloadError):
            StreamDecoder().feed(frame)

    @pytest.mark.parametrize("x", [2e5, 3.4e38])
    def test_cloud_beyond_the_map_refused(self, x):
        # finite, so it decodes, but the map has no voxel for it
        b = Backend(1234)
        b.on_message(Hello(1, 0, CALIBS[1], 1234), 0)
        msg = decode(cloud_frame([x, 0.0, 1.0]))
        with pytest.raises(VoxelRangeError):
            b.on_message(msg, 0)
        assert len(b.vmap) == 0 and b.stats["clouds_received"] == 0

    def test_valid_edges_accepted(self):
        # confidence 0 and 1, a depth of MAX_DEPTH_M, and a keypoint
        # without depth, are valid
        ps = pose_set(1, 2, [(0, {0: (1.0, 2.0, 0.0), 1: (1.0, 2.0, 1.0, 0.5, 0.01),
                                  2: (3.0, 4.0, 0.5, None, None, True),
                                  3: (1.0, 2.0, 0.5, MAX_DEPTH_M, 0.1)})])
        out = decode(encode(PoseMessage(ps))).pose_set
        assert np.array_equal(out.present, ps.present)
        assert np.isnan(out.keypoints[0, 2, 3:]).all()
        assert out.keypoints[0, 3, 3] == MAX_DEPTH_M


PROTOCOL_MD = Path(__file__).resolve().parent.parent / "PROTOCOL.md"


def golden_frames() -> dict[str, bytes]:
    """The hex dump under each message-type heading of PROTOCOL.md."""
    frames = {}
    for section in re.split(r"^## ", PROTOCOL_MD.read_text(), flags=re.M):
        name = section.split(" ", 1)[0]
        rows = re.findall(r"^[0-9a-f]{8}  (.{47})", section, flags=re.M)
        if rows:
            frames[name] = bytes.fromhex("".join(rows))
    return frames


class TestChecksum:
    """The CRC32 covers all of a frame but its magic and the CRC itself."""

    @pytest.mark.parametrize("name", ["HELLO", "CLOUD", "POSE", "FEEDBACK"])
    def test_every_single_byte_change_refused(self, name):
        frame = golden_frames()[name]
        for at in range(len(frame)):
            for value in range(256):
                if value == frame[at]:
                    continue
                bad = frame[:at] + bytes([value]) + frame[at + 1:]
                with pytest.raises(ProtocolError) as err:
                    decode(bad)
                # sensor id, timestamp, CRC and payload bytes pass every
                # header check; only the CRC can catch them
                if 5 <= at < 15 or at >= 19:
                    assert err.type is ChecksumError, (name, at, value)


class TestGoldenFrames:
    """The hex dumps of PROTOCOL.md decode to the values its prose states
    and re-encode to the same bytes."""

    def test_all_four_present_and_reencode_bit_exact(self):
        frames = golden_frames()
        assert set(frames) == {"HELLO", "CLOUD", "POSE", "FEEDBACK"}
        for name, frame in frames.items():
            assert encode(decode(frame)) == frame, name

    def test_hello(self):
        msg = decode(golden_frames()["HELLO"])
        c = msg.calib
        assert isinstance(msg, Hello)
        assert (msg.sensor_id, msg.timestamp_us, msg.protocol_version) == (2, 0, 2)
        assert msg.class_set_fingerprint == 0x1122334455667788
        assert (c.width, c.height, c.fx, c.fy, c.cx, c.cy) == (160, 120, 130.0, 130.0, 80.0, 60.0)
        assert np.array_equal(c.rotation, np.eye(3))
        assert np.array_equal(c.translation, [4.0, 0.0, 2.5])
        assert c.depth_noise_sigma == 0.02

    def test_cloud(self):
        cloud = decode(golden_frames()["CLOUD"]).cloud
        assert (cloud.sensor_id, cloud.timestamp_us, len(cloud)) == (1, 2_000_000, 1)
        assert np.array_equal(cloud.positions, [[1.5, -0.25, 3.0]])
        q = quantize_probs(np.exp(cloud.log_probs))[0]
        assert (q[2], q[6], q.sum()) == (49151, 16384, 65535)

    def test_pose(self):
        ps = decode(golden_frames()["POSE"]).pose_set
        assert (ps.sensor_id, ps.timestamp_us) == (3, 1_700_000)
        assert ps.person_ids.tolist() == [7]
        assert np.flatnonzero(ps.present[0]).tolist() == [0, 5]
        assert ps.keypoints[0, 0].tolist() == [101.5, 52.25, 0.875, 2.5, 0.0625]
        assert ps.keypoints[0, 5, :3].tolist() == [98.0, 80.5, 0.5]
        assert np.isnan(ps.keypoints[0, 5, 3:]).all()
        assert ps.from_feedback[0].tolist() == [j == 5 for j in range(NUM_JOINTS)]

    def test_feedback(self):
        msg = decode(golden_frames()["FEEDBACK"])
        assert (msg.sensor_id, msg.timestamp_us) == (3, 1_733_333)
        assert msg.person_ids.tolist() == [12]
        assert np.flatnonzero(msg.present[0]).tolist() == [0]
        assert msg.uvc[0, 0].tolist() == [101.0, 52.0, 0.875]
        assert msg.occluded[0].tolist() == [j == 0 for j in range(NUM_JOINTS)]
