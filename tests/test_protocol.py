import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgrid import protocol
from semgrid.backend import Backend
from semgrid.cloud import SemanticCloud
from semgrid.geometry import VoxelRangeError
from semgrid.pose import NUM_JOINTS, PoseSet2p5D
from semgrid.protocol import (
    MAGIC,
    MSG_POSE,
    CloudMessage,
    MalformedPayloadError,
    FeedbackMessage,
    Hello,
    PoseMessage,
    ProtocolError,
    SnapshotMessage,
    StreamDecoder,
    decode,
    dequantize_probs,
    encode,
    quantize_probs,
)
from semgrid.semantics import NUM_CLASSES
from tests.conftest import feedback_pose, make_ring_calibs, pose_set, skeleton

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
    poses = [
        feedback_pose(sid, draw(uint), ts, draw(joint_slots(joints)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return FeedbackMessage(sid, ts, poses)


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


@st.composite
def snapshot_messages(draw):
    n = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    joints3d = st.tuples(  # position, conf, n_views
        st.tuples(f32, f32, f32).map(
            lambda t: np.array(t, dtype=np.float32).astype(np.float64)),
        conf32,
        st.integers(0, 255),
    )
    ts = draw(st.integers(0, 2**63 - 1))
    skels = [
        skeleton(draw(uint), ts, draw(joint_slots(joints3d)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return SnapshotMessage(
        ts,
        rng.integers(-1000, 1000, size=(n, 3)).astype(np.int32),
        rng.normal(size=n).astype(np.float32),
        rng.integers(0, NUM_CLASSES, size=n).astype(np.uint8),
        rng.random(size=n).astype(np.float32),
        skels,
    )


any_message = st.one_of(hello_messages(), pose_messages(), feedback_messages(),
                        cloud_messages(), snapshot_messages())


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

    @given(hello_messages())
    def test_hello_calib_exact(self, msg):
        out = decode(encode(msg))
        assert out.class_set_fingerprint == msg.class_set_fingerprint
        assert np.array_equal(out.calib.rotation, msg.calib.rotation)
        assert np.array_equal(out.calib.translation, msg.calib.translation)


class TestQuantization:
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_rows_sum_exactly(self, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(NUM_CLASSES), size=n)
        q = quantize_probs(p)
        assert np.all(q.sum(axis=1) == 65535)
        assert np.abs(q / 65535.0 - p).max() <= 1.0 / 65535

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
    "oversized length": lambda: protocol._HEADER.pack(MAGIC, MSG_POSE, 0, 0, 1 << 31),
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
        assert dec.pending_bytes == 0
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
        assert dec.pending_bytes == 5
        out = dec.feed(wire[5:])
        assert len(out) == 1


def corrupt_cases():
    good = encode(PoseMessage(pose_set(1, 2, [(0, {0: (1.0, 2.0, 0.5)})])))
    hello = encode(Hello(0, 0, CALIBS[0], 1234))
    cases = {
        "bad magic": b"XXXX" + good[4:],
        "unknown type": good[:4] + b"\x2a" + good[5:],
        "truncated header": good[:10],
        "truncated payload": good[:-3],
        "trailing garbage": good + b"\x00\x00",
        "bad keypoint flags": good[:-1] + b"\x07",
        "mask beyond joints": None,  # built below
        "hello short payload": hello[: protocol._HEADER.size + 4]
        [:protocol._HEADER.size] + b"\x00\x00\x00\x00",
        "hello bad rotation": None,
        "cloud size mismatch": None,
        "oversized length": good[:15] + struct.pack("<I", 1 << 31) + good[19:],
    }
    # person header with a joint mask bit 17 set
    payload = struct.pack("<B", 1) + struct.pack("<II", 0, 1 << NUM_JOINTS)
    cases["mask beyond joints"] = (
        protocol._HEADER.pack(MAGIC, MSG_POSE, 0, 0, len(payload)) + payload)
    # hello whose rotation matrix is not orthonormal
    bad_vals = [500.0, 500.0, 320.0, 240.0] + [2.0] * 9 + [0.0, 0.0, 0.0, 0.0]
    payload = struct.pack("<HQHH17d", protocol.PROTOCOL_VERSION, 0, 640, 480,
                          *bad_vals)
    cases["hello bad rotation"] = (
        protocol._HEADER.pack(MAGIC, protocol.MSG_HELLO, 0, 0, len(payload))
        + payload)
    # cloud that claims more points than the payload carries
    payload = struct.pack("<I", 100) + b"\x00" * 16
    cases["cloud size mismatch"] = (
        protocol._HEADER.pack(MAGIC, protocol.MSG_CLOUD, 0, 0, len(payload))
        + payload)
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
    """Well-framed POSE, FEEDBACK, SNAPSHOT and CLOUD messages whose
    records carry values no sensor or backend produces."""
    nan, inf = math.nan, math.inf

    def pose(kp):
        return encode(PoseMessage(pose_set(1, 2, [(0, {0: (1.0, 2.0, 0.5), 3: kp})])))

    def snapshot(pos, conf):
        empty = np.zeros((0, 3), np.int32), np.zeros(0, np.float32), \
            np.zeros(0, np.uint8), np.zeros(0, np.float32)
        return encode(SnapshotMessage(3, *empty, [skeleton(4, 3, {2: (pos, conf, 2)})]))

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
        "feedback nan u, conf 7": encode(FeedbackMessage(1, 2, [
            feedback_pose(1, 5, 2, {4: (nan, 2.0, 7.0, False)})])),
        "feedback inf v": encode(FeedbackMessage(1, 2, [
            feedback_pose(1, 5, 2, {4: (1.0, -inf, 0.5, True)})])),
        "snapshot nan position": snapshot([nan, 0.0, 1.0], 0.5),
        "snapshot inf conf": snapshot([0.0, 0.0, 1.0], inf),
        "cloud nan position": cloud_frame([nan, 0.0, 1.0]),
        "cloud -inf position": cloud_frame([0.0, -inf, 1.0]),
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
        # confidence 0 and 1, and a keypoint without depth, are valid
        ps = pose_set(1, 2, [(0, {0: (1.0, 2.0, 0.0), 1: (1.0, 2.0, 1.0, 0.5, 0.01),
                                  2: (3.0, 4.0, 0.5, None, None, True)})])
        out = decode(encode(PoseMessage(ps))).pose_set
        assert np.array_equal(out.present, ps.present)
        assert np.isnan(out.keypoints[0, 2, 3:]).all()


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


class TestGoldenFrames:
    """The hex dumps of PROTOCOL.md decode to the values its prose states
    and re-encode to the same bytes."""

    def test_all_five_present_and_reencode_bit_exact(self):
        frames = golden_frames()
        assert set(frames) == {"HELLO", "CLOUD", "POSE", "FEEDBACK", "SNAPSHOT"}
        for name, frame in frames.items():
            assert encode(decode(frame)) == frame, name

    def test_hello(self):
        msg = decode(golden_frames()["HELLO"])
        c = msg.calib
        assert isinstance(msg, Hello)
        assert (msg.sensor_id, msg.timestamp_us, msg.protocol_version) == (2, 0, 1)
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
        assert (msg.sensor_id, msg.timestamp_us, len(msg.poses)) == (3, 1_733_333, 1)
        fp = msg.poses[0]
        assert fp.person_id == 12
        assert np.flatnonzero(fp.present).tolist() == [0]
        assert fp.uvc[0].tolist() == [101.0, 52.0, 0.875]
        assert fp.occluded[0]

    def test_snapshot(self):
        msg = decode(golden_frames()["SNAPSHOT"])
        assert msg.timestamp_us == 3_000_000
        assert msg.voxel_indices.tolist() == [[10, -4, 7]]
        assert msg.voxel_occupancy.tolist() == [1.25]
        assert msg.voxel_classes.tolist() == [2]
        assert msg.voxel_probs.tolist() == [0.75]
        (skel,) = msg.skeletons
        assert skel.person_id == 12
        assert np.flatnonzero(skel.present).tolist() == [0]
        assert skel.pos[0].tolist() == [1.0, 2.0, 1.5]
        assert (skel.conf[0], skel.n_views[0]) == (0.875, 3)
