"""The live TCP services (`backend`, `sensor-node`) on loopback, held to
the in-process simulator."""

import dataclasses
import json
import logging
import re
import socket
import threading
import time

import numpy as np

from semgrid import cli, protocol, synthworld
from semgrid.backend import Backend
from semgrid.geometry import load_calibs, save_calibs
from semgrid.ply import read_ply, write_ply
from semgrid.semantics import ClassSet
from semgrid.sim import SimConfig, simulate
from semgrid.voxmap import VoxelMap
from tests.conftest import class_file_text


def write_inputs(tmp_path, sensors: dict[int, str]) -> None:
    """scene.ini, calibs.txt and one sensor<id>.ini per sensor id, whose
    text after the common keys is sensors[id]."""
    scene = synthworld.make_default_scene(seed=1)
    synthworld.save_scene(tmp_path / "scene.ini", scene)
    save_calibs(tmp_path / "calibs.txt", synthworld.make_camera_rig(scene))
    for sid, extra in sensors.items():
        (tmp_path / f"sensor{sid}.ini").write_text(
            "[sensor]\n"
            f"sensor_id = {sid}\n"
            f"calib_file = {tmp_path / 'calibs.txt'}\n"
            f"scene_file = {tmp_path / 'scene.ini'}\n" + extra)


def start(target, *args) -> tuple[threading.Thread, dict]:
    """target(*args) in a new thread; its return value lands in result["code"]."""
    result = {}
    thread = threading.Thread(target=lambda: result.setdefault("code", target(*args)))
    thread.start()
    return thread, result


def logged_port(caplog, timeout_s: float = 10.0) -> int:
    """The port the backend logs once it listens."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for rec in list(caplog.records):
            m = re.match(r"backend listening on 127\.0\.0\.1:(\d+)", rec.getMessage())
            if m:
                return int(m.group(1))
        time.sleep(0.01)
    raise AssertionError("the backend logged no address")


class TestLoopback:
    def test_two_sensors_and_a_refused_one(self, tmp_path, monkeypatch, caplog, capsys):
        write_inputs(tmp_path, {0: "", 1: "", 2: "has_depth = false\n"})
        scene = synthworld.load_scene(tmp_path / "scene.ini")
        prior = synthworld.prior_map_points(scene)
        write_ply(tmp_path / "prior.ply", {"x": prior[:, 0], "y": prior[:, 1], "z": prior[:, 2]})
        wrong = ClassSet()
        wrong = dataclasses.replace(wrong, colors=((1, 2, 3),) + wrong.colors[1:])
        (tmp_path / "wrong_classes.txt").write_text(class_file_text(wrong))

        # the messages the backend took in, in the order it took them
        taken = []
        on_message = Backend.on_message

        def spy(self, msg, now_us):
            on_message(self, msg, now_us)
            taken.append(msg)

        monkeypatch.setattr(Backend, "on_message", spy)
        export = tmp_path / "export"
        threads = []
        with caplog.at_level(logging.INFO, logger="semgrid.backend"):
            backend, backend_result = start(cli.backend_main, [
                "--listen", "127.0.0.1:0", "--prior", str(tmp_path / "prior.ply"),
                "--export-dir", str(export), "--duration", "3.5"])
            threads.append(backend)
            port = logged_port(caplog)
            sensors = [start(cli.sensor_node_main, [
                "--config", str(tmp_path / f"sensor{sid}.ini"),
                "--backend", f"127.0.0.1:{port}", "--duration", "1.15", *extra])
                for sid, extra in ((0, []), (1, []),
                                   (2, ["--classes", str(tmp_path / "wrong_classes.txt")]))]
            threads += [t for t, _ in sensors]
            for t in threads:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        out = capsys.readouterr().out

        assert backend_result["code"] == cli.EXIT_OK
        assert [r["code"] for _, r in sensors] == [cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_DATA]
        stats = json.loads((export / "stats.json").read_text())
        assert stats["handshakes"] == 2
        # 35 frames per sensor at 30 Hz, a cloud at frames 0 and 30
        assert stats["poses_received"] == 70
        assert stats["clouds_received"] == 4
        sent = {int(sid): json.loads(s) for sid, s in
                re.findall(r"^sensor (\d+): (\{.*\})$", out, flags=re.M)}
        assert sent.keys() == {0, 1}
        for s in sent.values():
            assert s["pose_sent"] == 35 and s["cloud_sent"] == 2
            assert s["feedback_received"] > 0

        refusals = [r.getMessage() for r in caplog.records
                    if r.name == "semgrid.backend" and r.levelno == logging.WARNING]
        assert len(refusals) == 1
        assert "refused sensor 2" in refusals[0] and "fingerprint" in refusals[0]

        # the exported map is the prior plus the clouds the backend took in
        ref = VoxelMap()
        ref.load_prior(prior)
        calibs = {m.sensor_id: m.calib for m in taken if isinstance(m, protocol.Hello)}
        for m in taken:
            if isinstance(m, protocol.CloudMessage):
                ref.integrate_cloud(m.cloud, calibs[m.cloud.sensor_id])
        assert stats["map_cells"] == len(ref)
        fields = read_ply(export / "map.ply")
        idx = ref.occupied_arrays()[0]
        assert len(fields["x"]) == len(idx)
        assert np.array_equal(fields["x"], ((idx[:, 0] + 0.5) * ref.resolution).astype(np.float32))


class TestShutdown:
    def test_no_frame_reaches_the_backend_after_it_returns(self, tmp_path, monkeypatch,
                                                           caplog, capsys):
        write_inputs(tmp_path, {})
        # paths relative to the INI file, read from another working directory
        (tmp_path / "sensor0.ini").write_text(
            "[sensor]\nsensor_id = 0\ncalib_file = calibs.txt\nscene_file = scene.ini\n")
        monkeypatch.chdir(tmp_path / "..")
        backends = []
        init = Backend.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            backends.append(self)

        monkeypatch.setattr(Backend, "__init__", spy)
        with caplog.at_level(logging.INFO, logger="semgrid.backend"):
            backend, backend_result = start(cli.backend_main, [
                "--listen", "127.0.0.1:0", "--duration", "1.5"])
            port = logged_port(caplog)
            sensor, sensor_result = start(cli.sensor_node_main, [
                "--config", str(tmp_path / "sensor0.ini"),
                "--backend", f"127.0.0.1:{port}", "--duration", "30"])
            backend.join(timeout=60)
            assert not backend.is_alive()
            (be,) = backends
            stats = dict(be.stats)
            sensor.join(timeout=60)
        assert not sensor.is_alive()
        assert backend_result["code"] == cli.EXIT_OK
        assert stats["handshakes"] == 1 and stats["poses_received"] > 0
        assert be.stats == stats
        assert sensor_result["code"] == cli.EXIT_DATA
        assert "sensor-node: error: backend closed the connection" in capsys.readouterr().err


class FakeTime:
    """Stands in for the `time` module of `semgrid.cli`: time moves only
    when the sensor loop sleeps."""

    def __init__(self):
        self.t = 1000.0

    def monotonic(self) -> float:
        return self.t

    def time(self) -> float:
        return self.t

    def sleep(self, dt: float) -> None:
        assert dt >= 0
        self.t += dt


def untimed(msg) -> tuple[int, bytes]:
    """Sensor id and wire bytes, timestamp zeroed, of a POSE or CLOUD message."""
    if isinstance(msg, protocol.PoseMessage):
        ps = dataclasses.replace(msg.pose_set, timestamp_us=0)
        return ps.sensor_id, protocol.encode(protocol.PoseMessage(ps))
    cloud = dataclasses.replace(msg.cloud, timestamp_us=0)
    return cloud.sensor_id, protocol.encode(protocol.CloudMessage(cloud))


class TestLiveNodeMatchesSimulator:
    N_FRAMES = 4

    def test_same_poses_and_clouds(self, tmp_path, monkeypatch):
        # ablation none: with no feedback nothing a node sends depends on
        # timing; clouds at 10 Hz come at frames 0 and 3
        write_inputs(tmp_path, {1: "cloud_rate_hz = 10\n"})
        scene = synthworld.load_scene(tmp_path / "scene.ini")
        calibs = [c for _, c in sorted(load_calibs(tmp_path / "calibs.txt").items())][:2]

        taken = []
        on_message = Backend.on_message

        def spy(self, msg, now_us):
            taken.append(msg)
            on_message(self, msg, now_us)

        monkeypatch.setattr(Backend, "on_message", spy)
        simulate(scene, calibs, SimConfig(duration_s=self.N_FRAMES / 30, ablation="none",
                                          cloud_rate_hz=10))
        monkeypatch.undo()
        expected = [untimed(m) for m in taken
                    if isinstance(m, (protocol.PoseMessage, protocol.CloudMessage))]
        expected = [e for e in expected if e[0] == 1]

        monkeypatch.setattr(cli, "time", FakeTime())
        received = bytearray()
        with socket.create_server(("127.0.0.1", 0)) as server:
            def receive():
                conn, _ = server.accept()
                with conn:
                    while chunk := conn.recv(1 << 16):
                        received.extend(chunk)

            receiver = threading.Thread(target=receive)
            receiver.start()
            code = cli.sensor_node_main([
                "--config", str(tmp_path / "sensor1.ini"),
                "--backend", f"127.0.0.1:{server.getsockname()[1]}",
                "--duration", str((self.N_FRAMES - 0.5) / 30)])
            receiver.join(timeout=30)
        assert not receiver.is_alive()
        assert code == cli.EXIT_OK
        hello, *live = protocol.StreamDecoder().feed(bytes(received))
        assert isinstance(hello, protocol.Hello) and hello.sensor_id == 1
        assert sum(isinstance(m, protocol.CloudMessage) for m in live) == 2
        assert len(live) == self.N_FRAMES + 2
        assert [untimed(m) for m in live] == expected
