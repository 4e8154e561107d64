import json

import numpy as np
import pytest

from semgrid import synthworld
from semgrid.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, backend_main, main, sensor_node_main
from semgrid.geometry import pack_voxel_keys, save_calibs
from semgrid.ply import read_ply, write_ply


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """A small recorded run shared by the read-only commands."""
    out = tmp_path_factory.mktemp("runs") / "run_a"
    code = main(["simulate", "--out", str(out), "--duration", "2",
                 "--pose-rate", "10", "--seed", "3"])
    assert code == EXIT_OK
    return out


class TestExitCodes:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == EXIT_USAGE

    def test_unknown_ablation_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--out", str(tmp_path / "r"),
                  "--ablation", "everything"])
        assert e.value.code == EXIT_USAGE

    def test_missing_run_dir_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "eval-reproj", str(tmp_path / "nope"))
        assert code == EXIT_DATA
        assert "error" in err


def copy_run(short_run, run, names=("meta.json", "scene.ini", "reproj.log", "map.ply")):
    run.mkdir()
    for name in names:
        (run / name).write_bytes((short_run / name).read_bytes())
    return run


class TestMalformedRunFiles:
    """Each bad input ends a command with exit code 2 and a one-line error."""

    @pytest.mark.parametrize("command,meta,named", [
        ("eval-reproj", "[1, 2]", "not a JSON object"),
        ("eval-reproj", "{}", "seed"),
        ("eval-reproj", '{"seed": 3}', "ablation"),
        ("eval-map", '"text"', "not a JSON object"),
        ("eval-map", '{"seed": 3, "ablation": "none"}', "duration_s"),
        ("eval-reproj", '{"seed": 3, "ablation": 7}', "ablation"),
        ("eval-reproj", '{"seed": [3], "ablation": "none"}', "seed"),
        ("eval-reproj", '{"seed": true, "ablation": "none"}', "seed"),
        ("eval-map", '{"duration_s": "2.0"}', "duration_s"),
    ], ids=["reproj-list", "reproj-empty", "reproj-no-ablation", "map-string", "map-no-duration",
            "reproj-int-ablation", "reproj-list-seed", "reproj-bool-seed", "map-string-duration"])
    def test_bad_meta_is_data_error(self, short_run, tmp_path, capsys, command, meta, named):
        run = copy_run(short_run, tmp_path / "run")
        (run / "meta.json").write_text(meta)
        code, _, err = run_cli(capsys, command, str(run))
        assert code == EXIT_DATA
        assert err.count("\n") == 1 and "meta.json" in err and named in err

    @pytest.mark.parametrize("command", ["eval-map", "export-map", "backend"])
    def test_unsupported_ply_property_is_data_error(self, short_run, tmp_path, capsys,
                                                    command):
        run = copy_run(short_run, tmp_path / "run", ("meta.json", "scene.ini"))
        (run / "map.ply").write_bytes(
            b"ply\nformat binary_little_endian 1.0\nelement vertex 1\nproperty short x\n"
            b"property float y\nproperty float z\nend_header\n" + bytes(10))
        if command == "backend":
            code = backend_main(["--listen", "127.0.0.1:0", "--prior", str(run / "map.ply"),
                                 "--duration", "0"])
            err = capsys.readouterr().err
        else:
            code, _, err = run_cli(capsys, command, str(run))
        assert code == EXIT_DATA
        assert err.count("\n") == 1 and "property short x" in err

    @pytest.mark.parametrize("command", ["eval-map", "export-map"])
    @pytest.mark.parametrize("line", ["element vertex", "element", "format",
                                      "element vertex many"])
    def test_malformed_ply_header_is_data_error(self, short_run, tmp_path, capsys,
                                                command, line):
        run = copy_run(short_run, tmp_path / "run", ("meta.json", "scene.ini"))
        header = ["ply", "format binary_little_endian 1.0", "element vertex 1",
                  "property float x", "property float y", "property float z", "end_header"]
        header[2 if line.startswith("element") else 1] = line
        (run / "map.ply").write_bytes(("\n".join(header) + "\n").encode() + bytes(12))
        code, _, err = run_cli(capsys, command, str(run))
        assert code == EXIT_DATA
        assert err.count("\n") == 1 and "map.ply" in err


class TestRatesAndDurations:
    """A rate that is not finite and positive, a simulated duration that is
    not finite and non-negative, a service duration that is not finite and
    positive, or a noise setting out of range ends a command with exit
    code 2 and a one-line error, not a traceback."""

    @staticmethod
    def _refused(code, err, named):
        assert code == EXIT_DATA
        assert err.count("\n") == 1 and named in err and "Traceback" not in err

    @pytest.mark.parametrize("option,value", [
        ("--pose-rate", "inf"), ("--pose-rate", "nan"), ("--pose-rate", "0"),
        ("--pose-rate", "-5"), ("--cloud-rate", "inf"), ("--cloud-rate", "nan"),
        ("--cloud-rate", "0"), ("--duration", "inf"), ("--duration", "nan"),
        ("--duration", "-1"),
    ])
    def test_simulate(self, tmp_path, capsys, option, value):
        # a short run, should the value be taken
        args = {"--duration": "0.1", option: value}
        code, _, err = run_cli(capsys, "simulate", "--out", str(tmp_path / "run"),
                               *(f"{k}={v}" for k, v in args.items()))
        self._refused(code, err, "duration" if option == "--duration" else "rate")

    @pytest.mark.parametrize("option,value,named", [
        ("--keypoint-noise", "nan", "keypoint noise"), ("--keypoint-noise", "inf", "keypoint noise"),
        ("--keypoint-noise", "-1", "keypoint noise"), ("--miss-rate", "5", "miss rate"),
        ("--miss-rate", "nan", "miss rate"), ("--miss-rate", "-0.5", "miss rate"),
        ("--p-occ-fail", "1.5", "p-occ-fail"), ("--p-occ-fail", "nan", "p-occ-fail"),
        ("--label-noise", "nan", "label noise"), ("--label-noise", "2", "label noise"),
    ])
    def test_simulate_noise(self, tmp_path, capsys, option, value, named):
        code, _, err = run_cli(capsys, "simulate", "--out", str(tmp_path / "run"),
                               "--duration=0.1", f"{option}={value}")
        self._refused(code, err, named)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_backend_duration(self, capsys, value):
        code = backend_main(["--listen", "127.0.0.1:0", f"--duration={value}"])
        self._refused(code, capsys.readouterr().err, "duration")

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_sensor_node_duration(self, tmp_path, capsys, value):
        # refused before it connects: nothing listens at port 9
        scene = synthworld.make_default_scene()
        synthworld.save_scene(tmp_path / "scene.ini", scene)
        calib = synthworld.make_camera_rig(scene)[0]
        save_calibs(tmp_path / "calibs.txt", [calib])
        (tmp_path / "sensor.ini").write_text(
            f"[sensor]\nsensor_id = {calib.sensor_id}\ncalib_file = calibs.txt\n"
            f"scene_file = scene.ini\n")
        code = sensor_node_main(["--config", str(tmp_path / "sensor.ini"),
                                 "--backend", "127.0.0.1:9", f"--duration={value}"])
        self._refused(code, capsys.readouterr().err, "duration")

    @pytest.mark.parametrize("value", ["0", "-5", "inf", "nan"])
    def test_backend_tick_rate(self, capsys, value):
        code = backend_main(["--listen", "127.0.0.1:0", f"--tick-rate={value}",
                             "--duration", "0"])
        self._refused(code, capsys.readouterr().err, "tick rate")

    @pytest.mark.parametrize("key,value", [("pose_rate_hz", "nan"), ("pose_rate_hz", "inf"),
                                           ("cloud_rate_hz", "nan"), ("cloud_rate_hz", "-1")])
    def test_sensor_node_config_rates(self, tmp_path, capsys, key, value):
        scene = synthworld.make_default_scene()
        synthworld.save_scene(tmp_path / "scene.ini", scene)
        calib = synthworld.make_camera_rig(scene)[0]
        save_calibs(tmp_path / "calibs.txt", [calib])
        (tmp_path / "sensor.ini").write_text(
            f"[sensor]\nsensor_id = {calib.sensor_id}\ncalib_file = calibs.txt\n"
            f"scene_file = scene.ini\n{key} = {value}\n")
        code = sensor_node_main(["--config", str(tmp_path / "sensor.ini"),
                                 "--backend", "127.0.0.1:9", "--duration", "0"])
        self._refused(code, capsys.readouterr().err, "rates")


class TestSimulate:
    def test_zero_duration_writes_valid_run(self, tmp_path, capsys):
        out = tmp_path / "empty"
        code, stdout, _ = run_cli(capsys, "simulate", "--out", str(out),
                                  "--duration", "0")
        assert code == EXIT_OK
        for name in ("meta.json", "stats.json", "scene.ini", "calibs.txt",
                     "reproj.log", "skeletons.log", "map.ply"):
            assert (out / name).exists(), name
        stats = json.loads((out / "stats.json").read_text())
        assert stats["ticks"] == 0
        assert stats["poses_received"] == 0

    def test_run_dir_contents(self, short_run):
        meta = json.loads((short_run / "meta.json").read_text())
        assert meta["seed"] == 3
        assert meta["ablation"] == "fb-occ-depth"
        stats = json.loads((short_run / "stats.json").read_text())
        assert stats["ticks"] == 20
        assert stats["poses_received"] == 80  # 4 sensors x 20 ticks


class TestEvalReproj:
    def test_table_and_csv(self, short_run, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        code, stdout, _ = run_cli(capsys, "eval-reproj", str(short_run),
                                  "--csv", str(csv_path))
        assert code == EXIT_OK
        assert "Avg" in stdout and "fb-occ-depth" in stdout
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("ablation,Head,")
        assert lines[1].startswith("fb-occ-depth,")

    def test_output_deterministic(self, short_run, capsys):
        code1, out1, _ = run_cli(capsys, "eval-reproj", str(short_run))
        code2, out2, _ = run_cli(capsys, "eval-reproj", str(short_run))
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_mismatched_seeds_rejected(self, short_run, tmp_path, capsys):
        other = tmp_path / "run_b"
        assert main(["simulate", "--out", str(other), "--duration", "1",
                     "--pose-rate", "10", "--seed", "4"]) == EXIT_OK
        code, _, err = run_cli(capsys, "eval-reproj", str(short_run),
                               str(other))
        assert code == EXIT_DATA
        assert "seed" in err


class TestEvalMap:
    def test_prior_only_map_matches_building(self, tmp_path, capsys):
        out = tmp_path / "prior_only"
        assert main(["simulate", "--out", str(out), "--duration", "0",
                     "--map-source", "prior"]) == EXIT_OK
        code, stdout, _ = run_cli(capsys, "eval-map", str(out))
        assert code == EXIT_OK
        assert "occupancy IoU" in stdout
        # with zero integration the exported map is exactly the prior
        # voxelization of walls and floor
        from semgrid.cli import MAP_RESOLUTION
        from semgrid.synthworld import load_scene, prior_map_points
        fields = read_ply(out / "map.ply")
        centers = np.stack([fields["x"], fields["y"], fields["z"]], axis=1)
        map_keys = np.sort(pack_voxel_keys(
            np.floor(centers / MAP_RESOLUTION).astype(np.int64)))
        prior = prior_map_points(load_scene(out / "scene.ini"))
        prior_keys = np.sort(pack_voxel_keys(
            np.floor(prior / MAP_RESOLUTION).astype(np.int64)))
        inter = len(np.intersect1d(map_keys, prior_keys))
        union = len(np.union1d(map_keys, prior_keys))
        assert inter / union >= 0.95

    def test_reports_accuracy(self, short_run, capsys):
        code, stdout, _ = run_cli(capsys, "eval-map", str(short_run))
        assert code == EXIT_OK
        assert "semantic accuracy" in stdout

    def test_iou_of_floor_binned_centres(self, short_run, capsys):
        from semgrid.cli import MAP_RESOLUTION
        from semgrid.synthworld import load_scene, structure_voxel_keys
        code, stdout, _ = run_cli(capsys, "eval-map", str(short_run))
        assert code == EXIT_OK
        fields = read_ply(short_run / "map.ply")
        centers = np.stack([fields["x"], fields["y"], fields["z"]], axis=1)
        map_keys = pack_voxel_keys(np.floor(centers / MAP_RESOLUTION).astype(np.int64))
        duration = json.loads((short_run / "meta.json").read_text())["duration_s"]
        gt = structure_voxel_keys(load_scene(short_run / "scene.ini"), duration,
                                  MAP_RESOLUTION)
        iou = len(np.intersect1d(map_keys, gt)) / len(np.union1d(map_keys, gt))
        assert f"occupancy IoU:        {iou:.4f}" in stdout

    def test_tolerance_scores_printed(self, short_run, capsys):
        from semgrid.cli import MAP_RESOLUTION, _load_map_keys, _tolerance_scores
        from semgrid.synthworld import load_scene, structure_voxel_keys
        code, stdout, _ = run_cli(capsys, "eval-map", str(short_run))
        assert code == EXIT_OK
        duration = json.loads((short_run / "meta.json").read_text())["duration_s"]
        gt = structure_voxel_keys(load_scene(short_run / "scene.ini"), duration,
                                  MAP_RESOLUTION)
        p, r, f = _tolerance_scores(_load_map_keys(short_run)[0], gt)
        assert 0.9 < p <= 1 and 0.5 < r <= 1
        assert f"precision (1 voxel):  {p:.4f}" in stdout
        assert f"recall (1 voxel):     {r:.4f}" in stdout
        assert f"F-score (1 voxel):    {f:.4f}" in stdout

    def test_tolerance_forgives_one_voxel_not_two(self):
        from semgrid.cli import _iou, _tolerance_scores
        from semgrid.synthworld import box_shell_keys
        # a one-voxel-thick box is all shell: shifted by one voxel across
        # it, no voxel is shared, yet each lies next to the other
        wall = box_shell_keys([0.0, -1.0, 0.0], [0.1, 1.0, 2.0], 0.1)
        shifted = box_shell_keys([0.1, -1.0, 0.0], [0.2, 1.0, 2.0], 0.1)
        assert _iou(shifted, wall) == 0.0
        assert _tolerance_scores(shifted, wall) == (1.0, 1.0, 1.0)
        # a hollow box shifted by one voxel on every axis
        box = box_shell_keys([0.0, 0.0, 0.0], [0.8, 0.6, 0.5], 0.1)
        moved = box_shell_keys([0.1, 0.1, 0.1], [0.9, 0.7, 0.6], 0.1)
        assert _tolerance_scores(moved, box) == (1.0, 1.0, 1.0)
        # a voxel two cells off the wall is wrong, and finds nothing
        far = pack_voxel_keys(np.array([[-2, 0, 5]]))
        with_far = np.sort(np.r_[shifted, far])
        p, r, _ = _tolerance_scores(with_far, wall)
        assert p == len(shifted) / len(with_far) and r == 1.0
        p, r, _ = _tolerance_scores(far, wall)
        assert p == 0.0 and r == 0.0
        near = pack_voxel_keys(np.array([[-1, 0, 5]]))
        assert _tolerance_scores(near, wall)[0] == 1.0

    def test_tolerance_at_the_packable_edge(self):
        from semgrid.cli import _tolerance_scores
        # one step past the edge of a packed field must not wrap onto a
        # voxel at the other end of the range
        top = (1 << 20) - 1
        for axis in range(3):
            a = np.zeros((1, 3), dtype=np.int64)
            b = np.zeros((1, 3), dtype=np.int64)
            a[0, axis], b[0, axis] = top, -top
            ka, kb = pack_voxel_keys(a), pack_voxel_keys(b)
            assert _tolerance_scores(ka, kb)[:2] == (0.0, 0.0)
            assert _tolerance_scores(kb, ka)[:2] == (0.0, 0.0)
        assert np.isnan(_tolerance_scores(np.empty(0, np.int64), ka)[0])

    @pytest.mark.parametrize("bad", [np.nan, 1e30])
    def test_unbinnable_centre_is_data_error(self, short_run, tmp_path, capsys, bad):
        run = tmp_path / "bad_map"
        run.mkdir()
        for name in ("meta.json", "scene.ini"):
            (run / name).write_bytes((short_run / name).read_bytes())
        fields = read_ply(short_run / "map.ply")
        fields["x"][0] = bad
        write_ply(run / "map.ply", fields)
        code, _, err = run_cli(capsys, "eval-map", str(run))
        assert code == EXIT_DATA
        assert "map.ply" in err and "voxel centre" in err


class TestExportMap:
    def test_writes_colored_ply(self, short_run, tmp_path, capsys):
        out = tmp_path / "colored.ply"
        code, stdout, _ = run_cli(capsys, "export-map", str(short_run),
                                  "--out", str(out))
        assert code == EXIT_OK
        fields = read_ply(out)
        assert {"x", "y", "z", "red", "green", "blue", "class",
                "occupancy"} <= set(fields)
        src = read_ply(short_run / "map.ply")
        assert len(fields["x"]) == len(src["x"])
        # one color per class, consistently applied
        classes = fields["class"]
        for c in np.unique(classes):
            sel = classes == c
            assert len(np.unique(fields["red"][sel])) == 1


class TestReplay:
    def test_replay_matches(self, short_run, capsys):
        code, stdout, _ = run_cli(capsys, "replay", str(short_run))
        assert code == EXIT_OK
        assert "matches" in stdout

    def test_replay_detects_tampering(self, short_run, tmp_path, capsys):
        import shutil
        copy = tmp_path / "tampered"
        shutil.copytree(short_run, copy)
        log = (copy / "reproj.log").read_text().splitlines()
        parts = log[0].split()
        parts[4] = "999.000000"
        log[0] = " ".join(parts)
        (copy / "reproj.log").write_text("\n".join(log) + "\n")
        code, _, err = run_cli(capsys, "replay", str(copy))
        assert code == EXIT_DATA
        assert "reproj.log" in err
