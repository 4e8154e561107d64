"""Command-line entry points.

``semgrid`` bundles the offline workflow: run a simulated capture
(`simulate`), score it (`eval-reproj`, `eval-map`), export the fused map
(`export-map`) and re-run a recorded configuration to check determinism
(`replay`).  ``sensor-node`` and ``backend`` run the two halves of the
pipeline as real TCP services.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import select
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np

from . import protocol, synthworld
from .backend import ABLATIONS, Backend, serve
from .geometry import KEY_WEIGHTS, VoxelRangeError, load_calibs, pack_voxel_keys, voxel_indices_of
from .ply import read_ply, read_xyz, write_ply
from .semantics import NUM_CLASSES, ClassSet
from .sensor_node import SensorNode, load_sensor_config
from .sim import (
    ReprojRecord,
    SimConfig,
    format_reproj_log,
    load_run_config,
    reproj_table,
    sensor_frames,
    simulate,
    write_run_dir,
)
from .voxmap import MAP_RESOLUTION, VoxelMap

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

TABLE_COLUMNS = ("Head", "Hips", "Knees", "Ankles",
                 "Shoulders", "Elbows", "Wrists", "Avg")


class DataError(Exception):
    """Invalid or inconsistent input data (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad arguments; we reserve 2 for data
    errors, so usage errors exit with 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# -- semgrid simulate ------------------------------------------------------------


def _build_inputs(args):
    if args.scene is not None:
        scene = synthworld.load_scene(args.scene)
    else:
        scene = synthworld.make_default_scene(seed=args.seed,
                                              n_persons=args.persons)
    if args.calibs is not None:
        calibs = [c for _, c in sorted(load_calibs(args.calibs).items())]
    else:
        calibs = synthworld.make_camera_rig(scene, n=args.sensors)
    if not calibs:
        raise DataError("no sensors configured")
    return scene, calibs


def cmd_simulate(args) -> int:
    scene, calibs = _build_inputs(args)
    config = SimConfig(
        duration_s=args.duration,
        ablation=args.ablation,
        pose_rate_hz=args.pose_rate,
        cloud_rate_hz=args.cloud_rate,
        keypoint_noise_px=args.keypoint_noise,
        miss_rate=args.miss_rate,
        p_occ_fail=args.p_occ_fail,
        label_noise=args.label_noise,
        integrate_clouds=not args.no_clouds,
        map_source=args.map_source,
    )
    result = simulate(scene, calibs, config)
    out = write_run_dir(args.out, result)
    stats = result.stats()
    print(f"run directory: {out}")
    print(f"  sensors: {len(calibs)}  ticks: {stats['ticks']}  "
          f"poses: {stats['poses_received']}  clouds: {stats['clouds_received']}")
    print(f"  map cells: {stats['map_cells']}")
    if "mean_reproj_px" in stats:
        print(f"  mean reprojection error: {stats['mean_reproj_px']:.3f} px")
    print(f"  wall time: {stats['wall_time_s']:.2f} s")
    return EXIT_OK


# -- semgrid eval-reproj ---------------------------------------------------------


def _load_reproj_records(run: Path) -> list[ReprojRecord]:
    log = run / "reproj.log"
    if not log.is_file():
        raise DataError(f"{run}: missing reproj.log")
    records = []
    for lineno, line in enumerate(log.read_text().splitlines(), 1):
        parts = line.split()
        if len(parts) != 6:
            raise DataError(f"{log}:{lineno}: expected 6 fields")
        records.append(ReprojRecord(
            timestamp_us=int(parts[0]), sensor_id=int(parts[1]),
            person_id=int(parts[2]), joint=int(parts[3]),
            error_px=float(parts[4]), from_feedback=bool(int(parts[5])),
        ))
    return records


def _load_meta(run: Path, **types) -> dict:
    """The run's meta.json, a JSON object holding at least the keys of
    `types`, each of its type."""
    meta = run / "meta.json"
    if not meta.is_file():
        raise DataError(f"{run}: missing meta.json")
    try:
        out = json.loads(meta.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"{meta}: {e}") from e
    if not isinstance(out, dict):
        raise DataError(f"{meta}: not a JSON object")
    missing = [key for key in types if key not in out]
    if missing:
        raise DataError(f"{meta}: missing {', '.join(missing)}")
    for key, kind in types.items():
        # JSON true and false are bools, which Python counts as ints
        if isinstance(out[key], bool) or not isinstance(out[key], kind):
            raise DataError(f"{meta}: {key} has the wrong type {type(out[key]).__name__}")
    return out


def _format_cell(value: float) -> str:
    return "-" if np.isnan(value) else f"{value:.2f}"


def cmd_eval_reproj(args) -> int:
    rows = []
    seeds = set()
    for run_dir in args.run_dirs:
        run = Path(run_dir)
        meta = _load_meta(run, seed=int, ablation=str)
        seeds.add(meta["seed"])
        table = reproj_table(_load_reproj_records(run))
        rows.append((meta["ablation"], table))
    if len(seeds) > 1:
        raise DataError(
            f"runs use different seeds {sorted(seeds)}; "
            "reprojection tables are only comparable on the same scene"
        )

    label_w = max([len("ablation")] + [len(r[0]) for r in rows])
    header = "ablation".ljust(label_w) + "".join(
        f"{c:>11}" for c in TABLE_COLUMNS)
    print(header)
    print("-" * len(header))
    for label, table in rows:
        print(label.ljust(label_w) + "".join(
            f"{_format_cell(table[c]):>11}" for c in TABLE_COLUMNS))

    if args.csv is not None:
        with open(args.csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(("ablation",) + TABLE_COLUMNS)
            for label, table in rows:
                writer.writerow([label] + [repr(table[c]) for c in TABLE_COLUMNS])
        print(f"wrote {args.csv}")
    return EXIT_OK


# -- semgrid eval-map ------------------------------------------------------------


def _load_map_keys(run: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed voxel keys, argmax classes and a labeled-mask (class
    probability above uniform, i.e. the cell was actually observed by a
    semantic cloud rather than inherited from the prior)."""
    path = run / "map.ply"
    if not path.is_file():
        raise DataError(f"{run}: missing map snapshot map.ply")
    fields = read_ply(path)
    for name in ("x", "y", "z", "class"):
        if name not in fields:
            raise DataError(f"{path}: missing '{name}' field")
    centers = np.stack([fields["x"], fields["y"], fields["z"]], axis=1)
    try:
        keys = pack_voxel_keys(voxel_indices_of(centers, MAP_RESOLUTION))
    except VoxelRangeError as e:
        raise DataError(f"{path}: a voxel centre is not a finite, packable point") from e
    if "prob" in fields:
        labeled = fields["prob"] > 1.5 / NUM_CLASSES
    else:
        labeled = np.ones(len(keys), dtype=bool)
    order = np.argsort(keys)
    return keys[order], fields["class"].astype(np.int64)[order], labeled[order]


def _iou(a: np.ndarray, b: np.ndarray) -> float:
    inter = len(np.intersect1d(a, b))
    union = len(np.union1d(a, b))
    return inter / union if union else float("nan")


# the packed-key offsets of a voxel's 3x3x3 block
_BLOCK_OFFSETS = np.array(np.meshgrid(*[[-1, 0, 1]] * 3)).reshape(3, -1).T @ KEY_WEIGHTS


def _near(keys: np.ndarray, other: np.ndarray) -> np.ndarray:
    """For each packed key, whether a key of sorted `other` lies in its
    3x3x3 block.  A packed field of a valid index is never 0, and one step
    off the packable range leaves a 0 field (or a negative key), so no
    offset key aliases a voxel that is not a neighbour."""
    if len(other) == 0:
        return np.zeros(len(keys), dtype=bool)
    cand = keys[:, None] + _BLOCK_OFFSETS
    at = np.minimum(np.searchsorted(other, cand), len(other) - 1)
    return (other[at] == cand).any(axis=1)


def _tolerance_scores(map_keys: np.ndarray, gt_keys: np.ndarray) -> tuple[float, float, float]:
    """Precision, recall and F-score at a one-voxel tolerance of sorted,
    distinct packed keys: a map voxel is correct when a true voxel lies in
    its 3x3x3 block, a true voxel is found when a map voxel lies in its."""
    precision = float(_near(map_keys, gt_keys).mean()) if len(map_keys) else float("nan")
    recall = float(_near(gt_keys, map_keys).mean()) if len(gt_keys) else float("nan")
    f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f_score


def cmd_eval_map(args) -> int:
    run = Path(args.run_dir)
    meta = _load_meta(run, duration_s=(int, float))
    scene_path = run / "scene.ini"
    if not scene_path.is_file():
        raise DataError(f"{run}: missing scene.ini")
    scene = synthworld.load_scene(scene_path)
    duration = float(meta["duration_s"])

    map_keys, map_classes, map_labeled = _load_map_keys(run)
    gt_keys = structure = synthworld.structure_voxel_keys(
        scene, duration, MAP_RESOLUTION)
    gt_classes = synthworld.structure_class_of_keys(
        scene, duration, gt_keys, MAP_RESOLUTION)

    print(f"map voxels:           {len(map_keys)}")
    print(f"ground-truth voxels:  {len(gt_keys)}")
    print(f"occupancy IoU:        {_iou(map_keys, gt_keys):.4f}")
    precision, recall, f_score = _tolerance_scores(map_keys, gt_keys)
    print(f"precision (1 voxel):  {precision:.4f}")
    print(f"recall (1 voxel):     {recall:.4f}")
    print(f"F-score (1 voxel):    {f_score:.4f}")

    common, i_map, i_gt = np.intersect1d(map_keys, gt_keys,
                                         return_indices=True)
    scored = map_labeled[i_map]
    if scored.any():
        acc = float(np.mean(
            map_classes[i_map[scored]] == gt_classes[i_gt[scored]]))
        print(f"semantic accuracy:    {acc:.4f}  "
              f"(over {int(scored.sum())} labeled shared voxels)")
    else:
        print("semantic accuracy:    -  (no labeled shared voxels)")

    moved = [b for b in scene.boxes
             if b.move_time_s is not None and b.move_time_s <= duration
             and b.move_offset is not None]
    if moved:
        gt_pre = synthworld.structure_voxel_keys(scene, 0.0, MAP_RESOLUTION)
        print(f"moved boxes:          {len(moved)}")
        print(f"  pre-move IoU:       {_iou(map_keys, gt_pre):.4f}")
        print(f"  post-move IoU:      {_iou(map_keys, structure):.4f}")
        for b in moved:
            old = synthworld.box_shell_keys(b.min_corner, b.max_corner,
                                            MAP_RESOLUTION)
            # only cells the box vacated, not those shared with the rest
            # of the structure or the box's new position
            old = np.setdiff1d(old, structure)
            stale = len(np.intersect1d(old, map_keys))
            frac = stale / len(old) if len(old) else float("nan")
            print(f"  class {b.class_idx}: old-position voxels still "
                  f"occupied: {stale}/{len(old)} ({frac:.3f})")
    return EXIT_OK


# -- semgrid export-map ----------------------------------------------------------


def cmd_export_map(args) -> int:
    run = Path(args.run_dir)
    path = run / "map.ply"
    if not path.is_file():
        raise DataError(f"{run}: missing map snapshot map.ply")
    fields = read_ply(path)
    for name in ("x", "y", "z", "class", "occupancy"):
        if name not in fields:
            raise DataError(f"{path}: missing '{name}' field")
    class_set = ClassSet.load(args.classes) if args.classes else ClassSet()
    colors = np.asarray(class_set.colors, dtype=np.uint8)
    classes = fields["class"].astype(np.int64)
    if classes.size and (classes.min() < 0 or classes.max() >= len(colors)):
        raise DataError(f"{path}: class index outside the class set")
    out = Path(args.out) if args.out else run / "map_colored.ply"
    write_ply(out, {
        "x": fields["x"], "y": fields["y"], "z": fields["z"],
        "red": colors[classes, 0],
        "green": colors[classes, 1],
        "blue": colors[classes, 2],
        "class": fields["class"],
        "occupancy": fields["occupancy"],
    })
    print(f"wrote {out} ({len(classes)} voxels)")
    return EXIT_OK


# -- semgrid replay --------------------------------------------------------------


def cmd_replay(args) -> int:
    run = Path(args.run_dir)
    try:
        scene, calibs, config = load_run_config(run)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as e:
        raise DataError(f"{run}: cannot load run configuration: {e}") from e

    result = simulate(scene, calibs, config)

    mismatches = []
    recorded = (run / "skeletons.log").read_text()
    if "".join(result.skeleton_log) != recorded:
        mismatches.append("skeletons.log")
    if format_reproj_log(result.reproj_records) != (run / "reproj.log").read_text():
        mismatches.append("reproj.log")
    recorded_stats = json.loads((run / "stats.json").read_text())
    stats = result.stats()
    for key in ("ticks", "poses_received", "clouds_received", "map_cells",
                "mean_reproj_px"):
        if stats.get(key) != recorded_stats.get(key):
            mismatches.append(f"stats.json:{key}")

    if mismatches:
        raise DataError("replay diverges from recorded run: "
                        + ", ".join(mismatches))
    print(f"replay of {run} matches the recorded run "
          f"({stats['ticks']} ticks, {len(result.reproj_records)} "
          "reprojection records)")
    if args.out:
        out = write_run_dir(args.out, result)
        print(f"wrote replayed run to {out}")
    return EXIT_OK


# -- semgrid main ----------------------------------------------------------------


def _add_simulate_args(p) -> None:
    p.add_argument("--out", required=True, help="run directory to write")
    p.add_argument("--scene", help="scene INI file (default: built-in room)")
    p.add_argument("--seed", type=int, default=1,
                   help="seed for the built-in scene (default 1)")
    p.add_argument("--persons", type=int, default=2,
                   help="persons in the built-in scene (default 2)")
    p.add_argument("--sensors", type=int, default=4,
                   help="cameras in the generated rig (default 4)")
    p.add_argument("--calibs", help="calibration file (default: corner rig)")
    p.add_argument("--duration", type=float, default=60.0,
                   help="simulated seconds (default 60)")
    p.add_argument("--ablation", choices=ABLATIONS, default="fb-occ-depth")
    p.add_argument("--pose-rate", type=float, default=30.0,
                   help="pose ticks per second (default 30)")
    p.add_argument("--cloud-rate", type=float, default=1.0,
                   help="cloud messages per second (default 1)")
    p.add_argument("--keypoint-noise", type=float,
                   default=synthworld.KEYPOINT_NOISE_PX,
                   help="keypoint noise sigma in pixels")
    p.add_argument("--miss-rate", type=float, default=synthworld.MISS_RATE,
                   help="detection miss probability for visible joints")
    p.add_argument("--p-occ-fail", type=float, default=synthworld.P_OCC_FAIL,
                   help="probability an occluded joint is still reported "
                        "(with a displaced estimate)")
    p.add_argument("--label-noise", type=float, default=0.02,
                   help="per-pixel segmentation label noise")
    p.add_argument("--map-source", choices=("prior", "structure", "none"),
                   default="prior", help="initial map contents")
    p.add_argument("--no-clouds", action="store_true",
                   help="skip the semantic-cloud pipeline")


def build_parser() -> _Parser:
    parser = _Parser(prog="semgrid",
                     description="distributed semantic perception toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("simulate", help="run a simulated capture")
    _add_simulate_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval-reproj",
                       help="per-joint-class reprojection error table")
    p.add_argument("run_dirs", nargs="+", help="run directories to compare")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_eval_reproj)

    p = sub.add_parser("eval-map",
                       help="occupancy IoU and semantic accuracy vs ground truth")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_eval_map)

    p = sub.add_parser("export-map", help="export the fused map as colored PLY")
    p.add_argument("run_dir")
    p.add_argument("--out", help="output PLY (default <run>/map_colored.ply)")
    p.add_argument("--classes", help="class-set file (default: built-in)")
    p.set_defaults(func=cmd_export_map)

    p = sub.add_parser("replay",
                       help="re-run a recorded configuration and verify it "
                            "reproduces the run bit-exactly")
    p.add_argument("run_dir")
    p.add_argument("--out", help="optionally write the replayed run here")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError, ValueError) as e:
        print(f"semgrid {args.command}: error: {e}", file=sys.stderr)
        return EXIT_DATA


# -- sensor-node service ---------------------------------------------------------


def _parse_addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"address must be host:port, got {text!r}")
    return host or "127.0.0.1", int(port)


def _check_duration(duration_s: float | None) -> None:
    """A service's --duration is unset or finite and > 0."""
    if duration_s is not None and not (math.isfinite(duration_s) and duration_s > 0):
        raise DataError(f"duration must be finite and > 0 s, got {duration_s}")


def _run_sensor_node(cfg, scene, addr, duration_s, class_set) -> SensorNode:
    """Render the scene for one sensor at its pose rate and stream the
    node's frames to the backend, with the simulator's harness settings."""
    node = SensorNode(cfg, class_set.fingerprint())
    config = SimConfig(pose_rate_hz=cfg.pose_rate_hz, cloud_rate_hz=cfg.cloud_rate_hz)
    decoder = protocol.StreamDecoder()
    period = 1.0 / cfg.pose_rate_hz

    with socket.create_connection(addr) as sock:
        start = time.monotonic()
        sock.sendall(node.hello(int(time.time() * 1e6)))
        i = 0
        while duration_s is None or i * period < duration_s:
            delay = start + i * period - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            now_us = int(time.time() * 1e6)
            # drain pending feedback before rendering so the occlusion
            # hints apply to this frame
            while select.select([sock], [], [], 0)[0]:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("backend closed the connection")
                for msg in decoder.feed(chunk):
                    if isinstance(msg, protocol.FeedbackMessage):
                        node.handle_feedback(msg, now_us)
            for _, payload in sensor_frames(scene, [node], config, i, now_us):
                sock.sendall(payload)
            i += 1
        # a close with feedback unread would reset the connection and drop
        # the frames not yet sent: close once the backend has read them all
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(5.0)
        while sock.recv(65536):
            pass
    return node


def sensor_node_main(argv=None) -> int:
    parser = _Parser(prog="sensor-node",
                     description="run one sensor node against a backend")
    parser.add_argument("--config", required=True,
                        help="sensor INI file (see load_sensor_config)")
    parser.add_argument("--backend", required=True, help="backend host:port")
    parser.add_argument("--scene",
                        help="scene INI file (default: scene_file key in the "
                             "sensor config)")
    parser.add_argument("--duration", type=float,
                        help="stop after this many seconds (default: run "
                             "until interrupted)")
    parser.add_argument("--classes", help="class-set file (default: built-in)")
    args = parser.parse_args(argv)
    try:
        addr = _parse_addr(args.backend)
        cfg = load_sensor_config(args.config)
        cp = configparser.ConfigParser()
        cp.read(args.config)
        scene_file = cp["sensor"].get("scene_file")
        if args.scene is None and scene_file is None:
            raise DataError(f"no --scene given and no scene_file in {args.config}")
        scene = synthworld.load_scene(args.scene or Path(args.config).parent / scene_file)
        class_set = ClassSet.load(args.classes) if args.classes else ClassSet()
        _check_duration(args.duration)
        node = _run_sensor_node(cfg, scene, addr, args.duration, class_set)
        print(f"sensor {cfg.sensor_id}: {json.dumps(node.stats)}")
    except KeyboardInterrupt:
        return EXIT_OK
    except (BrokenPipeError, ConnectionResetError):
        print("sensor-node: error: backend closed the connection", file=sys.stderr)
        return EXIT_DATA
    except (DataError, OSError, ValueError, protocol.ProtocolError) as e:
        print(f"sensor-node: error: {e}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


# -- backend service -------------------------------------------------------------


def backend_main(argv=None) -> int:
    parser = _Parser(prog="backend",
                     description="run the fusion backend as a TCP service")
    parser.add_argument("--listen", required=True, help="host:port to bind")
    parser.add_argument("--prior", help="PLY of prior occupied voxel centers")
    parser.add_argument("--classes", help="class-set file (default: built-in)")
    parser.add_argument("--export-dir",
                        help="write map.ply and stats.json here on shutdown")
    parser.add_argument("--ablation", choices=ABLATIONS, default="fb-occ-depth")
    parser.add_argument("--tick-rate", type=float, default=30.0,
                        help="fusion ticks per second (default 30)")
    parser.add_argument("--duration", type=float,
                        help="stop after this many seconds (default: run "
                             "until interrupted)")
    args = parser.parse_args(argv)
    try:
        host, port = _parse_addr(args.listen)
        class_set = ClassSet.load(args.classes) if args.classes else ClassSet()
        vmap = VoxelMap()
        if args.prior:
            vmap.load_prior(read_xyz(args.prior))
        backend = Backend(class_set.fingerprint(), args.ablation, vmap,
                          tick_rate_hz=args.tick_rate)

        stop = threading.Event()
        _check_duration(args.duration)
        if args.duration is not None:
            threading.Timer(args.duration, stop.set).start()
        try:
            serve(backend, host, port, lambda: int(time.time() * 1e6),
                  stop_event=stop)
        except KeyboardInterrupt:
            stop.set()

        if args.export_dir:
            out = Path(args.export_dir)
            out.mkdir(parents=True, exist_ok=True)
            vmap.export_ply(out / "map.ply")
            (out / "stats.json").write_text(
                json.dumps(dict(backend.stats, map_cells=len(vmap)),
                           indent=2) + "\n")
            print(f"exported map ({len(vmap)} cells) to {out}")
    except (DataError, OSError, ValueError) as e:
        print(f"backend: error: {e}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
