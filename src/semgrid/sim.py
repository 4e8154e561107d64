"""Deterministic in-process simulation of the full sensing loop.

Drives N sensor nodes and one backend on a shared simulated clock.  All
traffic passes through the real wire codec (frames are concatenated and
reassembled through StreamDecoder, so the transport path is exercised),
with one tick of transport delay on the feedback direction.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import protocol, synthworld
from .backend import ABLATIONS, AblationFlags, Backend
from .geometry import CameraCalib, row_norms, save_calibs, unpack_voxel_keys
from .pose import NUM_JOINTS, format_skeleton_log
from .semantics import ClassSet
from .sensor_node import SensorConfig, SensorNode
from .voxmap import VoxelMap

# joint grouping for the reported error tables: COCO indices per class
JOINT_CLASSES = {
    "Head": (0, 1, 2, 3, 4),
    "Shoulders": (5, 6),
    "Elbows": (7, 8),
    "Wrists": (9, 10),
    "Hips": (11, 12),
    "Knees": (13, 14),
    "Ankles": (15, 16),
}
JOINT_CLASS_OF = np.empty(NUM_JOINTS, dtype=object)
for _name, _members in JOINT_CLASSES.items():
    for _j in _members:
        JOINT_CLASS_OF[_j] = _name


@dataclass
class SimConfig:
    duration_s: float = 60.0
    ablation: str = "fb-occ-depth"
    pose_rate_hz: float = 30.0
    cloud_rate_hz: float = 1.0
    keypoint_noise_px: float = synthworld.KEYPOINT_NOISE_PX
    miss_rate: float = synthworld.MISS_RATE
    p_occ_fail: float = synthworld.P_OCC_FAIL
    label_noise: float = 0.02
    integrate_clouds: bool = True
    # "prior": empty-building prior (walls+floor); "structure": full
    # ground-truth structure (for pose-only runs without the cloud
    # pipeline); "none": start empty
    map_source: str = "prior"

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ValueError(
                f"unknown ablation {self.ablation!r}; expected one of {ABLATIONS}"
            )
        if self.map_source not in ("prior", "structure", "none"):
            raise ValueError("map_source must be prior|structure|none")
        if self.duration_s < 0:
            raise ValueError("duration must be non-negative")


@dataclass
class ReprojRecord:
    timestamp_us: int
    sensor_id: int
    person_id: int
    joint: int
    error_px: float
    from_feedback: bool


@dataclass
class SimResult:
    config: SimConfig
    scene: synthworld.GroundTruthScene
    backend: Backend
    nodes: list[SensorNode]
    skeleton_log: list[str] = field(default_factory=list)
    reproj_records: list[ReprojRecord] = field(default_factory=list)
    pose3d_errors_m: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0

    def stats(self) -> dict:
        out = {
            "ticks": self.backend.stats["ticks"],
            "poses_received": self.backend.stats["poses_received"],
            "clouds_received": self.backend.stats["clouds_received"],
            "map_cells": len(self.backend.vmap),
            "wall_time_s": round(self.wall_time_s, 3),
            "sensors": {},
        }
        for node in self.nodes:
            out["sensors"][str(node.config.sensor_id)] = dict(
                node.stats,
                feedback_delay_s=node.feedback_delay_s,
            )
        if self.reproj_records:
            out["mean_reproj_px"] = float(
                np.mean([r.error_px for r in self.reproj_records])
            )
        if self.pose3d_errors_m:
            out["mean_pose3d_m"] = float(np.mean(self.pose3d_errors_m))
        return out


def _reproj_errors(backend: Backend, now_us: int) -> list[ReprojRecord]:
    """Distance between each sensor's emitted 2D joints and the
    reprojection of the fused skeleton they were associated with."""
    records = []
    for skel in backend.skeletons:
        group = backend.last_associations.get(skel.person_id)
        if group is None:
            continue
        for sid, local_pid in group:
            view = backend.last_views.get(sid)
            row = None if view is None else view.row_of(local_pid)
            if row is None:
                continue
            slots = np.flatnonzero(skel.present & view.present[row])
            if not len(slots):
                continue
            calib = backend.sensors[sid].calib
            pc = (skel.pos[slots] - calib.translation) @ calib.rotation
            front = pc[:, 2] > 1e-6
            z = np.where(front, pc[:, 2], 1.0)
            us = calib.cx + calib.fx * pc[:, 0] / z
            vs = calib.cy + calib.fy * pc[:, 1] / z
            kps = view.keypoints[row, slots]
            errs = np.hypot(kps[:, 0] - us, kps[:, 1] - vs)
            records.extend(
                ReprojRecord(now_us, sid, skel.person_id, j, err, fb)
                for j, err, fb, ok in zip(slots.tolist(), errs.tolist(),
                                          view.from_feedback[row, slots].tolist(), front.tolist())
                if ok
            )
    return records


def _pose3d_errors(backend: Backend, scene, t_s: float) -> list[float]:
    """Per-joint distance of fused skeletons to the nearest ground-truth
    person (by centroid)."""
    if not backend.skeletons or not scene.persons:
        return []
    gt = np.stack([p.joints_at(t_s) for p in scene.persons])
    gt_cent = gt.mean(axis=1)
    errs = []
    for skel in backend.skeletons:
        c = skel.centroid()
        if c is None:
            continue
        pi = int(np.argmin(np.linalg.norm(gt_cent - c, axis=1)))
        errs.extend(row_norms(skel.pos[skel.present] - gt[pi, skel.present]).tolist())
    return errs


class ObservationCache:
    """Memo for the synthetic observations of one (scene, calibs, rate,
    noise-config) combination, shared across runs that differ only in
    ablation.  Observations are ablation-independent, so re-running the
    same seed for another ablation can reuse keypoints and already-rendered
    depth pixels; only depth patches around feedback-specific pixels
    still have to be cast."""

    def __init__(self):
        self.keypoints: dict[tuple[int, int], list] = {}
        # (camera index, frame) -> (sorted flat pixel keys, depth values)
        self.depth: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _observe_keypoints(scene, calibs, config: SimConfig, frame_idx: int, t_s: float,
                       obs_cache: ObservationCache | None) -> list:
    """Every camera's keypoint observations of one frame, through the
    observation cache when there is one."""
    if obs_cache is not None and all(
            (ci, frame_idx) in obs_cache.keypoints for ci in range(len(calibs))):
        return [obs_cache.keypoints[(ci, frame_idx)] for ci in range(len(calibs))]
    vis = synthworld.visible_joints_many(scene, calibs, t_s)
    all_obs = [
        synthworld.render_keypoints(
            scene, calib, t_s,
            noise_px=config.keypoint_noise_px,
            miss_rate=config.miss_rate,
            p_occ_fail=config.p_occ_fail,
            frame_idx=frame_idx,
            vis=vis[ci],
        )
        for ci, calib in enumerate(calibs)
    ]
    if obs_cache is not None:
        for ci, obs in enumerate(all_obs):
            obs_cache.keypoints[(ci, frame_idx)] = obs
    return all_obs


_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_VALS = np.empty(0)


def _cached_depth_images(cache: ObservationCache, scene, requests, t_s: float,
                         frame_idx: int) -> list:
    """render_depth_sparse_many through the per-pixel depth memo: pixels
    not yet in the memo are cast for all cameras in one call."""
    flats = [synthworld.flat_pixel_indices(calib, pixels) for calib, pixels in requests]
    memo = []
    misses = []
    for ci, ((calib, _), flat) in enumerate(zip(requests, flats)):
        keys, vals = cache.depth.get((ci, frame_idx), (_NO_KEYS, _NO_VALS))
        pos = np.minimum(np.searchsorted(keys, flat), max(len(keys) - 1, 0))
        hit = keys[pos] == flat if len(keys) else np.zeros(len(flat), dtype=bool)
        memo.append((keys, vals))
        misses.append((calib, flat[~hit]))
    cast = synthworld.sparse_pixel_depths_many(scene, misses, t_s, frame_idx)
    images = []
    for ci, ((calib, missing), (keys, vals), new_vals, flat) in enumerate(
            zip(misses, memo, cast, flats)):
        if len(missing):
            keys = np.concatenate([keys, missing])
            vals = np.concatenate([vals, new_vals])
            order = np.argsort(keys)
            keys = keys[order]
            vals = vals[order]
            cache.depth[(ci, frame_idx)] = (keys, vals)
        img = np.zeros(calib.height * calib.width)
        if len(flat):
            img[flat] = vals[np.searchsorted(keys, flat)]
        images.append(
            synthworld.DepthImage(
                calib.width, calib.height, img.reshape(calib.height, calib.width),
                int(round(t_s * 1e6)),
            )
        )
    return images


def sensor_frames(scene, nodes: list[SensorNode], config: SimConfig, frame_idx: int,
                  now_us: int, obs_cache: ObservationCache | None = None):
    """Run frame `frame_idx` of the synthetic scene through every node.

    The scene is rendered at the frame's simulated time, the messages are
    stamped now_us.  Yields (node, the node's wire bytes of this frame)
    node by node, as soon as each is ready, so a caller can deliver one
    node's frames before the next node builds its cloud."""
    t_s = int(round(frame_idx * (1e6 / config.pose_rate_hz))) / 1e6
    calibs = [node.config.calib for node in nodes]
    all_obs = _observe_keypoints(scene, calibs, config, frame_idx, t_s, obs_cache)
    # depth is rendered only in the patches the sensors will read
    plans = [node.plan_frame(obs, now_us) for node, obs in zip(nodes, all_obs)]
    depth_requests = [
        (calib, synthworld.patch_pixels(plan.uv) if node.config.has_depth else [])
        for node, calib, plan in zip(nodes, calibs, plans)
    ]
    if obs_cache is not None:
        depth_images = _cached_depth_images(obs_cache, scene, depth_requests, t_s, frame_idx)
    else:
        depth_images = synthworld.render_depth_sparse_many(
            scene, depth_requests, t_s, frame_idx=frame_idx)
    for node, calib, obs, depth, plan in zip(nodes, calibs, all_obs, depth_images, plans):
        cfg = node.config
        node.pose_tick(obs, depth if cfg.has_depth else None, now_us, plan=plan)
        cloud_every = max(int(round(cfg.pose_rate_hz / cfg.cloud_rate_hz)), 1)
        if config.integrate_clouds and cfg.has_depth and frame_idx % cloud_every == 0:
            depth_full, class_img = synthworld.render_frame(scene, calib, t_s)
            noisy = synthworld.render_depth(
                scene, calib, t_s, frame_idx=frame_idx, depth_image=depth_full)
            mask = synthworld.render_segmentation(
                scene, calib, t_s, label_noise=config.label_noise,
                frame_idx=frame_idx, class_image=class_img)
            dets = synthworld.render_detections(scene, calib, t_s, frame_idx=frame_idx)
            node.cloud_tick(noisy, mask, dets, now_us)
        yield node, b"".join(node.pop_frames())


def simulate(scene: synthworld.GroundTruthScene, calibs: list[CameraCalib],
             config: SimConfig, class_set: ClassSet | None = None,
             collect_3d: bool = False,
             obs_cache: ObservationCache | None = None) -> SimResult:
    t_start = time.perf_counter()
    if class_set is None:
        class_set = ClassSet()
    fingerprint = class_set.fingerprint()
    flags = AblationFlags.parse(config.ablation)

    vmap = VoxelMap()
    if config.map_source == "prior":
        vmap.load_prior(synthworld.prior_map_points(scene))
    elif config.map_source == "structure":
        keys = synthworld.structure_voxel_keys(scene, 0.0, vmap.resolution)
        vmap.load_prior((unpack_voxel_keys(keys) + 0.5) * vmap.resolution)
    backend = Backend(fingerprint, config.ablation, vmap,
                      tick_rate_hz=config.pose_rate_hz)

    nodes = [SensorNode(SensorConfig(calib.sensor_id, calib, config.pose_rate_hz,
                                     config.cloud_rate_hz, use_feedback=flags.send_feedback,
                                     use_occlusion=flags.occlusion_flags), fingerprint)
             for calib in calibs]

    uplink = {n.config.sensor_id: protocol.StreamDecoder() for n in nodes}
    downlink = {n.config.sensor_id: protocol.StreamDecoder() for n in nodes}
    pending_feedback: list[tuple[int, bytes]] = []

    result = SimResult(config, scene, backend, nodes)

    n_ticks = int(round(config.duration_s * config.pose_rate_hz))
    tick_us = 1e6 / config.pose_rate_hz
    node_of = {n.config.sensor_id: n for n in nodes}

    # handshakes at t=0
    for node in nodes:
        for msg in uplink[node.config.sensor_id].feed(node.hello(0)):
            backend.on_message(msg, 0)

    for i in range(n_ticks):
        now_us = int(round(i * tick_us))

        # deliver feedback produced by the previous tick (1-tick transport)
        for sid, frame in pending_feedback:
            for msg in downlink[sid].feed(frame):
                node_of[sid].handle_feedback(msg, now_us)

        for node, payload in sensor_frames(scene, nodes, config, i, now_us, obs_cache):
            for msg in uplink[node.config.sensor_id].feed(payload):
                backend.on_message(msg, now_us)

        feedback = backend.tick(now_us)
        pending_feedback = [(sid, protocol.encode(msg)) for sid, msg in feedback.items()]

        if backend.skeletons:
            result.skeleton_log.append(format_skeleton_log(backend.skeletons))
            result.reproj_records.extend(_reproj_errors(backend, now_us))
            if collect_3d:
                result.pose3d_errors_m.extend(_pose3d_errors(backend, scene, now_us / 1e6))

    result.wall_time_s = time.perf_counter() - t_start
    return result


# -- run directories -------------------------------------------------------------


def write_run_dir(out_dir, result: SimResult, scene_path=None) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    synthworld.save_scene(out / "scene.ini", result.scene)
    save_calibs(out / "calibs.txt", [n.config.calib for n in result.nodes])
    meta = {
        "seed": result.scene.rng_seed,
        "ablation": result.config.ablation,
        "duration_s": result.config.duration_s,
        "pose_rate_hz": result.config.pose_rate_hz,
        "cloud_rate_hz": result.config.cloud_rate_hz,
        "keypoint_noise_px": result.config.keypoint_noise_px,
        "miss_rate": result.config.miss_rate,
        "p_occ_fail": result.config.p_occ_fail,
        "label_noise": result.config.label_noise,
        "integrate_clouds": result.config.integrate_clouds,
        "map_source": result.config.map_source,
        "n_sensors": len(result.nodes),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    (out / "stats.json").write_text(json.dumps(result.stats(), indent=2) + "\n")
    (out / "skeletons.log").write_text("".join(result.skeleton_log))
    with open(out / "reproj.log", "w") as f:
        for r in result.reproj_records:
            f.write(
                f"{r.timestamp_us} {r.sensor_id} {r.person_id} {r.joint} "
                f"{r.error_px:.6f} {int(r.from_feedback)}\n"
            )
    result.backend.vmap.export_ply(out / "map.ply")
    return out


def load_run_config(run_dir) -> tuple[synthworld.GroundTruthScene, list[CameraCalib], SimConfig]:
    """Reconstruct the inputs of a recorded run for replay."""
    from .geometry import load_calibs

    run = Path(run_dir)
    meta = json.loads((run / "meta.json").read_text())
    scene = synthworld.load_scene(run / "scene.ini")
    calibs = [c for _, c in sorted(load_calibs(run / "calibs.txt").items())]
    config = SimConfig(
        duration_s=meta["duration_s"],
        ablation=meta["ablation"],
        pose_rate_hz=meta["pose_rate_hz"],
        cloud_rate_hz=meta["cloud_rate_hz"],
        keypoint_noise_px=meta["keypoint_noise_px"],
        miss_rate=meta["miss_rate"],
        p_occ_fail=meta["p_occ_fail"],
        label_noise=meta["label_noise"],
        integrate_clouds=meta["integrate_clouds"],
        map_source=meta["map_source"],
    )
    return scene, calibs, config


def reproj_table(records: list[ReprojRecord]) -> dict[str, float]:
    """Mean reprojection error per Table-1 joint class plus 'Avg'."""
    by_class: dict[str, list[float]] = {name: [] for name in JOINT_CLASSES}
    for r in records:
        by_class[JOINT_CLASS_OF[r.joint]].append(r.error_px)
    table = {
        name: (float(np.mean(v)) if v else float("nan"))
        for name, v in by_class.items()
    }
    all_errs = [r.error_px for r in records]
    table["Avg"] = float(np.mean(all_errs)) if all_errs else float("nan")
    return table
