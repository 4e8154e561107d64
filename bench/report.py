"""Turn measured units and spans into the benchmark's named metrics.

End-to-end metrics come from the untraced run (`end_to_end`), per-layer
metrics from the traced run (`per_layer`).  A per-layer metric of a
layer that does no work on a workload reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from measure import (
    host_factor,
    local_host_factors,
    outermost_time,
    percentile,
    roots,
    self_times,
)
from probes import DOWNLINK, UPLINK

LAYERS = ("synthworld", "sim", "sensor_node", "cloud", "protocol", "backend",
          "pose", "voxmap", "geometry")
HARNESS = "synthworld"
ROOT_SPAN = "sim.simulate"


def tick_latencies_ms(units: list[dict]) -> np.ndarray:
    """Every `Backend.tick` latency of the units, each normalised by the
    gauge bursts around it."""
    return 1000 * np.concatenate(
        [np.asarray(u["tick_s"]) / local_host_factors(u["gauge_s"]) for u in units])


def end_to_end(units: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics; run times are normalised by each unit's host
    factor, tick latencies by the bursts around each tick."""
    sim_s = sum(u["sim_s"] for u in units)
    factor = [host_factor(u["gauge_s"]) for u in units]
    tick_ms = tick_latencies_ms(units)
    last = units[-1]

    def kb_per_s(kinds):
        return sum(u["bytes"].get(k, 0) for u in units for k in kinds) / sim_s / 1000

    return {
        "setup_s": setup_s,
        "sim_rtf": statistics.median(
            u["cpu_s"] / f / u["sim_s"] for u, f in zip(units, factor)),
        "system_rtf": statistics.median(
            (u["cpu_s"] - u["harness_s"]) / f / u["sim_s"] for u, f in zip(units, factor)),
        # the mean, not the median: see README.md, "End-to-end metrics"
        "fusion_mean_ms": float(np.mean(tick_ms)),
        "fusion_p90_ms": percentile(tick_ms, "90"),
        "uplink_kB_per_s": kb_per_s(UPLINK),
        "downlink_kB_per_s": kb_per_s(DOWNLINK),
        # NaN when a unit stopped on a protocol or handshake error
        "reproj_px": last.get("reproj_px", float("nan")),
        "map_iou": last.get("map_iou", float("nan")),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans: dict, notes: dict, cloud_to_map_s: list[float],
              units: list[dict], overhead_pct: float) -> dict:
    """Per-layer metrics from the spans under `sim.simulate` of the
    traced units; rates are per simulated second, times host-normalised
    by the gauge bursts of all traced units."""
    names = spans["names"]
    name = names[spans["name"]] if len(spans["name"]) else np.array([], dtype=str)
    f = host_factor([b for u in units for b in u["gauge_s"]])
    start, end, parent = spans["start"] / f, spans["end"] / f, spans["parent"]
    inside = name[roots(parent)] == ROOT_SPAN if len(name) else np.zeros(0, bool)
    dur = end - start
    own = self_times(start, end, parent)
    layer = np.array([n.split(".", 1)[0] for n in name], dtype=str)
    sim_s = sum(u["sim_s"] for u in units)
    ticks = sum(len(u["tick_s"]) for u in units)

    def ms_per_s(seconds):
        return 1000 * float(seconds) / sim_s

    def durs_ms(fn):
        return 1000 * dur[inside & (name == fn)]

    def busy(fn):
        return ms_per_s(dur[inside & (name == fn)].sum())

    def p50(fn):
        return percentile(durs_ms(fn), "50")

    def mean(values, default=0.0):
        return float(np.mean(values)) if len(values) else default

    m = {}
    for lay in LAYERS:
        m[f"{lay}.self_ms_per_s"] = ms_per_s(own[inside & (layer == lay)].sum())
    m["system.self_ms_per_s"] = sum(
        m[f"{lay}.self_ms_per_s"] for lay in LAYERS if lay != HARNESS)
    m["synthworld.busy_ms_per_s"] = ms_per_s(
        outermost_time(start, end, inside & (layer == HARNESS), parent))
    for fn in ("render_depth_sparse_many", "visible_joints_many", "render_frame"):
        m[f"synthworld.{fn}.busy_ms_per_s"] = busy(f"synthworld.{fn}")

    m["sensor_node.pose_tick.p50_ms"] = p50("sensor_node.pose_tick")
    m["sensor_node.pose_tick.p95_ms"] = percentile(durs_ms("sensor_node.pose_tick"), "95")
    m["sensor_node.cloud_tick.p50_ms"] = p50("sensor_node.cloud_tick")
    m["sensor_node.clouds_dropped"] = sum(u.get("clouds_dropped", 0) for u in units)
    m["cloud_to_map_p50_ms"] = percentile(1000 * np.array(cloud_to_map_s) / f, "50")

    for fn in ("statistical_outlier_filter", "remove_ground_and_cluster",
               "voxel_downsample", "fuse_semantics"):
        m[f"cloud.{fn}.p50_ms"] = p50(f"cloud.{fn}")
    m["cloud.points_per_cloud"] = mean(notes.get("cloud.fuse_semantics", []))

    m["protocol.encode.busy_ms_per_s"] = busy("protocol.encode")
    m["protocol.decode.busy_ms_per_s"] = busy("protocol.decode")
    frames = notes.get("protocol.encode", [])
    for kind in ("pose", "cloud", "feedback"):
        m[f"protocol.{kind}_bytes_per_frame"] = mean([n for k, n in frames if k == kind])

    for fn in ("tick", "on_message", "sync_window_select"):
        m[f"backend.{fn}.busy_ms_per_s"] = busy(f"backend.{fn}")

    m["pose.associate.p50_ms"] = p50("pose.associate")
    m["pose.triangulate_group.busy_ms_per_s"] = busy("pose.triangulate_group")
    groups = notes.get("pose.triangulate_group", [])
    m["pose.triangulate_group.calls_per_tick"] = len(groups) / ticks if ticks else 0.0
    m["pose.group_yield"] = mean(groups)
    m["pose.tracker_update.p50_ms"] = p50("pose.tracker_update")
    m["pose.make_feedback.busy_ms_per_s"] = busy("pose.make_feedback")

    m["voxmap.integrate_cloud.p50_ms"] = p50("voxmap.integrate_cloud")
    m["voxmap.cells_end"] = units[-1].get("cells_end", 0)
    m["voxmap.is_occluded_many.busy_ms_per_s"] = busy("voxmap.is_occluded_many")
    queries = notes.get("voxmap.is_occluded_many", [])
    targets = sum(n for n, _ in queries)
    m["voxmap.occlusion_targets_per_s"] = targets / sim_s
    m["voxmap.occluded_ratio"] = sum(k for _, k in queries) / targets if targets else 0.0
    m["voxmap.load_prior_ms"] = p50("voxmap.load_prior")

    m["geometry.bresenham3d_keys.busy_ms_per_s"] = busy("geometry.bresenham3d_keys")
    m["geometry.ray_voxels_per_s"] = sum(notes.get("geometry.bresenham3d_keys", [])) / sim_s

    m["trace.overhead_pct"] = overhead_pct
    return m


def layer_table(m: dict) -> list[str]:
    """Self time per layer, the harness on its own line."""
    lines = [f"  {'layer':<12} {'self ms/sim-s':>14}"]
    for lay in LAYERS:
        if lay != HARNESS:
            lines.append(f"  {lay:<12} {m[f'{lay}.self_ms_per_s']:>14.1f}")
    lines.append(f"  {'= system':<12} {m['system.self_ms_per_s']:>14.1f}")
    lines.append(f"  {HARNESS:<12} {m[f'{HARNESS}.self_ms_per_s']:>14.1f}  (harness)")
    return lines
