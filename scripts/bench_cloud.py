#!/usr/bin/env python3
"""Benchmark the sensor's cloud pipeline stage by stage, and the map's
integration of the same clouds.

Runs one seed-1 unit of the default loop (4 sensors, 2 persons, 2 s,
clouds at 1 Hz: 8 clouds), keeps the inputs of every
`SensorNode.build_semantic_cloud` call and every cloud the backend's map
integrates, then times each stage of that pipeline on each cloud, best
of --repeat in process CPU time.  It prints the median over the clouds
per stage and the outlier filter's time per cloud.  Then it replays
`VoxelMap.integrate_cloud` for the 8 clouds, in order, into a map loaded
with the sim's prior, --repeat times, and prints the median over the
clouds of each cloud's best time.  For each of those clouds it then
prints its CLOUD frame's bytes, its distinct class rows (the palette of
the frame) and the best of --repeat encode and decode times, in process
CPU time.  After the stages and after the integration it prints the
process's peak resident set size so far,
which includes the sim unit that captured the inputs.  The filter's
25 ms and the clustering's 20 ms budgets are real-time targets;
exceeding one prints a warning but does not fail, since the time
depends on the host.
"""

import argparse
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semgrid import cloud, protocol, synthworld  # noqa: E402
from semgrid.sensor_node import SensorNode  # noqa: E402
from semgrid.sim import SimConfig, simulate  # noqa: E402
from semgrid.voxmap import VoxelMap  # noqa: E402

SEED = 1
BUDGET_MS = {"statistical_outlier_filter": 25.0, "remove_ground_and_cluster": 20.0}


def capture_inputs() -> tuple[list[tuple], list[tuple], np.ndarray]:
    """(calib, depth, mask, dets) of every cloud a seed-1 default unit
    builds, (cloud, calib) of every cloud its map integrates, in order,
    and the map's prior points."""
    inputs, integrated = [], []
    real_build = SensorNode.build_semantic_cloud
    real_integrate = VoxelMap.integrate_cloud

    def build(node, depth, mask, dets, timestamp_us):
        inputs.append((node.config.calib, depth, mask, dets))
        return real_build(node, depth, mask, dets, timestamp_us)

    def integrate(vmap, cloud, calib):
        integrated.append((cloud, calib))
        return real_integrate(vmap, cloud, calib)

    SensorNode.build_semantic_cloud = build
    VoxelMap.integrate_cloud = integrate
    try:
        scene = synthworld.make_default_scene(seed=SEED, n_persons=2)
        simulate(scene, synthworld.make_camera_rig(scene), SimConfig(duration_s=2.0))
    finally:
        SensorNode.build_semantic_cloud = real_build
        VoxelMap.integrate_cloud = real_integrate
    return inputs, integrated, synthworld.prior_map_points(scene)


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def best_ms(fn, repeat: int):
    """Result of fn() and its best process CPU time in ms over repeat runs."""
    times = []
    for _ in range(repeat):
        t0 = time.process_time()
        out = fn()
        times.append((time.process_time() - t0) * 1e3)
    return out, min(times)


def time_stages(calib, depth, mask, dets, repeat: int) -> dict[str, float]:
    """Best time of each stage of build_semantic_cloud on one cloud."""
    ms = {}
    pts, ms["depth_to_points"] = best_ms(lambda: cloud.depth_to_points(depth, calib), repeat)
    pts, ms["voxel_downsample"] = best_ms(lambda: cloud.voxel_downsample(pts), repeat)
    ms["points"] = len(pts)
    pts, ms["statistical_outlier_filter"] = best_ms(
        lambda: cloud.statistical_outlier_filter(pts), repeat)
    world = calib.cam_to_world(pts)
    clusters, ms["remove_ground_and_cluster"] = best_ms(
        lambda: cloud.remove_ground_and_cluster(world), repeat)
    _, ms["fuse_semantics"] = best_ms(
        lambda: cloud.fuse_semantics(pts, calib, mask, dets, clusters), repeat)
    return ms


def time_integration(integrated, prior, repeat: int) -> list[float]:
    """Best time of each integrate_cloud call over repeat replays of all
    the clouds, in order, each replay into a fresh map with the prior."""
    best = [math.inf] * len(integrated)
    for _ in range(repeat):
        vmap = VoxelMap()
        vmap.load_prior(prior)
        for i, (cld, calib) in enumerate(integrated):
            t0 = time.process_time()
            vmap.integrate_cloud(cld, calib)
            best[i] = min(best[i], (time.process_time() - t0) * 1e3)
    return best


def time_codec(integrated, repeat: int) -> list[tuple[int, int, float, float]]:
    """(frame bytes, distinct class rows, best encode ms, best decode ms)
    of each integrated cloud's CLOUD frame."""
    out = []
    for cld, _ in integrated:
        msg = protocol.CloudMessage(cld)
        frame, enc = best_ms(lambda: protocol.encode(msg), repeat)
        _, dec = best_ms(lambda: protocol.decode(frame), repeat)
        rows = np.unique(protocol.quantize_probs(np.exp(cld.log_probs)), axis=0)
        out.append((len(frame), len(rows), enc, dec))
    return out


def check_budget(name: str, times: list[float]) -> None:
    med = float(np.median(times))
    budget = BUDGET_MS[name]
    if med > budget:
        print(f"WARNING: {name} median {med:.1f} ms exceeds the "
              f"{budget:.0f} ms budget on this host")
    else:
        print(f"{name}: median {med:.1f} ms, within the {budget:.0f} ms budget")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    inputs, integrated, prior = capture_inputs()
    per_cloud = [time_stages(*inp, repeat=args.repeat) for inp in inputs]
    stages = [name for name in per_cloud[0] if name != "points"]
    sizes = [c["points"] for c in per_cloud]
    print(f"{len(per_cloud)} clouds of seed {SEED}, {min(sizes)}-{max(sizes)} points "
          f"after downsampling; per cloud best of {args.repeat}, process CPU time")
    for name in stages:
        times = [c[name] for c in per_cloud]
        print(f"{name:28s} median {np.median(times):7.1f} ms  "
              f"(range {min(times):.1f}-{max(times):.1f})")
    total = [sum(c[name] for name in stages) for c in per_cloud]
    print(f"{'all stages':28s} median {np.median(total):7.1f} ms")
    print(f"process peak RSS after the stages {peak_rss_mb():.1f} MB")

    filt = [c["statistical_outlier_filter"] for c in per_cloud]
    print("statistical_outlier_filter per cloud: "
          + ", ".join(f"{t:.1f}" for t in filt) + " ms")
    for name in BUDGET_MS:
        check_budget(name, [c[name] for c in per_cloud])

    times = time_integration(integrated, prior, args.repeat)
    print(f"integrate_cloud, {len(times)} clouds in order into the prior map, "
          f"best of {args.repeat}: median {np.median(times):.1f} ms "
          f"(range {min(times):.1f}-{max(times):.1f})")
    print(f"process peak RSS after integration {peak_rss_mb():.1f} MB")

    for i, (size, rows, enc, dec) in enumerate(time_codec(integrated, args.repeat)):
        print(f"CLOUD frame {i}: {size} B, {rows} distinct class rows, "
              f"encode {enc:.2f} ms, decode {dec:.2f} ms (best of {args.repeat})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
