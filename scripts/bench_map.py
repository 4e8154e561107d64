#!/usr/bin/env python3
"""Benchmark the voxel map: loading a one-million-cell prior, then
integrating one 50k-point semantic cloud into that map.

Each is timed best of --repeat, and the process's peak resident set
size so far is printed after each.  The 100 ms integration budget is a
real-time target (one cloud per sensor per second, four sensors, with
headroom); the 0.5 s prior budget keeps start-up short.  Exceeding
either prints a warning but does not fail, since wall time depends on
the host.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semgrid.cloud import SemanticCloud  # noqa: E402
from semgrid.geometry import CameraCalib  # noqa: E402
from semgrid.semantics import NUM_CLASSES  # noqa: E402
from semgrid.voxmap import MAP_RESOLUTION, VoxelMap  # noqa: E402

BUDGET_MS = {"load_prior": 500.0, "integrate_cloud": 100.0}


def build_inputs(seed: int, n_points: int, n_cells: int):
    """Prior points, cloud and camera; the prior fills a cube of
    n_cells voxels (100x100x100 = 1M cells in a 10 m cube)."""
    rng = np.random.default_rng(seed)
    side = round(n_cells ** (1 / 3))
    prior = (np.mgrid[0:side, 0:side, 0:side].reshape(3, -1).T + 0.5) * MAP_RESOLUTION

    calib = CameraCalib(0, 160, 120, 130.0, 130.0, 80.0, 60.0,
                        np.eye(3), np.array([5.0, 5.0, 0.5]), 0.0)
    # points 6-8 m ahead of the sensor so the rays cross the block
    xy = rng.uniform(-2.0, 2.0, size=(n_points, 2))
    z = rng.uniform(6.0, 8.0, size=(n_points, 1))
    positions = np.concatenate([xy, z], axis=1)
    logits = rng.normal(size=(n_points, NUM_CLASSES))
    logits[:, 0] -= 10.0  # keep points off the skipped person class
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    cloud = SemanticCloud(0, 0, positions, log_probs)
    return prior, cloud, calib


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report(name: str, times: list[float]) -> None:
    best = min(times)
    print(f"{name}: best {best:.1f} ms over {len(times)} runs "
          f"(all: {', '.join(f'{t:.1f}' for t in times)}), "
          f"process peak RSS {peak_rss_mb():.1f} MB")
    budget = BUDGET_MS[name]
    if best > budget:
        print(f"WARNING: {name} best time {best:.1f} ms exceeds the "
              f"{budget:.0f} ms budget on this host")
    else:
        print(f"{name}: within the {budget:.0f} ms budget")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=50_000)
    ap.add_argument("--cells", type=int, default=1_000_000)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    prior, cloud, calib = build_inputs(args.seed, args.points, args.cells)

    times = []
    for _ in range(args.repeat):
        vmap = VoxelMap()
        t0 = time.perf_counter()
        vmap.load_prior(prior)
        times.append((time.perf_counter() - t0) * 1e3)
    print(f"map: {len(vmap)} cells, cloud: {len(cloud)} points")
    report("load_prior", times)

    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        stats = vmap.integrate_cloud(cloud, calib)
        times.append((time.perf_counter() - t0) * 1e3)
    report("integrate_cloud", times)
    print(f"last run: {stats.occupied_updates} occupied updates, "
          f"{stats.freed} freed, {stats.semantic_fused} fused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
