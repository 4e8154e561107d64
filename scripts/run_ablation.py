#!/usr/bin/env python3
"""Run all four feedback ablations on the same scenes and print the
per-joint-class reprojection table plus per-seed and median averages.

Observations depend only on (seed, sensor, frame), so one observation
cache is shared by the four ablation runs of each seed; the runs differ
only in what the backend feeds back.  The defaults are the workload of
tests/test_acceptance.py::TestAblationOrdering.  The total wall time is
printed with the part spent in the synthetic-world renderer (the test
harness) on its own line: the time of outermost calls into synthworld's
public functions, which the simulator reaches through the module.  Per
ablation it also prints the depth pixels the harness cast.  Every
ablation asks for the same pixels of a frame, so the first one casts
them all and the cache serves the later ones.
"""

import argparse
import functools
import inspect
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semgrid import synthworld  # noqa: E402
from semgrid.backend import ABLATIONS  # noqa: E402
from semgrid.sim import (  # noqa: E402
    ObservationCache,
    SimConfig,
    reproj_table,
    simulate,
    write_run_dir,
)

TABLE_COLUMNS = ("Head", "Hips", "Knees", "Ankles",
                 "Shoulders", "Elbows", "Wrists", "Avg")


class HarnessTimer:
    """Wraps synthworld's public functions and sums the wall time of
    outermost calls into them; a call made inside another one is not
    counted again."""

    def __init__(self):
        self.total_s = 0.0
        self._inside = False
        for name, fn in list(vars(synthworld).items()):
            if (inspect.isfunction(fn) and fn.__module__ == synthworld.__name__
                    and not name.startswith("_")):
                setattr(synthworld, name, self._wrap(fn))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._inside:
                return fn(*args, **kwargs)
            self._inside = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_s += time.perf_counter() - t0
                self._inside = False

        return timed


class PixelCounter:
    """Counts the depth pixels asked of synthworld.sparse_pixel_depths_many,
    the cast behind every sensor's depth patches."""

    def __init__(self):
        self.pixels = 0
        cast = synthworld.sparse_pixel_depths_many

        def counted(scene, requests, *args, **kwargs):
            self.pixels += sum(len(pixels) for _, pixels in requests)
            return cast(scene, requests, *args, **kwargs)

        synthworld.sparse_pixel_depths_many = counted


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--persons", type=int, default=2)
    ap.add_argument("--sensors", type=int, default=4)
    ap.add_argument("--duration", type=float, default=60.0)
    ap.add_argument("--pose-rate", type=float, default=6.0)
    ap.add_argument("--out", help="write one run directory per "
                                  "(seed, ablation) under this directory")
    args = ap.parse_args()

    t0 = time.perf_counter()
    harness = HarnessTimer()
    counter = PixelCounter()
    averages: dict[str, list[float]] = {a: [] for a in ABLATIONS}
    cast = dict.fromkeys(ABLATIONS, 0)
    tables: dict[str, dict[str, float]] = {}
    for seed in args.seeds:
        scene = synthworld.make_default_scene(seed=seed,
                                              n_persons=args.persons)
        calibs = synthworld.make_camera_rig(scene, n=args.sensors)
        cache = ObservationCache()
        for ablation in ABLATIONS:
            config = SimConfig(
                duration_s=args.duration,
                ablation=ablation,
                pose_rate_hz=args.pose_rate,
                integrate_clouds=False,
                map_source="structure",
            )
            before = counter.pixels
            result = simulate(scene, calibs, config, obs_cache=cache)
            cast[ablation] += counter.pixels - before
            table = reproj_table(result.reproj_records)
            averages[ablation].append(table["Avg"])
            tables[ablation] = table
            if args.out:
                write_run_dir(Path(args.out) / f"seed{seed}-{ablation}",
                              result)
        row = "  ".join(f"{a}={averages[a][-1]:.3f}" for a in ABLATIONS)
        print(f"seed {seed}: {row}")

    print()
    width = max(len(a) for a in ABLATIONS)
    header = "ablation".ljust(width) + "".join(
        f"{c:>11}" for c in TABLE_COLUMNS)
    print(f"last seed ({args.seeds[-1]}), mean reprojection error (px):")
    print(header)
    print("-" * len(header))
    for ablation in ABLATIONS:
        print(ablation.ljust(width) + "".join(
            f"{tables[ablation][c]:>11.2f}" for c in TABLE_COLUMNS))

    print()
    print(f"median Avg over {len(args.seeds)} seeds:")
    for ablation in ABLATIONS:
        print(f"  {ablation:<13} {statistics.median(averages[ablation]):.4f}")
    print()
    print(f"depth pixels cast by the harness, over {len(args.seeds)} seeds "
          "(later ablations reuse the cache):")
    for ablation in ABLATIONS:
        print(f"  {ablation:<13} {cast[ablation]:>11,}")
    total = time.perf_counter() - t0
    print(f"total wall time: {total:.1f} s")
    print(f"  synthworld (harness): {harness.total_s:.1f} s")
    print(f"  rest (system and evaluation): {total - harness.total_s:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
