#!/usr/bin/env python3
"""Benchmark the backend's fusion tick stage by stage at 8 persons.

Runs seed 1-3 units shaped like the benchmark's `crowd-8p` workload (8
persons, 4 sensors, poses only, 20 ticks at 30 Hz) and keeps, per tick,
the views `Backend.sync_window_select` picked and each sensor's feedback
horizon.  It then replays each unit's ticks through the functions the
backend calls: association, triangulation, the tracker and the one
feedback call for all sensors, and on its own the one occlusion query
(`VoxelMap.is_occluded_many`) that feedback call made.  Each stage of
each tick runs --repeat times back to back, the tracker each time from a
copy of its state before the tick, and the least process CPU time
counts; the next stage and tick go on from the last repeat's output.
Each tick also times the benchmark's host gauge burst (bench/probes.py)
the same way, and the stage times are divided by the tick's host factor,
the burst's time over its reference time (bench/measure.py): the shared
host's speed drifts by up to 2x from one run to the next.  It prints,
per unit, the ids the tracker issued and the tracks still alive at its
end (id churn shows as many more ids than persons), then the persons per
view with how many of them a sensor knows only from feedback (a rise
there means ghost persons), and the median over the ticks per stage and
of the whole tick.  The 33 ms tick budget is a real-time target (30 Hz)
and is checked on the unnormalised times, the 5 ms `make_feedback`
budget on the median of the normalised ones; exceeding either prints a
warning but does not fail, since the time depends on the host.
"""

import argparse
import copy
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from semgrid import backend, synthworld  # noqa: E402
from semgrid.sensor_node import FEEDBACK_PERSON_ID_BASE  # noqa: E402
from semgrid.pose import SkeletonTracker  # noqa: E402
from semgrid.sim import SimConfig, simulate  # noqa: E402
from measure import GAUGE_REF_S  # noqa: E402
from probes import gauge_work  # noqa: E402

SEEDS = (1, 2, 3)
PERSONS = 8
TICKS = 20
TICK_BUDGET_MS = 33.0
FEEDBACK_BUDGET_MS = 5.0
# the last stage is part of make_feedback, timed again on its own
STAGES = ("associate", "triangulate_group", "tracker_update", "make_feedback",
          "is_occluded_many")


def capture_unit(seed: int) -> tuple[backend.Backend, list[tuple]]:
    """The backend of one unit and, per tick, (now_us, selected views in
    sensor-id order, feedback horizon per sensor)."""
    ticks = []
    real = backend.Backend.tick

    def tick(be, now_us):
        horizon = [(st.delay_s or 0.0) + 1.0 / be.tick_rate_hz for st in be.sensors.values()]
        views = sorted(be.sync_window_select(now_us).values(), key=lambda v: v.sensor_id)
        ticks.append((now_us, views, horizon))
        return real(be, now_us)

    backend.Backend.tick = tick
    try:
        scene = synthworld.make_default_scene(seed=seed, n_persons=PERSONS)
        result = simulate(scene, synthworld.make_camera_rig(scene), SimConfig(
            duration_s=TICKS / 30, integrate_clouds=False, map_source="structure"))
    finally:
        backend.Backend.tick = real
    return result.backend, ticks


def best_of(repeat: int, stage, state=None):
    """Call stage(a copy of state) `repeat` times back to back, copying
    untimed; returns the last call's output and copy, and the least
    process CPU ms of one call."""
    best = np.inf
    for _ in range(repeat):
        fresh = copy.deepcopy(state)
        t0 = time.process_time()
        out = stage(fresh)
        best = min(best, time.process_time() - t0)
    return out, fresh, best * 1e3


def replay_unit(be: backend.Backend, ticks: list[tuple],
                repeat: int) -> tuple[np.ndarray, np.ndarray, SkeletonTracker]:
    """Best process CPU ms of each stage of each tick, (ticks, stages), the
    host factor of each tick and the tracker at the end of the unit."""
    tracker = SkeletonTracker()
    calibs = {sid: st.calib for sid, st in be.sensors.items()}
    cameras = list(calibs.values())
    occluded = be.vmap.is_occluded_many
    queries = []

    def capture_query(*args, **kwargs):
        queries[:] = [(args, kwargs)]
        return occluded(*args, **kwargs)

    ms = np.zeros((len(ticks), len(STAGES)))
    factor = np.zeros(len(ticks))
    for k, (now_us, views, horizon) in enumerate(ticks):
        _, _, gauge_ms = best_of(repeat, lambda _: gauge_work())
        factor[k] = gauge_ms / (GAUGE_REF_S * 1e3)
        rows, _, ms[k, 0] = best_of(repeat, lambda _: backend.associate(
            views, calibs, use_depth=be.flags.depth_association))
        (raw, _), _, ms[k, 1] = best_of(repeat, lambda _: backend.triangulate_group(
            views, rows, calibs, now_us))
        fused, tracker, ms[k, 2] = best_of(
            repeat, lambda t: t.update(raw, 1.0 / be.tick_rate_hz), tracker)
        queries.clear()
        be.vmap.is_occluded_many = capture_query
        try:
            _, _, ms[k, 3] = best_of(repeat, lambda _: backend.make_feedback(
                fused, cameras, be.vmap, horizon, compute_occlusion=be.flags.occlusion_flags))
        finally:
            del be.vmap.is_occluded_many
        for args, kwargs in queries:
            _, _, ms[k, 4] = best_of(repeat, lambda _: occluded(*args, **kwargs))
    return ms, factor, tracker


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    units = [capture_unit(seed) for seed in SEEDS]
    best, factors, worst = [], [], 0.0
    for seed, (be, ticks) in zip(SEEDS, units):
        ms, factor, tracker = replay_unit(be, ticks, args.repeat)
        best.append(ms / factor[:, None])
        factors.append(factor)
        worst = max(worst, float(ms[:, :-1].sum(axis=1).max()))
        print(f"seed {seed}: {tracker.next_id} ids issued, {len(tracker.track_ids)} tracks "
              f"alive after {len(ticks)} ticks")
    per_tick = np.concatenate(best)
    views = [len(sel) for _, ticks in units for _, sel, _ in ticks]
    ids = [ps.person_ids for _, ticks in units for _, sel, _ in ticks for ps in sel]
    persons = [len(i) for i in ids]
    feedback_only = [np.count_nonzero(i >= FEEDBACK_PERSON_ID_BASE) for i in ids]
    print(f"{len(per_tick)} ticks of seeds {', '.join(map(str, SEEDS))} ({PERSONS} persons, "
          f"{np.mean(views):.1f} views of {np.mean(persons):.1f} persons each, "
          f"{np.mean(feedback_only):.1f} of them feedback-only); "
          f"per tick best of {args.repeat}, process CPU time over the host factor "
          f"(median {np.median(np.concatenate(factors)):.2f})")
    for name, times in zip(STAGES[:-1] + ("  " + STAGES[-1],), per_tick.T):
        print(f"{name:20s} median {np.median(times):6.2f} ms  "
              f"(range {times.min():.2f}-{times.max():.2f})")
    total = per_tick[:, :-1].sum(axis=1)
    print(f"{'tick':20s} median {np.median(total):6.2f} ms  mean {total.mean():.2f}  "
          f"p90 {np.percentile(total, 90):.2f}")
    if worst > TICK_BUDGET_MS:
        print(f"WARNING: the slowest tick took {worst:.1f} ms, over the "
              f"{TICK_BUDGET_MS:.0f} ms budget on this host")
    else:
        print(f"tick: slowest {worst:.1f} ms, within the {TICK_BUDGET_MS:.0f} ms budget")
    feedback = float(np.median(per_tick[:, STAGES.index("make_feedback")]))
    if feedback > FEEDBACK_BUDGET_MS:
        print(f"WARNING: make_feedback median {feedback:.2f} ms, over its "
              f"{FEEDBACK_BUDGET_MS:.0f} ms budget")
    else:
        print(f"make_feedback: median {feedback:.2f} ms, within the "
              f"{FEEDBACK_BUDGET_MS:.0f} ms budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
