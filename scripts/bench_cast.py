#!/usr/bin/env python3
"""Benchmark the synthetic world's ray casts, caller by caller.

Runs one seed-1 unit shaped like each of the benchmark's workloads
(`crowd-8p`: 8 persons, poses only, 20 ticks at 30 Hz; `default-30hz`:
2 persons, clouds at 1 Hz, 2 s) and keeps every
`synthworld._cast_persons` and `synthworld._cast_static` call with its
inputs, labelled by the synthworld function that made it (for the static
cast, `_static_cast` is a full frame missing its cache).  It then
replays each call, best of --repeat, in process CPU time, and checks
that every form gives the same bits:

- person cast: the dense form of `tests/oracles.py` (the sphere test on
  every (ray, capsule) pair, the capsule terms per pair), and the
  program with every pair selected and with the cull forced on; the
  program itself takes the first below `_CULL_MIN_PAIRS` pairs and the
  second from there, so the crossover of these two columns sets it.
  Also the time of the forced cull alone (`_cull_pairs`), and the
  (ray, capsule) pairs per call: all of them, those the cull selects,
  those of the selection that pass the sphere test (the pairs the
  capsule quadratics run on) and those whose quadratics hit.
- static cast: the all-boxes-at-once form of `tests/oracles.py` and the
  program's box-by-box one, with the rays per call.
"""

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from semgrid import synthworld  # noqa: E402
from semgrid.sim import SimConfig, simulate  # noqa: E402
from tests.oracles import (  # noqa: E402
    capsule_hits_dense, cast_persons_dense, cast_static_dense, sphere_test_dense)

SEED = 1
UNITS = {
    "crowd-8p": (8, SimConfig(duration_s=20 / 30, integrate_clouds=False,
                              map_source="structure")),
    "default-30hz": (2, SimConfig(duration_s=2.0)),
}


def capture_unit(persons: int, config: SimConfig) -> tuple[list, list]:
    """(caller, arguments) of every person and every static cast of one
    unit; the person cast's hit arrays are copied as they were before
    the call."""
    persons_calls, static_calls = [], []
    real_persons, real_static = synthworld._cast_persons, synthworld._cast_static

    def cast_persons(capsules, blocks, dirs, best_t, best_c, blocked=None):
        persons_calls.append((sys._getframe(1).f_code.co_name,
                              (capsules, blocks, dirs.copy(), best_t.copy(), best_c.copy(),
                               blocked)))
        return real_persons(capsules, blocks, dirs, best_t, best_c, blocked)

    def cast_static(scene, t_s, origins, dirs):
        static_calls.append((sys._getframe(1).f_code.co_name, (scene, t_s, origins, dirs)))
        return real_static(scene, t_s, origins, dirs)

    synthworld._cast_persons, synthworld._cast_static = cast_persons, cast_static
    try:
        scene = synthworld.make_default_scene(seed=SEED, n_persons=persons)
        simulate(scene, synthworld.make_camera_rig(scene), config)
    finally:
        synthworld._cast_persons, synthworld._cast_static = real_persons, real_static
    return ([call for call in persons_calls if call[1][0] is not None and len(call[1][2])],
            static_calls)


def best_ms(fn, args, repeat: int) -> tuple[float, tuple]:
    """Best process CPU ms of fn(*args), and its output."""
    times = []
    for _ in range(repeat):
        t0 = time.process_time()
        out = fn(*args)
        times.append(time.process_time() - t0)
    return 1e3 * min(times), out


def cast_persons_with(min_pairs: int):
    """synthworld._cast_persons on fresh copies of the hit arrays, with
    _CULL_MIN_PAIRS set to min_pairs."""
    def cast(capsules, blocks, dirs, best_t, best_c, blocked):
        saved, synthworld._CULL_MIN_PAIRS = synthworld._CULL_MIN_PAIRS, min_pairs
        try:
            return synthworld._cast_persons(capsules, blocks, dirs, best_t.copy(),
                                            best_c.copy(), blocked)
        finally:
            synthworld._CULL_MIN_PAIRS = saved
    return cast


def cull_forced(capsules, blocks, dirs, best_t, best_c, blocked):
    """synthworld._cull_pairs with the cull on whatever the pair count."""
    saved, synthworld._CULL_MIN_PAIRS = synthworld._CULL_MIN_PAIRS, 0
    try:
        return list(synthworld._cull_pairs(capsules, blocks, dirs))
    finally:
        synthworld._CULL_MIN_PAIRS = saved


def dense_persons(capsules, blocks, dirs, best_t, best_c, blocked):
    return cast_persons_dense(capsules, blocks, dirs, best_t.copy(), best_c.copy(), blocked)


def same_bits(outs) -> bool:
    return all(np.array_equal(a, b) for out in outs[1:] for a, b in zip(outs[0], out))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    print(f"seed {SEED}; ms per call best of {args.repeat}, process CPU time; "
          "pairs or rays per call")
    person_forms = (dense_persons, cast_persons_with(sys.maxsize), cast_persons_with(0))
    mismatched = 0
    for name, (persons, config) in UNITS.items():
        persons_calls, static_calls = capture_unit(persons, config)
        rows = defaultdict(lambda: np.zeros(9))
        for caller, call in persons_calls:
            capsules, blocks, dirs, _, _, blocked = call
            timed = [best_ms(form, call, args.repeat) for form in person_forms]
            mismatched += not same_bits([out for _, out in timed])
            cull_ms, chunks = best_ms(cull_forced, call, args.repeat)
            selected = np.zeros((len(dirs), len(capsules[2])), dtype=bool)
            for rays, caps in chunks:
                selected[rays, caps] = True
            passed = sphere_test_dense(capsules, blocks, dirs) & selected
            if blocked is not None:
                passed &= ~blocked
            hits = np.isfinite(capsule_hits_dense(capsules, blocks, dirs, blocked))
            mismatched += bool((hits & ~selected).any())
            rows[caller] += (1, *(ms for ms, _ in timed), cull_ms, selected.size,
                             np.count_nonzero(selected), np.count_nonzero(passed),
                             np.count_nonzero(hits))
        print(f"\n{name}: person cast")
        print(f"{'caller':25s} {'calls':>5s} {'dense ms':>9s} {'all ms':>9s} "
              f"{'culled ms':>9s} {'cull ms':>8s} {'pairs':>9s} {'selected':>9s} "
              f"{'passed':>8s} {'hit':>7s}")
        for caller, (calls, *per) in sorted(rows.items()):
            dense_ms, all_ms, culled_ms, cull_ms, pairs, selected, passed, hit = \
                np.divide(per, calls)
            print(f"{caller:25s} {calls:5.0f} {dense_ms:9.2f} {all_ms:9.2f} {culled_ms:9.2f} "
                  f"{cull_ms:8.2f} {pairs:9.0f} {selected:9.0f} {passed:8.0f} {hit:7.0f}")
        rows = defaultdict(lambda: np.zeros(4))
        for caller, call in static_calls:
            timed = [best_ms(form, call, args.repeat)
                     for form in (cast_static_dense, synthworld._cast_static)]
            mismatched += not same_bits([out for _, out in timed])
            rows[caller] += (1, *(ms for ms, _ in timed), len(call[3]))
        print(f"\n{name}: static cast")
        print(f"{'caller':25s} {'calls':>5s} {'dense ms':>9s} {'boxwise ms':>10s} {'rays':>9s}")
        for caller, (calls, *per) in sorted(rows.items()):
            dense_ms, boxwise_ms, rays = np.divide(per, calls)
            print(f"{caller:25s} {calls:5.0f} {dense_ms:9.2f} {boxwise_ms:10.2f} {rays:9.0f}")
    if mismatched:
        print(f"\nERROR: {mismatched} casts differ between their forms or miss a hit pair")
        return 1
    print("\nevery form of every cast gives the same bits; every cull keeps every hit pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
