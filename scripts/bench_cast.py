#!/usr/bin/env python3
"""Benchmark the synthetic world's person-capsule cast, caller by caller.

Runs one seed-1 unit shaped like each of the benchmark's workloads
(`crowd-8p`: 8 persons, poses only, 20 ticks at 30 Hz; `default-30hz`:
2 persons, clouds at 1 Hz, 2 s) and keeps every
`synthworld._cast_persons` call with its inputs, labelled by the
synthworld function that made it.  It then replays each call through the
dense sphere test of `tests/oracles.py` (every ray against every
capsule) and through the program's culled one, best of --repeat each, in
process CPU time, and checks that both give the same bits.  Per workload
and caller it prints the calls, the ms per call of each form and the
(ray, capsule) pairs per call: all of them (what the dense test
evaluates), those the cull selects and those that pass the sphere test.
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
from tests.oracles import cast_persons_dense, sphere_test_dense  # noqa: E402

SEED = 1
UNITS = {
    "crowd-8p": (8, SimConfig(duration_s=20 / 30, integrate_clouds=False,
                              map_source="structure")),
    "default-30hz": (2, SimConfig(duration_s=2.0)),
}


def capture_unit(persons: int, config: SimConfig) -> list[tuple]:
    """(caller, arguments) of every person cast of one unit; the hit
    arrays are copied as they were before the call."""
    calls = []
    real = synthworld._cast_persons

    def cast(capsules, blocks, dirs, best_t, best_c, blocked=None):
        calls.append((sys._getframe(1).f_code.co_name,
                      (capsules, blocks, dirs.copy(), best_t.copy(), best_c.copy(), blocked)))
        return real(capsules, blocks, dirs, best_t, best_c, blocked)

    synthworld._cast_persons = cast
    try:
        scene = synthworld.make_default_scene(seed=SEED, n_persons=persons)
        simulate(scene, synthworld.make_camera_rig(scene), config)
    finally:
        synthworld._cast_persons = real
    return [call for call in calls if call[1][0] is not None and len(call[1][2])]


def best_ms(fn, args, repeat: int) -> tuple[float, tuple]:
    """Best process CPU ms of fn over fresh copies of the hit arrays."""
    capsules, blocks, dirs, best_t, best_c, blocked = args
    times = []
    for _ in range(repeat):
        t, c = best_t.copy(), best_c.copy()
        t0 = time.process_time()
        fn(capsules, blocks, dirs, t, c, blocked)
        times.append(time.process_time() - t0)
        out = (t, c)
    return 1e3 * min(times), out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    print(f"seed {SEED}; ms per call best of {args.repeat}, process CPU time; "
          "pairs per call")
    print(f"{'workload':13s} {'caller':25s} {'calls':>5s} {'dense ms':>9s} "
          f"{'culled ms':>9s} {'dense pairs':>11s} {'selected':>9s} {'passed':>8s}")
    mismatched = 0
    for name, (persons, config) in UNITS.items():
        rows = defaultdict(lambda: np.zeros(6))
        for caller, call in capture_unit(persons, config):
            capsules, blocks, dirs, _, _, blocked = call
            dense_ms, dense_out = best_ms(cast_persons_dense, call, args.repeat)
            culled_ms, culled_out = best_ms(synthworld._cast_persons, call, args.repeat)
            mismatched += not all(np.array_equal(a, b) for a, b in zip(dense_out, culled_out))
            selected = synthworld._cull_pairs(*synthworld._bounding_spheres(capsules),
                                              blocks, dirs)[0]
            passed = sphere_test_dense(capsules, blocks, dirs)
            if blocked is not None:
                passed &= ~blocked
            rows[caller] += (1, dense_ms, culled_ms, passed.size, len(selected),
                             np.count_nonzero(passed))
        for caller, (calls, *per) in sorted(rows.items()):
            dense_ms, culled_ms, pairs, selected, passed = np.divide(per, calls)
            print(f"{name:13s} {caller:25s} {calls:5.0f} {dense_ms:9.2f} {culled_ms:9.2f} "
                  f"{pairs:11.0f} {selected:9.0f} {passed:8.0f}")
    if mismatched:
        print(f"ERROR: {mismatched} casts differ from the dense cast")
        return 1
    print("every culled cast equals the dense cast bit for bit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
