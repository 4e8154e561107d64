#!/usr/bin/env python3
"""semgrid benchmark: run one workload through `semgrid.sim.simulate`,
check its outputs and print its metrics.

    python3 bench/run.py --workload default-30hz --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; semgrid is imported from its
`src/`.  With `--trace 0` the last stdout line holds the end-to-end
metrics of BENCHMARK.json, with `--trace 1` its per-layer metrics.  The
full report goes to bench/out/<workload>.trace<0|1>.json and, for traced
runs, the spans to bench/out/<workload>.spans.npz.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

# The benchmark's own modules import numpy, so they are imported only after
# `import_semgrid` has timed this process's cold import of semgrid.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

HELD_OUT_SEED = 1009  # later gains must also hold on this seed
SETUP_REPEATS = 3
FUSION_TAIL = "90"  # the tail of fusion_p90_ms
MIN_UNITS = 3  # fewest timed units of a run, whose median it reports
BUDGET_S = 140.0  # start no unit expected to end later than this

MODULES = ("sim", "synthworld", "backend", "protocol", "sensor_node", "cloud",
           "pose", "voxmap", "geometry")
# Set-up is timed in the CPU time of the thread doing it: importing numpy
# starts OpenBLAS worker threads that spin for about 0.25 CPU seconds on
# another core, beside the import and off its path.
IMPORT_PROBE = (
    "import time; t = time.thread_time(); "
    + "; ".join(f"import semgrid.{m}" for m in MODULES)
    + "; print(time.thread_time() - t)"
)


def import_semgrid():
    """The semgrid modules of this checkout, and the CPU seconds this
    thread spent importing them."""
    sys.path.insert(0, str(SRC))
    t0 = time.thread_time()
    sg = types.SimpleNamespace(
        **{m: importlib.import_module(f"semgrid.{m}") for m in MODULES})
    import_s = time.thread_time() - t0
    if Path(sg.sim.__file__).resolve().parent != SRC / "semgrid":
        raise ImportError(f"semgrid imported from {sg.sim.__file__}, not {SRC}")
    return sg, import_s


def measure_setup(sg, wl, seed: int, import_s: float) -> dict:
    """Median cold import of semgrid (this process's, then fresh
    interpreters) plus median scene and camera-rig build, in thread CPU
    seconds: everything before simulate is called.  `main` divides the
    sum by the host factor of the whole run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = [import_s]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        imports.append(float(proc.stdout.split()[-1]))
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.thread_time()
        scene = sg.synthworld.make_default_scene(seed=seed, n_persons=wl.persons)
        sg.synthworld.make_camera_rig(scene)
        builds.append(time.thread_time() - t0)
    return {"import_s": imports, "build_s": builds,
            "cpu_s": statistics.median(imports) + statistics.median(builds)}


def measure(sg, wl, seed: int, seconds: float, trace: bool, gauge) -> dict:
    """Run an untimed warm-up unit, then repeat units of `wl` while the
    next one is expected to end within `seconds` of wall time, and
    beyond that until MIN_UNITS units and enough ticks for the fusion
    tail are timed, unless the next unit would end after BUDGET_S.  A
    traced run first runs one untraced reference unit, for the
    determinism check and the tracing overhead."""
    from measure import min_samples
    from probes import LoopProbes, Tracer
    from workloads import run_unit

    probes = LoopProbes(sg, gauge)
    tracer = reference = None
    units = []
    try:
        warmup = run_unit(sg, wl.warmup(), seed, probes)
        if trace:
            reference = run_unit(sg, wl, seed, probes)
            # the tracer goes on first, so that the tick probe and its
            # gauge burst wrap the tracer's backend.tick span
            probes.close()
            tracer = Tracer()
            tracer.install(sg)
            probes = LoopProbes(sg, gauge, tracer)
        t_start = time.perf_counter()
        while True:
            t_unit = time.perf_counter()
            unit = run_unit(sg, wl, seed, probes)
            units.append(unit)
            elapsed = time.perf_counter() - t_start
            if unit["digest"] is None:
                break
            next_end = elapsed + time.perf_counter() - t_unit
            enough = (len(units) >= MIN_UNITS and
                      sum(len(u["tick_s"]) for u in units) >= min_samples(FUSION_TAIL))
            if next_end > BUDGET_S or (enough and next_end > seconds):
                break
    finally:
        probes.close()
        if tracer is not None:
            tracer.close()
    return {"units": units, "warmup": warmup, "reference": reference,
            "tracer": tracer, "measured_s": elapsed}


def run_checks(measured: dict, trace: bool):
    from measure import percentile_supported
    from workloads import Checks

    checks = Checks()
    units = measured["units"]
    for u in [measured["warmup"]] + units:
        checks.merge(u["checks"])
    # the same seed must give the same skeleton log and map in every unit
    base = measured["reference"] or units[0]
    for u in units if measured["reference"] else units[1:]:
        checks.expect("traced output equals untraced" if trace
                      else "repeated unit gives identical output",
                      u["digest"] == base["digest"])
    if not trace:
        ticks = sum(len(u["tick_s"]) for u in units)
        checks.expect(f"fusion p{FUSION_TAIL} has ten ticks beyond it",
                      percentile_supported(ticks, FUSION_TAIL))
    return checks


def context(args, wl, load_start) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": wl.name,
        "params": wl.params(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_start = os.getloadavg()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "semgrid" / "__init__.py").is_file():
        print(f"no semgrid sources under {SRC}", file=sys.stderr)
        return 2
    sg, import_s = import_semgrid()

    import numpy as np

    import report
    from measure import host_factor, percentile, tail_percentile
    from probes import HostGauge
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = args.seed % 2**63  # the scene rng takes non-negative seeds

    gauge = HostGauge()
    setup = measure_setup(sg, wl, seed, import_s)
    measured = measure(sg, wl, seed, args.seconds, bool(args.trace), gauge)
    checks = run_checks(measured, bool(args.trace))
    # set-up runs before any burst; the bursts of the whole run are the
    # nearest sample of the host's speed that is not itself noisier than
    # a sub-second import
    setup["host_factor"] = host_factor(gauge.burst_s)
    setup["setup_s"] = setup["cpu_s"] / setup["host_factor"]
    units = measured["units"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    OUT.mkdir(exist_ok=True)
    full = {"context": context(args, wl, load_start), "setup": setup,
            "measured_s": measured["measured_s"], "units": len(units),
            "ticks": sum(len(u["tick_s"]) for u in units),
            "unit_summaries": [
                dict({k: v for k, v in u.items() if k != "checks"},
                     host_factor=host_factor(u["gauge_s"]))
                for u in units],
            "checks": {"attempted": checks.attempted, "failed": checks.failed,
                       "failures": checks.failures}}
    if args.trace:
        tracer = measured["tracer"]
        spans = tracer.arrays()
        def normalised_cpu(u):
            return u["cpu_s"] / host_factor(u["gauge_s"])

        overhead = 100 * (statistics.median(normalised_cpu(u) for u in units)
                          / normalised_cpu(measured["reference"]) - 1)
        metrics = report.per_layer(spans, tracer.notes, tracer.cloud_to_map_s,
                                   units, overhead)
        wanted = spec["per_layer"]
        np.savez_compressed(OUT / f"{wl.name}.spans.npz", **spans)
        lines = report.layer_table(metrics)
    else:
        metrics = report.end_to_end(units, setup["setup_s"], peak_rss_mb)
        wanted = spec["end_to_end"]
        lines = []
    tick_ms = report.tick_latencies_ms(units).tolist()
    tail = tail_percentile(len(tick_ms))
    full["fusion_tail"] = {"ticks": len(tick_ms), "p50_ms": percentile(tick_ms, "50"),
                           "percentile": tail,
                           "ms": percentile(tick_ms, tail) if tail else None}
    full["tick_ms"] = tick_ms
    full["metrics"] = metrics
    (OUT / f"{wl.name}.trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, default=str) + "\n")

    print(f"{wl.name} seed {args.seed}: {len(units)} unit(s), {full['ticks']} ticks, "
          f"{measured['measured_s']:.1f} s measured, {checks.failed} of "
          f"{checks.attempted} operations failed")
    for msg in checks.failures:
        print(f"  FAILED {msg}")
    if not args.trace and tail:
        print(f"  Backend.tick over {len(tick_ms)} ticks: p50 "
              f"{full['fusion_tail']['p50_ms']:.2f} ms, p{tail} {full['fusion_tail']['ms']:.2f} ms")
    for line in lines:
        print(line)
    for m in wanted:
        print(f"  {m['name']:<44} {metrics[m['name']]:>14.4f} {m['unit']}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
