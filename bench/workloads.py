"""The benchmark's workloads and the checks on their outputs.

A workload builds its scene and camera rig from the seed and runs one
*unit*: one `semgrid.sim.simulate` call on the simulated clock.  A run
repeats the unit with the same seed, so every unit must produce
identical outputs.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from measure import clock

POSE_ONLY = {"integrate_clouds": False, "map_source": "structure"}
WARMUP_TICKS = 5  # ticks of the untimed warm-up unit


@dataclass(frozen=True)
class Workload:
    name: str
    persons: int
    # SimConfig keyword arguments of the unit's simulate call; 30 Hz poses
    config: dict

    def warmup(self) -> "Workload":
        """The same unit cut to WARMUP_TICKS ticks: it fills caches and
        finishes lazy set-up before anything is timed."""
        return Workload(f"{self.name}.warmup", self.persons,
                        dict(self.config, duration_s=WARMUP_TICKS / 30))

    def params(self) -> dict:
        return {"persons": self.persons, "sensors": 4, "config": self.config}


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP default config: every layer runs, clouds at 1 Hz
        Workload("default-30hz", 2, {"duration_s": 2.0}),
        # pose fusion at 8 persons; no clouds, map only serves occlusion reads
        Workload("crowd-8p", 8, dict(POSE_ONLY, duration_s=20 / 30)),
    )
}


class Checks:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def count(self, what: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def expect(self, what: str, ok: bool) -> None:
        self.count(what, 1, 0 if ok else 1)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def _digest(result) -> str:
    h = hashlib.sha256("".join(result.skeleton_log).encode())
    for arr in result.backend.vmap.occupied_arrays():
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def map_iou(sg, result, t_s: float) -> float:
    """Occupancy IoU of the fused map against the scene's structure."""
    vmap = result.backend.vmap
    occ = sg.geometry.pack_voxel_keys(vmap.occupied_arrays()[0])
    truth = sg.synthworld.structure_voxel_keys(result.scene, t_s, vmap.resolution)
    union = np.union1d(occ, truth).size
    return np.intersect1d(occ, truth).size / union if union else float("nan")


def _check_result(cfg, result, n_sensors: int, checks: Checks) -> int:
    """Count the delivery checks of one simulate call; returns clouds dropped."""
    be = result.backend.stats
    n_ticks = int(round(cfg.duration_s * cfg.pose_rate_hz))
    sent = sum(n.stats["cloud_sent"] for n in result.nodes)
    dropped = sum(n.stats["clouds_dropped"] for n in result.nodes)
    checks.count("handshakes", n_sensors, abs(n_sensors - be["handshakes"]))
    checks.expect("ticks run", be["ticks"] == n_ticks)
    # every pose frame sent is received
    checks.count("pose frames", n_ticks * n_sensors,
                 abs(n_ticks * n_sensors - be["poses_received"]))
    # a cloud is either received or dropped; a dropped cloud is a failure
    checks.count("cloud frames", sent,
                 dropped + abs(sent - be["clouds_received"] - dropped))
    return dropped


def run_unit(sg, wl: Workload, seed: int, probes) -> dict:
    """One unit of `wl` on the scene of `seed`, measured by `probes`."""
    scene = sg.synthworld.make_default_scene(seed=seed, n_persons=wl.persons)
    calibs = sg.synthworld.make_camera_rig(scene)
    checks = Checks()
    cfg = sg.sim.SimConfig(**wl.config)
    # cpu_s is simulate's CPU time less the gauge bursts run inside it;
    # gauge_s holds those bursts' times
    unit = {"cpu_s": 0.0, "sim_s": cfg.duration_s, "harness_s": 0.0, "tick_s": [],
            "gauge_s": [], "bytes": {}, "frames": {}, "digest": None, "checks": checks}
    before = probes.snapshot()
    t0 = clock()
    try:
        result = sg.sim.simulate(scene, calibs, cfg)
    except (sg.protocol.ProtocolError, sg.backend.HandshakeError) as exc:
        checks.count(f"{type(exc).__name__}: {exc}", 1, 1)
        return unit
    cpu = clock() - t0
    after = probes.snapshot()
    unit["gauge_s"] = probes.gauge.burst_s[before["bursts"]:after["bursts"]]
    unit["cpu_s"] = cpu - sum(unit["gauge_s"])
    unit["harness_s"] = after["harness_s"] - before["harness_s"]
    unit["tick_s"] = probes.tick_s[before["ticks"]:after["ticks"]]
    for key in ("bytes", "frames"):
        unit[key] = {kind: n - before[key].get(kind, 0) for kind, n in after[key].items()}
    unit["clouds_dropped"] = _check_result(cfg, result, len(calibs), checks)
    unit["reproj_px"] = result.stats().get("mean_reproj_px", float("nan"))
    checks.expect("reproj_px finite", math.isfinite(unit["reproj_px"]))
    unit["digest"] = _digest(result)
    unit["cells_end"] = len(result.backend.vmap)
    unit["map_iou"] = map_iou(sg, result, cfg.duration_s)
    checks.expect("map_iou finite", math.isfinite(unit["map_iou"]))
    return unit
