"""Metric arithmetic of the benchmark, free of any semgrid import.

Percentiles follow one rule: a latency is reported as its median plus
the highest percentile that still has at least ``MIN_BEYOND`` samples
beyond it.  Span arithmetic works on flat arrays as the tracer records
them: one row per span with its start, end and the index of its parent
span (-1 for a root); a parent is always recorded before its children.

Times are CPU seconds of the benchmark's process (`clock`), and are
host-normalised: a unit's time is divided by `host_factor` of the gauge
bursts taken during it (see `probes.HostGauge`), which reads 1 when the
bursts take `GAUGE_REF_S`, and a tick's latency by `local_host_factors`
of the bursts around it.  A normalised second is a CPU second of a host
that runs a burst in `GAUGE_REF_S`.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# CPU time of the whole process: unlike wall time it leaves out the time
# other processes of the machine hold its cores
clock = time.process_time

MIN_BEYOND = 10
PERCENTILE_LADDER = ("50", "75", "90", "95", "99", "99.5", "99.9")
# a gauge burst's time between semgrid ticks on a 2-vCPU Xeon at 2.0 GHz
GAUGE_REF_S = 1.5e-3
# bursts on each side of a tick that normalise its latency (one burst
# follows every tick)
LOCAL_HALF_WINDOW = 3


def host_factor(burst_s) -> float:
    """How many times slower than the reference the host ran while the
    bursts `burst_s` were taken: their mean time over GAUGE_REF_S."""
    if len(burst_s) == 0:
        raise ValueError("no gauge bursts to normalise by")
    return float(np.mean(burst_s)) / GAUGE_REF_S


def local_host_factors(burst_s, half_window: int = LOCAL_HALF_WINDOW) -> np.ndarray:
    """Host factor at each burst from the bursts at most `half_window`
    places before or after it: a latency measured just before burst i is
    divided by factor i, which follows the host's drift within a unit."""
    b = np.asarray(burst_s, dtype=np.float64)
    if len(b) == 0:
        return b
    csum = np.concatenate(([0.0], np.cumsum(b)))
    idx = np.arange(len(b))
    lo = np.maximum(idx - half_window, 0)
    hi = np.minimum(idx + half_window + 1, len(b))
    return (csum[hi] - csum[lo]) / (hi - lo) / GAUGE_REF_S


def samples_beyond(n: int, p: str) -> Fraction:
    """Expected number of the n samples that lie above the p-th percentile."""
    return n * (100 - Fraction(p)) / 100


def percentile_supported(n: int, p: str) -> bool:
    return samples_beyond(n, p) >= MIN_BEYOND


def min_samples(p: str) -> int:
    """Fewest samples that support the p-th percentile."""
    n = MIN_BEYOND
    while not percentile_supported(n, p):
        n += 1
    return n


def tail_percentile(n: int) -> str | None:
    """Highest percentile of the ladder with at least MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        if percentile_supported(n, p):
            best = p
    return best


def percentile(values, p: str) -> float:
    """p-th percentile (linear interpolation); 0.0 for no samples."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return 0.0
    return float(np.percentile(values, float(p)))


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its
    child spans cover (children clipped to the parent, overlaps merged)."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    children: dict[int, list[int]] = {}
    for i in np.nonzero(parent >= 0)[0]:
        children.setdefault(int(parent[i]), []).append(int(i))
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        ivs = sorted(
            (max(start[k], lo), min(end[k], hi)) for k in kids
        )
        covered = 0.0
        cur_s, cur_e = None, None
        for s, e in ivs:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def roots(parent) -> np.ndarray:
    """Index of the root span above each span."""
    parent = np.asarray(parent, dtype=np.int64)
    out = np.arange(len(parent))
    for i in range(len(parent)):
        if parent[i] >= 0:
            out[i] = out[parent[i]]
    return out


def outermost(mask, parent) -> np.ndarray:
    """Spans selected by mask that have no selected ancestor."""
    mask = np.asarray(mask, dtype=bool)
    parent = np.asarray(parent, dtype=np.int64)
    # covered[i]: span i or one of its ancestors is selected
    covered = np.zeros(len(mask), dtype=bool)
    out = np.zeros(len(mask), dtype=bool)
    for i in range(len(mask)):
        above = parent[i] >= 0 and covered[parent[i]]
        out[i] = mask[i] and not above
        covered[i] = mask[i] or above
    return out


def outermost_time(start, end, mask, parent) -> float:
    """Total duration of the selected spans, counting nested selected
    spans once (only the outermost call of a chain is summed)."""
    sel = outermost(mask, parent)
    return float(np.sum(np.asarray(end)[sel] - np.asarray(start)[sel]))
