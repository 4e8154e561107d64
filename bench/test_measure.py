"""Tests of the benchmark's metric arithmetic and probes.

    python3 -m pytest bench/test_measure.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    GAUGE_REF_S,
    host_factor,
    local_host_factors,
    min_samples,
    outermost_time,
    percentile_supported,
    roots,
    self_times,
    tail_percentile,
)
from probes import HostGauge, OutermostTimer  # noqa: E402


class TestPercentileRule:
    """Highest percentile with at least ten samples beyond it."""

    @pytest.mark.parametrize("n, p", [
        (19, None), (20, "50"), (39, "50"), (40, "75"), (100, "90"),
        (199, "90"), (200, "95"), (999, "95"), (1000, "99"), (2000, "99.5"),
        (10000, "99.9"), (10**6, "99.9"),
    ])
    def test_tail_percentile(self, n, p):
        assert tail_percentile(n) == p

    def test_p95_needs_200_samples(self):
        assert not percentile_supported(199, "95")
        assert percentile_supported(200, "95")
        assert min_samples("95") == 200
        assert min_samples("90") == 100
        assert min_samples("50") == 20

    def test_fractional_percentiles_are_exact(self):
        # 10000 * 0.1 % is exactly ten samples, not 9.999...
        assert percentile_supported(10000, "99.9")
        assert not percentile_supported(9999, "99.9")


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        parent = [-1, 0, 1, 0]
        np.testing.assert_allclose(self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_sum_to_root_duration(self):
        start = [0.0, 0.5, 0.6, 2.0, 2.5, 7.0]
        end = [8.0, 1.5, 1.0, 6.0, 3.0, 7.5]
        parent = [-1, 0, 1, 0, 3, 0]
        assert math.isclose(self_times(start, end, parent).sum(), 8.0)

    def test_overlapping_and_overhanging_children_counted_once(self):
        # children overlap each other and one sticks out of the parent
        start = [0.0, 1.0, 2.0, 8.0]
        end = [10.0, 4.0, 5.0, 12.0]
        parent = [-1, 0, 0, 0]
        assert self_times(start, end, parent)[0] == pytest.approx(10 - 4 - 2)

    def test_roots(self):
        assert list(roots([-1, 0, 1, -1, 3, 0])) == [0, 0, 0, 3, 3, 0]


class TestHarnessTime:
    """Only outermost calls into the harness count."""

    def test_nested_spans_counted_once(self):
        # harness [0, 6] > harness [1, 5];  system [7, 10] > harness [8, 9]
        start = [0.0, 1.0, 7.0, 8.0]
        end = [6.0, 5.0, 10.0, 9.0]
        parent = [-1, 0, -1, 2]
        mask = [True, True, False, True]
        assert outermost_time(start, end, mask, parent) == pytest.approx(7.0)

    def test_harness_under_system_under_harness(self):
        # harness > system > harness: only the outer harness call counts
        start = [0.0, 1.0, 2.0]
        end = [5.0, 4.0, 3.0]
        parent = [-1, 0, 1]
        assert outermost_time(start, end, [True, False, True], parent) == pytest.approx(5.0)

    def test_outermost_timer(self):
        ticks = iter(range(100))
        timer = OutermostTimer(clock=lambda: next(ticks))
        calls = []
        inner = timer.wrap(lambda: calls.append("inner"))

        def outer_fn():
            inner()
            inner()

        outer = timer.wrap(outer_fn)
        outer()  # clock 0 -> 1: the nested calls read no clock
        inner()  # clock 2 -> 3
        assert calls == ["inner"] * 3
        assert timer.total_s == 2

    def test_outermost_timer_resets_after_exception(self):
        timer = OutermostTimer()

        def boom():
            raise ValueError

        with pytest.raises(ValueError):
            timer.wrap(boom)()
        assert not timer._inside


class TestHostFactor:
    def test_mean_burst_over_reference(self):
        assert host_factor([GAUGE_REF_S] * 3) == pytest.approx(1.0)
        assert host_factor([GAUGE_REF_S, 3 * GAUGE_REF_S]) == pytest.approx(2.0)

    def test_no_bursts_is_an_error(self):
        with pytest.raises(ValueError):
            host_factor([])

    def test_local_factors_follow_drift(self):
        # the host runs at reference speed, then twice as slow
        bursts = [GAUGE_REF_S] * 20 + [2 * GAUGE_REF_S] * 20
        f = local_host_factors(bursts, half_window=2)
        assert f[:18] == pytest.approx(1.0)
        assert f[22:] == pytest.approx(2.0)
        # across the step the window mixes both speeds
        assert f[19] == pytest.approx((3 * 1 + 2 * 2) / 5)
        assert f[20] == pytest.approx((2 * 1 + 3 * 2) / 5)

    def test_local_factors_at_the_ends(self):
        f = local_host_factors([GAUGE_REF_S, 3 * GAUGE_REF_S], half_window=5)
        assert f == pytest.approx([2.0, 2.0])
        assert len(local_host_factors([])) == 0

    def test_gauge_times_each_burst(self):
        ticks = iter(range(0, 100, 2))
        gauge = HostGauge(clock=lambda: next(ticks) * GAUGE_REF_S)
        gauge.burst()
        gauge.burst()
        assert gauge.burst_s == pytest.approx([2 * GAUGE_REF_S] * 2)
        assert host_factor(gauge.burst_s) == pytest.approx(2.0)


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def sg():
    sys.path.insert(0, str(ROOT / "src"))
    import run

    return run.import_semgrid()[0]


def test_traced_run_matches_untraced_and_restores(sg):
    """The wrappers change no output, measure every named function and
    put every original back; the report yields every metric of
    BENCHMARK.json."""
    import json

    import report
    from probes import LoopProbes, Tracer
    from workloads import Workload, run_unit

    wl = Workload("tiny", 2, {"duration_s": 1.0})
    originals = [
        (sg.sim, "simulate"), (sg.backend, "associate"), (sg.voxmap, "bresenham3d_keys"),
        (sg.protocol, "encode"), (sg.synthworld, "render_frame"),
        (sg.backend.Backend, "tick"), (sg.protocol.StreamDecoder, "feed"),
    ]
    before = [getattr(owner, attr) for owner, attr in originals]
    gauge = HostGauge()
    probes = LoopProbes(sg, gauge)
    try:
        reference = run_unit(sg, wl, 3, probes)
    finally:
        probes.close()
    tracer = Tracer()
    try:
        tracer.install(sg)
        probes = LoopProbes(sg, gauge, tracer)
        traced = run_unit(sg, wl, 3, probes)
    finally:
        probes.close()
        tracer.close()
    assert [getattr(owner, attr) for owner, attr in originals] == before

    assert traced["digest"] == reference["digest"]
    assert traced["checks"].failed == 0 and traced["checks"].attempted > 0
    assert len(traced["tick_s"]) == 30
    # one gauge burst per tick, outside the simulate CPU time reported
    assert len(traced["gauge_s"]) == 30 and len(reference["gauge_s"]) == 30
    assert traced["bytes"]["pose"] > 0 and traced["bytes"]["cloud"] > 0
    assert 0 < traced["harness_s"] < traced["cpu_s"]

    spans = tracer.arrays()
    assert {"sim.simulate", "pose.associate", "geometry.bresenham3d_keys",
            "cloud.statistical_outlier_filter", "protocol.decode",
            "voxmap.integrate_cloud", "synthworld.render_frame"} <= set(spans["names"])
    assert len(tracer.cloud_to_map_s) == 4  # one cloud per sensor at t = 0
    # each gauge burst is its own span right under simulate, in no layer
    names = spans["names"][spans["name"]]
    gauge_parents = spans["parent"][names == "bench.gauge"]
    assert len(gauge_parents) == 30
    assert set(names[gauge_parents]) == {"sim.simulate"}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = report.per_layer(spans, tracer.notes, tracer.cloud_to_map_s, [traced], 0.0)
    assert {m["name"] for m in spec["per_layer"]} == set(layer)
    e2e = report.end_to_end([traced], 0.5, 100.0)
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    assert layer["cloud.self_ms_per_s"] > 0
    # the harness line equals the probe's, both host-normalised, up to
    # tracing overhead
    harness_ms = 1000 * traced["harness_s"] / traced["sim_s"] / host_factor(traced["gauge_s"])
    assert layer["synthworld.busy_ms_per_s"] == pytest.approx(harness_ms, rel=0.2)
