"""Measure semgrid from outside by wrapping its public functions.

Every wrapper is installed where its caller looks the name up: `backend`
imports `associate`, `triangulate_group` and `make_feedback` by name and
`voxmap` imports `bresenham3d_keys` by name, so those are replaced in the
importing module; `sim`, `sensor_node` and `backend` reach
`synthworld.*`, `cloud.*` and `protocol.encode` through the module object,
so those are replaced on the module.  Methods are replaced on their
class.  `Patches.restore` puts every original back.

Two sets of wrappers exist:

- `LoopProbes`, kept on in every run: outermost `synthworld` time (the
  harness), `Backend.tick` latency and wire bytes per frame type.  Each
  costs one clock read or one `len` per call.  After every tick it also
  runs one `HostGauge` burst, which samples how fast the host runs.
- `Tracer`, only in traced runs: one span per call of every measured
  function, kept in memory and written out at exit.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict

import numpy as np

from measure import clock as _clock

FRAME_KIND = {
    "Hello": "hello",
    "PoseMessage": "pose",
    "CloudMessage": "cloud",
    "FeedbackMessage": "feedback",
}
UPLINK = ("hello", "pose", "cloud")
DOWNLINK = ("feedback",)


class Patches:
    """Attribute replacements that `restore` undoes, last first."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr: str, make):
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def harness_functions(module) -> list[str]:
    """Public functions defined in `module` (its classes are left alone)."""
    return sorted(
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    )


class OutermostTimer:
    """Sums the time of outermost calls through any wrapped function;
    a wrapped call made inside another one is not counted again."""

    def __init__(self, clock=_clock):
        self.total_s = 0.0
        self._inside = False
        self._clock = clock

    def wrap(self, fn):
        clock = self._clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._inside:
                return fn(*args, **kwargs)
            self._inside = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_s += clock() - t0
                self._inside = False

        return timed


# A fixed piece of work like semgrid's own mix: interpreted loops over
# dicts, small-matrix numpy calls and sorts of a few thousand values.
_GAUGE_KEYS = {i: i for i in range(500)}
_GAUGE_MAT = np.arange(12.0).reshape(4, 3) + np.eye(4, 3)
_GAUGE_VEC = np.random.default_rng(0).random(4000)


def gauge_work() -> int:
    acc = 0
    for i in range(1500):
        acc += _GAUGE_KEYS[i % 500] * 3 % 7
    for _ in range(25):
        np.linalg.svd(_GAUGE_MAT)
        acc += int(np.hypot(_GAUGE_MAT[:, 0], _GAUGE_MAT[:, 1]).sum())
    np.sort(_GAUGE_VEC)
    return acc + len(np.unique((_GAUGE_VEC * 500).astype(np.int64)))


class HostGauge:
    """Times short bursts of `gauge_work` between pieces of semgrid's work.

    The host is shared and its speed drifts within seconds, by up to 2x,
    in CPU time as in wall time.  A burst run after every backend tick
    samples that speed where the program runs; `measure.host_factor`
    turns the samples of a unit into the factor that its time is divided
    by."""

    def __init__(self, clock=_clock):
        self.burst_s: list[float] = []
        self._clock = clock

    def burst(self) -> None:
        t0 = self._clock()
        gauge_work()
        self.burst_s.append(self._clock() - t0)


class LoopProbes:
    """The cheap probes of every run (see the module docstring).  With a
    tracer, each gauge burst is a `bench.gauge` span, so no layer's self
    time includes it; install the tracer first, so that the burst runs
    outside the tracer's `backend.tick` span."""

    def __init__(self, sg, gauge: HostGauge, tracer=None):
        self.harness = OutermostTimer()
        self.tick_s: list[float] = []
        self.wire_bytes: dict[str, int] = defaultdict(int)
        self.wire_frames: dict[str, int] = defaultdict(int)
        self.gauge = gauge
        self._burst = gauge.burst
        if tracer is not None:
            self._burst = tracer.span_fn(gauge.burst, "bench.gauge")
        self._patches = Patches()
        for name in harness_functions(sg.synthworld):
            self._patches.wrap(sg.synthworld, name, self.harness.wrap)
        self._patches.wrap(sg.backend.Backend, "tick", self._time_tick)
        self._patches.wrap(sg.protocol, "encode", self._count_bytes)

    def _time_tick(self, fn):
        @functools.wraps(fn)
        def tick(*args, **kwargs):
            t0 = _clock()
            out = fn(*args, **kwargs)
            self.tick_s.append(_clock() - t0)
            self._burst()
            return out

        return tick

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def encode(msg):
            frame = fn(msg)
            kind = FRAME_KIND.get(type(msg).__name__, "other")
            self.wire_bytes[kind] += len(frame)
            self.wire_frames[kind] += 1
            return frame

        return encode

    def snapshot(self) -> dict:
        return {
            "harness_s": self.harness.total_s,
            "ticks": len(self.tick_s),
            "bursts": len(self.gauge.burst_s),
            "bytes": dict(self.wire_bytes),
            "frames": dict(self.wire_frames),
        }

    def close(self):
        self._patches.restore()


# -- traced runs ----------------------------------------------------------------


def _at(index: int, scale: float = 1.0):
    """Tick stamp read from a positional argument (scale 1e6 for seconds);
    None when the argument was passed by keyword."""
    return lambda args: int(round(args[index] * scale)) if len(args) > index else None


class Tracer:
    """In-memory spans: name, start, end, parent span, simulate run and
    simulated tick (us).  The tick of a span is the simulated time of the
    latest stamped call (see `_at`) when the span starts."""

    def __init__(self):
        self._ids: dict[str, int] = {}  # span name -> id, in first-wrap order
        self.spans: list = []
        self._stack: list[int] = []
        self.run = -1
        self.tick_us = -1
        self.notes: dict[str, list] = defaultdict(list)
        self.cloud_start: dict[tuple, float] = {}
        self.cloud_to_map_s: list[float] = []
        self._patches = Patches()

    def wrap(self, owner, attr: str, name: str, stamp=None, note=None, enter=None):
        self._patches.wrap(owner, attr, lambda fn: self.span_fn(fn, name, stamp, note, enter))

    def span_fn(self, fn, name: str, stamp=None, note=None, enter=None):
        """`fn` recording one span named `name` per call."""
        name_id = self._ids.setdefault(name, len(self._ids))
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                enter(self, args)
            tick = stamp(args) if stamp is not None else None
            if tick is not None:
                self.tick_us = tick
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.run, self.tick_us)
            if note is not None:
                note(self, name, args, out, t0, t1)
            return out

        return traced

    def install(self, sg):
        """Wrap every measured function of the semgrid modules in `sg`."""
        sim, sw = sg.sim, sg.synthworld
        self.wrap(sim, "simulate", "sim.simulate", enter=_new_run)
        self.wrap(sim, "_reproj_errors", "sim._reproj_errors", stamp=_at(1))
        for name in harness_functions(sw):
            params = list(inspect.signature(getattr(sw, name)).parameters)
            stamp = _at(2, 1e6) if params[2:3] == ["t_s"] else None
            self.wrap(sw, name, f"synthworld.{name}", stamp=stamp)

        node = sg.sensor_node.SensorNode
        self.wrap(node, "pose_tick", "sensor_node.pose_tick", stamp=_at(3))
        self.wrap(node, "cloud_tick", "sensor_node.cloud_tick", stamp=_at(4),
                  note=_cloud_sent)
        self.wrap(node, "handle_feedback", "sensor_node.handle_feedback")

        for name in ("depth_to_points", "voxel_downsample",
                     "statistical_outlier_filter", "remove_ground_and_cluster"):
            self.wrap(sg.cloud, name, f"cloud.{name}")
        self.wrap(sg.cloud, "fuse_semantics", "cloud.fuse_semantics",
                  note=_record(lambda args, out: len(out)))

        self.wrap(sg.protocol, "encode", "protocol.encode", note=_record(
            lambda args, out: (FRAME_KIND.get(type(args[0]).__name__, "other"), len(out))))
        self.wrap(sg.protocol.StreamDecoder, "feed", "protocol.decode")

        be = sg.backend
        self.wrap(be.Backend, "tick", "backend.tick", stamp=_at(1))
        self.wrap(be.Backend, "on_message", "backend.on_message", note=_cloud_received)
        self.wrap(be.Backend, "sync_window_select", "backend.sync_window_select")

        self.wrap(be, "associate", "pose.associate")
        self.wrap(be, "triangulate_group", "pose.triangulate_group",
                  note=_record(lambda args, out: out is not None))
        self.wrap(be, "make_feedback", "pose.make_feedback")
        self.wrap(sg.pose.SkeletonTracker, "update", "pose.tracker_update")

        vm = sg.voxmap
        self.wrap(vm.VoxelMap, "integrate_cloud", "voxmap.integrate_cloud")
        self.wrap(vm.VoxelMap, "is_occluded_many", "voxmap.is_occluded_many",
                  note=_record(lambda args, out: (len(out), int(np.count_nonzero(out)))))
        self.wrap(vm.VoxelMap, "load_prior", "voxmap.load_prior")
        self.wrap(vm, "bresenham3d_keys", "geometry.bresenham3d_keys",
                  note=_record(lambda args, out: len(out[0])))

    def close(self):
        self._patches.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        rows = np.array(self.spans, dtype=np.float64).reshape(-1, 6)
        return {
            "names": np.array(list(self._ids)),
            "name": rows[:, 0].astype(np.int32),
            "start": rows[:, 1],
            "end": rows[:, 2],
            "parent": rows[:, 3].astype(np.int64),
            "run": rows[:, 4].astype(np.int32),
            "tick_us": rows[:, 5].astype(np.int64),
        }


def _new_run(tracer: Tracer, args):
    tracer.run += 1
    tracer.tick_us = 0


def _record(extract):
    """Note keeping extract(args, result) per call under the span name."""
    def note(tracer: Tracer, name: str, args, out, t0, t1):
        tracer.notes[name].append(extract(args, out))

    return note


def _cloud_sent(tracer: Tracer, name: str, args, out, t0, t1):
    tracer.cloud_start[(out.sensor_id, out.timestamp_us)] = t0


def _cloud_received(tracer: Tracer, name: str, args, out, t0, t1):
    msg = args[1]
    cloud = getattr(msg, "cloud", None)
    if cloud is None:
        return
    t_sent = tracer.cloud_start.pop((cloud.sensor_id, cloud.timestamp_us), None)
    if t_sent is not None:
        tracer.cloud_to_map_s.append(t1 - t_sent)
