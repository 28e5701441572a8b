"""Probes and the span tracer, installed from outside the program.

Nothing under ``src/`` is instrumented. Everything here replaces a
function or method of an already-imported ``repro`` module with a
wrapper, in the fresh child process that runs one repetition, before the
workload's entry point is called.

Two levels:

- :func:`install_probes` is always installed. It counts generated
  heartbeats (a wrapper on each ``HeartbeatGenerator``'s ``on_beat``
  hook), unique on-time deliveries (read from the server handed to
  ``collect_metrics``), stamps the first ``Simulator.run_until`` of each
  process (the end of set-up) and makes every process-backend shard
  worker post its counters to a fork-inherited :class:`Mailbox` before it
  exits. These wrappers run a handful of times per run, or once per beat.
- :func:`install_tracer` adds a span around every layer call listed in
  :data:`SPANS` and around every event callback (wrapped as it passes
  through ``Simulator.schedule``, ``schedule_at`` and ``every``). Spans
  are aggregated per key as ``[calls, total_s, self_s, true_results]``;
  the first :attr:`Tracer.sample_cap` spans opened are also kept raw.

A span's self time is its duration minus the time of the spans nested in
it, so the self times of one process sum to the time its outermost spans
cover; whatever the entry point spent outside every span is the
reconciliation residual ``bench.other_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import mmap
import multiprocessing
import os
import resource
import struct
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: Layer calls wrapped in spans, as ``module:qualname``. Module-level
#: functions are replaced in every loaded ``repro`` module that imported
#: them by name; methods are replaced on their class.
SPANS: Tuple[str, ...] = (
    # scenarios / metrics / device set-up
    "repro.scenarios:build_network",
    "repro.scenarios:_attach_faults",
    "repro.scenarios:_fault_metrics",
    "repro.metrics:collect_metrics",
    "repro.device:Smartphone.__init__",
    "repro.mobility.models:place_crowd",
    # core
    "repro.core.framework:HeartbeatRelayFramework.add_device",
    "repro.core.framework:HeartbeatRelayFramework.shutdown",
    "repro.core.matching:RelayMatcher.evaluate",
    "repro.core.matching:RelayMatcher.select",
    "repro.core.scheduler:MessageScheduler.offer",
    "repro.core.scheduler:MessageScheduler._flush",
    "repro.core.ue:UEAgent.on_beat",
    "repro.core.fallback:CellularFallbackSender.send",
    # d2d / mobility
    "repro.d2d.base:D2DMedium.discover",
    "repro.d2d.base:D2DMedium.connect",
    "repro.d2d.base:D2DConnection.send",
    "repro.mobility.index:SpatialIndex.query_block",
    "repro.mobility.index:SpatialIndex.query_neighbors",
    # cellular / channel / energy / workload
    "repro.cellular.modem:CellularModem.send",
    "repro.cellular.rrc:RrcStateMachine.request_transmission",
    "repro.cellular.basestation:BaseStation._reject",
    "repro.channel.model:ChannelModel.begin_transfer",
    "repro.channel.model:ChannelModel.estimate_link",
    "repro.channel.allocator:CentralizedAllocator.pick",
    "repro.channel.allocator:MessagePassingAllocator.pick",
    "repro.energy.model:EnergyModel.charge",
    "repro.workload.server:IMServer.receive",
    # shard
    "repro.shard:CrowdShardParams.plan",
    "repro.shard:_ShardState.__init__",
    "repro.shard:_ShardState.run_window",
    "repro.shard:_ShardState.finish",
    "repro.shard:_ProcessBackend.__init__",
    "repro.shard:_ProcessBackend.run_window",
    "repro.shard:_ProcessBackend.finish",
    "repro.shard:_route_reports",
    "repro.shard:_merge_metrics",
)

#: Every method of these classes gets a span (the auditor's bookkeeping).
SPAN_CLASSES: Tuple[str, ...] = ("repro.faults.auditor:InvariantAuditor",)

RUN_UNTIL = "repro.sim.engine:Simulator.run_until"
#: ``run_until`` calls whose horizon lies past the end of beat emission
DRAIN = RUN_UNTIL + "#drain"
WORKER = "repro.shard:_shard_worker"


class Mailbox:
    """Shared buffer, inherited by fork, that processes append JSON to.

    Shard workers run in forked processes that never return to the
    caller; each posts one record before it exits and the parent reads
    them all after the entry point returns (the shard layer joins its
    workers before that). Appends are serialized by a lock.
    """

    def __init__(self, size: int = 16 << 20) -> None:
        self._buf = mmap.mmap(-1, size)
        self._lock = multiprocessing.Lock()

    def post(self, record: Dict[str, Any]) -> None:
        data = json.dumps(record).encode()
        with self._lock:
            used = struct.unpack_from("<Q", self._buf, 0)[0]
            start = 8 + used
            end = start + 4 + len(data)
            if end > len(self._buf):
                raise OverflowError(f"mailbox full: {end} > {len(self._buf)}")
            struct.pack_into("<I", self._buf, start, len(data))
            self._buf[start + 4:end] = data
            struct.pack_into("<Q", self._buf, 0, end - 8)

    def records(self) -> List[Dict[str, Any]]:
        used = struct.unpack_from("<Q", self._buf, 0)[0]
        out = []
        pos = 8
        while pos < 8 + used:
            (size,) = struct.unpack_from("<I", self._buf, pos)
            out.append(json.loads(self._buf[pos + 4:pos + 4 + size]))
            pos += 4 + size
        return out


class Tracer:
    """In-memory span aggregation for one process (reset in fork children)."""

    def __init__(self, sample_cap: int = 2000) -> None:
        #: key -> [calls, total_s, self_s, calls that returned True, key]
        self.stats: Dict[str, list] = {}
        self.samples: List[tuple] = []
        self.sample_cap = sample_cap
        self.next_id = 0
        #: child-time accumulators of the open spans; [0] is the root,
        #: which collects the time every outermost span covered
        self._stack: List[float] = [0.0]
        self._ids: List[int] = [-1]
        self._event_keys: Dict[Any, list] = {}

    def reset(self) -> None:
        """Forget everything (a forked child starts its own account)."""
        for record in self.stats.values():
            record[:4] = [0, 0.0, 0.0, 0]
        del self.samples[:]
        self.next_id = 0
        self._stack[:] = [0.0]
        self._ids[:] = [-1]

    def record(self, key: str) -> list:
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0, 0, key]
        return rec

    def call(self, rec: list, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span booked on ``rec``."""
        sid = self.next_id
        self.next_id = sid + 1
        ids = self._ids
        stack = self._stack
        parent = ids[-1]
        ids.append(sid)
        stack.append(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            dt = t1 - t0
            child = stack.pop()
            ids.pop()
            stack[-1] += dt
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - child
            if sid < self.sample_cap:
                self.samples.append((sid, parent, rec[4], t0, t1))
        if result is True:
            rec[3] += 1
        return result

    def wrap(self, key: str, fn: Callable) -> Callable:
        rec = self.record(key)
        call = self.call

        @functools.wraps(fn)
        def span(*args, **kwargs):
            return call(rec, fn, args, kwargs)

        return span

    def wrap_event(self, callback: Callable) -> Callable:
        """Span named ``event:<module>:<qualname>`` around one callback."""
        code = getattr(callback, "__code__", None)
        rec = self._event_keys.get(code) if code is not None else None
        if rec is None:
            target = getattr(callback, "func", callback)  # functools.partial
            key = "event:{}:{}".format(
                getattr(target, "__module__", "?"),
                getattr(target, "__qualname__", type(target).__name__),
            )
            rec = self.record(key)
            if code is not None:
                self._event_keys[code] = rec
        call = self.call

        def event(*args):
            return call(rec, callback, args, {})

        return event

    @property
    def covered_s(self) -> float:
        """Time covered by this process's outermost spans (= Σ self)."""
        return self._stack[0]

    def payload(self) -> Dict[str, Any]:
        return {
            "spans": {k: r[:4] for k, r in self.stats.items() if r[0]},
            "samples": list(self.samples),
            "covered_s": self.covered_s,
        }


class Probe:
    """Per-process counters behind the end-to-end metrics."""

    def __init__(self, mailbox: Mailbox, tracer: Optional[Tracer]) -> None:
        self.mailbox = mailbox
        self.tracer = tracer
        self.beats = 0
        self.on_time = 0
        self.first_run_until: Optional[float] = None
        self.started = clock()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.beats = 0
        self.on_time = 0
        self.first_run_until = None
        self.started = clock()
        if self.tracer is not None:
            self.tracer.reset()

    def snapshot(self) -> Dict[str, Any]:
        """This process's counters (and spans, when tracing)."""
        record = {
            "pid": os.getpid(),
            "beats": self.beats,
            "on_time": self.on_time,
            "first_run_until": self.first_run_until,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "started": self.started,
            "ended": clock(),
        }
        if self.tracer is not None:
            record.update(self.tracer.payload())
        return record


def _resolve(path: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name, value)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _replace(path: str, make: Callable[[Callable], Callable]) -> None:
    """Replace the callable at ``path`` by ``make(original)``.

    A module-level function is also replaced wherever another ``repro``
    module bound it with ``from ... import``.
    """
    owner, attr, original = _resolve(path)
    wrapped = make(original)
    setattr(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def install_probes(probe: Probe) -> None:
    """Counters every run needs; cheap enough to leave on when timing."""
    import repro.scenarios  # noqa: F401  (binds collect_metrics by name)
    import repro.shard  # noqa: F401
    from repro.workload.generator import HeartbeatGenerator

    original_init = HeartbeatGenerator.__init__

    @functools.wraps(original_init)
    def generator_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        hook = self.on_beat

        def on_beat(message):
            probe.beats += 1
            return hook(message)

        self.on_beat = on_beat

    HeartbeatGenerator.__init__ = generator_init

    def stamp_run_until(original):
        @functools.wraps(original)
        def run_until(self, horizon, *args, **kwargs):
            if probe.first_run_until is None:
                probe.first_run_until = clock()
            return original(self, horizon, *args, **kwargs)

        return run_until

    def count_on_time(original):
        @functools.wraps(original)
        def collect_metrics(devices, ledger, server=None, *args, **kwargs):
            metrics = original(devices, ledger, server, *args, **kwargs)
            if server is not None:
                # unique beats: a relay may deliver one beat twice
                probe.on_time += len(
                    {r.message.seq for r in server.records if r.on_time}
                )
            return metrics

        return collect_metrics

    def post_on_exit(original):
        @functools.wraps(original)
        def shard_worker(*args, **kwargs):
            try:
                tracer = probe.tracer
                if tracer is None:
                    return original(*args, **kwargs)
                # the worker's root span, closed before the post below
                return tracer.call(tracer.record(WORKER), original, args, kwargs)
            finally:
                # the shard layer joins its workers before returning, so
                # this lands before the parent reads the mailbox
                probe.mailbox.post(probe.snapshot())

        return shard_worker

    _replace(RUN_UNTIL, stamp_run_until)
    _replace("repro.metrics:collect_metrics", count_on_time)
    _replace(WORKER, post_on_exit)


def install_tracer(tracer: Tracer, drain_after_s: float) -> None:
    """Spans around every layer call and every event callback.

    Install after :func:`install_probes`, so the probes run inside the
    spans and their cost is attributed like any other work.
    """
    from repro.sim.engine import Simulator

    for path in SPANS:
        _replace(path, functools.partial(tracer.wrap, path))
    for path in SPAN_CLASSES:
        _owner, _attr, cls = _resolve(path)
        for name, value in list(vars(cls).items()):
            if inspect.isfunction(value) and not name.startswith("__"):
                method = f"{path}.{name}"
                _replace(method, functools.partial(tracer.wrap, method))

    plain = tracer.record(RUN_UNTIL)
    drain = tracer.record(DRAIN)
    run_until = Simulator.run_until

    @functools.wraps(run_until)
    def traced_run_until(self, horizon, *args, **kwargs):
        rec = drain if horizon > drain_after_s else plain
        return tracer.call(rec, run_until, (self, horizon) + args, kwargs)

    Simulator.run_until = traced_run_until

    schedule = Simulator.schedule
    schedule_at = Simulator.schedule_at
    every = Simulator.every
    wrap_event = tracer.wrap_event

    # ``name`` defaults are resolved here, as the originals would resolve
    # them from the unwrapped callback, so event names do not change
    @functools.wraps(schedule)
    def traced_schedule(self, delay, callback, *args, name=""):
        return schedule(
            self, delay, wrap_event(callback), *args,
            name=name or getattr(callback, "__name__", "event"),
        )

    @functools.wraps(schedule_at)
    def traced_schedule_at(self, time_s, callback, *args, name=""):
        return schedule_at(
            self, time_s, wrap_event(callback), *args,
            name=name or getattr(callback, "__name__", "event"),
        )

    @functools.wraps(every)
    def traced_every(self, period, callback, *args, start_after=None, name=""):
        return every(
            self, period, wrap_event(callback), *args,
            start_after=start_after,
            name=name or getattr(callback, "__name__", "periodic"),
        )

    Simulator.schedule = traced_schedule
    Simulator.schedule_at = traced_schedule_at
    Simulator.every = traced_every
