"""Span tracing around the public functions of each layer.

:class:`Tracer` replaces selected functions and methods with wrappers
that record one span per call: (name, start, end, parent).  Spans stay
in memory; :meth:`Tracer.summary` derives each name's total and self
time (duration minus the time its child spans cover) and call count,
and :meth:`Tracer.write` dumps spans and summary as one JSON file.

The wrappers are installed only while tracing is wanted
(:meth:`Tracer.installed`), so untraced rounds run the program's own
functions, not a disabled wrapper.  A forked child (a fleet worker)
inherits installed wrappers but records nothing.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import sys
import time
from array import array

import repro.faults
import repro.sampling.pmu
import repro.serve.worker
from repro.batch.gpd import BatchGpdBank
from repro.batch.lpd import BatchLpdBank
from repro.batch.regroup import FleetRegrouper
from repro.batch.rings import ShardRing
from repro.batch.session import BatchLane, BatchSession
from repro.core.gpd import GlobalPhaseDetector
from repro.core.lpd import LocalPhaseDetector
from repro.monitor.region_monitor import RegionMonitor
from repro.monitor.watchdog import RegionWatchdog
from repro.regions.attribution import _AttributorBase
from repro.regions.formation import RegionFormation
from repro.serve.supervisor import FleetSupervisor
from repro.serve.worker import ShardWorker

#: span name -> (owner, attribute).  One entry per layer boundary; a
#: class entry also wraps every subclass that overrides the method.
TARGETS = {
    "sampling.simulate": (repro.sampling.pmu, "simulate_sampling"),
    "faults.inject": (repro.faults, "inject"),
    "batch.add_lane": (BatchSession, "add_lane"),
    "batch.process_ready": (BatchSession, "process_ready"),
    "batch.push": (BatchLane, "feed_many"),
    "batch.take_round": (ShardRing, "take_round"),
    "batch.lpd_step": (FleetRegrouper, "observe_round"),
    "batch.gpd_step": (BatchGpdBank, "observe_block"),
    "batch.make_group": (BatchLpdBank, "make_group"),
    "regions.attribute": (_AttributorBase, "attribute"),
    "regions.form": (RegionFormation, "form"),
    "monitor.begin": (RegionMonitor, "begin_interval"),
    "monitor.finish": (RegionMonitor, "finish_interval"),
    "monitor.watchdog": (RegionWatchdog, "observe_interval"),
    "core.lpd_observe": (LocalPhaseDetector, "observe"),
    "core.gpd_observe": (GlobalPhaseDetector, "observe_buffer"),
    "serve.start": (FleetSupervisor, "start"),
    "serve.submit": (FleetSupervisor, "submit"),
    "serve.drain": (FleetSupervisor, "drain"),
    "serve.handle_batch": (ShardWorker, "handle_batch"),
    "serve.extract": (repro.serve.worker, "extract_lane_events"),
    "serve.snapshot": (ShardWorker, "take_snapshot"),
}


def _participants(args: tuple, result: object) -> int:
    return len(args[1])


def _formed(args: tuple, result: object) -> int:
    return len(result.new_regions)


def _snapshot_bytes(args: tuple, result: object) -> int:
    return result.n_bytes


#: span name -> (counter name, function of (args, result)) summed per call.
COUNTERS = {
    "batch.lpd_step": ("batch.participants", _participants),
    "regions.form": ("regions.formed", _formed),
    "serve.snapshot": ("serve.snapshot_bytes", _snapshot_bytes),
}


def _owners(owner, attr: str) -> list:
    """Where to wrap *attr*: the owner, and every subclass of it that
    overrides the method, so that each implementation is traced.  A
    target the program no longer has is skipped; its layer then records
    no call (see ``layers.unmeasured``)."""
    if not hasattr(owner, attr):
        return []
    if not isinstance(owner, type):
        return [owner]
    found, todo = [owner], list(owner.__subclasses__())
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if attr in vars(cls) and cls not in found:
            found.append(cls)
    return found


#: Spans the benchmark opens itself, one per section of a run; every
#: traced call nests under one of them.
ROOTS = ("bench.setup", "bench.round", "bench.twins", "bench.replay")


class Tracer:
    """In-memory spans around the functions named in :data:`TARGETS`."""

    def __init__(self) -> None:
        self.names = list(TARGETS) + list(ROOTS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: (root span name, counter name) -> sum over calls.
        self.counters: dict[tuple[str, str], int] = {}
        self._stack: list[int] = []
        #: (span name, owner, attribute, original, inherited) per patch.
        self._patches = [
            (name, where, attr, getattr(where, attr),
             isinstance(where, type) and attr not in vars(where))
            for name, (owner, attr) in TARGETS.items()
            for where in _owners(owner, attr)]
        self._pid = os.getpid()

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span called *name*."""
        return self._wrap(name, fn)(*args)

    def _wrap(self, name: str, fn):
        name_id = self._ids[name]
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)  # a forked worker: record nothing
            index = len(self.span_name)
            root = stack[0] if stack else index
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_start[index] = start
                self.span_end[index] = end
            if counter is not None:
                key = (self.names[self.span_name[root]], counter[0])
                self.counters[key] = (self.counters.get(key, 0)
                                      + counter[1](args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every target inside the ``with`` block."""
        for name, owner, attr, original, _ in self._patches:
            setattr(owner, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            for _, owner, attr, original, inherited in self._patches:
                if inherited:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def calls(self) -> dict[str, int]:
        """name -> number of spans recorded, over every root."""
        counts = collections.Counter(self.span_name)
        return {name: counts[i] for i, name in enumerate(self.names)}

    def summary(self, root: str) -> dict[str, dict[str, float]]:
        """name -> {"calls", "total_s", "self_s"} of the spans nested
        under a span called *root*."""
        n = len(self.span_name)
        child_time = [0.0] * n
        top = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += self.span_end[i] - self.span_start[i]
                top[i] = top[parent]
            else:
                top[i] = self.span_name[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        root_id = self._ids[root]
        for i in range(n):
            if top[i] != root_id:
                continue
            entry = out[self.names[self.span_name[i]]]
            duration = self.span_end[i] - self.span_start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[i]
        return out

    def write(self, path: str, extra: dict) -> None:
        """One JSON file: the summary, the counters and every span."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        document = {
            "names": self.names,
            "summary": {root: self.summary(root) for root in ROOTS},
            "counters": {f"{root}/{name}": value for (root, name), value
                         in sorted(self.counters.items())},
            "extra": extra,
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "start_us": [round((t - base) * 1e6, 1)
                             for t in self.span_start],
                "end_us": [round((t - base) * 1e6, 1)
                           for t in self.span_end],
            },
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(document, handle)
        print(f"trace: {len(self.span_name)} spans -> {path}",
              file=sys.stderr)
