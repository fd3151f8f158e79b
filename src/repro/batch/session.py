"""Multi-tenant online sessions advanced in lockstep.

A :class:`BatchSession` hosts N lanes, each the equivalent of one
:class:`~repro.monitor.online.OnlineSession` — its own telemetry bus,
region monitor, watchdog, fault-injected stream and callbacks — but all
local detectors live in one shared :class:`~repro.batch.lpd.BatchLpdBank`
and all global detectors in one :class:`~repro.batch.gpd.BatchGpdBank`,
so every interval round steps the whole fleet with a handful of
vectorized calls instead of N Python pipelines.

Equivalence contract: per lane, results and telemetry are bit-identical
to feeding the same samples to a scalar ``OnlineSession`` — same states,
same phase-change indices, same stable-set freezes, same watchdog
deoptimizations (the conformance suite in ``tests/batch/`` holds the
backend to this).  Lanes are mutually invisible: each lane's bus sees
exactly the event sequence its scalar twin would emit, and lanes may
start, starve and end at different intervals (ragged fleets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.batch.gpd import BatchGlobalPhaseDetector, BatchGpdBank, GpdRowGroup
from repro.batch.lpd import BatchLpdBank
from repro.batch.regroup import FleetRegrouper
from repro.batch.rings import ShardRing
from repro.core.states import PhaseEvent
from repro.core.thresholds import GpdThresholds, MonitorThresholds
from repro.errors import SamplingError
from repro.faults.inject import inject
from repro.faults.model import FaultPlan
from repro.monitor.online import GlobalChangeCallback, LocalChangeCallback
from repro.monitor.region_monitor import IntervalReport, RegionMonitor
from repro.monitor.watchdog import (RegionWatchdog, WatchdogConfig,
                                    WatchdogEvent)
from repro.program.binary import SyntheticBinary
from repro.regions.attribution import SlotTable
from repro.regions.formation import SeedSpans
from repro.sampling.buffer import checked_pcs
from repro.sampling.events import SampleStream
from repro.telemetry.bus import EventBus, get_bus
from repro.telemetry.events import IntervalClosed, SampleBatch

__all__ = ["BatchLane", "BatchSession"]


@dataclass
class LaneStats:
    """Mirror of the scalar session's counters, per lane."""

    intervals: int = 0
    samples: int = 0
    global_events: int = 0
    local_events: int = 0


class BatchLane:
    """One stream's pipeline inside a :class:`BatchSession`.

    Create via :meth:`BatchSession.add_lane`.  Feeding only queues
    samples; intervals complete when the owning session next runs
    :meth:`BatchSession.process_ready` (which the session-level feed
    helpers call for you).
    """

    def __init__(self, session: "BatchSession", index: int, name: str,
                 telemetry: EventBus,
                 gpd: BatchGlobalPhaseDetector | None,
                 monitor: RegionMonitor | None,
                 watchdog: RegionWatchdog | None) -> None:
        self.session = session
        self.index = index
        self.name = name
        self.telemetry = telemetry
        self.gpd = gpd
        self.monitor = monitor
        self.watchdog = watchdog
        self.stats = LaneStats()
        self.reports: list[IntervalReport] = []
        self.watchdog_events: list[WatchdogEvent] = []
        self._global_callbacks: list[GlobalChangeCallback] = []
        self._local_callbacks: list[LocalChangeCallback] = []
        self._interval_index = -1

    # -- subscriptions -------------------------------------------------------

    def on_global_change(self, callback: GlobalChangeCallback) -> None:
        """Register a callback for this lane's global phase changes."""
        self._global_callbacks.append(callback)

    def on_local_change(self, callback: LocalChangeCallback) -> None:
        """Register a callback for this lane's per-region phase changes."""
        self._local_callbacks.append(callback)

    # -- feeding (queue only; the session drains) ----------------------------

    @property
    def pending_samples(self) -> int:
        """Samples queued since the last completed interval."""
        return self.session._ring.fill(self.index)

    def feed_many(self, pcs: np.ndarray) -> int:
        """Queue a batch of samples; returns full intervals now pending.

        Validation is ``OnlineSession.feed_many``'s
        (:func:`~repro.sampling.buffer.checked_pcs`) — a non-1-D, empty,
        non-integer or out-of-range batch raises
        :class:`~repro.errors.SamplingError`.  Samples land in the
        session's preallocated :class:`~repro.batch.rings.ShardRing`, so
        interval completion later hands the banks direct views.
        """
        pcs = checked_pcs(pcs)
        self.stats.samples += int(pcs.size)
        bus = self.telemetry
        if bus.enabled:
            bus.emit(SampleBatch(cumulative_samples=self.stats.samples,
                                 batch_size=int(pcs.size)))
        return self.session._ring.push(self.index, pcs)

    def feed_stream(self, stream: SampleStream) -> int:
        """Queue a whole simulated stream."""
        if not isinstance(stream, SampleStream):
            raise SamplingError(
                f"feed_stream expects a SampleStream, got "
                f"{type(stream).__name__}")
        if stream.n_samples == 0:
            raise SamplingError("feed_stream received an empty stream")
        return self.feed_many(stream.pcs)

    def _take_interval(self) -> np.ndarray:
        """Dequeue one buffer's worth of samples (a ring view)."""
        return self.session._ring.take_interval(self.index)

    def summary(self) -> dict:
        """Status dictionary, shaped like ``OnlineSession.summary()``."""
        summary = {
            "intervals": self.stats.intervals,
            "samples": self.stats.samples,
            "global_events": self.stats.global_events,
            "local_events": self.stats.local_events,
        }
        if self.gpd is not None:
            summary["gpd_stable"] = self.gpd.in_stable_phase
        if self.monitor is not None:
            summary["monitored_regions"] = len(self.monitor.live_regions())
            summary["ucr_median"] = self.monitor.ucr.median()
        if self.watchdog is not None:
            summary["watchdog"] = self.watchdog.summary()
        return summary


class BatchSession:
    """N online phase-detection pipelines sharing vectorized banks.

    Parameters mirror :class:`~repro.monitor.online.OnlineSession`; they
    are the *defaults* each :meth:`add_lane` inherits.  All lanes share
    one buffer size (interval lockstep needs a common interval length)
    and, when the GPD channel is on, one set of GPD thresholds (the
    compiled machine is shared).
    """

    def __init__(self, binary: SyntheticBinary | None = None,
                 monitor_thresholds: MonitorThresholds | None = None,
                 gpd_thresholds: GpdThresholds | None = None,
                 run_gpd: bool = True,
                 watchdog: WatchdogConfig | None = None,
                 telemetry: EventBus | None = None,
                 **monitor_kwargs: Any) -> None:
        self.monitor_thresholds = monitor_thresholds or MonitorThresholds()
        self.buffer_size = self.monitor_thresholds.buffer_size
        self.gpd_thresholds = (gpd_thresholds or GpdThresholds()
                               if run_gpd else None)
        self.run_gpd = run_gpd
        if binary is None and not run_gpd:
            raise ValueError(
                "an online session needs a binary (for region "
                "monitoring), run_gpd=True, or both")
        self._binary = binary
        self._watchdog_config = watchdog
        self._default_bus = telemetry if telemetry is not None else get_bus()
        self._monitor_kwargs = monitor_kwargs
        self.lpd_bank = BatchLpdBank()
        self.gpd_bank: BatchGpdBank | None = None
        if run_gpd:
            self.gpd_bank = BatchGpdBank(
                dwell_intervals=self.gpd_thresholds.dwell_intervals,
                history_length=self.gpd_thresholds.history_length)
        self.lanes: list[BatchLane] = []
        #: Region-layer state derived from the lanes' registries: one
        #: slot table attributing every ready lane per round (list
        #: strategy only; other strategies attribute lane by lane), and
        #: one formation memo shared by every lane.  Neither is pickled.
        self._slots: SlotTable | None = (
            SlotTable() if self._fleet_attribution() else None)
        self._seed_spans: SeedSpans | None = None
        self._ring = ShardRing(0, self.buffer_size)
        self._regrouper = FleetRegrouper(self.lpd_bank)
        self._gpd_group: GpdRowGroup | None = None
        self._gpd_group_key: bytes | None = None

    def _fleet_attribution(self) -> bool:
        strategy = self._monitor_kwargs.get("attribution", "list")
        return self._binary is not None and bool(strategy == "list")

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_slots", None)
        state.pop("_seed_spans", None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        monitors = [lane.monitor for lane in self.lanes
                    if lane.monitor is not None]
        self._slots = (SlotTable([m.registry for m in monitors])
                       if self._fleet_attribution() else None)
        # Every lane restored its own empty memo; share the first again.
        self._seed_spans = (monitors[0].formation.seed_spans if monitors
                            else None)
        for monitor in monitors:
            monitor.formation.seed_spans = monitors[0].formation.seed_spans

    # -- lane management -----------------------------------------------------

    def add_lane(self, stream: SampleStream | None = None,
                 plan: FaultPlan | None = None, seed: int = 7,
                 telemetry: EventBus | None = None,
                 name: str | None = None) -> BatchLane:
        """Add one pipeline; optionally queue its (fault-injected) stream.

        *plan* is applied to *stream* with :func:`repro.faults.inject`
        before queueing — per-lane fault plans, exactly as a scalar
        harness would inject per session.  *telemetry* defaults to the
        session bus; give each lane its own bus when per-lane traces
        matter.
        """
        index = len(self.lanes)
        bus = telemetry if telemetry is not None else self._default_bus
        name = name or f"lane{index}"
        gpd = None
        if self.gpd_bank is not None:
            gpd = self.gpd_bank.add_detector(self.gpd_thresholds,
                                             telemetry=bus)
        monitor = None
        watchdog = None
        if self._binary is not None:
            monitor = RegionMonitor(
                self._binary, self.monitor_thresholds, telemetry=bus,
                detector_factory=self.lpd_bank.add_detector,
                seed_spans=self._seed_spans, **self._monitor_kwargs)
            self._seed_spans = monitor.formation.seed_spans
            if self._slots is not None:
                self._slots.add(monitor.registry)
            if self._watchdog_config is not None:
                watchdog = RegionWatchdog(self._watchdog_config, monitor,
                                          telemetry=bus)
        lane = BatchLane(self, index, name, bus, gpd, monitor, watchdog)
        self.lanes.append(lane)
        self._ring.add_lane()
        if stream is not None:
            if plan is not None and not plan.is_empty:
                stream = inject(stream, plan, seed=seed)
            lane.feed_stream(stream)
        return lane

    # -- feeding -------------------------------------------------------------

    def feed(self, padded: np.ndarray,
             lengths: np.ndarray | list[int] | None = None) -> list[int]:
        """Deliver one padded sample batch to every lane, then process.

        *padded* is ``(n_lanes, k)``; row i's first ``lengths[i]``
        entries are lane i's samples (the rest is padding, never read).
        A length of zero skips the lane this round — the ragged-fleet
        case where a stream has ended or produced nothing.  Returns the
        number of intervals each lane completed.
        """
        padded = np.asarray(padded)
        if padded.ndim != 2 or padded.shape[0] != len(self.lanes):
            raise SamplingError(
                f"feed expects a ({len(self.lanes)}, k) padded batch, "
                f"got shape {padded.shape}")
        if lengths is None:
            lengths = [padded.shape[1]] * len(self.lanes)
        before = [lane.stats.intervals for lane in self.lanes]
        for lane, row, length in zip(self.lanes, padded, lengths):
            if length:
                lane.feed_many(row[:int(length)])
        self.process_ready()
        return [lane.stats.intervals - count
                for lane, count in zip(self.lanes, before)]

    def run(self) -> list[int]:
        """Process everything queued; returns per-lane interval counts."""
        before = [lane.stats.intervals for lane in self.lanes]
        self.process_ready()
        return [lane.stats.intervals - count
                for lane, count in zip(self.lanes, before)]

    # -- the lockstep overflow path -------------------------------------------

    def _gpd_group_for(self, ready_indices: np.ndarray) -> GpdRowGroup:
        """The pinned GPD row group for this round's ready lanes, cached.

        Every lane has one GPD row allocated in lane order, so the group
        over a contiguous ready set coalesces to a slice; the group is
        rebuilt only when the ready set changes (ragged fleets).
        """
        key = ready_indices.tobytes()
        if self._gpd_group_key != key:
            self._gpd_group = self.gpd_bank.make_group(
                [self.lanes[int(i)].gpd for i in ready_indices])
            self._gpd_group_key = key
        return self._gpd_group

    def process_ready(self) -> int:
        """Drain queued samples, one interval round at a time.

        Each round pops one full buffer per ready lane straight out of
        the shard ring — for a lockstep fleet that is a single 2-D view,
        no copies — and replays the scalar overflow path with the
        per-detector work batched: all GPD rows step in one block call,
        then all monitors attribute, then every region of every lane
        steps through the regrouper's cached plan.  With the list
        attribution strategy the monitors' attribution is one
        :class:`~repro.regions.attribution.SlotTable` pass over the whole
        round.  Returns the total number of intervals processed.
        """
        ring = self._ring
        rounds = 0
        while True:
            ready_indices = ring.ready_lanes()
            if ready_indices.size == 0:
                return rounds
            ready = [self.lanes[int(i)] for i in ready_indices]
            rounds += len(ready)
            block = ring.take_round(ready_indices)
            for lane in ready:
                lane.stats.intervals += 1
                lane._interval_index += 1

            if self.gpd_bank is not None:
                events = self.gpd_bank.observe_block(
                    self._gpd_group_for(ready_indices), block)
                for lane, event in zip(ready, events):
                    if event is not None:
                        lane.stats.global_events += 1
                        for callback in lane._global_callbacks:
                            callback(event)

            attributions = (None if self._slots is None
                            else self._slots.attribute(block, ready_indices))
            pendings = []
            participants = []
            for row, (lane, buffer) in enumerate(zip(ready, block)):
                if lane.monitor is None:
                    # GPD-only lane: no monitor closes the interval;
                    # -1.0 marks the UCR fraction as not applicable.
                    if lane.telemetry.enabled:
                        lane.telemetry.emit(IntervalClosed(
                            interval_index=lane._interval_index,
                            n_samples=int(buffer.size),
                            ucr_fraction=-1.0, n_regions=0))
                    pendings.append(None)
                    continue
                pending = lane.monitor.begin_interval(
                    buffer, lane._interval_index,
                    attribution=(None if attributions is None
                                 else attributions[row]))
                pendings.append(pending)
                participants.append((lane.monitor, pending))
            outcomes = self._regrouper.observe_round(participants)
            cursor = 0
            for lane, pending in zip(ready, pendings):
                if pending is None:
                    continue
                events: list[tuple[int, PhaseEvent]] = []
                for rid, _ in pending.to_observe:
                    event = outcomes[cursor]
                    cursor += 1
                    if event is not None:
                        events.append((rid, event))
                report = lane.monitor.finish_interval(pending, events)
                lane.reports.append(report)
                for rid, event in report.events:
                    lane.stats.local_events += 1
                    for callback in lane._local_callbacks:
                        callback(rid, event)
                if lane.watchdog is not None:
                    lane.watchdog_events.extend(
                        lane.watchdog.observe_interval(report))

    def discard_observation_history(self) -> None:
        """Drop the banks' pending step records (lazy observation logs).

        The logs exist only to materialize per-detector observation
        histories on demand and grow with every interval processed —
        dead weight for callers that consume events through incremental
        extraction.  The serving layer calls this before every shard
        snapshot so snapshot size and cost stay flat over worker
        uptime.  Already-materialized observations are kept; a later
        ``materialize_observations`` covers only subsequent steps.
        """
        self.lpd_bank.discard_observation_history()
        if self.gpd_bank is not None:
            self.gpd_bank.discard_observation_history()

    # -- inspection ------------------------------------------------------------

    def summary(self) -> dict:
        """Fleet-level counters plus per-lane summaries."""
        return {
            "lanes": len(self.lanes),
            "intervals": sum(lane.stats.intervals for lane in self.lanes),
            "samples": sum(lane.stats.samples for lane in self.lanes),
            "global_events": sum(lane.stats.global_events
                                 for lane in self.lanes),
            "local_events": sum(lane.stats.local_events
                                for lane in self.lanes),
            "per_lane": {lane.name: lane.summary() for lane in self.lanes},
        }
