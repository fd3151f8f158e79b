"""Online phase-detection session: buffer-overflow-driven, as deployed.

The batch APIs (:meth:`RegionMonitor.process_stream`) are convenient for
experiments, but the paper's system is *online*: the PMU driver appends
samples to the user buffer and "whenever the user buffer overflows" the
phase-detection machinery runs on the delivered interval.  This module
wires that pipeline:

    PMU interrupts -> SampleBuffer -> [GPD channels | RegionMonitor]

A session accepts samples one at a time (or in batches, as a real
interrupt handler's ring-buffer drain would), runs the configured
detectors on every overflow, and invokes user callbacks on phase changes
— the hook a runtime optimizer's controller thread would use.  Feeding a
session sample-by-sample is bit-for-bit equivalent to the batch path
(tested in ``tests/monitor/test_online.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.gpd import GlobalPhaseDetector
from repro.core.states import PhaseEvent
from repro.core.thresholds import GpdThresholds, MonitorThresholds
from repro.errors import SamplingError
from repro.monitor.region_monitor import IntervalReport, RegionMonitor
from repro.monitor.watchdog import (RegionWatchdog, WatchdogConfig,
                                    WatchdogEvent)
from repro.program.binary import SyntheticBinary
from repro.sampling.buffer import SampleBuffer, checked_pcs
from repro.sampling.events import SampleStream
from repro.telemetry.bus import EventBus, get_bus
from repro.telemetry.events import IntervalClosed, SampleBatch

__all__ = ["OnlineSession", "GlobalChangeCallback", "LocalChangeCallback"]

#: Called on every global phase change: (event).
GlobalChangeCallback = Callable[[PhaseEvent], None]

#: Called on every local (per-region) phase change: (rid, event).
LocalChangeCallback = Callable[[int, PhaseEvent], None]


@dataclass
class _SessionStats:
    intervals: int = 0
    samples: int = 0
    global_events: int = 0
    local_events: int = 0


class OnlineSession:
    """A live phase-detection pipeline fed by PMU samples.

    Parameters
    ----------
    binary:
        The monitored program (for region formation); pass ``None`` to run
        a GPD-only session.
    monitor_thresholds:
        Region-monitor knobs (buffer size comes from here).
    gpd_thresholds:
        Global-detector knobs; pass ``None`` with ``run_gpd=False`` to
        disable the global channel.
    run_gpd:
        Whether to run the centroid GPD alongside the region monitor.
    watchdog:
        Optional :class:`~repro.monitor.watchdog.WatchdogConfig`; when
        given (and a region monitor is running) a
        :class:`~repro.monitor.watchdog.RegionWatchdog` observes every
        interval and degrades starved / stuck-unstable regions.
    telemetry:
        Event bus threaded through the session's monitor, detector and
        watchdog; defaults to the process-wide bus (disabled unless a
        sink is attached).
    """

    def __init__(self, binary: SyntheticBinary | None = None,
                 monitor_thresholds: MonitorThresholds | None = None,
                 gpd_thresholds: GpdThresholds | None = None,
                 run_gpd: bool = True,
                 watchdog: WatchdogConfig | None = None,
                 telemetry: EventBus | None = None,
                 **monitor_kwargs) -> None:
        thresholds = monitor_thresholds or MonitorThresholds()
        self._telemetry = telemetry if telemetry is not None else get_bus()
        self.gpd: GlobalPhaseDetector | None = (
            GlobalPhaseDetector(gpd_thresholds, telemetry=self._telemetry)
            if run_gpd else None)
        self.monitor: RegionMonitor | None = (
            RegionMonitor(binary, thresholds, telemetry=self._telemetry,
                          **monitor_kwargs)
            if binary is not None else None)
        if self.gpd is None and self.monitor is None:
            raise ValueError(
                "an online session needs a binary (for region "
                "monitoring), run_gpd=True, or both")
        self.watchdog: RegionWatchdog | None = None
        if watchdog is not None and self.monitor is not None:
            self.watchdog = RegionWatchdog(watchdog, self.monitor,
                                           telemetry=self._telemetry)
        self._buffer = SampleBuffer(thresholds.buffer_size,
                                    self._on_overflow)
        self._global_callbacks: list[GlobalChangeCallback] = []
        self._local_callbacks: list[LocalChangeCallback] = []
        self.stats = _SessionStats()
        self.reports: list[IntervalReport] = []
        self.watchdog_events: list[WatchdogEvent] = []

    # -- subscriptions ------------------------------------------------------

    def on_global_change(self, callback: GlobalChangeCallback) -> None:
        """Register a callback for global phase changes."""
        self._global_callbacks.append(callback)

    def on_local_change(self, callback: LocalChangeCallback) -> None:
        """Register a callback for per-region phase changes."""
        self._local_callbacks.append(callback)

    # -- feeding ------------------------------------------------------------

    def feed(self, pc: int) -> bool:
        """Deliver one PMU sample; returns whether an interval completed."""
        self.stats.samples += 1
        return self._buffer.push(int(pc))

    def feed_many(self, pcs: np.ndarray) -> int:
        """Deliver a batch of samples; returns completed-interval count.

        The batch must be a non-empty one-dimensional integer array of
        in-range addresses; anything else raises
        :class:`~repro.errors.SamplingError` instead of misbehaving (see
        :func:`~repro.sampling.buffer.checked_pcs`).
        """
        pcs = checked_pcs(pcs)
        self.stats.samples += int(pcs.size)
        bus = self._telemetry
        if bus.enabled:
            bus.emit(SampleBatch(cumulative_samples=self.stats.samples,
                                 batch_size=int(pcs.size)))
        return self._buffer.push_many(pcs)

    def feed_stream(self, stream: SampleStream) -> int:
        """Deliver a whole simulated stream; returns intervals completed."""
        if not isinstance(stream, SampleStream):
            raise SamplingError(
                f"feed_stream expects a SampleStream, got "
                f"{type(stream).__name__}")
        if stream.n_samples == 0:
            raise SamplingError("feed_stream received an empty stream")
        return self.feed_many(stream.pcs)

    @property
    def pending_samples(self) -> int:
        """Samples buffered since the last overflow."""
        return self._buffer.fill

    # -- the overflow path ----------------------------------------------------

    def _on_overflow(self, pcs: np.ndarray, interval_index: int) -> None:
        self.stats.intervals += 1
        if self.gpd is not None:
            event = self.gpd.observe_buffer(pcs)
            if event is not None:
                self.stats.global_events += 1
                for callback in self._global_callbacks:
                    callback(event)
        if self.monitor is None:
            # GPD-only sessions have no region monitor to close the
            # interval; -1.0 marks the UCR fraction as not applicable.
            bus = self._telemetry
            if bus.enabled:
                bus.emit(IntervalClosed(interval_index=interval_index,
                                        n_samples=int(pcs.size),
                                        ucr_fraction=-1.0, n_regions=0))
        if self.monitor is not None:
            report = self.monitor.process_interval(pcs, interval_index)
            self.reports.append(report)
            for rid, event in report.events:
                self.stats.local_events += 1
                for callback in self._local_callbacks:
                    callback(rid, event)
            if self.watchdog is not None:
                self.watchdog_events.extend(
                    self.watchdog.observe_interval(report))

    # -- inspection -------------------------------------------------------------

    def summary(self) -> dict:
        """A small status dictionary (for logging/diagnostics)."""
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
