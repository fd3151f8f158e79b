"""Correctness checks, each computed apart from the program.

Every function returns a list of failure messages (empty when the check
holds).  The recounts use the benchmark's own NumPy code over the
region bounds the monitor reports; the twin check compares against the
scalar ``OnlineSession``, the specification the batch backend must
match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.states import PhaseEventKind
from repro.serve.events import extract_lane_events

from inputs import INTERVAL

#: Every SAMPLE_EVERY-th interval of a checked lane is recounted.
SAMPLE_EVERY = 7


def interval_counts(lanes, fed: np.ndarray) -> list[str]:
    """Each lane completed exactly floor(samples fed / INTERVAL) intervals."""
    errors = []
    for lane, n_fed in zip(lanes, fed):
        expected = int(n_fed) // INTERVAL
        if lane.stats.intervals != expected or lane.stats.samples != n_fed:
            errors.append(
                f"{lane.name}: {lane.stats.intervals} intervals from "
                f"{lane.stats.samples} samples, fed {int(n_fed)} "
                f"(expected {expected})")
    return errors


def region_recounts(lane, samples: np.ndarray) -> list[str]:
    """Recount sampled intervals' region samples and UCR fraction.

    *samples* is everything the lane was fed, in order.  For every
    region the report credits, the samples inside ``[start, end)`` are
    counted again; the UCR fraction must equal the share of samples no
    credited region covers (regions may overlap, so this is a union).
    While the region set was settled (every region formed before the
    interval, no watchdog action on the lane) that share must also
    equal the share covered by no region at all.
    """
    errors = []
    monitor = lane.monitor
    regions = monitor.all_regions()
    bounds = np.array([[r.start, r.end] for r in regions],
                      dtype=np.int64).reshape(-1, 2)
    settled_after = max((r.formed_at_interval for r in regions), default=-1)
    quiet = not lane.watchdog_events
    for report in lane.reports[::SAMPLE_EVERY]:
        k = report.interval_index
        pcs = samples[k * INTERVAL:(k + 1) * INTERVAL]
        credited = np.zeros(pcs.size, dtype=bool)
        for rid, count in report.region_samples.items():
            region = monitor.region_record(rid)
            inside = (pcs >= region.start) & (pcs < region.end)
            credited |= inside
            if int(inside.sum()) != count:
                errors.append(f"{lane.name} interval {k} region {rid}: "
                              f"credited {count}, recounted "
                              f"{int(inside.sum())}")
        ucr = (pcs.size - int(credited.sum())) / pcs.size
        if ucr != report.ucr_fraction:
            errors.append(f"{lane.name} interval {k}: UCR fraction "
                          f"{report.ucr_fraction}, recounted {ucr}")
        if quiet and k > settled_after:
            covered = np.zeros(pcs.size, dtype=bool)
            for start, end in bounds:
                covered |= (pcs >= start) & (pcs < end)
            uncovered = (pcs.size - int(covered.sum())) / pcs.size
            if uncovered != report.ucr_fraction:
                errors.append(f"{lane.name} interval {k}: UCR fraction "
                              f"{report.ucr_fraction}, uncovered share "
                              f"{uncovered}")
    return errors


def alternation(lane) -> list[str]:
    """Per region, stable/unstable events alternate between resets.

    The watchdog resets a region's detector when it acts on it, so its
    events split a region's sequence into segments; it acts after the
    interval's phase events, so an event at interval i belongs to the
    segment after every action at an interval before i.
    """
    errors = []
    actions: dict[int, list[int]] = {}
    for event in lane.watchdog_events:
        actions.setdefault(event.rid, []).append(event.interval_index)
    last: dict[tuple[int, int], PhaseEventKind] = {}
    for report in lane.reports:
        for rid, event in report.events:
            segment = sum(1 for i in actions.get(rid, ())
                          if i < event.interval_index)
            key = (rid, segment)
            if last.get(key) is event.kind:
                errors.append(f"{lane.name} region {rid}: two "
                              f"{event.kind.value} events in a row at "
                              f"interval {event.interval_index}")
            last[key] = event.kind
    return errors


def twins_identical(lanes, twins) -> list[str]:
    """Each batch lane matches its scalar twin, event for event."""
    errors = []
    for lane, twin in zip(lanes, twins):
        same = (lane.stats.intervals == twin.stats.intervals
                and lane.stats.global_events == twin.stats.global_events
                and lane.stats.local_events == twin.stats.local_events
                and extract_lane_events(lane)[0]
                == extract_lane_events(twin)[0]
                and all(a.region_samples == b.region_samples
                        and a.ucr_fraction == b.ucr_fraction
                        and a.events == b.events
                        for a, b in zip(lane.reports, twin.reports))
                and len(lane.reports) == len(twin.reports))
        if not same:
            errors.append(f"{lane.name}: differs from its scalar twin")
    return errors


def lane_checks(lanes, fed: np.ndarray, fed_samples) -> list[str]:
    """Interval counts on every lane; recount and alternation on some.

    *fed_samples(i)* returns everything lane i was fed, in order.
    """
    errors = interval_counts(lanes, fed)
    n = len(lanes)
    for i in sorted({0, 3, n // 2, n - 1}):
        errors += region_recounts(lanes[i], fed_samples(i))
    for lane in lanes:
        errors += alternation(lane)
    return errors
