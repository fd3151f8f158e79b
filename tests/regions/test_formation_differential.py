"""Differential tests: region formation against its pre-memo algorithm.

Formation resolves seeds through a shared :class:`SeedSpans` memo,
selects hot seeds vectorized, and tests coverage only against the
regions formed in the current trigger.  :class:`ReferenceFormation`
below is the algorithm as it was before those changes — a full
``registry.covering`` scan and a fresh rule lookup per seed, and a
per-address Python seed filter.  Whole monitored runs with each
formation extension switched on must produce identical outcomes,
region tables and reports.
"""

import numpy as np
import pytest

from repro.core.thresholds import MonitorThresholds
from repro.monitor.online import OnlineSession
from repro.monitor.watchdog import WatchdogConfig
from repro.regions.annotations import AnnotationTable
from repro.regions.formation import FormationOutcome, RegionFormation
from repro.regions.region import RegionKind
from tests.conftest import drop_plan, model_stream

THRESHOLDS = MonitorThresholds(buffer_size=1016)


class ReferenceFormation(RegionFormation):
    """Formation exactly as it ran before the memo and vectorization."""

    def hot_seeds(self, ucr_pcs):
        if ucr_pcs.size == 0:
            return []
        unique, counts = np.unique(np.asarray(ucr_pcs, dtype=np.int64),
                                   return_counts=True)
        threshold = self.hot_fraction * ucr_pcs.size
        order = np.argsort(counts)[::-1]
        seeds = [int(unique[i]) for i in order
                 if counts[i] >= max(threshold, 1.0)]
        return seeds[:self.max_seeds]

    def form(self, ucr_pcs, interval_index=-1):
        self.trigger_count += 1
        new_regions = []
        resolved = 0
        failed = []
        for seed in self.hot_seeds(ucr_pcs):
            if self.registry.covering(seed):
                resolved += 1
                continue
            span = self._span_for(seed, ucr_pcs)
            if span is None:
                failed.append(seed)
                continue
            resolved += 1
            start, end, kind = span
            if self.registry.has_span(start, end):
                continue
            region = self.registry.add(start, end, kind=kind,
                                       formed_at_interval=interval_index)
            new_regions.append(region)
        return FormationOutcome(new_regions=tuple(new_regions),
                                seeds_resolved=resolved,
                                seeds_failed=len(failed),
                                failed_addresses=tuple(failed))

    def _span_for(self, address, ucr_pcs):
        if self.annotations is not None:
            annotation = self.annotations.lookup(address)
            if annotation is not None:
                return annotation.start, annotation.end, \
                    RegionKind.ANNOTATED
        loop = self.binary.innermost_loop_at(address)
        if loop is not None:
            return loop.start, loop.end, RegionKind.LOOP
        procedure = self.binary.procedure_at(address)
        if procedure is None:
            return None
        if self.interprocedural \
                and self.binary.caller_loop_of(procedure.name) is not None:
            return procedure.start, procedure.end, \
                RegionKind.INTERPROCEDURAL
        if self.trace_fallback:
            from repro.regions.trace_builder import (block_hotness,
                                                     build_trace)

            hotness = block_hotness(procedure, ucr_pcs)
            trace = build_trace(procedure, hotness, address)
            if trace is not None:
                return trace.start, trace.end, RegionKind.TRACE
        return None


def every_third_procedure(binary):
    return AnnotationTable.from_spans(
        [(p.start, p.end, p.name) for p in binary.procedures[::3]])


def run(name, use_reference, plan=None, watchdog=None, **options):
    model, stream = model_stream(name, 0.05, plan=plan)
    if options.pop("annotate", False):
        options["annotations"] = every_third_procedure(model.binary)
    session = OnlineSession(binary=model.binary,
                            monitor_thresholds=THRESHOLDS,
                            watchdog=watchdog, **options)
    monitor = session.monitor
    vetoes = []
    if use_reference:
        current = monitor.formation
        monitor.formation = ReferenceFormation(
            model.binary, monitor.registry,
            hot_fraction=current.hot_fraction,
            max_seeds=current.max_seeds,
            interprocedural=current.interprocedural,
            trace_fallback=current.trace_fallback,
            annotations=current.annotations)
    if watchdog is not None:
        veto = monitor.formation_veto

        def counted(region):
            verdict = veto(region)
            vetoes.append(verdict)
            return verdict

        monitor.formation_veto = counted
    session.feed_stream(stream)
    return session, vetoes


CASES = {
    "loops": ("181.mcf", {}, False),
    "interprocedural": ("254.gap", {"interprocedural": True}, False),
    "trace-fallback": ("254.gap", {"trace_formation": True}, False),
    "annotations": ("254.gap", {"annotate": True}, False),
    "watchdog-veto": ("254.gap", {"trace_formation": True}, True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_formation_matches_pre_memo_algorithm(case):
    name, options, faulted = CASES[case]
    plan = drop_plan(0.2, 4.0) if faulted else None
    watchdog = WatchdogConfig() if faulted else None
    new, new_vetoes = run(name, False, plan, watchdog, **dict(options))
    old, old_vetoes = run(name, True, plan, watchdog, **dict(options))

    triggers = [r.formation for r in new.reports if r.formation is not None]
    assert triggers, "formation never fired"
    assert any(t.formed_any for t in triggers)
    assert [r.formation for r in new.reports] \
        == [r.formation for r in old.reports]
    assert [(r.ucr_fraction, r.region_samples, r.events, r.pruned)
            for r in new.reports] \
        == [(r.ucr_fraction, r.region_samples, r.events, r.pruned)
            for r in old.reports]
    assert new.monitor.all_regions() == old.monitor.all_regions()
    assert new.watchdog_events == old.watchdog_events
    assert new_vetoes == old_vetoes
    if faulted:
        assert any(new_vetoes), "the watchdog never vetoed a region"
    kinds = {r.kind for r in new.monitor.all_regions()}
    expected = {"interprocedural": RegionKind.INTERPROCEDURAL,
                "trace-fallback": RegionKind.TRACE,
                "annotations": RegionKind.ANNOTATED}.get(case)
    if expected is not None:
        assert expected in kinds
    # The pure rules were served from the memo after the first lookup.
    assert len(new.monitor.formation.seed_spans) > 0
