"""Region formation: building monitored regions from hot UCR samples.

Paper section 3.1: when the fraction of samples falling in the unmonitored
code region exceeds a threshold, "region formation is triggered and it
builds regions from these samples".  Regions are "primarily loops that have
significant samples"; a hot address whose enclosing code is not a loop
within one procedure (e.g. a procedure called from a loop) yields **no**
region — those samples stay in the UCR, which is exactly the 254.gap /
186.crafty pathology of Figure 7.

The inter-procedural extension ("there is no fundamental limitation to
building inter-procedural regions") is implemented behind a flag: a hot
non-loop procedure that is invoked from some caller's loop is monitored as
a whole-procedure region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.program.binary import SyntheticBinary
from repro.program.procedures import Procedure
from repro.regions.region import Region, RegionKind
from repro.regions.registry import RegionRegistry

__all__ = ["FormationOutcome", "RegionFormation", "SeedSpans"]

_Span = tuple[int, int, RegionKind]
#: A seed's pure formation rule outcome: the span it maps to (if a pure
#: rule gives one) and otherwise the procedure containing it (if any).
_Rule = tuple[_Span | None, Procedure | None]


@dataclass(frozen=True)
class FormationOutcome:
    """Result of one formation trigger.

    Attributes
    ----------
    new_regions:
        Regions added to the registry by this trigger.
    seeds_resolved:
        Hot addresses for which a region was found (or already existed).
    seeds_failed:
        Hot addresses for which no region could be built.
    failed_addresses:
        The addresses behind ``seeds_failed`` (diagnostics).
    """

    new_regions: tuple[Region, ...]
    seeds_resolved: int
    seeds_failed: int
    failed_addresses: tuple[int, ...] = field(default=())

    @property
    def formed_any(self) -> bool:
        return bool(self.new_regions)


class SeedSpans:
    """Memo of the pure formation rules, per seed address.

    The annotation, innermost-loop and inter-procedural rules depend only
    on the binary, the annotation table and the inter-procedural switch,
    so every formation over the same three can share one memo — a batch
    session hands one to every lane.  The trace fallback depends on the
    trigger's samples and is never memoized.  A memo is derived state:
    formations drop it when pickled and start a fresh one.
    """

    def __init__(self, binary: SyntheticBinary, annotations: Any = None,
                 interprocedural: bool = False) -> None:
        self.binary = binary
        self.annotations = annotations
        self.interprocedural = interprocedural
        self._rules: dict[int, _Rule] = {}

    def __len__(self) -> int:
        return len(self._rules)

    def rule_for(self, address: int) -> _Rule:
        """The pure rules' verdict for one seed (memoized).

        Precedence: compiler annotation, then innermost natural loop,
        then (if enabled) the whole callee procedure for call-in-loop
        code.  Addresses outside every procedure and annotation are not
        kept, so the memo is bounded by the program, not by its input.
        """
        rule = self._rules.get(address)
        if rule is None:
            rule = self._resolve(address)
            span, procedure = rule
            if span is not None or procedure is not None:
                self._rules[address] = rule
        return rule

    def _resolve(self, address: int) -> _Rule:
        if self.annotations is not None:
            annotation = self.annotations.lookup(address)
            if annotation is not None:
                return (annotation.start, annotation.end,
                        RegionKind.ANNOTATED), None
        loop = self.binary.innermost_loop_at(address)
        if loop is not None:
            return (loop.start, loop.end, RegionKind.LOOP), None
        procedure = self.binary.procedure_at(address)
        if procedure is None:
            return None, None
        if self.interprocedural \
                and self.binary.caller_loop_of(procedure.name) is not None:
            return (procedure.start, procedure.end,
                    RegionKind.INTERPROCEDURAL), None
        return None, procedure


class RegionFormation:
    """Builds loop regions around hot unmonitored addresses.

    Parameters
    ----------
    binary:
        The program being monitored (provides loops and the call graph).
    registry:
        Live region set; new regions are added here.
    hot_fraction:
        An address is a formation seed when it carries at least this
        fraction of the trigger's UCR samples.
    max_seeds:
        Upper bound on seeds examined per trigger (hottest first).
    interprocedural:
        Enable the whole-procedure fallback for call-in-loop hot code.
    trace_fallback:
        Enable hot-path trace selection for hot addresses no loop (or
        inter-procedural) rule covers — the paper's "regions can also
        include functions or traces" future work.
    annotations:
        Optional compiler-provided :class:`~repro.regions.annotations.
        AnnotationTable`; annotated spans take precedence over runtime
        analysis (the paper's "compiler annotations to improve region
        formation" future work).
    seed_spans:
        Optional :class:`SeedSpans` memo to share with other formations
        of the same binary, annotations and inter-procedural switch; a
        private one is made when omitted.
    """

    def __init__(self, binary: SyntheticBinary, registry: RegionRegistry,
                 hot_fraction: float = 0.02, max_seeds: int = 64,
                 interprocedural: bool = False,
                 trace_fallback: bool = False,
                 annotations: Any = None,
                 seed_spans: SeedSpans | None = None) -> None:
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must lie in (0, 1]")
        if max_seeds < 1:
            raise ValueError("max_seeds must be positive")
        self.binary = binary
        self.registry = registry
        self.hot_fraction = hot_fraction
        self.max_seeds = max_seeds
        self.interprocedural = interprocedural
        self.trace_fallback = trace_fallback
        self.annotations = annotations
        #: Formation triggers handled so far.
        self.trigger_count = 0
        if seed_spans is None:
            seed_spans = SeedSpans(binary, annotations, interprocedural)
        elif (seed_spans.binary is not binary
              or seed_spans.annotations is not annotations
              or seed_spans.interprocedural != interprocedural):
            raise ValueError(
                "seed_spans memo was built for another binary, annotation "
                "table or inter-procedural setting")
        self.seed_spans = seed_spans

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("seed_spans", None)  # derived; rebuilt on restore
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.seed_spans = SeedSpans(self.binary, self.annotations,
                                    self.interprocedural)

    def hot_seeds(self, ucr_pcs: np.ndarray) -> list[int]:
        """Hot addresses in a UCR sample batch, hottest first.

        Ties keep the order of a reversed ``np.argsort`` of the counts.
        """
        if ucr_pcs.size == 0:
            return []
        unique, counts = np.unique(np.asarray(ucr_pcs, dtype=np.int64),
                                   return_counts=True)
        threshold = max(self.hot_fraction * ucr_pcs.size, 1.0)
        order = np.argsort(counts)[::-1]
        hot = order[counts[order] >= threshold][:self.max_seeds]
        return unique[hot].tolist()

    def form(self, ucr_pcs: np.ndarray,
             interval_index: int = -1) -> FormationOutcome:
        """Run one formation trigger over the interval's UCR samples.

        The samples must lie in no live region (they are the UCR), so a
        seed can only be covered by a region formed earlier in this same
        trigger; only those are tested.
        """
        self.trigger_count += 1
        new_regions: list[Region] = []
        resolved = 0
        failed: list[int] = []
        for seed in self.hot_seeds(ucr_pcs):
            if any(region.start <= seed < region.end
                   for region in new_regions):
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

    def _span_for(self, address: int,
                  ucr_pcs: np.ndarray) -> _Span | None:
        """The region span a seed address maps to, if one can be built.

        The pure rules come from the :class:`SeedSpans` memo; when they
        give nothing and the address lies in a procedure, the hot-path
        trace fallback (if enabled) grows a trace from the seed.
        """
        span, procedure = self.seed_spans.rule_for(address)
        if span is not None or procedure is None or not self.trace_fallback:
            return span
        from repro.regions.trace_builder import block_hotness, build_trace

        hotness = block_hotness(procedure, ucr_pcs)
        trace = build_trace(procedure, hotness, address)
        if trace is not None:
            return trace.start, trace.end, RegionKind.TRACE
        return None
