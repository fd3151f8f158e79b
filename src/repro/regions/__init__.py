"""Region layer: monitored regions, attribution, formation, pruning."""

from repro.regions.annotations import Annotation, AnnotationTable
from repro.regions.attribution import (AttributionResult, ListAttributor,
                                       SlotTable, TreeAttributor,
                                       make_attributor)
from repro.regions.formation import (FormationOutcome, RegionFormation,
                                     SeedSpans)
from repro.regions.interval_tree import Interval, IntervalTree
from repro.regions.pruning import PruningPolicy, RegionActivity
from repro.regions.region import Region, RegionKind
from repro.regions.registry import RegionRegistry
from repro.regions.trace_builder import Trace, block_hotness, build_trace
from repro.regions.ucr import UcrTracker

__all__ = [
    "Annotation",
    "AnnotationTable",
    "AttributionResult",
    "ListAttributor",
    "SlotTable",
    "TreeAttributor",
    "make_attributor",
    "FormationOutcome",
    "RegionFormation",
    "SeedSpans",
    "Interval",
    "IntervalTree",
    "PruningPolicy",
    "RegionActivity",
    "Region",
    "RegionKind",
    "RegionRegistry",
    "Trace",
    "block_hotness",
    "build_trace",
    "UcrTracker",
]
