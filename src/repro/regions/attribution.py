"""Sample-to-region attribution strategies.

On every buffer overflow "performance counter samples are distributed
across regions" (paper section 3.1), incrementing per-instruction counters
in *every* region containing each sample (overlapping regions all count —
that is why the paper's region charts stack above the buffer size).
Samples contained in no region belong to the unmonitored code region (UCR).

Two strategies, matching the paper's section 3.2.3:

* :class:`ListAttributor` — region-list membership, charged ``O(n)`` per
  sample;
* :class:`TreeAttributor` — interval-tree stabbing, charged
  ``O(log n + k)`` per sample, rebuilt whenever the region set changes.

Both produce identical results; they differ only in the work they charge
to the :class:`~repro.costs.CostLedger`, which is what Figures 15 and 16
measure.  Functionally both hot paths are fully batched:

* the list scheme runs on a :class:`SlotTable`, which gives every
  monitored instruction one column: each sample is mapped to its column
  by one table lookup, one ``np.bincount`` keyed by (lane, column) counts
  them, and every region's histogram is a slice of the result.  One
  kernel serves a single interval (:class:`ListAttributor`) and a whole
  fleet round (``BatchSession``, one table over every lane's regions);
* the tree scheme groups the interval's samples by unique PC and
  resolves them with one ``np.searchsorted`` over the tree's
  piecewise-constant stab table, charging the exact node-list comparison
  count a scalar stab would have measured.

The pre-vectorization per-PC reference implementations are kept as
:class:`ScalarListAttributor` / :class:`ScalarTreeAttributor`
(``"list-scalar"`` / ``"tree-scalar"``): they are the oracle the property
tests compare the batched paths against, byte for byte, and the baseline
the benchmark suite measures speedups over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.histogram import INSTRUCTION_BYTES
from repro.costs import (LIST_OPS_PER_CHECK, TREE_QUERY_BASE_OPS,
                         CostLedger)
from repro.regions.interval_tree import Interval, IntervalTree
from repro.regions.registry import RegionRegistry

__all__ = ["AttributionResult", "ListAttributor", "SlotTable",
           "TreeAttributor", "ScalarListAttributor", "ScalarTreeAttributor",
           "make_attributor"]


@dataclass(frozen=True)
class AttributionResult:
    """Outcome of distributing one interval's samples.

    Attributes
    ----------
    region_counts:
        rid -> per-instruction-slot count vector, for regions that
        received at least one sample.
    n_ucr:
        Samples that fell in no region.
    n_samples:
        Interval size.
    n_hits:
        Total region increments (>= samples attributed, because regions
        may overlap).
    region_totals:
        rid -> samples attributed, for the regions in ``region_counts``.
    ucr_source:
        Builds :attr:`ucr_pcs` on first access.  A fleet result builds it
        from the round's samples, so it must be read while the round is
        being processed (region formation reads it right away).
    """

    region_counts: dict[int, np.ndarray]
    n_ucr: int
    n_samples: int
    n_hits: int
    region_totals: dict[int, int]
    ucr_source: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def ucr_pcs(self) -> np.ndarray:
        """The PC values (with multiplicity, ascending) in no region."""
        return self.ucr_source()

    @property
    def ucr_fraction(self) -> float:
        """Fraction of the interval's samples left unmonitored."""
        if self.n_samples == 0:
            return 0.0
        return self.n_ucr / self.n_samples

    def total_for(self, rid: int) -> int:
        """Samples attributed to one region (0 if it got none)."""
        return self.region_totals.get(rid, 0)


def _eager_result(region_counts: dict[int, np.ndarray], ucr_pcs: np.ndarray,
                  n_samples: int, n_hits: int,
                  region_totals: dict[int, int]) -> AttributionResult:
    return AttributionResult(region_counts=region_counts,
                             n_ucr=int(ucr_pcs.size), n_samples=n_samples,
                             n_hits=n_hits, region_totals=region_totals,
                             ucr_source=partial(np.asarray, ucr_pcs))


class _AttributorBase:
    """A strategy bound to one registry, charging one ledger."""

    def __init__(self, registry: RegionRegistry,
                 ledger: CostLedger | None = None) -> None:
        self.registry = registry
        self.ledger = ledger if ledger is not None else CostLedger()

    def attribute(self, pcs: np.ndarray) -> AttributionResult:
        """Distribute one interval's samples across the live regions."""
        raise NotImplementedError


# -- the slot table (list scheme) ----------------------------------------------

#: Lookup buckets allowed per monitored cell, as a power of two, before the
#: cell index falls back to a binary search over the span bounds.
_HASH_SLACK_BITS = 6
#: Samples the kernel maps per step; bounds the per-round temporaries.
_CHUNK_SAMPLES = 1 << 14


class _CellIndex:
    """Maps sample PCs to slot-table columns.

    The monitored spans are cut into cells of ``1 << shift`` bytes at
    offset ``phase`` — 4-byte instruction slots, unless regions start at
    different offsets modulo 4 — and the cells are numbered 1..n_cells
    in address order.  Columns 0 and ``n_cells + 1`` are sinks for
    samples outside every span.

    The lookup is a table indexed by the low ``k`` bits of a sample's
    cell address, ``k`` chosen so that no two monitored cells share a
    bucket.  Bucket ``h`` stores ``column + cell`` of its monitored cell
    (or ``h`` when empty), so ``table[h] - cell`` is the sample's column
    when the cells match and otherwise differs from a column by a nonzero
    multiple of ``2**k > n_cells + 1`` and is clamped to a sink.  The
    table holds at most ``2**_HASH_SLACK_BITS`` buckets per cell, so it
    grows with the monitored instructions, never with the address span
    between them; spans whose cells collide beyond that fall back to a
    binary search over the span bounds.
    """

    def __init__(self, starts: np.ndarray, ends: np.ndarray, phase: int,
                 shift: int) -> None:
        self.phase = phase
        self.shift = shift
        first = (starts - phase) >> shift
        sizes = (ends - starts) >> shift
        self.n_cells = n_cells = int(sizes.sum())
        span_columns = np.cumsum(sizes) - sizes + 1
        columns = np.arange(1, n_cells + 1, dtype=np.int64)
        cells = np.repeat(first - span_columns, sizes) + columns
        self._table: np.ndarray | None = None
        self._mask = 0
        bits = (n_cells + 1).bit_length()
        for k in range(bits, bits + _HASH_SLACK_BITS + 1):
            mask = (1 << k) - 1
            buckets = cells & mask
            if np.unique(buckets).size == n_cells:
                table = np.arange(mask + 1, dtype=np.int64)
                table[buckets] = cells + columns
                self._table, self._mask = table, mask
                return
        self._bounds = np.column_stack((starts, ends)).ravel()
        self._delta = np.zeros(self._bounds.size + 1, dtype=np.int64)
        self._delta[1::2] = span_columns - first

    def columns(self, pcs: np.ndarray) -> np.ndarray:
        """Column of every PC (int64 array of any shape; a new array)."""
        cells = pcs - self.phase if self.phase else pcs
        if self.shift:
            cells = cells >> self.shift
        if self._table is not None:
            key = self._table[cells & self._mask]
            key -= cells
            # Viewed as unsigned, a negative miss is huge too: one
            # minimum sends every miss to the high sink.
            unsigned = key.view(np.uint64)
            np.minimum(unsigned, np.uint64(self.n_cells + 1), out=unsigned)
            return key
        bound = np.searchsorted(self._bounds, pcs, side="right")
        key = cells + self._delta[bound]
        key[(bound & 1) == 0] = 0
        return key


class _LaneSlots:
    """One registry's live regions, as the table last saw them."""

    __slots__ = ("version", "rids", "starts", "ends", "columns", "widths")

    def __init__(self, registry: RegionRegistry) -> None:
        regions = registry.regions()
        self.version = registry.version
        self.rids = [region.rid for region in regions]
        self.starts = np.array([region.start for region in regions],
                               dtype=np.int64)
        self.ends = np.array([region.end for region in regions],
                             dtype=np.int64)
        #: First column and width (in cells) per region; set by the
        #: table build.
        self.columns: list[int] = []
        self.widths: list[int] = []


def _uncovered(pcs: np.ndarray, index: _CellIndex,
               cover: np.ndarray) -> np.ndarray:
    """The samples of one lane's interval that none of its regions cover,
    ascending (the UCR samples, with multiplicity)."""
    return np.sort(pcs[~cover[index.columns(pcs)]])


class SlotTable:
    """Instruction-slot table over the live regions of many registries.

    Each registry is one *lane* (one stream's region set).  The table
    covers the union of every lane's monitored spans as one run of
    columns, so it grows with the number of monitored instructions; a
    lane's region is a contiguous run of columns, and a per-lane cover
    mask says which columns any of the lane's regions contain.

    :meth:`attribute` distributes one interval per lane for a whole block
    of lanes at once: every sample is mapped to its column, one
    ``np.bincount`` keyed by (row, column) counts the block, region
    histograms are slices of that count matrix, region totals are
    differences of its row-wise cumulative sums, and each row's UCR count
    is its samples minus the columns the lane covers.  The UCR samples
    themselves are only gathered for a lane when its result's
    :attr:`~AttributionResult.ucr_pcs` is read (region formation).

    A lane's entry is rebuilt only when its registry's version changed;
    the shared columns are then recomputed with a few array operations.
    The table is derived state: owners drop it when pickled and rebuild
    it lazily.
    """

    def __init__(self, registries: Sequence[RegionRegistry] = ()) -> None:
        self._registries: list[RegionRegistry] = list(registries)
        self._lanes: list[_LaneSlots | None] = [None] * len(self._registries)
        self._build()

    def add(self, registry: RegionRegistry) -> int:
        """Append one lane; returns its index."""
        self._registries.append(registry)
        self._lanes.append(None)
        self._stale = True
        return len(self._registries) - 1

    @property
    def n_columns(self) -> int:
        """Monitored cells in the table (sinks excluded)."""
        return self._index.n_cells

    # -- maintenance ------------------------------------------------------------

    def _refresh(self, lanes: list[int]) -> None:
        """Re-read the registries of *lanes* that changed since last seen."""
        registries, entries = self._registries, self._lanes
        stale = self._stale
        for lane in lanes:
            entry = entries[lane]
            registry = registries[lane]
            if entry is None or entry.version != registry.version:
                entries[lane] = _LaneSlots(registry)
                stale = True
        if stale:
            self._build()

    def _build(self) -> None:
        """Recompute the shared columns from every lane's entry."""
        entries = [entry for entry in self._lanes if entry is not None]
        n_lanes = len(self._lanes)
        sizes = np.array([0 if entry is None else len(entry.rids)
                          for entry in self._lanes], dtype=np.int64)
        starts = np.concatenate(
            [entry.starts for entry in entries] or [np.empty(0, np.int64)])
        ends = np.concatenate(
            [entry.ends for entry in entries] or [np.empty(0, np.int64)])
        offsets = starts % INSTRUCTION_BYTES
        if offsets.size == 0 or np.all(offsets == offsets[0]):
            shift = 2
        elif np.all((offsets - offsets[0]) % 2 == 0):
            shift = 1
        else:
            shift = 0
        phase = int(offsets[0]) % (1 << shift) if offsets.size else 0

        # Merge the spans into disjoint runs (touching ones included).
        run_starts, run_ends = starts, ends
        if starts.size:
            order = np.argsort(starts, kind="stable")
            reach = np.maximum.accumulate(ends[order])
            leads = np.ones(starts.size, dtype=bool)
            leads[1:] = starts[order][1:] > reach[:-1]
            tails = np.append(np.flatnonzero(leads)[1:] - 1, starts.size - 1)
            run_starts, run_ends = starts[order][leads], reach[tails]
        index = _CellIndex(run_starts, run_ends, phase, shift)

        first = index.columns(starts)
        last = first + ((ends - starts) >> shift)
        marks = np.zeros((n_lanes, index.n_cells + 2), dtype=np.int64)
        owner = np.repeat(np.arange(n_lanes), sizes)
        np.add.at(marks, (owner, first), 1)
        np.add.at(marks, (owner, last), -1)
        #: lane -> whether any of its regions contains the column.
        self._cover = np.cumsum(marks, axis=1) > 0
        # Per region (lane-major, lane l's at ptr[l]:ptr[l + 1]), the
        # cumulative-count columns whose difference is its total (a
        # region never starts at column 0, the low sink).
        self._ptr = np.concatenate(([0], np.cumsum(sizes)))
        self._before, self._through = first - 1, last - 1
        firsts, widths = first.tolist(), (last - first).tolist()
        lo = 0
        for entry in entries:
            hi = lo + len(entry.rids)
            entry.columns, entry.widths = firsts[lo:hi], widths[lo:hi]
            lo = hi
        self._index = index
        self._stale = False

    # -- the kernel ---------------------------------------------------------------

    def _count(self, block: np.ndarray, width: int) -> np.ndarray:
        """(rows, width) matrix of samples per row and column."""
        n_rows, n_samples = block.shape
        counts = np.empty((n_rows, width), dtype=np.int64)
        step = max(1, _CHUNK_SAMPLES // max(n_samples, 1))
        row_keys = np.arange(0, min(step, n_rows) * width, width,
                             dtype=np.int64)[:, None]
        columns = self._index.columns
        for lo in range(0, n_rows, step):
            chunk = block[lo:lo + step]
            rows = chunk.shape[0]
            key = columns(chunk)
            key += row_keys[:rows]
            counts[lo:lo + rows] = np.bincount(
                key.ravel(), minlength=rows * width).reshape(rows, width)
        return counts

    def attribute(self, block: np.ndarray,
                  lanes: np.ndarray) -> list[AttributionResult]:
        """Attribute one interval per row of *block* (int64, 2-D).

        Row i holds an interval of lane ``lanes[i]``; the results come
        back in row order.  Charges nothing: each lane's attributor
        charges its own ledger (see :meth:`ListAttributor.charge`).
        """
        lane_list = lanes.tolist()
        self._refresh(lane_list)
        index = self._index
        n_samples = block.shape[1]
        width = index.n_cells + 2
        counts = self._count(block, width)
        n_ucr = (n_samples - counts.sum(axis=1, where=self._cover[lanes])
                 ).tolist()
        sums = np.cumsum(counts, axis=1)
        ptr = self._ptr
        sizes = ptr[lanes + 1] - ptr[lanes]
        regions = np.repeat(ptr[lanes] - (np.cumsum(sizes) - sizes),
                            sizes) + np.arange(sizes.sum())
        owner = np.repeat(np.arange(lanes.size), sizes)
        totals = (sums[owner, self._through[regions]]
                  - sums[owner, self._before[regions]]).tolist()

        per_slot = INSTRUCTION_BYTES >> index.shift
        results = []
        position = 0
        for row, lane in enumerate(lane_list):
            entry = self._lanes[lane]
            assert entry is not None
            region_counts: dict[int, np.ndarray] = {}
            region_totals: dict[int, int] = {}
            n_hits = 0
            row_counts = counts[row]
            for rid, column, cells in zip(entry.rids, entry.columns,
                                          entry.widths):
                total = totals[position]
                position += 1
                if total:
                    vector = row_counts[column:column + cells]
                    if per_slot > 1:
                        vector = vector.reshape(-1, per_slot).sum(axis=1)
                    region_counts[rid] = vector
                    region_totals[rid] = total
                    n_hits += total
            results.append(AttributionResult(
                region_counts=region_counts, n_ucr=n_ucr[row],
                n_samples=n_samples, n_hits=n_hits,
                region_totals=region_totals,
                ucr_source=partial(_uncovered, block[row], index,
                                   self._cover[lane])))
        return results


class ListAttributor(_AttributorBase):
    """Region-list membership: per-sample charged cost ``O(n_regions)``.

    Attribution is the one-lane call of the :class:`SlotTable` kernel;
    the charged cost stays the scalar scan's ``n_samples * n_regions``
    checks.
    """

    name = "list"

    def __init__(self, registry: RegionRegistry,
                 ledger: CostLedger | None = None) -> None:
        super().__init__(registry, ledger)
        #: Built on first use: a batch lane's attributor only charges.
        self._table: SlotTable | None = None

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["_table"] = None  # derived; rebuilt on use
        return state

    def attribute(self, pcs: np.ndarray) -> AttributionResult:
        if self._table is None:
            self._table = SlotTable([self.registry])
        pcs = np.asarray(pcs, dtype=np.int64).reshape(1, -1)
        result = self._table.attribute(pcs, np.zeros(1, dtype=np.int64))[0]
        self.charge(result)
        return result

    def charge(self, result: AttributionResult) -> None:
        """Charge one interval's list scan (also for fleet results)."""
        self.ledger.charge_list_attribution(
            n_samples=result.n_samples,
            n_regions=len(self.registry),
            n_hits=result.n_hits)


class TreeAttributor(_AttributorBase):
    """Interval-tree stabbing: per-sample charged cost ``O(log n + k)``.

    The tree is rebuilt lazily whenever the registry version changes
    (formation or pruning events); rebuild cost is charged to the ledger.
    Stab results and scalar stab costs are piecewise constant in the
    query point (see :meth:`IntervalTree.segments`), so the batch resolves
    every unique PC with one ``np.searchsorted`` into the segment table
    while charging exactly the operations per-PC stabbing would have
    measured.
    """

    name = "tree"

    def __init__(self, registry: RegionRegistry,
                 ledger: CostLedger | None = None) -> None:
        super().__init__(registry, ledger)
        self._tree: IntervalTree | None = None
        self._tree_version = -1
        self._per_pc_cost = np.empty(0, dtype=np.int64)

    def _current_tree(self) -> IntervalTree:
        if self._tree is None or self._tree_version != self.registry.version:
            intervals = [Interval(r.start, r.end, r.rid)
                         for r in self.registry.regions()]
            self._tree = IntervalTree(intervals)
            self._tree_version = self.registry.version
            self.ledger.charge_tree_build(len(intervals))
        return self._tree

    def attribute(self, pcs: np.ndarray) -> AttributionResult:
        pcs = np.asarray(pcs, dtype=np.int64)
        unique_pcs, counts = np.unique(pcs, return_counts=True)
        hits_by_rid = self._resolve_batch(unique_pcs)

        region_counts: dict[int, np.ndarray] = {}
        region_totals: dict[int, int] = {}
        covered = np.zeros(unique_pcs.size, dtype=bool)
        n_hits = 0
        for rid in sorted(hits_by_rid):
            index = hits_by_rid[rid]
            region = self.registry.get(rid)
            covered[index] = True
            multiplicity = counts[index]
            total = int(multiplicity.sum())
            n_hits += total
            slots = (unique_pcs[index] - region.start) // INSTRUCTION_BYTES
            region_counts[rid] = np.bincount(
                slots, weights=multiplicity,
                minlength=region.n_instructions).astype(np.int64)
            region_totals[rid] = total
        ucr_pcs = np.repeat(unique_pcs[~covered], counts[~covered])
        result = _eager_result(region_counts, ucr_pcs, int(pcs.size),
                               n_hits, region_totals)
        self._charge(result, unique_pcs, counts)
        return result

    def _resolve_batch(self, unique_pcs: np.ndarray) -> dict[int, np.ndarray]:
        """rid -> index array (into ``unique_pcs``) of contained PCs."""
        tree = self._current_tree()
        boundaries = tree.stab_boundaries()
        segment = np.searchsorted(boundaries, unique_pcs, side="right")
        # Group PCs by segment with one stable sort; each group shares one
        # memoized representative stab (result and exact scalar cost).
        order = np.argsort(segment, kind="stable")
        grouped = segment[order]
        present, first = np.unique(grouped, return_index=True)
        group_end = np.append(first[1:], grouped.size)
        cost = np.empty(unique_pcs.size, dtype=np.int64)
        hits: dict[int, list[np.ndarray]] = {}
        for i, seg in enumerate(present):
            rids, seg_cost = tree.segment_stab(int(seg))
            index = order[first[i]:group_end[i]]
            cost[index] = seg_cost
            for rid in rids:
                hits.setdefault(rid, []).append(index)
        self._per_pc_cost = cost + TREE_QUERY_BASE_OPS
        return {rid: np.concatenate(parts) for rid, parts in hits.items()}

    def _charge(self, result: AttributionResult, unique_pcs: np.ndarray,
                counts: np.ndarray) -> None:
        # Per-sample cost model: each sample pays its PC's query cost.
        query_ops = int(self._per_pc_cost @ counts) if unique_pcs.size else 0
        self.ledger.charge_tree_attribution(query_ops=query_ops,
                                            n_hits=result.n_hits)


class _ScalarAttributorBase(_AttributorBase):
    """Reference per-PC attribution (the pre-vectorization hot path).

    Kept verbatim as the equivalence oracle: the property tests assert the
    batched attributors reproduce these results — counts, UCR, hit totals
    and ledger charges — bit for bit.
    """

    def _resolve(self, unique_pcs: np.ndarray) -> list[list[int]]:
        """Per unique PC, the rids of the regions containing it."""
        raise NotImplementedError

    def _charge(self, result: AttributionResult, unique_pcs: np.ndarray,
                counts: np.ndarray) -> None:
        """Charge this interval's modeled work to the ledger."""
        raise NotImplementedError

    def attribute(self, pcs: np.ndarray) -> AttributionResult:
        pcs = np.asarray(pcs, dtype=np.int64)
        regions = {r.rid: r for r in self.registry.regions()}
        unique_pcs, counts = np.unique(pcs, return_counts=True)
        hits_per_pc = self._resolve(unique_pcs)

        region_counts: dict[int, np.ndarray] = {}
        ucr_mask = np.zeros(unique_pcs.size, dtype=bool)
        n_hits = 0
        for index, rids in enumerate(hits_per_pc):
            if not rids:
                ucr_mask[index] = True
                continue
            pc = int(unique_pcs[index])
            multiplicity = int(counts[index])
            n_hits += multiplicity * len(rids)
            for rid in rids:
                region = regions[rid]
                vector = region_counts.get(rid)
                if vector is None:
                    vector = np.zeros(region.n_instructions, dtype=np.int64)
                    region_counts[rid] = vector
                slot = (pc - region.start) // INSTRUCTION_BYTES
                vector[slot] += multiplicity
        ucr_pcs = np.repeat(unique_pcs[ucr_mask], counts[ucr_mask])
        result = _eager_result(
            region_counts, ucr_pcs, int(pcs.size), n_hits,
            {rid: int(vector.sum()) for rid, vector in region_counts.items()})
        self._charge(result, unique_pcs, counts)
        return result


class ScalarListAttributor(_ScalarAttributorBase):
    """Per-PC linear region-list scan (reference for :class:`ListAttributor`)."""

    name = "list-scalar"

    def _resolve(self, unique_pcs: np.ndarray) -> list[list[int]]:
        regions = self.registry.regions()
        return [[r.rid for r in regions if r.contains(int(pc))]
                for pc in unique_pcs]

    def _charge(self, result: AttributionResult, unique_pcs: np.ndarray,
                counts: np.ndarray) -> None:
        self.ledger.charge_list_attribution(
            n_samples=result.n_samples,
            n_regions=len(self.registry),
            n_hits=result.n_hits)


class ScalarTreeAttributor(_ScalarAttributorBase):
    """Per-PC interval-tree stabbing (reference for :class:`TreeAttributor`)."""

    name = "tree-scalar"

    _current_tree = TreeAttributor._current_tree

    def __init__(self, registry: RegionRegistry,
                 ledger: CostLedger | None = None) -> None:
        super().__init__(registry, ledger)
        self._tree: IntervalTree | None = None
        self._tree_version = -1
        self._per_pc_cost = np.empty(0, dtype=np.int64)

    def _resolve(self, unique_pcs: np.ndarray) -> list[list[int]]:
        tree = self._current_tree()
        results: list[list[int]] = []
        per_pc_cost: list[int] = []
        for pc in unique_pcs:
            results.append(tree.stab(int(pc)))
            per_pc_cost.append(tree.last_query_cost + TREE_QUERY_BASE_OPS)
        self._per_pc_cost = np.asarray(per_pc_cost, dtype=np.int64)
        return results

    _charge = TreeAttributor._charge


_STRATEGIES = {
    "list": ListAttributor,
    "tree": TreeAttributor,
    "list-scalar": ScalarListAttributor,
    "tree-scalar": ScalarTreeAttributor,
}


def make_attributor(strategy: str, registry: RegionRegistry,
                    ledger: CostLedger | None = None) -> _AttributorBase:
    """Factory: ``"list"``, ``"tree"``, or a ``"-scalar"`` reference."""
    try:
        cls = _STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(_STRATEGIES))
        raise ValueError(f"unknown attribution strategy {strategy!r}; "
                         f"expected one of: {known}") from None
    return cls(registry, ledger)


def estimated_list_ops(n_samples: int, n_regions: int) -> int:
    """Closed-form list-scan cost (used by cost-model sanity tests)."""
    return n_samples * n_regions * LIST_OPS_PER_CHECK
