"""Differential tests: fleet list attribution vs the scalar oracle.

``BatchSession`` attributes every ready lane of a round with one
:class:`~repro.regions.attribution.SlotTable` pass.  Per lane, the result
must equal what :class:`~repro.regions.attribution.ScalarListAttributor`
computes from that lane's registry alone — region count vectors, totals,
hits, UCR samples — and charging it must leave the ledger exactly where
the scalar attributor leaves its own.  The region sets drawn here nest,
overlap, start at different offsets modulo the instruction size, sit far
apart in the address space and churn between rounds the way watchdog
quarantine/release and formation churn them; samples hit region ends and
fall outside every region; rounds take ragged lane subsets, single lanes
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs import CostLedger
from repro.regions.attribution import (ListAttributor, ScalarListAttributor,
                                       SlotTable)
from repro.regions.registry import RegionRegistry

seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: Base addresses regions are drawn around: neighbours, and one far away
#: (a second DSO), whose cells alias the near ones' low address bits.
BASES = (0x10000, 0x10800, 0x7F0000000000)


def random_span(rng, unaligned):
    base = BASES[int(rng.integers(0, len(BASES)))]
    start = base + int(rng.integers(0, 0x400))
    if not unaligned:
        start &= ~0x3
    length = 4 * int(rng.integers(1, 48))
    return start, start + length


def add_random_regions(rng, registry, count, unaligned):
    for _ in range(count):
        start, end = random_span(rng, unaligned)
        if not registry.has_span(start, end):
            registry.add(start, end)
        if rng.random() < 0.3 and end - start >= 12:
            # a nested region inside the one just drawn
            inner = start + 4 * int(rng.integers(0, (end - start) // 4 - 1))
            if not registry.has_span(inner, inner + 8):
                registry.add(inner, inner + 8)


def churn(rng, registry, parked, unaligned):
    """Quarantine, release and form regions between rounds."""
    live = registry.regions()
    if live and rng.random() < 0.5:
        region = live[int(rng.integers(0, len(live)))]
        parked.append(registry.remove(region.rid))  # quarantine
    if parked and rng.random() < 0.5:
        region = parked.pop(int(rng.integers(0, len(parked))))
        if not registry.has_span(region.start, region.end):
            registry.reinsert(region)  # release under the same rid
    if rng.random() < 0.4:
        add_random_regions(rng, registry, 1, unaligned)  # formation


def random_block(rng, registries, rows, n_samples):
    """Samples at region starts, inside, at and just before ends, and
    outside every region."""
    spans = [(r.start, r.end) for registry in registries
             for r in registry.regions()] or [(0x10000, 0x10010)]
    block = np.empty((len(rows), n_samples), dtype=np.int64)
    for i in range(len(rows)):
        picks = rng.integers(0, len(spans), size=n_samples)
        starts = np.array([spans[p][0] for p in picks], dtype=np.int64)
        ends = np.array([spans[p][1] for p in picks], dtype=np.int64)
        kind = rng.integers(0, 5, size=n_samples)
        inside = starts + (rng.integers(0, 1 << 30, size=n_samples)
                           % (ends - starts))
        outside = rng.integers(0, 0x20000, size=n_samples)
        block[i] = np.select(
            [kind == 0, kind == 1, kind == 2, kind == 3],
            [starts, ends, ends - 1, inside], outside)
    return block


def assert_matches_scalar(result, registry, pcs, fleet_ledger):
    scalar_ledger = CostLedger()
    reference = ScalarListAttributor(registry, scalar_ledger).attribute(pcs)
    assert result.n_samples == reference.n_samples
    assert result.n_hits == reference.n_hits
    assert result.n_ucr == reference.ucr_pcs.size
    assert result.ucr_fraction == reference.ucr_fraction
    assert result.ucr_pcs.dtype == reference.ucr_pcs.dtype
    assert np.array_equal(result.ucr_pcs, reference.ucr_pcs)
    assert result.region_totals == reference.region_totals
    assert sorted(result.region_counts) == sorted(reference.region_counts)
    for rid, counts in result.region_counts.items():
        assert counts.dtype == reference.region_counts[rid].dtype
        assert np.array_equal(counts, reference.region_counts[rid])
    ListAttributor(registry, fleet_ledger).charge(result)
    assert fleet_ledger.attribution_ops == scalar_ledger.attribution_ops


class TestFleetMatchesScalar:
    @given(seeds, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_churned_ragged_rounds(self, seed, unaligned):
        rng = np.random.default_rng(seed)
        n_lanes = int(rng.integers(1, 7))
        registries = [RegionRegistry() for _ in range(n_lanes)]
        for registry in registries:
            add_random_regions(rng, registry, int(rng.integers(0, 5)),
                               unaligned)
        table = SlotTable(registries)
        parked = [[] for _ in registries]
        n_samples = int(rng.integers(0, 300))
        for _ in range(4):
            rows = np.flatnonzero(rng.random(n_lanes) < 0.6)
            if rows.size == 0:
                rows = np.array([int(rng.integers(0, n_lanes))])
            block = random_block(rng, registries, rows, n_samples)
            results = table.attribute(block, rows)
            assert len(results) == rows.size
            for row, lane in enumerate(rows):
                assert_matches_scalar(results[row], registries[lane],
                                      block[row], CostLedger())
            for lane in range(n_lanes):
                churn(rng, registries[lane], parked[lane], unaligned)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_one_lane_list_attributor(self, seed):
        # ListAttributor is the one-lane call of the same kernel.
        rng = np.random.default_rng(seed)
        registry = RegionRegistry()
        add_random_regions(rng, registry, int(rng.integers(0, 6)),
                           bool(rng.integers(0, 2)))
        pcs = random_block(rng, [registry], [0], int(rng.integers(0, 400)))[0]
        ledger = CostLedger()
        result = ListAttributor(registry, ledger).attribute(pcs)
        scalar_ledger = CostLedger()
        reference = ScalarListAttributor(registry,
                                         scalar_ledger).attribute(pcs)
        assert np.array_equal(result.ucr_pcs, reference.ucr_pcs)
        assert result.region_totals == reference.region_totals
        assert ledger.attribution_ops == scalar_ledger.attribution_ops


class TestSlotTable:
    def test_far_apart_regions_keep_the_table_small(self):
        # Two DSOs ~2**47 bytes apart: the table covers their monitored
        # instructions, not the span between them.
        registry = RegionRegistry()
        registry.add(0x1000, 0x1100)
        registry.add(0x7F0000001000, 0x7F0000001040)
        table = SlotTable([registry])
        pcs = np.array([[0x1000, 0x10FC, 0x1100, 0x7F0000001000,
                         0x7F000000103C, 0x7F0000001040, 0x4000]])
        (result,) = table.attribute(pcs, np.array([0]))
        assert table.n_columns == 64 + 16
        assert result.region_totals == {0: 2, 1: 2}
        assert result.ucr_pcs.tolist() == [0x1100, 0x4000, 0x7F0000001040]

    def test_colliding_cells_fall_back_to_bounds_search(self):
        # Cells 2**40 apart alias in every affordable lookup table.
        registry = RegionRegistry()
        registry.add(0, 16)
        registry.add(1 << 42, (1 << 42) + 16)
        table = SlotTable([registry])
        pcs = np.array([[0, 4, 16, 1 << 42, (1 << 42) + 12,
                         (1 << 42) + 16, 1 << 41]])
        (result,) = table.attribute(pcs, np.array([0]))
        assert table._index._table is None
        assert result.region_counts[0].tolist() == [1, 1, 0, 0]
        assert result.region_counts[1].tolist() == [1, 0, 0, 1]
        assert result.n_ucr == 3

    def test_unaligned_starts_split_cells(self):
        # Regions at offsets 0 and 2 mod 4 share 2-byte cells; each
        # region's slot vector still counts 4-byte instruction slots.
        registry = RegionRegistry()
        registry.add(0x100, 0x110)
        registry.add(0x102, 0x10A)
        pcs = np.array([[0x100, 0x101, 0x102, 0x103, 0x105, 0x109, 0x10A]])
        (result,) = SlotTable([registry]).attribute(pcs, np.array([0]))
        assert result.region_counts[0].tolist() == [4, 1, 2, 0]
        assert result.region_counts[1].tolist() == [3, 1]

    def test_only_changed_lanes_are_reread(self):
        registries = [RegionRegistry() for _ in range(3)]
        for i, registry in enumerate(registries):
            registry.add(0x1000 * (i + 1), 0x1000 * (i + 1) + 64)
        table = SlotTable(registries)
        lanes = np.arange(3)
        table.attribute(np.zeros((3, 4), dtype=np.int64), lanes)
        entries = list(table._lanes)
        registries[1].add(0x9000, 0x9040)
        table.attribute(np.zeros((3, 4), dtype=np.int64), lanes)
        assert table._lanes[0] is entries[0]
        assert table._lanes[1] is not entries[1]
        assert table._lanes[2] is entries[2]

    def test_empty_table_sends_everything_to_the_ucr(self):
        table = SlotTable([RegionRegistry(), RegionRegistry()])
        block = np.array([[5, 1, 3], [0, 0, 9]], dtype=np.int64)
        results = table.attribute(block, np.array([0, 1]))
        assert [r.ucr_pcs.tolist() for r in results] == [[1, 3, 5], [0, 0, 9]]
        assert all(r.n_hits == 0 and r.region_counts == {} for r in results)


@pytest.mark.parametrize("strategy", ["tree", "list-scalar"])
def test_other_strategies_keep_their_own_attributor(strategy):
    from repro.batch import BatchSession
    from repro.program.spec2000 import get_benchmark

    model = get_benchmark("181.mcf", 0.01)
    session = BatchSession(binary=model.binary, attribution=strategy)
    session.add_lane()
    assert session._slots is None
