"""Fleet-scale benchmarks: the batch backend vs the scalar detectors.

The batch backend exists for multi-tenant monitoring — N streams, each
with a handful of region detectors plus a global detector, advanced in
lockstep.  These benchmarks time the *detector-stepping* stage alone at
fleet sizes of 64, 256 and 1024 streams, feeding both paths identical
inputs.  The region layer in front of it — one fleet-wide
:class:`~repro.regions.attribution.SlotTable` attribution pass per
round, then per-lane formation and accounting — is measured end to end
by ``perfbench/`` (``lockstep-mcf`` and ``churn-gap``).  Detector allocation happens in benchmark
setup for both paths, so the medians compare stepping throughput alone;
the batch path steps pinned row groups
(:meth:`~repro.batch.lpd.BatchLpdBank.observe_grouped` /
:meth:`~repro.batch.gpd.BatchGpdBank.observe_block`), the production
fast path a lockstep :class:`~repro.batch.session.BatchSession` runs.

``scripts/bench_compare.py`` gates on the 256-stream pair: the batch
path must hold at least a 25x throughput advantage over the scalar loop
(``FLEET_SPEEDUP_FLOOR`` there) and an absolute stream-interval
throughput floor (``FLEET_THROUGHPUT_FLOOR``); each batch benchmark
records its measured ``stream_intervals_per_sec`` in ``extra_info``.
The bit-equality of the two paths is proven separately by
``tests/batch/``.
"""

import numpy as np
import pytest

from conftest import STEADY_ROUNDS

from repro.batch import BatchGpdBank, BatchLpdBank
from repro.core.gpd import GlobalPhaseDetector
from repro.core.lpd import LocalPhaseDetector

#: Region detector rows per stream and their histogram widths — a fleet
#: runs one binary, so widths repeat across streams (which is what lets
#: the bank form dense same-width groups).
WIDTHS = (12, 16, 20, 24, 28, 32, 48, 64)
#: GPD sample-buffer length per interval.
BUFFER = 504
#: Intervals stepped per timed run.
INTERVALS = 24
#: Distinct pre-generated interval inputs, cycled (bounds setup memory).
CYCLE = 8

FLEET_SIZES = [64, 256, 1024]
SCALAR_SIZES = [64, 256]  # the 1024-stream scalar loop is too slow to time


def _fleet_inputs(n_streams):
    """Identical per-interval inputs for both paths, cycled."""
    rng = np.random.default_rng(7)
    lpd_cycle = [
        {w: rng.integers(1, 50, size=(n_streams, w)).astype(np.float64)
         for w in WIDTHS}
        for _ in range(CYCLE)]
    gpd_cycle = [
        rng.integers(0x4000_0000, 0x4100_0000, size=(n_streams, BUFFER))
        for _ in range(CYCLE)]
    return lpd_cycle, gpd_cycle


def _scalar_fleet(n_streams):
    lpds = [[LocalPhaseDetector(w) for w in WIDTHS]
            for _ in range(n_streams)]
    gpds = [GlobalPhaseDetector() for _ in range(n_streams)]
    return lpds, gpds


def _run_scalar(lpds, gpds, lpd_cycle, gpd_cycle):
    for interval in range(INTERVALS):
        blocks = lpd_cycle[interval % CYCLE]
        buffers = gpd_cycle[interval % CYCLE]
        for stream, (row, gpd) in enumerate(zip(lpds, gpds)):
            for j, width in enumerate(WIDTHS):
                row[j].observe(blocks[width][stream], interval)
            gpd.observe_buffer(buffers[stream])
    return gpds


def _batch_fleet(n_streams):
    """Banks with pinned groups: the coalesced fleet fast path."""
    lpd_bank = BatchLpdBank()
    lpd_groups = {
        w: lpd_bank.make_group(lpd_bank.add_detectors(w, n_streams))
        for w in WIDTHS}
    gpd_bank = BatchGpdBank()
    gpd_views = gpd_bank.add_detectors(n_streams)
    gpd_group = gpd_bank.make_group(gpd_views)
    return lpd_bank, lpd_groups, gpd_bank, gpd_group, gpd_views


def _run_batch(lpd_bank, lpd_groups, gpd_bank, gpd_group, gpd_views,
               lpd_cycle, gpd_cycle):
    for interval in range(INTERVALS):
        blocks = lpd_cycle[interval % CYCLE]
        for width, group in lpd_groups.items():
            lpd_bank.observe_grouped(group, blocks[width], interval)
        gpd_bank.observe_block(gpd_group, gpd_cycle[interval % CYCLE])
    return gpd_views


def _throughput(benchmark, n_streams) -> None:
    try:
        median = benchmark.stats.stats.median
    except AttributeError:  # pragma: no cover - harness internals moved
        return
    if median > 0:
        benchmark.extra_info["stream_intervals_per_sec"] = round(
            n_streams * INTERVALS / median, 1)


@pytest.mark.parametrize("n_streams", SCALAR_SIZES)
def test_fleet_step_scalar(benchmark, n_streams):
    lpd_cycle, gpd_cycle = _fleet_inputs(n_streams)

    def setup():
        lpds, gpds = _scalar_fleet(n_streams)
        return (lpds, gpds, lpd_cycle, gpd_cycle), {}

    gpds = benchmark.pedantic(_run_scalar, setup=setup,
                              rounds=STEADY_ROUNDS, iterations=1)
    assert all(g.intervals_seen == INTERVALS for g in gpds)
    _throughput(benchmark, n_streams)


@pytest.mark.parametrize("n_streams", FLEET_SIZES)
def test_fleet_step_batch(benchmark, n_streams):
    lpd_cycle, gpd_cycle = _fleet_inputs(n_streams)

    def setup():
        banks = _batch_fleet(n_streams)
        return (*banks, lpd_cycle, gpd_cycle), {}

    views = benchmark.pedantic(_run_batch, setup=setup,
                               rounds=STEADY_ROUNDS, iterations=1)
    assert all(v.intervals_seen == INTERVALS for v in views)
    _throughput(benchmark, n_streams)
