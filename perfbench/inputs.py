"""Seeded inputs: per-lane sample streams cut into one-interval chunks.

Everything the program receives is made here from ``--seed``: the same
seed gives the same arrays.  Each lane gets its own simulated PMU run
(a distinct PMU seed per lane), which is cut into per-round chunks on
the clean stream's interval boundaries.  A round feeds every lane the
chunk for that round; chunks are reused cyclically, so a run can last
as many rounds as the host allows without simulating more.

A faulted lane is cut on the same cycle windows as its clean twin, so
it receives fewer samples per round and completes intervals on other
rounds than its neighbours: a ragged fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.faults as faults
from repro.faults.model import FaultPlan, SampleDrop
from repro.program.spec2000 import get_benchmark
from repro.sampling import pmu

#: The paper's base sampling period (cycles per interrupt).
PERIOD = 45_000
#: Samples per interval (the paper's 2032-sample buffer).
INTERVAL = 2032
#: Fault plan of every fourth ``churn-gap`` lane: 20% bursty loss.
DROP_PLAN = FaultPlan((SampleDrop(rate=0.20, burst_mean=4.0),))
#: Every FAULTED_EVERY-th lane (index % 4 == 3) runs behind DROP_PLAN.
FAULTED_EVERY = 4
#: Lanes simulated per timed set-up step (see ``build_fleet``).
LANES_PER_STEP = 4
#: Kernel-space PC base of the hostile stream (an x86-64 kernel text
#: address); as int64 it wraps to a negative address.
KERNEL_PC = 0xFFFFFFFF81000000


@dataclass
class Fleet:
    """One workload's inputs: a benchmark model and per-round blocks.

    ``blocks[c]`` is a ``(lanes, INTERVAL)`` int64 array, row i holding
    lane i's samples for cycle position c in its first ``lengths[c][i]``
    entries (the rest is padding).  Round r uses position
    ``r % len(blocks)``.
    """

    model: object
    blocks: list[np.ndarray]
    lengths: list[np.ndarray]

    def round(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        c = r % len(self.blocks)
        return self.blocks[c], self.lengths[c]

    def lane_chunk(self, r: int, lane: int) -> np.ndarray:
        block, lengths = self.round(r)
        return block[lane, :lengths[lane]]


def pmu_seed(seed: int, lane: int) -> int:
    """The PMU seed of one lane: distinct per lane and per run seed."""
    return seed * 100_003 + lane


def build_fleet(benchmark: str, scale: float, lanes: int, seed: int,
                faulted_every: int, timed) -> Fleet:
    """Simulate *lanes* streams of *benchmark* and cut them into rounds.

    Every step goes through ``timed(fn, *args)`` (``Normalizer.time``),
    a few lanes at a time, so a set-up is rescaled by calibrations taken
    all through it.  Module attributes are looked up at call time, so
    the traced run can time the simulation and injection layers by
    wrapping them.
    """
    model = timed(get_benchmark, benchmark, scale)
    per_lane: list[list[np.ndarray]] = []
    for first in range(0, lanes, LANES_PER_STEP):
        per_lane += timed(_cut_lanes, model, seed, faulted_every,
                          range(first, min(first + LANES_PER_STEP, lanes)))
    return timed(_assemble, model, per_lane)


def _cut_lanes(model, seed: int, faulted_every: int,
               lanes: range) -> list[list[np.ndarray]]:
    """Simulate, fault and cut the given lanes' streams."""
    per_lane = []
    for lane in lanes:
        stream = pmu.simulate_sampling(model.regions, model.workload,
                                       PERIOD, seed=pmu_seed(seed, lane))
        count = (stream.n_samples - 1) // INTERVAL
        edges = stream.cycles[np.arange(count + 1) * INTERVAL]
        if faulted_every and lane % faulted_every == faulted_every - 1:
            stream = faults.inject(stream, DROP_PLAN,
                                   seed=pmu_seed(seed, lane))
        cuts = np.searchsorted(stream.cycles, edges)
        pcs = stream.pcs.astype(np.int64, copy=False)
        per_lane.append([pcs[cuts[k]:cuts[k + 1]] for k in range(count)])
    return per_lane


def _assemble(model, per_lane: list[list[np.ndarray]]) -> Fleet:
    """Pack the lanes' chunks into one padded block per round."""
    n_chunks = min(len(chunks) for chunks in per_lane)
    blocks = []
    lengths = []
    for c in range(n_chunks):
        block = np.zeros((len(per_lane), INTERVAL), dtype=np.int64)
        length = np.zeros(len(per_lane), dtype=np.int64)
        for lane, chunks in enumerate(per_lane):
            chunk = chunks[c]
            block[lane, :chunk.size] = chunk
            length[lane] = chunk.size
        blocks.append(block)
        lengths.append(length)
    return Fleet(model=model, blocks=blocks, lengths=lengths)


def hostile_batch() -> np.ndarray:
    """One interval of uint64 kernel-space PCs, the same on every seed."""
    return (np.uint64(KERNEL_PC)
            + np.arange(INTERVAL, dtype=np.uint64) * np.uint64(4))
