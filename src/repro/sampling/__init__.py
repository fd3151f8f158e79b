"""PMU sampling substrate: sample records, the user buffer, the simulator."""

from repro.sampling.buffer import OverflowHandler, SampleBuffer, checked_pcs
from repro.sampling.events import Sample, SampleStream
from repro.sampling.pmu import PMUSimulator, simulate_sampling

__all__ = [
    "OverflowHandler",
    "SampleBuffer",
    "checked_pcs",
    "Sample",
    "SampleStream",
    "PMUSimulator",
    "simulate_sampling",
]
