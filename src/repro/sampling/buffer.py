"""The user sample buffer with overflow delivery.

The paper's system accumulates PMU samples into a fixed-size user buffer
(2032 entries); "whenever the user buffer overflows", the buffered samples
are delivered to the phase detector / region monitor and the buffer is
reset.  This module models that contract for online (sample-at-a-time)
consumers; bulk experiments slice :class:`~repro.sampling.events.SampleStream`
directly, which is equivalent by construction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.thresholds import DEFAULT_BUFFER_SIZE
from repro.errors import SamplingError

#: Signature of an overflow consumer: receives the full PC buffer and the
#: interval index.
OverflowHandler = Callable[[np.ndarray, int], None]

#: Largest PC an int64 sample can carry.
_PC_MAX = int(np.iinfo(np.int64).max)


def checked_pcs(pcs: object, caller: str = "feed_many") -> np.ndarray:
    """A delivered sample batch as int64 PCs, or a named rejection.

    The batch must be a non-empty one-dimensional integer array of valid
    addresses.  Float PCs would be silently truncated, an empty batch is
    always a driver bug, and out-of-range PCs — negative values, or
    unsigned values above the int64 range such as uint64 kernel-space
    addresses — would wrap to other addresses, so each raises
    :class:`~repro.errors.SamplingError` whose message starts with
    *caller* and names the reason.  The range check is one min (signed
    dtypes) or max (64-bit unsigned dtypes) pass.
    """
    pcs = np.asarray(pcs)
    if pcs.ndim != 1:
        raise SamplingError(
            f"{caller} expects a 1-D sample batch, got shape {pcs.shape}")
    if pcs.size == 0:
        raise SamplingError(f"{caller} received an empty batch")
    kind = pcs.dtype.kind
    if kind not in "iu":
        raise SamplingError(
            f"{caller} expects integer PCs, got dtype {pcs.dtype}")
    if kind == "i":
        low = int(pcs.min())
        if low < 0:
            raise SamplingError(
                f"{caller} rejected the batch (negative-pc): PC {low} "
                f"is not an address")
    elif pcs.dtype.itemsize >= 8:
        high = int(pcs.max())
        if high > _PC_MAX:
            raise SamplingError(
                f"{caller} rejected the batch (pc-out-of-range): PC "
                f"{high:#x} exceeds the int64 range")
    return pcs.astype(np.int64, copy=False)


class SampleBuffer:
    """Fixed-capacity PC buffer that fires a handler on overflow.

    Parameters
    ----------
    capacity:
        Number of samples per interval (default: the paper's 2032).
    on_overflow:
        Called with ``(pcs, interval_index)`` every time the buffer fills.
    """

    def __init__(self, capacity: int = DEFAULT_BUFFER_SIZE,
                 on_overflow: OverflowHandler | None = None) -> None:
        if capacity < 1:
            raise SamplingError("buffer capacity must be positive")
        self.capacity = capacity
        self._store = np.empty(capacity, dtype=np.int64)
        self._fill = 0
        self._interval_index = 0
        self._handlers: list[OverflowHandler] = []
        if on_overflow is not None:
            self._handlers.append(on_overflow)

    # -- consumers -----------------------------------------------------------

    def subscribe(self, handler: OverflowHandler) -> None:
        """Register an additional overflow consumer."""
        self._handlers.append(handler)

    # -- producers -----------------------------------------------------------

    def push(self, pc: int) -> bool:
        """Add one sample; returns ``True`` if this push caused overflow."""
        self._store[self._fill] = pc
        self._fill += 1
        if self._fill == self.capacity:
            self._deliver()
            return True
        return False

    def push_many(self, pcs: np.ndarray) -> int:
        """Add a batch of samples; returns the number of overflows fired."""
        pcs = np.asarray(pcs, dtype=np.int64)
        overflows = 0
        offset = 0
        while offset < pcs.size:
            take = min(self.capacity - self._fill, pcs.size - offset)
            self._store[self._fill:self._fill + take] = \
                pcs[offset:offset + take]
            self._fill += take
            offset += take
            if self._fill == self.capacity:
                self._deliver()
                overflows += 1
        return overflows

    def _deliver(self) -> None:
        buffered = self._store.copy()
        index = self._interval_index
        self._interval_index += 1
        self._fill = 0
        for handler in self._handlers:
            handler(buffered, index)

    # -- inspection -----------------------------------------------------------

    @property
    def fill(self) -> int:
        """Samples currently buffered (always < capacity)."""
        return self._fill

    @property
    def intervals_delivered(self) -> int:
        """Number of overflows fired so far."""
        return self._interval_index

    def pending(self) -> np.ndarray:
        """Copy of the samples buffered since the last overflow."""
        return self._store[:self._fill].copy()
