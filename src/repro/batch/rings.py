"""Preallocated per-shard ring buffers for zero-copy interval ingestion.

A :class:`ShardRing` owns one int64 matrix with a row per lane: every
lane of a shard (a :class:`~repro.batch.session.BatchSession`) writes its
queued samples into its row instead of accumulating per-batch arrays.
Because the capacity is always a multiple of the interval size and reads
advance one whole interval at a time, a popped interval NEVER wraps —
:meth:`take_round` hands the consumer direct views into the matrix, and
when every ready lane is read-aligned (the lockstep fleet case) the
whole round is a single 2-D column slice feeding
:meth:`~repro.batch.gpd.BatchGpdBank.observe_block` with zero copies.

Ownership rule: a view returned by :meth:`take_round` (or one of its
rows) aliases ring storage that is considered free once popped.  It
stays valid until the next :meth:`push` on any of its lanes — sessions
consume a round completely before feeding more, which satisfies this by
construction.  Callers that retain interval samples beyond the round
must copy.  Writes may wrap (they split), and a push that outgrows the
ring re-linearizes every lane's unread samples to column zero, doubling
the capacity — amortized O(1) per sample, like the list-of-arrays queue
this replaces, but without the per-interval ``np.concatenate``.
"""

from __future__ import annotations

import numpy as np

from repro.batch.indexing import as_slice

__all__ = ["ShardRing"]

#: Default ring capacity, in intervals per lane.
_DEFAULT_INTERVALS = 4


class ShardRing:
    """Fixed-interval sample queues for all lanes of one shard."""

    def __init__(self, n_lanes: int, interval_size: int,
                 capacity_intervals: int = _DEFAULT_INTERVALS) -> None:
        if interval_size < 1:
            raise ValueError(
                f"interval size must be positive, got {interval_size}")
        if capacity_intervals < 1:
            raise ValueError(
                f"ring capacity must be at least one interval, got "
                f"{capacity_intervals}")
        self.interval_size = interval_size
        self.capacity = interval_size * capacity_intervals
        self.data = np.zeros((n_lanes, self.capacity), dtype=np.int64)
        self._read = np.zeros(n_lanes, dtype=np.int64)
        self._fill = np.zeros(n_lanes, dtype=np.int64)
        self._n_lanes = n_lanes

    @property
    def n_lanes(self) -> int:
        return self._n_lanes

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Serialize only logical state: per-lane unread samples.

        The preallocated matrix is scratch capacity — freed columns hold
        stale samples that are never read again — so a snapshot carries
        just each lane's unread run, re-linearized.  Restoring rebuilds
        the matrix at the same capacity with every read pointer at
        column zero; the unread sample *sequence*, which is the only
        thing :meth:`take_interval`/:meth:`take_round` ever observe, is
        preserved exactly.
        """
        self._materialize()
        unread = []
        for lane in range(self._n_lanes):
            fill = int(self._fill[lane])
            read = int(self._read[lane])
            first = min(fill, self.capacity - read)
            row = np.empty(fill, dtype=np.int64)
            row[:first] = self.data[lane, read:read + first]
            if first < fill:
                row[first:] = self.data[lane, :fill - first]
            unread.append(row)
        return {"interval_size": self.interval_size,
                "capacity": self.capacity, "unread": unread}

    def __setstate__(self, state: dict) -> None:
        self.interval_size = state["interval_size"]
        self.capacity = state["capacity"]
        unread = state["unread"]
        self.data = np.zeros((len(unread), self.capacity), dtype=np.int64)
        self._read = np.zeros(len(unread), dtype=np.int64)
        self._fill = np.zeros(len(unread), dtype=np.int64)
        self._n_lanes = len(unread)
        for lane, row in enumerate(unread):
            self.data[lane, :row.size] = row
            self._fill[lane] = row.size

    def add_lane(self) -> int:
        """Append one empty lane; returns its index.

        Amortized O(1).  The cursors keep spare entries (zero fill, so
        never ready) and grow geometrically; the sample matrix gains the
        new lanes' rows only when samples next move, with one copy for
        all lanes added since (see :meth:`_materialize`).
        """
        lane = self._n_lanes
        if lane == self._fill.size:
            spare = np.zeros(max(4, lane), dtype=np.int64)
            self._read = np.concatenate((self._read, spare))
            self._fill = np.concatenate((self._fill, spare))
        self._n_lanes = lane + 1
        return lane

    def _materialize(self) -> None:
        """Give every lane a matrix row before samples move.

        Grows to at least twice the old row count, so lanes added one at
        a time between pushes still cost O(1) amortized; lanes added
        together (a session's set-up) get exactly one row each.  New rows
        are left uninitialized: only written columns are ever read.
        """
        rows = self.data.shape[0]
        if rows < self._n_lanes:
            grown = np.empty((max(self._n_lanes, 2 * rows), self.capacity),
                             dtype=np.int64)
            grown[:rows] = self.data
            self.data = grown

    def fill(self, lane: int) -> int:
        """Unread samples currently queued for *lane*."""
        return int(self._fill[lane])

    def pending_intervals(self, lane: int) -> int:
        """Full intervals *lane* could pop right now."""
        return int(self._fill[lane]) // self.interval_size

    def ready_lanes(self) -> np.ndarray:
        """Indices of lanes holding at least one full interval."""
        return np.flatnonzero(self._fill >= self.interval_size)

    # -- writing -------------------------------------------------------------

    def _grow(self, needed: int) -> None:
        """Re-linearize every lane to column 0 in a larger matrix."""
        capacity = self.capacity
        while capacity < needed:
            capacity *= 2
        grown = np.zeros((self.data.shape[0], capacity), dtype=np.int64)
        for lane in range(self._n_lanes):
            fill = int(self._fill[lane])
            if fill == 0:
                continue
            read = int(self._read[lane])
            first = min(fill, self.capacity - read)
            grown[lane, :first] = self.data[lane, read:read + first]
            if first < fill:
                grown[lane, first:fill] = self.data[lane, :fill - first]
        self.data = grown
        self.capacity = capacity
        self._read[:] = 0

    def push(self, lane: int, pcs: np.ndarray) -> int:
        """Append samples to *lane*'s queue; returns pending intervals.

        Invalidates any views previously handed out for this ring (see
        the module ownership rule).
        """
        self._materialize()
        n = int(pcs.size)
        fill = int(self._fill[lane])
        if fill + n > self.capacity:
            self._grow(fill + n)
        write = (int(self._read[lane]) + fill) % self.capacity
        first = min(n, self.capacity - write)
        self.data[lane, write:write + first] = pcs[:first]
        if first < n:
            self.data[lane, :n - first] = pcs[first:]
        self._fill[lane] = fill + n
        return (fill + n) // self.interval_size

    # -- reading -------------------------------------------------------------

    def take_interval(self, lane: int) -> np.ndarray:
        """Pop one interval from *lane*; returns a view (never wraps)."""
        size = self.interval_size
        if self._fill[lane] < size:
            raise ValueError(
                f"lane {lane} holds {int(self._fill[lane])} samples; an "
                f"interval needs {size}")
        read = int(self._read[lane])
        view = self.data[lane, read:read + size]
        self._read[lane] = (read + size) % self.capacity
        self._fill[lane] -= size
        return view

    def take_round(self, lanes: np.ndarray) -> np.ndarray:
        """Pop one interval from each of *lanes*; returns a 2-D block.

        When all popped lanes share one read column — lockstep fleets
        always do — and form a contiguous range, the block is a direct
        view of ring storage; otherwise it is gathered with one
        vectorized copy (aligned, scattered lanes) or a per-lane loop
        (ragged read positions).
        """
        size = self.interval_size
        lanes = np.asarray(lanes, dtype=np.int64)
        if lanes.size == 0:
            return np.empty((0, size), dtype=np.int64)
        if np.any(self._fill[lanes] < size):
            short = lanes[self._fill[lanes] < size][0]
            raise ValueError(
                f"lane {int(short)} holds {int(self._fill[short])} "
                f"samples; an interval needs {size}")
        columns = self._read[lanes]
        start = int(columns[0])
        if np.all(columns == start):
            row_index = as_slice(lanes)
            if row_index is not None:
                block = self.data[row_index, start:start + size]
            else:
                block = self.data[lanes, start:start + size]
        else:
            block = np.empty((lanes.size, size), dtype=np.int64)
            for i, lane in enumerate(lanes):
                read = int(self._read[lane])
                block[i] = self.data[lane, read:read + size]
        self._read[lanes] = (columns + size) % self.capacity
        self._fill[lanes] -= size
        return block
