"""Shard worker: one process owning one ``BatchSession`` shard.

A worker's life is a loop over its input queue: apply
:class:`~repro.serve.messages.Batch` messages to the shard's
:class:`~repro.batch.session.BatchSession`, acknowledge every delivery,
snapshot periodically, and exit cleanly on
:class:`~repro.serve.messages.Shutdown` or SIGTERM/SIGINT (both write a
final snapshot first).

Determinism under redelivery is the worker's core job.  Per stream it
keeps a delivery cursor (the next expected ``stream_seq``): repeats are
dropped (but still acked), early arrivals are parked in a stash and
drained the moment their gap fills, so a stream's batches are *applied*
in exact submission order no matter how crashes, journal replays, stale
in-flight messages, duplicate or reordered deliveries interleave.
Combined with snapshots that carry the cursors, the stash and the event
extraction cursors, a respawned worker re-emits exactly the event
deltas its predecessor produced — which the supervisor verifies
record-for-record.

Chaos hooks: the worker honors the shard's
:class:`~repro.faults.service.ServiceFaultPlan` — deterministic
self-kills (``worker-crash``), torn snapshot writes followed by death
(``torn-snapshot``), and consumption stalls (``queue-stall``).  Faults
key on the shard-local dispatch sequence, so runs are reproducible.
"""

from __future__ import annotations

import os
import queue
import signal
import time
from types import FrameType
from typing import Any

import numpy as np

from repro.batch.session import BatchLane, BatchSession
from repro.errors import SamplingError, SnapshotError
from repro.faults.service import (QueueStall, ServiceFaultPlan,
                                  TornSnapshot, WorkerCrash)
from repro.serve.config import ServeConfig
from repro.serve.events import EventCursor, extract_lane_events
from repro.serve.messages import (AppliedBatch, Batch, BatchAck, Shutdown,
                                  SnapshotWritten, WorkerStarted)
from repro.serve.snapshot import (ShardSnapshot, SnapshotStore,
                                  encode_snapshot)
from repro.telemetry.bus import EventBus

__all__ = ["ShardWorker", "worker_main", "CRASH_EXIT_CODE"]

#: Exit status of a fault-injected self-kill (mirrors SIGKILL's 128+9).
CRASH_EXIT_CODE = 137


def build_shard_session(config: ServeConfig,
                        streams: tuple[str, ...]) -> BatchSession:
    """A fresh shard session with one lane per stream, in stream order.

    The session gets its own disabled :class:`EventBus` — never the
    process-global bus — so snapshots stay picklable regardless of what
    sinks the host process has attached, and telemetry stays per-worker
    (telemetry is result-inert, so a restored session with a fresh bus
    is still bit-identical).
    """
    session = BatchSession(
        binary=config.binary,
        monitor_thresholds=config.monitor_thresholds,
        gpd_thresholds=config.gpd_thresholds,
        run_gpd=config.run_gpd,
        watchdog=config.watchdog,
        telemetry=EventBus())
    for stream in streams:
        session.add_lane(name=stream)
    return session


class ShardWorker:
    """The in-process core of one shard worker (testable without mp)."""

    def __init__(self, shard_id: int, streams: tuple[str, ...],
                 config: ServeConfig, store: SnapshotStore,
                 faults: ServiceFaultPlan | None = None) -> None:
        self.shard_id = shard_id
        self.streams = tuple(streams)
        self.config = config
        self.store = store
        shard_plan = (faults or ServiceFaultPlan()).for_shard(shard_id)
        self._crashes = sorted(shard_plan.of_kind(WorkerCrash.kind),
                               key=lambda spec: spec.at_seq)
        self._tears = sorted(shard_plan.of_kind(TornSnapshot.kind),
                             key=lambda spec: spec.at_seq)
        self._stalls = {spec.at_seq: spec
                        for spec in shard_plan.of_kind(QueueStall.kind)}
        self._stalled: set[int] = set()
        #: Deliveries rejected as invalid sample batches by this
        #: incarnation (not persisted in snapshots).
        self.rejected_batches = 0
        self.restored_seq = self._restore()

    # -- state ----------------------------------------------------------------

    def _genesis(self) -> None:
        self.session = build_shard_session(self.config, self.streams)
        self.seen_through = -1
        self._seen_ahead: set[int] = set()
        self.stream_seqs: dict[str, int] = {s: 0 for s in self.streams}
        self.stash: dict[str, dict[int, np.ndarray]] = {}
        self.cursors: dict[str, EventCursor] = {
            s: EventCursor() for s in self.streams}
        self._since_snapshot = 0

    def _restore(self) -> int:
        """Adopt the newest restorable snapshot; -1 on a genesis start."""
        loaded = self.store.load_latest()
        if loaded is not None:
            snapshot, _ = loaded
            if snapshot.lane_names == self.streams:
                self.session = snapshot.session
                self.seen_through = snapshot.applied_through
                self._seen_ahead = set()
                self.stream_seqs = dict(snapshot.stream_seqs)
                self.stash = {stream: dict(parked) for stream, parked
                              in snapshot.stash.items()}
                self.cursors = dict(snapshot.event_cursors)
                self._since_snapshot = 0
                return self.seen_through
        self._genesis()
        return -1

    def _lane(self, stream: str) -> BatchLane:
        return self.session.lanes[self.streams.index(stream)]

    # -- batch application ----------------------------------------------------

    def _note_seq(self, seq: int) -> None:
        """Advance the contiguous delivery high-water mark."""
        if seq <= self.seen_through:
            return  # a replayed or stale redelivery
        self._seen_ahead.add(seq)
        while self.seen_through + 1 in self._seen_ahead:
            self.seen_through += 1
            self._seen_ahead.discard(self.seen_through)

    def _apply(self, stream: str, stream_seq: int,
               samples: np.ndarray) -> AppliedBatch:
        lane = self._lane(stream)
        before = lane.stats.intervals
        try:
            lane.feed_many(samples)
        except SamplingError:
            # The supervisor validates every batch on submit, so only a
            # delivery that bypassed it gets here.  It is consumed (the
            # stream's cursor advances, so the stream is not wedged and a
            # replay cannot crash-loop the worker) and counted, never
            # applied.
            self.rejected_batches += 1
        else:
            self.session.process_ready()
        events, self.cursors[stream] = extract_lane_events(
            lane, self.cursors[stream])
        self.stream_seqs[stream] = stream_seq + 1
        self._since_snapshot += 1
        return AppliedBatch(stream=stream, stream_seq=stream_seq,
                            events=events,
                            intervals=lane.stats.intervals - before)

    def handle_batch(self, message: Batch) -> BatchAck:
        """Apply one delivery (dedupe/stash/drain); always returns an ack."""
        stall = self._stalls.get(message.seq)
        if stall is not None and message.seq not in self._stalled:
            self._stalled.add(message.seq)
            time.sleep(stall.stall_seconds)  # the injected consumer stall
        self._note_seq(message.seq)
        stream = message.stream
        applied: list[AppliedBatch] = []
        expected = self.stream_seqs.get(stream, 0)
        if message.stream_seq < expected:
            pass  # duplicate delivery: ack with nothing applied
        elif message.stream_seq > expected:
            self.stash.setdefault(stream, {})[message.stream_seq] = \
                np.array(message.samples, dtype=np.int64)
        else:
            applied.append(self._apply(stream, message.stream_seq,
                                       message.samples))
            parked = self.stash.get(stream)
            while parked:
                up_next = self.stream_seqs[stream]
                if up_next not in parked:
                    break
                applied.append(self._apply(stream, up_next,
                                           parked.pop(up_next)))
        return BatchAck(shard=self.shard_id, seq=message.seq,
                        applied=tuple(applied))

    # -- snapshots ------------------------------------------------------------

    @property
    def snapshot_due(self) -> bool:
        return self._since_snapshot >= self.config.snapshot_every

    def _pending_tear(self) -> TornSnapshot | None:
        for spec in self._tears:
            if spec.at_seq <= self.seen_through:
                return spec
        return None

    def take_snapshot(self) -> SnapshotWritten:
        """Persist the current state; raises on an injected torn write."""
        # Serving consumes events through incremental extraction only;
        # the banks' lazy observation logs would otherwise grow the
        # snapshot (and its cost) linearly with worker uptime.
        self.session.discard_observation_history()
        snapshot = ShardSnapshot(
            shard_id=self.shard_id,
            applied_through=self.seen_through,
            stream_seqs=dict(self.stream_seqs),
            stash={stream: dict(parked)
                   for stream, parked in self.stash.items() if parked},
            event_cursors=dict(self.cursors),
            lane_names=self.streams,
            session=self.session)
        tear = self._pending_tear()
        if tear is not None:
            # The injected power-loss-mid-checkpoint: bypass the atomic
            # tmp+rename path and leave a truncated file at the final
            # name, exactly what recovery must detect and skip.
            blob = encode_snapshot(snapshot)
            torn = blob[:max(1, int(len(blob) * tear.truncate))]
            path = self.store.path_for(snapshot.applied_through)
            with open(path, "wb") as handle:
                handle.write(torn)
                handle.flush()
                os.fsync(handle.fileno())
            raise SnapshotError(
                f"shard {self.shard_id}: injected torn snapshot at seq "
                f"{snapshot.applied_through} ({len(torn)}/{len(blob)} "
                f"bytes)")
        path = self.store.save(snapshot)
        self._since_snapshot = 0
        return SnapshotWritten(shard=self.shard_id,
                               seq=snapshot.applied_through,
                               path=str(path),
                               n_bytes=path.stat().st_size)

    # -- fault queries ---------------------------------------------------------

    def crash_spec_for(self, seq: int) -> WorkerCrash | None:
        for spec in self._crashes:
            if spec.at_seq == seq:
                return spec
        return None


def _flush_and_die(out_q: Any) -> None:
    """Flush the output queue's feeder thread, then hard-exit.

    The injected failure mode is *process loss*, not queue corruption:
    a real crash can land between any two queue operations, but tearing
    a ``multiprocessing`` pipe mid-message is not a recoverable fault
    class (the receiver would see a deserialization error, not a lost
    message), so the harness always lets buffered messages drain before
    dying.
    """
    out_q.close()
    out_q.join_thread()
    os._exit(CRASH_EXIT_CODE)


def worker_main(shard_id: int, streams: tuple[str, ...],
                config: ServeConfig, snapshot_dir: str,
                faults: ServiceFaultPlan | None,
                in_q: Any, out_q: Any) -> None:
    """Process entry point for one shard worker incarnation."""
    terminated = {"flag": False}

    def _on_signal(signum: int, frame: FrameType | None) -> None:
        terminated["flag"] = True

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    store = SnapshotStore(snapshot_dir, shard_id,
                          keep=config.snapshot_keep)
    worker = ShardWorker(shard_id, tuple(streams), config, store, faults)
    # The output queue is unbounded (the supervisor's ctx.Queue() with
    # no maxsize), so these puts never block on capacity — only the
    # feeder thread writes the pipe, and it survives a dead reader.
    out_q.put(WorkerStarted(shard=shard_id,  # repro: allow[queue-no-timeout] unbounded output queue
                            restored_seq=worker.restored_seq,
                            lanes=worker.streams))
    while True:
        if terminated["flag"]:
            break
        try:
            message = in_q.get(timeout=0.05)
        except queue.Empty:
            continue
        if isinstance(message, Shutdown):
            if message.final_snapshot:
                out_q.put(worker.take_snapshot())  # repro: allow[queue-no-timeout] unbounded output queue
            return
        if not isinstance(message, Batch):
            continue  # unknown message: ignore, stay alive
        crash = worker.crash_spec_for(message.seq)
        if crash is not None and crash.before_ack:
            worker.handle_batch(message)
            _flush_and_die(out_q)
        ack = worker.handle_batch(message)
        out_q.put(ack)  # repro: allow[queue-no-timeout] unbounded output queue
        if crash is not None:
            _flush_and_die(out_q)
        if worker.snapshot_due:
            try:
                out_q.put(worker.take_snapshot())  # repro: allow[queue-no-timeout] unbounded output queue
            except SnapshotError:
                _flush_and_die(out_q)  # torn write == death mid-checkpoint
    # SIGTERM/SIGINT: persist a final snapshot, then exit cleanly.  The
    # on-disk snapshot is what recovery needs; the queue notice is only
    # advisory, and a terminating supervisor may never read it — so the
    # exit-time feeder flush must not be allowed to block (a full pipe
    # would turn this exit into a deadlock that the supervisor's own
    # unbounded interpreter-exit joins then inherit).
    out_q.put(worker.take_snapshot())  # repro: allow[queue-no-timeout] unbounded output queue
    out_q.cancel_join_thread()
