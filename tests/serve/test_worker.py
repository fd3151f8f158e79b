"""In-process ShardWorker: delivery discipline, snapshots, restore."""

import numpy as np
import pytest

from tests.conftest import model_stream

from repro.errors import SnapshotError
from repro.faults.service import ServiceFaultPlan, TornSnapshot, WorkerCrash
from repro.serve import ServeConfig, ShardWorker
from repro.serve.messages import Batch
from repro.serve.snapshot import SnapshotStore, read_snapshot

N_BATCHES = 6
BATCH_INTERVALS = 2


@pytest.fixture
def setup(tmp_path):
    model, stream = model_stream("181.mcf")
    config = ServeConfig(binary=model.binary, n_shards=1,
                         snapshot_every=2)
    streams = ("alpha", "beta")
    budget = N_BATCHES * BATCH_INTERVALS * 2032
    chunks = [np.asarray(c, dtype=np.int64) for c in
              np.array_split(stream.pcs[:budget], N_BATCHES)]
    batches = []
    for i, chunk in enumerate(chunks):
        batches.append(Batch(seq=2 * i, stream="alpha", stream_seq=i,
                             samples=chunk))
        batches.append(Batch(seq=2 * i + 1, stream="beta", stream_seq=i,
                             samples=chunk))
    return config, streams, batches


def make_worker(tmp_path, config, streams, faults=None, subdir="snaps"):
    store = SnapshotStore(tmp_path / subdir, shard_id=0,
                          keep=config.snapshot_keep)
    return ShardWorker(0, streams, config, store, faults)


class TestDeliveryDiscipline:
    def test_in_order_batches_apply_immediately(self, tmp_path, setup):
        config, streams, batches = setup
        worker = make_worker(tmp_path, config, streams)
        for message in batches:
            ack = worker.handle_batch(message)
            assert ack.seq == message.seq
            assert [a.stream_seq for a in ack.applied] == \
                [message.stream_seq]
        assert worker.seen_through == batches[-1].seq
        assert worker.stream_seqs == {"alpha": N_BATCHES,
                                      "beta": N_BATCHES}

    def test_invalid_delivery_is_consumed_and_counted(self, tmp_path,
                                                      setup):
        # Only a delivery that bypassed submit's validation can carry
        # out-of-range PCs; the worker must neither apply nor crash on
        # it, and the stream must keep flowing.
        config, streams, batches = setup
        worker = make_worker(tmp_path, config, streams)
        hostile = Batch(seq=0, stream="alpha", stream_seq=0,
                        samples=np.full(2032, -8, dtype=np.int64))
        ack = worker.handle_batch(hostile)
        assert [(a.stream_seq, a.intervals, a.events)
                for a in ack.applied] == [(0, 0, ())]
        assert worker.rejected_batches == 1
        lane = worker.session.lanes[0]
        assert lane.stats.samples == 0 and lane.pending_samples == 0
        follow = batches[2]  # alpha's stream_seq 1
        assert worker.handle_batch(
            Batch(seq=1, stream="alpha", stream_seq=1,
                  samples=follow.samples)).applied[0].intervals > 0

    def test_duplicates_are_acked_but_not_reapplied(self, tmp_path, setup):
        config, streams, batches = setup
        worker = make_worker(tmp_path, config, streams)
        first = worker.handle_batch(batches[0])
        again = worker.handle_batch(batches[0])
        assert len(first.applied) == 1
        assert again.applied == ()
        assert worker.stream_seqs["alpha"] == 1

    def test_early_arrivals_are_stashed_then_drained(self, tmp_path, setup):
        config, streams, batches = setup
        worker = make_worker(tmp_path, config, streams)
        alpha = [m for m in batches if m.stream == "alpha"][:3]
        # Deliver 2, 1, 0: nothing applies until the gap at 0 fills.
        assert worker.handle_batch(alpha[2]).applied == ()
        assert worker.handle_batch(alpha[1]).applied == ()
        final = worker.handle_batch(alpha[0])
        assert [a.stream_seq for a in final.applied] == [0, 1, 2]
        assert worker.stash.get("alpha", {}) == {}

    def test_reordered_run_matches_in_order_run(self, tmp_path, setup):
        config, streams, batches = setup

        def per_stream_events(worker, deliveries):
            events = {stream: [] for stream in streams}
            for message in deliveries:
                for applied in worker.handle_batch(message).applied:
                    events[applied.stream].extend(applied.events)
            return events

        ordered = make_worker(tmp_path, config, streams, subdir="a")
        shuffled = make_worker(tmp_path, config, streams, subdir="b")
        permuted = batches[::2][::-1] + batches[1::2]
        assert per_stream_events(ordered, batches) == \
            per_stream_events(shuffled, permuted)


class TestSnapshotRestore:
    def test_restore_resumes_bit_identically(self, tmp_path, setup):
        config, streams, batches = setup
        half = len(batches) // 2
        reference = make_worker(tmp_path, config, streams, subdir="ref")
        reference_acks = [reference.handle_batch(m) for m in batches]

        crashed = make_worker(tmp_path, config, streams, subdir="crashed")
        for message in batches[:half]:
            crashed.handle_batch(message)
        crashed.take_snapshot()
        del crashed

        revived = make_worker(tmp_path, config, streams, subdir="crashed")
        assert revived.restored_seq == batches[half - 1].seq
        revived_acks = [revived.handle_batch(m) for m in batches[half:]]
        assert revived_acks == reference_acks[half:]

    def test_restore_replays_overlap_without_double_apply(self, tmp_path,
                                                          setup):
        config, streams, batches = setup
        worker = make_worker(tmp_path, config, streams)
        for message in batches[:4]:
            worker.handle_batch(message)
        worker.take_snapshot()
        for message in batches[4:]:
            worker.handle_batch(message)
        reference_seqs = dict(worker.stream_seqs)
        del worker

        revived = make_worker(tmp_path, config, streams)
        # A stale in-flight overlap: replay everything from genesis.
        replay_acks = [revived.handle_batch(m) for m in batches]
        assert all(a.applied == () for a in replay_acks[:4])
        assert revived.stream_seqs == reference_seqs

    def test_snapshot_carries_the_stash(self, tmp_path, setup):
        config, streams, batches = setup
        worker = make_worker(tmp_path, config, streams)
        alpha = [m for m in batches if m.stream == "alpha"]
        worker.handle_batch(alpha[0])
        worker.handle_batch(alpha[2])  # parked: waits for stream_seq 1
        worker.take_snapshot()
        del worker

        revived = make_worker(tmp_path, config, streams)
        ack = revived.handle_batch(alpha[1])
        assert [a.stream_seq for a in ack.applied] == [1, 2]

    def test_lane_topology_mismatch_forces_genesis(self, tmp_path, setup):
        config, streams, batches = setup
        worker = make_worker(tmp_path, config, streams)
        worker.handle_batch(batches[0])
        worker.take_snapshot()
        store = worker.store
        del worker

        regrown = ShardWorker(0, ("alpha", "beta", "gamma"), config, store)
        assert regrown.restored_seq == -1

    def test_periodic_snapshot_cadence(self, tmp_path, setup):
        config, streams, batches = setup
        worker = make_worker(tmp_path, config, streams)
        assert not worker.snapshot_due
        worker.handle_batch(batches[0])
        assert not worker.snapshot_due
        worker.handle_batch(batches[1])
        assert worker.snapshot_due  # snapshot_every=2
        worker.take_snapshot()
        assert not worker.snapshot_due

    def test_snapshot_discards_the_observation_step_logs(self, tmp_path,
                                                         setup):
        # The banks' lazy observation logs grow with every interval;
        # snapshotting must shed them or snapshot size and cost scale
        # with worker uptime instead of fleet state.
        config, streams, batches = setup
        worker = make_worker(tmp_path, config, streams)
        for message in batches[:4]:
            worker.handle_batch(message)
        assert worker.session.gpd_bank._log
        worker.take_snapshot()
        assert worker.session.gpd_bank._log == []
        assert worker.session.lpd_bank._log == []


class TestInjectedFaults:
    def test_torn_snapshot_leaves_a_detectable_wreck(self, tmp_path, setup):
        config, streams, batches = setup
        plan = ServiceFaultPlan((TornSnapshot(shard=0, at_seq=0,
                                              truncate=0.5),))
        worker = make_worker(tmp_path, config, streams, faults=plan)
        worker.handle_batch(batches[0])
        with pytest.raises(SnapshotError, match="torn"):
            worker.take_snapshot()
        torn_path = worker.store.path_for(worker.seen_through)
        assert torn_path.exists()
        with pytest.raises(SnapshotError):
            read_snapshot(torn_path)
        # Recovery falls past the wreck to genesis.
        revived = make_worker(tmp_path, config, streams)
        assert revived.restored_seq == -1

    def test_torn_spec_on_another_shard_is_inert(self, tmp_path, setup):
        config, streams, batches = setup
        plan = ServiceFaultPlan((TornSnapshot(shard=3, at_seq=0),))
        worker = make_worker(tmp_path, config, streams, faults=plan)
        worker.handle_batch(batches[0])
        worker.handle_batch(batches[1])
        written = worker.take_snapshot()
        assert written.seq == worker.seen_through

    def test_crash_spec_lookup_keys_on_sequence(self, tmp_path, setup):
        config, streams, _ = setup
        plan = ServiceFaultPlan((WorkerCrash(shard=0, at_seq=7),
                                 WorkerCrash(shard=1, at_seq=3)))
        worker = make_worker(tmp_path, config, streams, faults=plan)
        assert worker.crash_spec_for(7) is not None
        assert worker.crash_spec_for(3) is None  # other shard's fault
        assert worker.crash_spec_for(8) is None
