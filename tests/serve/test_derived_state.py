"""Snapshot hygiene: derived region-layer state never enters a snapshot.

A ``BatchSession`` keeps a slot table over every lane's regions (fleet
attribution) and a formation memo shared by every lane.  Both are derived
from the lanes' registries and the binary, so pickled sessions and shard
snapshots must carry neither, and a worker restored from a snapshot must
rebuild them lazily and continue bit-identically.
"""

import pickle

import numpy as np
import pytest

from tests.conftest import model_stream

from repro.batch import BatchSession
from repro.serve import ServeConfig, ShardWorker
from repro.serve.messages import Batch
from repro.serve.snapshot import SnapshotStore

#: Class names of the derived state; none may appear in a pickle.
DERIVED = (b"SlotTable", b"_CellIndex", b"_LaneSlots", b"SeedSpans")

N_ROUNDS = 8


def assert_no_derived_state(blob: bytes) -> None:
    for name in DERIVED:
        assert name not in blob, name.decode()


@pytest.fixture
def mcf():
    model, stream = model_stream("181.mcf")
    chunks = np.array_split(stream.pcs[:N_ROUNDS * 2 * 2032], N_ROUNDS)
    return model, [np.asarray(c, dtype=np.int64) for c in chunks]


def test_pickled_session_carries_no_table_or_memo(mcf):
    model, chunks = mcf
    session = BatchSession(binary=model.binary)
    for _ in range(3):
        session.add_lane()
    for chunk in chunks[:4]:
        session.feed(np.stack([chunk] * 3))
    assert session._slots.n_columns > 0
    assert len(session._seed_spans) > 0

    blob = pickle.dumps(session)
    assert_no_derived_state(blob)
    restored = pickle.loads(blob)
    memos = {id(lane.monitor.formation.seed_spans)
             for lane in restored.lanes}
    assert len(memos) == 1  # one memo, shared again by every lane
    assert len(restored._seed_spans) == 0  # rebuilt lazily
    for chunk in chunks[4:]:
        block = np.stack([chunk] * 3)
        assert restored.feed(block) == session.feed(block)
    for a, b in zip(session.lanes, restored.lanes):
        assert a.reports == b.reports
        assert a.monitor.ledger == b.monitor.ledger


def test_restored_worker_continues_bit_identically(tmp_path, mcf):
    model, chunks = mcf
    config = ServeConfig(binary=model.binary, n_shards=1,
                         snapshot_every=10_000)
    streams = ("alpha", "beta")
    batches = [Batch(seq=2 * i + j, stream=stream, stream_seq=i,
                     samples=chunk)
               for i, chunk in enumerate(chunks)
               for j, stream in enumerate(streams)]
    half = len(batches) // 2

    def worker(subdir):
        store = SnapshotStore(tmp_path / subdir, shard_id=0,
                              keep=config.snapshot_keep)
        return ShardWorker(0, streams, config, store)

    reference = worker("reference")
    reference_acks = [reference.handle_batch(m) for m in batches]

    crashed = worker("crashed")
    for message in batches[:half]:
        crashed.handle_batch(message)
    written = crashed.take_snapshot()
    with open(written.path, "rb") as handle:
        assert_no_derived_state(handle.read())
    del crashed

    revived = worker("crashed")
    assert revived.restored_seq == batches[half - 1].seq
    assert [revived.handle_batch(m) for m in batches[half:]] \
        == reference_acks[half:]
    for a, b in zip(reference.session.lanes, revived.session.lanes):
        assert a.reports == b.reports
        assert a.monitor.ledger == b.monitor.ledger
        assert a.monitor.all_regions() == b.monitor.all_regions()
