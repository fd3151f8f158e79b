"""Hostile-input fuzzing of the three sample entry points.

``OnlineSession.feed_many``, ``BatchLane.feed_many`` and
``FleetSupervisor.submit`` share one validator.  Over every integer dtype
from int8 to uint64, any shape and the dtype's whole range, each must
accept exactly the one-dimensional, non-empty batches of valid addresses
— keeping every value, never wrapping one — and reject the rest with a
:class:`~repro.errors.SamplingError` whose message names the reason and
reads the same on all three paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.batch import BatchSession
from repro.errors import SamplingError
from repro.monitor.online import OnlineSession
from repro.serve import FleetSupervisor, ServeConfig
from tests.conftest import model_stream

DTYPES = [np.int8, np.int16, np.int32, np.int64,
          np.uint8, np.uint16, np.uint32, np.uint64]
INT64_MAX = 2**63 - 1

batches = st.sampled_from(DTYPES).flatmap(
    lambda dtype: arrays(dtype, array_shapes(min_dims=0, max_dims=2,
                                             min_side=0, max_side=6)))


def expected_reason(pcs):
    """The rejection reason, worked out from the values alone."""
    if pcs.ndim != 1:
        return "1-D sample batch"
    if pcs.size == 0:
        return "empty batch"
    values = [int(v) for v in pcs]
    if min(values) < 0:
        return "(negative-pc)"
    if max(values) > INT64_MAX:
        return "(pc-out-of-range)"
    return None


def rejection(call, pcs):
    try:
        call(pcs)
    except SamplingError as error:
        return str(error)
    return None


@pytest.fixture(scope="module")
def supervisor(tmp_path_factory):
    model, _ = model_stream("181.mcf")
    fleet = FleetSupervisor(ServeConfig(binary=model.binary, n_shards=1),
                            ["s"], str(tmp_path_factory.mktemp("snaps")))
    yield fleet
    fleet.shutdown(graceful=False)


@given(batches)
@settings(max_examples=300, deadline=None)
def test_entry_points_agree_on_every_batch(supervisor, pcs):
    online = OnlineSession(binary=None, run_gpd=True)
    session = BatchSession(binary=None, run_gpd=True)
    lane = session.add_lane()
    reason = expected_reason(pcs)

    online_error = rejection(online.feed_many, pcs)
    lane_error = rejection(lane.feed_many, pcs)
    assert lane_error == online_error
    if reason is None:
        assert online_error is None
        assert online.pending_samples == lane.pending_samples == pcs.size
        queued = session._ring.data[0, :pcs.size]
        assert queued.tolist() == [int(v) for v in pcs]
        return  # a valid batch: the unstarted fleet is not fed
    assert online_error is not None and reason in online_error
    assert online_error.startswith("feed_many ")
    assert online.stats.samples == lane.stats.samples == 0
    submit_error = rejection(lambda b: supervisor.submit("s", b), pcs)
    assert submit_error == online_error.replace("feed_many", "submit", 1)
    assert supervisor.submitted_batches == 0


def test_kernel_space_pcs_are_rejected_not_wrapped(supervisor):
    hostile = np.uint64(0xFFFFFFFF81000000) \
        + np.arange(8, dtype=np.uint64) * np.uint64(4)
    with pytest.raises(SamplingError, match=r"pc-out-of-range.*0xffffffff8"):
        supervisor.submit("s", hostile)
    with pytest.raises(SamplingError, match="negative-pc"):
        OnlineSession(binary=None).feed_many(hostile.astype(np.int64))
    assert supervisor.submitted_batches == 0
