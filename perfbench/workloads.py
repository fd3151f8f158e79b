"""The three workloads: set-up, timed closed loop, correctness checks.

Each workload is a closed loop driven from one process: a round feeds
one interval's worth of samples to every lane or stream and waits until
the program has processed it, then the scalar twins get the same
samples.  Every round is preceded by a calibration (see ``calib``), so
each timed section can be rescaled to reference host speed.

``run(name, seed, seconds, tracer)`` returns a :class:`Outcome`; with a
tracer, even rounds run traced and odd rounds untraced, so the tracing
overhead is measured under the same conditions as the traced figures.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import pickle
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.batch.session import BatchSession
from repro.errors import ReproError
from repro.monitor.online import OnlineSession
from repro.monitor.watchdog import WatchdogAction, WatchdogConfig
from repro.serve.config import ServeConfig
from repro.serve.events import extract_lane_events
from repro.serve.messages import Batch
from repro.serve.snapshot import SnapshotStore
from repro.serve.supervisor import FleetSupervisor
from repro.serve.worker import ShardWorker

import checks
import inputs
from calib import Normalizer

#: Rounds every run makes at least (p90 needs >= 10 rounds beyond it).
MIN_ROUNDS = 100
#: Peak RSS is read after this many rounds: a fixed amount of work, so
#: the figure does not depend on how many rounds the host manages.
RSS_ROUND = 100
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Rounds of the fleet's batch sequence the traced run replays through
#: an in-process ``ShardWorker`` for the worker-side figures.
REPLAY_ROUNDS = 48
#: Name of the ``serve-mcf`` stream that carries kernel-space PCs.
HOSTILE = "hostile"


@dataclass(frozen=True)
class Spec:
    benchmark: str
    scale: float
    lanes: int
    twins: int
    faulted_every: int = 0
    watchdog: WatchdogConfig | None = None
    serve: bool = False


SPECS = {
    "lockstep-mcf": Spec("181.mcf", 0.01, 256, twins=16),
    "churn-gap": Spec("254.gap", 0.02, 64, twins=8,
                      faulted_every=inputs.FAULTED_EVERY,
                      watchdog=WatchdogConfig()),
    "serve-mcf": Spec("181.mcf", 0.01, 64, twins=8, serve=True),
}


@dataclass
class Outcome:
    """What one run measured and found."""

    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    twin_intervals: int = 0
    round_time: Normalizer = field(default_factory=Normalizer)
    twin_time: Normalizer = field(default_factory=Normalizer)
    setup_raw: list[float] = field(default_factory=list)
    setup_norm: list[float] = field(default_factory=list)
    traced_rounds: list[bool] = field(default_factory=list)
    round_intervals: list[int] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    extra: dict = field(default_factory=dict)


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children, in MB."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
    return total


def _timed_setup(outcome: Outcome, build):
    """Run *build* SETUPS times; keep the last result.

    *build* takes ``timed`` (``Normalizer.time``) and runs every step of
    the set-up through it, so each step is rescaled by the calibration
    taken just before it; a set-up's time is the sum over its steps.
    The previous set-up is released first, so peak memory holds one
    set-up at a time.
    """
    built = None
    for _ in range(SETUPS):
        if built is not None:
            _release(built)
        built = None
        gc.collect()
        steps = Normalizer()
        built = build(steps.time)
        outcome.setup_raw.append(sum(steps.raw))
        outcome.setup_norm.append(sum(steps.normalized()))
    return built


def _release(built) -> None:
    """Stop a set-up's fleet, if it has one, and remove its snapshots."""
    if built.get("supervisor") is not None:
        built["supervisor"].shutdown(graceful=False)
    if "snapshot_dir" in built:
        shutil.rmtree(built["snapshot_dir"], ignore_errors=True)


def _span(tracer, traced: bool, name: str, fn, *args):
    if tracer is not None and traced:
        return tracer.span(name, fn, *args)
    return fn(*args)


def _round_loop(outcome: Outcome, seconds: float, tracer, body, twins_body):
    """The closed loop: calibrate, run a round, feed the twins, repeat."""
    gc.collect()
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = tracer is not None and r % 2 == 0
        installed = tracer.installed() if traced \
            else contextlib.nullcontext()
        with installed:
            outcome.round_intervals.append(outcome.round_time.time(
                _span, tracer, traced, "bench.round", body, r))
            outcome.twin_time.time(
                _span, tracer, traced, "bench.twins", twins_body, r)
        outcome.traced_rounds.append(traced)
        r += 1
        if r == RSS_ROUND:
            outcome.peak_rss_mb = _peak_rss_mb()
    outcome.rounds = r


def _build_inprocess(spec: Spec, seed: int, timed) -> dict:
    fleet = inputs.build_fleet(spec.benchmark, spec.scale, spec.lanes,
                               seed, spec.faulted_every, timed)
    session = timed(_new_session, fleet.model.binary, spec.watchdog,
                    spec.lanes)
    twins = timed(_new_twins, fleet.model.binary, spec.watchdog,
                  spec.twins)
    return {"fleet": fleet, "session": session, "twins": twins}


def _new_session(binary, watchdog, lanes: int) -> BatchSession:
    session = BatchSession(binary=binary, watchdog=watchdog)
    for i in range(lanes):
        session.add_lane(name=f"lane{i}")
    return session


def _new_twins(binary, watchdog, n: int) -> list[OnlineSession]:
    return [OnlineSession(binary=binary, watchdog=watchdog)
            for _ in range(n)]


def _feed_twins(fleet, twins, r: int) -> None:
    for lane, twin in enumerate(twins):
        chunk = fleet.lane_chunk(r, lane)
        if chunk.size:
            twin.feed_many(chunk)


def _fed_samples(fleet, rounds: int):
    def samples(lane: int) -> np.ndarray:
        return np.concatenate([fleet.lane_chunk(r, lane)
                               for r in range(rounds)])
    return samples


def _run_inprocess(spec: Spec, seed: int, seconds: float,
                   tracer) -> Outcome:
    outcome = Outcome()
    built = _traced_setup(outcome, tracer,
                          lambda timed: _build_inprocess(spec, seed, timed))
    fleet, session, twins = built["fleet"], built["session"], built["twins"]
    fed = np.zeros(spec.lanes, dtype=np.int64)

    def body(r: int) -> int:
        block, lengths = fleet.round(r)
        completed = session.feed(block, lengths)
        np.add(fed, lengths, out=fed)
        return sum(completed)

    _round_loop(outcome, seconds, tracer, body,
                lambda r: _feed_twins(fleet, twins, r))
    outcome.attempted = spec.lanes * outcome.rounds
    outcome.twin_intervals = sum(t.stats.intervals for t in twins)
    outcome.errors += checks.lane_checks(
        session.lanes, fed, _fed_samples(fleet, outcome.rounds))
    outcome.errors += checks.twins_identical(session.lanes, twins)
    outcome.extra = _counts(session.lanes)
    return outcome


def _counts(lanes) -> dict:
    return {
        "intervals": sum(lane.stats.intervals for lane in lanes),
        "local_events": sum(lane.stats.local_events for lane in lanes),
        "global_events": sum(lane.stats.global_events for lane in lanes),
        "regions": sum(len(lane.monitor.all_regions()) for lane in lanes),
        "quarantines": sum(event.action is WatchdogAction.DEOPTIMIZE
                           for lane in lanes
                           for event in lane.watchdog_events),
    }


def _traced_setup(outcome: Outcome, tracer, build):
    if tracer is None:
        return _timed_setup(outcome, build)
    with tracer.installed():
        return _timed_setup(
            outcome, lambda timed: tracer.span("bench.setup", build, timed))


# -- serve-mcf ----------------------------------------------------------------

def _build_serve(spec: Spec, seed: int, workdir: str, timed) -> dict:
    fleet = inputs.build_fleet(spec.benchmark, spec.scale, spec.lanes, seed,
                               0, timed)
    streams = [f"s{i:02d}" for i in range(spec.lanes)]
    config = ServeConfig(binary=fleet.model.binary, n_shards=1)
    snapshot_dir = os.path.join(
        workdir, f"serve-{os.getpid()}-{time.monotonic_ns()}")
    supervisor = timed(FleetSupervisor, config, streams + [HOSTILE],
                       snapshot_dir)
    built = {"fleet": fleet, "streams": streams, "config": config,
             "supervisor": supervisor, "snapshot_dir": snapshot_dir}
    try:
        timed(supervisor.start)
    except BaseException:
        _release(built)
        raise
    built["twins"] = timed(_new_twins, fleet.model.binary, None, spec.twins)
    return built


def _run_serve(spec: Spec, seed: int, seconds: float, tracer,
               workdir: str) -> Outcome:
    outcome = Outcome()
    built = _traced_setup(outcome, tracer,
                          lambda timed: _build_serve(spec, seed, workdir,
                                                     timed))
    try:
        return _drive_serve(spec, built, seconds, tracer, outcome)
    finally:
        _release(built)


def _drive_serve(spec: Spec, built: dict, seconds: float, tracer,
                 outcome: Outcome) -> Outcome:
    fleet, streams = built["fleet"], built["streams"]
    supervisor, twins = built["supervisor"], built["twins"]
    hostile = inputs.hostile_batch()
    accepted = 0
    outstanding_max = 0

    def body(r: int) -> int:
        nonlocal accepted, outstanding_max
        block, _ = fleet.round(r)
        for i, stream in enumerate(streams):
            supervisor.submit(stream, block[i])
        try:
            accepted += bool(supervisor.submit(HOSTILE, hostile))
        except ReproError:
            pass  # rejected with a typed error: the operation succeeded
        outstanding_max = max(outstanding_max, supervisor.outstanding)
        supervisor.drain()
        return len(streams)

    _round_loop(outcome, seconds, tracer, body,
                lambda r: _feed_twins(fleet, twins, r))
    rounds = outcome.rounds
    outcome.attempted = (len(streams) + 1) * rounds
    outcome.twin_intervals = sum(t.stats.intervals for t in twins)
    summary = supervisor.summary()
    fleet_events = {s: supervisor.stream_events(s) for s in streams}
    exit_codes = supervisor.shutdown(graceful=True)
    built["supervisor"] = None
    if any(code != 0 for code in exit_codes.values()):
        outcome.errors.append(f"worker exit codes {exit_codes}")
    if (summary["submitted"] != accepted + len(streams) * rounds
            or summary["acked"] != summary["submitted"]
            or summary["evicted"] or summary["restarts"]
            or summary["divergences"]):
        outcome.errors.append(f"fleet summary {summary}")

    # The worker's own session, from its final snapshot.
    loaded = SnapshotStore(built["snapshot_dir"], 0,
                           keep=built["config"].snapshot_keep).load_latest()
    if loaded is None:
        outcome.errors.append("no final snapshot")
        return outcome
    worker_lanes = loaded[0].session.lanes
    hostile_lane = worker_lanes[-1]
    # A hostile batch fails while it is accepted and applied: its
    # wrapped samples complete an interval on the hostile lane.
    outcome.failed = min(accepted, hostile_lane.stats.intervals)
    fed = np.full(len(streams), rounds * inputs.INTERVAL, dtype=np.int64)
    outcome.errors += checks.lane_checks(worker_lanes[:-1], fed,
                                         _fed_samples(fleet, rounds))

    # An in-process session fed the same batches is the reference.
    reference = BatchSession(binary=fleet.model.binary)
    for stream in streams:
        reference.add_lane(name=stream)
    for r in range(rounds):
        reference.feed(fleet.round(r)[0])
    for stream, lane in zip(streams, reference.lanes):
        if fleet_events[stream] != extract_lane_events(lane)[0]:
            outcome.errors.append(
                f"{stream}: fleet events differ from an in-process "
                f"session fed the same batches")
    outcome.errors += checks.twins_identical(reference.lanes, twins)
    outcome.extra = _counts(worker_lanes[:-1])
    outcome.extra.update(
        hostile_accepted=accepted,
        hostile_intervals=hostile_lane.stats.intervals,
        outstanding_max=outstanding_max)
    if tracer is not None:
        _replay(built, min(rounds, REPLAY_ROUNDS), tracer, outcome)
    return outcome


def _replay(built: dict, rounds: int, tracer, outcome: Outcome) -> None:
    """Replay the fleet's batch sequence through an in-process worker."""
    fleet, streams = built["fleet"], built["streams"]
    store = SnapshotStore(built["snapshot_dir"] + "-replay", 0,
                          keep=built["config"].snapshot_keep)
    names = tuple(streams) + (HOSTILE,)
    worker = ShardWorker(0, names, built["config"], store)
    hostile = inputs.hostile_batch()
    batches = []
    seq = 0
    for r in range(rounds):
        block, _ = fleet.round(r)
        for i, stream in enumerate(names):
            samples = hostile if stream == HOSTILE else block[i]
            batches.append(Batch(seq=seq, stream=stream, stream_seq=r,
                                 samples=np.array(samples, dtype=np.int64)))
            seq += 1

    def replay() -> None:
        for batch in batches:
            worker.handle_batch(batch)
            if worker.snapshot_due:
                worker.take_snapshot()

    try:
        with tracer.installed():
            tracer.span("bench.replay", replay)
    finally:
        shutil.rmtree(built["snapshot_dir"] + "-replay", ignore_errors=True)
    outcome.extra.update(
        replay_rounds=rounds, replay_batches=len(batches),
        batch_bytes=statistics.mean(len(pickle.dumps(b)) for b in batches))


def run(name: str, seed: int, seconds: float, tracer, workdir: str
        ) -> Outcome:
    spec = SPECS[name]
    if spec.serve:
        return _run_serve(spec, seed, seconds, tracer, workdir)
    return _run_inprocess(spec, seed, seconds, tracer)
