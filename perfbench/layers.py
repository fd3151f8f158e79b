"""Per-layer figures of a traced run, from its spans and counters.

Times are self times (a span's duration minus its children's) unless
the name says otherwise, and are given per traced round, per batch or
per set-up so that they do not depend on how many rounds the host
manages.  On ``serve-mcf`` the batch, region and monitor layers run in
the worker process; their figures come from replaying the fleet's
batch sequence through an in-process ``ShardWorker`` (``bench.replay``)
and are given per replayed round.  A layer a workload does not run
reads 0.
"""

from __future__ import annotations

import tracing
import workloads

_SERVE = {name for name in tracing.TARGETS if name.startswith("serve.")}
#: Wrapped functions a workload does not run.  Every other one must
#: record at least one call; see :func:`unmeasured`.
NOT_RUN = {
    "lockstep-mcf": {"batch.make_group", "faults.inject",
                     "monitor.watchdog"} | _SERVE,
    "churn-gap": _SERVE,
    "serve-mcf": {"batch.add_lane", "faults.inject", "monitor.watchdog"},
}

#: metric -> unit, in the order printed.
UNITS = {
    "regions.attribute_ms": "ms",
    "regions.form_ms": "ms",
    "regions.form_calls": "1/round",
    "regions.formed": "1/round",
    "monitor.account_ms": "ms",
    "monitor.finish_ms": "ms",
    "monitor.watchdog_ms": "ms",
    "monitor.quarantines": "1/round",
    "batch.push_ms": "ms",
    "batch.take_round_ms": "ms",
    "batch.lpd_step_ms": "ms",
    "batch.gpd_step_ms": "ms",
    "batch.plan_builds": "1/round",
    "batch.lanes_per_step": "count",
    "core.lpd_observe_ms": "ms",
    "core.gpd_observe_ms": "ms",
    "sampling.simulate_s": "s",
    "faults.inject_s": "s",
    "batch.add_lane_s": "s",
    "serve.start_s": "s",
    "serve.submit_ms": "ms",
    "serve.drain_wait_ms": "ms",
    "serve.handle_batch_ms": "ms",
    "serve.extract_ms": "ms",
    "serve.process_ready_per_batch": "count",
    "serve.snapshot_ms": "ms",
    "serve.snapshot_bytes": "bytes",
    "serve.outstanding_max": "count",
    "serve.sample_bytes": "bytes",
    "count.intervals": "1/round",
    "count.local_events": "1/round",
    "count.global_events": "1/round",
    "trace.si_per_s": "1/s",
    "trace.untraced_si_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def unmeasured(workload: str, tracer) -> list[str]:
    """Wrapped functions the workload runs that recorded no call.

    Such a layer reads 0 because the function was renamed or replaced,
    not because it got faster; the run warns about it.
    """
    return [name for name, calls in tracer.calls().items()
            if calls == 0 and name in tracing.TARGETS
            and name not in NOT_RUN[workload]]


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def per_layer(outcome, tracer) -> dict[str, float]:
    """Every metric of :data:`UNITS` for one traced run."""
    serve = "replay_rounds" in outcome.extra
    root = "bench.replay" if serve else "bench.round"
    layer = tracer.summary(root)
    client = tracer.summary("bench.round")
    twins = tracer.summary("bench.twins")
    setup = tracer.summary("bench.setup")
    traced = sum(outcome.traced_rounds)
    rounds = outcome.extra["replay_rounds"] if serve else traced

    def ms(name: str, summary=layer, per=rounds, key="self_s") -> float:
        return _per(summary[name][key], per) * 1e3

    def counter(name: str) -> float:
        return tracer.counters.get((root, name), 0)

    batches = layer["serve.handle_batch"]["calls"]
    times = outcome.round_time.normalized()

    def si_per_s(traced_rounds: bool) -> float:
        rows = [(n, t) for n, t, on in zip(outcome.round_intervals, times,
                                           outcome.traced_rounds)
                if on == traced_rounds]
        return _per(sum(n for n, _ in rows), sum(t for _, t in rows))

    traced_si, plain_si = si_per_s(True), si_per_s(False)
    figures = {
        "regions.attribute_ms": ms("regions.attribute"),
        "regions.form_ms": ms("regions.form"),
        "regions.form_calls": _per(layer["regions.form"]["calls"], rounds),
        "regions.formed": _per(counter("regions.formed"), rounds),
        "monitor.account_ms": ms("monitor.begin"),
        "monitor.finish_ms": ms("monitor.finish"),
        "monitor.watchdog_ms": ms("monitor.watchdog"),
        "monitor.quarantines": _per(outcome.extra["quarantines"],
                                    outcome.rounds),
        "batch.push_ms": ms("batch.push"),
        "batch.take_round_ms": ms("batch.take_round"),
        "batch.lpd_step_ms": ms("batch.lpd_step"),
        "batch.gpd_step_ms": ms("batch.gpd_step"),
        "batch.plan_builds": _per(layer["batch.make_group"]["calls"],
                                  rounds),
        "batch.lanes_per_step": _per(counter("batch.participants"),
                                     layer["batch.lpd_step"]["calls"]),
        "core.lpd_observe_ms": ms("core.lpd_observe", twins, traced),
        "core.gpd_observe_ms": ms("core.gpd_observe", twins, traced),
        "sampling.simulate_s": _per(setup["sampling.simulate"]["total_s"],
                                    workloads.SETUPS),
        "faults.inject_s": _per(setup["faults.inject"]["total_s"],
                                workloads.SETUPS),
        "batch.add_lane_s": _per(setup["batch.add_lane"]["total_s"],
                                 workloads.SETUPS),
        "serve.start_s": _per(setup["serve.start"]["total_s"],
                              workloads.SETUPS),
        "serve.submit_ms": ms("serve.submit", client,
                              client["serve.submit"]["calls"]),
        "serve.drain_wait_ms": ms("serve.drain", client, traced, "total_s"),
        "serve.handle_batch_ms": ms("serve.handle_batch", per=batches,
                                    key="total_s"),
        "serve.extract_ms": ms("serve.extract", per=batches, key="total_s"),
        "serve.process_ready_per_batch": _per(
            layer["batch.process_ready"]["calls"], batches),
        "serve.snapshot_ms": ms("serve.snapshot",
                                per=layer["serve.snapshot"]["calls"],
                                key="total_s"),
        "serve.snapshot_bytes": _per(counter("serve.snapshot_bytes"),
                                     layer["serve.snapshot"]["calls"]),
        "serve.outstanding_max": outcome.extra.get("outstanding_max", 0),
        "serve.sample_bytes": outcome.extra.get("batch_bytes", 0),
        "count.intervals": _per(outcome.extra["intervals"], outcome.rounds),
        "count.local_events": _per(outcome.extra["local_events"],
                                   outcome.rounds),
        "count.global_events": _per(outcome.extra["global_events"],
                                    outcome.rounds),
        "trace.si_per_s": traced_si,
        "trace.untraced_si_per_s": plain_si,
        "trace.overhead_pct": (_per(plain_si, traced_si) - 1.0) * 100.0,
    }
    return {name: float(figures[name]) for name in UNITS}
