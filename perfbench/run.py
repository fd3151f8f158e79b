"""End-to-end benchmark of phase detection, from PC samples to events.

Usage::

    python3 perfbench/run.py --workload lockstep-mcf --seed 1 \\
        --seconds 15 --trace 0

Runs one workload (``lockstep-mcf``, ``churn-gap`` or ``serve-mcf``)
for ``--seconds`` seconds and at least 100 rounds, checks the program's
outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, normalized to reference host speed;
the line before it holds the raw figures.  With ``--trace 1`` they are
the per-layer figures of a traced run, whose spans are written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

#: Environment every benchmark process runs under, the fleet worker it
#: forks included: one thread per BLAS/OpenMP pool, so no pool competes
#: with the program for the host's CPUs.
PROCESS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

WORKLOADS = ("lockstep-mcf", "churn-gap", "serve-mcf")


def end_to_end(outcome, normalized: bool) -> dict[str, float]:
    """The six end-to-end figures, normalized or raw."""
    rounds = (outcome.round_time.normalized() if normalized
              else outcome.round_time.raw)
    twins = (outcome.twin_time.normalized() if normalized
             else outcome.twin_time.raw)
    setup = outcome.setup_norm if normalized else outcome.setup_raw
    return {
        "si_per_s": sum(outcome.round_intervals) / sum(rounds),
        "round_ms_p50": statistics.median(rounds) * 1e3,
        "round_ms_p90": statistics.quantiles(rounds, n=10)[8] * 1e3,
        "online_si_per_s": outcome.twin_intervals / sum(twins),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


E2E_UNITS = {"si_per_s": "1/s", "round_ms_p50": "ms", "round_ms_p90": "ms",
             "online_si_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (HERE.parent / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    import layers
    import tracing
    import workloads

    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    outcome = workloads.run(args.workload, args.seed, args.seconds, tracer,
                            str(workdir))
    for error in outcome.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed,
              "rounds": outcome.rounds, "counts": outcome.extra,
              "calibration_ms_median":
                  statistics.median(outcome.round_time.cal) * 1e3}
    if tracer is None:
        detail["raw"] = end_to_end(outcome, normalized=False)
        detail["setups_s"] = outcome.setup_norm
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in end_to_end(outcome, True).items()}
    else:
        figures = layers.per_layer(outcome, tracer)
        detail["unmeasured"] = layers.unmeasured(args.workload, tracer)
        for name in detail["unmeasured"]:
            print(f"warning: no call of {name} was traced; its per-layer "
                  f"figures read 0", file=sys.stderr)
        metrics = {name: {"value": value, "unit": layers.UNITS[name]}
                   for name, value in figures.items()}
        tracer.write(str(workdir / f"trace-{args.workload}-{args.seed}.json"),
                     {"detail": detail, "metrics": figures})
    print(json.dumps(detail))
    print(json.dumps({"correct": not outcome.errors,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PROCESS_ENV.items()):
        # The thread pools read these when they load.
        os.environ.update(PROCESS_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
