"""Steadiness check: run one workload N times and report the spread.

Usage::

    python3 perfbench/steady.py --workload serve-mcf --runs 10

Runs ``perfbench/run.py`` on seeds 1..N, one run at a time, for
``BENCHMARK.json``'s ``run_seconds`` with tracing off, and prints for
every end-to-end metric the median, the quartile spread (Q3 - Q1, from
``statistics.quantiles(values, n=4)``) as a share of the median, and
the metric's bound.  A spread at or above a third of the bound is
flagged.  Also reports whether the failed share of attempted operations
was identical in every run.  Exit status 1 if anything is flagged or a
run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    shares = set()
    ok = True
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{n}={m['value']:.4g}"
                         for n, m in result["metrics"].items()),
              flush=True)
    print(f"\n{'metric':<28}{'median':>12}{'spread':>9}{'bound':>8}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        flag = ""
        if spread >= bounds[name] / 3:
            flag = "  <-- spread >= bound/3"
            ok = False
        print(f"{name:<28}{median:>12.4g}{spread:>9.2%}"
              f"{bounds[name]:>8.2f}{flag}")
    print(f"failed share identical in every run: {len(shares) == 1}")
    ok &= len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
