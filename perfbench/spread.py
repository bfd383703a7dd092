"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload scan --seeds 1-10 --seconds 25 [--trace 1]

Runs ``run.py`` once per seed, one run at a time, keeps each run's result
line under ``perfbench/_results/`` and prints, for every metric, the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median.  Before each run it times a fixed
pure-Python loop ten times; the fastest and slowest of those times show how
far the host's speed swings during the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _probe_ms() -> float:
    start = time.perf_counter()
    sum(i * i for i in range(200_000))
    return 1000.0 * (time.perf_counter() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = HERE / "_results"
    out_dir.mkdir(exist_ok=True)
    results, probes = [], []
    for seed in _seeds(args.seeds):
        probes += [_probe_ms() for _ in range(10)]
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        took = time.perf_counter() - start
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        line = done.stdout.strip().splitlines()[-1]
        (out_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(line + "\n")
        result = json.loads(line)
        results.append(result)
        summary = [ln for ln in done.stderr.splitlines() if " seed=" in ln]
        print(f"seed {seed}: {took:.1f}s wall, correct={result['correct']}; "
              f"{summary[-1] if summary else ''}", file=sys.stderr)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{args.workload} trace={args.trace} runs={len(results)} "
          f"failed shares={shares} all correct={all(r['correct'] for r in results)}")
    print(f"host probe (fixed Python loop): {min(probes):.1f}-{max(probes):.1f} ms, "
          f"median {statistics.median(probes):.1f} ms")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("nan")
        print(f"  {name:32s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"iqr/median {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
