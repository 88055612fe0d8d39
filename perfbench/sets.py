"""Run a set of benchmark runs, one per seed, and summarise them.

    python3 perfbench/sets.py --workload score --seeds 1-10

Each run is untraced and measures BENCHMARK.json's ``run_seconds``.

For each metric (and each per-stage rate printed before the result) it
prints the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median; then the share of failed operations and the wall time
of the runs. Runs are sequential, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = p.parse_args()
    seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    values, shares, walls = {}, set(), []
    for seed in args.seeds:
        t0 = time.time()
        run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True)
        walls.append(time.time() - t0)
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            return 1
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        shares.add(result["failed"] / result["attempted"])
        row = {k: m["value"] for k, m in result["metrics"].items()}
        row.update({l.split()[0]: float(l.split()[1]) for l in lines[:-1] if l.endswith(" 1/s")})
        row.update({"rss_after_setup_mb": float(l.split()[-2]) for l in lines[:-1]
                    if l.startswith("peak RSS after set-up")})
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        print(f"seed {seed}: " + ", ".join(f"{k} {v:.4g}" for k, v in row.items())
              + f"; attempted {result['attempted']}, failed {result['failed']}, wall {walls[-1]:.1f} s",
              flush=True)
    for k, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"{args.workload} {k}: median {med:.4g}, q1 {q1:.4g}, q3 {q3:.4g}, spread {(q3 - q1) / med:.4f}")
    print(f"failed share {sorted(shares)}; wall per run max {max(walls):.1f} s, mean {statistics.mean(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
