"""CLI-level benchmark of fraudformer.

    python3 perfbench/run.py --workload {train,score,embed} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. It sets the workload up three times, each
in a child process it waits for (``setup_s`` is the median), then repeats whole
rounds of the workload's subcommands until their timed time reaches
``--seconds``, checking every artifact. ``seqs_per_s`` is the sequences a
round's timed subcommands process, divided by the sum of their median
times over the rounds. ``attempted`` and ``failed`` are the operations of
one round, the first, which is checked in full and probed for the order
fault; later rounds repeat it exactly, so both counts are the same in every
run. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
Failing checks print ``correct: false`` and exit 1; a program that cannot
be imported exits 2 with no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "score", "embed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed time to reach; rounds are whole, so a run measures at least this")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One generator thread, so the load is the same whatever the caller's environment.
    os.environ["FRAUDFORMER_THREADS"] = "1"
    if not (ROOT / "src" / "fraudformer" / "cli.py").is_file():
        print(f"error: no fraudformer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from fraudformer.cli import run_subcommand

    import workloads
    from checks import CheckError
    from tracing import PER_LAYER_UNITS, Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workdir = ROOT / ".perfbench-run" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cli = workloads.Cli(run_subcommand, tracer)
    wl = workloads.WORKLOADS[args.workload](cli, workdir, args.seed)

    correct, rounds, setup_times = True, 0, []
    try:
        reference = None
        for r in range(SETUP_REPEATS):
            dest = workdir / f"setup{r}"
            setup_times.append(workloads.timed_setup(args.workload, args.seed, dest))
            contents = [p.read_bytes() for p in wl.attach(dest)]
            if reference is not None and contents != reference:
                raise CheckError("set-up repeats made different artifacts")
            reference = contents
        setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while rounds == 0 or cli.timed_s < args.seconds:
            cli.start_round()
            wl.round(first=rounds == 0)
            rounds += 1
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times) if setup_times else 0.0, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "seqs_per_s": (cli.rate() if rounds else 0.0, "1/s"),
        }
        if correct:
            for name, value in wl.stage_rates().items():
                print(f"{name} {value:.4f} 1/s")
            print(f"peak RSS after set-up {setup_rss_mb:.1f} MB")
    else:
        values, missing = tracer.layer_metrics(max(rounds, 1))
        metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in values.items()}
        if missing:
            print(f"missing per-layer metrics (function not found): {', '.join(missing)}",
                  file=sys.stderr)
        shares = tracer.layer_shares()
        tracer.write_spans(workdir / "spans.csv")
        summary = {"rounds": rounds, "timed_s": cli.timed_s,
                   "traced_seqs_per_s": cli.rate() if rounds else 0.0,
                   "layer_self_share": shares, "missing": missing}
        (workdir / "trace-summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
        print("layer self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    for line in wl.notes():
        print(line)
    print(f"rounds {rounds}, timed {cli.timed_s:.2f} s, attempted {cli.attempted}, failed {cli.failed}")
    print(json.dumps({
        "correct": correct, "attempted": cli.attempted, "failed": cli.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
