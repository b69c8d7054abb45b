"""Benchmark kstab's compute layers on one seeded workload.

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds the workload's items from the
seed, then runs whole rounds over them, each round in a fresh
single-threaded interpreter (worker.py), until --seconds have passed.
Every output is checked against the oracles, outside the timed region.
Times are in reference units (ref): each item's CPU time divided by
the reference kernel's CPU time measured beside it.

The last line of stdout is one JSON object with keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 wraps kstab's layer functions and reports the
per-layer metrics instead, writing the spans under bench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

RUN_LIMIT_S = 170  # the whole invocation must end within 180 s


def run_round(job, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, WORKER],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        cwd=HERE,
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def end_to_end(rounds):
    refs = [
        [t / u for t, u in zip(r["item_s"], r["unit_s"])] for r in rounds
    ]
    per_item = [statistics.median(col) for col in zip(*refs)]
    return {
        "batch_ref": (statistics.median(sum(r) for r in refs), "ref"),
        "item_p50_ref": (statistics.median(per_item), "ref"),
        "item_p90_ref": (statistics.quantiles(per_item, n=10, method="inclusive")[8], "ref"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
    }


def per_layer(rounds):
    return {
        name: (statistics.median(r["layers"][name] for r in rounds), unit)
        for name, unit in LAYER_METRICS
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    if not os.path.isdir(os.path.join(SRC, "kstab")):
        sys.exit(f"no kstab sources under {SRC}")
    items = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(OUT, exist_ok=True)

    rounds = []
    measure_start = perf_counter()
    while not rounds or perf_counter() - measure_start < args.seconds:
        job = {
            "src": SRC,
            "items": items,
            "trace": args.trace,
            "trace_path": os.path.join(
                OUT, f"trace-{args.workload}-{args.seed}-{len(rounds)}.jsonl"
            ),
        }
        rounds.append(run_round(job, deadline))

    measured_s = perf_counter() - measure_start
    checker = checks.Checker()
    attempted = failed = 0
    failures = {}
    for r in rounds:
        outcomes = [checker.check(item, out) for item, out in zip(items, r["outputs"])]
        for i in checks.pair_failures(items, r["outputs"]):
            outcomes[i] = outcomes[i] or "pair law fails"
        for i, why in enumerate(outcomes):
            attempted += 1
            if why is not None:
                failed += 1
                failures[i] = why
    unexpected = [i for i in failures if not items[i].get("known_fault")]
    for i, why in sorted(failures.items()):
        kind = "known fault" if items[i].get("known_fault") else "FAILED"
        print(f"{kind}: {why} on {json.dumps(items[i]['args'])[:240]}", file=sys.stderr)

    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    print(
        f"{args.workload} seed={args.seed} rounds={len(rounds)} "
        f"items={len(items)} attempted={attempted} failed={failed} "
        f"inputs_s={measure_start - start:.2f} rounds_s={measured_s:.2f} "
        f"checks_s={perf_counter() - measure_start - measured_s:.2f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<56} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))


if __name__ == "__main__":
    main()
