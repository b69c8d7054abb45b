"""Steadiness mode: two sets of runs of the same code, alternating.

    python3 bench/steady.py --runs 10 [--workloads lattice,df] [--seconds 20]

Run from the repository root.  Run i of each set uses seed
--first-seed + i, so both sets see the same inputs; which set goes
first alternates from run to run.  For every end-to-end metric of
every workload it prints each set's median and quartiles, the spread
(interquartile distance over the median) and whether the sets agree:
each spread within the metric's bound (setup_s exempt), the second
median no worse than the first by more than the bound, and the same
share of failed operations.  The full table is also written to
bench/out/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results = {s: {w: [] for w in workloads} for s in "AB"}
    for i in range(args.runs):
        for s in ("AB" if i % 2 == 0 else "BA"):
            for w in workloads:
                results[s][w].append(run_once(w, args.first_seed + i, args.seconds))
                r = results[s][w][-1]
                print(f"run {i} set {s} {w}: failed {r['failed']}/{r['attempted']}",
                      file=sys.stderr, flush=True)

    table = []
    all_ok = True
    for w in workloads:
        shares = {
            s: {r["failed"] / r["attempted"] for r in results[s][w]} for s in "AB"
        }
        share_ok = len(shares["A"] | shares["B"]) == 1
        all_ok &= share_ok
        print(f"{w}: failed share {sorted(shares['A'] | shares['B'])} "
              f"{'same' if share_ok else 'DIFFERS'} in every run")
        for name, m in bounds.items():
            a = summary([r["metrics"][name]["value"] for r in results["A"][w]])
            b = summary([r["metrics"][name]["value"] for r in results["B"][w]])
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            spread_ok = name == "setup_s" or max(a["spread"], b["spread"]) <= m["bound"]
            ok = spread_ok and worse <= m["bound"]
            all_ok &= ok
            table.append({
                "workload": w, "metric": name, "unit": m["unit"], "bound": m["bound"],
                "A": a, "B": b, "worse": worse, "ok": ok,
                "values": {s: [r["metrics"][name]["value"] for r in results[s][w]] for s in "AB"},
            })
            print(f"  {name:<13} A {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] "
                  f"spread {a['spread']:.3f} | B {b['median']:.6g} "
                  f"[{b['q1']:.6g}, {b['q3']:.6g}] spread {b['spread']:.3f} | "
                  f"B worse by {worse:+.3f} bound {m['bound']} {'ok' if ok else 'FAIL'}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as fh:
        json.dump({"runs": args.runs, "seconds": args.seconds, "table": table}, fh, indent=1)
    print("steady" if all_ok else "NOT steady")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
