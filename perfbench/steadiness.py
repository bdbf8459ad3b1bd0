#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

Runs two sets of untraced runs of every workload in BENCHMARK.json,
seeds 1 to 10 in each set, for run_seconds each, and prints, per
end-to-end metric, its spread in each set -- the distance between the
first and third quartile as a share of the median -- against the
metric's bound, and how far the second set's median lies from the
first. Both must stay within the bound, for every metric. Simulated
metrics must be bit-identical between the sets. It then runs one traced
run per set of each workload and checks that the exact per-layer counts
repeat, and finally repeats the correctness gate, untraced and traced,
on a held-out seed that no tuning run used.

    python3 perfbench/steadiness.py

Exit status is 0 when every check passes.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SEEDS = range(1, 11)
HOLDOUT_SEED = 7919
DETERMINISTIC_E2E = ("sim_iter_ms", "sim_train_s")
EXACT_LAYER = ("sim.events_per_iter", "net.packets_per_iter",
               "rl.iters_to_target")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True

    def check(cond, msg):
        nonlocal ok
        ok = ok and cond
        print(("ok   " if cond else "FAIL ") + msg, flush=True)

    for wl in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(2):
            results = [run(wl, s, seconds, 0) for s in SEEDS]
            for s, r in zip(SEEDS, results):
                check(r["correct"], f"{wl} seed {s}: gate "
                      f"({r['failed']}/{r['attempted']} failed)")
            sets.append(results)
        print(f"# {wl}: {len(SEEDS)} seeds x 2 sets, {seconds} s per run")
        print(f"  {'metric':18s} {'bound':>6s} {'spread1':>8s} "
              f"{'spread2':>8s} {'median2/1-1':>12s}")
        for name, bound in bounds.items():
            vals = [[r["metrics"][name]["value"] for r in st] for st in sets]
            s1, s2 = spread(vals[0]), spread(vals[1])
            drift = statistics.median(vals[1]) / statistics.median(vals[0]) - 1
            print(f"  {name:18s} {bound:6.3f} {s1:8.4f} {s2:8.4f} "
                  f"{drift:+12.4f}")
            check(s1 <= bound and s2 <= bound,
                  f"{wl} {name}: spread within bound {bound}")
            check(abs(drift) <= bound,
                  f"{wl} {name}: second median within bound")
            if name in DETERMINISTIC_E2E:
                check(vals[0] == vals[1],
                      f"{wl} {name}: bit-identical across the sets")

        traced = [run(wl, SEEDS[0], seconds, 1) for _ in range(2)]
        for t in traced:
            check(t["correct"], f"{wl} traced seed {SEEDS[0]}: gate")
        for name in EXACT_LAYER:
            a, b = (t["metrics"][name]["value"] for t in traced)
            check(a == b, f"{wl} {name}: {a} in both traced runs")

        for trace in (0, 1):
            r = run(wl, HOLDOUT_SEED, seconds, trace)
            check(r["correct"], f"{wl} held-out seed {HOLDOUT_SEED} "
                  f"trace {trace}: gate ({r['failed']}/{r['attempted']} "
                  "failed)")

    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
