#!/usr/bin/env python3
"""End-to-end benchmark of the iswitch simulator.

Builds the simulator libraries and the perfbench driver from source
(CMake, into $CARGO_TARGET_DIR or .bench_build/ under the checkout),
runs one workload, applies the correctness gate and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones,
with the units BENCHMARK.json gives them (perfbench/metrics.json says
what each means and what it should move). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print the
simulated fingerprint of each run kind and a readable panel.

Exit status is 0 whenever that result line is printed (a failed gate
reads "correct": false), and non-zero without a result line when the
build or the driver fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DRIVER_TIMEOUT_S = 170
# Host times are reported at the speed of a machine on which the
# driver's calibration kernel takes this long: each raw time is scaled
# by REFERENCE_CALIB_S / (the kernel's time measured around it). On a
# shared machine whose speed drifts by tens of percent over minutes,
# this removes most of the drift from the comparison between sessions.
REFERENCE_CALIB_S = 0.05


def metric_spec(section):
    """The end_to_end or per_layer metric list of BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources missing under {ROOT / 'src'}")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(bdir), "--target",
                    "isw_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return bdir / "isw_perfbench"


def run_driver(exe, args):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=DRIVER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed nothing")
    return json.loads(lines[-1])


def fingerprint_diff(a, b, prefix=""):
    """Dotted names of the fields where fingerprints a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            out += fingerprint_diff(a.get(k), b.get(k), f"{prefix}{k}.")
        return out
    return [] if a == b else [prefix.rstrip(".")]


def gate(runs):
    """Correctness gate. Returns one list of failure reasons per run."""
    reference = {}
    verdicts = []
    for r in runs:
        why = []
        if r["error"]:
            why.append(f"error: {r['error']}")
        if r["need_target"]:
            if not r["reached_target"]:
                why.append("reward target not reached")
        elif r["iterations"] < r["expected_iterations"]:
            why.append(f"{r['iterations']:.0f} of "
                       f"{r['expected_iterations']:.0f} iterations")
        if not r["weights_finite"]:
            why.append("non-finite weights")
        if r["sync"]:
            if not r["weights_equal"]:
                why.append("workers with equal update counts hold "
                           "different weights")
            if r["lossless"] and r["laggards"] > 0:
                why.append(f"{r['laggards']:.0f} workers ended at another "
                           "round than worker 0")
            if r["max_lag"] > 1:
                why.append(f"a worker ended {r['max_lag']:.0f} rounds behind")
        if r["lossless"] and r["retx_keys"]:
            why.append("lossless run reported " + ", ".join(r["retx_keys"]))
        ref = reference.setdefault(r["kind"], r["fingerprint"])
        diff = fingerprint_diff(ref, r["fingerprint"])
        if diff:
            why.append("fingerprint differs from the first run of this "
                       "seed in " + ", ".join(diff))
        verdicts.append(why)
    return verdicts


def end_to_end(doc):
    """End-to-end metrics from the untraced warm runs of a session."""
    warm = [r for r in doc["runs"]
            if r["kind"] == "budget" and r["phase"] == "warm"]
    # calib_s[i] and calib_s[i + 1] were timed just before and after
    # warm run i; the set-up loop after it carries its own kernel time.
    calib = doc["calib_s"]
    scale = [2 * REFERENCE_CALIB_S / (calib[i] + calib[i + 1])
             for i in range(len(warm))]
    ref = warm[0]
    return {
        "wall_ms_per_iter": statistics.median(
            1e3 * r["run_s"] / r["iterations"] * k
            for r, k in zip(warm, scale)),
        "wall_s": statistics.median((r["setup_s"] + r["run_s"]) * k
                                    for r, k in zip(warm, scale)),
        "setup_s": statistics.median(
            r["setup_loop_s"] * REFERENCE_CALIB_S / r["setup_calib_s"]
            for r in warm),
        "peak_rss_mb": doc["peak_rss_mb"],
        "sim_iter_ms": ref["sim_iter_ms"],
        "sim_train_s": ref["sim_train_s"],
    }


def raw_host_times(doc):
    """Unscaled medians, printed beside the metrics."""
    warm = [r for r in doc["runs"]
            if r["kind"] == "budget" and r["phase"] == "warm"]
    return {
        "wall_ms_per_iter": statistics.median(
            1e3 * r["run_s"] / r["iterations"] for r in warm),
        "setup_s": statistics.median(r["setup_loop_s"] for r in warm),
        "calib_s": statistics.median(doc["calib_s"]),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny run sizes (the benchmark's own tests)")
    args = ap.parse_args(argv)

    try:
        spec = metric_spec("per_layer" if args.trace else "end_to_end")
        doc = run_driver(build(), args)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    verdicts = gate(doc["runs"])
    failed = sum(1 for v in verdicts if v)
    attempted = len(verdicts)
    for r, why in zip(doc["runs"], verdicts):
        for w in why:
            print(f"FAIL {r['kind']}/{r['phase']}: {w}")

    seen = set()
    for r in doc["runs"]:
        if r["kind"] not in seen:
            seen.add(r["kind"])
            print(f"fingerprint {r['kind']}: "
                  + json.dumps(r["fingerprint"], sort_keys=True))

    values = doc["layers"] if args.trace else end_to_end(doc)
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        print("perfbench: driver did not report " + ", ".join(missing),
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    print(f"# {doc['workload']} seed {args.seed}: {attempted} runs, "
          f"{failed} failed, error_rate {failed / attempted:.4g} ratio")
    for k, m in metrics.items():
        print(f"{k:34s} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        print("# spans " + json.dumps(doc["spans"]))
    else:
        print("# unscaled " + json.dumps(raw_host_times(doc)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
