"""soliton2d benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli|atlas|sweep --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/soliton2d).  The
workload runs in a fresh interpreter (worker.py); with --trace 0 two more
fresh interpreters only set up, and setup_s is the median of the three.
End-to-end times are scaled to the reference host speed (see worker.py).
Prints readable lines, then as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  `failed` counts the
operations with a failure outside worker.KNOWN_DEFECTS; those with known
defects only are printed above and lower ok_frac.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli", "atlas", "sweep")
END_TO_END_UNITS = {
    "setup_s": "s", "op_ms.p50": "ms", "op_ms.tail": "ms", "ops_per_s": "1/s",
    "peak_rss_mb": "MB", "ok_frac": "frac",
}


def worker(args, root: str, env: dict, setup_only: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", root,
           "--t-launch", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                          timeout=args.seconds + 120, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "soliton2d", "__init__.py")):
        sys.stderr.write("perfbench: run from a checkout root; src/soliton2d is missing\n")
        return 2
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OMP_NUM_THREADS=nproc, OPENBLAS_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc)

    setups = [] if args.trace else [worker(args, root, env, True)]
    res = worker(args, root, env, False)
    if not args.trace:
        setups += [res, worker(args, root, env, True)]
    attempted, failed = res["attempted"], res["failed"]
    correct = res["negative_control_caught"] and not res["unknown_failures"]

    e = res["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  env: python {e['python']}, numpy {e['numpy']}, scipy {e['scipy']}, "
          f"nproc {e['nproc']}, cpu {e['cpu']}")
    known = res["known"]
    print(f"  operations: {attempted} attempted, {known} failed only known-defect checks, "
          f"{failed} failed others (failed_frac {(known + failed) / attempted:.4f}); "
          f"negative control {'caught' if res['negative_control_caught'] else 'MISSED'}")
    # family:check -> count, as JSON (suite.py reads these two lines)
    print("  failed checks: " + json.dumps(res["failed_checks"], sort_keys=True))
    print("  unknown failures: " + json.dumps(res["unknown_failures"], sort_keys=True))

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        vals = dict(res["metrics"], setup_s=statistics.median(s["setup_s"] for s in setups))
        print("  setup_s samples (raw s -> at reference speed): " + ", ".join(
            f"{s['setup_raw_s']:.3f} -> {s['setup_s']:.3f}" for s in setups))
        print(f"  host speed over the timed phase: {res['host_speed']:.3f} of the reference")
        print("  median ms by case: " + ", ".join(f"{c} {v:.1f}" for c, v in res["case_ms"].items()))
        print(f"  op_ms.tail is p{res['tail_level']:g}: {res['tail_beyond']} of "
              f"{attempted} samples beyond it")
        metrics = {k: {"value": vals[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
