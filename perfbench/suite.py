"""Run the benchmark over several workloads and seeds and summarize it.

    python3 perfbench/suite.py                          # every workload, seed 1
    python3 perfbench/suite.py --seeds 1-10 --workloads atlas
    python3 perfbench/suite.py --seeds 1-3 --trace 1 --out summary.json

Runs perfbench/run.py once per (workload, seed) from the current directory,
one run at a time, and prints for every metric the median over seeds, the
quartiles and the spread (interquartile distance over the median) next to
the metric's bound in BENCHMARK.json, plus the failed checks by name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    lines = proc.stdout.strip().splitlines()
    listed = {key: json.loads(text) for key, _, text in
              (l.strip().partition(": ") for l in lines)
              if key in ("failed checks", "unknown failures")}
    checks = dict(listed["failed checks"])
    checks.update({f"{k} (UNKNOWN)": n for k, n in listed["unknown failures"].items()})
    return json.loads(lines[-1]), checks


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {}
    for wl in args.workloads.split(","):
        values, checks, attempted, failed, correct = {}, {}, 0, 0, True
        for seed in seed_list(args.seeds):
            res, fails = run(wl, seed, args.seconds, args.trace)
            attempted, failed = attempted + res["attempted"], failed + res["failed"]
            correct &= res["correct"]
            for k, n in fails.items():
                checks[k] = checks.get(k, 0) + n
            for k, m in res["metrics"].items():
                values.setdefault(k, ([], m["unit"]))[0].append(m["value"])
            print(f"{wl} seed {seed}: correct={res['correct']} " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()
                if args.trace == 0), flush=True)
        rows = {}
        print(f"\n{wl}: {attempted} operations attempted, {failed} failed outside "
              f"the known defects, correct={correct}")
        for k, n in sorted(checks.items()):
            print(f"  failed check {k}: {n}")
        for k, (vals, unit) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit,
                       "runs": len(vals)}
            bound = bounds.get(k)
            flag = "" if bound is None else f"  bound {bound:g} ({'ok' if spread <= bound / 3 else 'WIDE'})"
            print(f"  {k:40s} {med:14.6g} {unit:9s} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}{flag}")
        summary[wl] = {"attempted": attempted, "failed": failed, "correct": correct,
                       "failed_checks": checks, "metrics": rows}
        print()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                       "workloads": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
