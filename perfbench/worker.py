"""One run of one workload, in a fresh interpreter started by run.py.

Set-up (import soliton2d, build the input stream, one warm-up operation) is
timed from the moment run.py launched this interpreter.  The timed phase is
a closed loop with one client: the next operation starts when the previous
one has been checked.  Only the operation itself is inside its latency; the
input generator, the checks and the host speed probe run between operations.

Times are reported at the reference host speed: each raw time is scaled by
the reference time of a fixed speed probe that calls nothing of soliton2d
(probe(), process_probe()) over the probe's median time in the gaps around
it.  The shared host slows down by up to 2x for minutes at a time, and the
probe slows down with it.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

# Failures the baseline commit is known to produce, as (family, check).  An
# operation whose failures are all in this list counts as a known defect:
# it lowers ok_frac and is listed by check name, but not in `failed`.  An
# operation with any other failure counts in `failed` and makes the run
# incorrect.
KNOWN_DEFECTS = {
    # disk_boundary_distance drops the tail of its sqrt_hi zone, so every G4
    # disk is short of its boundary by 1e-8..3e-8
    ("G4_PLUS", "catalog.g4_boundary_distance"),
    ("G4_MINUS", "catalog.g4_boundary_distance"),
    # the finite-difference variation has a roundoff floor near 2e-6 that
    # breaks its Richardson slope (test_fd_small_on_soliton): most G11
    # entries, G9 near the low end of its nu range
    ("G9", "variational.fd_slope"),
    ("G11", "variational.fd_slope"),
    # geometry_report's blow-up tail fit at the t = 0 cusp (G8, G11)
    # evaluates a(t) below t = 0 on some entries and misfits the exponent on
    # others
    ("G8", "raised.DOMAIN"),
    ("G8", "raised.UNRESOLVED_END"),
    ("G11", "raised.DOMAIN"),
    ("G11", "raised.UNRESOLVED_END"),
}

# Speed probes: fixed work that calls nothing of soliton2d, timed between
# operations and SETUP_PROBES times after set-up.  probe() is interpreter
# and numpy work of about 1 ms, run three times per gap.  A CLI run is mostly
# interpreter start-up and imports, which slow down more than in-process work
# does, so the cli workload probes once per gap with a fresh interpreter that
# imports numpy.  The *_REF_S values are about their median times on the
# baseline host; an operation is scaled by the probes of PROBE_WINDOW gaps on
# each side.
PROBE_X = np.linspace(0.0, 1.0, 4001)
PROBE_REF_S = 1.0e-3
PROCESS_PROBE_REF_S = 0.2
SETUP_PROBES = 8
PROBE_WINDOW = 4


def probe() -> float:
    """Seconds for a fixed piece of in-process work."""
    t0 = time.perf_counter()
    s = sum(i * i for i in range(6000))
    for _ in range(20):
        s += float((np.tanh(PROBE_X) * np.cosh(PROBE_X)).sum())
    return time.perf_counter() - t0


def process_probe() -> float:
    """Seconds for a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def host_speed(times: list[float], ref_s: float) -> float:
    """Factor that scales a time measured now to the reference host speed."""
    return ref_s / statistics.median(times)


# Tail percentile per workload: the highest level that leaves about ten
# samples beyond it at the baseline commit's operation count in a 30 s run, moved
# down to the middle of one case's share of the mix (a level on the border
# between two cases jumps between them from run to run).
TAIL_LEVEL = {"cli": 60.0, "atlas": 85.0, "sweep": 85.0}


def environment() -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


class Workload:
    """inputs(seed), warm-up input, op(inp), check(inp, out); block lists
    the cases of one input block, stratum(inp) is the case an input was
    drawn for and family(inp) its family; probe() times the host speed
    between operations, probe_ref_s is its time at the reference speed."""

    def __init__(self, name, S, W, root):
        self.name = name
        self.probe, self.probe_ref_s = lambda: [probe() for _ in range(3)], PROBE_REF_S
        if name == "sweep":
            self.inputs, self.warmup = W.sweep_inputs, W.sweep_warmup_input()
            self.block = W.SWEEP_CASES
            self.op = lambda inp: W.sweep_op(S, inp)
            self.check = W.sweep_check
            self.stratum = self.family = lambda inp: inp["case"]
        elif name == "atlas":
            self.inputs, self.warmup = W.atlas_inputs, W.ATLAS_WARMUP
            self.block = W.ATLAS_BLOCK
            self.op = lambda inp: W.atlas_op(S, inp)
            self.check = W.atlas_check
            self.stratum = self.family = lambda inp: inp[0]
        else:
            env = W.cli_env(root)
            traced = [sys.executable, os.path.join(root, "perfbench", "cli_traced.py")]
            self.inputs, self.warmup = W.cli_inputs, W.CLI_WARMUP
            self.block = W.CLI_KINDS
            self.op = lambda inp: W.cli_op(W.CLI_PLAIN, env, inp)
            self.op_traced = lambda inp: W.cli_op(traced, env, inp)
            self.check = W.cli_check
            self.stratum = lambda inp: inp["kind"]
            self.family = lambda inp: inp.get("tag") or inp.get("anchor", {}).get("case")
            self.probe, self.probe_ref_s = lambda: [process_probe()], PROCESS_PROBE_REF_S


def run_once(inp, op, S):
    t0 = time.perf_counter()
    try:
        out, err = op(inp), None
    except S.SolitonError as exc:
        out, err = None, f"raised.{type(exc).code}"
    except Exception as exc:  # a program fault other than its typed errors
        out, err = None, f"raised.{type(exc).__name__}"
    return time.perf_counter() - t0, out, err


def negative_control(wl, S, W) -> bool:
    """Feed the checks a known-bad output; True if they flag it."""
    import oracles as O

    if wl.name == "cli":
        code, stdout, stderr = wl.op(wl.warmup)
        return bool(wl.check(wl.warmup, (code, stdout.replace('"G7"', '"G77"'), stderr)))
    # a cigar warping perturbed by 1% (the acceptance suite's negative case)
    r = np.arange(0.2, 3.0, 1e-3)
    T, Tp, Tpp = np.tanh(r), 1.0 / np.cosh(r) ** 2, -2.0 * np.tanh(r) / np.cosh(r) ** 2
    s, sp, spp = 0.01 * np.sin(3 * r), 0.03 * np.cos(3 * r), -0.09 * np.sin(3 * r)
    b, bp = T * (1 + s), Tp * (1 + s) + T * sp
    K = -(Tpp * (1 + s) + 2 * Tp * sp + T * spp) / b
    bad = S.WarpedMetric(params=S.make_params(0.0, -1.0), r=r, b=b, b_prime=bp, K=K,
                         t_of_r=0.25 * b * b)
    res = S.soliton_residual(bad)
    caught = max(res.max_tracefree, res.max_potential, res.max_killing) > O.RESIDUAL_MAX
    if wl.name == "sweep":
        inp = wl.warmup
        label, rep, m, good_res, E = wl.op(inp)
        caught &= bool(W.check_metric_arrays(inp, m.r, m.b * (1 + 1e-6 * np.sin(m.r)),
                                             m.b_prime, m.K, inp["b_in"], inp["R"]))
    return caught


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t-launch", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    args = ap.parse_args()

    t_imp = time.perf_counter()
    import soliton2d as S
    import_ms = 1e3 * (time.perf_counter() - t_imp)
    import tracing
    import workloads as W

    wl = Workload(args.workload, S, W, args.root)
    inputs = wl.inputs(args.seed)
    run_once(wl.warmup, wl.op, S)
    setup_raw_s = time.monotonic() - args.t_launch
    setup_s = setup_raw_s * host_speed(
        sum((wl.probe() for _ in range(SETUP_PROBES)), []), wl.probe_ref_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    lat, lat_traced, cases, stdout_bytes, child_import_ms, probes = [], [], [], [], [], []
    fails = collections.Counter()
    unknown = collections.Counter()
    failed = known = attempted = 0
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end:
        inp = next(inputs)
        cases.append(wl.stratum(inp))
        if tracer is None:
            probes.append(wl.probe())
            dt, out, err = run_once(inp, wl.op, S)
            lat.append(dt)
        else:
            # untraced and traced runs of the same input, alternating order
            tracer.op = attempted
            for traced in ((False, True) if attempted % 2 == 0 else (True, False)):
                in_process = traced and wl.name != "cli"
                if in_process:
                    tracer.install(S)
                try:
                    dt, res_out, res_err = run_once(
                        inp, wl.op_traced if traced and not in_process else wl.op, S)
                finally:
                    if in_process:
                        tracer.uninstall()
                (lat_traced if traced else lat).append(dt)
                if traced:
                    out, err = res_out, res_err
            if wl.name == "cli" and out is not None:
                out, child = _split_trace(out, tracing.MARK)
                if child is not None:
                    base = len(tracer.spans)
                    for span in child["spans"]:
                        span[3] = span[3] + base if span[3] >= 0 else -1
                        span[4] = attempted
                        tracer.spans.append(span)
                    child_import_ms.append(child["import_ms"])
        attempted += 1
        if wl.name == "cli" and out is not None:
            stdout_bytes.append(len(out[1].encode()))
        names = [err] if err else wl.check(inp, out)
        if names:
            case = wl.family(inp)
            new = [n for n in names if (case, n) not in KNOWN_DEFECTS]
            for name in names:
                fails[f"{case}:{name}"] += 1
            for name in new:
                unknown[f"{case}:{name}"] += 1
            if new:
                failed += 1
            else:
                known += 1

    caught = negative_control(wl, S, W)
    result = {
        "workload": args.workload, "seed": args.seed,
        "setup_s": setup_s, "setup_raw_s": setup_raw_s,
        "import_ms": import_ms, "attempted": attempted, "failed": failed, "known": known,
        "failed_checks": dict(fails), "unknown_failures": dict(unknown),
        "negative_control_caught": caught, "env": environment(),
    }
    if tracer is None:
        level = TAIL_LEVEL[args.workload]
        probes.append(wl.probe())
        speed = np.array([
            host_speed(sum(probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW], []),
                       wl.probe_ref_s)
            for i in range(attempted)])
        ms = np.asarray(lat) * 1e3 * speed
        share = {c: wl.block.count(c) / len(wl.block) for c in set(wl.block)}
        w = case_weights(cases, share)
        tail = weighted_percentile(ms, w, level)
        by_case = collections.defaultdict(list)
        for t, c in zip(ms, cases):
            by_case[c].append(t)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result.update({
            "tail_level": level, "tail_beyond": int(np.sum(ms > tail)),
            "host_speed": float(np.median(speed)),
            "case_ms": {c: float(np.median(v)) for c, v in sorted(by_case.items())},
            "metrics": {
                "op_ms.p50": weighted_percentile(ms, w, 50.0),
                "op_ms.tail": tail,
                "ops_per_s": 1e3 * sum(share[c] for c in by_case)
                / sum(share[c] * float(np.mean(v)) for c, v in by_case.items()),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
                "ok_frac": (attempted - failed - known) / attempted,
            },
        })
    else:
        os.makedirs(os.path.join(args.root, ".perfbench"), exist_ok=True)
        tracer.dump(os.path.join(args.root, ".perfbench",
                                 f"trace-{args.workload}-{args.seed}.jsonl"))
        layer = tracing.per_layer(tracer.spans, attempted)
        untraced, traced = float(np.sum(lat)), float(np.sum(lat_traced))
        layer["cli.import_ms"] = (
            statistics.median(child_import_ms) if child_import_ms else import_ms, "ms")
        layer["cli.stdout_bytes"] = (
            statistics.mean(stdout_bytes) if stdout_bytes else 0.0, "bytes/op")
        layer["trace.overhead_ms"] = (1e3 * (traced - untraced) / attempted, "ms/op")
        layer["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
        result["per_layer"] = layer
    print(json.dumps(result))
    return 0


def case_weights(cases: list[str], share: dict) -> np.ndarray:
    """Weight share/n_case per sample: each case counts with its share of an
    input block, however many of its operations the last, partial block of
    the run reached."""
    counts = collections.Counter(cases)
    return np.array([share[c] / counts[c] for c in cases])


def weighted_percentile(x: np.ndarray, w: np.ndarray, q: float) -> float:
    """q-th percentile of the samples x with weights w, interpolated
    between the weight midpoints of neighbouring samples."""
    order = np.argsort(x)
    ws = w[order] / np.sum(w)
    return float(np.interp(q / 100.0, np.cumsum(ws) - 0.5 * ws, x[order]))


def _split_trace(out, mark):
    """Separate the traced CLI child's span record from its real stderr."""
    code, stdout, stderr = out
    head, sep, tail = stderr.rpartition(mark)
    if not sep:
        return out, None
    return (code, stdout, head), json.loads(tail)


if __name__ == "__main__":
    sys.exit(main())
