"""Seeded inputs, one operation and its output checks for each workload.

Inputs come in blocks: every block holds each case of the workload once, in
a seeded order, so that a run's mix of cases does not depend on the seed or
on how many operations fit into the run.  Only the parameters inside a case
are drawn from the seed.

A check returns the names of the checks that failed; an empty list is a
passing operation.  Every reference comes from ``oracles``, never from a
second run of the program.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np

import oracles as O

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def blocks(rng: np.random.Generator, block, draw):
    """Endless stream of (case, params): each block is a seeded permutation
    of ``block`` (a case may appear in it more than once), with params =
    draw(rng, case, j) for the j-th draw of that case."""
    drawn = dict.fromkeys(block, 0)
    while True:
        for i in rng.permutation(len(block)):
            case = block[i]
            yield case, draw(rng, case, drawn[case])
            drawn[case] += 1


# ---------------------------------------------------------------------------
# Phase-line anchors (sweep and cli)
# ---------------------------------------------------------------------------

# Draw ranges keep every anchor away from the knife edges by a margin fixed
# here: |gamma - 1| >= 0.3 on the branches through a(0) = 1, |a / gamma - 1|
# >= 0.2 for every level used, and |T0| >= 0.1 where an initial blow-up
# decides the family.  No draw uses a catalog normalization (mu = -1,
# gamma = -1, lambda = -1 or T0 = 1/4 exactly); the T0 = 0 families G8 and
# G11 are knife edges and are left to the atlas workload.
SMOOTH_CASES = ("G1_CIGAR", "G2_EXPLODING", "G4_PLUS", "G4_MINUS", "G5", "G6", "G7", "G10")
ANNULUS_CASES = ("G3", "G9", "G12")
SWEEP_CASES = SMOOTH_CASES + ANNULUS_CASES


def _u(rng, lo, hi):
    return float(lo + (hi - lo) * rng.random())


def _logu(rng, lo, hi):
    return float(math.exp(_u(rng, math.log(lo), math.log(hi))))


def draw_anchor(rng: np.random.Generator, case: str, _j: int = 0) -> dict:
    """(lam, mu, t_ref, a_ref) on a branch of the given family, plus two
    interior levels a_in (smaller t) and a_out (larger t).  Draws whose |K|
    leaves [KAPPA_MIN, KAPPA_MAX] between the levels are redrawn: the
    acceptance suite states its residual bounds near unit curvature scale."""
    while True:
        anchor = _draw_anchor(rng, case)
        lam, mu = anchor["lam"], anchor["mu"]
        ks = [abs(O.curvature(lam, mu, anchor[k])) for k in ("a_in", "a_out")]
        if KAPPA_MIN <= min(ks) and max(ks) <= KAPPA_MAX:
            return anchor


KAPPA_MIN, KAPPA_MAX = 0.05, 3.0


def _draw_anchor(rng: np.random.Generator, case: str) -> dict:
    m = _logu(rng, 0.5, 2.0)
    T0 = None
    if case == "G1_CIGAR":
        lam, mu = 0.0, -m
    elif case in ("G2_EXPLODING", "G3"):
        lam, mu = 0.0, m
    elif case == "G4_PLUS":
        lam, mu = 2.0 * m / _u(rng, 0.2, 0.7), m
    elif case == "G4_MINUS":
        lam, mu = 2.0 * -m / _u(rng, -3.0, -0.4), -m
    elif case == "G5":
        lam, mu = 2.0 * m / _u(rng, 1.5, 4.0), m
    elif case == "G6":
        lam, mu = 2.0 * -m / _u(rng, 1.5, 4.0), -m
    elif case == "G7":
        lam, mu = 2.0 * -m / _u(rng, 0.2, 0.7), -m
    elif case == "G9":
        lam, mu = 2.0 * -m / _u(rng, 0.3, 2.0), -m
    else:  # G10, G12
        lam, mu = 2.0 * m / _u(rng, -3.0, -0.4), m
    g = 2.0 * mu / lam if lam != 0.0 else math.inf

    if case in ANNULUS_CASES:
        T0 = _u(rng, 0.1, 0.5)
        branch = O.Branch(lam, mu, T0, math.inf)
        if case == "G9":
            a_in, a_out = g * _u(rng, 3.0, 5.0), g * _u(rng, 1.2, 1.5)
        else:
            a_in, a_out = _u(rng, 2.0, 4.0), _u(rng, 0.2, 0.5)
    else:
        branch = O.Branch(lam, mu, 0.0, 1.0)
        if case in ("G1_CIGAR", "G4_PLUS", "G4_MINUS"):
            a_in, a_out = _u(rng, 1.2, 2.0), _u(rng, 3.0, 6.0)
        elif case == "G6":
            a_in, a_out = 1.0 + (g - 1.0) * _u(rng, 0.1, 0.3), 1.0 + (g - 1.0) * _u(rng, 0.6, 0.8)
        elif case == "G7":
            a_in, a_out = g + (1.0 - g) * _u(rng, 0.7, 0.9), g + (1.0 - g) * _u(rng, 0.2, 0.4)
        else:
            a_in, a_out = _u(rng, 0.6, 0.85), _u(rng, 0.15, 0.4)
        if case in ("G7", "G10"):
            T0 = branch.blowup_time()
    a_ref = float(math.exp(_u(rng, math.log(a_in), math.log(a_out))))
    return {
        "case": case, "lam": lam, "mu": mu, "t_ref": branch.t(a_ref), "a_ref": a_ref,
        "a_in": a_in, "a_out": a_out, "T0": T0, "branch": branch,
        "smooth": case in SMOOTH_CASES,
    }


def steady_b(anchor: dict, r: np.ndarray, b_in: float):
    """Closed-form b(r) of the steady metrics with b(0) = b_in, else None."""
    lam, mu = anchor["lam"], anchor["mu"]
    if lam != 0.0:
        return None
    if anchor["case"] == "G1_CIGAR":
        nu = math.sqrt(-mu)
        return np.tanh(nu * r + math.atanh(nu * b_in)) / nu
    if anchor["case"] == "G2_EXPLODING":
        nu = math.sqrt(mu)
        return np.tan(nu * r + math.atan(nu * b_in)) / nu
    # G3: b' = mu (b^2 - beta^2), cylinder radius beta = 2 sqrt(T0)
    beta = 2.0 * math.sqrt(anchor["T0"])
    k = mu * beta
    r_pole = math.atanh(beta / b_in) / k
    return beta / np.tanh(k * (r_pole - r))


def metric_window(anchor: dict) -> tuple[float, float]:
    """(b_in, R): the metric is anchored at b(0) = b_in on the a_in circle and
    covers the radial window [0, R] up to the a_out circle."""
    br = anchor["branch"]
    b_in = 2.0 * math.sqrt(br.t(anchor["a_in"]))
    return b_in, br.arc_length(anchor["a_in"], anchor["a_out"])


def check_metric_arrays(anchor: dict, r, b, bp, K, b_in: float, R: float) -> list[str]:
    """Metric samples against the branch: placement of both window ends
    (arc length), the profile at every sample, and the steady closed forms."""
    fails = []
    lam, mu, br = anchor["lam"], anchor["mu"], anchor["branch"]
    if abs(r[0]) > 1e-12 or abs(r[-1] - R) > 1e-12 * max(1.0, R):
        fails.append("metric.r_window")
    b_out = 2.0 * math.sqrt(br.t(anchor["a_out"]))
    if abs(b[0] - b_in) > O.QUADRATURE_REL * b_in or abs(b[-1] - b_out) > 1e-8 * b_out:
        fails.append("metric.arc_length")
    # every sample lies on the branch: t(a) = b^2/4 with a = 1/b', measured
    # as a relative error of a through the exact time-to-level map
    idx = np.linspace(0, len(r) - 1, 41).astype(int)
    for i in idx:
        a = 1.0 / bp[i]
        err_a = abs(br.t(a) - 0.25 * b[i] ** 2) * abs(O.rhs(lam, mu, a)) / a
        if err_a > O.PROFILE_REL:
            fails.append("metric.profile")
            break
    if np.max(np.abs(K - (lam - 2.0 * mu * bp))) > 1e-12 * np.max(np.abs(K)):
        fails.append("metric.curvature")
    closed = steady_b(anchor, np.asarray(r), b_in)
    if closed is not None and np.max(np.abs(b - closed) / np.maximum(1.0, np.abs(closed))) > O.STEADY_B_TOL:
        fails.append("metric.steady_closed_form")
    return fails


def check_family(anchor: dict, tag: str, t0_est, t0_unc) -> list[str]:
    fails = []
    if tag != anchor["case"]:
        fails.append("classify.family")
    elif anchor["T0"] is not None and anchor["case"] not in ("G3",):
        if t0_est is None or abs(t0_est - anchor["T0"]) > max(t0_unc or 0.0, 1e-12):
            fails.append("classify.t0_estimate")
    return fails


# ---------------------------------------------------------------------------
# sweep: in-process library pipeline on phase-line anchors
# ---------------------------------------------------------------------------

SWEEP_SAMPLES = 20001
SWEEP_RESIDUAL_H = 5e-4


def sweep_inputs(seed: int):
    rng = np.random.default_rng([seed, 2])
    for _case, anchor in blocks(rng, SWEEP_CASES, draw_anchor):
        anchor["b_in"], anchor["R"] = metric_window(anchor)
        yield anchor


def sweep_warmup_input() -> dict:
    anchor = draw_anchor(np.random.default_rng(0), "G6")
    anchor["b_in"], anchor["R"] = metric_window(anchor)
    return anchor


def sweep_op(S, inp):
    params = S.make_params(inp["lam"], inp["mu"])
    prof = S.integrate_profile(params, inp["t_ref"], inp["a_ref"], (-math.inf, math.inf))
    label = S.classify(prof)
    rep = S.geometry_report(prof)
    metric = S.build_warped_metric(prof, (0.0, inp["b_in"]), (0.0, inp["R"]),
                                   n_samples=SWEEP_SAMPLES)
    # residuals on every k-th sample, at the spacing criterion 7 states its
    # bound for; on the full grid the profile's rounding dominates u''
    k = max(1, round(SWEEP_RESIDUAL_H / metric.spacing))
    coarse = dataclasses.replace(metric, r=metric.r[::k], b=metric.b[::k],
                                 b_prime=metric.b_prime[::k], K=metric.K[::k],
                                 t_of_r=metric.t_of_r[::k])
    res = S.soliton_residual(coarse)
    E = S.energy(metric, (float(metric.r[0]), float(metric.r[-1])))
    return label, rep, metric, res, E


def sweep_check(inp, out) -> list[str]:
    label, rep, m, res, E = out
    lam, mu, br = inp["lam"], inp["mu"], inp["branch"]
    fails = check_family(inp, label.tag, label.t0_estimate, label.t0_uncertainty)
    fails += O.check_report(rep.to_json_dict(), inp["case"], lam, mu, br)
    if m.r.size != SWEEP_SAMPLES:
        fails.append("metric.samples")
    else:
        fails += check_metric_arrays(inp, m.r, m.b, m.b_prime, m.K, inp["b_in"], inp["R"])
    if max(res.max_tracefree, res.max_laplace, res.max_potential, res.max_killing) > O.RESIDUAL_MAX:
        fails.append("verify.residual")
    want = br.energy(inp["a_in"], inp["a_out"])
    if abs(E - want) > 1e-7 * max(1.0, abs(want)):
        fails.append("variational.energy")
    return fails


# ---------------------------------------------------------------------------
# atlas: catalog entries over all thirteen family tags
# ---------------------------------------------------------------------------

# nu ranges of the acceptance suite (NU_VERIFY in tests/test_acceptance.py):
# its residual and variation bounds are stated for entries near unit scale.
ATLAS_NU = {
    "G1_CIGAR": (0.5, 1.0), "G2_EXPLODING": (0.5, 1.0), "G3": (0.3, 1.0),
    "G4_PLUS": (1.3, 1.45), "G4_MINUS": (1.7, 3.0), "G5": (0.5, 1.0),
    "G6": (1.5, 5.0), "G7": (7.0, 12.0), "G8": (1.0, 6.0), "G9": (1.0, 4.0),
    "G10": (0.5, 1.0), "G11": (0.5, 1.0), "G12": (0.5, 1.0),
}
ATLAS_TAGS = tuple(ATLAS_NU)
# A block holds every non-G4 tag three times and each G4 tag once: the two
# G4 catalogs still take about half of the time, and the other tags get
# enough samples per run for a steady median.
ATLAS_BLOCK = tuple(t for t in ATLAS_TAGS if not t.startswith("G4")) * 3 + ("G4_PLUS", "G4_MINUS")
ATLAS_H = 1e-3
ATLAS_EPS = 1e-3  # the eps of criterion 9's Richardson-slope check


def atlas_inputs(seed: int):
    """(tag, nu) with nu on a golden-ratio sequence inside the tag's range,
    started at a seeded offset, so each run covers every range evenly."""
    rng = np.random.default_rng([seed, 1])
    offsets = rng.random(len(ATLAS_TAGS))

    def draw(_rng, tag, j):
        lo, hi = ATLAS_NU[tag]
        u = (offsets[ATLAS_TAGS.index(tag)] + j * GOLDEN) % 1.0
        return lo + (hi - lo) * u

    yield from blocks(rng, ATLAS_BLOCK, draw)


ATLAS_WARMUP = ("G6", 3.0)


def atlas_op(S, inp):
    tag, nu = inp
    entry = S.catalog(tag, nu)
    rep = S.geometry_report(entry.profile)
    metric = S.entry_metric(entry, h=ATLAS_H)
    res = S.soliton_residual(metric)
    lo, hi = float(metric.r[0]), float(metric.r[-1])
    pad = 0.15 * (hi - lo)
    v = S.bump_variation((lo + pad, hi - pad), psi_amp=1.0)
    var = S.variation_report(metric, v, eps=ATLAS_EPS)
    return entry, rep, metric, res, var


def catalog_branch(tag: str, nu: float, gamma_g4: float | None = None) -> O.Branch:
    """Branch of the catalog normalization, from the docstring of catalog."""
    if tag == "G1_CIGAR":
        return O.Branch(0.0, -nu * nu, 0.0, 1.0)
    if tag == "G2_EXPLODING":
        return O.Branch(0.0, nu * nu, 0.0, 1.0)
    if tag == "G3":
        return O.Branch(0.0, 1.0, nu * nu / 4.0, math.inf)
    if tag in ("G4_PLUS", "G4_MINUS"):
        return O.Branch(*O.g4_params(gamma_g4), 0.0, 1.0)
    if tag == "G5":
        return O.Branch(nu * nu, nu * nu, 0.0, 1.0)
    g = O.TWO_PI / nu
    if tag in ("G6", "G7"):
        return O.Branch(-2.0 / g, -1.0, 0.0, 1.0)
    if tag == "G8":
        return O.Branch(-1.0, -g / 2.0, 0.0, math.inf)
    if tag == "G9":
        return O.Branch(-2.0 / g, -1.0, 0.25, math.inf)
    if tag == "G10":
        return O.Branch(-2.0 * nu * nu, nu * nu, 0.0, 1.0)
    if tag == "G11":
        return O.Branch(-1.0, nu * nu, 0.0, math.inf)
    return O.Branch(-2.0 * nu * nu, nu * nu, 0.25, math.inf)  # G12


def check_catalog_entry(tag: str, nu: float, family: str, lam: float, mu: float,
                        entry_nu: float, rep: dict) -> list[str]:
    """Catalog output against its normalization and the nu invariants."""
    fails = []
    if family != tag:
        fails.append("catalog.family")
    gamma = 2.0 * mu / lam if lam != 0.0 else math.inf
    br = catalog_branch(tag, nu, gamma if tag.startswith("G4") else None)
    if not (O.close(lam, br.lam, 1e-12) and O.close(mu, br.mu, 1e-12)):
        fails.append("catalog.normalization")
        return fails
    if tag.startswith("G4"):
        # the realized disk reaches its boundary at distance nu, and the
        # catalog reports that distance
        if max(abs(O.g4_boundary_distance(gamma) - nu), abs(entry_nu - nu)) > O.QUADRATURE_REL * nu:
            fails.append("catalog.g4_boundary_distance")
    fails += O.check_report(rep, tag, lam, mu, br, nu=nu if tag in ("G1_CIGAR", "G3", "G6", "G7", "G8", "G9") else None)
    return fails


def atlas_check(inp, out) -> list[str]:
    tag, nu = inp
    entry, rep, m, res, var = out
    p = entry.params
    fails = check_catalog_entry(tag, nu, entry.family.tag, p.lam, p.mu, entry.nu,
                                rep.to_json_dict())
    if max(res.max_tracefree, res.max_laplace, res.max_potential, res.max_killing) > O.RESIDUAL_MAX:
        fails.append("verify.residual")
    if abs(var["analytic"]) > O.VARIATION_MAX_H1E3:
        fails.append("variational.tracefree_critical")
    if not var["slope_estimate"] >= O.RICHARDSON_MIN:
        fails.append("variational.fd_slope")
    if var["noether_defect"] > O.NOETHER_MAX:
        fails.append("variational.noether")
    return fails


# ---------------------------------------------------------------------------
# cli: fresh `python -m soliton2d.cli` processes over a command corpus
# ---------------------------------------------------------------------------

# eleven kinds, so that p50 and p60 fall inside a kind's share of the mix,
# not on the border between two kinds
CLI_KINDS = ("classify", "report", "integrate", "integrate_20001", "metric",
             "metric_20001", "verify", "energy", "catalog_smooth", "catalog_punctured",
             "catalog_list")
# G4 is left out: its bisection would set this workload's tail
CLI_CATALOG_TAGS = {
    "catalog_smooth": ("G1_CIGAR", "G2_EXPLODING", "G5", "G6", "G7", "G10"),
    "catalog_punctured": ("G3", "G8", "G9", "G11", "G12"),
}


def _anchor_flags(a: dict) -> list[str]:
    return ["--lambda", repr(a["lam"]), "--mu", repr(a["mu"]),
            "--a0", repr(a["a_ref"]), "--t0", repr(a["t_ref"])]


def draw_cli(rng: np.random.Generator, kind: str, _j: int) -> dict:
    if kind == "catalog_list":
        return {"argv": ["catalog", "--list"]}
    if kind in CLI_CATALOG_TAGS:
        tags = CLI_CATALOG_TAGS[kind]
        tag = tags[int(rng.integers(len(tags)))]
        lo, hi = ATLAS_NU[tag]
        nu = _u(rng, lo, hi)
        return {"argv": ["catalog", "--family", tag, "--nu", repr(nu)], "tag": tag, "nu": nu}
    cases = SMOOTH_CASES if kind in ("verify", "energy") else SWEEP_CASES
    a = draw_anchor(rng, cases[int(rng.integers(len(cases)))])
    if kind in ("classify", "report"):
        return {"argv": [kind] + _anchor_flags(a), "anchor": a}
    if kind.startswith("integrate"):
        n = 20001 if kind.endswith("20001") else 2001
        lo, hi = sorted((a["branch"].t(a["a_in"]), a["branch"].t(a["a_out"])))
        argv = ["integrate"] + _anchor_flags(a) + [
            "--window", f"{lo!r},{hi!r}", "--samples", str(n), "--format", "csv"]
        return {"argv": argv, "anchor": a, "n": n, "window": (lo, hi)}
    b_in, R = metric_window(a)
    if kind.startswith("metric"):
        n = 20001 if kind.endswith("20001") else 2001
    else:
        n = int(math.ceil(R / 5e-4)) + 1  # spacing <= 5e-4 keeps criterion 7's h <= 1e-3
    argv = [kind.split("_")[0]] + _anchor_flags(a) + ["--b0", repr(b_in), "--r-range", f"0,{R!r}",
                                        "--samples", str(n)]
    out = {"argv": argv, "anchor": a, "n": n, "b_in": b_in, "R": R}
    if kind.startswith("metric"):
        argv += ["--format", "csv"]
    if kind == "energy":
        lo_a, hi_a = a["a_in"], a["a_out"]
        a1, a2 = lo_a + 0.2 * (hi_a - lo_a), lo_a + 0.8 * (hi_a - lo_a)
        r1, r2 = a["branch"].arc_length(lo_a, a1), a["branch"].arc_length(lo_a, a2)
        argv += ["--window", f"{r1!r},{r2!r}", "--eps", repr(ATLAS_EPS)]
        out["levels"] = (a1, a2)
    return out


def cli_inputs(seed: int):
    rng = np.random.default_rng([seed, 3])
    for kind, cmd in blocks(rng, CLI_KINDS, draw_cli):
        cmd["kind"] = kind
        yield cmd


CLI_WARMUP = {"kind": "catalog_list", "argv": ["catalog", "--list"]}


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("SOLITON_LOG", None)
    return env


def cli_op(argv_prefix: list[str], env: dict, inp: dict):
    proc = subprocess.run(argv_prefix + inp["argv"], env=env, capture_output=True,
                          text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


CLI_PLAIN = [sys.executable, "-m", "soliton2d.cli"]


def _csv_rows(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    return np.array([[float(x) for x in row] for row in csv.reader(lines[1:])])


def cli_check(inp, out) -> list[str]:
    code, stdout, stderr = out
    if code != 0:
        # "soliton: CODE: ..." or "soliton: numerical failure CODE: ..."
        words = stderr.replace(":", " ").split()
        codes = [w for w in words if w.isupper() and w.replace("_", "").isalpha()]
        return [f"raised.{codes[0]}" if codes else f"cli.exit_{code}"]
    kind = inp["kind"]
    try:
        if kind.startswith(("integrate", "metric")):
            rows = _csv_rows(stdout, "t,a,dadt" if kind.startswith("integrate") else "r,b,db_dr,K")
            if rows is None:
                return ["cli.parse"]
        else:
            data = json.loads(stdout)
    except (ValueError, IndexError):
        return ["cli.parse"]

    if kind == "catalog_list":
        fams = [row["family"] for row in data]
        want = [t for t in ATLAS_TAGS if not t.startswith("G4")]
        want.insert(3, "G4")
        return [] if fams == want else ["catalog.listing"]
    if kind in CLI_CATALOG_TAGS:
        return check_catalog_entry(inp["tag"], inp["nu"], data["family"], data["lambda"],
                                   data["mu"], data["nu"], data["report"])
    a = inp["anchor"]
    lam, mu, br = a["lam"], a["mu"], a["branch"]
    if kind == "classify":
        return check_family(a, data["family"], data.get("t0_estimate"), data.get("t0_uncertainty"))
    if kind == "report":
        return O.check_report(data, a["case"], lam, mu, br)
    if kind.startswith("integrate"):
        fails = []
        t, av, dv = rows[:, 0], rows[:, 1], rows[:, 2]
        lo, hi = inp["window"]
        if t.size != inp["n"] or abs(t[0] - lo) > 1e-12 * max(1.0, abs(lo)) \
                or abs(t[-1] - hi) > 1e-12 * max(1.0, abs(hi)):
            fails.append("integrate.grid")
        for ti, ai, di in zip(t[::50], av[::50], dv[::50]):
            q = O.rhs(lam, mu, ai)
            if abs(br.t(ai) - ti) * abs(q) / ai > O.PROFILE_REL:
                fails.append("integrate.profile")
                break
            if abs(di - q) > 1e-12 * (abs(2.0 * lam * ai**3) + abs(4.0 * mu * ai**2)):
                fails.append("integrate.dadt")
                break
        return fails
    if kind.startswith("metric"):
        if rows.shape != (inp["n"], 4):
            return ["metric.samples"]
        return check_metric_arrays(a, rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3],
                                   inp["b_in"], inp["R"])
    if kind == "verify":
        fails = []
        if max(data["max_tracefree"], data["max_laplace"], data["max_potential"],
               data["max_killing"]) > O.RESIDUAL_MAX:
            fails.append("verify.residual")
        if abs(data["spacing"] - inp["R"] / (inp["n"] - 1)) > 1e-12:
            fails.append("verify.grid")
        return fails
    # energy
    fails = []
    want = br.energy(*inp["levels"])
    if abs(data["energy"] - want) > 1e-6 * max(1.0, abs(want)):
        fails.append("variational.energy")
    if data["noether_defect"] > O.NOETHER_MAX:
        fails.append("variational.noether")
    if abs(data["analytic"]) > O.VARIATION_MAX_H1E3:
        fails.append("variational.tracefree_critical")
    if not data["slope_estimate"] >= O.RICHARDSON_MIN:
        fails.append("variational.fd_slope")
    return fails
