"""Command-line front end.

Subcommands: integrate, classify, metric, report, verify, energy, catalog.
Numeric output is deterministic (17 significant digits); data goes to
stdout or --out, diagnostics to stderr (level set by SOLITON_LOG).
Exit codes: 0 success, 1 argument/usage errors, 2 numerical failures.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import sys

# each handler imports the layers it uses: classify, report and every catalog but G4 load no numpy, integrate
# no geometry
from .errors import SolitonError

log = logging.getLogger("soliton")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -2e-3 or -1,0.2 is a value, not a flag
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with code 2 on bad flags; the contract here is exit 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(int(x))
    if x is None:
        return "null"
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f'{_fmt(str(k))}: {_fmt(v)}' for k, v in x.items()) + "}"
    raise TypeError(f"cannot serialize {type(x)!r}")


def _load_config(path: str) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _real(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if math.isnan(v):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return v


def _real_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not two comma-separated numbers")
    return _real(parts[0]), _real(parts[1])


#: argparse keywords of the flags that are not a single real number
_FLAG_ARGS = {"--window": {"type": _real_pair}, "--r-range": {"type": _real_pair}, "--samples": {"type": int},
              "--family": {"type": str}, "--list": {"action": "store_true"}}
#: the flags that fix a branch, and those that place a sampled metric on it
_ANCHOR = ("--lambda", "--mu", "--a0", "--t0")
_SAMPLED = ("--b0", "--r0", "--r-range")


def _require(opts: dict, *keys):
    missing = [k for k in keys if k not in opts]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise _UsageError(f"missing required option(s): {flags}")


def _profile_from(opts: dict):
    from . import ode
    _require(opts, "lambda", "mu", "a0")
    params = ode.make_params(opts["lambda"], opts["mu"])
    t0 = opts.get("t0", 0.0)
    window = opts.get("window", (-math.inf, math.inf))
    return ode.integrate_profile(params, t0, opts["a0"], window)


def _metric_from(opts: dict):
    from . import geometry
    prof = _profile_from(opts)
    b0 = opts.get("b0", 0.0)
    r0 = opts.get("r0", 0.0)
    rr = opts.get("r_range", (0.0, 5.0))
    n = opts.get("samples", 2001)
    return geometry.build_warped_metric(prof, (r0, b0), rr, n_samples=n)


def _integrate(opts: dict):
    prof = _profile_from(opts)
    n = opts.get("samples", 0)
    if opts.get("format") == "csv":
        return prof.to_csv(n)
    ts = prof.sample_grid(n)
    return {
        "lambda": prof.params.lam,
        "mu": prof.params.mu,
        "gamma": prof.params.gamma,
        "t0": prof.t0,
        "t1": prof.t1,
        "tag0": str(prof.tag0),
        "tag1": str(prof.tag1),
        "samples": [{"t": float(t), "a": float(a)} for t, a in zip(ts, prof.a(ts))],
    }


def _classify(opts: dict):
    from . import taxonomy
    prof = _profile_from(opts)
    label = taxonomy.classify(prof)
    payload = {"family": label.tag}
    if label.t0_estimate is not None:
        payload["t0_estimate"] = label.t0_estimate
        payload["t0_uncertainty"] = label.t0_uncertainty
    payload["lambda"] = prof.params.lam
    payload["mu"] = prof.params.mu
    payload["gamma"] = prof.params.gamma
    return payload


def _metric(opts: dict):
    metric = _metric_from(opts)
    if opts.get("format") == "csv":
        return metric.to_csv()
    rows = [
        {"r": float(r), "b": float(b), "db_dr": float(bp), "K": float(K)}
        for r, b, bp, K in zip(metric.r, metric.b, metric.b_prime, metric.K)
    ]
    return {"samples": rows}


def _report(opts: dict):
    from . import ode
    return ode.geometry_report(_profile_from(opts)).to_json_dict()


def _verify(opts: dict):
    from . import verify
    return verify.soliton_residual(_metric_from(opts)).to_json_dict()


def _energy(opts: dict):
    from . import variational
    band = opts.pop("window", None)  # r-band; the profile uses its maximal t-window
    metric = _metric_from(opts)
    window = band if band is not None else (float(metric.r[0]), float(metric.r[-1]))
    pad = 0.05 * (window[1] - window[0])
    v = variational.bump_variation((window[0] + pad, window[1] - pad), psi_amp=0.1)
    rep = variational.variation_report(metric, v, eps=opts.get("eps", 1e-4))
    rep["energy"] = variational.energy(metric, window)
    return rep


def _catalog(opts: dict):
    from . import ode, taxonomy
    if opts.get("list"):
        return taxonomy.catalog_listing()
    _require(opts, "family", "nu")
    tag = str(opts["family"]).upper()
    aliases = {"G1": "G1_CIGAR", "G2": "G2_EXPLODING"}
    tag = aliases.get(tag, tag)
    entry = taxonomy.catalog(tag, opts["nu"])
    return {
        "family": entry.family.tag,
        "nu": entry.nu,
        "lambda": entry.params.lam,
        "mu": entry.params.mu,
        "gamma": entry.params.gamma,
        "normalization": entry.normalization_note,
        "report": ode.geometry_report(entry.profile).to_json_dict(),
    }


#: one row per subcommand: help text, value flags, --format choices and a
#: handler that maps the merged options to CSV text or a JSON-ready object
_COMMANDS = {
    "integrate": ("sample the profile through an anchor",
                  (*_ANCHOR, "--window", "--samples"), ("csv", "json"), _integrate),
    "classify": ("family tag of the branch through an anchor",
                 _ANCHOR, ("json",), _classify),
    "metric": ("reconstruct the warped metric on an r-window",
               (*_ANCHOR, *_SAMPLED, "--samples"), ("csv", "json"), _metric),
    "report": ("completeness / curvature / end-structure report", _ANCHOR, ("json",), _report),
    "verify": ("soliton-equation residuals of the reconstructed metric",
               (*_ANCHOR, *_SAMPLED, "--samples"), ("json",), _verify),
    "energy": ("curvature-entropy window report (variation + conservation)",
               (*_ANCHOR, *_SAMPLED, "--window", "--samples", "--eps"), ("json",), _energy),
    "catalog": ("canonical family representatives",
                ("--family", "--nu", "--list"), ("json",), _catalog),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="soliton", description=__doc__, add_help=True)
    sub = p.add_subparsers(dest="subcommand")
    for name, (helptext, flags, formats, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", default=None, help="key = value file; flags override")
        sp.add_argument("--format", choices=formats, default=None)
        sp.add_argument("--out", default=None, help="write output to this file")
        for flag in flags:
            sp.add_argument(flag, **_FLAG_ARGS.get(flag, {"type": _real}))
    return p


def _merge_options(parser: _Parser, args: argparse.Namespace) -> dict:
    """Flags over the --config file, whose keys are parsed as flags of the
    same subcommand, so an unknown key or a bad value is a usage error."""
    layers = [args]
    if args.config:
        cfg = _load_config(args.config)
        if "config" in cfg:
            raise _UsageError(f"{args.config}: a config file cannot name another")
        flags = [f"--{key.replace('_', '-')}={val}" for key, val in cfg.items()]
        try:
            layers.insert(0, parser.parse_args([args.subcommand, *flags]))
        except _UsageError as exc:
            raise _UsageError(f"{args.config}: {exc}") from None
    opts = {}
    for ns in layers:
        opts.update((key, val) for key, val in vars(ns).items()
                    if val is not None and key not in ("config", "subcommand"))
    return opts


def _emit(result, opts: dict):
    """Write a handler's CSV text as it is, or its JSON-ready object as one line of JSON."""
    text = result if isinstance(result, str) else _fmt(result) + "\n"
    out = opts.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %d bytes to %s", len(text), out)
    else:
        sys.stdout.write(text)


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the exit code."""
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("SOLITON_LOG", "quiet"), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="soliton: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise _UsageError(parser.format_usage())
        opts = _merge_options(parser, args)
        _emit(_COMMANDS[args.subcommand][-1](opts), opts)
        return 0
    except _UsageError as exc:
        sys.stderr.write(str(exc).rstrip() + "\n")
        return 1
    except SolitonError as exc:
        code = type(exc).code
        if exc.usage:
            sys.stderr.write(f"soliton: {code}: {exc}\n")
            return 1
        sys.stderr.write(f"soliton: numerical failure {code}: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"soliton: {exc}\n")
        return 1
    except MemoryError as exc:  # a sample count numpy cannot allocate
        sys.stderr.write(f"soliton: out of memory in {args.subcommand!r}: {exc}\n")
        return 2
    except Exception as exc:  # defensive: surface, never traceback
        sys.stderr.write(f"soliton: internal failure in {args.subcommand!r}: {exc!r}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
