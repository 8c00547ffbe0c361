"""Spans around the public functions of soliton2d, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
soliton2d module that holds it, including names re-bound by ``from .x import
y`` (``taxonomy.build_warped_metric``, ``geometry.integrate_profile``,
``taxonomy.integrate_profile``, the package namespace, ...), so that calls
between modules are seen too.  ``uninstall`` puts the originals back.

A span is [name, start, end, parent, op, size, key, error]: ``parent`` is
the index of the enclosing span (-1 at the top), ``op`` the operation id,
``size`` the amount of work where one is defined (points, samples), ``key``
the family tag of a catalog call, ``error`` the code of a SolitonError that
left the span.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

# separates the traced CLI child's span record from the CLI's own stderr
MARK = "@@perfbench-trace@@ "
LAYERS = ("cli", "ode", "geometry", "taxonomy", "verify", "variational")
TAGS = ("G1_CIGAR", "G2_EXPLODING", "G3", "G4_PLUS", "G4_MINUS", "G5", "G6",
        "G7", "G8", "G9", "G10", "G11", "G12")
# span name -> (module, attribute); "Class.method" attributes wrap methods
TRACED = {
    "ode.integrate_profile": ("ode", "integrate_profile"),
    "ode.a": ("ode", "ProfileA.a"),
    "geometry.build_warped_metric": ("geometry", "build_warped_metric"),
    "geometry.geometry_report": ("geometry", "geometry_report"),
    "geometry.radial_distance": ("geometry", "radial_distance"),
    "taxonomy.catalog": ("taxonomy", "catalog"),
    "taxonomy.classify": ("taxonomy", "classify"),
    "taxonomy.disk_boundary_distance": ("taxonomy", "disk_boundary_distance"),
    "taxonomy.entry_metric": ("taxonomy", "entry_metric"),
    "verify.soliton_residual": ("verify", "soliton_residual"),
    "variational.variation_report": ("variational", "variation_report"),
    "variational.fd_variation": ("variational", "fd_variation"),
    "variational.energy": ("variational", "energy"),
}
# output formatting the CLI calls, traced as "cli.export" (the cli layer)
EXPORTS = [("ode", "ProfileA.to_csv"), ("geometry", "WarpedMetric.to_csv"),
           ("geometry", "GeometryReport.to_json_dict"),
           ("geometry", "EndDescriptor.to_json_dict"),
           ("verify", "ResidualReport.to_json_dict")]


def _size(name, args, kwargs, result):
    if name == "ode.a":
        return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))
    if name == "geometry.build_warped_metric":
        return int(result.r.size)
    if name == "verify.soliton_residual":
        return int(result.grid.size)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = 0

    def wrap(self, name, fn, soliton_error):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0,
                    args[0] if name == "taxonomy.catalog" else None, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except soliton_error as exc:
                span[7] = type(exc).code
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _size(name, args, kwargs, result)
            return result

        return traced

    def install(self, package, with_export: bool = False):
        """Wrap the traced functions of ``package`` (the imported soliton2d)."""
        mods = [package] + [getattr(package, m) for m in LAYERS if hasattr(package, m)]
        targets = list(TRACED.items())
        if with_export:
            targets += [("cli.export", t) for t in EXPORTS]
        for name, (mod_name, attr) in targets:
            home = getattr(package, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig, package.SolitonError))
                continue
            orig = getattr(home, attr)
            wrapper = self.wrap(name, orig, package.SolitonError)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for holder, attr, orig in reversed(self._saved):
            setattr(holder, attr, orig)
        self._saved.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def per_layer(spans: list[list], n_ops: int) -> dict:
    """Per-layer metrics from spans of n_ops operations: per-operation counts
    and times, waste ratios, module errors and each layer's self time."""
    n = max(n_ops, 1)
    calls, ms, size = {}, {}, {}
    child_ms = [0.0] * len(spans)
    errors = dict.fromkeys(LAYERS, 0)
    cat_ms, cat_n = {}, {}
    a_points_in_bwm = 0
    in_bwm = [False] * len(spans)
    for i, (name, t0, t1, parent, _op, sz, key, err) in enumerate(spans):
        dur = 1e3 * (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        ms[name] = ms.get(name, 0.0) + dur
        size[name] = size.get(name, 0) + sz
        if parent >= 0:
            child_ms[parent] += dur
            in_bwm[i] = in_bwm[parent] or spans[parent][0] == "geometry.build_warped_metric"
        if name == "ode.a" and in_bwm[i]:
            a_points_in_bwm += sz
        if name == "taxonomy.catalog":
            cat_ms[key] = cat_ms.get(key, 0.0) + dur
            cat_n[key] = cat_n.get(key, 0) + 1
        # an error counts once per module it leaves
        layer = name.split(".")[0]
        if err and (parent < 0 or spans[parent][0].split(".")[0] != layer):
            errors[layer] += 1
    self_ms = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_ms[s[0].split(".")[0]] += 1e3 * (s[2] - s[1]) - child_ms[i]

    def per_op(d, key):
        return d.get(key, 0) / n

    g4 = cat_n.get("G4_PLUS", 0) + cat_n.get("G4_MINUS", 0)
    out = {
        "ode.integrate_profile.calls": (per_op(calls, "ode.integrate_profile"), "count/op"),
        "ode.integrate_profile.ms": (per_op(ms, "ode.integrate_profile"), "ms/op"),
        "ode.a.calls": (per_op(calls, "ode.a"), "count/op"),
        "ode.a.points": (per_op(size, "ode.a"), "count/op"),
        "ode.a.ms": (per_op(ms, "ode.a"), "ms/op"),
        "ode.integrations_per_op": (_reintegrations(spans) / n, "count/op"),
        "geometry.build_warped_metric.calls": (per_op(calls, "geometry.build_warped_metric"), "count/op"),
        "geometry.build_warped_metric.ms": (per_op(ms, "geometry.build_warped_metric"), "ms/op"),
        "geometry.build_warped_metric.samples": (per_op(size, "geometry.build_warped_metric"), "count/op"),
        "geometry.a_points_per_sample": (
            a_points_in_bwm / max(size.get("geometry.build_warped_metric", 0), 1), "ratio"),
        "geometry.geometry_report.ms": (per_op(ms, "geometry.geometry_report"), "ms/op"),
        "geometry.radial_distance.ms": (per_op(ms, "geometry.radial_distance"), "ms/op"),
    }
    for tag in TAGS:
        out[f"taxonomy.catalog.{tag}.ms"] = (
            cat_ms.get(tag, 0.0) / cat_n[tag] if cat_n.get(tag) else 0.0, "ms/call")
    out.update({
        "taxonomy.disk_boundary_distance.calls": (per_op(calls, "taxonomy.disk_boundary_distance"), "count/op"),
        "taxonomy.disk_boundary_distance.ms": (per_op(ms, "taxonomy.disk_boundary_distance"), "ms/op"),
        "taxonomy.disk_probes_per_g4": (
            calls.get("taxonomy.disk_boundary_distance", 0) / g4 if g4 else 0.0, "ratio"),
        "taxonomy.classify.ms": (per_op(ms, "taxonomy.classify"), "ms/op"),
        "taxonomy.entry_metric.ms": (per_op(ms, "taxonomy.entry_metric"), "ms/op"),
        "verify.soliton_residual.ms": (per_op(ms, "verify.soliton_residual"), "ms/op"),
        "verify.soliton_residual.points": (per_op(size, "verify.soliton_residual"), "count/op"),
        "variational.variation_report.ms": (per_op(ms, "variational.variation_report"), "ms/op"),
        "variational.fd_variation.calls": (per_op(calls, "variational.fd_variation"), "count/op"),
        "variational.energy.ms": (per_op(ms, "variational.energy"), "ms/op"),
        "cli.run_ms": (per_op(ms, "cli.run"), "ms/op"),
        "cli.export_ms": (per_op(ms, "cli.export"), "ms/op"),
    })
    for layer in LAYERS:
        out[f"{layer}.errors"] = (errors[layer], "count")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (self_ms[layer] / n, "ms/op")
    return out


# Spans that re-integrate a profile their caller already holds:
# geometry_report through _resolve, classify through _initial_blowup.
REINTEGRATING = ("geometry.geometry_report", "taxonomy.classify")


def _reintegrations(spans) -> int:
    """integrate_profile calls made directly inside a REINTEGRATING span."""
    return sum(1 for s in spans if s[0] == "ode.integrate_profile" and s[3] >= 0
               and spans[s[3]][0] in REINTEGRATING)
