"""Two-dimensional gradient Ricci solitons from a single profile equation.

The warped-product metric g = dr^2 + b(r)^2 dtheta^2 of a rotationally
symmetric gradient Ricci soliton is governed, in the coordinate t = b^2/4,
by the autonomous equation a'(t) = 4 mu a^2 (a/gamma - 1) for a = 1/b'.
This package solves and classifies the positive solutions, rebuilds the
metrics, reports their geometry (completeness, curvature range, ends),
verifies the soliton equations as numerical residuals, and checks the
variational characterization through the curvature entropy functional.

The public names are imported from their modules on first access (PEP 562),
so importing the package loads no numpy; the profile, classification and
report layers never do.
"""

import importlib

__version__ = "0.1.0"

#: each public name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("ode", "INFINITE EndTag ProfileA Rescale Scale SolitonParams Translate apply_symmetry blow_up_time_closed "
            "closed_form_profile constant_profile integrate_profile make_params time_between_levels "
            "EndDescriptor GeometryReport geometry_report"),
    ("geometry", "WarpedMetric build_warped_metric curvature_from_a curvature_from_b geodesic_curvature "
                 "metric_from_grid radial_distance"),
    ("taxonomy", "CatalogEntry FamilyLabel catalog catalog_listing classify disk_boundary_distance entry_metric"),
    ("variational", "VariationField bump_variation energy fd_variation first_variation lie_variation "
                    "noether_defect total_curvature variation_report"),
    ("verify", "ResidualReport smooth_extension_check soliton_residual"),
    ("errors", "SolitonError MuZeroError NotSteadyError NonpositiveAnchorError DomainError NotSmoothOriginError "
               "WindowEmptyError EdgeError UnresolvedEndError ZeroCurvatureError RangeError WindowError"),
) for name in names.split()}
_MODULES = ("cli", "errors", "geometry", "ode", "taxonomy", "variational", "verify")

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _MODULES:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
