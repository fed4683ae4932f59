"""Exact-arithmetic Newton-polyhedron invariants of polynomial singularities:
dual fans, graded face rings, socle degrees, Newton orders and Grothendieck
residues, with mechanical verification pipelines.

The public names below are loaded on first access (PEP 562), so importing
the package, or running one command of its CLI, loads only the modules that
are used."""

import importlib

# module -> the public names it exports through the package
_EXPORTS = {
    "errors": ("CapError", "InputError", "RegularizationError",
               "TruncationError", "VerificationError"),
    "polylattice": ("INFINITY", "FaceDescriptor", "NewtonPolyhedron",
                    "SparsePoly", "compact_faces", "face_part", "face_parts",
                    "faces", "newton_order", "newton_polyhedron",
                    "normalized_volume", "support_function"),
    "fan": ("Cone", "Fan", "RayData", "cone_from_rays", "dual_fan",
            "fan_from_json", "interior_rays", "is_regular", "multiplicity",
            "regularize"),
    "facering": ("CanonicalQuotient", "FaceCone", "GradingForm",
                 "canonical_quotient", "class_nonzero", "face_cone",
                 "face_derivatives", "grading_form", "poincare_series",
                 "select_parameters"),
    "grobner": ("GB", "buchberger", "nondegeneracy_report", "nondegenerate",
                "torus_has_zero"),
    "localalg": ("IdealSpan", "TruncatedLocalAlgebra", "build_ideal",
                 "certified_ideal", "coset_newton_order",
                 "ideal_generators", "jacobian_multiplication_check",
                 "member", "socle", "socle_newton_order",
                 "verify_interior_membership"),
    "residue": ("ResidueResult", "grothendieck_residue", "koszul_check",
                "koszul_top_dimension", "monomial_residue",
                "trace_volume_check", "verify_residue_nonvanishing",
                "volume_by_lattice_count"),
    "combid": ("MinorTable", "check_minor_identity",
               "check_ones_column_identity", "random_minor_identity_trials"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

_SUBMODULES = set(_EXPORTS) | {"cli", "context", "linalg"}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module("." + module, __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
