"""Exact-arithmetic Newton-polyhedron invariants of polynomial singularities:
dual fans, graded face rings, socle degrees, Newton orders and Grothendieck
residues, with mechanical verification pipelines."""

from .errors import (CapError, InputError, RegularizationError,
                     TruncationError, VerificationError)
from .polylattice import (INFINITY, FaceDescriptor, NewtonPolyhedron,
                          SparsePoly, compact_faces, face_part, face_parts,
                          faces, newton_order, newton_polyhedron,
                          normalized_volume, support_function)
from .fan import (Cone, Fan, RayData, check_face_duality, cone_from_rays,
                  dual_cone, dual_fan, fan_from_json, interior_rays,
                  is_regular, multiplicity, orbit_closure_intersection,
                  pole_components, regularize)
from .facering import (CanonicalQuotient, FaceCone, GradedPiece, GradingForm,
                       canonical_quotient, class_nonzero, face_cone,
                       face_derivatives, graded_piece, grading_form,
                       poincare_series, select_parameters)
from .grobner import (GB, buchberger, nondegeneracy_report, nondegenerate,
                      torus_has_zero)
from .localalg import (IdealSpan, TruncatedLocalAlgebra, build_ideal,
                       certified_ideal, coset_newton_order, ideal_generators,
                       jacobian_multiplication_check, member, socle,
                       socle_newton_order, verify_interior_membership)
from .residue import (LatticeSpace, ResidueResult, grothendieck_residue,
                      koszul_check, koszul_top_dimension, lattice_space,
                      monomial_residue, trace_volume_check,
                      verify_residue_nonvanishing, volume_by_lattice_count)
from .combid import (CSystem, MinorTable, WeightSystem,
                     check_minor_identity, check_ones_column_identity,
                     check_resolution_assumptions, choose_weights,
                     random_minor_identity_trials, solve_c_system)

__version__ = "0.1.0"
