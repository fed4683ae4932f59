"""The invariants of one polynomial that a verification run reads, each
computed on first use and then kept: the Newton polyhedron and its faces,
the graded quotient of each admissible face, one span store
(:class:`localalg.CertifiedSpans`) for each of the log ideal (x_i f_xi) and
the Jacobian ideal (f_xi), and the trace functional of the log span.  The
log store makes one build, at a truncation read off the polyhedron, and
derives the smaller truncations the stages read from it.

Each stage makes the span requests its public function makes, on these
stores, which build each certified span once; it then calls the same compute
half (``localalg.socle_order_report``, ``residue.nonvanishing_residue``,
...), so its report and the order in which it raises are those of the public
function.
"""

from functools import cached_property

from . import facering, fan as fanmod, grobner, localalg, polylattice, residue
from .errors import InputError


class RunContext:
    """Lazily computed invariants of f; ``trunc`` is the requested
    truncation (None to escalate)."""

    def __init__(self, f, trunc=None):
        self.f = f
        self.trunc = trunc
        self._quotients = {}

    @cached_property
    def polyhedron(self):
        return polylattice.newton_polyhedron(self.f)

    @cached_property
    def faces(self):
        return polylattice.faces(self.polyhedron)

    @cached_property
    def admissible_faces(self):
        """Compact faces outside the coordinate hyperplanes, in face order."""
        return [face for face in self.faces
                if face.compact and not face.in_coordinate_hyperplane]

    def admissible_face(self, index):
        if not 0 <= index < len(self.admissible_faces):
            raise InputError("face index out of range (have %d admissible "
                             "faces)" % len(self.admissible_faces))
        return self.admissible_faces[index]

    def nondegeneracy(self):
        return grobner.nondegeneracy_report_of_faces(
            self.f, lambda: [face for face in self.faces if face.compact])

    def dual_fan(self):
        return fanmod.dual_fan_of_faces(self.polyhedron, self.faces)

    def face_quotient(self, index):
        """The face cone of admissible face ``index`` and the canonical
        quotient by its selected parameters."""
        if index not in self._quotients:
            face = self.admissible_face(index)
            fc = facering.face_cone(face)
            params = facering.select_parameters(
                facering.face_derivatives(self.f, face), fc)
            self._quotients[index] = fc, facering.canonical_quotient(fc, params)
        return self._quotients[index]

    @cached_property
    def spans(self):
        """The span stores of the log ideal (x_i f_xi) and of the Jacobian
        ideal (f_xi).  Without a requested truncation the log store builds
        first at the truncation the polyhedron gives
        (:func:`localalg.interior_truncation`), and reads every smaller one
        off that span."""
        log_gens, jac_gens = localalg.ideal_generators(self.f)
        first = (localalg.interior_truncation(self.polyhedron)
                 if self.trunc is None else None)
        return (localalg.CertifiedSpans(log_gens, first),
                localalg.CertifiedSpans(jac_gens))

    @cached_property
    def log_trace(self):
        """The trace functional of the span the residues are read on."""
        span = self.spans[0].certified(min_D=self.trunc or 0)
        return residue.trace_functional(list(span.generators), span)

    def residue(self, index, h):
        """The residue of f^r h dx of :func:`residue.verify_residue_nonvanishing`
        for admissible face ``index``, whose r it takes."""
        fc, quotient = self.face_quotient(index)
        g = residue.interior_class(self.f, fc.delta, h, fc.r)
        return residue.nonvanishing_residue(
            self.f, h, fc.r, g, quotient, lambda p: self.log_trace.residue(p))

    def socle_order(self):
        floor = localalg.socle_truncation_floor(self.polyhedron)
        span = self.spans[0].certified(self.trunc, min_D=floor)
        return localalg.socle_order_report(self.polyhedron, span)

    def jacobian_multiplication(self):
        span_i = self.spans[0].certified(self.trunc)
        span_j = self.spans[1].certified(
            localalg.jacobian_truncation(span_i, self.trunc))
        return localalg.jacobian_multiplication_report(span_i, span_j)
