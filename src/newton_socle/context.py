"""The invariants of one polynomial that a verification run reads, each
computed on first use and then kept: the Newton polyhedron and its faces,
the graded quotient of each admissible face, the certified spans of the log
ideal (x_i f_xi) and of the Jacobian ideal (f_xi), and the trace functional
of the log span.

The stages call the same compute halves as the public functions
(``localalg.socle_order_report``, ``residue.nonvanishing_residue``, ...), on
these objects instead of rebuilt ones, so their reports and the order in
which they raise are those of the public functions.
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
    def generators(self):
        """The log generators (x_i f_xi) and the Jacobian generators."""
        return localalg.ideal_generators(self.f)

    @cached_property
    def log_span(self):
        """The span the residues are read on: escalated from ``trunc``."""
        return localalg.certified_ideal(self.generators[0],
                                        min_D=self.trunc or 0)

    @cached_property
    def log_trace(self):
        return residue.trace_functional(list(self.generators[0]),
                                        self.log_span)

    def residue(self, index, h):
        """The residue of f^r h dx of :func:`residue.verify_residue_nonvanishing`
        for admissible face ``index``, whose r it takes."""
        fc, quotient = self.face_quotient(index)
        g = residue.interior_class(self.f, fc.delta, h, fc.r)
        return residue.nonvanishing_residue(
            self.f, h, fc.r, g, quotient, lambda p: self.log_trace.residue(p))

    @cached_property
    def exact_log_span(self):
        """The log span at exactly ``trunc``, which the socle stage and the
        Jacobian check share."""
        return localalg.certified_ideal(self.generators[0], D=self.trunc)

    def socle_order(self):
        """The report of :func:`localalg.socle_newton_order`.  Without
        ``trunc`` the escalation it would run settles on the log span
        whenever that span reaches its floor, so the span is reused then."""
        floor = localalg.socle_truncation_floor(self.polyhedron)
        if self.trunc is not None:
            localalg.check_truncation_floor(self.trunc, floor)
            span = self.exact_log_span
        elif self.log_span.algebra.D >= floor:
            span = self.log_span
        else:
            span = localalg.certified_ideal(self.generators[0], min_D=floor)
        return localalg.socle_order_report(self.polyhedron, span)

    @cached_property
    def jacobian_spans(self):
        """The spans of :func:`localalg.jacobian_multiplication_check`: the
        log span at exactly ``trunc`` (without it, the residues' span), and
        the Jacobian span at the same truncation."""
        span_i = self.log_span if self.trunc is None else self.exact_log_span
        return span_i, localalg.certified_ideal(self.generators[1],
                                                D=span_i.algebra.D)

    def jacobian_multiplication(self):
        return localalg.jacobian_multiplication_report(*self.jacobian_spans)
