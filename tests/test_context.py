import pytest

from newton_socle import (dual_fan, grothendieck_residue,
                          jacobian_multiplication_check, nondegeneracy_report,
                          socle_newton_order, verify_residue_nonvanishing)
from newton_socle.context import RunContext
from newton_socle.errors import InputError, TruncationError
from newton_socle.localalg import ideal_generators
from newton_socle.polylattice import SparsePoly

from conftest import poly

# x1^2+x2^5, x1^8+x1^3*x2^2+x2^9 and x1^2+x2^3+x3^4 need a socle span deeper
# than the residues' span; the others settle on the residues' span
INPUTS = ["x1^2 + x2^3", "x1^4 + x1^2*x2^2 + x2^5", "x1^2 + x2^5",
          "x1^8 + x1^3*x2^2 + x2^9", "x1^2+x2^3+x3^4"]


def _socle_monomials(quotient):
    for b in quotient.socle_basis:
        exps = b.support()[0]
        yield SparsePoly.monomial(tuple(e - 1 for e in exps), b.coeff(exps))


def _outcome(call):
    try:
        return call()
    except TruncationError as exc:
        return str(exc)


@pytest.mark.parametrize("trunc", [None, 12])
@pytest.mark.parametrize("text", INPUTS)
def test_context_stages_match_the_public_functions(text, trunc):
    f = poly(text)
    run = RunContext(f, trunc=trunc)
    assert run.nondegeneracy() == nondegeneracy_report(f)
    assert run.dual_fan().to_json() == dual_fan(run.polyhedron).to_json()
    for idx, face in enumerate(run.admissible_faces):
        fc, quotient = run.face_quotient(idx)
        for h in _socle_monomials(quotient):
            assert run.residue(idx, h) == \
                verify_residue_nonvanishing(f, face, h, fc.r, D=trunc)
    # at trunc 12 two socle floors lie above 12: both sides raise alike
    assert _outcome(run.socle_order) == \
        _outcome(lambda: socle_newton_order(f, D=trunc))
    assert _outcome(run.jacobian_multiplication) == \
        _outcome(lambda: jacobian_multiplication_check(f, D=trunc))


def test_one_trace_functional_gives_every_residue():
    f = poly("x1^4 + x1^2*x2^2 + x2^5")
    log_gens, _ = ideal_generators(f)
    trace = RunContext(f).log_trace
    for e in [(0, 0), (1, 1), (2, 3), (3, 2), (1, 4), (5, 0)]:
        g = SparsePoly.monomial(e, 3) + poly("x1*x2 - 2/5*x1^2*x2")
        assert trace.residue(g) == grothendieck_residue(g, log_gens)


def test_a_vanishing_class_is_refused_on_both_routes():
    # on x1^4 + x2^4 the class of x1*x2 * x1^2*x2^4 lies in the image of the
    # parameters 4*x1^4, 4*x2^4
    f = poly("x1^4 + x2^4")
    run = RunContext(f)
    h = poly("x1^2*x2^4")
    with pytest.raises(InputError, match="vanishes"):
        verify_residue_nonvanishing(f, run.admissible_face(0), h, 0)
    with pytest.raises(InputError, match="vanishes"):
        run.residue(0, h)
