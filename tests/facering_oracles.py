"""The dense route to face-ring quotients, kept as a test oracle.

Multiplication by the parameters is written out as dense ``Fraction`` rows
over the interior monomials of each degree; the quotient dimension is the
number of monomials minus the number of ``linalg.rref`` pivots, and the socle
basis is the monomials at the non-pivot columns of the expected socle
degree.  ``facering.canonical_quotient`` reads the same off its sparse
echelon and must agree.
"""

from fractions import Fraction

from newton_socle.facering import _parameter_degree, graded_monomials
from newton_socle.linalg import rref
from newton_socle.polylattice import SparsePoly


def image_rows(sigma, grading, params, scaled_degree, param_degrees):
    """Dense rows spanning the image of the parameters in the interior piece
    of the given scaled degree, and that piece."""
    piece = graded_monomials(sigma, grading, scaled_degree, interior=True)
    index = {m: i for i, m in enumerate(piece)}
    rows = []
    for p, pd in zip(params, param_degrees):
        for m in graded_monomials(sigma, grading, scaled_degree - pd,
                                  interior=True):
            row = [Fraction(0)] * len(piece)
            for e, c in p.terms.items():
                row[index[tuple(a + b for a, b in zip(e, m))]] += c
            rows.append(tuple(row))
    return rows, piece


def dense_quotient(sigma, grading, params):
    """``(graded_dims, socle_basis)`` as ``canonical_quotient`` reports them,
    or None when the dimensions fail its Poincaré test (not a system of
    parameters)."""
    d = grading.denominator
    degs = [_parameter_degree(p, grading) for p in params]
    expected = sum(degs)
    top = expected + d
    predicted = {k: len(graded_monomials(sigma, grading, k, interior=True))
                 for k in range(top + 1)}
    for pd in degs:
        predicted = {k: v - predicted.get(k - pd, 0)
                     for k, v in predicted.items()}
    dims = {}
    for k in range(top + 1):
        rows, piece = image_rows(sigma, grading, params, k, degs)
        pivots = set(rref(rows)[1])
        dims[k] = len(piece) - len(pivots)
        if k == expected:
            basis = tuple(SparsePoly.monomial(m) for i, m in enumerate(piece)
                          if i not in pivots)
    nonzero = [k for k, v in dims.items() if v]
    if dims != predicted or not nonzero or max(nonzero) != expected:
        return None
    return {Fraction(k, d): v for k, v in dims.items() if v}, basis
