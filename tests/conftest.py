from fractions import Fraction

import pytest
from hypothesis import strategies as st

from newton_socle import SparsePoly, newton_polyhedron

# the regression family used across the verification suites
FAMILY = [
    "x1^2 + x2^3",
    "x1^2 + x2^2",
    "x1^2 + x1*x2 + x2^3",
    "x1^3 + x2^3",
    "x1^2 + x2^5",
    "x1^2 + x2^2 + x3^2",
]


def poly(text, nvars=None):
    return SparsePoly.parse(text, nvars=nvars)


@pytest.fixture(scope="session")
def family():
    return [SparsePoly.parse(s) for s in FAMILY]


@pytest.fixture(scope="session")
def family_polyhedra(family):
    return [(f, newton_polyhedron(f)) for f in family]


def frac(a, b=1):
    return Fraction(a, b)


@st.composite
def supports(draw, min_vars=2, max_vars=4, convenient=False):
    """A polynomial with coefficients 1 on a random support in 2-4 variables,
    exponents at most 4; ``convenient`` adds a pure power of every variable."""
    n = draw(st.integers(min_vars, max_vars))
    points = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n),
                           min_size=1, max_size=6))
    if convenient:
        points += [tuple(draw(st.integers(1, 4)) * int(i == j)
                         for j in range(n)) for i in range(n)]
    return SparsePoly(n, {p: 1 for p in points})
