"""The record helper behind the package's value types, and the start-up it
keeps small."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import newton_socle
from newton_socle._record import DERIVED, record
from newton_socle.combid import MinorTable
from newton_socle.localalg import IdealSpan
from newton_socle.polylattice import Facet
from newton_socle.residue import ResidueResult


@record
class Pair:
    left: object
    right: object = 0


@record
class OtherPair:
    left: object
    right: object = 0


def test_equality_and_hash_follow_the_field_tuple():
    f = Facet((2, 3), 6, True)
    assert f == Facet(normal=(2, 3), offset=6, compact=True)
    assert f == Facet((2, 3), compact=True, offset=6)
    assert f != Facet((2, 3), 6, False)
    assert hash(f) == hash(((2, 3), 6, True))
    assert len({f, Facet((2, 3), 6, True)}) == 1
    assert hash(MinorTable([[1, 2]])) == hash((((Fraction(1), Fraction(2)),),))


def test_records_of_two_classes_with_equal_fields_differ():
    assert Pair(1, 2) != OtherPair(1, 2)
    assert not Pair(1, 2) == OtherPair(1, 2)
    assert Pair(1, 2) != (1, 2)


def test_defaults_and_argument_errors():
    assert Pair(1) == Pair(1, 0) == Pair(left=1)
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, 2, 3)
    with pytest.raises(TypeError):
        Pair(1, left=1)
    with pytest.raises(TypeError):
        Pair(1, middle=2)


def test_frozen_records_refuse_assignment_and_deletion():
    f = Facet((2, 3), 6, True)
    with pytest.raises(AttributeError):
        f.offset = 7
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(AttributeError):
        del f.offset
    assert f.offset == 6


def test_repr_is_the_dataclass_repr():
    assert repr(Facet((2, 3), 6, True)) == \
        "Facet(normal=(2, 3), offset=6, compact=True)"
    assert repr(ResidueResult(Fraction(-1, 6), 12, True)) == \
        "ResidueResult(value=Fraction(-1, 6), truncation_used=12, stable=True)"


def test_derived_fields_stay_out_of_init_equality_and_repr():
    table = MinorTable([[1, Fraction(1, 2)], [0, 3]])
    assert table.scale == 2 and table.scaled == ((2, 1), (0, 6))
    assert repr(table) == ("MinorTable(matrix=((Fraction(1, 1), "
                           "Fraction(1, 2)), (Fraction(0, 1), "
                           "Fraction(3, 1))))")
    other = MinorTable([[1, Fraction(1, 2)], [0, 3]])
    object.__setattr__(other, "scale", 5)
    assert table == other
    with pytest.raises(TypeError):
        MinorTable([[1]], scale=1)
    assert "scale" not in MinorTable.__dict__


def test_derived_field_is_unset_until_post_init_sets_it():
    @record
    class Lazy:
        value: int
        twice: int = DERIVED

    with pytest.raises(AttributeError):
        Lazy(1).twice


def test_mutable_record_is_unhashable():
    span = IdealSpan(None, (), None, 3)
    with pytest.raises(TypeError):
        hash(span)
    span.m_power_bound = 4
    assert span == IdealSpan(None, (), None, 4)


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    src = os.path.dirname(os.path.dirname(newton_socle.__file__))
    code = ("import sys, newton_socle.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
