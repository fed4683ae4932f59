"""The record helper behind the package's value types, and the start-up it
keeps small."""

import argparse
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


def fresh_interpreter(code):
    """Run ``code`` in a new interpreter with this package on its path and
    return its stdout; the run must exit 0."""
    src = os.path.dirname(os.path.dirname(newton_socle.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    out = fresh_interpreter(
        "import sys, newton_socle.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out.strip() == "[]"


# What argparse loads: a launch of a plain line leaves it unloaded.
ARGPARSE = {"argparse", "gettext", "locale"}

# Launches whose loaded modules are checked: argv, modules that must stay
# unloaded, and package modules that must stay unloaded (None: any besides
# the CLI and its errors).
LAUNCHES = {
    "help": (["--help"], {"fractions", "decimal", "json"}, None),
    "polyhedron": (["polyhedron", "--poly", "x1^2 + x2^3"], ARGPARSE,
                   {"fan", "facering", "grobner", "localalg", "residue",
                    "combid", "context"}),
    "verify-all": (["verify-all", "--poly", "x1^2 + x2^3", "--seed", "1"],
                   ARGPARSE, set()),
    "detlemma": (["detlemma", "--rows", "3", "--cols", "5", "--trials", "1"],
                 ARGPARSE, {"polylattice", "fan", "facering", "grobner",
                            "localalg", "residue", "context"}),
}


@pytest.mark.parametrize("launch", sorted(LAUNCHES))
def test_each_launch_loads_only_what_its_command_runs(launch):
    argv, absent, absent_package = LAUNCHES[launch]
    out = fresh_interpreter(
        "import sys\n"
        "from newton_socle import cli\n"
        "try:\n"
        "    code = cli.main(%r)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code)\n"
        "print(' '.join(sorted(sys.modules)))\n" % argv)
    code, modules = out.splitlines()[-2:]
    assert code == "0"
    modules = set(modules.split())
    package = {m.split(".", 1)[1] for m in modules
               if m.startswith("newton_socle.")}
    assert not modules & (absent | {"dataclasses", "inspect"})
    # help is argparse's to write
    assert ("argparse" in modules) == (launch == "help")
    if absent_package is None:
        assert package <= {"cli", "errors"}
    else:
        assert not package & absent_package


# The package's public names, frozen here so that a lost or an added export
# shows.
EXPORTED = """
    CanonicalQuotient CapError Cone FaceCone FaceDescriptor Fan GB
    GradingForm INFINITY IdealSpan InputError LatticeSpace
    MinorTable NewtonPolyhedron RayData RegularizationError ResidueResult
    SparsePoly TruncatedLocalAlgebra TruncationError VerificationError
    buchberger build_ideal canonical_quotient certified_ideal
    check_minor_identity check_ones_column_identity class_nonzero
    compact_faces cone_from_rays coset_newton_order dual_fan
    face_cone face_derivatives face_part face_parts faces fan_from_json
    grading_form grothendieck_residue ideal_generators
    interior_rays is_regular jacobian_multiplication_check koszul_check
    koszul_top_dimension lattice_space member monomial_residue multiplicity
    newton_order newton_polyhedron nondegeneracy_report nondegenerate
    normalized_volume poincare_series random_minor_identity_trials
    regularize select_parameters socle socle_newton_order support_function
    torus_has_zero trace_volume_check verify_interior_membership
    verify_residue_nonvanishing volume_by_lattice_count
""".split()


def test_package_exports_resolve_on_first_access():
    assert sorted(newton_socle.__all__) == sorted(EXPORTED)
    assert set(EXPORTED) <= set(dir(newton_socle))
    out = fresh_interpreter(
        "import sys, newton_socle\n"
        "print([m for m in sys.modules if m.startswith('newton_socle.')])\n"
        "print(newton_socle.localalg.__name__)\n"
        "for name in %r:\n"
        "    exec('from newton_socle import ' + name)\n"
        "try:\n"
        "    newton_socle.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n" % EXPORTED)
    assert out.splitlines() == ["[]", "newton_socle.localalg",
                                "AttributeError"]
    from newton_socle.polylattice import SparsePoly
    assert newton_socle.SparsePoly is SparsePoly
    assert newton_socle.__version__ == "0.1.0"


def test_only_a_declined_line_builds_argument_parsers(monkeypatch, capsys):
    from newton_socle import cli
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(["polyhedron", "--poly", "x1^2"]) == 0
    assert built == []
    # a usage error builds the top-level parser and the command's alone
    with pytest.raises(SystemExit) as exc:
        cli.main(["polyhedron", "--vars", "2"])
    assert exc.value.code == 2
    assert built == ["newton-socle", "newton-socle polyhedron"]
    assert "required: --poly" in capsys.readouterr().err


def test_term_patterns_compile_on_the_first_literal_parse():
    # a JSON polynomial is read without compiling the literal patterns; the
    # first literal parse compiles them
    out = fresh_interpreter(
        "import re\n"
        "compiled = []\n"
        "real = re.compile\n"
        "def recording(pattern, flags=0):\n"
        "    compiled.append(pattern)\n"
        "    return real(pattern, flags)\n"
        "re.compile = recording\n"
        "from newton_socle import polylattice\n"
        "own = {polylattice._TERM_PATTERN, polylattice._VAR_PATTERN}\n"
        "polylattice.SparsePoly.from_json("
        "'{\"nvars\": 1, \"terms\": [{\"e\": [2], \"c\": \"1\"}]}')\n"
        "print(sorted(own & set(compiled)) == [])\n"
        "polylattice.SparsePoly.parse('x1^2 + 3*x2')\n"
        "print(own <= set(compiled))\n")
    assert out.split() == ["True", "True"]
