"""Command-line front end: parse inputs, run the verification pipelines, emit
deterministic JSON (or plain-text) reports.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 malformed
input, 3 a truncation, subdivision or size cap was hit.

Start-up is most of a short launch, so each command imports the modules it
runs inside its own function.  A plain command line, a command name and its
options written out in full as ``--name value``, is read off the option
table ``_COMMANDS`` without argparse, whose import and first use cost about
4 ms.  Argparse is imported and built only for the other lines: help, usage
errors, and the forms that reading leaves out (``--name=value``,
abbreviations, repeats, negative numbers, ``--``), so that their text and
their parse stay argparse's own.  It builds the parser of the dispatched
command alone, and ``--help`` loads no compute module.  Reports are written
by :func:`_write_json`, which gives the bytes of ``json.dumps(report,
indent=2, sort_keys=True)`` without the json module; json loads only for
JSON inputs, for ``--format text`` and for a value the writer leaves to
it, so a launch on a literal polynomial loads none.

The process entry point is :func:`launch`, which ends the process without
the interpreter's teardown; :func:`main` returns its exit code to
in-process callers.
"""

import os
import sys
import types

from .errors import (CapError, InputError, RegularizationError,
                     TruncationError, VerificationError)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_POLYTOPE_PRESETS = {
    "unit-square": [(0, 0), (1, 0), (0, 1), (1, 1)],
    "triangle": [(0, 0), (2, 0), (0, 3)],
    "unit-cube": [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)],
    "unit-simplex-2": [(0, 0), (1, 0), (0, 1)],
    "unit-simplex-3": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
}


def _rat(x):
    from fractions import Fraction

    from .polylattice import INFINITY
    if x is INFINITY:
        return "inf"
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator) if f.denominator != 1 \
        else str(f.numerator)


def _read_text(spec):
    """The contents of the file ``spec`` names, or ``spec`` itself."""
    if os.path.exists(spec) and not os.path.isdir(spec):
        with open(spec) as handle:
            return handle.read().strip()
    return spec


def _parse_polynomial(text, nvars=None):
    from .polylattice import SparsePoly
    if text.startswith("{"):
        return SparsePoly.from_json(text)
    return SparsePoly.parse(text, nvars=nvars)


def _parse_system(text, nvars=None):
    """A list of polynomials from a JSON array or ';'-joined literals."""
    from .polylattice import SparsePoly
    if text.startswith("["):
        import json
        try:
            objs = json.loads(text)
        except ValueError as exc:
            raise InputError("malformed system (%s)" % exc) from None
        return [SparsePoly.from_json(obj) for obj in objs]
    return [SparsePoly.parse(part, nvars=nvars)
            for part in text.split(";") if part.strip()]


def read_polynomial(spec, nvars=None):
    """A polynomial from a file path (text or JSON) or a literal expression."""
    return _parse_polynomial(_read_text(spec), nvars)


def read_polytope(spec):
    """Lattice points spanning a full-dimensional polytope: a preset name, a
    JSON file or a JSON literal."""
    if spec in _POLYTOPE_PRESETS:
        return _POLYTOPE_PRESETS[spec]
    import json

    from .linalg import rank, vec_sub
    from .polylattice import exact_int
    text = _read_text(spec)
    try:
        pts = [tuple(map(exact_int, p)) for p in json.loads(text)]
    except (TypeError, ValueError) as exc:
        raise InputError("malformed polytope (%s)" % exc) from None
    if not pts or len({len(p) for p in pts}) != 1:
        raise InputError("polytope points must share one dimension")
    if not pts[0]:
        raise InputError("polytope points need at least one coordinate")
    if rank([vec_sub(p, pts[0]) for p in pts[1:]]) < len(pts[0]):
        raise InputError("polytope is not full-dimensional")
    return pts


def read_fan(path):
    """A fan from a JSON file."""
    from .fan import fan_from_json
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError("cannot read fan file %s: %s"
                         % (path, exc.strerror)) from None
    return fan_from_json(text)


def _face_entry(face, idx):
    return {
        "index": idx,
        "dim": face.dim,
        "vertices": [list(v) for v in face.vertices()],
        "compact": face.compact,
        "in_coordinate_hyperplane": face.in_coordinate_hyperplane,
        "normal_certificate": list(face.normal_certificate),
    }


def _write_json(value, parts, pad=""):
    """Append to ``parts`` the text of ``json.dumps(value, indent=2,
    sort_keys=True)`` nested at the indent ``pad``.  Dicts with ``str``
    keys, lists, tuples, None, bools, exact ints and strings of printable
    ASCII without '"' or '\\' are written here; any other value goes to
    ``json.dumps``, re-indented to ``pad``, so json alone decides every
    escape and float."""
    kind = type(value)
    if kind is str and value.isascii() and value.isprintable() \
            and '"' not in value and "\\" not in value:
        parts.append('"' + value + '"')
    elif kind is int:
        parts.append(int.__repr__(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            parts.append("{}")
            return
        inner = pad + "  "
        lead = "{\n" + inner
        for key in sorted(value):
            parts.append(lead)
            _write_json(key, parts)
            parts.append(": ")
            _write_json(value[key], parts, inner)
            lead = ",\n" + inner
        parts.append("\n" + pad + "}")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = pad + "  "
        lead = "[\n" + inner
        for item in value:
            parts.append(lead)
            _write_json(item, parts, inner)
            lead = ",\n" + inner
        parts.append("\n" + pad + "]")
    else:
        import json
        parts.append(json.dumps(value, indent=2, sort_keys=True)
                     .replace("\n", "\n" + pad))


def emit_report(report, fmt="json", out=None):
    """Serialize a report deterministically; ``text`` gives a flat summary.
    The JSON form is ``json.dumps(report, indent=2, sort_keys=True)``,
    written by :func:`_write_json`."""
    if fmt == "json":
        parts = []
        _write_json(report, parts)
        parts.append("\n")
        payload = "".join(parts)
    elif fmt == "text":
        import json
        lines = []

        def walk(prefix, obj):
            if isinstance(obj, dict):
                for k in sorted(obj):
                    walk("%s%s." % (prefix, k), obj[k])
            elif isinstance(obj, list):
                lines.append("%s = %s" % (prefix[:-1], json.dumps(obj)))
            else:
                lines.append("%s = %s" % (prefix[:-1], obj))

        walk("", report)
        payload = "\n".join(lines) + "\n"
    else:
        raise InputError("unknown format %r" % fmt)
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(payload)
        except OSError as exc:
            raise InputError("cannot write %s: %s"
                             % (out, exc.strerror)) from None
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_polyhedron(args):
    from .polylattice import faces, newton_polyhedron
    f = read_polynomial(args.poly, args.vars)
    poly = newton_polyhedron(f)
    report = poly.to_json()
    report["faces"] = [_face_entry(face, i)
                       for i, face in enumerate(faces(poly))]
    return report, EXIT_OK


def cmd_fan(args):
    from . import fan as fanmod
    from .polylattice import newton_polyhedron
    f = read_polynomial(args.poly, args.vars)
    poly = newton_polyhedron(f)
    if args.fan:
        fan = read_fan(args.fan)
        if fan.nvars != f.nvars:
            raise InputError("fan has dimension %d but the polynomial has "
                             "%d variables" % (fan.nvars, f.nvars))
    else:
        fan = fanmod.dual_fan(poly)
    report = {"dual_fan": fan.to_json()}
    if args.regular:
        reg = fanmod.regularize(fan) if not args.fan else fan
        if not fanmod.is_regular(reg):
            raise VerificationError("supplied fan is not regular")
        report["regular_fan"] = reg.to_json()
        report["interior_rays"] = [r.to_json()
                                   for r in fanmod.interior_rays(reg, f)]
    return report, EXIT_OK


def cmd_nu(args):
    from .polylattice import newton_order, newton_polyhedron
    f = read_polynomial(args.poly, args.vars)
    g = read_polynomial(args.g, f.nvars)
    poly = newton_polyhedron(f)
    return {"nu": _rat(newton_order(g, poly))}, EXIT_OK


def cmd_nondeg(args):
    from . import grobner
    f = read_polynomial(args.poly, args.vars)
    report = grobner.nondegeneracy_report(f)
    return report, EXIT_OK if report["nondegenerate"] else EXIT_CHECK_FAILED


def cmd_socle_order(args):
    from . import localalg
    f = read_polynomial(args.poly, args.vars)
    report = localalg.socle_newton_order(f, D=args.trunc)
    report["nu_socle"] = _rat(report["nu_socle"])
    report["n_minus_nu_x"] = _rat(report["n_minus_nu_x"])
    return report, EXIT_OK if report["match"] else EXIT_CHECK_FAILED


def cmd_kbar(args):
    from .context import RunContext
    f = read_polynomial(args.poly, args.vars)
    fc, quotient = RunContext(f).face_quotient(args.face)
    report = quotient.to_json()
    report["face"] = _face_entry(fc.delta, args.face)
    report["r"] = fc.r
    return report, EXIT_OK


def cmd_residue(args):
    from . import residue
    g_text, system_text = _read_text(args.g), _read_text(args.system)
    nvars = args.vars
    if nvars is None:
        # the largest variable count among g and the system entries
        nvars = max(p.nvars for p in [_parse_polynomial(g_text)]
                    + _parse_system(system_text))
    g = _parse_polynomial(g_text, nvars)
    system = _parse_system(system_text, nvars)
    result = residue.grothendieck_residue(g, system, D=args.trunc)
    return result.to_json(), EXIT_OK


def cmd_verify_thm1(args):
    from . import localalg
    f = read_polynomial(args.poly, args.vars)
    h = read_polynomial(args.h, f.nvars)
    ok = localalg.verify_interior_membership(f, h, D=args.trunc)
    return {"member": ok}, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify_thm2(args):
    from . import residue
    from .context import RunContext
    f = read_polynomial(args.poly, args.vars)
    h = read_polynomial(args.h, f.nvars)
    face = RunContext(f).admissible_face(args.face)
    result = residue.verify_residue_nonvanishing(f, face, h, args.r,
                                                 D=args.trunc)
    report = result.to_json()
    report["nonzero"] = result.value != 0
    return report, EXIT_OK


def cmd_detlemma(args):
    from . import combid
    report = combid.random_minor_identity_trials(args.rows, args.cols,
                                                 args.trials, args.seed)
    return report, EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def cmd_koszul(args):
    from . import residue
    if args.trials < 0:
        raise InputError("the trial count must be >= 0, got %d" % args.trials)
    pts = read_polytope(args.polytope)
    report = {"polytope": [list(p) for p in pts], "trials": []}
    ok = True
    for t in range(args.trials):
        res = residue.koszul_check(pts, seed=args.seed + t)
        report["trials"].append(res)
        ok = ok and res["ok"]
    report["trace"] = residue.trace_volume_check(pts)
    report["ok"] = ok and report["trace"]["equal"]
    return report, EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def cmd_verify_all(args):
    from . import combid, fan as fanmod
    from .context import RunContext
    from .polylattice import SparsePoly
    combid.validate_trials(3, 5, args.detlemma_trials)
    f = read_polynomial(args.poly, args.vars)
    run = RunContext(f, trunc=args.trunc)
    n = f.nvars
    report = {"polynomial": str(f), "nvars": n, "seed": args.seed,
              "checks": {}}

    nd = run.nondegeneracy()
    report["nondegeneracy"] = nd
    if not nd["nondegenerate"]:
        report["checks"]["nondegenerate"] = False
        report["ok"] = False
        return report, EXIT_CHECK_FAILED
    report["checks"]["nondegenerate"] = True

    report["polyhedron"] = run.polyhedron.to_json()
    fan = run.dual_fan()
    report["fan"] = fan.to_json()
    reg = fanmod.regularize(fan)
    report["regular_fan"] = reg.to_json()
    report["checks"]["regularization"] = fanmod.is_regular(reg)

    ok = True
    face_reports = []
    for idx, face in enumerate(run.admissible_faces):
        entry = {"face": _face_entry(face, idx)}
        fc, quotient = run.face_quotient(idx)
        entry["kbar"] = quotient.to_json()
        entry["socle_degree_matches"] = \
            quotient.socle_degree == fc.sigma.dim == n - fc.r
        residues = []
        for b in quotient.socle_basis:
            exps = b.support()[0]
            h = SparsePoly.monomial(tuple(e - 1 for e in exps),
                                    b.coeff(exps))
            res = run.residue(idx, h)
            residues.append({"h": str(h), "r": fc.r,
                             "value": _rat(res.value), "stable": res.stable})
        entry["residues"] = residues
        entry["residues_nonzero"] = all(res["value"] != "0"
                                        for res in residues)
        ok = ok and entry["socle_degree_matches"] and entry["residues_nonzero"]
        face_reports.append(entry)
    report["faces"] = face_reports
    report["checks"]["face_quotients_and_residues"] = ok

    so = run.socle_order()
    report["socle_order"] = {
        "socle_basis": so["socle_basis"],
        "nu_socle": _rat(so["nu_socle"]),
        "n_minus_nu_x": _rat(so["n_minus_nu_x"]),
        "match": so["match"],
    }
    report["checks"]["socle_newton_order"] = so["match"]

    jm = run.jacobian_multiplication()
    report["jacobian_multiplication"] = jm
    report["checks"]["jacobian_multiplication"] = jm["ok"]

    dl = combid.random_minor_identity_trials(3, 5, args.detlemma_trials,
                                             args.seed)
    report["detlemma"] = {"ok": dl["ok"], "trials": dl.get("trials")}
    report["checks"]["detlemma"] = dl["ok"]

    report["ok"] = all(report["checks"].values())
    return report, EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------

# An option is its flag and the keyword arguments of argparse's add_argument
# for it; its dest is the flag's, as argparse derives it.  Both parsers read
# these: _parse_plain and the argparse parser that build_parser builds.
_POLY = ("--poly", {"required": True,
                    "help": "polynomial file or literal (x1..xn grammar)"})
_VARS = ("--vars", {"type": int,
                    "help": "number of variables (inferred when omitted)"})
_SEED = ("--seed", {"type": int, "default": 0})
_FORMAT = ("--format", {"choices": ("json", "text"), "default": "json"})
_G = ("--g", {"required": True})
_H = ("--h", {"required": True})
_TRUNC = ("--trunc", {"type": int})
_COMMON = (_POLY, _VARS, _SEED, _FORMAT,
           ("--out", {"help": "output path (default stdout)"}))
_REPORT = (_SEED, _FORMAT, ("--out", {}))

# command name -> (function, help line, options), in the order of --help
_COMMANDS = {
    "polyhedron": (cmd_polyhedron, "vertices, facets and faces", _COMMON),
    "fan": (cmd_fan, "dual fan, optionally regularized", _COMMON + (
        ("--regular", {"action": "store_true", "default": False}),
        ("--fan", {"help": "fan JSON to use in place of the dual fan"}))),
    "nu": (cmd_nu, "Newton order of g for the polyhedron of f",
           _COMMON + (_G,)),
    "nondeg": (cmd_nondeg, "nondegeneracy with per-face detail", _COMMON),
    "socle-order": (cmd_socle_order, "Newton order of the socle",
                    _COMMON + (_TRUNC,)),
    "kbar": (cmd_kbar, "graded quotient data for one face", _COMMON + (
        ("--face", {"type": int, "required": True,
                    "help": "index into the admissible faces"}),)),
    "residue": (cmd_residue, "Grothendieck residue of g against a system", (
        _G,
        ("--system", {"required": True,
                      "help": "JSON array file or ';'-joined literals"}),
        ("--vars", {"type": int}), _TRUNC) + _REPORT),
    "verify-thm1": (cmd_verify_thm1, "interior support implies membership",
                    _COMMON + (_H, _TRUNC)),
    "verify-thm2": (cmd_verify_thm2, "residue nonvanishing for a face",
                    _COMMON + (_H, ("--face", {"type": int, "required": True}),
                               ("--r", {"type": int, "required": True}),
                               _TRUNC)),
    "detlemma": (cmd_detlemma, "random trials of the minor identities", (
        ("--rows", {"type": int, "required": True}),
        ("--cols", {"type": int, "required": True}),
        ("--trials", {"type": int, "default": 100})) + _REPORT),
    "koszul": (cmd_koszul, "lattice Koszul quotient and trace value", (
        ("--polytope", {"required": True,
                        "help": "preset name, JSON file, or JSON literal"}),
        ("--trials", {"type": int, "default": 3})) + _REPORT),
    "verify-all": (cmd_verify_all, "full verification pipeline", _COMMON + (
        _TRUNC, ("--detlemma-trials", {"type": int, "default": 25}))),
}


def _parse_plain(argv):
    """The attributes ``build_parser().parse_args(argv)`` sets, as a dict,
    when ``argv`` is a plain line: a command name, then its options, each
    at most once, written out in full as ``--name value`` (a ``store_true``
    flag bare), no value led by '-', each value of its option's type and
    choices, and every required option given.  None for any other line,
    which is argparse's to parse: help, usage errors, and the forms this
    reading leaves out, such as ``--name=value``, abbreviations, repeats,
    negative numbers and ``--``."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    func, _, options = command
    declared = dict(options)
    given = {}
    rest = iter(argv[1:])
    for flag in rest:
        kwargs = declared.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(rest, None)
        if value is None or value.startswith("-"):
            return None
        convert = kwargs.get("type")
        if convert is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError):
                return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    fields = {"command": argv[0], "func": func}
    for flag, kwargs in options:
        if flag not in given and kwargs.get("required"):
            return None
        fields[flag[2:].replace("-", "_")] = given.get(flag,
                                                      kwargs.get("default"))
    return fields


def build_parser():
    """The argparse parser of every command, for the lines
    :func:`_parse_plain` declines.  Argparse builds the parser of the one
    command it dispatches to, and writes help and usage errors."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            # argparse's writer swallows an OSError: a --help launch on a
            # closed stdout would exit 0 without a word
            (file or sys.stdout).write(self.format_help())

    class SubCommands(argparse._SubParsersAction):
        """Sub-commands that cost a name and a help line each until
        argparse dispatches to one, which alone has its parser built."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.choices = _COMMANDS
            for name, (_, summary, _) in _COMMANDS.items():
                self._choices_actions.append(
                    self._ChoicesPseudoAction(name, (), summary))

        def __call__(self, parser, namespace, values, option_string=None):
            name = values[0]
            if name not in self._name_parser_map:
                func, _, options = _COMMANDS[name]
                sub = self.add_parser(name)
                for flag, kwargs in options:
                    sub.add_argument(flag, **kwargs)
                sub.set_defaults(func=func)
            super().__call__(parser, namespace, values, option_string)

    parser = Parser(
        prog="newton-socle",
        description="Exact Newton-polyhedron invariants of polynomial "
                    "singularities and their mechanical verification.")
    parser.add_subparsers(dest="command", required=True, action=SubCommands)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    fields = _parse_plain(argv)
    if fields is None:
        args = build_parser().parse_args(argv)
    else:
        args = types.SimpleNamespace(**fields)
    env_seed = os.environ.get("NEWTON_SOCLE_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            sys.stderr.write("input error: NEWTON_SOCLE_SEED must be an "
                             "integer, got %r\n" % env_seed)
            return EXIT_INPUT
    try:
        if getattr(args, "trunc", None) is not None and args.trunc < 1:
            raise InputError("the truncation must be >= 1, got %d"
                             % args.trunc)
        if getattr(args, "vars", None) is not None and args.vars < 1:
            raise InputError("the variable count must be >= 1, got %d"
                             % args.vars)
        report, code = args.func(args)
        emit_report(report, fmt=args.format, out=args.out)
    except InputError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except (TruncationError, RegularizationError, CapError) as exc:
        sys.stderr.write("resource limit: %s\n" % exc)
        return EXIT_RESOURCE
    except VerificationError as exc:
        sys.stderr.write("verification failure: %s\n" % exc)
        return EXIT_CHECK_FAILED
    return code


def launch():
    """Run :func:`main` as a process and end it without the interpreter's
    teardown of every module and its last garbage collection, a few ms
    after the work is done; nothing the package writes needs it, as
    ``emit_report`` closes an ``--out`` file itself.  As at a normal exit,
    the ``atexit`` handlers run and stdout and stderr are flushed first.

    A closed stdout exits 1, the code the ``signal`` module's notes on
    SIGPIPE advise, with one ``output error`` line; what is left in its
    buffer goes with the process.  Any other exception, and a
    ``SystemExit`` whose code is not an int, take the normal exit."""
    import atexit
    try:
        try:
            code = main()
        except SystemExit as exc:
            if not (exc.code is None or isinstance(exc.code, int)):
                raise
            code = exc.code or 0
        atexit._run_exitfuncs()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        sys.stderr.write("output error: %s\n" % exc)
        code = 1
        # the handlers run once: after they ran, the registry is empty
        atexit._run_exitfuncs()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    launch()
