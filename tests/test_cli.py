import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import newton_socle
from newton_socle import cli
from newton_socle.cli import main

from conftest import supports

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
from perfbench.workloads import CURVES, SURFACES, k_support  # noqa: E402


def run_cli(argv, env_seed=None):
    old = sys.stdout
    buf = io.StringIO()
    sys.stdout = buf
    saved = os.environ.pop("NEWTON_SOCLE_SEED", None)
    if env_seed is not None:
        os.environ["NEWTON_SOCLE_SEED"] = str(env_seed)
    try:
        code = main(argv)
    finally:
        sys.stdout = old
        os.environ.pop("NEWTON_SOCLE_SEED", None)
        if saved is not None:
            os.environ["NEWTON_SOCLE_SEED"] = saved
    return code, buf.getvalue()


def run_json(argv, env_seed=None):
    code, out = run_cli(argv, env_seed=env_seed)
    return code, json.loads(out) if out.strip() else None


def test_polyhedron_command():
    code, rep = run_json(["polyhedron", "--poly", "x1^2 + x2^3"])
    assert code == 0
    assert rep["vertices"] == [[0, 3], [2, 0]]
    assert {tuple(f["l"]) for f in rep["facets"]} == {(1, 0), (0, 1), (3, 2)}
    assert len(rep["faces"]) == 6


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_polyhedron_reads_poly_from_a_named_pipe(tmp_path):
    # a pipe exists but is not a regular file, like /dev/stdin or <(...)
    fifo = tmp_path / "poly"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("x1^2 + x2^3",))
    writer.start()
    try:
        piped = run_cli(["polyhedron", "--poly", str(fifo)])
    finally:
        # if the pipe was never read, the writer still waits for a reader
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join()
    assert piped == run_cli(["polyhedron", "--poly", "x1^2 + x2^3"])
    assert piped[0] == 0


def test_fan_command_regular():
    code, rep = run_json(["fan", "--poly", "x1^2 + x2^3", "--regular"])
    assert code == 0
    assert rep["dual_fan"]["rays"] == [[0, 1], [1, 0], [3, 2]]
    assert rep["regular_fan"]["rays"] == \
        [[0, 1], [1, 0], [1, 1], [2, 1], [3, 2]]
    assert [r["generator"] for r in rep["interior_rays"]] == \
        [[1, 1], [2, 1], [3, 2]]


def test_fan_command_external_file(tmp_path):
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(
        {"rays": [[1, 0], [1, 1], [0, 1]], "cones": [[0, 1], [1, 2]]}))
    code, rep = run_json(["fan", "--poly", "x1*x2", "--fan", str(fan_file),
                          "--regular"])
    assert code == 0
    assert rep["regular_fan"]["rays"] == [[0, 1], [1, 0], [1, 1]]


def test_fan_command_external_file_4d(tmp_path):
    # beyond three variables the subdivision must come from outside
    fan_file = tmp_path / "fan4.json"
    rays = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
            [1, 1, 1, 1]]
    cones = [[0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]]
    fan_file.write_text(json.dumps({"rays": rays, "cones": cones}))
    code, rep = run_json(["fan", "--poly",
                          "x1^2 + x2^2 + x3^2 + x4^2 + x1*x2*x3*x4",
                          "--fan", str(fan_file), "--regular"])
    assert code == 0
    assert [1, 1, 1, 1] in rep["regular_fan"]["rays"]
    assert [r["generator"] for r in rep["interior_rays"]] == [[1, 1, 1, 1]]


def test_fan_file_with_a_non_face_cone_exits_1(tmp_path):
    # cone [0, 4] lies inside [0, 1, 3, 4] (its rays are two of the four)
    # but is not one of its faces: no facet holds both rays
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(
        {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
         "cones": [[0, 1, 3, 4], [2, 3, 4], [0, 4]]}))
    code, _ = run_json(["fan", "--poly", "x1^2 + x2^3 + x3^4",
                        "--fan", str(fan_file)])
    assert code == 1


def test_non_simplicial_fan_file_is_not_regular(tmp_path):
    # a quadrilateral cone and a triangle: a valid fan of the orthant, so
    # --regular is a failed check (exit 1), not bad input (exit 2)
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(
        {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
         "cones": [[0, 1, 3, 4], [2, 3, 4]]}))
    argv = ["fan", "--poly", "x1^2 + x2^3 + x3^4", "--fan", str(fan_file)]
    assert run_json(argv)[0] == 0
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_json(argv + ["--regular"])
    assert code == 1
    assert "supplied fan is not regular" in err.getvalue()


@pytest.mark.parametrize("obj, message", [
    ({"rays": [[1, 0], [0, 0]], "cones": [[0, 1]]},
     "fan ray 1 is the zero vector"),
    ({"rays": [[1, 0], [0, 1]], "cones": [[]]}, "fan cone 0 has no rays"),
], ids=["zero-ray", "empty-cone"])
def test_fan_file_with_a_degenerate_entry_exits_2(obj, message, tmp_path):
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(obj))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["fan", "--poly", "x1^2 + x2^3", "--fan", str(fan_file),
                     "--regular"])
    assert code == 2
    assert message in err.getvalue()


@pytest.mark.parametrize("command", ["polyhedron", "nondeg", "verify-all"])
@pytest.mark.parametrize("text", ["0", '{"nvars":2,"terms":[]}'],
                         ids=["literal", "json"])
def test_zero_polynomial_has_empty_support(command, text):
    # 0 lies in the square of the maximal ideal; what it lacks is a support
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([command, "--poly", text])
    assert code == 2
    assert err.getvalue() == "input error: empty support\n"


def test_nu_command():
    code, rep = run_json(["nu", "--poly", "x1^2 + x2^3", "--g", "x1*x2"])
    assert code == 0 and rep["nu"] == "5/6"


def test_nondeg_command():
    code, rep = run_json(["nondeg", "--poly", "x1^2 + x2^3"])
    assert code == 0 and rep["nondegenerate"]
    code2, rep2 = run_json(["nondeg", "--poly", "x1^2 + 2*x1*x2 + x2^2"])
    assert code2 == 1 and not rep2["nondegenerate"]


def test_socle_order_command():
    code, rep = run_json(["socle-order", "--poly", "x1^2 + x2^3"])
    assert code == 0
    assert rep["nu_socle"] == "7/6" and rep["match"]
    assert rep["socle_basis"] == ["x1*x2^2"]


def test_kbar_command():
    code, rep = run_json(["kbar", "--poly", "x1^2 + x2^3", "--face", "0"])
    assert code == 0
    assert rep["socle_degree"] == "2"
    assert rep["socle_basis"] == ["x1^2*x2^3"]
    assert sum(int(v) for v in rep["graded_dims"].values()) == 6


def test_residue_command():
    code, rep = run_json(["residue", "--g", "x1*x2^2",
                          "--system", "2*x1^2; 3*x2^3", "--vars", "2"])
    assert code == 0
    assert rep["value"] == "1/6" and rep["stable"]


def test_residue_infers_the_variable_count_from_g_and_the_system():
    # g names only x1; the system names x2 as well
    code, rep = run_json(["residue", "--g", "x1", "--system", "x1^2; x2"])
    assert code == 0
    assert rep["value"] == "1"
    assert run_json(["residue", "--g", "x1", "--system", "x1^2; x2",
                     "--vars", "2"]) == (code, rep)


def test_verify_thm1_command():
    code, rep = run_json(["verify-thm1", "--poly", "x1^2 + x2^3",
                          "--h", "x1^2*x2^2"])
    assert code == 0 and rep["member"]


def test_verify_thm1_boundary_is_input_error():
    code, _ = run_json(["verify-thm1", "--poly", "x1^2 + x2^3",
                        "--h", "x1*x2^2"])
    assert code == 2


def test_verify_thm2_command():
    code, rep = run_json(["verify-thm2", "--poly", "x1^2 + x2^3",
                          "--h", "x1*x2^2", "--face", "0", "--r", "0"])
    assert code == 0
    assert rep["value"] == "1/6" and rep["nonzero"]


@pytest.mark.parametrize("r", ["1", "2"])
def test_verify_thm2_names_a_wrong_r_before_the_support(r):
    # face 0 of the cusp has r = 0, and x1*x2^2 is valid there: the message
    # must blame --r, not the support of x1*x2*h
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_json(["verify-thm2", "--poly", "x1^2 + x2^3",
                            "--h", "x1*x2^2", "--face", "0", "--r", r])
    assert code == 2
    assert err.getvalue() == "input error: face has r = 0, got %s\n" % r


def test_detlemma_command():
    code, rep = run_json(["detlemma", "--rows", "3", "--cols", "5",
                          "--trials", "20", "--seed", "1"])
    assert code == 0 and rep["ok"]


def test_koszul_command():
    code, rep = run_json(["koszul", "--polytope", "triangle", "--trials", "2"])
    assert code == 0 and rep["ok"]
    assert rep["trace"]["trace_expected"] == 6


def test_koszul_above_the_lattice_point_cap_exits_3():
    # the 3-dilate interior of the side-15 triangle has 946 lattice points;
    # without the cap one trial runs for minutes
    src = os.path.dirname(os.path.dirname(newton_socle.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "newton_socle.cli", "koszul", "--polytope",
         "[[0,0],[15,0],[0,15]]", "--trials", "1"],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 3 and not proc.stdout
    assert proc.stderr == ("resource limit: the 3-dilate interior has 946 "
                           "lattice points, above the cap of 200\n")


def test_verify_all_deterministic():
    code1, out1 = run_cli(["verify-all", "--poly", "x1^2 + x2^3",
                           "--seed", "11"])
    code2, out2 = run_cli(["verify-all", "--poly", "x1^2 + x2^3",
                           "--seed", "11"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_all_stops_on_degenerate():
    code, rep = run_json(["verify-all", "--poly", "x1^2 + 2*x1*x2 + x2^2"])
    assert code == 1
    assert not rep["ok"]
    assert not rep["nondegeneracy"]["nondegenerate"]
    assert "socle_order" not in rep


def test_parse_error_exit_code():
    code, _ = run_json(["nu", "--poly", "x1^^", "--g", "x1"])
    assert code == 2


@pytest.mark.parametrize("command", ["nondeg", "verify-all"])
def test_removed_primes_option_exits_2(command):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        main([command, "--poly", "x1^2 + x2^3", "--primes", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --primes 5" in err.getvalue()


@pytest.mark.parametrize("argv, extra_env", [
    (["nu", "--poly", '{"nvars": 2}', "--g", "x1"], {}),
    (["fan", "--poly", "x1^2 + x2^3", "--fan", "no-such-fan.json"], {}),
    (["fan", "--poly", "x1^2 + x2^3", "--fan", "fan-without-cones.json"], {}),
    (["fan", "--poly", "x1^2 + x2^3", "--fan", "fan-ragged-rays.json"], {}),
    (["koszul", "--polytope", "[[0,0],[1,1],[2,2]]"], {}),
    (["koszul", "--polytope", "[[0,0],[1,0,0],[0,1]]"], {}),
    (["koszul", "--polytope", "[[], []]"], {}),
    (["koszul", "--polytope", "[[0,0],[2.7,0],[0,1]]"], {}),
    (["fan", "--poly", "x1*x2", "--fan", "fan-fractional-ray.json"], {}),
    (["fan", "--poly", "x1*x2", "--fan", "fan-negative-index.json"], {}),
    (["fan", "--poly", "x1^2 + x2^3", "--fan", "fan-3d.json", "--regular"],
     {}),
    (["residue", "--g", "x1", "--system", "[1,"], {}),
    (["detlemma", "--rows", "2", "--cols", "3"], {"NEWTON_SOCLE_SEED": "abc"}),
    (["polyhedron", "--poly", "x1 + 2/0*x2"], {}),
    (["polyhedron", "--poly", "."], {}),
    (["polyhedron", "--poly", '{"nvars": 1, "terms": [{"e": [1], "c": "1/0"}]}'],
     {}),
    (["polyhedron", "--poly", '{"nvars": 1, "terms": [{"e": ["a"], "c": "1"}]}'],
     {}),
    (["polyhedron", "--poly", '{"nvars": 1, "terms": [{"e": [1.5], "c": "1"}]}'],
     {}),
    (["detlemma", "--rows", "0", "--cols", "3"], {}),
    (["detlemma", "--rows", "-1", "--cols", "3"], {}),
    (["detlemma", "--rows", "3", "--cols", "2"], {}),
    (["detlemma", "--rows", "1", "--cols", "0"], {}),
    (["detlemma", "--rows", "2", "--cols", "3", "--trials", "-1"], {}),
    (["verify-all", "--poly", "x1^2 + x2^3", "--detlemma-trials", "-3"], {}),
    (["koszul", "--polytope", "triangle", "--trials", "-1"], {}),
], ids=["json-without-terms", "missing-fan-file", "fan-without-cones",
        "fan-ragged-rays",
        "flat-polytope", "ragged-polytope", "zero-dimensional-polytope",
        "fractional-polytope", "fan-fractional-ray", "fan-negative-index",
        "fan-dimension-mismatch",
        "truncated-system-json",
        "non-integer-env-seed", "zero-denominator", "directory-as-polynomial",
        "json-zero-denominator", "json-non-integer-exponent",
        "json-fractional-exponent", "detlemma-zero-rows",
        "detlemma-negative-rows", "detlemma-more-rows-than-cols",
        "detlemma-zero-cols", "detlemma-negative-trials",
        "verify-all-negative-detlemma-trials", "koszul-negative-trials"])
def test_bad_input_exits_2_without_traceback(argv, extra_env, tmp_path):
    (tmp_path / "fan-without-cones.json").write_text('{"rays": [[1, 0]]}')
    (tmp_path / "fan-ragged-rays.json").write_text(
        '{"rays": [[1, 0], [0, 1, 1]], "cones": [[0, 1]]}')
    (tmp_path / "fan-fractional-ray.json").write_text(
        '{"rays": [[1.5, 0], [0, 1]], "cones": [[0, 1]]}')
    (tmp_path / "fan-negative-index.json").write_text(
        '{"rays": [[1, 0], [0, 1]], "cones": [[-1, 0]]}')
    (tmp_path / "fan-3d.json").write_text(
        '{"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], '
        '"cones": [[0, 1, 3], [1, 2, 3], [0, 2, 3]]}')
    src = os.path.dirname(os.path.dirname(newton_socle.__file__))
    env = dict(os.environ, PYTHONPATH=src, **extra_env)
    proc = subprocess.run([sys.executable, "-m", "newton_socle.cli"] + argv,
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")


@st.composite
def literals(draw, min_vars=2, max_vars=4):
    """A random support written as the CLI reads it, with signed p/q
    coefficients and ``-`` before a negative one.  The support may hold a
    constant or linear term (order < 2) and may miss an axis."""
    terms = []
    for e in draw(supports(min_vars, max_vars)).terms:
        c = draw(st.sampled_from([1, -1, 2, -3]))
        q = draw(st.sampled_from([1, 1, 2, 3]))
        factors = [str(abs(c)) + ("/%d" % q if q > 1 else "")] + [
            "x%d^%d" % (i + 1, a) for i, a in enumerate(e) if a]
        terms.append(("- " if c < 0 else "+ ") + "*".join(factors))
    return " ".join(terms)


# Fragments of malformed input.  No fragment starts with a digit, so a
# concatenation never turns x1 into a variable of high index.
FRAGMENTS = ["x1", "x2", "x3", "x0", "^2", "^", "*", "+", "-", " ", "/0",
             "/3", " 2", "*5", ".", "{", "}", "[", "]", ",", ":", '"',
             '"nvars"', '"terms"', '"e"', '"c"']
MALFORMED_JSON = [
    '{"nvars": 1, "terms": [{"e": [1], "c": "1/0"}]}',
    '{"nvars": 1, "terms": [{"e": ["a"], "c": "1"}]}',
    '{"nvars": 2, "terms": [{"e": [1], "c": "1"}]}',
    '{"nvars": 0, "terms": []}',
    '{"nvars": 1, "terms": 5}',
    '{"terms": [{"e": [1], "c": "1"}]}',
]


def _exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects text that looks like a flag
            return exc.code


@given(st.one_of(literals(),
                 st.lists(st.sampled_from(FRAGMENTS), max_size=8).map("".join),
                 st.sampled_from(MALFORMED_JSON)))
@settings(max_examples=150, deadline=None)
def test_polyhedron_fuzz_keeps_exit_code_contract(text):
    assert _exit_code(["polyhedron", "--poly", text]) in (0, 1, 2, 3)


@st.composite
def fan_files(draw):
    """Fan JSON in 2 or 3 variables: rays mostly in the orthant (some not,
    some zero), cones as index lists that may overlap, repeat, nest without
    being faces, or point past the rays; now and then a ragged ray or a
    missing key."""
    n = draw(st.integers(2, 3))
    rays = draw(st.lists(st.lists(st.integers(-1, 3), min_size=n, max_size=n),
                         min_size=1, max_size=6))
    if draw(st.booleans()):
        rays = [[int(i == j) for j in range(n)] for i in range(n)] + rays
    if draw(st.integers(0, 9)) == 0:
        rays.append([1] * (n + 1))
    index = st.integers(-1, len(rays))
    cones = draw(st.lists(st.lists(index, max_size=4), min_size=1, max_size=4))
    obj = {"rays": rays, "cones": cones}
    if draw(st.integers(0, 9)) == 0:
        del obj[draw(st.sampled_from(["rays", "cones"]))]
    return n, obj


@given(fan_files(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_fan_file_fuzz_keeps_exit_code_contract(fan, regular):
    n, obj = fan
    poly = "x1^2 + x2^3" if n == 2 else "x1^2 + x2^3 + x3^4"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fan.json")
        with open(path, "w") as handle:
            json.dump(obj, handle)
        argv = ["fan", "--poly", poly, "--fan", path]
        assert _exit_code(argv + ["--regular"] if regular else argv) \
            in (0, 1, 2, 3)


POINT_LISTS = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.one_of(st.lists(st.integers(-1, 2), min_size=n, max_size=n),
              st.lists(st.integers(-1, 2), max_size=n + 1)),
    max_size=6))


@given(st.one_of(POINT_LISTS.map(json.dumps),
                 st.sampled_from(['{"a": 1}', "5", "[[1, 2], 3]", "[[0.5]]",
                                  '[["a"]]', "[", "[[]]"])))
@settings(max_examples=60, deadline=None)
def test_koszul_polytope_fuzz_keeps_exit_code_contract(text):
    assert _exit_code(["koszul", "--polytope", text, "--trials", "1"]) \
        in (0, 1, 2, 3)


def test_truncation_cap_exit_code():
    # the system (x1^2, x1*x2) vanishes on the whole x2-axis: no finite
    # colength certificate can exist, so escalation must stop with code 3
    code, _ = run_json(["residue", "--g", "x1", "--system", "x1^2; x1*x2",
                        "--vars", "2"])
    assert code == 3


def test_residue_truncation_beyond_the_cap_is_honoured():
    # the 3-variable escalation cap is 20; a larger --trunc is still built
    code, rep = run_json(["residue", "--g", "x1*x2*x3",
                          "--system", "x1^2;x2^2;x3^2", "--trunc", "22"])
    assert code == 0
    assert rep["value"] == "1" and rep["truncation_used"] == 22


def test_residue_truncation_beyond_the_cap_names_the_cap():
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_json(["residue", "--g", "x1", "--system", "x1^2; x1*x2",
                            "--vars", "2", "--trunc", "42"])
    assert code == 3
    assert "the required truncation exceeds the cap 40" in err.getvalue()


def test_residue_escalation_start_beyond_the_cap_is_tried():
    # the escalation starts at 2 * 21 = 42, above the 2-variable cap 40
    code, rep = run_json(["residue", "--g", "x1^20*x2^20",
                          "--system", "x1^21; x2^21", "--vars", "2"])
    assert code == 0 and rep["value"] == "1"


# The log span's first build certifies, at D = 28 with k0 = 22 and at
# D = 48 with k0 = 42, and the run answers from it; the escalation caps (20
# in three variables, 40 in two) used to stop both with exit 3, the second
# before that build.
@pytest.mark.parametrize("text", ["x1^7+x2^8+x3^9", "x1^20+x2^23"])
def test_verify_all_answers_from_a_certifying_first_build(text):
    code, rep = run_json(["verify-all", "--poly", text, "--seed", "1"])
    assert code == 0
    assert rep["checks"] and all(rep["checks"].values())


TRUNC_COMMANDS = {
    "socle-order": ["socle-order", "--poly", "x1^2 + x2^3"],
    "residue": ["residue", "--g", "x1*x2^2", "--system", "2*x1^2; 3*x2^3"],
    "verify-thm1": ["verify-thm1", "--poly", "x1^2 + x2^3",
                    "--h", "x1^2*x2^2"],
    "verify-thm2": ["verify-thm2", "--poly", "x1^2 + x2^3", "--h", "x1*x2^2",
                    "--face", "0", "--r", "0"],
    "verify-all": ["verify-all", "--poly", "x1^2 + x2^3"],
}


@pytest.mark.parametrize("trunc", ["0", "-3"])
@pytest.mark.parametrize("command", sorted(TRUNC_COMMANDS))
def test_non_positive_truncation_is_an_input_error(command, trunc):
    err = io.StringIO()
    with redirect_stderr(err):
        code, rep = run_json(TRUNC_COMMANDS[command] + ["--trunc", trunc])
    assert code == 2 and rep is None
    assert err.getvalue().startswith("input error:")


VARS_COMMANDS = {
    **TRUNC_COMMANDS,
    "polyhedron": ["polyhedron", "--poly", "1"],
    "fan": ["fan", "--poly", "1"],
    "nu": ["nu", "--poly", "x1^2 + x2^3", "--g", "x1"],
    "nondeg": ["nondeg", "--poly", "x1^2 + x2^3"],
    "kbar": ["kbar", "--poly", "x1^2 + x2^3", "--face", "0"],
}


@pytest.mark.parametrize("nvars", ["0", "-1"])
@pytest.mark.parametrize("command", sorted(VARS_COMMANDS))
def test_variable_count_below_one_is_an_input_error(command, nvars):
    err = io.StringIO()
    with redirect_stderr(err):
        code, rep = run_json(VARS_COMMANDS[command] + ["--vars", nvars])
    assert code == 2 and rep is None
    assert err.getvalue() == ("input error: the variable count must be "
                              ">= 1, got %s\n" % nvars)


def test_truncation_below_the_socle_floor_still_hits_the_cap():
    # the residues settle on their own escalated span; the socle stage needs
    # D >= 7 and was given D = 3
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_json(["verify-all", "--poly", "x1^2 + x2^3",
                            "--trunc", "3"])
    assert code == 3
    assert "below the required minimum 7" in err.getvalue()


def count_calls(monkeypatch, module, name, calls):
    """Replace ``module.name`` in every newton_socle module that bound it by
    a wrapper appending each call's bound arguments to ``calls``."""
    original = getattr(module, name)
    signature = inspect.signature(original)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "newton_socle":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapper)


@pytest.mark.parametrize("args", [
    ["x1^4 + x1^2*x2^2 + x2^5"], ["x1^2+x2^3+x3^4"],
    # with --trunc the residues' escalation from D and the socle and
    # Jacobian stages all read the log span at D
    ["x1^2 + x2^3", "--trunc", "12"], ["x1^2+x2^3+x3^4", "--trunc", "14"]],
    ids=" ".join)
def test_verify_all_computes_each_invariant_once(monkeypatch, args):
    calls = {"polyhedron": [], "quotient": [], "span": []}
    count_calls(monkeypatch, newton_socle.polylattice, "newton_polyhedron",
                calls["polyhedron"])
    count_calls(monkeypatch, newton_socle.facering, "canonical_quotient",
                calls["quotient"])
    count_calls(monkeypatch, newton_socle.localalg, "build_ideal",
                calls["span"])
    code, rep = run_json(["verify-all", "--poly"] + args)
    assert code == 0
    assert len(calls["polyhedron"]) == 1
    assert len(calls["quotient"]) == len(rep["faces"])
    builds = [(tuple(a["gens"]), a["D"]) for a in calls["span"]]
    assert len({gens for gens, _ in builds}) == 2
    assert len(set(builds)) == len(builds)


@pytest.mark.parametrize("text", [item["poly"] for item in CURVES + SURFACES])
def test_verify_all_builds_each_ideal_once(monkeypatch, text):
    # the log span is built once, at the truncation the polyhedron gives,
    # and the residue and Jacobian stages read smaller truncations off it;
    # the Jacobian span is built once, at the log span's certificate
    calls = []
    count_calls(monkeypatch, newton_socle.localalg, "build_ideal", calls)
    code, _ = run_json(["verify-all", "--poly", text, "--seed", "1"])
    assert code == 0
    gens = [tuple(a["gens"]) for a in calls]
    assert len(gens) == len(set(gens)) == 2


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_is_an_input_error(tmp_path, target):
    # a missing directory, or a directory itself
    err = io.StringIO()
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
        code = main(["polyhedron", "--poly", "x1^2+x2^3",
                     "--out", str(tmp_path / target)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("input error: cannot write ")
    assert "Traceback" not in err.getvalue()


def test_residue_escalation_start_far_beyond_the_cap_is_refused(monkeypatch):
    # 2 * 11 = 22 is beyond the cap 20 for more than two variables; in four
    # variables the span at D=22 is large, so nothing is built and the
    # message names the truncation needed
    def no_build(gens, D):
        raise AssertionError("built a span at D=%d" % D)
    monkeypatch.setattr(newton_socle.localalg, "build_ideal", no_build)
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_json(["residue", "--g", "x1", "--vars", "4", "--system",
                            "x1^11; x2^11; x3^11; x4^11"])
    assert code == 3
    assert "would start at D=22" in err.getvalue()
    assert "--trunc" in err.getvalue()


@pytest.mark.parametrize("argv, D", [
    # the socle floor of x1^2+x2^3+x3^500 is 1501
    (["socle-order", "--poly", "x1^2+x2^3+x3^500"], 1501),
    (["residue", "--g", "x1", "--system", "x1^2; x2^2; x3^2",
      "--trunc", "1000"], 1000)])
def test_truncation_above_the_monomial_cap_is_refused(monkeypatch, argv, D):
    # C(D+3, 3) monomials, far above the cap: nothing may be enumerated
    def no_build(gens, D):
        raise AssertionError("built a span at D=%d" % D)
    monkeypatch.setattr(newton_socle.localalg, "build_ideal", no_build)
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_json(argv)
    assert code == 3
    message = err.getvalue()
    assert "D=%d" % D in message and "n=3" in message
    assert "%d monomials" % math.comb(D + 3, 3) in message
    assert "Traceback" not in message


def test_detlemma_above_the_row_cap_is_refused(monkeypatch):
    # one trial visits all 2^rows row subsets, so nothing may run
    def never(*_):
        raise AssertionError("a chain coefficient was computed")
    for name in ("_cramer_coefficients", "_slice_parametrization"):
        monkeypatch.setattr(newton_socle.combid, name, never)
    cap = newton_socle.combid.MAX_TRIAL_ROWS
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_json(["detlemma", "--rows", str(cap + 1), "--cols",
                            str(cap + 1), "--trials", "1"])
    assert code == 3
    assert "cap of %d rows" % cap in err.getvalue()


def test_residue_without_a_trace_functional_is_a_check_failure(monkeypatch):
    monkeypatch.setattr(newton_socle.residue, "solve", lambda rows, rhs: None)
    code, _ = run_json(["residue", "--g", "x1*x2^2",
                        "--system", "2*x1^2; 3*x2^3", "--vars", "2"])
    assert code == 1


@st.composite
def system_literals(draw):
    """';'-joined systems in x1, x2 of one to three polynomials with p/q
    coefficients: of finite or infinite colength, of the wrong length, or
    with a constant or zero member."""
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.tuples(st.integers(-4, 4), st.integers(1, 3)),
            max_size=2))
        polys.append(" + ".join("%d/%d*x1^%d*x2^%d" % (p, q, a, b)
                                for (a, b), (p, q) in terms.items()) or "0")
    return "; ".join(polys)


# systems in x1, x2 that vanish along a curve: no colength certificate exists
INFINITE_COLENGTH = ["x1^2; x1*x2", "x1 - x2; x1^2 - x2^2",
                     "1/2*x1^3; 3/4*x1*x2^2", "x2^2 + x1*x2; 2/3*x2"]


@given(st.one_of(system_literals(), st.sampled_from(INFINITE_COLENGTH),
                 st.lists(st.sampled_from(FRAGMENTS), max_size=8).map("".join),
                 st.sampled_from(["[" + j + "]" for j in MALFORMED_JSON])))
@settings(max_examples=60, deadline=None)
def test_residue_system_fuzz_keeps_exit_code_contract(text):
    assert _exit_code(["residue", "--g", "x1*x2", "--system", text,
                       "--vars", "2"]) in (0, 1, 2, 3)


@given(st.one_of(literals(),
                 st.lists(st.sampled_from(FRAGMENTS), max_size=8).map("".join),
                 st.sampled_from(MALFORMED_JSON)))
@settings(max_examples=100, deadline=None)
def test_nu_fuzz_keeps_exit_code_contract(text):
    assert _exit_code(["nu", "--poly", "x1^2 + x2^3", "--g", text]) \
        in (0, 1, 2, 3)


@given(literals(1, 3))
@settings(max_examples=80, deadline=None)
def test_nondeg_fuzz_keeps_exit_code_contract(text):
    assert _exit_code(["nondeg", "--poly", text]) in (0, 1, 2)


def test_env_seed_override():
    code, rep = run_json(["verify-all", "--poly", "x1^2 + x2^3",
                          "--seed", "3"], env_seed=17)
    assert code == 0
    assert rep["seed"] == 17


def test_text_format(tmp_path):
    out_file = tmp_path / "report.txt"
    code, _ = run_cli(["socle-order", "--poly", "x1^2 + x2^3",
                       "--format", "text", "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert "nu_socle = 7/6" in text
    assert "n_minus_nu_x = 7/6" in text


def test_report_json_round_trip(tmp_path):
    out_file = tmp_path / "rep.json"
    code, _ = run_cli(["polyhedron", "--poly", "x1^2 + x2^3",
                       "--out", str(out_file)])
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert json.loads(json.dumps(rep)) == rep


# ---------------------------------------------------------------------------
# The plain reading of a command line, against argparse
# ---------------------------------------------------------------------------

# The forms of a line that the plain reading leaves to argparse.
FLAWS = ("equals", "abbreviation", "negative", "repeat", "help", "dash-dash",
         "bad-type", "bad-choice", "dash-led", "flag-value", "unknown",
         "missing", "no-value", "positional", "command")


def option_value(kwargs):
    """A value that the option of add_argument ``kwargs`` takes."""
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    if kwargs.get("type") is int:
        return st.integers(0, 10 ** 6).map(str) | st.sampled_from(
            ["+3", " 7 ", "1_0", "007"])
    return st.text("x12^+* -=;.", max_size=8).filter(
        lambda v: not v.startswith("-"))


@st.composite
def command_lines(draw):
    """``(argv, flaw)``: a line drawn from the CLI's option table, and the
    form of FLAWS it has (None for a plain line)."""
    flaw = draw(st.none() | st.sampled_from(FLAWS))
    name = "fan" if flaw == "flag-value" else draw(
        st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[name][2]
    groups = {}
    for flag, kwargs in options:
        if kwargs.get("required") or draw(st.booleans()):
            groups[flag] = [flag] if "action" in kwargs else \
                [flag, draw(option_value(kwargs))]
    valued = [o for o in options if "action" not in o[1]]
    ints = [o for o in options if o[1].get("type") is int]
    if flaw in ("equals", "abbreviation", "repeat", "dash-led"):
        flag, kwargs = draw(st.sampled_from(valued))
        value = draw(option_value(kwargs))
        groups[flag] = {"equals": [flag + "=" + value],
                        "abbreviation": [flag[:-1], value],
                        "repeat": [flag, value, flag, value],
                        "dash-led": [flag, "-x1^2 + x2^3"]}[flaw]
    elif flaw in ("negative", "bad-type"):
        flag = draw(st.sampled_from(ints))[0]
        groups[flag] = [flag, "-3" if flaw == "negative" else "two"]
    elif flaw == "bad-choice":
        groups["--format"] = ["--format", "yaml"]
    elif flaw == "flag-value":
        groups["--regular"] = ["--regular", "yes"]
    elif flaw == "unknown":
        groups["--bogus"] = ["--bogus", "1"]
    elif flaw == "missing":
        required = [flag for flag, kwargs in options if kwargs.get("required")]
        del groups[draw(st.sampled_from(required))]
    words = [w for g in draw(st.permutations(list(groups.values())))
             for w in g]
    if flaw == "no-value":
        words.append(draw(st.sampled_from(valued))[0])
    elif flaw in ("help", "dash-dash", "positional"):
        word = {"help": draw(st.sampled_from(["-h", "--help"])),
                "dash-dash": "--", "positional": "x1^2"}[flaw]
        words.insert(draw(st.integers(0, len(words))), word)
    elif flaw == "command":
        name = draw(st.sampled_from([name[:-1], name.upper(), "--" + name]))
    return [name] + words, flaw


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_plain_reading_agrees_with_argparse(line):
    argv, flaw = line
    fields = cli._parse_plain(argv)
    assert (fields is None) == (flaw is not None)
    if fields is not None:
        assert fields == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [[], ["verify-all"], ["--help"],
                                  ["--poly", "x1", "verify-all"]])
def test_plain_reading_declines_a_line_without_its_command(argv):
    assert cli._parse_plain(argv) is None


# ---------------------------------------------------------------------------
# The process entry point, cli.launch
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(newton_socle.__file__))
# a 130 kB polyhedron report, twice a 64 KiB pipe buffer
K100 = k_support(100)


@pytest.fixture
def launch_env(monkeypatch):
    """One environment for in-process runs and the processes they are
    compared with: no seed override, an 80-column help text, and a
    block-buffered stdout, so that a report must be flushed."""
    monkeypatch.delenv("NEWTON_SOCLE_SEED", raising=False)
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("PYTHONPATH", SRC)


def in_process(argv):
    """``main(argv)``'s exit code, stdout and stderr, the last two as
    bytes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def launched(argv, code=None, **kwargs):
    """The exit code, stdout and stderr of a process that runs ``argv``
    through ``python -m newton_socle.cli``, or through the ``-c`` program
    ``code``."""
    prefix = ["-m", "newton_socle.cli"] if code is None else ["-c", code]
    kwargs.setdefault("stdout", subprocess.PIPE)
    proc = subprocess.run([sys.executable] + prefix + argv,
                          stderr=subprocess.PIPE, timeout=60, **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def k100_report():
    code, out, _ = in_process(["polyhedron", "--poly", K100])
    assert code == 0 and len(out) > 65536
    return out


def test_launch_writes_a_report_beyond_a_pipe_buffer(launch_env, k100_report):
    assert launched(["polyhedron", "--poly", K100]) == (0, k100_report, b"")


def test_launch_completes_an_out_file(launch_env, k100_report, tmp_path):
    out = tmp_path / "report.json"
    assert launched(["polyhedron", "--poly", K100, "--out", str(out)]) == \
        (0, b"", b"")
    assert out.read_bytes() == k100_report


@pytest.mark.parametrize("argv, code", [
    (["verify-all", "--poly", "x1^2 + x2^3"], 0),
    (["nondeg", "--poly", k_support(10)], 1),
    (["polyhedron", "--poly", "x1^^2"], 2),
    (["polyhedron", "--vars", "2"], 2),
    (["--help"], 0),
], ids=["verify-all", "degenerate-K=10", "malformed-literal", "usage-error",
        "help"])
def test_launch_keeps_the_exit_code_and_output(launch_env, argv, code):
    got = launched(argv)
    assert got[0] == code
    assert got == in_process(argv)
    if argv == ["--help"]:
        assert got[1].startswith(b"usage: newton-socle")
        assert b"full verification pipeline" in got[1]


def test_launch_runs_atexit_handlers(launch_env):
    argv = ["nu", "--poly", "x1^2 + x2^3", "--g", "x1*x2"]
    code = ("import atexit, sys\n"
            "from newton_socle.cli import launch\n"
            "atexit.register(sys.stdout.write, 'handler ran\\n')\n"
            "launch()\n")
    _, out, err = in_process(argv)
    assert launched(argv, code) == (0, out + b"handler ran\n", err)


@pytest.mark.parametrize("body, stderr_has", [
    ("cli.main = lambda: 1 / 0", b"ZeroDivisionError"),
    ("cli.main = lambda: sys.exit('stopped')", b"stopped"),
], ids=["exception", "string-exit"])
def test_launch_leaves_other_exits_to_the_interpreter(launch_env, body,
                                                      stderr_has):
    code = ("import atexit, sys\n"
            "import newton_socle.cli as cli\n"
            "atexit.register(sys.stderr.write, 'handler ran\\n')\n"
            + body + "\ncli.launch()\n")
    rc, out, err = launched([], code)
    assert rc == 1 and not out
    assert stderr_has in err and err.endswith(b"handler ran\n")


@pytest.mark.parametrize("unbuffered", ["1", ""],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["verify-all", "--poly", "x1^2+x2^3"],
    ["polyhedron", "--poly", K100],
    ["--help"],
    ["verify-all", "--help"],
], ids=["verify-all", "polyhedron-K=100", "help", "verify-all-help"])
def test_launch_on_a_closed_stdout_exits_1(launch_env, monkeypatch, argv,
                                           unbuffered):
    # a buffered 3 kB report or help text meets the closed pipe when launch
    # flushes it, any other one when main writes it
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    r, w = os.pipe()
    os.close(r)
    try:
        code, _, err = launched(argv, stdout=w)
    finally:
        os.close(w)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith(b"output error: ")
    assert b"Traceback" not in err and b"Exception ignored" not in err
