"""Fuzz of the command line: every verb with malformed and edge values of
its flags must exit 0, 1 or 2, and a nonzero exit leaves one JSON error
object on stderr, never a traceback. Lattices and bodies are small, so each
call is quick."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latgeom.cli import VERBS, run

# per flag: values a verb can work with, and malformed or edge values
VALUES = {
    "--catalog": (["Z2", "Z3", "A2", "A3", "D3", "Astar2", "NonSep"],
                  ["Z", "D", "Z0", "Z-1", "D9", "A6", "E5", "Q3", "3", "zz2",
                   ""]),
    "--n": (["2", "3", "4"], ["-3", "0", "1", "1.5", "x", ""]),
    "--k": (["1", "2"], ["-1", "0", "3", "7", "1/2", "x", ""]),
    "--r": (["1/2", "1/4", "0.3", "1", "sqrt2"],
            ["0", "-1", "sqrt0", "pi", "nan", "inf", "1e400", "1e-400", "x",
             ""]),
    "--scale": (["2", "1/2", "sqrt2"],
                ["0", "-1", "pi", "nan", "inf", "1e-400", "x", ""]),
    "--det-bound": (["1", "3/2", "2", "0.5", "sqrt2"],
                    ["-1", "0", "pi", "nan", "inf", "x", ""]),
    "--witness": (["[[1,0,0]]", "[[0,1,1]]", "[[1,0]]", "[[1,0,0],[0,1,0]]"],
                  ["[[1.5,0,0]]", "notjson", "5", "[]", "{}", "[1,0,0]",
                   "[[0,0,0]]", "[[true,0,0]]", '[["a",0,0]]',
                   "[[1,0,0],[2,0,0]]", "[[1,0,0],[0,1,0],[0,0,1]]",
                   "[[1e400,0,0]]"]),
    "--tol": (["1e-9", "1e-6"], ["0", "-1", "nan", "inf", "x"]),
    "--body": (["cube:2", "cross:3", "simplex:2"],
               ["cube:0", "cube:-1", "cube:x", "ball:3", "no-such-file.json",
                ""]),
}


LATTICE = ("--catalog", "--n", "--scale")
FLAGS = {  # the flags each verb reads
    "lattice-info": LATTICE, "svp": LATTICE, "minima": LATTICE,
    "voronoi": LATTICE, "cover": LATTICE,
    "dk": LATTICE + ("--k", "--det-bound"),
    "project": LATTICE + ("--k", "--det-bound", "--witness"),
    "impass": LATTICE + ("--r", "--k", "--det-bound"),
    "cylinder": LATTICE + ("--r", "--k", "--det-bound"),
    "nonsep": LATTICE + ("--r",), "bounds": ("--n", "--k"), "table-321": (),
    "polytope": ("--body",), "mvee": ("--body", "--tol"),
    "mahler": ("--n", "--body"),
}


@st.composite
def argvs(draw):
    """A verb; for each flag it reads, mostly a workable value, sometimes
    none or a malformed one; and, now and then, a flag it ignores."""
    verb = draw(st.sampled_from(VERBS))
    argv = [verb]
    for flag, (good, bad) in VALUES.items():
        if flag not in FLAGS[verb]:
            kinds = ("none",) * 6 + ("good", "bad")
        elif flag == "--catalog":  # a lattice verb fails at once without it
            kinds = ("good",) * 4 + ("bad",)
        else:
            kinds = ("none", "good", "good", "good", "bad")
        kind = draw(st.sampled_from(kinds))
        if kind != "none":
            argv += [flag, draw(st.sampled_from(good if kind == "good"
                                                else bad))]
    if draw(st.booleans()):
        argv.append("--verify")
    return argv


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _check_exit(argv):
    code, out, err = _invoke(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code:
        obj = json.loads(err)
        assert isinstance(obj, dict) and set(obj) == {"error", "message"}
        assert out == ""
    return code, err


# the inputs that once ended in a wrong exit code or a traceback
INVALID = [
    ["project", "--catalog", "Z3", "--witness", "[[1,0]]"],
    ["project", "--catalog", "Z3", "--witness", "[[1.5,0,0]]"],
    ["project", "--catalog", "Z3", "--witness", "notjson"],
    ["project", "--catalog", "Z3", "--witness", "5"],
    ["project", "--catalog", "Z3", "--witness", "[]"],
    ["project", "--catalog", "Z3", "--witness", "[[1,0,0],[0,1,0],[0,0,1]]"],
    ["mahler", "--n", "-3"],
    ["mahler", "--n", "0"],
    ["nonsep", "--catalog", "Z3", "--r", "0"],
    ["impass", "--catalog", "Z3", "--r", "1e400", "--k", "1"],
    ["cylinder", "--catalog", "Z3", "--r", "1e-400", "--k", "1"],
    ["mvee", "--body", "cube:2", "--tol", "0"],
    ["mvee", "--body", "cube:2", "--tol", "-1"],
    ["mvee", "--body", "cube:2", "--tol", "nan"],
    ["mvee", "--body", "cube:2", "--tol", "inf"],
    ["svp", "--catalog", "Z3", "--format", "xml"],
    ["no-such-verb"],
]


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
@example(argv=INVALID[0])
@example(argv=INVALID[1])
@example(argv=INVALID[2])
@example(argv=INVALID[3])
@example(argv=INVALID[4])
@example(argv=INVALID[5])
@example(argv=INVALID[6])
@example(argv=INVALID[7])
# no 3-plane can clear these balls, by the transference bound; the search
# for one once ran a minute
@example(argv=["impass", "--catalog", "Z", "--n", "4", "--scale", "1/2",
               "--r", "1/4", "--k", "3", "--det-bound", "2"])
def test_cli_exits_0_1_or_2_with_a_json_error(argv):
    _check_exit(argv)


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_invalid_cli_input_exits_2(argv):
    code, err = _check_exit(argv)
    assert code == 2, err
    assert json.loads(err)["error"] == "InvalidInputError"


def test_witness_checks_run_in_order():
    # a short row is reported before its non-integral entry, and a
    # non-integral entry before the count of rows
    _, err = _check_exit(["project", "--catalog", "Z3", "--witness",
                          "[[1.5,0]]"])
    assert "entries" in json.loads(err)["message"]
    _, err = _check_exit(["project", "--catalog", "Z3", "--witness",
                          "[[1.5,0,0],[0,1,0],[0,0,1]]"])
    assert "integer" in json.loads(err)["message"]
