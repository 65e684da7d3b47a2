"""Fuzz of the command line: every verb with malformed and edge values of
its flags must exit 0, 1 or 2, and a nonzero exit leaves one JSON error
object on stderr, never a traceback. Lattices and bodies are small, so each
call is quick. The --basis and --body values that name a file in ``FILES``
are read from the copy the ``files`` fixture writes once per module."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latgeom.cli import VERBS, run

_SQUARE = {"a": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [1, 1, 1, 1]}
# lattice and body files a verb can work with
GOOD_BASES = {"z2.json": {"basis": [[1, 0], [0, 1]]},
              "a2.json": {"gram": [[2, -1], [-1, 2]]},
              "d3.json": {"basis": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                          "scale_sq": "1/2"}}
GOOD_BODIES = {"square.json": {"halfspaces": _SQUARE},
               "triangle.json": {"vertices": [[0, 0], [1, 0], [0, 1]],
                                 "metric": [[1, "1/2"], ["1/2", 1]]}}
# malformed files, each of which exits 2, with the error it raises
BAD_BASES = {
    "gram-5.json": ({"gram": 5}, "InvalidInputError"),
    "basis-5.json": ({"basis": 5}, "InvalidInputError"),
    "basis-5-6.json": ({"basis": [5, 6]}, "InvalidInputError"),
    "indefinite.json": ({"gram": [[1, 0], [0, -1]]}, "InvalidLatticeError"),
}
BAD_BODIES = {
    "no-rows.json": ({"halfspaces": {"a": [], "b": []}}, "InvalidInputError"),
    "no-columns.json": ({"halfspaces": {"a": [[]], "b": [1]}},
                        "InvalidInputError"),
    "no-coordinates.json": ({"vertices": [[]]}, "InvalidInputError"),
    "indefinite-metric.json": ({"halfspaces": _SQUARE,
                                "metric": [[1, 0], [0, -1]]},
                               "InvalidInputError"),
    "asymmetric-metric.json": ({"halfspaces": _SQUARE,
                                "metric": [[1, 2], [3, 4]]},
                               "InvalidInputError"),
    "short-metric.json": ({"halfspaces": _SQUARE, "metric": [[1, 0]]},
                          "DimensionMismatchError"),
    "flat.json": ({"halfspaces": {"a": _SQUARE["a"], "b": [0, 0, 1, 1]}},
                  "InvalidInputError"),
}
FILES = {**GOOD_BASES, **GOOD_BODIES,
         **{name: obj for name, (obj, _) in {**BAD_BASES,
                                             **BAD_BODIES}.items()}}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding each of ``FILES``."""
    root = tmp_path_factory.mktemp("files")
    for name, obj in FILES.items():
        (root / name).write_text(json.dumps(obj))
    return root


def _in(root, argv):
    """argv with each value that names one of ``FILES`` made its path."""
    return [str(root / a) if a in FILES else a for a in argv]


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
    "--basis": (list(GOOD_BASES), list(BAD_BASES) + ["no-such-file.json"]),
    "--body": (["cube:2", "cross:3", "simplex:2"] + list(GOOD_BODIES),
               ["cube:0", "cube:-1", "cube:x", "ball:3", "no-such-file.json",
                ""] + list(BAD_BODIES)),
}


LATTICE = ("--catalog", "--basis", "--n", "--scale")
SOURCES = ("--catalog", "--basis")  # a lattice verb reads the first given
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
    none or a malformed one; and, now and then, a flag it ignores. A lattice
    verb reads its lattice from one source, a catalog name or a file."""
    verb = draw(st.sampled_from(VERBS))
    source = draw(st.sampled_from(SOURCES))
    argv = [verb]
    for flag, (good, bad) in VALUES.items():
        if flag not in FLAGS[verb] or flag in SOURCES and flag != source:
            kinds = ("none",) * 6 + ("good", "bad")
        elif flag == source:  # a lattice verb fails at once without it
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
def test_cli_exits_0_1_or_2_with_a_json_error(files, argv):
    _check_exit(_in(files, argv))


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_invalid_cli_input_exits_2(argv):
    code, err = _check_exit(argv)
    assert code == 2, err
    assert json.loads(err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("argv", [
    [verb, flag, name] for flag, verbs, names in (
        ("--basis", ("lattice-info", "svp", "nonsep"), BAD_BASES),
        ("--body", ("polytope", "mvee", "mahler"), BAD_BODIES))
    for name in names for verb in verbs], ids=" ".join)
def test_malformed_file_exits_2(files, argv):
    verb, _, name = argv
    flags = ["--r", "1"] if verb == "nonsep" else []
    code, err = _check_exit(_in(files, argv + flags))
    assert code == 2, err
    _, want = {**BAD_BASES, **BAD_BODIES}[name]
    # a flat body has no interior, so mahler fails at its polar first
    if (verb, name) == ("mahler", "flat.json"):
        want = "PolarUndefinedError"
    assert json.loads(err)["error"] == want


# exact values with more digits than Python's default limit of 4,300 for
# converting an int to a str
LONG = [["mahler", "--n", "1300"],
        ["cover", "--catalog", "Z3", "--scale", "1/1" + "0" * 2200]]


@pytest.mark.parametrize("argv", LONG, ids=lambda argv: argv[0])
def test_long_exact_values_print_in_full(argv):
    code, err = _check_exit(argv)
    assert code == 0, err
    _, out, _ = _invoke(argv)
    assert re.search(r"[0-9]{4301}", out)


def test_witness_checks_run_in_order():
    # a short row is reported before its non-integral entry, and a
    # non-integral entry before the count of rows
    _, err = _check_exit(["project", "--catalog", "Z3", "--witness",
                          "[[1.5,0]]"])
    assert "entries" in json.loads(err)["message"]
    _, err = _check_exit(["project", "--catalog", "Z3", "--witness",
                          "[[1.5,0,0],[0,1,0],[0,0,1]]"])
    assert "integer" in json.loads(err)["message"]
