import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import latgeom._linalg as la
from latgeom import cli
from latgeom.cli import VERBS, run
from latgeom.impassability import _exact_radius, passage_certificate
from latgeom.lattice import Lattice, catalog
from latgeom.sublattice import _bound_sq, dk_min


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_lattice_info(capsys):
    d = _json(capsys, "lattice-info", "--catalog", "E8")
    assert d["rank"] == 8
    assert d["determinant"]["float"] == pytest.approx(1.0)


def test_catalog_dimension_suffix_and_flag(capsys):
    a = _json(capsys, "lattice-info", "--catalog", "D4")
    b = _json(capsys, "lattice-info", "--catalog", "D", "--n", "4")
    assert a == b


def test_catalog_names_without_a_dimension(capsys):
    # Leech, NonSep and BambahWoods have one dimension each; the families
    # need one, and the catalog says so
    assert _json(capsys, "lattice-info", "--catalog", "Leech")["rank"] == 24
    assert _json(capsys, "lattice-info", "--catalog", "NonSep")["rank"] == 3
    assert _json(capsys, "lattice-info", "--catalog", "BambahWoods")["rank"] == 3
    for name in ("Z", "A", "Astar", "D", "E"):
        code, out, err = _run(capsys, "lattice-info", "--catalog", name)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "CatalogMissError"


def _env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _fresh(script):
    """stdout of ``script`` run by a fresh interpreter on this checkout."""
    done = subprocess.run([sys.executable, "-c", script], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


_RUN_ALL = """
import contextlib, io, sys
from latgeom.cli import run
def run_all(*argvs):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv.split()) == 0, argv
"""


def test_verbs_load_no_sympy_physics():
    # no simplifier runs in the engine, so sympy.physics (which the first
    # sp.simplify imports) stays unloaded in a fresh process
    script = _RUN_ALL + """
run_all("cover --catalog Z2", "polytope --body cube:2",
        "cylinder --catalog Z2 --r 1/4 --k 1", "bounds --n 2 --k 1")
print(sorted(m for m in sys.modules if m.startswith("sympy.physics")))
"""
    assert _fresh(script) == "[]"


def test_engine_verbs_load_neither_numpy_nor_sympy():
    # exact values are ClosedForms and mvee runs on floats; the bounds and
    # the cylinder floors in the square-root case q sqrt(r) pi^j need no
    # sympy, so only the other values import it, when they run
    script = _RUN_ALL + """
run_all("svp --catalog E8", "minima --catalog E6", "lattice-info --catalog D4",
        "voronoi --catalog D4", "dk --catalog D4 --k 1",
        "impass --catalog D3 --scale sqrt2 --r 1 --k 1 --verify",
        "polytope --body cube:2", "mvee --body cube:2",
        "cylinder --catalog D3 --scale sqrt2 --r 1 --k 1",
        "cylinder --catalog D4 --scale sqrt2 --r 1 --k 1",
        "bounds --n 4 --k 2")
print(sorted(m for m in ("numpy", "sympy") if m in sys.modules))
run_all("bounds --n 2 --k 1", "cylinder --catalog Z2 --r 1/4 --k 1")
"""
    assert _fresh(script) == "[]"


def test_svp(capsys):
    d = _json(capsys, "svp", "--catalog", "A2")
    assert d["count"] == 6
    assert d["min_norm_sq"] == "2"


def test_minima(capsys):
    d = _json(capsys, "minima", "--catalog", "D4")
    assert d["minima_sq"] == ["2"] * 4
    assert len(d["vectors"]) == 4


def test_minima_floats_are_the_rounded_roots(tmp_path, capsys):
    # sqrt(float(1/7)) rounds 1/7 before its root: 0.3779644730092272
    path = tmp_path / "gram.json"
    path.write_text('{"gram": [["1/7", "0"], ["0", "1"]]}')
    d = _json(capsys, "minima", "--basis", str(path))
    assert d["minima_sq"] == ["1/7", "1"]
    assert d["minima"] == [0.37796447300922725, 1.0]


def test_dk_cubic(capsys):
    d = _json(capsys, "dk", "--catalog", "Z", "--n", "4", "--k", "2")
    assert d["dk"]["float"] == pytest.approx(1.0)


def test_impass_example(capsys):
    d = _json(capsys, "impass", "--catalog", "D3", "--scale", "sqrt2",
              "--r", "1", "--k", "1", "--verify")
    cert = d["certificate"]
    assert cert["clearance"] == pytest.approx(3 * math.sqrt(2) / 4 - 1, abs=1e-9)
    assert cert["validated"] is True


def test_impass_without_a_certificate(capsys):
    # balls of radius 4/5 about Z^2 leave no free line
    d = _json(capsys, "impass", "--catalog", "Z2", "--r", "4/5", "--k", "1")
    assert d["certificate"] is None and "note" in d


def test_table_321(capsys):
    d = _json(capsys, "table-321")
    assert set(d) == {"chain-general", "chain-symmetric",
                      "conjecture-general", "conjecture-symmetric"}
    assert [row["n"] for row in d["chain-general"]] == [3, 4, 5, 6, 7, 8, 24]


def test_bounds(capsys):
    d = _json(capsys, "bounds", "--n", "4", "--k", "1")
    assert d["dnk_lower"]["value_exact"] == "25*pi**2/256"


def test_bounds_hyperplane_case(capsys):
    d = _json(capsys, "bounds", "--n", "3", "--k", "2")
    assert d["dnn1_ball"]["value_exact"] == d["dnk_known"]["value_exact"]
    assert d["dnn1_ball"]["strictness"] == "equality"


def test_nonsep(capsys):
    d = _json(capsys, "nonsep", "--catalog", "Z3", "--r", "1/2")
    assert d["nonseparable"] is True
    assert d["margin"] == pytest.approx(0.0, abs=1e-12)


def test_nonsep_radius_with_rational_square(capsys):
    d = _json(capsys, "nonsep", "--catalog", "Z3", "--r", "sqrt2")
    assert d["nonseparable"] is True
    assert d["margin"] == pytest.approx(1 - 1 / (2 * math.sqrt(2)), abs=1e-12)
    code, out, err = _run(capsys, "nonsep", "--catalog", "Z3", "--r", "pi")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


def test_cylinder(capsys):
    d = _json(capsys, "cylinder", "--catalog", "D3", "--scale", "sqrt2",
              "--r", "1", "--k", "1")
    assert d["guaranteed"] is True
    assert d["threshold"]["value_exact"] == "9*pi/32"


def test_hyperplane_cylinder(capsys):
    # at k = n - 1 the default bound is det(L) lambda_1(L*), so the search
    # lists only the shortest dual vectors; at 3 lambda_1 ... lambda_5 it
    # stopped at the point budget and exited 1
    d = _json(capsys, "cylinder", "--catalog", "D6", "--r", "1/4", "--k", "5")
    assert d["certificate"]["mu"] == "1/2"
    assert d["certificate"]["validated"] is True


def test_polytope_and_mvee(capsys):
    d = _json(capsys, "polytope", "--body", "cube:3")
    assert d["facets"] == 6 and d["zonotope"] is True
    m = _json(capsys, "mvee", "--body", "cross:2")
    assert m["ratio"] == pytest.approx(math.pi / 2, abs=1e-6)


def test_body_dimension_below_one_exit_2(capsys):
    code, out, err = _run(capsys, "mvee", "--body", "cube:0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


def test_mvee_default_tolerance_is_1e_9(capsys):
    d = _json(capsys, "mvee", "--body", "cross:2")
    assert d == _json(capsys, "mvee", "--body", "cross:2", "--tol", "1e-9")
    assert _json(capsys, "mvee", "--body", "cross:2", "--tol", "1e-6")


def test_mahler(capsys):
    d = _json(capsys, "mahler", "--n", "3")
    assert "volume_product_floor" in d


def test_mahler_of_a_body(capsys):
    # the unit square and its polar, the cross-polytope of radius 2
    d = _json(capsys, "mahler", "--body", "cube:2")
    assert d["volume_product"]["exact"] == "8"


def test_basis_file(tmp_path, capsys):
    f = tmp_path / "lat.json"
    f.write_text(Lattice.from_rows([[2, 0], [1, 3]]).to_json())
    d = _json(capsys, "lattice-info", "--basis", str(f))
    assert d["determinant"]["float"] == pytest.approx(6.0)


@pytest.mark.parametrize("scale_sq", [0, -1, "-1/2"])
def test_basis_file_scale_not_positive_exit_2(tmp_path, capsys, scale_sq):
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"basis": [[1, 0], [0, 1]], "scale_sq": scale_sq}))
    code, out, err = _run(capsys, "lattice-info", "--basis", str(f))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "InvalidLatticeError", "message":
                               "the scale factor must be positive"}


def test_project_witness(capsys):
    d = _json(capsys, "project", "--catalog", "D3", "--scale", "sqrt2",
              "--witness", "[[0,0,1]]")
    assert d["gram"] == [["3", "1"], ["1", "3"]]


def test_project_along_the_least_sublattice(capsys):
    d = _json(capsys, "project", "--catalog", "D4", "--k", "2")
    assert d["witness"] == dk_min(catalog("D", 4), 2)[1].to_dict()


def test_project_embedding_failure_exit_1(capsys):
    # the exact projected Gram is positive definite, but its entries near
    # 2.8 * 10^20 defeat the float Cholesky factor of the printed embedding
    code, out, err = _run(capsys, "project", "--catalog", "Z5", "--witness",
                          "[[0, 2, -3, 1, 1], [2, 2, 0, 1, 0], [2, 0, -1, 2, 2]]")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "CapabilityError"


def test_invalid_input_exit_2(capsys):
    code, out, err = _run(capsys, "dk", "--catalog", "Z", "--n", "4")
    assert code == 2
    assert json.loads(err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("argv", [
    ["svp"], ["project", "--catalog", "Z2"], ["bounds", "--n", "4"],
    ["impass", "--catalog", "Z2", "--k", "1"], ["nonsep", "--catalog", "Z2"],
    ["cylinder", "--catalog", "Z2", "--k", "1"], ["mahler"], ["polytope"],
    ["polytope", "--body", "ball:3"]], ids=" ".join)
def test_missing_or_unknown_input_exit_2(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


def test_voronoi_of_a_box_with_minima_far_apart(tmp_path, capsys):
    # the automorphism search is over its point budget on this basis, and
    # the volume still comes out
    f = tmp_path / "lat.json"
    f.write_text(Lattice.from_rows([[1, 0, 0], [0, 1, 0],
                                    [0, 0, 1000]]).to_json())
    d = _json(capsys, "voronoi", "--basis", str(f))
    assert (d["facets"], d["vertices"]) == (6, 8)
    assert d["volume"]["exact"] == "1000"


def test_capability_exit_1(capsys):
    code, out, err = _run(capsys, "voronoi", "--catalog", "Leech24")
    assert code == 1
    assert json.loads(err)["error"] == "CapabilityError"


def test_projection_over_the_voronoi_cap_exit_1(capsys):
    # the lines of Z^10 project to rank 9, one above the Voronoi cap
    code, _, err = _run(capsys, "impass", "--catalog", "Z10", "--r", "1/4",
                        "--k", "1")
    assert code == 1
    assert json.loads(err)["error"] == "CapabilityError"


def test_missing_file_exit_2(capsys):
    code, _, err = _run(capsys, "lattice-info", "--basis", "/no/such/file.json")
    assert code == 2


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader closes the pipe before the CLI writes (its import alone
    # takes longer than the close); the rest of the output and the final
    # flush go to devnull, and stderr holds one JSON line
    with subprocess.Popen(
            [sys.executable, "-m", "latgeom.cli", "svp", "--catalog", "E8"],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) \
            as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == "BrokenPipeError"


def test_byte_identical_reruns(capsys):
    _, out1, _ = _run(capsys, "bounds", "--n", "3", "--k", "1")
    _, out2, _ = _run(capsys, "bounds", "--n", "3", "--k", "1")
    assert out1 == out2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("r=1\nk=1\n")
    d = _json(capsys, "--config", str(cfg), "impass", "--catalog", "D3",
              "--scale", "sqrt2")
    assert d["certificate"]["clearance"] == pytest.approx(0.0607, abs=1e-4)


def test_config_skips_comments_blank_and_bare_lines(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("# passage plane\n\nr=1\nnot a setting\nk=1\nverify=true\n")
    d = _json(capsys, "--config", str(cfg), "impass", "--catalog", "D3",
              "--scale", "sqrt2")
    assert d["certificate"]["validated"] is True


def test_config_keeps_zero_flag(tmp_path, capsys):
    # a flag given as 0 is set, so the config line k=2 must not replace it
    cfg = tmp_path / "cfg"
    cfg.write_text("k=2\n")
    with_cfg = _run(capsys, "--config", str(cfg), "bounds", "--n", "4",
                    "--k", "0")
    assert with_cfg == _run(capsys, "bounds", "--n", "4", "--k", "0")
    assert with_cfg != _run(capsys, "bounds", "--n", "4", "--k", "2")
    # k = 0 is out of range, so the error names the k that was kept
    assert "k=0" in json.loads(with_cfg[2])["message"]


@pytest.mark.parametrize("k", ["-1", "0", "4"])
def test_bounds_k_out_of_range_exit_2(capsys, k):
    code, out, err = _run(capsys, "bounds", "--n", "4", "--k", k)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("k", ["-1", "0", "3"])
def test_cylinder_k_out_of_range_exit_2(capsys, k):
    code, out, err = _run(capsys, "cylinder", "--catalog", "D3", "--r", "1/4",
                          "--k", k)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("verb", ["lattice-info", "svp", "cover"])
@pytest.mark.parametrize("gram", [
    [[-1, 0], [0, -1]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
])
def test_indefinite_gram_exit_2(tmp_path, capsys, verb, gram):
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"gram": gram}))
    code, out, err = _run(capsys, verb, "--basis", str(f))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidLatticeError"


@pytest.mark.parametrize("verb", ["lattice-info", "svp", "nonsep"])
@pytest.mark.parametrize("obj", [{"gram": 5}, {"basis": 5}, {"basis": [5, 6]}],
                         ids=json.dumps)
def test_lattice_file_without_rows_exit_2(tmp_path, capsys, verb, obj):
    f = tmp_path / "lat.json"
    f.write_text(json.dumps(obj))
    code, out, err = _run(capsys, verb, "--basis", str(f), "--r", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


def test_zero_scale_exit_2(capsys):
    code, out, err = _run(capsys, "svp", "--catalog", "Z2", "--scale", "0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidLatticeError"


def test_cylinder_error_exit_codes(capsys):
    # overlapping balls are invalid input; a search that finds no direction
    # within the determinant bound hit a capability limit
    code, out, err = _run(capsys, "cylinder", "--catalog", "Z3", "--r", "0.7",
                          "--k", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "NotAPackingError"
    code, out, err = _run(capsys, "cylinder", "--catalog", "Z3", "--r",
                          "49/100", "--k", "1", "--det-bound", "1/2")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "CapabilityError"


def test_table_format(capsys):
    code, out, _ = _run(capsys, "svp", "--catalog", "Z2", "--format", "table")
    assert code == 0
    assert "min_norm_sq: 1" in out


def test_basis_file_decimal_strings(tmp_path, capsys):
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"basis": [["0.5", "0"], ["0", "2"]]}))
    d = _json(capsys, "lattice-info", "--basis", str(f))
    assert d["gram"] == [["1/4", "0"], ["0", "4"]]


def test_basis_file_junk_entry_exit_2(tmp_path, capsys):
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"basis": [["x", "0"], ["0", "1"]]}))
    code, out, err = _run(capsys, "lattice-info", "--basis", str(f))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


def test_irrational_scale_exit_2(capsys):
    code, out, err = _run(capsys, "lattice-info", "--catalog", "Z2",
                          "--scale", "pi")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("text", ["{not json", '{"rows": [[1, 0], [0, 1]]}'],
                         ids=["invalid-json", "no-basis-or-gram-key"])
def test_malformed_basis_file_exit_2(tmp_path, capsys, text):
    f = tmp_path / "lat.json"
    f.write_text(text)
    code, out, err = _run(capsys, "lattice-info", "--basis", str(f))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


def test_non_numeric_scale_exit_2(capsys):
    code, out, err = _run(capsys, "lattice-info", "--catalog", "Z2",
                          "--scale", "abc")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


def test_polytope_cube_7(capsys):
    d = _json(capsys, "polytope", "--body", "cube:7")
    assert (d["vertices"], d["facets"], d["zonotope"]) == (128, 14, True)
    assert d["volume"]["exact"] == "1"
    assert d["volume_product"]["exact"] == "1024/315"  # 4^7 / 7!


@pytest.mark.parametrize("text", ["{not json", '{"rows": [[1, 0], [0, 1]]}',
                                  '[[0, 0], [1, 0], [0, 1]]',
                                  '{"halfspaces": {"a": [[1, 0]]}}'],
                         ids=["invalid-json", "no-known-key", "not-an-object",
                              "halfspaces-without-b"])
def test_malformed_body_file_exit_2(tmp_path, capsys, text):
    f = tmp_path / "body.json"
    f.write_text(text)
    code, out, err = _run(capsys, "polytope", "--body", str(f))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("line", ["r=abc", "k=x", "n=1.5", "tol=tiny",
                                  "det-bound=zz"])
def test_bad_config_value_exit_2(tmp_path, capsys, line):
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n")
    code, out, err = _run(capsys, "--config", str(cfg), "impass",
                          "--catalog", "Z3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


def test_missing_config_file_exit_2(tmp_path, capsys):
    code, out, err = _run(capsys, "--config", str(tmp_path / "none"),
                          "svp", "--catalog", "Z2")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "OSError"


def test_det_bound_is_exact(tmp_path, capsys):
    # the float 0.49 is below 49/100, so a float bound misses the witness
    d = _json(capsys, "dk", "--catalog", "Z3", "--scale", "7/10", "--k", "2",
              "--det-bound", "0.49")
    assert d["dk"]["exact"] == "49/100"
    cfg = tmp_path / "cfg"
    cfg.write_text("det-bound=3/2\n")
    d = _json(capsys, "--config", str(cfg), "dk", "--catalog", "Z2",
              "--scale", "3/2", "--k", "1")
    assert d["dk"]["exact"] == "3/2"
    code, _, err = _run(capsys, "dk", "--catalog", "Z2", "--k", "1",
                        "--det-bound", "abc")
    assert code == 2 and json.loads(err)["error"] == "InvalidInputError"


def test_det_bound_reads_root_tokens(capsys):
    # --det-bound takes the tokens --r takes, as the library takes sqrt(2);
    # pi has no rational square
    d = _json(capsys, "dk", "--catalog", "Z3", "--k", "1", "--det-bound",
              "sqrt2")
    assert d["dk_sq"] == "1" == str(dk_min(catalog("Z", 3), 1, sp.sqrt(2))[0])
    code, out, err = _run(capsys, "dk", "--catalog", "Z3", "--k", "1",
                          "--det-bound", "pi")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInputError"


def test_huge_det_bound_hits_the_point_budget(capsys):
    # the candidate enumeration of the search stops at its point budget
    code, out, err = _run(capsys, "cylinder", "--catalog", "Z3", "--r", "1/4",
                          "--k", "1", "--det-bound", "1e400")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "CapabilityError"


# (token, the value a library caller passes for it). A float below 10 lies
# within 10^-15 of its two-place decimal and at least 9 * 10^-15 from any
# other fraction with denominator up to 10^12, so the library reads the
# decimal back
_TOKENS = st.one_of(
    st.decimals("0.01", "9.99", places=2).map(lambda d: (str(d), float(d))),
    st.fractions(Fraction(1, 1000), 100, max_denominator=1000).map(
        lambda q: (str(q), q)))


@settings(max_examples=100, deadline=None)
@given(_TOKENS)
def test_numeric_tokens_read_like_the_library(pair):
    # --r, --scale and --det-bound read the square the library reads
    tok, value = pair
    want, _ = la._rational_square(value)
    assert _exact_radius(cli._number("r", tok))[0] == want
    assert cli._scale_factor_sq(tok) == want
    assert _bound_sq(cli._number("det_bound", tok)) == want


def test_root_tokens_read_like_the_library():
    want, _ = la._rational_square(sp.sqrt(2))
    assert _exact_radius(cli._number("r", "sqrt2"))[0] == want == 2
    assert cli._scale_factor_sq("sqrt2") == want
    assert _bound_sq(cli._number("det_bound", "sqrt2")) == want


def test_cli_and_library_agree_on_float_values(capsys):
    d = _json(capsys, "dk", "--catalog", "Z3", "--scale", "0.7", "--k", "2",
              "--det-bound", "0.49")
    lat = catalog("Z", 3).scaled(Fraction(49, 100))
    assert d["dk_sq"] == str(dk_min(lat, 2, 0.49)[0]) == "2401/10000"
    d = _json(capsys, "impass", "--catalog", "Z3", "--k", "1", "--r", "0.3")
    assert d["certificate"] == passage_certificate(
        catalog("Z", 3), 0.3, 1, validate=False).to_dict()


def test_polytope_facets_ignore_repeated_rows(tmp_path, capsys):
    f = tmp_path / "square.json"
    f.write_text(json.dumps({"halfspaces": {
        "a": [[1, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], "b": [1] * 5}}))
    d = _json(capsys, "polytope", "--body", str(f))
    assert (d["vertices"], d["facets"], d["volume"]["exact"]) == (4, 4, "4")


@pytest.mark.parametrize("flag", ["--n", "--k", "--r", "--tol", "--det-bound"])
def test_malformed_numeric_flag_exit_2(capsys, flag):
    for verb in VERBS:
        for value in ("abc", "1/0", "1..2"):
            code, out, err = _run(capsys, verb, flag, value)
            assert code == 2 and out == "", (verb, value)
            assert "Traceback" not in err
            assert json.loads(err)["error"] == "InvalidInputError"
