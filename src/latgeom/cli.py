"""Command-line entry point: one binary, subcommand per operation.

Exit codes: 0 on success, 1 when a computation exceeds a capability limit,
2 on invalid input; machine-readable error JSON goes to stderr. Output is
deterministic: JSON with sorted keys, no timestamps, deterministic
tie-breaking inherited from the library.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import _linalg as la
from . import bounds as bnd
from . import enumeration as enu
from . import impassability as imp
from . import polytope as pt
from . import sublattice as sub
from . import symmetry as sym
from .errors import CapabilityError, InvalidInputError, LatgeomError
from .lattice import Lattice, catalog
# unused here; kept so that bench/tracer.py's REQUIRED_ALIASES resolve
from .lattice import reduce as lll_reduce

# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

_SQRT_RE = re.compile(r"^sqrt(\d+)$")


def parse_scalar(tok):
    """Rational, float, or sqrtN token; rationals stay exact."""
    tok = str(tok).strip()
    m = _SQRT_RE.match(tok)
    if m:
        return la._sqrt_rational(int(m.group(1)))
    try:
        return Fraction(tok)
    except ValueError:
        return float(tok)


def _scale_factor_sq(tok):
    """Squared scale factor from a --scale token; it must be rational."""
    try:
        v = parse_scalar(tok)
    except ValueError:
        raise InvalidInputError(f"--scale {tok!r} is not a number") from None
    return la._rational_square(v)[0]


def load_lattice(args) -> Lattice:
    lat = None
    if getattr(args, "catalog", None):
        name = args.catalog
        n = getattr(args, "n", None)
        m = re.match(r"^([A-Za-z]+\*?)(\d*)(star)?$", name)
        if m and m.group(2):
            name = m.group(1) + (m.group(3) or "")
            n = int(m.group(2))
        lat = catalog(name, n)
    elif getattr(args, "basis", None):
        with open(args.basis) as fh:
            lat = Lattice.from_json(fh.read())
    else:
        raise InvalidInputError("no lattice given: use --catalog or --basis")
    if getattr(args, "scale", None):
        lat = lat.scaled(_scale_factor_sq(args.scale))
    return lat


_BODY_BUILDERS = {
    "cube": lambda n: pt.cube(n),
    "cross": lambda n: pt.cross_polytope(n),
    "simplex": lambda n: pt.simplex(n),
}


def load_body(args) -> pt.Polytope:
    tok = getattr(args, "body", None)
    if not tok:
        raise InvalidInputError("no body given: use --body FILE or NAME:n")
    if ":" in tok:
        name, n = tok.split(":", 1)
        if name not in _BODY_BUILDERS:
            raise InvalidInputError(f"unknown body constructor {name!r}")
        if not n.isdigit() or int(n) < 1:
            raise InvalidInputError(f"body dimension must be an integer >= 1, "
                                    f"got {n!r}")
        return _BODY_BUILDERS[name](int(n))
    with open(tok) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(
                f"body file is not valid JSON: {exc}") from None
    return pt.Polytope.from_dict(obj)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
        return
    for key, value in payload.items():
        if isinstance(value, (list, tuple)):
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        elif isinstance(value, dict):
            print(f"{key}:")
            for k2, v2 in value.items():
                print(f"  {k2}: {v2}")
        else:
            print(f"{key}: {value}")


def _num(x):
    """JSON-friendly pair (exact string, float) for an exact value."""
    return {"exact": str(x), "float": float(x)}


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------

def cmd_lattice_info(args):
    lat = load_lattice(args)
    g = lat.gram()
    return {
        "rank": lat.rank,
        "exact": True,
        "determinant": _num(lat.determinant()),
        "det_sq": str(lat.det_sq()),
        "gram": [[str(x) for x in row] for row in g],
        "name": lat.name,
    }


def cmd_svp(args):
    lat = load_lattice(args)
    l1_sq, vecs = enu.shortest_vectors(lat)
    return {
        "min_norm_sq": str(l1_sq),
        "lambda1": _num(la._sqrt_rational(l1_sq)),
        "count": 2 * len(vecs),
        "vectors_up_to_sign": [list(v) for v in vecs],
    }


def cmd_minima(args):
    lat = load_lattice(args)
    norms, vecs = enu.successive_minima(lat)
    return {
        "minima_sq": [str(q) for q in norms],
        "minima": [float(la._sqrt_rational(q)) for q in norms],
        "vectors": [list(v) for v in vecs],
    }


def cmd_dk(args):
    lat = load_lattice(args)
    if args.k is None:
        raise InvalidInputError("dk requires --k")
    d2, w = sub.dk_min(lat, args.k, det_bound=args.det_bound)
    return {
        "k": args.k,
        "dk": _num(w.det_value()),
        "dk_sq": str(d2),
        "witness": w.to_dict(),
    }


def cmd_voronoi(args):
    lat = load_lattice(args)
    rel = enu.relevant_vectors(lat)
    return {
        "relevant_vectors_up_to_sign": [list(v) for v in rel],
        "facets": 2 * len(rel),
        "vertices": len(enu.voronoi_cell(lat).integer_vertices()[0]),
        "volume": _num(sym.cell_volume(lat)),
    }


def cmd_cover(args):
    lat = load_lattice(args)
    mu_sq, hole = enu.covering_radius(lat)
    out = {
        "covering_radius_sq": str(mu_sq),
        "covering_radius": _num(la._sqrt_rational(mu_sq)),
        "deep_hole_coeffs": [str(c) for c in hole],
        "covering_density": _num(enu.covering_density(lat)),
    }
    try:
        out["packing_density"] = _num(enu.packing_density(lat))
    except LatgeomError:
        pass
    return out


def cmd_project(args):
    lat = load_lattice(args)
    if args.witness:
        try:
            rows = json.loads(args.witness)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(
                f"--witness is not valid JSON: {exc}") from None
        w = sub.witness(lat, rows)
    elif args.k is not None:
        _, w = sub.dk_min(lat, args.k, det_bound=args.det_bound)
    else:
        raise InvalidInputError("project requires --witness or --k")
    proj = sub.project_along(w)
    g = proj.gram()
    # row i of the transposed Cholesky factor: basis vector i in floats
    try:
        r = la.float_cholesky([[float(x) for x in row] for row in g])
    except ValueError:
        raise CapabilityError("the float embedding of the projection lost "
                              "positive definiteness to rounding") from None
    return {
        "witness": w.to_dict(),
        "gram": [[str(x) for x in row] for row in g],
        "determinant": _num(proj.determinant()),
        "embedding": la.transpose(r),
    }


def cmd_impass(args):
    lat = load_lattice(args)
    if args.r is None or args.k is None:
        raise InvalidInputError("impass requires --r and --k")
    cert = imp.passage_certificate(lat, args.r, args.k,
                                   det_bound=args.det_bound,
                                   validate=args.verify)
    if cert is None:
        return {"certificate": None,
                "note": "no passage plane found within the search bound"}
    return {"certificate": cert.to_dict()}


def cmd_nonsep(args):
    lat = load_lattice(args)
    if args.r is None:
        raise InvalidInputError("nonsep requires --r")
    flag, margin = imp.is_nonseparable_ball_lattice(lat, args.r)
    return {"nonseparable": bool(flag), "margin": margin}


def cmd_cylinder(args):
    lat = load_lattice(args)
    if args.r is None or args.k is None:
        raise InvalidInputError("cylinder requires --r and --k")
    n, k = lat.rank, args.k
    try:
        d_nk = bnd.dnk_known(n, k)
    except LatgeomError:
        d_nk = bnd.dnk_lower(n, k)
    cw = imp.free_cylinder(lat, args.r, k, d_nk, det_bound=args.det_bound)
    out = cw.to_dict()
    out["threshold"] = d_nk.to_dict()
    return out


def cmd_bounds(args):
    if args.n is None or args.k is None:
        raise InvalidInputError("bounds requires --n and --k")
    n, k = args.n, args.k
    out = {
        "dnk_lower": bnd.dnk_lower(n, k).to_dict(),
        "dnk_chain": bnd.dnk_chain(n, k).to_dict(),
        "cnk_upper": bnd.cnk_upper(n, k).to_dict(),
    }
    if k == n - 1:
        out["dnn1_ball"] = bnd.dnn1_ball(n).to_dict()
    try:
        out["dnk_known"] = bnd.dnk_known(n, k).to_dict()
    except LatgeomError:
        pass
    return out


def cmd_table_321(args):
    rows = bnd.remark321_table()
    out = {}
    for key, entries in rows.items():
        out[key] = [{"n": e["n"], "value": e["report"].value_float,
                     "exact": str(e["report"].value_exact),
                     "printed": e["printed"],
                     "discrepancy": e["discrepancy"]} for e in entries]
    return out


def cmd_polytope(args):
    body = load_body(args)
    verts = body.vertices()
    zono, gens = pt.is_zonotope(body)
    out = {
        "dim": body.dim,
        "vertices": len(verts),
        "facets": len(body._faces(body.dim - 1)),
        "volume": _num(body.volume()),
        "centrally_symmetric": body.is_centrally_symmetric(),
        "zonotope": zono,
    }
    if out["centrally_symmetric"] and body.contains([0] * body.dim, strict=True):
        out["volume_product"] = _num(pt.volume_product(body))
    return out


def cmd_mahler(args):
    if args.body:
        body = load_body(args)
        return {"volume_product": _num(pt.volume_product(body))}
    if args.n is None:
        raise InvalidInputError("mahler requires --n or --body")
    kuperberg, symmetric, general = bnd.mahler_floors(args.n)
    return {"volume_product_floor": kuperberg.to_dict(),
            "dfloor_symmetric": symmetric.to_dict(),
            "dfloor_general": general.to_dict()}


def cmd_mvee(args):
    body = load_body(args)
    ell = pt.mvee(body, tol=1e-9 if args.tol is None else args.tol)
    out = ell.to_dict()
    out["volume"] = ell.volume()
    out["ratio"] = out["volume"] / float(body.volume())
    return out


_HANDLERS = {
    "lattice-info": cmd_lattice_info,
    "svp": cmd_svp,
    "minima": cmd_minima,
    "dk": cmd_dk,
    "voronoi": cmd_voronoi,
    "cover": cmd_cover,
    "project": cmd_project,
    "impass": cmd_impass,
    "nonsep": cmd_nonsep,
    "cylinder": cmd_cylinder,
    "bounds": cmd_bounds,
    "table-321": cmd_table_321,
    "polytope": cmd_polytope,
    "mahler": cmd_mahler,
    "mvee": cmd_mvee,
}
VERBS = tuple(_HANDLERS)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InvalidInputError, so
    they exit 2 with a JSON error like every other invalid input."""

    def error(self, message):
        raise InvalidInputError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser for every verb, built once per process: parsing leaves it
    unchanged."""
    parser = _Parser(
        prog="latgeom",
        description="lattice geometry toolkit: enumeration, sublattices, "
                    "Voronoi cells, passage certificates, density bounds")
    parser.add_argument("--config", help="key=value file; flags override")
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = subs.add_parser(verb)
        p.add_argument("--catalog", help="named lattice, e.g. D3 or Z (with --n)")
        p.add_argument("--basis", help="lattice JSON file")
        p.add_argument("--body", help="polytope JSON file or NAME:n "
                                      "(cube, cross, simplex)")
        p.add_argument("--scale", help="scale factor token (e.g. 2, 1/2, sqrt2)")
        p.add_argument("--n")
        p.add_argument("--k")
        p.add_argument("--r")
        p.add_argument("--det-bound", dest="det_bound")
        p.add_argument("--witness", help="JSON rows of sublattice coefficients")
        p.add_argument("--tol")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--verify", action="store_true",
                       help="run independent validation (brute-force checks)")
    return parser


# How a numeric flag, given on the command line or in --config, is read.
_NUMBERS = {"n": int, "k": int, "tol": float, "r": parse_scalar,
            "det_bound": parse_scalar}


def _number(key, value):
    """The string ``value`` of numeric flag ``key`` converted by its type."""
    try:
        return _NUMBERS[key](value)
    except (ValueError, ZeroDivisionError):
        raise InvalidInputError(f"{key} value {value!r} is not a "
                                f"number") from None


def _config_value(key, value):
    """A --config value converted as its flag would be."""
    if key == "verify":
        return value.lower() in ("1", "true", "yes")
    return _number(key, value) if key in _NUMBERS else value


def _apply_config(args):
    if not args.config:
        return args
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            current = getattr(args, key, None)
            if current is None or current is False:
                setattr(args, key, _config_value(key, value.strip()))
    return args


def run(argv=None) -> int:
    # an exact value prints in full: lift, for the process, Python's default
    # limit of 4,300 digits on int-str conversion (before 3.10.7 there is none)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        for key in _NUMBERS:
            if getattr(args, key) is not None:
                setattr(args, key, _number(key, getattr(args, key)))
        args = _apply_config(args)
        payload = _HANDLERS[args.verb](args)
    except (LatgeomError, OSError) as exc:
        _report("OSError" if isinstance(exc, OSError) else type(exc).__name__,
                exc)
        return 2 if isinstance(exc, (InvalidInputError, OSError)) else 1
    emit(payload, args.format)
    return 0


def _report(name, exc):
    """The one-line JSON error for ``exc``, under ``name``, on stderr."""
    json.dump({"error": name, "message": str(exc)}, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's last flush of what is left is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _report("BrokenPipeError", exc)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
