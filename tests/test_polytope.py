import dataclasses
import functools
import itertools
import json
import math
import operator
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import latgeom._double_description as dd
import latgeom._linalg as la

from latgeom.cli import run
from latgeom.enumeration import kappa, voronoi_cell
from latgeom.errors import (CapabilityError, DimensionMismatchError,
                            InvalidInputError, PolarUndefinedError,
                            UnboundedBodyError)
from latgeom.lattice import catalog
from latgeom.polytope import (Polytope, _float_inverse, _maximal,
                              cross_polytope, cube, equilateral_triangle,
                              hanner, is_zonotope, mvee, mvee_ratio, simplex,
                              simplex_dv_cell, volume_product)


def test_cube_conversions():
    c = cube(3)
    assert len(c.vertices()) == 8
    assert len(c.halfspaces()[0]) == 6
    assert c.coordinate_volume() == 1


def test_cross_polytope_volume():
    for n in (2, 3, 4):
        assert cross_polytope(n).coordinate_volume() == Fraction(2 ** n, math.factorial(n))


def test_vertex_canonicalization_drops_interior_points():
    p = Polytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1),
                                (Fraction(1, 2), Fraction(1, 2))])
    assert len(p.vertices()) == 4


def test_h_v_round_trip():
    p = cube(3)
    a, b = p.halfspaces()
    q = Polytope.from_halfspaces(a, b)
    assert q == p


def test_unbounded_rejected():
    with pytest.raises(UnboundedBodyError):
        Polytope.from_halfspaces([[1, 0], [0, 1]], [1, 1]).vertices()
    # one row: its normals do not span the plane
    with pytest.raises(UnboundedBodyError):
        Polytope.from_halfspaces([[1, 0]], [1]).vertices()


def test_empty_rejected():
    with pytest.raises(InvalidInputError):
        Polytope.from_halfspaces([[1, 0], [-1, 0], [0, 1], [0, -1]],
                                 [-1, -1, 1, 1]).vertices()


@pytest.mark.parametrize("verts", [[(0, 0), (1, 1), (2, 2)], [(1, 1)]],
                         ids=["collinear", "point"])
def test_vertices_not_full_dimensional_rejected(verts):
    with pytest.raises(InvalidInputError):
        Polytope.from_vertices(verts).halfspaces()


def test_ragged_descriptions_rejected():
    with pytest.raises(DimensionMismatchError):
        Polytope.from_halfspaces([[1, 0], [1]], [1, 1])
    with pytest.raises(DimensionMismatchError):
        Polytope.from_vertices([(0, 0), (1,)])


@pytest.mark.parametrize("make", [
    lambda: Polytope.from_halfspaces([], []),
    lambda: Polytope.from_halfspaces([[]], [1]),
    lambda: Polytope.from_vertices([]),
    lambda: Polytope.from_vertices([[]]),
    lambda: Polytope.from_halfspaces(5, [1]),
], ids=["no-rows", "no-columns", "no-vertices", "no-coordinates", "not-rows"])
def test_empty_descriptions_rejected(make):
    with pytest.raises(InvalidInputError):
        make()


_SQUARE = ([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])


@pytest.mark.parametrize("metric,error", [
    ([[1, 0]], DimensionMismatchError),
    ([[1, 0], [0]], DimensionMismatchError),
    ([[1, 0], [0, -1]], InvalidInputError),
    ([[1, 2], [3, 4]], InvalidInputError),
    ([[1, 1], [0, 1]], InvalidInputError),
    ([[1, 0], [0, 0]], InvalidInputError),
    ("x", InvalidInputError),
])
def test_metric_must_be_square_symmetric_positive_definite(metric, error):
    with pytest.raises(error):
        Polytope.from_halfspaces(*_SQUARE, metric=metric)
    with pytest.raises(error):
        Polytope.from_vertices([[0, 0], [1, 0], [0, 1]], metric=metric)


def test_flat_body_has_no_zonotope_test_or_mvee():
    seg = Polytope.from_halfspaces(_SQUARE[0], [0, 0, 1, 1])
    with pytest.raises(InvalidInputError, match="full-dimensional"):
        is_zonotope(seg)
    with pytest.raises(InvalidInputError, match="full-dimensional"):
        mvee(seg)


def test_equality_needs_a_polytope_of_the_same_dimension():
    assert cube(2) != "x" and not cube(2) == "x"
    assert cube(2) != cube(3)


def test_segment_in_the_plane_has_volume_zero():
    seg = Polytope.from_halfspaces([[1, 0], [-1, 0], [0, 1], [0, -1]],
                                   [1, 1, 0, 0])
    assert len(seg.vertices()) == 2
    assert seg.volume() == 0


def test_redundant_rows_do_not_change_volume():
    # a duplicated row, and a row touching the square at one vertex only
    p = Polytope.from_halfspaces([[1, 0], [1, 0], [-1, 0], [0, 1], [0, -1],
                                  [1, 1]], [1, 1, 1, 1, 1, 2])
    assert len(p.vertices()) == 4
    assert p.coordinate_volume() == 4
    assert len(p.triangulation()) == 2


def test_contains():
    c = cube(2)
    assert c.contains([0, 0], strict=True)
    assert c.contains([Fraction(1, 2), Fraction(1, 2)])
    assert not c.contains([Fraction(1, 2), Fraction(1, 2)], strict=True)
    assert not c.contains([1, 0])


def test_polar_involution_cube():
    c = cube(2, half_side=1)
    assert c.polar().polar() == c


def test_polar_cube_is_cross():
    c = cube(3, half_side=1)
    assert c.polar() == cross_polytope(3)


def test_polar_requires_interior_origin():
    shifted = cube(2).translated([1, 1])
    with pytest.raises(PolarUndefinedError):
        shifted.polar()


def test_minkowski_sum_square_plus_diamond():
    s = cube(2)
    d = cross_polytope(2).scaled(Fraction(1, 2))
    octo = s.minkowski_sum(d)
    assert len(octo.vertices()) == 8
    # the 2x2 bounding square minus four corner triangles of area 1/8
    assert octo.coordinate_volume() == Fraction(7, 2)


@pytest.mark.parametrize("t", [[1], [1, 2, 3]])
def test_translation_needs_a_vector_of_the_body_dimension(t):
    with pytest.raises(DimensionMismatchError):
        cube(2).translated(t)


def test_minkowski_sum_needs_equal_dimensions():
    with pytest.raises(DimensionMismatchError):
        cube(2).minkowski_sum(cube(3))


def test_difference_body_of_simplex_is_hexagon():
    t = Polytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    h = t.difference_body()
    assert len(h.vertices()) == 6
    assert h.coordinate_volume() == Fraction(3, 4)
    assert h.is_centrally_symmetric()


def test_metric_volume_equilateral():
    t = equilateral_triangle()
    assert sp.simplify(t.volume() - sp.sqrt(3) / 4) == 0


def test_simplex_chart_volume():
    for n in (2, 3, 4):
        s = simplex(n)
        # V = sqrt(n+1) / n!
        assert sp.simplify(s.volume() - sp.sqrt(n + 1) / sp.factorial(n)) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_simplex_dv_cell_facets_and_volume(n):
    cell = simplex_dv_cell(n)
    assert len(cell.halfspaces()[0]) == n * (n + 1)
    assert sp.simplify(cell.volume() ** 2 - (n + 1)) == 0


def test_project_cube_onto_diagonal_plane():
    # projection of the unit cube along its main diagonal is a hexagon of
    # area sqrt(3) (in the plane x+y+z = 0)
    c = cube(3)
    d1 = [Fraction(1), Fraction(-1), Fraction(0)]
    d2 = [Fraction(1), Fraction(1), Fraction(-2)]
    hexa = c.project([d1, d2])
    assert len(hexa.vertices()) == 6
    assert sp.simplify(hexa.volume() - sp.sqrt(3)) == 0


def test_project_rejects_dependent_directions():
    with pytest.raises(InvalidInputError):
        cube(2).project([[1, 0], [2, 0]])


def test_hanner_rejects_an_unknown_node():
    with pytest.raises(InvalidInputError):
        hanner(("xor", "seg", "seg"))


def test_support_function():
    c = cube(2)
    assert c.support([1, 0]) == Fraction(1, 2)
    assert c.support([1, 1]) == 1


def test_volume_product_square_exact():
    sq = cube(2, half_side=1)
    assert volume_product(sq) == 8


def test_volume_product_scale_invariant():
    p = cube(3, half_side=1)
    assert volume_product(p.scaled(Fraction(7, 3))) == volume_product(p)


def _canon(tree):
    """Canonical form modulo commutativity and associativity of sum/prod."""
    if tree == "seg":
        return "seg"
    op, a, b = tree
    kids = []
    for t in (_canon(a), _canon(b)):
        if isinstance(t, tuple) and t[0] == op:
            kids.extend(t[1])
        else:
            kids.append(t)
    return (op, tuple(sorted(kids, key=repr)))


def _trees(n):
    """One representative per isomorphism class of sum/prod trees on n segments."""
    if n == 1:
        yield "seg"
        return
    seen = set()
    for a in range(1, n):
        for ta in _trees(a):
            for tb in _trees(n - a):
                for tree in (("sum", ta, tb), ("prod", ta, tb)):
                    key = _canon(tree)
                    if key not in seen:
                        seen.add(key)
                        yield tree


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hanner_volume_products(n):
    for tree in _trees(n):
        p = hanner(tree)
        assert volume_product(p) == Fraction(4 ** n, math.factorial(n)), tree


def test_volume_products_leave_in_canonical_form():
    bodies = [cube(n) for n in (1, 2, 3, 4)]
    bodies += [cross_polytope(n) for n in (2, 3, 4)]
    bodies += [hanner(t) for n in (2, 3, 4) for t in _trees(n)]
    bodies += [cube(2).scaled(Fraction(7, 3)), simplex_dv_cell(3)]
    for p in bodies:
        v = volume_product(p)
        assert str(v) == str(sp.simplify(v))


def test_is_zonotope_cube_and_octahedron():
    flag, gens = is_zonotope(cube(3))
    assert flag and len(gens) == 3
    flag, _ = is_zonotope(cross_polytope(3))
    assert not flag


def test_hexagon_is_zonotope():
    t = Polytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    flag, gens = is_zonotope(t.difference_body())
    assert flag and len(gens) == 3


def test_serialization_round_trip():
    p = equilateral_triangle()
    q = Polytope.from_dict(p.to_dict())
    assert q == p
    assert q.metric == p.metric


def test_mvee_square_is_disk():
    ratio = mvee_ratio(cube(2), tol=1e-9)
    assert ratio == pytest.approx(math.pi / 2, abs=1e-6)


def test_mvee_triangle():
    t = Polytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    # circumscribed ellipse of min area for a triangle has area 4pi/(3 sqrt 3)
    # times the triangle area
    assert mvee_ratio(t, tol=1e-9) == pytest.approx(4 * math.pi / (3 * math.sqrt(3)),
                                                    abs=1e-6)


def test_mvee_respects_metric():
    t = equilateral_triangle()
    ell = mvee(t, tol=1e-9)
    # equilateral triangle: MVEE is the circumcircle, radius 1/sqrt(3)
    verts = t.vertices()
    for v in verts:
        assert ell.contains(v, tol=1e-6)
    assert ell.volume() == pytest.approx(math.pi / 3, abs=1e-6)


def _numpy_mvee(p, tol):
    """Reference: Khachiyan's ascent with away steps in numpy, recomputing
    X^-1 with LAPACK at every step; (center, shape, volume)."""
    r = np.array(la.float_cholesky(p._metric()))  # G = R^T R
    pts = np.array([[float(x) for x in v] for v in p.vertices()]) @ r.T
    n, d = pts.shape
    q = np.vstack([pts.T, np.ones(n)])
    u = np.full(n, 1.0 / n)
    while True:
        m = np.einsum("ij,jk,ki->i", q.T,
                      np.linalg.inv(q @ (u[:, None] * q.T)), q)
        jp = int(np.argmax(m))
        active = np.where(u > 1e-14)[0]
        jm = int(active[np.argmin(m[active])])
        up, down = m[jp] / (d + 1) - 1, 1 - m[jm] / (d + 1)
        if max(up, down) <= tol:
            break
        if up >= down:
            step = (m[jp] - d - 1) / ((d + 1) * (m[jp] - 1))
            u = (1 - step) * u
            u[jp] += step
        else:
            lam = u[jm] / (1 - u[jm])
            if m[jm] > 1:
                lam = min(lam, (d + 1 - m[jm]) / ((d + 1) * (m[jm] - 1)))
            u = (1 + lam) * u
            u[jm] -= lam
    c = pts.T @ u
    shape = r.T @ np.linalg.inv(pts.T @ np.diag(u) @ pts - np.outer(c, c)) \
        @ r / d
    g = np.array([[float(x) for x in row] for row in p._metric()])
    vol = float(kappa(d)) * math.sqrt(np.linalg.det(g) / np.linalg.det(shape))
    return np.linalg.solve(r, c), shape, vol


def _random_body(d, count, seed):
    rng = random.Random(seed)
    return Polytope.from_vertices(
        [[rng.randint(-10, 10) for _ in range(d)] for _ in range(count)])


@pytest.mark.parametrize("body", [
    cube(3), cross_polytope(3), simplex(3), simplex(4), equilateral_triangle(),
    simplex_dv_cell(3), Polytope.from_vertices([[0, 0], [3, 0], [0, 1], [1, 1]]),
    _random_body(4, 40, 0),
], ids=["cube3", "cross3", "simplex3", "simplex4", "triangle", "dv_cell3",
        "quadrilateral", "random4"])
def test_mvee_matches_numpy_reference(body):
    ell = mvee(body, tol=1e-9)
    center, shape, vol = _numpy_mvee(body, 1e-9)
    assert max(abs(a - b) for a, b in zip(ell.center, center)) <= 1e-8
    assert max(abs(a - b) for row, ref in zip(ell.shape, shape)
               for a, b in zip(row, ref)) <= 1e-8
    assert ell.volume() == pytest.approx(vol, rel=1e-12)


def test_float_inverse_pivots():
    assert _float_inverse([[0.0, 1.0], [1.0, 0.0]]) == [[0.0, 1.0], [1.0, 0.0]]
    rng = random.Random(0)
    for n in range(2, 7):
        a = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
        a[0][0] = 0.0  # the first column needs a row swap
        exact = la.inverse([[Fraction(x) for x in row] for row in a])
        for row, ref in zip(_float_inverse(a), exact):
            assert row == pytest.approx([float(x) for x in ref],
                                        rel=1e-9, abs=1e-9)


def test_mvee_budget_error_reports_gap_and_support(monkeypatch):
    monkeypatch.setattr("latgeom.polytope.MVEE_ITERATIONS", 1000)
    # 60 integer points near an ellipse, nearly all on the boundary
    turns = [2 * math.pi * i / 60 for i in range(60)]
    body = Polytope.from_vertices(
        [[round(1000 * math.cos(t)),
          round(500 * math.sin(t) + 300 * math.cos(t))] for t in turns])
    with pytest.raises(CapabilityError) as err:
        mvee(body, tol=1e-9)
    gap, support = re.search(r"after 1000 iterations: duality gap (\S+) on "
                             r"(\d+) support points$", str(err.value)).groups()
    assert 1e-9 < float(gap) < 1 and 3 <= int(support) <= 60


def test_mvee_iteration_budget_raises(monkeypatch):
    monkeypatch.setattr("latgeom.polytope.MVEE_ITERATIONS", 1)
    # uniform weights are optimal on the square, so one step meets tol
    assert mvee(cube(2)).contains([Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(CapabilityError, match="after 1 iterations"):
        mvee(Polytope.from_vertices([[0, 0], [3, 0], [0, 1], [1, 1]]))


@pytest.mark.parametrize("tol", [0, -1, 0.0, float("nan"), float("inf"),
                                 "1e-9", None])
def test_mvee_rejects_a_tolerance_that_is_not_positive_finite(
        monkeypatch, tol):
    # raised before the ascent: one step would end in CapabilityError
    monkeypatch.setattr("latgeom.polytope.MVEE_ITERATIONS", 1)
    with pytest.raises(InvalidInputError, match="tolerance"):
        mvee(Polytope.from_vertices([[0, 0], [3, 0], [0, 1], [1, 1]]),
             tol=tol)


@pytest.mark.parametrize("tol", [1e-6, Fraction(1, 10**9), 1])
def test_mvee_accepts_a_positive_finite_tolerance(tol):
    assert mvee(cube(2), tol=tol).contains([Fraction(1, 2), Fraction(1, 2)])


# ---------------------------------------------------------------------------
# Triangulation from the vertex-facet incidence, on random integer bodies
# ---------------------------------------------------------------------------

def _points(d, lo=2, hi=9):
    pt = st.tuples(*[st.integers(-4, 4)] * d)
    return st.lists(pt, min_size=lo, max_size=hi, unique=True)


def _full_dimensional(pts, d):
    return la.affine_rank([list(p) for p in pts]) == d


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _shoelace_hull_area(pts):
    """Area of the convex hull by Andrew's monotone chain and the shoelace
    formula, exact, independent of the polytope code."""
    pts = sorted(pts)
    hull = []
    for chain in (pts, pts[::-1]):
        part = []
        for p in chain:
            while len(part) >= 2 and _cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        hull += part[:-1]
    twice = sum(a[0] * b[1] - a[1] * b[0]
                for a, b in zip(hull, hull[1:] + hull[:1]))
    return Fraction(abs(twice), 2)


def _check_simplices(p):
    d = p.dim
    for s in p.triangulation():
        assert len(s) == d + 1
        assert la.det([[x - y for x, y in zip(v, s[0])] for v in s[1:]]) != 0


@settings(max_examples=80, deadline=None)
@given(_points(2, lo=3))
def test_planar_volume_is_shoelace_area(pts):
    assume(_full_dimensional(pts, 2))
    p = Polytope.from_vertices(pts)
    assert p.coordinate_volume() == _shoelace_hull_area(pts)
    _check_simplices(p)


@st.composite
def _body_and_unimodular_map(draw):
    d = draw(st.integers(3, 4))
    pts = draw(_points(d, lo=d + 1))
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.permutations(range(d)))[:2]
        c = draw(st.integers(-2, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    if draw(st.booleans()):
        u[0] = [-x for x in u[0]]
    shift = draw(st.tuples(*[st.integers(-3, 3)] * d))
    return pts, u, shift


@settings(max_examples=40, deadline=None)
@given(_body_and_unimodular_map())
def test_volume_invariant_under_unimodular_maps(case):
    pts, u, shift = case
    d = len(u)
    assume(_full_dimensional(pts, d))
    assert abs(la.det_int(u)) == 1
    p = Polytope.from_vertices(pts)
    image = Polytope.from_vertices(
        [[sum(x * row[j] for x, row in zip(v, u)) + t
          for j, t in enumerate(shift)] for v in pts])
    vol = p.coordinate_volume()
    assert vol > 0 and image.coordinate_volume() == vol
    _check_simplices(p)
    _check_simplices(image)


def _direction(g):
    lead = next(x for x in g if x)
    return tuple(Fraction(x) / lead for x in g)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=d,
                       max_size=d + 2)))
def test_segment_sums_are_zonotopes(gens):
    d = len(gens[0])
    assume(la.rank([list(g) for g in gens]) == d)
    pts = {tuple(map(sum, zip(*sub))) if sub else (0,) * d
           for r in range(len(gens) + 1)
           for sub in itertools.combinations(gens, r)}
    flag, found = is_zonotope(Polytope.from_vertices(sorted(pts)))
    assert flag
    assert ({_direction(g) for g in found}
            == {_direction(g) for g in gens if any(g)})


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: _points(d, lo=d + 1, hi=d + 1)))
def test_simplices_are_not_zonotopes(pts):
    assume(_full_dimensional(pts, len(pts[0])))
    flag, gens = is_zonotope(Polytope.from_vertices(pts))
    assert not flag and gens is None


# ---------------------------------------------------------------------------
# Double description against an independent brute force
# ---------------------------------------------------------------------------

def _solve(rows, rhs):
    """The unique solution of a square Fraction system, or None when it is
    singular; plain Gauss-Jordan elimination."""
    m = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    n = len(m)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def _brute_force_vertices(rows, b):
    """The feasible points solving some d rows with equality: the vertices."""
    d = len(rows[0])
    out = set()
    for sub in itertools.combinations(range(len(rows)), d):
        x = _solve([rows[i] for i in sub], [b[i] for i in sub])
        if x is not None and all(
                sum(a * y for a, y in zip(row, x)) <= bv
                for row, bv in zip(rows, b)):
            out.add(x)
    return sorted(out)


@st.composite
def _bounded_h_polytope(draw):
    """A box cut by extra rows with entries in {-1, 0, 1}; right-hand sides
    are small, so many rows meet at a vertex (degenerate vertices)."""
    d = draw(st.integers(1, 4))
    rows, b = [], []
    for i in range(d):
        for s in (1, -1):
            rows.append([s * (j == i) for j in range(d)])
            b.append(draw(st.integers(1, 2)))
    for _ in range(draw(st.integers(0, 6))):
        rows.append(list(draw(st.tuples(*[st.integers(-1, 1)] * d))))
        b.append(draw(st.integers(0, 2)))
    return rows, b


@settings(max_examples=150, deadline=None)
@given(_bounded_h_polytope())
def test_double_description_matches_brute_force(hp):
    rows, b = hp
    rays, _, _ = dd.vertex_rays([[Fraction(x) for x in r] for r in rows],
                                [Fraction(x) for x in b])
    verts = [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays]
    assert len(verts) == len(set(verts))
    assert sorted(verts) == _brute_force_vertices(rows, b)


@settings(max_examples=150, deadline=None)
@given(_bounded_h_polytope())
def test_cone_rays_are_feasible_distinct_and_extreme(hp):
    rows, b = hp
    normals = [[Fraction(x) for x in r] + [Fraction(-bv)]
               for r, bv in zip(rows, b)] + [[0] * len(rows[0]) + [-1]]
    rays, _ = dd.cone_rays(normals)
    d = len(normals[0])
    assert len(rays) == len(set(rays))
    for r in rays:
        vals = [sum(a * x for a, x in zip(nv, r)) for nv in normals]
        assert max(vals) <= 0 and any(r)
        # an extreme ray of a pointed d-cone is tight on rank d - 1 normals
        assert la.rank([nv for nv, v in zip(normals, vals) if v == 0]) \
            == d - 1


@settings(max_examples=150, deadline=None)
@given(_bounded_h_polytope())
def test_cone_ray_bits_follow_the_normals(hp):
    # bit j of a ray's mask is normals[j], whichever normals the simplicial
    # start takes
    rows, b = hp
    normals = [[Fraction(x) for x in r] + [Fraction(-bv)]
               for r, bv in zip(rows, b)] + [[0] * len(rows[0]) + [-1]]
    rays, masks = dd.cone_rays(normals)
    assert masks == [sum(1 << j for j, nv in enumerate(normals)
                         if not sum(a * x for a, x in zip(nv, r)))
                     for r in rays]


@pytest.mark.parametrize("name,n,count", [
    ("D", 4, 24), ("A", 4, 30), ("Z", 5, 32), ("Astar", 4, 120), ("D", 5, 42),
    ("A", 5, 62), ("E", 6, 54), ("E", 7, 632), ("Astar", 5, 720)])
def test_voronoi_vertex_counts(name, n, count):
    assert len(voronoi_cell(catalog(name, n)).vertices()) == count


@pytest.mark.parametrize("name,n,count", [
    ("D", 4, 72), ("A", 4, 96), ("Z", 5, 120), ("Astar", 4, 488),
    ("D", 5, 360), ("A", 5, 600), ("E", 6, 1680), ("cube", 7, 5040)])
def test_triangulation_sums_to_coordinate_volume(name, n, count):
    body = cube(n) if name == "cube" else voronoi_cell(catalog(name, n))
    simplices = body.triangulation()
    assert len(simplices) == count
    total = sum(abs(la.det([[x - y for x, y in zip(v, s[0])] for v in s[1:]]))
                for s in simplices)
    assert total / math.factorial(n) == body.coordinate_volume()


def test_simplex_budget_stops_the_pulling_triangulation(monkeypatch, capsys):
    # cube:4's pulling triangulation has 4! = 24 simplices, and its polar,
    # cross:4, has 2^3 = 8 from its lowest vertex
    monkeypatch.setattr("latgeom.polytope.SIMPLEX_BUDGET", 24)
    assert cube(4).coordinate_volume() == 1
    monkeypatch.setattr("latgeom.polytope.SIMPLEX_BUDGET", 23)
    with pytest.raises(CapabilityError, match=r"simplex budget 23: "
                                              r"24 simplices listed"):
        cube(4).coordinate_volume()
    assert cross_polytope(4).coordinate_volume() == Fraction(2, 3)
    assert run(["mahler", "--body", "cube:4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "CapabilityError"
    assert "simplex budget 23" in json.loads(err)["message"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2 ** 12 - 1), max_size=9), st.integers(0, 10),
       st.integers(0, 2 ** 12 - 1))
def test_at_least_counts_columns(cols, t, universe):
    want = sum(1 << i for i in range(12) if universe >> i & 1
               and sum(c >> i & 1 for c in cols) >= t)
    assert dd._at_least(cols, t, universe) == want


def test_ray_budget_reports_progress(monkeypatch):
    monkeypatch.setattr("latgeom._double_description.RAY_BUDGET", 10)
    with pytest.raises(CapabilityError) as err:
        voronoi_cell(catalog("D", 4)).vertices()
    # the D4 cell has 24 facets, so its cone has 25 constraints
    step, total, rays = map(int, re.fullmatch(
        r"double description exceeded the ray budget 10 at constraint "
        r"(\d+) of (\d+): (\d+) rays", str(err.value)).groups())
    assert step <= total == 25 and rays > 10


def test_ray_budget_stops_a_paired_run_partway(monkeypatch):
    # E6's cell has 72 facets in 36 pairs; the paired run starts from the
    # parallelotope of 6 pairs, 2^6 = 64 vertices, and peaks at 214 rays
    monkeypatch.setattr("latgeom._double_description.RAY_BUDGET", 100)
    with pytest.raises(CapabilityError) as err:
        voronoi_cell(catalog("E", 6)).vertices()
    step, total, rays = map(int, re.fullmatch(
        r"double description exceeded the ray budget 100 at constraint "
        r"(\d+) of (\d+): (\d+) rays", str(err.value)).groups())
    assert 12 < step < total == 73 and rays > 100


# The paired double description of centrally symmetric bodies.

@st.composite
def _symmetric_h_rows(draw):
    """Rows (a, b) of a centrally symmetric body in D = 1..5 dimensions: a
    box +-e_i . x <= b_i and mirror pairs with a in {-1, 0, 1}^D (a = 0
    included), each direction with one or two b, every b in 1..3; then some
    rows repeated, every row rescaled by a positive rational, and the rows
    shuffled. The number of directions keeps the brute force small."""
    d = draw(st.integers(1, 5))
    pairs = [([int(i == j) for j in range(d)], draw(st.integers(1, 3)))
             for i in range(d)]
    for _ in range(draw(st.integers(0, (3, 4, 3, 2, 1)[d - 1]))):
        a = list(draw(st.tuples(*[st.integers(-1, 1)] * d)))
        pairs += [(a, bv) for bv in draw(st.sets(st.integers(1, 3),
                                                 min_size=1, max_size=2))]
    rows = [([s * x for x in a], bv) for a, bv in pairs for s in (1, -1)]
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    scales = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3),
                              Fraction(5, 2)])
    rows = [([c * x for x in a], c * bv)
            for (a, bv), c in zip(rows, draw(st.lists(
                scales, min_size=len(rows), max_size=len(rows))))]
    return draw(st.permutations(rows))


def _split(rows):
    return ([[Fraction(x) for x in a] for a, _ in rows],
            [Fraction(bv) for _, bv in rows])


def _distinct(rows):
    """One int row (a, b) per class of positive multiples."""
    out = {}
    for a, bv in rows:
        v = [Fraction(x) for x in a] + [Fraction(bv)]
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints) or 1
        out[tuple(x // g for x in ints)] = None
    return [list(r[:-1]) for r in out], [r[-1] for r in out]


def _outcome(rows):
    """The sorted vertices of ``dd.vertex_rays``, or the type of its error."""
    try:
        rays, _, _ = dd.vertex_rays(*_split(rows))
    except (UnboundedBodyError, InvalidInputError) as exc:
        return type(exc)
    verts = [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays]
    assert len(verts) == len(set(verts))
    return sorted(verts)


def _is_paired(rows):
    a, b = _split(rows)
    normals = [r + [-bv] for r, bv in zip(a, b)]
    return dd.mirror_pairs(normals, len(a[0])) is not None


@settings(max_examples=120, deadline=None)
@given(_symmetric_h_rows())
def test_paired_double_description_matches_brute_force(rows):
    assert _is_paired(rows)
    assert _outcome(rows) == _brute_force_vertices(*_distinct(rows))


def _flawed(rows, flaw, data):
    """The symmetric ``rows`` with one flaw: every copy of one row's mirror
    dropped, every copy of one row given another b, one pair put at b = 0,
    or the last coordinate of every a cleared, so that the a do not span."""
    if flaw == "no span":
        return [(a[:-1] + [0], bv) for a, bv in rows]

    def key(row):
        return tuple(map(tuple, _distinct([row])))

    a, bv = data.draw(st.sampled_from([row for row in rows if any(row[0])]))
    mine, mirror = key((a, bv)), key(([-x for x in a], bv))
    if flaw == "mirror missing":
        return [row for row in rows if key(row) != mirror]
    if flaw == "b differs":  # each copy m (a, bv) becomes m (a, bv + 1)
        return [(ra, rb + rb / bv if key((ra, rb)) == mine else rb)
                for ra, rb in rows]
    return [(ra, 0 if key((ra, rb)) in (mine, mirror) else rb)
            for ra, rb in rows]


@settings(max_examples=100, deadline=None)
@given(_symmetric_h_rows(),
       st.sampled_from(["mirror missing", "b differs", "b = 0", "no span"]),
       st.data())
def test_near_symmetric_rows_take_the_sequential_path(rows, flaw, data):
    rows = _flawed(rows, flaw, data)
    assert not _is_paired(rows)
    with mock.patch.object(dd, "paired_rays", side_effect=AssertionError):
        got = _outcome(rows)
    if flaw == "no span":
        assert got is UnboundedBodyError
    elif got is not UnboundedBodyError or flaw != "mirror missing":
        assert got == _brute_force_vertices(*_distinct(rows))


# ---------------------------------------------------------------------------
# The vertex-facet incidence of the double description against brute force
# ---------------------------------------------------------------------------

def _brute_masks(ints, den, a_rows, b_vals):
    """Per row of a x <= b, the mask of the points ints[k] / den on its
    hyperplane, by one exact dot product per point and row."""
    masks = []
    for row, bv in zip(a_rows, b_vals):
        *normal, rhs = dd._primitive_int(list(row) + [bv])
        masks.append(sum(1 << k for k, w in enumerate(ints)
                         if sum(map(operator.mul, normal, w)) == rhs * den))
    return masks


def _check_ray_masks(a_rows, b_vals):
    """The rows of ``vertex_rays``'s masks, each the set of vertices tight
    at one constraint of the double description, are the brute-force tight
    sets of the rows of a x <= b, as sets of nonempty vertex sets."""
    rays, masks, _ = dd.vertex_rays(a_rows, b_vals)
    den = math.lcm(*(r[-1] for r in rays))
    ints = [[x * (den // r[-1]) for x in r[:-1]] for r in rays]
    rows = {sum(1 << k for k, m in enumerate(masks) if m >> j & 1)
            for j in range(max(map(int.bit_length, masks)))}
    assert rows - {0} == set(_brute_masks(ints, den, a_rows, b_vals)) - {0}


def _check_named_masks(a_rows, b_vals):
    """Bit j of ``vertex_rays``'s masks is set at exactly the vertices on
    the hyperplane of its j-th name, by brute force, and every row of
    a x <= b with a != 0 is named."""
    rays, masks, names = dd.vertex_rays(a_rows, b_vals)
    den = math.lcm(*(r[-1] for r in rays))
    ints = [[x * (den // r[-1]) for x in r[:-1]] for r in rays]
    assert max(map(int.bit_length, masks)) <= len(names)
    bits = [sum(1 << k for k, m in enumerate(masks) if m >> j & 1)
            for j in range(len(names))]
    assert bits == _brute_masks(ints, den, [n[:-1] for n in names],
                                [-n[-1] for n in names])
    assert {dd._primitive_int(list(a) + [-bv])
            for a, bv in zip(a_rows, b_vals) if any(a)} <= set(names)


def _check_incidence(body):
    """The body's row masks over its sorted vertices are the brute-force
    tight sets of its halfspaces, and its facets are their maximal ones."""
    ints, den = body.integer_vertices()
    whole = (1 << len(ints)) - 1
    brute = _brute_masks(ints, den, *body.halfspaces())
    assert set(body._incidence().values()) - {0} == set(brute) - {0}
    assert body._facets_of(whole) == _maximal(brute, whole)


@settings(max_examples=100, deadline=None)
@given(_bounded_h_polytope())
def test_ray_masks_are_the_tight_sets(hp):
    rows, b = hp
    a_rows, b_vals = _split(list(zip(rows, b)))
    _check_ray_masks(a_rows, b_vals)
    _check_incidence(Polytope.from_halfspaces(a_rows, b_vals))


@settings(max_examples=100, deadline=None)
@given(_bounded_h_polytope())
def test_mask_bits_name_their_rows(hp):
    rows, b = hp
    _check_named_masks(*_split(list(zip(rows, b))))


@settings(max_examples=80, deadline=None)
@given(_symmetric_h_rows())
def test_paired_mask_bits_name_their_rows(rows):
    assert _is_paired(rows)
    _check_named_masks(*_split(rows))


@settings(max_examples=80, deadline=None)
@given(_symmetric_h_rows())
def test_paired_ray_masks_are_the_tight_sets(rows):
    _check_ray_masks(*_split(rows))
    _check_incidence(Polytope.from_halfspaces(*_split(rows)))


@st.composite
def _point_sets(draw):
    """A full-dimensional set of ``_points`` in D = 1..4 dimensions,
    sometimes with the mirror of every point; then interior points (the
    centroid and midpoints) and repeated points are added, and the points
    shuffled."""
    d = draw(st.integers(1, 4))
    pts = draw(_points(d, lo=d + 1, hi=8))
    assume(_full_dimensional(pts, d))
    if draw(st.booleans()):
        pts += [tuple(-x for x in p) for p in pts]
    pick = st.sampled_from(pts)
    pts += [tuple(Fraction(sum(col), len(pts)) for col in zip(*pts))]
    pts += [tuple(Fraction(x + y, 2) for x, y in zip(p, q))
            for p, q in draw(st.lists(st.tuples(pick, pick), max_size=3))]
    pts += draw(st.lists(pick, max_size=3))
    return draw(st.permutations(pts))


@settings(max_examples=100, deadline=None)
@given(_point_sets())
def test_v_built_vertices_and_incidence_match_brute_force(pts):
    body = Polytope.from_vertices(pts)
    a_rows, b_vals = body.halfspaces()
    # a point is extreme iff the rows tight at it meet in no other point
    points = list(dict.fromkeys(pts))
    masks = _brute_masks(*la.integer_form(points), a_rows, b_vals)
    extreme = [p for j, p in enumerate(points) if functools.reduce(
        operator.and_, [m for m in masks if m >> j & 1], -1) == 1 << j]
    assert body.vertices() == sorted(extreme)
    _check_ray_masks(a_rows, b_vals)
    _check_incidence(body)


@pytest.mark.parametrize("name,n", [
    ("D", 4), ("A", 4), ("Z", 5), ("Astar", 4), ("D", 5), ("A", 5),
    ("E", 6), ("E", 7)])
def test_catalog_cell_incidence_matches_brute_force(name, n):
    _check_incidence(voronoi_cell(catalog(name, n)))


@pytest.mark.parametrize("make", [cube, cross_polytope, simplex])
@pytest.mark.parametrize("n", range(1, 6))
def test_standard_body_incidence_matches_brute_force(make, n):
    _check_incidence(make(n))


def test_e8_cell_rows_match_brute_force():
    """E8's cell has 240 facets on 19,440 vertices; eight of its rows,
    taken at random, have the brute-force tight sets."""
    cell = voronoi_cell(catalog("E", 8))
    ints, den = cell.integer_vertices()
    facets = cell._facets_of((1 << len(ints)) - 1)
    assert len(ints) == 19440 and len(facets) == 240
    a, b = cell.halfspaces()
    rows = random.Random(0).sample(range(len(a)), 8)
    brute = _brute_masks(ints, den, [a[i] for i in rows], [b[i] for i in rows])
    assert set(brute) <= set(facets)


# ---------------------------------------------------------------------------
# A polytope is an immutable value, and affine maps act on its rows
# ---------------------------------------------------------------------------

def test_a_polytope_is_a_frozen_value_of_its_halfspaces():
    body = cube(2)
    assert [f.name for f in dataclasses.fields(Polytope)] == \
        ["_a", "_b", "metric"]
    assert isinstance(body._a, tuple) and isinstance(body._b, tuple)
    assert all(isinstance(r, tuple) for r in body._a)
    with pytest.raises(dataclasses.FrozenInstanceError):
        body._b = (1, 1, 1, 1)
    with pytest.raises(TypeError):
        hash(body)
    # the derived data belongs to its value: a new value computes its own
    assert body.volume() == 1
    assert dataclasses.replace(body, _b=(1, 1, 1, 1)).volume() == 4


# the maps as they were computed from the vertices: the images of the
# vertices (negation is scaling by -1), whose hull was the mapped body


def _scaled_points(body, c):
    return [tuple(c * x for x in v) for v in body.vertices()]


def _translated_points(body, t):
    return [tuple(x + dx for x, dx in zip(v, t)) for v in body.vertices()]


SCALES = [2, Fraction(1, 3), -1, Fraction(-5, 2)]


def _check_affine_maps(body, t):
    """The row maps against the hull of the mapped vertices: the same body
    with the same volume and the body's metric object. A flat body, which
    the hull rejects, maps to the flat body on the mapped vertices."""
    flat = la.affine_rank([list(v) for v in body.vertices()]) < body.dim
    pairs = [(body.negated(), _scaled_points(body, -1)),
             (body.translated(t), _translated_points(body, t))]
    pairs += [(body.scaled(c), _scaled_points(body, c)) for c in SCALES]
    for got, points in pairs:
        assert got.metric is body.metric
        assert got.vertices() == sorted(points)
        if flat:
            assert got.volume() == 0
            continue
        want = Polytope._hull(points, body.metric)
        assert got == want
        assert got.volume() == want.volume()
    with pytest.raises(InvalidInputError):
        body.scaled(0)


_SHIFTS = st.lists(st.fractions(-3, 3, max_denominator=4), min_size=5,
                   max_size=5)


@settings(max_examples=60, deadline=None)
@given(_bounded_h_polytope(), _SHIFTS)
# a flat body: the segment x = 0, -1 <= y <= 1 of the plane
@example(([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 0], [-1, 0]],
          [1, 1, 1, 1, 0, 0]), [Fraction(1, 2), -1, 0, 0, 0])
def test_affine_maps_of_h_built_bodies_match_the_hull(hp, t):
    body = Polytope.from_halfspaces(*hp)
    _check_affine_maps(body, t[:body.dim])


@settings(max_examples=60, deadline=None)
@given(_symmetric_h_rows(), _SHIFTS)
def test_affine_maps_of_mirror_pair_bodies_match_the_hull(rows, t):
    body = Polytope.from_halfspaces(*_split(rows))
    _check_affine_maps(body, t[:body.dim])


@settings(max_examples=60, deadline=None)
@given(_point_sets(), _SHIFTS)
def test_affine_maps_of_v_built_bodies_match_the_hull(pts, t):
    body = Polytope.from_vertices(pts)
    _check_affine_maps(body, t[:body.dim])


@pytest.mark.parametrize("name,n", [
    ("D", 4), ("A", 4), ("Z", 5), ("Astar", 4), ("D", 5), ("A", 5),
    ("E", 6)])
def test_affine_maps_of_catalog_cells_match_the_hull(name, n):
    cell = voronoi_cell(catalog(name, n))
    _check_affine_maps(cell, [Fraction(1, 2), -1] + [0] * (n - 2))


# ---------------------------------------------------------------------------
# The double-description step against a reference kernel
# ---------------------------------------------------------------------------

def _reference_adjacent_pairs(masks, tight, pos, negs, live, d):
    """The adjacent pairs (p, n) of live rays in a pointed cone of dimension
    d, p in ``pos`` and n in the bitmask ``negs``, in order of p, then n, by
    the combinatorial test alone, run on every candidate pair."""
    for p in pos:
        mp = masks[p]
        for n in dd._bits(dd._at_least([tight[j] for j in dd._bits(mp)],
                                        d - 2, negs)):
            pair = 1 << p | 1 << n
            common = live
            for j in dd._bits(mp & masks[n]):
                if common == pair:
                    break
                common &= tight[j]
            if common == pair:
                yield p, n


def _reference_crossings(rays, masks, tight, vals, negs, alive, nv):
    """The new rays of a cut by nv . x <= 0 and their masks, a generator
    over ``_reference_adjacent_pairs``: the reference for ``_crossings``."""
    for p, n in _reference_adjacent_pairs(masks, tight, list(vals), negs,
                                          alive, len(nv)):
        if n not in vals:
            vals[n] = sum(map(operator.mul, nv, rays[n]))
        vp, vn = vals[p], vals[n]
        yield (dd._primitive([vp * xn - vn * xp
                              for xp, xn in zip(rays[p], rays[n])]),
               masks[p] & masks[n])


def _check_kernel(driver, *args):
    """``driver(*args)`` returns the same (rays, masks), element by element
    and in the same order, with ``_crossings`` as with the reference."""
    got = driver(*args)
    with mock.patch.object(dd, "_crossings", _reference_crossings):
        assert got == driver(*args)


def _cone(a_rows, b_vals):
    """The normals of the homogenization {(x, t) : a x <= b t, t >= 0}."""
    return [list(a) + [-bv] for a, bv in zip(a_rows, b_vals)] \
        + [[0] * len(a_rows[0]) + [-1]]


@settings(max_examples=100, deadline=None)
@given(_bounded_h_polytope())
def test_step_matches_the_reference_kernel(hp):
    rows, b = hp
    a_rows, b_vals = _split(list(zip(rows, b)))
    _check_kernel(dd.vertex_rays, a_rows, b_vals)
    _check_kernel(dd.cone_rays, _cone(a_rows, b_vals))


@settings(max_examples=80, deadline=None)
@given(_symmetric_h_rows())
def test_paired_step_matches_the_reference_kernel(rows):
    a_rows, b_vals = _split(rows)
    _check_kernel(dd.vertex_rays, a_rows, b_vals)
    _check_kernel(dd.cone_rays, _cone(a_rows, b_vals))


@pytest.mark.parametrize("name,n", [("Z", n) for n in range(1, 9)]
                         + [(k, n) for k in ("A", "Astar") for n in range(1, 6)]
                         + [("D", n) for n in range(3, 9)]
                         + [("E", 6), ("E", 7), ("E", 8)])
def test_catalog_cell_steps_match_the_reference_kernel(name, n):
    a_rows, b_vals = voronoi_cell(catalog(name, n)).halfspaces()
    _check_kernel(dd.vertex_rays, a_rows, b_vals)
    _check_kernel(dd.cone_rays, _cone(a_rows, b_vals))


class _Reads(list):
    """A list that counts the reads of its items."""

    count = 0

    def __getitem__(self, i):
        self.count += 1
        return super().__getitem__(i)


def test_simple_rays_skip_the_adjacency_test():
    """The rays e_i of the cone x >= 0 in R^4 are each tight at exactly
    d - 1 = 3 constraints, so a cut accepts every candidate pair without
    the combinatorial test: ``tight`` is read for p's columns alone."""
    d = 4
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    masks = [(1 << d) - 1 ^ 1 << i for i in range(d)]
    tight = _Reads(masks)
    new = dd._crossings(rays, masks, tight, {0: 1, 1: 1}, 0b1100, 0b1111,
                        [1, 1, -1, -1])
    assert new == [((1, 0, 1, 0), 0b1010), ((1, 0, 0, 1), 0b0110),
                   ((0, 1, 1, 0), 0b1001), ((0, 1, 0, 1), 0b0101)]
    assert tight.count == 2 * (d - 1)
