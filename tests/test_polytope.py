import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import latgeom._linalg as la

from latgeom.enumeration import kappa, voronoi_cell
from latgeom.errors import (CapabilityError, InvalidInputError,
                            PolarUndefinedError, UnboundedBodyError)
from latgeom.lattice import catalog
from latgeom.polytope import (Polytope, _at_least, _cone_extreme_rays,
                              _float_inverse, _vertex_rays,
                              cross_polytope, cube,
                              equilateral_triangle, hanner, is_zonotope, mvee,
                              mvee_ratio, simplex, simplex_dv_cell,
                              volume_product)


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


def test_empty_rejected():
    with pytest.raises(InvalidInputError):
        Polytope.from_halfspaces([[1, 0], [-1, 0], [0, 1], [0, -1]],
                                 [-1, -1, 1, 1]).vertices()


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
    rays = _vertex_rays([[Fraction(x) for x in r] for r in rows],
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
    rays = _cone_extreme_rays(normals)
    d = len(normals[0])
    assert len(rays) == len(set(rays))
    for r in rays:
        vals = [sum(a * x for a, x in zip(nv, r)) for nv in normals]
        assert max(vals) <= 0 and any(r)
        # an extreme ray of a pointed d-cone is tight on rank d - 1 normals
        assert la.rank([nv for nv, v in zip(normals, vals) if v == 0]) \
            == d - 1


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2 ** 12 - 1), max_size=9), st.integers(0, 10),
       st.integers(0, 2 ** 12 - 1))
def test_at_least_counts_columns(cols, t, universe):
    want = sum(1 << i for i in range(12) if universe >> i & 1
               and sum(c >> i & 1 for c in cols) >= t)
    assert _at_least(cols, t, universe) == want


def test_ray_budget_reports_progress(monkeypatch):
    monkeypatch.setattr("latgeom.polytope.RAY_BUDGET", 10)
    with pytest.raises(CapabilityError) as err:
        voronoi_cell(catalog("D", 4)).vertices()
    # the D4 cell has 24 facets, so its cone has 25 constraints
    step, total, rays = map(int, re.fullmatch(
        r"double description exceeded the ray budget 10 at constraint "
        r"(\d+) of (\d+): (\d+) rays", str(err.value)).groups())
    assert step <= total == 25 and rays > 10
