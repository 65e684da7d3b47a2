import itertools
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import latgeom._linalg as la
from latgeom import enumeration, polytope
from latgeom.cli import run
from latgeom.enumeration import (_enumerate_gram, closest_vector,
                                 closest_vectors, covering_density,
                                 covering_radius, kappa, packing_density,
                                 relevant_vectors, shortest_vectors,
                                 successive_minima, vectors_within,
                                 voronoi_cell)
from latgeom.errors import CapabilityError
from latgeom.lattice import Lattice, catalog


def test_kappa_closed_forms():
    assert kappa(1) == 2
    assert kappa(2) == sp.pi
    assert sp.simplify(kappa(3) - sp.Rational(4, 3) * sp.pi) == 0
    assert sp.simplify(kappa(4) - sp.pi ** 2 / 2) == 0


def test_vectors_within_counts_z2():
    lat = catalog("Z", 2)
    # nonzero integer points with |v|^2 <= 2: 4 axis + 4 diagonal
    vecs = vectors_within(lat, 2)
    assert len(vecs) == 8


@pytest.mark.parametrize("name,n,l1_sq,kissing", [
    ("Z", 4, 1, 8), ("A", 2, 2, 6), ("D", 4, 2, 24),
    ("E", 8, 2, 240), ("Leech", 24, 4, 196560),
])
def test_shortest_vector_kissing_numbers(name, n, l1_sq, kissing):
    lat = catalog(name, n)
    if name == "Leech":
        # enumerating 196560 vectors in rank 24 exceeds the rank cap; the
        # catalog seeds the known minimum in the memo instead
        assert enumeration._lambda1_sq(lat) == l1_sq
        return
    got_sq, vecs = shortest_vectors(lat)
    assert got_sq == l1_sq
    assert 2 * len(vecs) == kissing


def test_successive_minima_skewed_basis():
    lat = Lattice.from_rows([[1, 0], [7, 1]])
    norms, vecs = successive_minima(lat)
    assert norms == [1, 1]
    # the two minima vectors are independent
    a, b = vecs
    assert a[0] * b[1] - a[1] * b[0] != 0


def test_successive_minima_anisotropic():
    lat = Lattice.from_gram([[1, 0], [0, 9]])
    norms, _ = successive_minima(lat)
    assert norms == [1, 9]


def test_closest_vector_babai_counterexample():
    # a basis skewed enough that rounding coordinates fails
    lat = Lattice.from_rows([[1, 0], [99, 2]])
    target = [50, 1]
    dist_sq, coeffs = closest_vector(lat, lat.coords_of(target))
    x = [coeffs[0] + 99 * coeffs[1], 2 * coeffs[1]]
    assert dist_sq == sum((a - b) ** 2 for a, b in zip(x, target))
    brute = min(sum((a - b) ** 2 for a, b in
                    zip([i + 99 * j, 2 * j], target))
                for i in range(-300, 300) for j in (-1, 0, 1, 2))
    assert float(dist_sq) == pytest.approx(float(brute))


def test_closest_vector_deterministic_tie_break():
    lat = catalog("Z", 2)
    _, c1 = closest_vector(lat, [Fraction(1, 2), Fraction(1, 2)])
    _, c2 = closest_vector(lat, [Fraction(1, 2), Fraction(1, 2)])
    assert c1 == c2


def test_relevant_vectors_z3():
    lat = catalog("Z", 3)
    rel = relevant_vectors(lat)
    assert len(rel) == 3  # up to sign: the 6 facet normals of the cube


def test_relevant_vectors_a2():
    rel = relevant_vectors(catalog("A", 2))
    assert len(rel) == 3  # hexagon: 6 facets


def test_voronoi_cell_volume_equals_determinant():
    for name, n in (("Z", 3), ("A", 2), ("D", 3), ("A", 3)):
        lat = catalog(name, n)
        cell = voronoi_cell(lat)
        assert sp.simplify(cell.volume() - lat.determinant()) == 0


def test_voronoi_cell_d4_24cell():
    cell = voronoi_cell(catalog("D", 4))
    assert len(cell.halfspaces()[0]) == 24
    assert len(cell.vertices()) == 24


# 2n facets for Z^n, the roots for A_n, D_n and E_n, and 2(2^n - 1) facets
# for A_n*: one relevant vector per +- pair
@pytest.mark.parametrize("name,n,pairs", [
    ("Z", 6, 6), ("A", 5, 15), ("D", 5, 20), ("Astar", 5, 31), ("D", 6, 30),
    ("E", 6, 36), ("E", 7, 63), ("E", 8, 120)])
def test_relevant_vector_counts(name, n, pairs):
    assert len(relevant_vectors(catalog(name, n))) == pairs


@pytest.mark.parametrize("n", range(1, 9))
def test_covering_radius_cubic(n):
    mu_sq, hole = covering_radius(catalog("Z", n))
    assert mu_sq == Fraction(n, 4)
    assert all(abs(c) == Fraction(1, 2) for c in hole)


def test_covering_radius_hexagonal():
    # deep hole of A2 at a triangle circumcenter: mu^2 = 2/3
    mu_sq, _ = covering_radius(catalog("A", 2))
    assert mu_sq == Fraction(2, 3)


@pytest.mark.parametrize("name,n,value", [
    ("A", 2, sp.pi / sp.sqrt(12)),
    ("D", 3, sp.pi / (3 * sp.sqrt(2))),
    ("D", 4, sp.pi ** 2 / 16),
    ("D", 5, sp.pi ** 2 / (15 * sp.sqrt(2))),
    ("E", 6, sp.pi ** 3 / (48 * sp.sqrt(3))),
    ("E", 7, sp.pi ** 3 / 105),
    ("E", 8, sp.pi ** 4 / 384),
])
def test_packing_densities(name, n, value):
    got = packing_density(catalog(name, n))
    assert sp.simplify(got - value) == 0


@pytest.mark.parametrize("name,n,value", [
    ("Z", 1, 1),
    ("Astar", 2, 2 * sp.pi / sp.sqrt(27)),
    ("Astar", 3, 5 * sp.sqrt(5) * sp.pi / 24),
    ("Astar", 4, 2 * sp.sqrt(5) * sp.pi ** 2 / 25),
    ("Astar", 5, 245 * sp.sqrt(105) * sp.pi ** 2 / 11664),
])
def test_covering_densities(name, n, value):
    got = covering_density(catalog(name, n))
    assert sp.simplify(got - value) == 0


def test_voronoi_rank_cap():
    with pytest.raises(CapabilityError):
        voronoi_cell(catalog("Leech", 24))


# -- the exact integer kernel -------------------------------------------------

_fractions = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))


@st.composite
def _rational_gram_and_center(draw):
    """G = B B^T for a lower-triangular rational B with nonzero diagonal (so
    G is positive definite with mixed denominators), and a rational center."""
    n = draw(st.integers(1, 3))
    b = [[draw(_fractions) if j < i else Fraction(0) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        b[i][i] = draw(st.builds(Fraction, st.sampled_from([-2, -1, 1, 2]),
                                 st.sampled_from([1, 2, 3])))
    g = la.gram_matrix(b)
    center = [draw(st.builds(Fraction, st.integers(-7, 7),
                             st.sampled_from([1, 2, 3, 4, 7])))
              for _ in range(n)]
    return g, center


def _form(g, v):
    return sum(a * gij * b for a, gi in zip(v, g) for gij, b in zip(gi, v))


def _brute_force(g, center, bound):
    """Every (x, q) with q = (x - center)^T G (x - center) <= bound, from a
    box that contains the ellipsoid: |x_i - c_i| <= sqrt(bound (G^-1)_ii)."""
    ginv = la.inverse(g)
    ranges = []
    for i, c in enumerate(center):
        rad = math.sqrt(float(bound * ginv[i][i])) + 1
        ranges.append(range(math.floor(c - rad), math.ceil(c + rad) + 1))
    assume(math.prod(len(r) for r in ranges) <= 3000)
    out = {}
    for x in itertools.product(*ranges):
        q = _form(g, [xi - ci for xi, ci in zip(x, center)])
        if q <= bound:
            out[x] = q
    return out


@settings(max_examples=60, deadline=None)
@given(_rational_gram_and_center(),
       st.builds(Fraction, st.integers(0, 40), st.sampled_from([1, 3, 4, 10])))
def test_enumerate_gram_matches_fraction_evaluation(gc, bound):
    g, center = gc
    found = _enumerate_gram(Lattice.from_gram(g), center, bound)
    assert len(found) == len({x for x, _, _ in found})
    assert len({den for _, _, den in found}) <= 1
    assert all(isinstance(q, int) for _, q, _ in found)
    assert {x: Fraction(q, den) for x, q, den in found} == \
        _brute_force(g, center, bound)


@st.composite
def _skewed_gram_and_center(draw):
    """(G0, T, center) for G = T G0 T^T: G0 and the center as above, T
    lower unitriangular with multipliers up to 10^8. G is unreduced, with
    huge entries and a condition number up to about 10^32, but it has the
    leading minors of G0, so the enumeration tree stays as small as G0's."""
    g0, center = draw(_rational_gram_and_center())
    n = len(g0)
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        j, i = sorted(draw(st.permutations(range(n)))[:2])
        f = draw(st.integers(-10**8, 10**8))
        t[i] = [a + f * b for a, b in zip(t[i], t[j])]
    return g0, t, center


@settings(max_examples=60, deadline=None)
@given(_skewed_gram_and_center(),
       st.builds(Fraction, st.integers(0, 40), st.sampled_from([1, 3, 4, 10])))
# in floats 10^16 + 1 - (10^8)^2 is 0, a zero Cholesky pivot
@example(([[1, 0], [0, 1]], [[1, 0], [10**8, 1]],
          [Fraction(1, 2), Fraction(-1, 3)]), Fraction(3))
def test_enumerate_gram_exact_on_ill_conditioned_grams(inputs, bound):
    g0, t, center = inputs
    g = la.mat_mul(la.mat_mul(t, g0), la.transpose(t))
    found = _enumerate_gram(Lattice.from_gram(g), center, bound)
    # brute force over y = x T, in the box of the well-conditioned G0
    tinv = la.inverse(t)
    want = {}
    for y in _brute_force(g0, la.vec_mat(center, t), bound):
        x = tuple(int(v) for v in la.vec_mat(list(y), tinv))
        want[x] = _form(g, [a - b for a, b in zip(x, center)])
    assert {x: Fraction(q, den) for x, q, den in found} == want
    assert [x for x, _, _ in found] == sorted(want, key=lambda x: x[::-1])


@settings(max_examples=60, deadline=None)
@given(_rational_gram_and_center())
def test_closest_vectors_matches_fraction_evaluation(gc):
    g, target = gc
    # the rounded target bounds the distance of every closest vector
    start = _form(g, [round(t) - t for t in target])
    points = _brute_force(g, target, start)
    best = min(points.values())
    dist, vecs = closest_vectors(Lattice.from_gram(g), target)
    assert dist == best
    assert vecs == sorted(x for x, q in points.items() if q == best)


@st.composite
def _rank4_gram_and_half_target(draw):
    """A rank-4 Gram, from a catalog lattice or an integer basis with
    diagonal 1..2 and off-diagonal entries in {-1, 0, 1}, and a target with
    half-integer coordinates, where closest vectors tie in numbers."""
    g = draw(st.sampled_from([None] + [catalog(name, 4).gram() for name
                                       in ("Z", "A", "D", "Astar")]))
    if g is None:
        rows = [[draw(st.integers(1, 2)) if i == j else
                 draw(st.integers(-1, 1)) for j in range(4)] for i in range(4)]
        assume(la.det(rows) != 0)
        g = la.gram_matrix([[Fraction(x) for x in r] for r in rows])
    target = [Fraction(draw(st.integers(-3, 3)), 2) for _ in range(4)]
    return g, target


@settings(max_examples=25, deadline=None)
@given(_rank4_gram_and_half_target())
def test_shrinking_bound_keeps_every_tie_in_order(gt):
    g, target = gt
    lat = Lattice.from_gram(g)
    best, vecs = closest_vectors(lat, target)
    # a box for best itself: a closer point, or none at best, fails below
    points = _brute_force(g, target, best)
    assert min(points.values()) == best
    assert vecs == sorted(x for x, q in points.items() if q == best)
    # in reduced coordinates, the ties are those of the full listing, in
    # its order
    red, _ = enumeration._reduced(lat)
    t = la.vec_mat(target, enumeration._reduced_inverse(lat))
    ties, q, den = enumeration._nearest(red, t)
    assert Fraction(q, den) == best
    assert ties == [x for x, p, e in _enumerate_gram(red, t, best)
                    if Fraction(p, e) == best]


def test_cached_invariants_are_not_aliased():
    lat = catalog("D", 4)
    g = lat.gram()
    g[0][0] = Fraction(99)
    g.append([])
    assert lat.gram() == Lattice.from_rows(lat.basis).gram()
    rel = relevant_vectors(lat)
    with pytest.raises(TypeError):
        rel[0] = (0, 0, 0, 0)
    assert relevant_vectors(lat) == rel and len(rel) == 12
    mu_sq, hole = covering_radius(lat)
    assert isinstance(hole, tuple) and covering_radius(lat) == (mu_sq, hole)


def test_voronoi_cell_is_built_once(monkeypatch):
    calls = []
    dd = polytope._vertex_rays
    monkeypatch.setattr(polytope, "_vertex_rays",
                        lambda a, b: calls.append(a) or dd(a, b))
    lat = catalog("D", 4)
    verts = voronoi_cell(lat).vertices()
    _, hole = covering_radius(lat)
    assert voronoi_cell(lat) is voronoi_cell(lat)
    assert len(calls) == 1 and hole in verts and len(verts) == 24


def test_cached_cell_lists_are_not_aliased():
    lat = catalog("A", 3)
    cell = voronoi_cell(lat)
    verts, (a, b) = cell.vertices(), cell.halfspaces()
    want = (list(verts), [list(r) for r in a], list(b))
    verts.reverse()
    verts.append((Fraction(9),) * 3)
    a[0][0] = Fraction(99)
    a.pop()
    b[0] = Fraction(-1)
    with pytest.raises(TypeError):
        cell.metric[0][0] = Fraction(99)
    cell = voronoi_cell(lat)
    assert (cell.vertices(), *cell.halfspaces()) == want
    assert cell.volume() == 2  # det(A3) = 2
    assert want[0] == sorted(want[0]) and len(want[0]) == 14


@pytest.mark.parametrize("verb", ["cover", "voronoi"])
def test_cli_scans_cosets_once(verb, monkeypatch, capsys):
    calls = []
    scan = enumeration._coset_scan
    monkeypatch.setattr(enumeration, "_coset_scan",
                        lambda lat: calls.append(lat) or scan(lat))
    assert run([verb, "--catalog", "D4"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@st.composite
def _integer_lattice(draw):
    """A lattice of rank 2 to 5 from an integer basis with diagonal 2..4 and
    off-diagonal entries in {-1, 0, 1}, scaled by a rational square."""
    n = draw(st.integers(2, 5))
    rows = [[draw(st.integers(2, 4)) if i == j else draw(st.integers(-1, 1))
             for j in range(n)] for i in range(n)]
    assume(la.det(rows) != 0)
    scale_sq = draw(st.sampled_from([Fraction(1), Fraction(1, 2),
                                     Fraction(2, 3)]))
    return Lattice.from_rows(rows).scaled(scale_sq)


def _check_integer_vertices(lat):
    """The cell's integer form is la.integer_form of its vertices; the
    covering radius is a Fraction reference over those vertices, the largest
    norm with ties (the cell is symmetric about 0, so the farthest vertices
    tie in pairs) going to the lexicographically greatest vertex; and the
    cell, a fundamental domain of Z^n in coefficient coordinates, has
    volume 1."""
    cell = voronoi_cell(lat)
    verts = cell.vertices()
    assert cell.integer_vertices() == la.integer_form(verts)
    g = lat.gram()
    assert covering_radius(lat) == max((_form(g, v), v) for v in verts)
    assert cell.coordinate_volume() == 1


@settings(max_examples=40, deadline=None)
@given(_integer_lattice())
def test_covering_radius_is_the_farthest_cell_vertex(lat):
    _check_integer_vertices(lat)


@pytest.mark.parametrize("name,n", [("Z", n) for n in range(1, 8)]
                         + [(k, n) for k in ("A", "Astar") for n in range(1, 6)]
                         + [("D", n) for n in range(3, 8)]
                         + [("E", 6), ("E", 7)])
def test_catalog_cells_carry_integer_vertices(name, n):
    _check_integer_vertices(catalog(name, n))


def test_covering_radius_builds_no_fraction_vertices(monkeypatch):
    calls = []
    verts = polytope.Polytope.vertices
    monkeypatch.setattr(polytope.Polytope, "vertices",
                        lambda self: calls.append(self) or verts(self))
    lat = Lattice.from_rows([[2, 1, 0, 0], [1, 3, 1, 0], [0, 0, 2, -1],
                             [1, 0, 0, 3]])
    mu_sq, hole = covering_radius(lat)
    assert calls == []
    assert (mu_sq, hole) == max((_form(lat.gram(), v), v)
                                for v in voronoi_cell(lat).vertices())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n,
    max_size=n)),
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)))
def test_densities_leave_in_canonical_form(rows, scale_sq):
    # kappa_n times a rational power over sqrt(det^2): sympy's automatic
    # evaluation writes it as sp.simplify would, so no simplifier is needed
    assume(la.det(rows) != 0)
    lat = Lattice.from_rows(rows, scale_sq=scale_sq)
    for v in (packing_density(lat), covering_density(lat)):
        assert str(v) == str(sp.simplify(v))
