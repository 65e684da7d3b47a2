import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import latgeom._double_description as dd
import latgeom._linalg as la
from latgeom import enumeration, polytope, symmetry
from latgeom.cli import run
from latgeom.enumeration import (_enumerate_gram, closest_vector,
                                 closest_vectors, covering_density,
                                 covering_radius, kappa, packing_density,
                                 relevant_vectors, shortest_vectors,
                                 successive_minima, vector_pairs_within,
                                 vectors_within, voronoi_cell)
from latgeom.errors import CapabilityError, DimensionMismatchError
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
        # listing the 196560 minimal vectors takes seconds, so this reads
        # the minimum the catalog seeds in the memo; the enumeration of a
        # rank-24 lattice is checked on Leech's dual in test_impassability
        assert enumeration._lambda1_sq(lat) == l1_sq
        return
    got_sq, vecs = shortest_vectors(lat)
    assert got_sq == l1_sq
    assert 2 * len(vecs) == kissing


def test_e8_plus_e8_is_enumerated_above_rank_12():
    b = [list(row) for row in catalog("E", 8).basis]
    lat = Lattice.from_rows([row + [0] * 8 for row in b]
                            + [[0] * 8 + row for row in b])
    got_sq, vecs = shortest_vectors(lat)
    assert got_sq == 2
    assert 2 * len(vecs) == 480
    norms, _ = successive_minima(lat)
    assert norms == [2] * 16


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


def test_a_target_of_the_wrong_length_is_rejected():
    # zip would read [1/2] as (1/2, 0, 0, 0) on D4
    lat = catalog("D", 4)
    for target in ([Fraction(1, 2)], [0] * 5):
        with pytest.raises(DimensionMismatchError):
            closest_vectors(lat, target)
        with pytest.raises(DimensionMismatchError):
            closest_vector(lat, target)


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


@st.composite
def _skewed_lattice(draw):
    """A lattice of rank 1 to 6 with the Gram T B B^T T^T: B lower
    triangular and rational, as in ``_rational_gram_and_center``, so the
    Gram's denominator is often above 1, and T lower unitriangular with up
    to three multipliers up to 10^8, as in ``_skewed_gram_and_center``."""
    n = draw(st.integers(1, 6))
    b = [[draw(_fractions) if j < i else Fraction(0) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        b[i][i] = draw(st.builds(Fraction, st.sampled_from([-2, -1, 1, 2]),
                                 st.sampled_from([1, 2, 3])))
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        j, i = sorted(draw(st.permutations(range(n)))[:2])
        f = draw(st.integers(-10**8, 10**8))
        t[i] = [a + f * c for a, c in zip(t[i], t[j])]
    return Lattice.from_rows(la.mat_mul(t, b))


@settings(max_examples=60, deadline=None)
@given(_skewed_lattice(),
       st.sampled_from([Fraction(1, 2), Fraction(99, 100), 1, 2, 3]))
def test_vector_pairs_are_the_canonical_half_of_the_listing(lat, ratio):
    l1_sq = shortest_vectors(lat)[0]
    bound = ratio * l1_sq
    pairs = vector_pairs_within(lat, bound)
    d = lat.int_gram[1]
    assert all(isinstance(n, int) for n, _ in pairs)
    assert [(v, Fraction(n, d)) for n, v in pairs] == \
        [(v, q) for v, q in vectors_within(lat, bound)
         if v == la._canonical_sign(v)]
    # the listing of lat's own, unreduced, Gram, with no change of basis
    zero = (0,) * lat.rank
    assert pairs == sorted((q * d // den, x) for x, q, den
                           in _enumerate_gram(lat, zero, bound) if x > zero)
    assert (pairs == []) == (ratio < 1)


_bounds = st.builds(Fraction, st.integers(0, 40), st.sampled_from([1, 3, 4, 10]))


def _skewed(inputs):
    """The lattice of the Gram T G0 T^T of ``_skewed_gram_and_center``."""
    g0, t, _ = inputs
    return la.mat_mul(la.mat_mul(t, g0), la.transpose(t))


def _folded_walk(lat, bound):
    """The full walk of ``_enumerate_gram`` around 0 up to bound with 0
    removed and the signs folded: {{x, -x}: x G_int x^T}."""
    d = lat.int_gram[1]
    return {frozenset((x, tuple(-v for v in x))): q * d // den
            for x, q, den in _enumerate_gram(lat, [0] * lat.rank, bound)
            if any(x)}


@settings(max_examples=60, deadline=None)
@given(_skewed_gram_and_center(), _bounds)
@example(([[1, 0], [0, 1]], [[1, 0], [10**8, 1]], [0, 0]), Fraction(3))
def test_the_listing_is_the_full_walk_with_its_signs_folded(inputs, bound):
    lat = Lattice.from_gram(_skewed(inputs))
    got = enumeration._listing(lat, bound)
    want = _folded_walk(lat, bound)
    assert list(got) == sorted(got)
    assert all(isinstance(n, int) for n, _ in got)
    # one point per pair, the one whose last nonzero coordinate is positive
    assert all(next(v for v in reversed(x) if v) > 0 for _, x in got)
    assert len(got) == len(want)
    assert {frozenset((x, tuple(-v for v in x))): n for n, x in got} == want


@settings(max_examples=40, deadline=None)
@given(_skewed_gram_and_center(), st.lists(_bounds, min_size=2, max_size=4))
@example(([[2, 1], [1, 3]], [[1, 0], [7, 1]], [0, 0]),
         [Fraction(40), Fraction(3), Fraction(0), Fraction(10)])
@example(([[2, 1], [1, 3]], [[1, 0], [7, 1]], [0, 0]),
         [Fraction(0), Fraction(3), Fraction(10), Fraction(40)])
def test_a_prefix_of_the_listing_is_a_fresh_listing(inputs, bounds):
    g = _skewed(inputs)
    kept = Lattice.from_gram(g)
    for b in bounds:
        assert enumeration._listing(kept, b) == \
            enumeration._listing(Lattice.from_gram(g), b)
    # the memo holds the listing at the largest bound asked
    assert kept._memo["listing"][0] == max(bounds)


def _minima_of_the_full_walk(lat):
    """Successive minima by the rule of the full walk: both signs of every
    nonzero point up to the greatest reduced basis norm, in the order of
    (norm, reduced coordinates); a vector independent of those chosen
    before it is chosen, mapped to lat's basis with its canonical sign."""
    red, u = enumeration._reduced(lat)
    top = max(red.gram()[i][i] for i in range(lat.rank))
    xs, norms, chosen = [], [], []
    for q, x, den in sorted((q, x, den) for x, q, den in _enumerate_gram(
            red, [0] * lat.rank, top) if any(x)):
        if la.rank(xs + [list(x)]) > len(xs):
            xs.append(list(x))
            norms.append(Fraction(q, den))
            chosen.append(la._canonical_sign(la.vec_mat(x, u)))
    return norms, chosen


@pytest.mark.parametrize("name,n", [("Z", n) for n in range(1, 9)]
                         + [("D", n) for n in range(3, 9)]
                         + [("A", n) for n in range(1, 6)]
                         + [("E", 6), ("E", 7), ("E", 8)])
def test_successive_minima_keep_the_full_walks_ties(name, n):
    lat = catalog(name, n)
    assert successive_minima(lat) == _minima_of_the_full_walk(lat)


@settings(max_examples=60, deadline=None)
@given(_skewed_lattice())
def test_successive_minima_keep_the_full_walks_order(lat):
    assert successive_minima(lat) == _minima_of_the_full_walk(lat)


def test_the_listing_walks_half_the_tree_once(monkeypatch):
    walked, count = [], enumeration._count
    monkeypatch.setattr(enumeration, "_count", lambda nodes, i, n: (
        walked.append(n), count(nodes, i, n)))
    for name, n, nodes in (("E", 8, 368), ("D", 6, 84)):
        # a fresh value, with no listing in its memo
        lat = Lattice.from_rows(catalog(name, n).basis)
        walked.clear()
        assert len(shortest_vectors(lat)[1]) == {8: 120, 6: 30}[n]
        assert sum(walked) == nodes
        # a smaller bound, and the same one, read the kept listing
        walked.clear()
        assert vector_pairs_within(lat, 1) == []
        assert len(shortest_vectors(lat)[1]) == {8: 120, 6: 30}[n]
        assert sum(walked) == 0


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
    (tt,), c = la.integer_form([t])
    ties, q, den = enumeration._nearest(red, tt, c)
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
    real = dd.vertex_rays
    monkeypatch.setattr(dd, "vertex_rays",
                        lambda a, b: calls.append(a) or real(a, b))
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


def _check_half_scoring(lat):
    """The sorted integer vertices pair up as ints[N-1-i] = -ints[i], the
    upper half is the vertices whose first nonzero entry is positive, and
    (mu^2, hole) is a Fraction reference over every vertex."""
    ints, den = voronoi_cell(lat).integer_vertices()
    n = len(ints)
    assert n % 2 == 0
    assert all(ints[n - 1 - i] == tuple(-x for x in w)
               for i, w in enumerate(ints))
    assert all(next(x for x in w if x) > 0 for w in ints[n // 2:])
    g = lat.gram()
    assert covering_radius(lat) == max(
        (_form(g, v), v) for v in (tuple(Fraction(x, den) for x in w)
                                   for w in ints))


@pytest.mark.parametrize("name,n", [("Z", n) for n in range(1, 8)]
                         + [(k, n) for k in ("A", "Astar") for n in range(1, 6)]
                         + [("D", n) for n in range(3, 8)]
                         + [("E", 6), ("E", 7)])
def test_deep_hole_scores_half_of_a_catalog_cell(name, n):
    _check_half_scoring(catalog(name, n))


@settings(max_examples=40, deadline=None)
@given(_integer_lattice())
def test_deep_hole_scores_half_of_a_random_cell(lat):
    _check_half_scoring(lat)


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


# Closest points to the target (1/2, ..., 1/2), pinned from the Fraction
# rounding that Babai's first bound used before it ran in ints: the
# closest_vectors answer, and the ties of _nearest on the reduced basis in
# enumeration order, with their distance q / den.
_HALF_TARGET_GOLDENS = {
    ("Z", 3): ((Fraction(3, 4), [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                                 (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]),
               ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1),
                 (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3, 4)),
    ("A", 3): ((Fraction(1, 2), [(0, 0, 0), (1, 1, 1)]),
               ([(0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1),
                 (1, 1, 1)], 48, 48)),
    ("D", 4): ((Fraction(1, 2), [(0, 1, 1, 1), (1, 0, 0, 0)]),
               ([(1, 1, 0, 0), (0, 0, 1, 1)], 96, 192)),
    ("E", 6): ((Fraction(1, 2), [(0, 0, 0, 0, 0, 1), (1, 1, 1, 1, 1, 0)]),
               ([(0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (-1, 0, 0, 1, 0, 0),
                 (0, 0, 1, 1, 0, 0), (1, 1, 0, 0, 1, 0), (0, 0, 1, 1, 0, 1),
                 (1, 1, 0, 0, 1, 1), (2, 1, 1, 0, 1, 1), (1, 0, 1, 1, 1, 1),
                 (1, 1, 1, 1, 1, 1)], 192, 192)),
    ("Astar", 4): ((Fraction(3, 10), [(0, 1, 0, 1), (1, 0, 1, 0)]),
                   ([(1, 1, 1, 0), (0, 0, 0, 1)], 150000, 750000)),
}


@pytest.mark.parametrize("name,n", sorted(_HALF_TARGET_GOLDENS))
def test_half_integer_targets_keep_their_closest_points(name, n):
    lat = catalog(name, n)
    closest, nearest = _HALF_TARGET_GOLDENS[name, n]
    assert closest_vectors(lat, [Fraction(1, 2)] * n) == closest
    red, _ = enumeration._reduced(lat)
    assert enumeration._nearest(red, [1] * n, 2) == nearest


def test_e8_cell_has_the_deep_and_shallow_holes():
    """The largest cell latgeom knows, E8's (Conway & Sloane, SPLAG
    ch. 21): 19,440 vertices, the 2,160 deep holes at norm 1 and the
    17,280 shallow holes at norm 8/9, so mu^2 = 1."""
    lat = catalog("E", 8)
    ints, den = voronoi_cell(lat).integer_vertices()
    g, d = lat.int_gram
    norms = {}
    for w in ints:
        q = Fraction(la.dot(w, la.vec_mat(w, g)), d * den * den)
        norms[q] = norms.get(q, 0) + 1
    assert len(ints) == 19440
    assert norms == {Fraction(1): 2160, Fraction(8, 9): 17280}
    assert covering_radius(lat)[0] == 1


def _coeffs_order_cell(lat, rel):
    """The reference builder for ``enumeration._cell``: the same
    halfspaces, in ascending norm of v with ties in the order of the
    coeffs."""
    g, _ = lat.int_gram
    rows, b = [], []
    products = [(la.dot(v, gv), gv) for v in rel for gv in [la.vec_mat(v, g)]]
    for q, gv in sorted(products, key=lambda p: p[0]):
        rows += [tuple([2 * x for x in gv]), tuple([-2 * x for x in gv])]
        b += [q, q]
    return polytope.Polytope(_a=tuple(rows), _b=tuple(b), metric=lat._gram)


def _cell_invariants(lat, volume=True):
    cell = voronoi_cell(lat)
    return (cell.integer_vertices(), cell._incidence(), covering_radius(lat),
            symmetry.cell_volume(lat) if volume else None)


def _check_order_independence(lat, monkeypatch, volume=True):
    """The shell order of ``_cell`` and the coeffs order give one cell: the
    same vertices, vertex-facet incidence, covering radius and volume. The
    reference runs on a fresh value of lat, whose memo is empty."""
    got = _cell_invariants(lat, volume)
    monkeypatch.setattr(enumeration, "_cell", _coeffs_order_cell)
    assert _cell_invariants(dataclasses.replace(lat), volume) == got


@settings(max_examples=30, deadline=None)
@given(_integer_lattice())
def test_cell_does_not_depend_on_the_row_order(lat):
    with pytest.MonkeyPatch.context() as mp:
        _check_order_independence(lat, mp)


@pytest.mark.parametrize("name,n", [("Z", n) for n in range(1, 9)]
                         + [(k, n) for k in ("A", "Astar") for n in range(1, 6)]
                         + [("D", n) for n in range(3, 9)]
                         + [("E", n) for n in range(6, 9)])
def test_catalog_cells_do_not_depend_on_the_row_order(name, n, monkeypatch):
    # E8's volume cones one facet of 67,608 simplices, about 12 s a side;
    # the vertices and incidence it is read from are compared
    _check_order_independence(catalog(name, n), monkeypatch,
                              volume=(name, n) != ("E", 8))


# New ray pairs (``_double_description._crossings``) of each catalog cell
# under the shell order of ``_cell``; the coeffs order made A5 64, D5 65,
# D6 167, D7 414, D8 998, E6 184, E7 683 and E8 10,845. Z_n's cells are
# their start parallelotopes.
_RAY_PAIRS = {("A", 2): 2, ("A", 3): 6, ("A", 4): 22, ("A", 5): 34,
              ("Astar", 2): 2, ("Astar", 3): 12, ("Astar", 4): 90,
              ("Astar", 5): 646, ("D", 3): 6, ("D", 4): 12, ("D", 5): 27,
              ("D", 6): 50, ("D", 7): 263, ("D", 8): 488, ("E", 6): 146,
              ("E", 7): 430, ("E", 8): 10870}


def _shell_order(lat):
    """The relevant vectors of lat in the order of their rows in
    ``_cell``: ascending norm, and within a shell the greedy rule, next
    the v with the least sum of |v G_int u^T| over the u of its shell
    placed before it, ties to the lesser coeffs."""
    g, _ = lat.int_gram
    shells = {}
    for v in relevant_vectors(lat):
        shells.setdefault(la.dot(v, la.vec_mat(v, g)), []).append(v)
    out = []
    for q in sorted(shells):
        placed, rest = [], shells[q]
        while rest:
            v = min(rest, key=lambda v: (sum(abs(la.dot(la.vec_mat(v, g), u))
                                             for u in placed), v))
            rest.remove(v)
            placed.append(v)
        out += placed
    return out


@pytest.mark.parametrize("name,n", [("Z", n) for n in range(1, 9)]
                         + [(k, n) for k in ("A", "Astar") for n in range(1, 6)]
                         + [("D", n) for n in range(3, 9)]
                         + [("E", n) for n in range(6, 9)])
def test_catalog_cells_keep_their_ray_pairs(name, n, monkeypatch):
    lat = catalog(name, n)
    g, _ = lat.int_gram
    counts, crossings = [], dd._crossings

    def spy(*args):
        out = crossings(*args)
        counts.append(len(out))
        return out

    monkeypatch.setattr(dd, "_crossings", spy)
    cell = enumeration._cell(lat, relevant_vectors(lat))
    cell.integer_vertices()
    assert sum(counts) <= _RAY_PAIRS.get((name, n), 0)
    a, _ = cell.halfspaces()
    assert a[::2] == [[2 * x for x in la.vec_mat(v, g)]
                      for v in _shell_order(lat)]
    assert a[1::2] == [[-x for x in r] for r in a[::2]]


@st.composite
def _reduced_lattice_and_target(draw):
    """An LLL-reduced lattice of rank 2 to 6, from an integer basis with
    diagonal 1..3 and off-diagonal entries in {-1, 0, 1}, and a target
    tt / c in its coordinates over c = 1..4; c = 2 gives the half-integer
    targets of the coset scan, where the nearest points tie."""
    n = draw(st.integers(2, 6))
    rows = [[draw(st.integers(1, 3)) if i == j else draw(st.integers(-1, 1))
             for j in range(n)] for i in range(n)]
    assume(la.det(rows) != 0)
    red, _ = enumeration._reduced(Lattice.from_rows(rows))
    c = draw(st.integers(1, 4))
    tt = [draw(st.integers(-3 * c, 3 * c)) for _ in range(n)]
    return red, tt, c


@settings(max_examples=80, deadline=None)
@given(_reduced_lattice_and_target())
@example((enumeration._reduced(catalog("D", 5))[0], [1, 1, 1, 1, 1], 2))
@example((enumeration._reduced(catalog("Z", 6))[0], [1, -1, 1, 3, 1, 1], 2))
def test_nearest_is_the_least_of_the_full_listing_in_its_order(inputs):
    red, tt, c = inputs
    t = [Fraction(x, c) for x in tt]
    # Babai's rounding of the target is a lattice point, so the nearest
    # points all lie within its distance
    babai = red.norm_sq([round(x) - x for x in t])
    full = [(x, Fraction(q, den))
            for x, q, den in _enumerate_gram(red, t, babai)]
    best = min(q for _, q in full)
    ties, q, den = enumeration._nearest(red, tt, c)
    assert Fraction(q, den) == best
    assert ties == [x for x, p in full if p == best]


def test_nearest_keeps_the_point_budget(monkeypatch):
    # the 2^6 corners of the unit cube tie for the center of Z^6
    red, _ = enumeration._reduced(catalog("Z", 6))
    assert len(enumeration._nearest(red, [1] * 6, 2)[0]) == 64
    monkeypatch.setattr(enumeration, "POINT_BUDGET", 40)
    with pytest.raises(CapabilityError, match="point budget 40"):
        enumeration._nearest(red, [1] * 6, 2)


def test_every_level_keeps_the_point_budget(monkeypatch):
    # x_0 has weight 100 and center 1/2, so only the 2 * 57 points with
    # x_0 in {0, 1} and x_1^2 + x_2^2 + x_3^2 <= 5 are kept, while level 1
    # walks all 739 points of Z^3 up to norm 30
    lat = Lattice.from_gram([[100, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                             [0, 0, 0, 1]])
    center = [Fraction(1, 2), 0, 0, 0]
    assert len(_enumerate_gram(lat, center, 30)) == 114
    monkeypatch.setattr(enumeration, "POINT_BUDGET", 200)
    with pytest.raises(CapabilityError,
                       match="point budget 200 at level 1 "):
        _enumerate_gram(lat, center, 30)


def test_the_list_keeps_the_point_budget_at_level_0(monkeypatch):
    # the 7 points of Z^3 up to norm 1 come in level-0 ranges of 1, 1, 3, 1
    # and 1 nodes, each a point of the list; the last range takes a budget
    # of 6 past it
    lat = catalog("Z", 3)
    monkeypatch.setattr(enumeration, "POINT_BUDGET", 7)
    assert len(_enumerate_gram(lat, [0] * 3, 1)) == 7
    monkeypatch.setattr(enumeration, "POINT_BUDGET", 6)
    with pytest.raises(CapabilityError,
                       match=r"point budget 6 at level 0 \(7 nodes\)"):
        _enumerate_gram(lat, [0] * 3, 1)


def test_the_coset_scan_builds_its_search_constants_once(monkeypatch):
    built, once = [], enumeration._once
    monkeypatch.setattr(enumeration, "_once", lambda lat, key, compute: once(
        lat, key, lambda: built.append(key) or compute()))
    # the 2^5 - 1 coset bounds and the one search on D5's reduced basis
    assert len(relevant_vectors(catalog("D", 5))) == 20
    assert built.count("search_constants") == 1


def test_a_cell_takes_its_lattice_metric_unchecked(monkeypatch):
    # the lattice's elimination proved its Gram positive definite, and a
    # body made from a checked body keeps its metric: no Sylvester test
    lat = catalog("D", 4)
    relevant_vectors(lat)
    calls = []
    monkeypatch.setattr(la, "_sylvester", lambda g: calls.append(g))
    cell = voronoi_cell(lat)
    assert len(cell.integer_vertices()[0]) == 24
    assert cell.metric == tuple(map(tuple, lat.gram()))
    for body in (cell.polar(), cell.scaled(2), cell.translated([1, 0, 0, 0]),
                 cell.negated(), cell.minkowski_sum(cell)):
        assert body.metric is cell.metric
    assert cell.minkowski_sum(cell) == cell.scaled(2)
    assert calls == []


@st.composite
def _coset_lattice(draw):
    """A lattice of rank 1 to 6 from an integer basis with diagonal 1..3 and
    off-diagonal entries in {-1, 0, 1}: as it is, with each diagonal entry
    skewed by a factor 1 or 10, or over a denominator 1..3 and scaled by a
    rational square."""
    n = draw(st.integers(1, 6))
    rows = [[draw(st.integers(1, 3)) if i == j else draw(st.integers(-1, 1))
             for j in range(n)] for i in range(n)]
    kind = draw(st.sampled_from(["integer", "skewed", "scaled"]))
    if kind == "skewed":
        for i, row in enumerate(rows):
            row[i] *= draw(st.sampled_from([1, 10]))
    assume(la.det(rows) != 0)
    if kind != "scaled":
        return Lattice.from_rows(rows)
    k = draw(st.integers(1, 3))
    return Lattice.from_rows([[Fraction(x, k) for x in row] for row in rows],
                             draw(st.sampled_from([Fraction(1, 2),
                                                   Fraction(2, 3),
                                                   Fraction(5, 7)])))


def _box_coset_minima(lat, b, bound):
    """(least d ||v||^2, sorted minima v) over the vectors of the coset
    b + 2Z^n of lat's coordinates up to the norm bound, from a box search
    on lat's own Gram: |v_i| <= sqrt(bound (G^-1)_ii); None when the box
    holds more than 20,000 points, as for the coset (0, 0, 1) of the basis
    diag(1, 1, 1000), whose box spans |v_0|, |v_1| <= 1000."""
    g, d = la.integer_form(lat.gram())
    ginv = la.inverse(lat.gram())
    ranges = []
    for i, bi in enumerate(b):
        r = math.isqrt(math.floor(bound * ginv[i][i]))
        ranges.append(range(-r + (r + bi) % 2, r + 1, 2))
    if math.prod(map(len, ranges)) > 20000:
        return None
    norms = [(la.dot(v, la.vec_mat(v, g)), v)
             for v in itertools.product(*ranges)]
    least = min(norms)[0]
    assert Fraction(least, d) <= bound
    return least, sorted(v for p, v in norms if p == least)


def _check_coset_search(lat):
    """One ``_minima`` search over the classes x mod 2 on the reduced basis
    finds, for each nonzero coset b + 2L, the minima that ``_nearest``
    finds at -b/2, and of their ties the half whose last nonzero coordinate
    is positive; ``relevant_vectors`` is the coset minima that come as one
    +- pair, so as one point of the half, element by element. On rank <= 4
    the minima, both signs of each tie, are also a box search's, in lat's
    own coordinates, where its box is small enough."""
    red, u = enumeration._reduced(lat)
    m = lat.rank
    cosets = [[k >> i & 1 for i in range(m)] for k in range(2 ** m)]
    found = enumeration._minima(
        red, [0] * m, 1, 2,
        [-1] + enumeration._int_norms(red, cosets[1:]))
    assert found[0] == (-1, [])
    den = red.int_gram[1] * enumeration._search_constants(red)[1]
    want = []
    for b, (q, ties) in zip(cosets[1:], found[1:]):
        ys, p, pden = enumeration._nearest(red, [-x for x in b], 2)
        assert Fraction(q, den) == 4 * Fraction(p, pden)
        vs = [tuple(x + 2 * y for x, y in zip(b, yy)) for yy in ys]
        assert ties == [v for v in vs if [x for x in v if x][-1] > 0]
        if len(vs) == 2:
            want.append(la._canonical_sign(la.vec_mat(vs[0], u)))
    assert relevant_vectors(lat) == tuple(sorted(want))
    if m > 4:
        return
    # the box holds every point of the coset up to the least norm found,
    # so a smaller norm or a missed tie shows
    d = lat.int_gram[1]
    for q, ties in found[1:]:
        lifted = sorted(tuple(la.vec_mat(v, u)) for t in ties
                        for v in (t, [-x for x in t]))
        box = _box_coset_minima(lat, [x % 2 for x in lifted[0]],
                                Fraction(q, den))
        if box is not None:
            assert Fraction(q, den) == Fraction(box[0], d)
            assert lifted == box[1]


@settings(max_examples=60, deadline=None)
@given(_coset_lattice())
@example(Lattice.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1000]]))
@example(Lattice.from_rows([[3, 1, -1, 0], [0, 100, 1, 1], [1, 0, 2, -1],
                            [0, 1, 0, 100]]))
def test_one_coset_search_matches_a_search_per_coset(lat):
    _check_coset_search(lat)


@pytest.mark.parametrize("name,n", [("Z", n) for n in range(1, 9)]
                         + [(k, n) for k in ("A", "Astar") for n in range(1, 6)]
                         + [("D", n) for n in range(3, 9)]
                         + [("E", n) for n in range(6, 9)])
def test_one_coset_search_matches_on_the_catalog(name, n):
    _check_coset_search(catalog(name, n))


def test_the_coset_search_keeps_the_point_budget(monkeypatch):
    # each class of Z^4 starts at its least norm, so no cap falls, and the
    # half tree starts each x_i at 0 while the later coordinates are 0: it
    # walks 3 + 5 + 14 nodes above level 0, and at level 0 one range of 2
    # nodes under the 0 of the level-1 range on the top path and 3 under
    # each of the 13 other level-1 nodes
    lat = catalog("Z", 4)
    monkeypatch.setattr(enumeration, "POINT_BUDGET", 41)
    assert len(enumeration._coset_scan(lat)) == 4
    monkeypatch.setattr(enumeration, "POINT_BUDGET", 40)
    with pytest.raises(CapabilityError,
                       match=r"point budget 40 at level 0 \(41 nodes\)"):
        enumeration._coset_scan(lat)


# Nodes the coset tree of ``_coset_scan`` enters (``_count``) on each catalog
# lattice, on the half tree; the full tree entered Z8 10,502, D8 8,302,
# E7 2,488 and E8 6,506.
_COSET_NODES = {("Z", 1): 2, ("Z", 2): 7, ("Z", 3): 21, ("Z", 4): 63,
                ("Z", 5): 189, ("Z", 6): 571, ("Z", 7): 1731, ("Z", 8): 5255,
                ("A", 1): 2, ("A", 2): 6, ("A", 3): 21, ("A", 4): 66,
                ("A", 5): 195, ("Astar", 1): 2, ("Astar", 2): 9,
                ("Astar", 3): 20, ("Astar", 4): 47, ("Astar", 5): 101,
                ("D", 3): 31, ("D", 4): 88, ("D", 5): 242, ("D", 6): 657,
                ("D", 7): 1788, ("D", 8): 4902, ("E", 6): 438, ("E", 7): 1448,
                ("E", 8): 3712}


@pytest.mark.parametrize("name,n", sorted(_COSET_NODES))
def test_catalog_coset_scans_keep_their_nodes(name, n, monkeypatch):
    entered, count = [], enumeration._count
    monkeypatch.setattr(enumeration, "_count", lambda nodes, i, k:
                        entered.append(k) or count(nodes, i, k))
    enumeration._coset_scan(catalog(name, n))
    assert sum(entered) <= _COSET_NODES[name, n]
