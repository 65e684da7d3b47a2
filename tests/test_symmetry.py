import itertools
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import latgeom._linalg as la
from latgeom.enumeration import _reduced, _reduced_inverse, closest_vectors
from latgeom.enumeration import _covering_radius_bound, covering_radius
from latgeom.enumeration import successive_minima
from latgeom.enumeration import relevant_vectors, vector_pairs_within
from latgeom.enumeration import voronoi_cell
from latgeom.errors import CapabilityError
from latgeom.impassability import _certificate, max_clearance
from latgeom.lattice import Lattice, catalog
from latgeom.sublattice import (_candidate_representatives, _least_in_orbits,
                                enumerate_sublattices, orbit_witnesses,
                                project_along)
from latgeom.symmetry import automorphisms, cell_volume, orbit_representatives

def _minima_bound(lat, k):
    """3 lambda_1 ... lambda_k, exact: the default determinant bound of
    ``max_clearance`` below k = n - 1, here passed at every k."""
    return la._sqrt_rational(9 * math.prod(successive_minima(lat)[0][:k]))


# every catalog lattice of rank <= 8: Z_n and D_n (n != 4) have the
# 2^n n! signed permutations, A_n and A_n* (n >= 2) the 2 (n + 1)! signed
# permutations of n + 1 coordinates
ORDERS = [("Z", n, 2 ** n * math.factorial(n)) for n in range(1, 9)] + [
    ("D", n, 2 ** n * math.factorial(n)) for n in (3, 5, 6, 7, 8)] + [
    (name, n, 2 * math.factorial(n + 1) if n > 1 else 2)
    for name in ("A", "Astar") for n in range(1, 6)] + [
    ("D", 4, 1152), ("E", 6, 103680), ("E", 7, 2903040), ("E", 8, 696729600),
    ("BambahWoods", 3, 48), ("NonSep", 3, 48)]


def _preserves_gram(a, gram):
    a = [[Fraction(x) for x in row] for row in a]
    at = [list(col) for col in zip(*a)]
    prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*gram)]
            for row in a]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*at)]
            for row in prod] == [list(r) for r in gram]


@pytest.mark.parametrize("name,n,order", ORDERS, ids=lambda v: str(v))
def test_automorphism_group_orders(name, n, order):
    lat = catalog(name, n)
    gens, got = automorphisms(lat)
    assert got == order
    for a in gens:
        assert all(isinstance(x, int) for row in a for x in row)
        assert _preserves_gram(a, lat.gram())
    assert automorphisms(lat) is automorphisms(lat)  # kept on the value


def test_the_group_search_takes_its_candidates_in_walk_order():
    # the candidates are both signs of the listing's pairs, in the order of
    # the full walk around 0 (x ascending from its last coordinate), so the
    # backtrack meets them, and finds its generators, in that order
    assert automorphisms(catalog("D", 4))[0] == (
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, -1, -2, -1)),
        ((1, 0, 0, 0), (1, -1, -2, -1), (0, 0, 1, 0), (0, 1, 0, 0)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (1, -1, -1, -1), (0, 0, 0, 1)),
        ((1, -1, -2, -1), (1, 0, 0, 0), (0, -1, -1, -1), (0, 1, 0, 0)),
        ((0, -1, -1, -1), (0, 0, 1, 0), (1, -1, -2, -1), (-1, 1, 1, 0)))
    assert automorphisms(catalog("A", 3))[0] == (
        ((1, 0, 0), (-1, -1, -1), (0, 0, 1)),
        ((1, 0, 0), (-1, -1, 0), (0, 0, -1)),
        ((-1, -1, -1), (1, 0, 0), (0, 1, 0)))


def _brute_force_order(gram):
    """Number of isometries of the lattice with this Gram: all choices of
    basis images among the vectors of the same norm, found by a box search
    (|x_i| <= sqrt(B (G^-1)_ii) for norm B), whose Gram is the given one."""
    n = len(gram)
    inv = sp.Matrix(gram).inv()
    top = max(gram[i][i] for i in range(n))
    box = [math.isqrt(math.floor(top * Fraction(str(inv[i, i])))) + 1
           for i in range(n)]
    norms = {gram[i][i] for i in range(n)}
    by_norm = {q: [] for q in norms}
    for x in itertools.product(*(range(-b, b + 1) for b in box)):
        gx = [sum(x[i] * gram[i][j] for i in range(n)) for j in range(n)]
        q = sum(a * b for a, b in zip(gx, x))
        if q in by_norm:
            by_norm[q].append((x, gx))

    def count(images):
        i = len(images)
        if i == n:
            return 1
        return sum(count(images + [y]) for y, gy in by_norm[gram[i][i]]
                   if all(sum(a * b for a, b in zip(gy, images[j]))
                          == gram[i][j] for j in range(i)))

    return count([])


def _size_reduced(gram):
    """The Gram of the basis after pairwise size reduction: b_i -= c b_j,
    c = round(<b_i, b_j> / <b_j, b_j>), while that shortens b_i. The change
    of basis is unimodular, so the isometry count is the same, and the box
    of ``_brute_force_order`` shrinks with the diagonal."""
    g = [[Fraction(x) for x in row] for row in gram]
    shortened = True
    while shortened:
        shortened = False
        for i, j in itertools.permutations(range(len(g)), 2):
            c = round(g[i][j] / g[j][j])
            if c and c * c * g[j][j] < 2 * c * g[i][j]:
                g[i] = [x - c * y for x, y in zip(g[i], g[j])]
                for row in g:
                    row[i] -= c * row[j]
                shortened = True
    return g


@st.composite
def _random_lattices(draw):
    """A random integer basis of rank 3 or 4; entries in -2..2."""
    m = draw(st.sampled_from([3, 4]))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                         min_size=m, max_size=m))
    assume(la.det_int(rows) != 0)
    return Lattice.from_rows(rows)


@st.composite
def _small_lattices(draw):
    """A random lattice of rank 3 or 4, or a catalog lattice on a basis
    changed by a few elementary moves (so the group is large and the basis
    is not reduced)."""
    if draw(st.booleans()):
        return draw(_random_lattices())
    m = draw(st.sampled_from([3, 4]))
    lat = catalog(draw(st.sampled_from(["Z", "D", "A"])), m)
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(m)))[:2]
        c = draw(st.sampled_from([-1, 1]))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return lat.transformed(u)


@settings(max_examples=15, deadline=None)
@given(_small_lattices())
def test_automorphism_order_matches_brute_force(lat):
    gens, order = automorphisms(lat)
    assert order == _brute_force_order(_size_reduced(lat.gram()))
    for a in gens:
        assert _preserves_gram(a, lat.gram())


def test_reduced_inverse_is_lazy_and_inverts_the_transform():
    lat = catalog("D", 4).transformed([[1, 1, 0, 0], [0, 1, 0, 0],
                                       [0, 0, 1, 2], [0, 0, 0, 1]])
    _, u = _reduced(lat)
    assert "reduced_inverse" not in lat._memo
    d2, vs = closest_vectors(lat, [Fraction(1, 3)] * 4)
    inv = _reduced_inverse(lat)
    assert la.mat_mul(inv, u) == [[int(i == j) for j in range(4)]
                                  for i in range(4)]
    assert _reduced_inverse(lat) is inv
    # the nearest points by brute force over a small box
    t = [Fraction(1, 3)] * 4
    best = min((lat.norm_sq([a - b for a, b in zip(x, t)]), x)
               for x in itertools.product(range(-3, 4), repeat=4))
    assert d2 == best[0] and best[1] in vs


# ---------------------------------------------------------------------------
# max_clearance up to symmetry
# ---------------------------------------------------------------------------

def _per_witness(lat, r, k):
    """max_clearance by projecting and covering every witness: the argmin of
    (-mu^2, coeffs) over the whole search. Each witness also checks that
    Babai's bound, by which max_clearance skips a witness, is at least its
    mu^2."""
    best = None
    for w in enumerate_sublattices(lat, k, _minima_bound(lat, k)):
        proj = project_along(w)
        mu_sq = covering_radius(proj)[0]
        assert _covering_radius_bound(proj) >= mu_sq
        key = (-mu_sq, w.coeffs)
        if best is None or key < best[0]:
            best = (key, w, proj)
    if best is None:
        return float("-inf"), None
    _, w, proj = best
    clearance = float(la._sqrt_rational(covering_radius(proj)[0])) - float(r)
    return clearance, _certificate(w, r, proj, True)


def _same_result(got, want):
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        assert got[1].to_dict() == want[1].to_dict()


# the last three search the dual side (2k > n); on A4 at k = 3 the least
# coeffs of the winning orbit are not among the witnesses the search reaches
CATALOG_CASES = [("Z", 4, 1, 1, Fraction(1, 2)), ("Z", 4, 1, 2, Fraction(1, 2)),
                 ("A", 4, 1, 1, Fraction(1, 2)), ("D", 4, 1, 2, Fraction(1, 2)),
                 ("D", 3, 2, 1, 1), ("D", 4, 2, 1, 1),
                 ("Z", 4, 1, 3, Fraction(2, 5)), ("A", 4, 1, 3, Fraction(2, 5)),
                 ("D", 4, 1, 3, Fraction(2, 5))]


@pytest.mark.parametrize("name,n,scale,k,r", CATALOG_CASES,
                         ids=lambda v: str(v))
def test_max_clearance_matches_per_witness_loop(name, n, scale, k, r):
    lat = catalog(name, n).scaled(scale)
    _same_result(max_clearance(lat, r, k),
                 _per_witness(catalog(name, n).scaled(scale), r, k))


@settings(max_examples=12, deadline=None)
@given(_random_lattices(), st.data())
def test_max_clearance_matches_per_witness_loop_random(lat, data):
    k = data.draw(st.integers(1, lat.rank - 1))
    r = data.draw(st.fractions(Fraction(1, 10), Fraction(3, 2),
                               max_denominator=12))
    _same_result(max_clearance(lat, r, k), _per_witness(lat, r, k))


def _per_class(lat, r, k):
    """max_clearance by covering each class of the full search, closed under
    the generators, at its least member and at one other, which must agree:
    the argmin of (-mu^2, coeffs) over the whole search when mu^2 is the
    same on a class, for searches too large to cover every witness."""
    ws = enumerate_sublattices(lat, k, _minima_bound(lat, k))
    by_coeffs = {w.coeffs: w for w in ws}
    best = None
    for c in _orbit_classes(lat, ws, automorphisms(lat)[0]):
        least, *others = sorted(c)
        proj = project_along(by_coeffs[least])
        mu_sq = covering_radius(proj)[0]
        assert _covering_radius_bound(proj) >= mu_sq
        for other in others[:1]:
            assert covering_radius(project_along(by_coeffs[other]))[0] \
                == mu_sq
        key = (-mu_sq, least)
        if best is None or key < best[0]:
            best = (key, by_coeffs[least], proj)
    (neg_mu_sq, _), w, proj = best
    return (float(la._sqrt_rational(-neg_mu_sq)) - float(r),
            _certificate(w, r, proj, True))


# D5 at k = 1 has 2,065 witnesses and E6 10,350, nearly all with distinct
# projections: the per-witness loop would build about 10 s of Voronoi cells
# on D5 alone
@pytest.mark.parametrize("name,n,k,r", [("D", 5, 1, Fraction(1, 2)),
                                        ("E", 6, 1, Fraction(1, 2))],
                         ids=lambda v: str(v))
def test_max_clearance_matches_per_class_loop(name, n, k, r):
    lat = catalog(name, n)
    _same_result(max_clearance(lat, r, k), _per_class(lat, r, k))


def test_tie_goes_to_an_orbit_member_the_search_does_not_reach():
    # on A3 at k = 2 the first witness the orbit search reaches at the best
    # mu^2 is not the least coeffs of its orbit; the expansion finds them
    lat = catalog("A", 3)
    reached = orbit_witnesses(lat, 2, _minima_bound(lat, 2),
                              automorphisms(lat)[0])
    mu_sq = [covering_radius(project_along(w))[0] for w in reached]
    first = reached[mu_sq.index(max(mu_sq))]
    got = max_clearance(lat, Fraction(1, 2), 2)
    assert first.coeffs == ((1, 0, 0), (0, 1, 0))
    assert got[1].witness.coeffs == ((0, 1, 0), (0, 0, 1))
    assert got[1].witness.coeffs not in {w.coeffs for w in reached}
    _same_result(got, _per_witness(lat, Fraction(1, 2), 2))


def test_d5_plane_certificate():
    # the D5 cliff of the cliff table: planes through D5 sqrt(2), r = 1
    clearance, cert = max_clearance(catalog("D", 5).scaled(2), 1, 2)
    assert cert.witness.coeffs == ((1, -1, -2, -2, 0), (0, 0, 0, 0, 1))
    assert cert.mu_sq == Fraction(3, 2) and cert.validated
    assert clearance == math.sqrt(1.5) - 1


def _orbit_classes(lat, witnesses, gens):
    """Classes of the witnesses under the group the generators make, found
    by closing each witness's coeffs under every generator."""
    def image(coeffs, a):
        return tuple(map(tuple, la.hnf_basis(la.mat_mul(coeffs, a))))

    left = {w.coeffs for w in witnesses}
    classes = []
    while left:
        start = min(left)
        orbit, todo = {start}, [start]
        while todo:
            c = todo.pop()
            for a in gens:
                d = image(c, a)
                if d not in orbit:
                    orbit.add(d)
                    todo.append(d)
        assert orbit <= left  # the search is closed under the group
        left -= orbit
        classes.append(orbit)
    return classes


# witnesses and orbits of the max_clearance searches of the passage workload,
# then larger searches whose pruned leaves must still meet every orbit; D5 at
# k = 3 runs on the dual side
ORBIT_COUNTS = [("Z", 4, 1, 1, 192, 8), ("Z", 4, 1, 2, 458, 13),
                ("A", 4, 1, 1, 365, 10), ("D", 3, 2, 1, 73, 7),
                ("D", 4, 2, 1, 432, 7), ("D", 5, 1, 2, 22690, 60),
                ("A", 5, 1, 2, 13640, 62), ("Z", 5, 1, 2, 2490, 18),
                ("Astar", 4, 1, 2, 890, 21), ("D", 5, 1, 3, 58170, 134)]


@pytest.mark.parametrize("name,n,scale,k,count,orbits", ORBIT_COUNTS,
                         ids=lambda v: str(v))
def test_orbit_representatives_are_least_members(name, n, scale, k, count,
                                                 orbits):
    lat = catalog(name, n).scaled(scale)
    ws = enumerate_sublattices(lat, k, _minima_bound(lat, k))
    # each generator on its own, and the group they make
    gens, _ = automorphisms(lat)
    classes = _orbit_classes(lat, ws, gens)
    assert (len(ws), len(classes)) == (count, orbits)
    # the orbit search reaches every class, and only witnesses of the full
    # search, in its order
    reached = orbit_witnesses(lat, k, _minima_bound(lat, k), gens)
    coeffs = {w.coeffs for w in reached}
    assert all(c & coeffs for c in classes)
    assert [w.coeffs for w in reached] == \
        [w.coeffs for w in ws if w.coeffs in coeffs]
    # the orbit expansion of the reached members of a class finds its least
    # member, and carries the determinant of the class
    det_sq = {w.coeffs: w.det_sq for w in ws}
    for c in classes:
        least = _least_in_orbits([w for w in reached if w.coeffs in c], gens)
        assert (least.coeffs, least.det_sq) == (min(c), det_sq[min(c)])


def test_missing_orbit_image_raises():
    # the candidates of norm 1 in Z^3, and a shear that is no isometry
    rows = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert _candidate_representatives(rows, automorphisms(catalog("Z", 3))[0]) \
        == [True, False, False]
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(RuntimeError, match="not a candidate"):
        _candidate_representatives(rows, [shear])


def _orbits_by_loop(items, gens):
    """(item, orbit) by the loop the callers of the orbit routine ran: a
    reached set, and the closure of each new item under x -> x A, each image
    a product with the matrix A."""
    reached, out = set(), []
    for x in items:
        if x in reached:
            continue
        orbit, todo = {x}, [x]
        while todo:
            v = todo.pop()
            for a in gens:
                w = tuple(la.vec_mat(v, a))
                if w not in orbit:
                    orbit.add(w)
                    todo.append(w)
        reached |= orbit
        out.append((x, orbit))
    return out


@pytest.mark.parametrize("name,n", [("Z", 4), ("D", 4), ("E", 6)])
def test_orbit_representatives_match_the_loop(name, n):
    # the candidates of a sublattice search, up to twice the least basis
    # norm (lambda_1^2 on these bases)
    lat = catalog(name, n)
    gens, _ = automorphisms(lat)
    rows = [v for _, v in vector_pairs_within(lat, 2 * min(
        lat.gram()[i][i] for i in range(n)))]
    both = [s for v in rows for s in (v, tuple(-x for x in v))]
    got = orbit_representatives(both, gens)
    assert got == _orbits_by_loop(both, gens)
    assert sum(len(orbit) for _, orbit in got) == len(both)
    # a pair is a representative when no earlier pair meets its orbit
    index = {s: i // 2 for i, s in enumerate(both)}
    orbit_of = {x: orbit for _, orbit in got for x in orbit}
    assert _candidate_representatives(rows, gens) == \
        [min(index[w] for w in orbit_of[v]) == i for i, v in enumerate(rows)]


@pytest.mark.parametrize("name,n,k", [("Z", 4, 1), ("Z", 4, 3), ("D", 4, 2),
                                      ("A", 4, 3), ("D", 4, 3)])
def test_every_search_path_emits_hnf_coeffs(name, n, k):
    # the orbit lookup keys images by their HNF; k > n/2 takes the dual side
    lat = catalog(name, n)
    ws = enumerate_sublattices(lat, k, _minima_bound(lat, k))
    assert ws
    for w in ws:
        assert [list(r) for r in w.coeffs] == la.hnf_basis(w.coeffs)


CELLS = ([("Z", n) for n in (3, 4, 5)] + [("A", n) for n in (2, 3, 4, 5)]
         + [("Astar", 3), ("Astar", 4)] + [("D", n) for n in (3, 4, 5, 6)]
         + [("E", 6)])


@pytest.mark.parametrize("name,n", CELLS, ids=lambda v: str(v))
def test_cell_volume_is_the_triangulated_volume(name, n):
    lat = catalog(name, n)
    assert cell_volume(lat) == voronoi_cell(lat).volume() == lat.determinant()


@st.composite
def _asymmetric_lattice(draw):
    """A lattice of rank 3 or 4, from an integer basis with diagonal 2..5
    and off-diagonal entries in -2..2, whose automorphisms are +-1 only."""
    n = draw(st.integers(3, 4))
    rows = [[draw(st.integers(2, 5)) if i == j else draw(st.integers(-2, 2))
             for j in range(n)] for i in range(n)]
    assume(la.det(rows) != 0)
    lat = Lattice.from_rows(rows)
    assume(automorphisms(lat)[1] == 2)
    return lat


@settings(max_examples=20, deadline=None)
@given(_asymmetric_lattice())
def test_cell_volume_from_the_pm_pairs_alone(lat):
    # the orbits are the +- pairs, so half the facets carry the sum
    assert cell_volume(lat) == voronoi_cell(lat).volume() == lat.determinant()


def test_cell_volume_past_the_group_search_budget():
    # the group search lists ~1.6M +- pairs up to the norm 10^6 of the long
    # basis vector, over the point budget, so the orbits fall back to the
    # +- pairs of the subgroup +-1
    lat = Lattice.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1000]])
    with pytest.raises(CapabilityError):
        automorphisms(lat)
    assert cell_volume(lat) == voronoi_cell(lat).volume() == 1000


def _check_facet_masks(lat):
    """For every relevant +-v, the facet that ``_cell_volume`` reads off
    the cell by v's row is the set of the vertices W[j] / D on
    <x, v> = <v, v> / 2, found by the dot products
    2 W[j] G_int v^T = D v G_int v^T."""
    cell = voronoi_cell(lat)
    ints, den = cell.integer_vertices()
    g, _ = lat.int_gram
    for v in relevant_vectors(lat):
        gv = la.vec_mat(v, g)
        q = la.dot(v, gv)
        dots = [2 * la.dot(w, gv) for w in ints]  # -v negates each one
        for s in (1, -1):
            brute = sum(1 << j for j, x in enumerate(dots) if s * x == den * q)
            assert cell._facet([2 * s * x for x in gv], q) == brute != 0


@pytest.mark.parametrize("name,n", [("Z", n) for n in range(1, 9)]
                         + [(k, n) for k in ("A", "Astar") for n in range(1, 6)]
                         + [("D", n) for n in range(3, 9)]
                         + [("E", 6), ("E", 7), ("E", 8)],
                         ids=lambda v: str(v))
def test_catalog_facets_match_the_tight_vertices(name, n):
    _check_facet_masks(catalog(name, n))


@settings(max_examples=20, deadline=None)
@given(_small_lattices())
def test_facets_match_the_tight_vertices(lat):
    _check_facet_masks(lat)


def test_e7_cell_volume_from_one_facet(monkeypatch):
    # E7's 126 facets form one orbit: the 280 simplices of one facet's
    # pulling triangulation replace the 22,360 of the whole cell
    lat = Lattice.from_gram(catalog("E", 7).gram())
    calls, det_int = [], la.det_int
    monkeypatch.setattr(la, "det_int", lambda a: calls.append(a) or det_int(a))
    vol = cell_volume(lat)
    assert vol ** 2 == 2
    assert len(calls) == 280
    assert cell_volume(lat) is vol and len(calls) == 280
