import json
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import latgeom
import latgeom._linalg as la
from latgeom.errors import (CatalogMissError, DimensionMismatchError,
                            InvalidInputError, InvalidLatticeError,
                            UnsupportedRankError)
from latgeom.enumeration import _lambda1_sq
from latgeom.lattice import (LLL_DELTA, Lattice, _lll_transform, catalog,
                             dual, dual_in_span, reduce)


def test_from_rows_gram_is_rational():
    lat = Lattice.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]], scale_sq=Fraction(1, 2))
    g = lat.gram()
    assert g == [[Fraction(1), Fraction(1, 2), Fraction(1, 2)],
                 [Fraction(1, 2), Fraction(1), Fraction(1, 2)],
                 [Fraction(1, 2), Fraction(1, 2), Fraction(1)]]
    assert lat.det_sq() == Fraction(1, 2)


def test_dependent_rows_rejected():
    with pytest.raises(InvalidLatticeError):
        Lattice.from_rows([[1, 0], [2, 0]])


@pytest.mark.parametrize("rows", [[], [[1, 0], [1]]], ids=["empty", "ragged"])
def test_from_rows_rejects_an_empty_or_ragged_basis(rows):
    with pytest.raises(InvalidInputError):
        Lattice.from_rows(rows)


def test_from_gram_positive_definite_required():
    with pytest.raises(InvalidLatticeError):
        Lattice.from_gram([[1, 2], [2, 1]])


# det > 0 but not positive definite: -I_2, and diag(H, H) with
# H = [[0, 1], [1, 0]], whose zero leading minor forces a row exchange after
# which every pivot is positive
@pytest.mark.parametrize("gram", [
    [[-1, 0], [0, -1]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    [[1, 0, 0], [0, -2, 0], [0, 0, -3]],
])
def test_from_gram_rejects_indefinite_with_positive_det(gram):
    assert la.det(gram) > 0
    with pytest.raises(InvalidLatticeError):
        Lattice.from_gram(gram)


@pytest.mark.parametrize("gram", [[], [[1, 2]], [[1], [0, 1]]])
def test_from_gram_rejects_non_square(gram):
    with pytest.raises(InvalidInputError):
        Lattice.from_gram(gram)


def test_from_gram_rejects_asymmetric():
    with pytest.raises(InvalidLatticeError):
        Lattice.from_gram([[1, 2], [0, 1]])


def test_scaled_rejects_zero_factor():
    with pytest.raises(InvalidLatticeError):
        catalog("Z", 2).scaled(0)


@pytest.mark.parametrize("scale_sq", [0, -1, "-1/2"])
def test_from_rows_rejects_a_scale_that_is_not_positive(scale_sq):
    # the fault is the scale, not the rows, which are independent
    with pytest.raises(InvalidLatticeError, match="scale factor must be "
                       "positive"):
        Lattice.from_rows([[1, 0], [0, 1]], scale_sq=scale_sq)


def test_determinant_exact_symbolic():
    lat = Lattice.from_rows([[1, 0], [0, 1]], scale_sq=2)
    # each basis vector scaled by sqrt(2), so D = 2
    assert lat.determinant() == 2
    fcc = catalog("D", 3).scaled(2)
    assert sp.simplify(fcc.determinant() - 4 * sp.sqrt(2)) == 0


def test_json_round_trip():
    lat = Lattice.from_rows([[1, 2], [0, 3]], scale_sq=Fraction(1, 3))
    back = Lattice.from_json(lat.to_json())
    assert back.gram() == lat.gram()
    assert back.det_sq() == lat.det_sq()


def test_json_gram_only():
    lat = Lattice.from_gram([[2, 1], [1, 2]])
    back = Lattice.from_json(lat.to_json())
    assert back.basis is None
    assert back.gram() == lat.gram()


def test_json_fraction_strings():
    payload = json.dumps({"basis": [["1/2", "0"], ["0", "1/2"]], "scale_sq": "2"})
    lat = Lattice.from_json(payload)
    assert lat.det_sq() == Fraction(1, 4)


_ambient_fractions = st.builds(Fraction, st.integers(-9, 9),
                               st.sampled_from([1, 2, 3, 7, 10]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(st.lists(_ambient_fractions, min_size=m + 1, max_size=m + 1),
             min_size=m, max_size=m),
    st.builds(Fraction, st.integers(1, 50), st.sampled_from([1, 2, 3, 49])),
    st.one_of(st.lists(st.integers(-10**6, 10**6), min_size=m, max_size=m),
              st.lists(_ambient_fractions, min_size=m, max_size=m)))))
def test_to_ambient_rounds_the_exact_coordinates(inputs):
    rows, scale_sq, coeffs = inputs
    assume(la.rank(rows) == len(rows))
    lat = Lattice.from_rows(rows, scale_sq)
    s = math.sqrt(float(scale_sq))
    assert lat.to_ambient(coeffs) == [
        s * float(sum(c * row[j] for c, row in zip(coeffs, lat.basis)))
        for j in range(lat.ambient_dim)]


def test_gram_only_lattice_has_no_ambient_coordinates():
    lat = Lattice.from_gram([[2, 1], [1, 2]])
    with pytest.raises(UnsupportedRankError):
        lat.to_ambient([1, 0])
    with pytest.raises(UnsupportedRankError):
        lat.coords_of([1, 0])


@pytest.mark.parametrize("call", [
    lambda lat: lat.norm_sq([1, 1, 1, 1, 1]),
    lambda lat: lat.norm_sq([1, 1, 1]),
    lambda lat: lat.inner([1, 0, 0, 0], [1]),
    lambda lat: lat.inner([1, 0, 0], [1, 0, 0, 0]),
    lambda lat: lat.to_ambient([1, 0, 0, 0, 0]),
    lambda lat: lat.to_ambient([1]),
    lambda lat: lat.coords_of([1, 1]),
    lambda lat: lat.coords_of([1, 1, 0, 0, 0]),
], ids=["norm-long", "norm-short", "inner-b", "inner-a", "ambient-long",
        "ambient-short", "coords-short", "coords-long"])
def test_vectors_of_the_wrong_length_are_rejected(call):
    # zip would truncate or pad them: norm_sq([1, 1, 1, 1, 1]) read as
    # norm_sq([1, 1, 1, 1]) = 6, and coords_of([1, 1]) as [1, 0, 0, 0]
    lat = catalog("D", 4)
    with pytest.raises(DimensionMismatchError):
        call(lat)
    assert lat.norm_sq([1, 1, 1, 1]) == 6
    assert lat.coords_of([1, 1, 0, 0]) == [1, 0, 0, 0]


def test_package_determinant_is_the_lattice_determinant():
    lat = catalog("D", 4)
    assert latgeom.determinant(lat) == lat.determinant() == 2


def test_dual_inverse_transpose():
    lat = Lattice.from_rows([[2, 0], [1, 3]])
    d = dual(lat)
    # D(L) * D(L*) = 1
    assert lat.det_sq() * d.det_sq() == 1
    # Gram(L*) = Gram(L)^{-1} up to basis choice: determinant check plus
    # integrality of all pairings <b_i, b*_j>
    g = lat.gram()
    prod = [[sum(Fraction(x) for x in [0])]]  # placeholder removed below
    import latgeom._linalg as la
    pair = la.mat_mul([[Fraction(x) for x in r] for r in lat.basis],
                      la.transpose([[Fraction(x) for x in r] for r in d.basis]))
    for row in pair:
        for x in row:
            assert Fraction(x).denominator == 1


def test_dual_self_dual_lattices():
    for name, n in (("Z", 4), ("E", 8)):
        lat = catalog(name, n)
        assert dual(lat).det_sq() == 1


def test_dual_requires_full_rank():
    lat = Lattice.from_rows([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(UnsupportedRankError):
        dual(lat)
    # but the in-span dual works and inverts the determinant
    from latgeom.lattice import dual_in_span
    d = dual_in_span(lat)
    assert d.det_sq() * lat.det_sq() == 1


def test_dual_in_span_is_kept_per_value():
    from latgeom.lattice import dual_in_span
    for lat in (catalog("D", 5), Lattice.from_gram([[2, 1], [1, 2]])):
        assert dual_in_span(lat) is dual_in_span(lat)


def test_reduce_preserves_lattice():
    lat = Lattice.from_rows([[1, 0], [1000, 1]])
    red = reduce(lat)
    assert red.det_sq() == lat.det_sq()
    u = lat._memo["reduction_transform"]
    import latgeom._linalg as la
    assert abs(la.det([[Fraction(x) for x in r] for r in u])) == 1
    g = red.gram()
    assert g[0][0] <= 2  # the short vector was found


@pytest.mark.parametrize("lat", [
    Lattice.from_rows([[1, 0, 0], [1000, 1, 0], [3, 7, Fraction(1, 2)]],
                      scale_sq=Fraction(2, 3)),
    Lattice.from_gram([[5, 2, Fraction(1, 3)], [2, 9, 4], [Fraction(1, 3), 4, 7]]),
    catalog("E", 7),
])
def test_reduce_cached_invariants_match_recomputed(lat):
    # reduce hands over the Gram LLL already holds and the input's det_sq;
    # a fresh value with the same basis or Gram must agree with both
    red = reduce(lat)
    fresh = Lattice(red.basis, red.ambient_dim, red.scale_sq,
                    red.gram_override)
    assert red.gram() == fresh.gram()
    assert red.int_gram == fresh.int_gram
    assert red.det_sq() == fresh.det_sq() == lat.det_sq()


@pytest.mark.parametrize("name,n,det_sq", [
    ("Z", 5, 1), ("A", 2, 3), ("A", 3, 4), ("Astar", 2, Fraction(1, 3)),
    ("Astar", 5, Fraction(1, 6)), ("D", 3, 4), ("D", 4, 4), ("D", 8, 4),
    ("E", 6, 3), ("E", 7, 2), ("E", 8, 1), ("Leech", 24, 1),
])
def test_catalog_determinants(name, n, det_sq):
    lat = catalog(name, n)
    assert lat.det_sq() == det_sq


@pytest.mark.parametrize("name,n,min_sq", [
    ("A", 2, 2), ("D", 4, 2), ("E", 8, 2), ("Leech", 24, 4),
])
def test_catalog_min_norms(name, n, min_sq):
    # seeded in the memo, so that lambda_1 is never enumerated
    lat = catalog(name, n)
    assert lat._memo["lambda1_sq"] == min_sq
    assert _lambda1_sq(lat) == min_sq


def test_catalog_nonsep_lattice():
    lat = catalog("NonSep", 3)
    assert lat.det_sq() == 128  # det(rows)^2 = 16, scale_sq^3 = 8
    d = dual(lat)
    # dual minimum exactly 1/(2r) at r = 1
    from latgeom.enumeration import shortest_vectors
    l1_sq, _ = shortest_vectors(d)
    assert Fraction(l1_sq) == Fraction(1, 4)


def test_catalog_e8_values_share_one_memo():
    # E8 is built once, so a Voronoi cell or a covering radius found on it
    # is found on every later request
    a, b = catalog("E", 8), catalog("E", 8)
    assert a is b and a.name == "E8"
    assert catalog("Leech", 24) is catalog("Leech", 24)


def test_name_is_provenance_only():
    # the same geometry under different names is one value: equal, with
    # equal hashes, so lattices can key dicts and sets
    d4 = catalog("D", 4)
    other = Lattice.from_rows([list(r) for r in d4.basis], name="other")
    assert d4 == other and hash(d4) == hash(other)
    assert len({d4, other, Lattice.from_rows(d4.basis)}) == 1
    assert d4.name == "D4" and other.name == "other"
    assert d4 != d4.scaled(2) and d4.scaled(2).name == "D4"
    g = Lattice.from_gram(d4.gram(), name="g")
    assert g == Lattice.from_gram(d4.gram()) and g != d4


def test_catalog_miss():
    with pytest.raises(CatalogMissError):
        catalog("E", 9)
    with pytest.raises(CatalogMissError):
        catalog("Unknown", 3)
    with pytest.raises(CatalogMissError):
        catalog("BambahWoods", 4)
    with pytest.raises(CatalogMissError):
        catalog("NonSep", 4)


def test_scaled_updates_min_norm():
    # the catalog seeds D3's minimum; the scaled value finds its own
    fcc = catalog("D", 3).scaled(2)
    assert "lambda1_sq" not in fcc._memo
    assert _lambda1_sq(fcc) == 4


def test_transformed_sublattice():
    lat = catalog("Z", 2)
    sub = lat.transformed([[2, 0], [0, 1]])
    assert sub.det_sq() == 4
    assert sub.name == "Z2" and "lambda1_sq" not in sub._memo
    assert _lambda1_sq(sub) == 1
    for base in (lat, Lattice.from_gram(lat.gram())):
        with pytest.raises(InvalidLatticeError):
            base.transformed([[1, 1], [2, 2]])


def test_float_rows_are_rationalized():
    lat = Lattice.from_rows([[0.5, 0.0], [0.1, 1.5]], scale_sq=0.25)
    ref = Lattice.from_rows([["1/2", 0], ["1/10", "3/2"]], scale_sq="1/4")
    assert lat == ref
    assert lat.det_sq() == ref.det_sq() == Fraction(9, 256)


def test_json_float_lattice_loads_exact():
    rows = json.dumps({"ambient_dim": 2, "basis": [[0.5, 0.0], [0.1, 1.5]],
                       "scale_sq": 0.25, "exact": False})
    ref = Lattice.from_rows([["1/2", 0], ["1/10", "3/2"]], scale_sq="1/4")
    assert Lattice.from_json(rows) == ref
    gram = json.dumps({"gram": [[2.0, 0.5], [0.5, 1.0]], "exact": False})
    assert Lattice.from_json(gram) == Lattice.from_gram([[2, "1/2"], ["1/2", 1]])


def _fraction_gso_lll(gram, delta):
    """Reference LLL: the textbook Gram-only loop that recomputes the full
    Fraction Gram-Schmidt data after every size-reduction step."""
    m = len(gram)
    g = [list(r) for r in gram]
    u = [[int(i == j) for j in range(m)] for i in range(m)]

    def gso():
        mu = [[0] * m for _ in range(m)]
        bstar = [0] * m
        for i in range(m):
            bstar[i] = g[i][i]
            for j in range(i):
                num = g[i][j] - sum(mu[i][t] * mu[j][t] * bstar[t]
                                    for t in range(j))
                mu[i][j] = num / bstar[j]
                bstar[i] -= mu[i][j] ** 2 * bstar[j]
        return mu, bstar

    def row_op(i, j, q):
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        for c in range(m):
            g[i][c] -= q * g[j][c]
        for r in range(m):
            g[r][i] -= q * g[r][j]

    def swap(i, j):
        u[i], u[j] = u[j], u[i]
        g[i], g[j] = g[j], g[i]
        for r in range(m):
            g[r][i], g[r][j] = g[r][j], g[r][i]

    k = 1
    while k < m:
        mu, bstar = gso()
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                row_op(k, j, round(mu[k][j]))
                mu, bstar = gso()
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            swap(k, k - 1)
            k = max(k - 1, 1)
    return u, g


@st.composite
def _rational_grams(draw):
    m = draw(st.integers(1, 6))
    den = draw(st.sampled_from([1, 2, 3, 6]))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=m, max_size=m),
                         min_size=m, max_size=m))
    assume(la.det(rows) != 0)
    return [[Fraction(x, den) for x in r] for r in la.gram_matrix(rows)]


@settings(max_examples=150, deadline=None)
@given(_rational_grams(), st.sampled_from([Fraction(3, 4), Fraction(99, 100)]))
# huge entries with determinant 1: the reduced basis is the identity
@example([[1, 10**8], [10**8, 10**16 + 1]], Fraction(99, 100))
# mu = 5/2 rounds half to even, to 2; half away from zero would give 3
@example([[2, 5], [5, 20]], Fraction(3, 4))
def test_integral_lll_matches_fraction_gso(gram, delta):
    gram = [[Fraction(x) for x in r] for r in gram]
    want = _fraction_gso_lll([r[:] for r in gram], delta)
    g_int, d = la.integer_form(gram)
    u, g = _lll_transform((g_int, d), delta)
    assert (u, [[Fraction(x, d) for x in row] for row in g]) == want


def test_integral_lll_rounds_half_to_even():
    u, g = _lll_transform(([[2, 5], [5, 20]], 1), Fraction(3, 4))
    assert u == [[1, 0], [-2, 1]] and g == [[2, 1], [1, 8]]


# The basis products as Fraction matrix products, the reference for the
# products that ``Lattice`` forms in ints over one denominator.

def _typed(rows):
    return [[(type(x), x) for x in row] for row in rows]


def _fraction_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _check_products_against_fractions(lat):
    b = [list(r) for r in lat.basis]
    bbt = _fraction_product(b, la.transpose(b))
    gram = [[lat.scale_sq * x for x in row] for row in bbt]
    assert _typed(lat._gram) == _typed(gram)
    d = math.lcm(*(x.denominator for row in gram for x in row))
    assert lat.int_gram == (tuple(tuple(int(x * d) for x in row)
                                  for row in gram), d)
    u, _ = _lll_transform(la.integer_form(gram), LLL_DELTA)
    assert _typed(reduce(lat).basis) == _typed(_fraction_product(u, b))
    dual_rows = _fraction_product(la.inverse(bbt), b)
    assert _typed(dual_in_span(lat).basis) == _typed(dual_rows)


_CATALOG_UP_TO_8 = (
    [("Z", n) for n in range(1, 9)] + [("A", n) for n in range(1, 6)]
    + [("Astar", n) for n in range(1, 6)] + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("BambahWoods", None), ("NonSep", None)])


@pytest.mark.parametrize("name,n", _CATALOG_UP_TO_8)
def test_basis_products_match_fraction_products_on_the_catalog(name, n):
    lat = catalog(name, n)
    for value in (lat, lat.scaled(2), lat.scaled(Fraction(1, 3))):
        _check_products_against_fractions(value)


@st.composite
def _scaled_rational_bases(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n))
    rows = [[Fraction(draw(st.integers(-9, 9)),
                      draw(st.sampled_from([1, 2, 3, 6, 35])))
             for _ in range(n)] for _ in range(m)]
    assume(la.rank(rows) == m)
    scale_sq = Fraction(draw(st.integers(1, 50)), draw(st.integers(1, 50)))
    assume(scale_sq != 1)
    return Lattice.from_rows(rows, scale_sq)


@settings(max_examples=80, deadline=None)
@given(_scaled_rational_bases())
def test_basis_products_match_fraction_products(lat):
    _check_products_against_fractions(lat)


def test_build_reduce_and_dual_make_no_fraction_products(monkeypatch):
    """Building a value, reducing it and taking its dual form every basis
    product in ints: no Fraction is multiplied or added. A fresh value from
    E7's Fraction basis has no memo that could hide the work."""
    basis = catalog("E", 7).basis
    calls = []
    for op in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(*args, _f=getattr(Fraction, op), _op=op):
            calls.append(_op)
            return _f(*args)
        monkeypatch.setattr(Fraction, op, counted)
    lat = Lattice.from_rows(basis)
    reduce(lat)
    dual_in_span(lat)
    monkeypatch.undo()
    assert calls == []


def _check_seeded_int_gram(lat):
    """``reduce`` keeps U G_int U^T over lat's d as the reduced value's
    ``int_gram``: the very form that the reduced Gram derives."""
    red = reduce(lat)
    assert red.int_gram == la.integer_form(red.gram())
    assert red.int_gram[1] == lat.int_gram[1]


@settings(max_examples=80, deadline=None)
@given(st.one_of(_scaled_rational_bases(),
                 _rational_grams().map(Lattice.from_gram)))
def test_reduce_seeds_the_derived_int_gram(lat):
    _check_seeded_int_gram(lat)


@pytest.mark.parametrize("name,n", _CATALOG_UP_TO_8)
def test_reduce_seeds_the_derived_int_gram_on_the_catalog(name, n):
    lat = catalog(name, n)
    for value in (lat, lat.scaled(2), lat.scaled(Fraction(1, 3)),
                  Lattice.from_gram(lat.gram())):
        _check_seeded_int_gram(value)
