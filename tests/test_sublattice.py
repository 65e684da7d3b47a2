import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import latgeom._linalg as la
import latgeom.sublattice as sub
from latgeom.cli import run
from latgeom.enumeration import (kappa, shortest_vectors, successive_minima,
                                 vectors_within)
from latgeom.errors import CapabilityError, InvalidInputError
from latgeom.impassability import passage_certificate
from latgeom.lattice import Lattice, catalog
from latgeom.sublattice import (dk_min, enumerate_sublattices, project_along,
                                saturate, witness)
from latgeom.symmetry import automorphisms


def _minima_bound(lat, k):
    """3 lambda_1 ... lambda_k, exact: the default determinant bound of
    ``max_clearance`` below k = n - 1, here passed at every k."""
    return la._sqrt_rational(9 * math.prod(successive_minima(lat)[0][:k]))


def test_witness_det_and_saturation():
    lat = catalog("Z", 3)
    w = witness(lat, [[1, 1, 0]])
    assert w.det_sq == 2
    assert w.saturated
    w2 = witness(lat, [[2, 0, 0]])
    assert not w2.saturated
    assert saturate(w2).det_sq == 1


def test_witness_reads_integral_numpy_and_float_entries():
    lat = catalog("Z", 3)
    for x in (np.int64(1), 1.0):
        w = witness(lat, [[x, 0, 0]])
        assert w.coeffs == ((1, 0, 0),) and type(w.coeffs[0][0]) is int


def test_a_bound_that_is_not_positive_finds_nothing():
    lat = catalog("Z", 3)
    assert enumerate_sublattices(lat, 1, 0) == []
    assert enumerate_sublattices(lat, 1, -1) == []
    with pytest.raises(InvalidInputError):
        dk_min(lat, 1, 0)
    assert passage_certificate(lat, Fraction(1, 2), 1, det_bound=0) is None


def test_witness_rejects_dependent_rows():
    with pytest.raises(InvalidInputError):
        witness(catalog("Z", 3), [[1, 0, 0], [2, 0, 0]])


def test_enumerate_z3_lines_of_determinant_one():
    subs = enumerate_sublattices(catalog("Z", 3), 1, 1)
    assert len(subs) == 3
    assert all(w.det_sq == 1 for w in subs)


def test_enumerate_z3_planes_of_determinant_one():
    subs = enumerate_sublattices(catalog("Z", 3), 2, 1)
    assert len(subs) == 3
    assert all(w.det_sq == 1 for w in subs)


def test_enumerate_a2_minimal_lines():
    subs = enumerate_sublattices(catalog("A", 2), 1, math.sqrt(2) * 1.001)
    assert len(subs) == 3  # the three minimal directions of the hexagonal lattice


def test_enumerate_matches_hnf_oracle_z3():
    # oracle: all saturated rank-2 sublattices of Z^3 with det <= 2 are
    # kernels of primitive normal vectors with |v| <= 2
    subs = enumerate_sublattices(catalog("Z", 3), 2, 2)
    normals = set()
    for a, b, c in itertools.product(range(-2, 3), repeat=3):
        v = (a, b, c)
        if v == (0, 0, 0) or a * a + b * b + c * c > 4:
            continue
        if math.gcd(a, math.gcd(b, c)) != 1:
            continue
        normals.add(max(v, tuple(-x for x in v)))
    assert len(subs) == len(normals)


def test_dk_z_is_one():
    for n in range(2, 7):
        lat = catalog("Z", n)
        for k in range(1, n):
            d2, w = dk_min(lat, k)
            assert d2 == 1, (n, k)
            assert w.saturated


@pytest.mark.parametrize("k, name, n", [
    (1, "Z", 1), (2, "A", 2), (3, "D", 3), (4, "D", 4), (5, "D", 5),
    (6, "E", 6), (7, "E", 7), (8, "E", 8)])
def test_hermite_pow_is_attained_by_the_critical_lattice(k, name, n):
    # gamma_k^k = lambda_1^{2k} / det^2 of the densest lattice packing
    lat = catalog(name, n)
    assert sub._hermite_pow(k) == shortest_vectors(lat)[0] ** k / lat.det_sq()


def test_hermite_pow_beyond_the_table_is_hermites_bound():
    assert [sub._hermite_pow(k) for k in (9, 10, 12)] == \
        [Fraction(4, 3) ** 36, Fraction(4, 3) ** 45, Fraction(4, 3) ** 66]
    # the shells start below det^2 = 1 on Z^10 and reach it
    d2, w = dk_min(catalog("Z", 10), 9)
    assert d2 == 1 and w.k == 9 and w.saturated


def test_dk_fcc():
    fcc = catalog("D", 3)
    d1, _ = dk_min(fcc, 1)
    d2, _ = dk_min(fcc, 2)
    assert d1 == 2  # lambda_1^2
    assert d2 == 3  # minimal hexagonal section


def test_dk_at_most_minima_product():
    lat = Lattice.from_rows([[3, 1, 0], [1, 2, 1], [0, 1, 4]])
    norms, _ = successive_minima(lat)
    for k in (1, 2):
        d2, _ = dk_min(lat, k)
        prod = math.prod(float(q) for q in norms[:k])
        assert float(d2) <= prod * (1 + 1e-9)


def test_node_budget_capability_error(monkeypatch):
    # the message says how far the search got
    monkeypatch.setattr("latgeom.sublattice.NODE_BUDGET", 3)
    with pytest.raises(CapabilityError, match="node budget 3 after reaching 2 "
                       "distinct spans and finding 2 witnesses"):
        enumerate_sublattices(catalog("Z", 4), 2, 2)


def test_leaves_are_pruned_to_possible_minima(monkeypatch):
    # only tuples that pass the pair and Gram tests reach a leaf, and they
    # still reach every witness: 12,612 leaves without the tests; under the
    # automorphism group the first vector runs over orbit representatives
    lat = catalog("D", 4)
    bound = _minima_bound(lat, 2)
    leaves = []
    real = sub._span_key
    monkeypatch.setattr(sub, "_span_key",
                        lambda echelon: leaves.append(1) or real(echelon))
    ws = enumerate_sublattices(lat, 2, bound)
    assert (len(ws), len(leaves)) == (2234, 4068)
    leaves.clear()
    ws = sub.orbit_witnesses(lat, 2, bound, automorphisms(lat)[0])
    assert (len(ws), len(leaves)) == (184, 315)


def test_project_along_determinant_identity():
    lat = catalog("D", 4)
    for w in enumerate_sublattices(lat, 2, 3)[:5]:
        proj = project_along(w)
        assert proj.det_sq() * w.det_sq == lat.det_sq()


def test_project_fcc_minimal_vector():
    fcc = catalog("D", 3).scaled(2)
    w = witness(fcc, [[0, 0, 1]])
    proj = project_along(w)
    assert proj.gram() == [[Fraction(3), Fraction(1)], [Fraction(1), Fraction(3)]]


def test_project_auto_saturates():
    lat = catalog("Z", 3)
    w = witness(lat, [[2, 0, 0]])
    proj = project_along(w)
    # projection of Z^3 along the x-axis is Z^2 regardless of the multiplier
    assert proj.det_sq() == 1


def test_project_embedding_matches_gram(capsys):
    # the float embedding is formed only where it is printed, by the CLI
    assert run(["project", "--catalog", "A3", "--witness", "[[1, 0, 0]]"]) == 0
    d = json.loads(capsys.readouterr().out)
    emb = d["embedding"]
    g = [[Fraction(x) for x in row] for row in d["gram"]]
    for i, ri in enumerate(emb):
        for j, rj in enumerate(emb):
            dot = sum(a * b for a, b in zip(ri, rj))
            assert dot == pytest.approx(float(g[i][j]), abs=1e-9)


def test_project_along_keeps_cached_invariants():
    lat = catalog("D", 4)
    _, w = dk_min(lat, 1)
    proj = project_along(w)
    # the squared determinant is read off the cached elimination
    assert {"_gram", "int_gram", "_elimination"} <= set(vars(proj))


def _saturate_every_subset(lat, k, det_bound):
    """Reference search: saturate the span of every independent k-subset of
    the vectors the Minkowski bound allows, with float bounds and slack (a
    larger searched set finds the same sublattices; for k <= 8 it is wider
    than the search's Hermite cap, so a sublattice the cap drops shows),
    through the dual when k > rank - k; sorted (det_sq, HNF) pairs."""
    m = lat.rank
    det_sq = Fraction(det_bound) ** 2

    def det_sq_of(rows):
        return la.det([[lat.inner(a, b) for b in rows] for a in rows])

    if k > m - k:
        # det(M)^2 = det_sq(L) det(M_perp)^2 for M_perp in the dual
        dlat = Lattice.from_gram(la.inverse(lat.gram()))
        dual_bound = math.sqrt(det_sq / lat.det_sq()) * (1 + 1e-9)
        found = []
        for _, perp in _saturate_every_subset(dlat, m - k, dual_bound):
            rows = la.hnf_basis(la.integer_kernel([list(r) for r in perp]))
            if det_sq_of(rows) <= det_sq:
                found.append((det_sq_of(rows), tuple(map(tuple, rows))))
        return sorted(found)
    l1_sq = float(shortest_vectors(lat)[0])
    prod_sq = float(2 ** k / kappa(k)) ** 2 * float(det_sq) * (1 + 1e-6)
    radius_sq = max(prod_sq / l1_sq ** (k - 1), l1_sq) * (1 + 1e-6)
    norms = {la._canonical_sign(v): float(q)
             for v, q in vectors_within(lat, Fraction(radius_sq))}
    vecs = sorted(norms, key=norms.get)
    found = {}

    def dfs(start, chosen, prod):
        if len(chosen) == k:
            rows = la.saturation([list(v) for v in chosen])
            if det_sq_of(rows) <= det_sq:
                found[tuple(map(tuple, rows))] = det_sq_of(rows)
            return
        for i in range(start, len(vecs)):
            q = norms[vecs[i]]
            if prod * q ** (k - len(chosen)) > prod_sq:
                break
            rows = [list(v) for v in chosen + [vecs[i]]]
            if la.rank(rows) == len(rows):
                dfs(i + 1, chosen + [vecs[i]], prod * q)

    dfs(0, [], 1.0)
    return sorted((d2, key) for key, d2 in found.items())


@st.composite
def _search_inputs(draw):
    m = draw(st.integers(3, 5))
    rows = [[3 if i == j else draw(st.integers(-1, 1)) for j in range(m)]
            for i in range(m)]
    assume(la.det(rows) != 0)
    lat = Lattice.from_gram(la.gram_matrix(rows))
    k = draw(st.integers(1, m - 1))
    # det_bound^2 from about l1^k / 2 to 4 l1^k: many leaves saturate to
    # keys above the bound, and the larger bounds reach pairs (v, 2v)
    l1_k = math.isqrt(int(shortest_vectors(lat)[0] ** k))
    return lat, k, Fraction(l1_k * draw(st.integers(6, 16)), 8)


@settings(max_examples=60, deadline=None)
@given(_search_inputs())
# the search visits the dependent pair (v, 2v) with v a shortest vector
@example((Lattice.from_gram(la.gram_matrix(
    [[3, 1, 0, 0], [0, 3, 1, 0], [1, 0, 3, -1], [0, 0, 1, 3]])), 2, 20))
# root lattices whose planes up to det 3 include spans with non-unit pivots
@example((catalog("D", 4), 2, 3))
@example((catalog("A", 4), 2, 3))
def test_enumerate_matches_saturating_every_subset(inputs):
    lat, k, det_bound = inputs
    got = enumerate_sublattices(lat, k, det_bound)
    assert all(w.saturated and w.k == k for w in got)
    assert [(w.det_sq, w.coeffs) for w in got] == \
        _saturate_every_subset(lat, k, det_bound)


def _fraction_schur(lat, t, k):
    """Reference projected Gram: the Schur complement of the sublattice
    block of T G T^T, through its inverse, in Fractions."""
    gp = la.mat_mul(la.mat_mul(t, lat.gram()), la.transpose(t))
    x = la.mat_mul(la.inverse([row[:k] for row in gp[:k]]),
                   [row[k:] for row in gp[:k]])
    return [[gij - la.dot(row[:k], col) for gij, col in zip(row[k:], zip(*x))]
            for row in gp[k:]]


@settings(max_examples=60, deadline=None)
@given(_search_inputs(), st.builds(Fraction, st.integers(1, 9),
                                   st.sampled_from([1, 2, 3, 7])))
def test_project_along_matches_fraction_schur_complement(inputs, scale):
    # witnesses as the sublattice search hands them to project_along, on a
    # Gram with denominators
    lat, k, det_bound = inputs
    lat = lat.scaled(scale ** 2)
    for w in enumerate_sublattices(lat, k, det_bound * scale ** k)[:4]:
        proj = project_along(w)
        t = la.complete_to_unimodular([list(r) for r in w.coeffs])
        assert proj.gram() == _fraction_schur(lat, t, k)


def test_search_saturates_each_span_once(monkeypatch):
    saturated, det_keys = [], []
    real_saturation, real_det_sq = la.saturation, sub._sub_det_sq

    def spy_saturation(rows):
        saturated.append(tuple(map(tuple, la.hnf_basis(rows))))
        return real_saturation(rows)

    def spy_det_sq(lat, rows):
        det_keys.append(tuple(map(tuple, rows)))
        return real_det_sq(lat, rows)

    monkeypatch.setattr(la, "saturation", spy_saturation)
    monkeypatch.setattr(sub, "_sub_det_sq", spy_det_sq)
    got = enumerate_sublattices(catalog("Z", 4), 2, 2)
    # the saturated planes of Z^4 with det^2 1, 2, 3 and 4
    assert [w.det_sq for w in got] == [1] * 6 + [2] * 24 + [3] * 32 + [4] * 12
    assert len(saturated) == len(set(saturated))
    assert len(det_keys) == len(set(det_keys))
    assert {w.coeffs for w in got} <= set(det_keys)


@st.composite
def _shell_inputs(draw):
    # every k of a rank-3 to rank-5 lattice, k > rank - k through the dual,
    # with det_bound a Fraction, a float or an irrational sympy square root
    lat = draw(_search_inputs())[0]
    k = draw(st.integers(1, lat.rank - 1))
    l1_k = math.isqrt(int(shortest_vectors(lat)[0] ** k))
    bound = Fraction(l1_k * draw(st.integers(6, 24)), 8)
    kind = draw(st.sampled_from(["fraction", "float", "sqrt"]))
    if kind == "float":
        bound = float(bound)
    elif kind == "sqrt":
        bound = sp.sqrt(sp.Rational(bound.numerator ** 2 * 3,
                                    bound.denominator ** 2 * 4))
    return lat, k, bound


@settings(max_examples=60, deadline=None)
@given(_shell_inputs())
# (1, 1, 1, 1) has det^2 4, exactly the second bound 4 * lambda_1^2
@example((catalog("Z", 4), 1, 3))
def test_shells_yield_the_full_search_in_order(inputs):
    lat, k, det_bound = inputs
    full = enumerate_sublattices(lat, k, det_bound)
    assert list(sub._shells(lat, k, sub._bound_sq(det_bound))) == full
    if full:
        assert dk_min(lat, k, det_bound) == (full[0].det_sq, full[0])
    else:
        with pytest.raises(InvalidInputError):
            dk_min(lat, k, det_bound)


def test_shells_yield_a_witness_on_a_bound_once(monkeypatch):
    bounds_sq = []
    real = sub._orbit_search

    def spy(lat, k, det_bound_sq, gens):
        bounds_sq.append(det_bound_sq)
        return real(lat, k, det_bound_sq, gens)

    monkeypatch.setattr(sub, "_orbit_search", spy)
    got = list(sub._shells(catalog("Z", 4), 1, sub._bound_sq(3)))
    # Hermite's start lambda_1^2 / gamma_1 = 1, then 4, then det_bound^2
    assert bounds_sq == [1, 4, 9]
    assert [w.coeffs for w in got].count(((1, 1, 1, 1),)) == 1
    # the primitive vectors of Z^4 of norm 1 to 4, one per +- pair
    assert [w.det_sq for w in got][:40] == [1] * 4 + [2] * 12 + [3] * 16 + [4] * 8


def test_shells_reduce_the_dual_once(monkeypatch):
    import latgeom.lattice as lattice_mod
    # k = 3 > 4 - 3 searches the dual, at 4 growing bounds; D5 takes the
    # same 4 shells, but its last one is a 20 s search
    lat = catalog("D", 4)
    bound = _minima_bound(lat, 3)
    grams, shells = [], []
    real_lll = lattice_mod._lll_transform
    real_search = sub._orbit_search

    def lll(int_gram, delta):
        grams.append(int_gram)
        return real_lll(int_gram, delta)

    def search(lat, k, det_bound_sq, gens):
        if k == 3:  # a shell, not its search on the dual side
            shells.append(det_bound_sq)
        return real_search(lat, k, det_bound_sq, gens)

    monkeypatch.setattr(lattice_mod, "_lll_transform", lll)
    monkeypatch.setattr(sub, "_orbit_search", search)
    assert sum(1 for _ in sub._shells(lat, 3, sub._bound_sq(bound))) == 1560
    assert len(shells) == 4
    assert grams.count(la.integer_form(la.inverse(lat.gram()))) == 1


def test_an_empty_shell_lists_nothing(monkeypatch):
    # dk_min(Z6, 5) searches the dual side at k = 1, in shells from
    # Hermite's bound up; the shells whose cap is below lambda_1(Z6*)^2 = 1
    # hold no vector and return before any listing
    listed, pairs = [], sub.vector_pairs_within
    monkeypatch.setattr(sub, "vector_pairs_within",
                        lambda lat, b: listed.append(b) or pairs(lat, b))
    assert dk_min(catalog("Z", 6), 5)[0] == 1
    assert listed == [1]


def _key_of(rows):
    echelon = []
    for r in rows:
        assert la.add_independent(echelon, list(r))
    return sub._span_key(echelon)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.integers(k + 1, 6).flatmap(lambda m: st.lists(
        st.lists(st.integers(-4, 4), min_size=m, max_size=m),
        min_size=k, max_size=k)),
    st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
             min_size=k, max_size=k))))
def test_span_key_depends_on_the_rational_span_only(rows_and_t):
    rows, t = rows_and_t
    assume(la.rank(rows) == len(rows) and la.det_int(t) != 0)
    key = _key_of(rows)
    assert _key_of(la.mat_mul(t, rows)) == key
    assert _key_of(la.saturation(rows)) == key
    # the reduced row echelon form, each row scaled to a primitive integer
    # row with a positive pivot
    rref, pivots = sp.Matrix(rows).rref()
    want = []
    for i, c in enumerate(pivots):
        row = rref.row(i)
        den = math.lcm(*(int(sp.denom(x)) for x in row))
        ints = [int(x * den) for x in row]
        g = math.gcd(*ints)
        want.append(tuple(x // g for x in ints))
    assert key == tuple(want)


def test_dk_min_d6_planes_of_rank_three():
    # D_3(D6) = 2: the sublattice D3 on three coordinates. Too slow for the
    # suite while the search ran to the full bound before reading the head
    d2, w = dk_min(catalog("D", 6), 3)
    assert d2 == 4 and w.det_sq == 4 and w.k == 3
    assert w.saturated and la._saturated([list(r) for r in w.coeffs])
    assert sub._sub_det_sq(catalog("D", 6), w.coeffs) == 4


def test_float_det_bound_is_read_like_every_outside_number():
    # the float 0.49 reads as 49/100, as it does on the command line, so
    # the three coordinate planes of det 49/100 are in
    lat = catalog("Z", 3).scaled(Fraction(49, 100))
    want = enumerate_sublattices(lat, 2, Fraction(49, 100))
    assert len(want) == 3
    assert enumerate_sublattices(lat, 2, 0.49) == want
    assert dk_min(lat, 2, 0.49)[0] == Fraction(2401, 10000)
