import itertools
import json
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import latgeom._linalg as la
from latgeom import cli
from latgeom.bounds import dnk_known, dnk_lower, dnn1_ball
from latgeom.enumeration import (_covering_radius_bound, covering_radius,
                                 covering_density, packing_density,
                                 shortest_vectors, successive_minima)
from latgeom.errors import (CapabilityError, CertificateValidationError,
                            InvalidInputError, MissingConstantError,
                            NotAPackingError)
from latgeom.impassability import (_validate_certificate,
                                   _validation_radius_sq, ball_lattice_density, free_cylinder,
                                   is_nonseparable_ball_lattice,
                                   max_clearance, passage_certificate)
from latgeom.lattice import Lattice, catalog, dual_in_span
from latgeom.sublattice import (_det_bound_sq, _shells, dk_min,
                                enumerate_sublattices, project_along)


def _minima_bound(lat, k):
    """3 lambda_1 ... lambda_k, exact: the default determinant bound of
    ``max_clearance`` below k = n - 1, here passed at every k."""
    return la._sqrt_rational(9 * math.prod(successive_minima(lat)[0][:k]))


def test_certificate_cubic_lattice():
    cert = passage_certificate(catalog("Z", 3), Fraction(6, 10), 1)
    assert cert is not None
    assert cert.validated and cert.validation_points > 0
    assert float(cert.mu) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert cert.clearance_float == pytest.approx(math.sqrt(2) / 2 - 0.6, abs=1e-12)


def test_projection_over_the_voronoi_cap_is_capability_error():
    with pytest.raises(CapabilityError, match="capped at rank 8; got rank 9"):
        passage_certificate(catalog("Z", 10), Fraction(1, 4), 1)


def test_leech_meets_the_hyperplane_threshold():
    # Leech is unimodular with minimum 4, so its dual's lambda_1 is 2 and
    # balls of radius 1/4 sit exactly at d_{24,23} (Conway & Sloane, ch. 4)
    leech, r = catalog("Leech", 24), Fraction(1, 4)
    assert is_nonseparable_ball_lattice(leech, r) == (True, 0.0)
    assert ball_lattice_density(leech, r) == dnn1_ball(24).value_exact


def test_certificate_none_when_balls_too_big():
    # Z^2 with r = 0.8 > mu of every line projection within the bound
    assert passage_certificate(catalog("Z", 2), Fraction(8, 10), 1) is None


def test_certificate_plane_lift_is_orthogonal():
    cert = passage_certificate(catalog("Z", 3), Fraction(1, 2), 1)
    base, dirs = cert.plane
    for d in dirs:
        assert sum(a * b for a, b in zip(base, d)) == pytest.approx(0, abs=1e-9)
        assert sum(x * x for x in d) == pytest.approx(1, abs=1e-12)


def test_max_clearance_fcc():
    fcc = catalog("D", 3).scaled(2)
    clearance, cert = max_clearance(fcc, 1, 1)
    assert clearance == pytest.approx(3 * math.sqrt(2) / 4 - 1, abs=1e-12)
    assert cert.validated
    # the witness is a minimal vector of the lattice
    assert cert.witness.det_sq == 4


def test_max_clearance_deterministic():
    fcc = catalog("D", 3).scaled(2)
    _, c1 = max_clearance(fcc, 1, 1)
    _, c2 = max_clearance(fcc, 1, 1)
    assert c1.witness.coeffs == c2.witness.coeffs
    assert c1.deep_hole == c2.deep_hole


def test_max_clearance_d4():
    d4 = catalog("D", 4).scaled(2)
    clearance, cert = max_clearance(d4, 1, 1)
    assert clearance > math.sqrt(5) / 2 - 1
    assert cert.validated


def test_k2_certificate_z4():
    cert = passage_certificate(catalog("Z", 4), Fraction(1, 2), 2)
    assert cert is not None
    assert float(cert.mu) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_nonseparable_cubic_zero_margin():
    for n in (2, 3, 4):
        flag, margin = is_nonseparable_ball_lattice(catalog("Z", n), Fraction(1, 2))
        assert flag
        assert margin == pytest.approx(0, abs=1e-12)


def test_nonseparable_catalog_lattice():
    flag, margin = is_nonseparable_ball_lattice(catalog("NonSep", 3), 1)
    assert flag
    assert margin == pytest.approx(0, abs=1e-12)


def test_nonseparable_lower_rank_lattices():
    # the dual is taken in the span: lambda_1(E7*)^2 = 3/2, lambda_1(A5*)^2 = 5/6
    flag, margin = is_nonseparable_ball_lattice(catalog("E", 7), Fraction(1, 2))
    assert flag
    assert margin == pytest.approx(math.sqrt(3 / 2) - 1, abs=1e-12)
    flag, margin = is_nonseparable_ball_lattice(catalog("A", 5), Fraction(1, 2))
    assert not flag
    assert margin == pytest.approx(math.sqrt(5 / 6) - 1, abs=1e-12)


@pytest.mark.parametrize("r", [sp.I, -sp.sqrt(2), sp.sqrt(2) * sp.I])
def test_radius_without_a_positive_float_is_invalid_input(r):
    # the square of sqrt(-1) is rational, but it is not positive: the sign
    # is read before the float, which sqrt(-1) does not have
    with pytest.raises(InvalidInputError, match="must be positive"):
        is_nonseparable_ball_lattice(catalog("Z", 2), r)


def test_separable_when_balls_small():
    flag, margin = is_nonseparable_ball_lattice(catalog("Z", 3), Fraction(2, 5))
    assert not flag
    assert margin < 0


def test_density():
    d = ball_lattice_density(catalog("Z", 2), Fraction(1, 2))
    assert sp.simplify(d - sp.pi / 4) == 0


def test_free_cylinder_fcc_floor_exact():
    fcc = catalog("D", 3).scaled(2)
    cw = free_cylinder(fcc, 1, 1, dnk_known(3, 1))
    assert sp.simplify(cw.guaranteed_floor - (3 * sp.sqrt(2) / 4 - 1)) == 0
    assert cw.guaranteed
    assert cw.base_radius >= cw.floor_float - 1e-3
    assert cw.certificate.validated


def test_free_cylinder_d4_floor_exact():
    d4 = catalog("D", 4).scaled(2)
    cw = free_cylinder(d4, 1, 1, dnk_lower(4, 1))
    assert sp.simplify(cw.guaranteed_floor - (sp.sqrt(5) / 2 - 1)) == 0
    assert cw.base_radius > cw.floor_float


def _threshold(n, k):
    """The d_{n,k} the cylinder command uses: known, else the lower bound."""
    try:
        return dnk_known(n, k)
    except MissingConstantError:
        return dnk_lower(n, k)


@pytest.mark.parametrize("name,n,scale_sq,r,k,floor", [
    ("D", 3, 2, 1, 1, "-1 + 3*sqrt(2)/4"),
    ("Z", 2, 5, 1, 1, "-1 + sqrt(10)*3**(1/4)/4"),
    ("Z", 3, 1, Fraction(1, 3), 2, "-1 + 3*2**(5/6)/4"),
    ("A", 4, 1, Fraction(1, 4), 2, "-1 + 4*5**(1/8)*6**(1/4)/3"),
])
def test_free_cylinder_floor_strings(name, n, scale_sq, r, k, floor):
    # the n-th root leaves products of radicals such as 2**(2/3)*2**(5/6);
    # the floor merges them into one canonical string
    lat = catalog(name, n).scaled(scale_sq)
    cw = free_cylinder(lat, r, k, _threshold(n, k))
    assert str(cw.guaranteed_floor) == floor
    assert str(sp.simplify(cw.guaranteed_floor)) == floor


def test_free_cylinder_reads_a_float_threshold_exactly():
    # a float threshold is read as the rational it is, not guessed to be
    # the closed form 9*pi/32 that it approximates
    fcc = catalog("D", 3).scaled(2)
    d = float(9 * sp.pi / 32)
    cw = free_cylinder(fcc, 1, 1, d)
    exact = free_cylinder(fcc, 1, 1, dnk_known(3, 1))
    density = ball_lattice_density(fcc, 1)
    read = sp.simplify((cw.guaranteed_floor + 1) ** 3 * density)
    assert read == sp.Rational(la._rational(d)) and read.is_Rational
    assert cw.guaranteed_floor != exact.guaranteed_floor
    assert cw.floor_float == pytest.approx(exact.floor_float, rel=1e-12)


def test_free_cylinder_rejects_overlapping_balls():
    with pytest.raises(NotAPackingError):
        free_cylinder(catalog("Z", 3), 0.7, 1, dnk_lower(3, 1))


def test_free_cylinder_packing_test_is_exact():
    # lambda_1^2 = 1 < 4 r^2 = 1 + 4e-11 + 4e-22: overlapping by a margin
    # below any float tolerance
    with pytest.raises(NotAPackingError):
        free_cylinder(catalog("Z", 3), Fraction(1, 2) + Fraction(1, 10**11), 1,
                      dnk_lower(3, 1))


def test_free_cylinder_without_direction_is_capability_error():
    # no saturated line of Z^3 has determinant <= 1/2
    with pytest.raises(CapabilityError):
        free_cylinder(catalog("Z", 3), Fraction(49, 100), 1, dnk_lower(3, 1),
                      det_bound=Fraction(1, 2))


def test_free_cylinder_no_guarantee_flag():
    # Z^3 at r = 0.49 is denser than the d_{3,2} threshold: floor < 0, but
    # the axis direction still clears the balls by 0.01
    cw = free_cylinder(catalog("Z", 3), Fraction(49, 100), 2, dnk_lower(3, 2))
    assert not cw.guaranteed
    assert cw.floor_float <= 0
    assert cw.base_radius == pytest.approx(0.01, abs=1e-12)


def test_string_radius_reads_as_its_fraction():
    z3, r, q = catalog("Z", 3), "1/4", Fraction(1, 4)
    cert, want = passage_certificate(z3, r, 1), passage_certificate(z3, q, 1)
    assert cert.to_dict() == want.to_dict()
    assert cert.clearance_float == want.clearance_float
    assert max_clearance(z3, r, 1)[0] == max_clearance(z3, q, 1)[0]
    assert free_cylinder(z3, r, 1, dnk_lower(3, 1)).to_dict() == \
        free_cylinder(z3, q, 1, dnk_lower(3, 1)).to_dict()


def test_certificate_serialization():
    cert = passage_certificate(catalog("Z", 3), Fraction(1, 2), 1)
    d = cert.to_dict()
    assert d["validated"] is True
    assert d["k"] == 1
    assert isinstance(d["witness"]["coeffs"], list)
    assert d["plane"] is not None


def test_certificate_rejected_when_plane_touches_balls():
    # projecting Z^4 along a coordinate axis leaves Z^3 with mu^2 = 3/4 =
    # r^2: the plane through the deep hole touches the balls, clearance 0
    assert passage_certificate(catalog("Z", 4), sp.sqrt(3) / 2, 1) is None


def test_validation_failure_is_typed():
    cert = passage_certificate(catalog("Z", 3), Fraction(1, 2), 1)
    proj, hole, mu_sq = cert.projection, cert.deep_hole, cert.mu_sq
    assert _validate_certificate(proj, hole, mu_sq, cert.r) > 0
    # a lattice point is no hole
    with pytest.raises(CertificateValidationError):
        _validate_certificate(proj, (0,) * proj.rank, mu_sq, cert.r)
    # a claimed mu^2 above the true one
    with pytest.raises(CertificateValidationError):
        _validate_certificate(proj, hole, mu_sq + Fraction(1, 10**6), cert.r)


def _box_count(gram, center, bound_sq):
    """The points y of Z^m with (y - center) G (y - center)^T <= bound_sq,
    counted in Fractions over the box |y_i - center_i| <= sqrt(bound_sq
    (G^-1)_ii), which holds every such point."""
    inv = la.inverse(gram)
    ranges = []
    for i, c in enumerate(center):
        s = math.isqrt(math.ceil(bound_sq * inv[i][i])) + 1
        ranges.append(range(math.floor(c) - s, math.floor(c) + s + 1))
    count = 0
    for y in itertools.product(*ranges):
        d = [a - c for a, c in zip(y, center)]
        count += sum(d[i] * gram[i][j] * d[j] for i in range(len(d))
                     for j in range(len(d))) <= bound_sq
    return count


# the certificates of the benchmark's impass, cylinder and max_clearance
# cases: (the CLI case's argv or the library call, lattice, scale^2, r, k,
# the count its golden holds)
_BENCH_CERTIFICATES = [
    ("impass --catalog D3 --scale sqrt2 --r 1 --k 1 --verify", "D", 3, 2, 1,
     1, 12),
    ("cylinder --catalog D3 --scale sqrt2 --r 1 --k 1", "D", 3, 2, 1, 1, 12),
    ("cylinder --catalog D4 --scale sqrt2 --r 1 --k 1", "D", 4, 2, 1, 1, 56),
    ("max_clearance", "Z", 4, 1, Fraction(1, 2), 1, 56),
    ("max_clearance", "Z", 4, 1, Fraction(1, 2), 2, 16),
    ("max_clearance", "A", 4, 1, Fraction(1, 2), 1, 44),
]


@pytest.mark.parametrize("case,name,n,scale_sq,r,k,points",
                         _BENCH_CERTIFICATES)
def test_validation_points_count_the_points_near_the_hole(
        capsys, case, name, n, scale_sq, r, k, points):
    # validation_points, printed in every certificate, is the number of
    # projected points within the validation radius of the deep hole
    lat = catalog(name, n).scaled(scale_sq)
    if case.startswith("impass"):
        cert = passage_certificate(lat, r, k)
    else:  # cylinder validates the certificate of max_clearance
        cert = max_clearance(lat, r, k)[1]
    bound_sq = _validation_radius_sq(cert.mu_sq, Fraction(r) ** 2)
    assert cert.validation_points == points == _box_count(
        cert.projection.gram(), cert.deep_hole, bound_sq)
    if case != "max_clearance":
        assert cli.run(case.split()) == 0
        printed = json.loads(capsys.readouterr().out)["certificate"]
        assert printed["deep_hole"] == [str(x) for x in cert.deep_hole]
        assert printed["validation_points"] == points


def _check_ball_densities(lat):
    l1_sq, _ = shortest_vectors(lat)
    mu_sq, _ = covering_radius(lat)
    assert ball_lattice_density(lat, la._sqrt_rational(l1_sq / 4)) == \
        packing_density(lat)
    assert ball_lattice_density(lat, la._sqrt_rational(mu_sq)) == \
        covering_density(lat)


@pytest.mark.parametrize("name,n", (
    [("Z", n) for n in range(1, 8)] + [("A", n) for n in range(1, 6)]
    + [("Astar", n) for n in range(1, 6)] + [("D", n) for n in range(3, 8)]
    + [("E", 6), ("E", 7), ("BambahWoods", None), ("NonSep", None)]))
def test_ball_lattice_density_is_the_packing_and_covering_density(name, n):
    # one density kappa_n rho^n / D(L): rho = lambda_1 / 2 packs, rho = mu
    # covers
    _check_ball_densities(catalog(name, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=n, max_size=n)),
    st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(2, 3)]))
def test_ball_lattice_density_matches_on_random_lattices(rows, scale_sq):
    assume(la.det([[Fraction(x) for x in r] for r in rows]) != 0)
    _check_ball_densities(Lattice.from_rows(rows, scale_sq=scale_sq))


@settings(max_examples=100, deadline=None)
@given(st.fractions(0, 50, max_denominator=10**6),
       st.fractions(0, 50, max_denominator=10**6))
def test_validation_radius_bounds_the_exact_radius(mu_sq, r_sq):
    bound = _validation_radius_sq(mu_sq, r_sq)
    exact = (sp.sqrt(sp.Rational(mu_sq)) + sp.sqrt(sp.Rational(r_sq)) + 1) ** 2
    assert sp.Rational(bound) >= exact
    # each root is rounded up by less than 10^-9
    assert sp.Rational(bound) < (sp.sqrt(exact) + sp.Rational(2, 10**9)) ** 2


@pytest.mark.parametrize("k,spans", [(2, 11), (3, 15)])
def test_max_clearance_node_budget_reports_progress(monkeypatch, k, spans):
    # the search up to symmetry keeps the budget, on both sides (k = 3
    # searches the dual), and says how far it got; the bound on the minima
    # is passed, as the default at k = n - 1 lists only the shortest dual
    # vectors
    lat = catalog("D", 4)
    monkeypatch.setattr("latgeom.sublattice.NODE_BUDGET", 20)
    with pytest.raises(CapabilityError, match=f"node budget 20 after reaching "
                       f"{spans} distinct spans and finding {spans} witnesses"):
        max_clearance(lat, Fraction(2, 5), k, det_bound=_minima_bound(lat, k))


def test_default_search_bound_is_exact():
    # 3 lambda_1 on 6 Z^3 has square 54, the norm of (2, 2, 1), which the
    # search keeps; a float 3.0 * sqrt(6.0) squares to less and stopped the
    # search at det^2 36
    lat = catalog("Z", 3).scaled(6)
    bound_sq = _det_bound_sq(lat, 1, None, 9)
    assert bound_sq == 54
    ws = list(_shells(lat, 1, bound_sq))
    assert max(w.det_sq for w in ws) == 54
    assert ((2, 2, 1),) in {w.coeffs for w in ws}


def _exhaustive(lat, r, k, det_bound):
    """(max_clearance key and hole, first certificate) with a covering
    radius for every witness, checking the pruning bound on each."""
    best = first = None
    for w in enumerate_sublattices(lat, k, det_bound):
        proj = project_along(w)
        mu_sq, hole = covering_radius(proj)
        assert _covering_radius_bound(proj) >= mu_sq
        key = (-mu_sq, w.coeffs)
        if best is None or key < best[0]:
            best = (key, hole)
        if first is None and mu_sq > r * r:
            first = (w.coeffs, hole, mu_sq)
    return best, first


@st.composite
def _passage_inputs(draw):
    m = draw(st.sampled_from([3, 4]))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                         min_size=m, max_size=m))
    assume(la.det_int(rows) != 0)
    k = draw(st.integers(1, m - 1))
    r = draw(st.fractions(Fraction(1, 10), Fraction(3, 2), max_denominator=12))
    return la.gram_matrix(rows), k, r


def test_clearance_and_certificate_share_one_float():
    # mu^2 = 11/36 here: sqrt(float(11/36)) - r rounds mu^2 before its
    # root and gives 0.4277707983925667, one bit above the certificate's
    lat = Lattice.from_gram([[1, 0], [0, Fraction(11, 9)]])
    clearance, cert = max_clearance(lat, Fraction(1, 8), 1)
    assert clearance == cert.clearance_float == 0.4277707983925666
    cyl = free_cylinder(lat, Fraction(1, 8), 1, 1)
    assert cyl.base_radius == cert.clearance_float


@settings(max_examples=25, deadline=None)
@given(_passage_inputs())
# max_clearance tie: e1 (det^2 7) projects to the A2 Gram times 6, the later
# e3 (det^2 12, smaller HNF) to an orthogonal lattice whose bound equals its
# mu^2 = 4
@example(([[7, 0, 0], [0, 12, 6], [0, 6, 12]], 1, Fraction(1, 2)))
# passage tie: the first witness e1 has mu^2 = 25/4 = r^2, so nothing clears
@example(([[4, 0, 0], [0, 9, 0], [0, 0, 16]], 1, Fraction(5, 2)))
def test_pruned_search_matches_exhaustive(inputs):
    gram, k, r = inputs
    lat = Lattice.from_gram(gram)
    det_bound = _minima_bound(lat, k)
    best, first = _exhaustive(lat, r, k, det_bound)

    clearance, cert = max_clearance(lat, r, k, det_bound=det_bound)
    if best is None:
        assert cert is None and clearance == float("-inf")
    else:
        (neg_mu_sq, coeffs), hole = best
        assert clearance == float(la._sqrt_rational(-neg_mu_sq)) - float(r)
        if -neg_mu_sq > r * r:
            assert (cert.witness.coeffs, cert.deep_hole, cert.mu_sq) == \
                (coeffs, hole, -neg_mu_sq)
            assert cert.validated
        else:
            assert cert is None

    cert = passage_certificate(lat, r, k, det_bound=det_bound)
    if first is None:
        assert cert is None
    else:
        assert (cert.witness.coeffs, cert.deep_hole, cert.mu_sq) == first


def _same_as_the_minima_bound(lat, r):
    """At k = n - 1 the default bound, D_{n-1}(L), gives what a search at the
    bound on the successive minima gives: every certificate field of
    ``max_clearance`` and ``passage_certificate`` at 3 lambda_1 ...
    lambda_{n-1}, and ``dk_min``'s (det^2, witness) at lambda_1 ...
    lambda_{n-1}."""
    k = lat.rank - 1
    bound = _minima_bound(lat, k)
    assert max_clearance(lat, r, k) == \
        max_clearance(lat, r, k, det_bound=bound)
    assert passage_certificate(lat, r, k) == \
        passage_certificate(lat, r, k, det_bound=bound)
    assert dk_min(lat, k) == dk_min(lat, k, det_bound=bound / 3)


@pytest.mark.parametrize("name,n", [("Z", n) for n in range(2, 6)]
                         + [(k, n) for k in ("A", "Astar") for n in range(2, 6)]
                         + [("D", 3), ("D", 4), ("D", 5), ("BambahWoods", 3),
                            ("NonSep", 3)], ids=lambda v: str(v))
@pytest.mark.parametrize("r", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)],
                         ids=str)
def test_hyperplane_bound_matches_the_minima_bound(name, n, r):
    _same_as_the_minima_bound(catalog(name, n), r)


@st.composite
def _hyperplane_inputs(draw):
    m = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                         min_size=m, max_size=m))
    assume(la.det_int(rows) != 0)
    r = draw(st.fractions(Fraction(1, 10), Fraction(3, 2), max_denominator=12))
    return Lattice.from_rows(rows), r


@settings(max_examples=25, deadline=None)
@given(_hyperplane_inputs())
def test_hyperplane_bound_matches_the_minima_bound_random(inputs):
    _same_as_the_minima_bound(*inputs)


@pytest.mark.parametrize("name,n,mu_sq", [
    ("D", 6, Fraction(1, 4)), ("E", 6, Fraction(3, 16)),
    ("E", 7, Fraction(1, 6)), ("E", 8, Fraction(1, 8))], ids=str)
def test_hyperplane_clearance_reads_the_shortest_dual_vector(name, n, mu_sq):
    # the best hyperplane sublattice is orthogonal to a shortest dual
    # vector u, and the projection along it has spacing 1 / |u|; the
    # search at 3 lambda_1 ... lambda_{n-1} stopped at the point budget
    lat = catalog(name, n)
    _, cert = max_clearance(lat, Fraction(1, 4), n - 1)
    assert cert.mu_sq == mu_sq == \
        1 / (4 * shortest_vectors(dual_in_span(lat))[0])
    assert cert.validated


def test_transference_ends_a_search_no_direction_can_win(monkeypatch):
    # on (1/2) Z^4, 4 r^2 lambda_1(L*)^2 = 4 (1/16) 4 = 1 = (4 - 3)^2, so no
    # projection along a 3-sublattice clears r = 1/4; the search stops after
    # its first witness instead of projecting all 149,584 within the bound
    real, calls = project_along, []

    def spy(w):
        calls.append(w)
        assert len(calls) <= 10, "the search ran past the transference bound"
        return real(w)

    monkeypatch.setattr("latgeom.impassability.project_along", spy)
    lat = catalog("Z", 4).scaled(Fraction(1, 4))
    assert passage_certificate(lat, Fraction(1, 4), 3, det_bound=2) is None
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(_passage_inputs())
def test_hyperplane_certificate_exactly_when_separable(inputs):
    # at k = n - 1 the transference exit is the dual-packing criterion, and
    # the default bound reaches a certificate whenever one exists
    gram, _, r = inputs
    lat = Lattice.from_gram(gram)
    cert = passage_certificate(lat, r, lat.rank - 1)
    assert (cert is None) == is_nonseparable_ball_lattice(lat, r)[0]
