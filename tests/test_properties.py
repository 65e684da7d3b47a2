"""Randomized invariant suites: 1000 seeded cases per property, small ranks.

Plain seeded loops keep the runtime predictable; a few hypothesis strategies
cover the same ground with shrinking for the cheapest invariants.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latgeom._linalg as la
from latgeom.enumeration import (closest_vector, covering_radius,
                                 shortest_vectors, successive_minima,
                                 voronoi_cell)
from latgeom.impassability import (is_nonseparable_ball_lattice,
                                   passage_certificate)
from latgeom.lattice import Lattice, catalog, dual
from latgeom.polytope import Polytope, cross_polytope, cube
from latgeom.sublattice import project_along, saturate, witness

CASES = 1000


def _random_lattice(rng, n, spread=3):
    while True:
        rows = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        if la.det([[Fraction(x) for x in r] for r in rows]) != 0:
            break
    scale_sq = rng.choice([1, 2, 3, Fraction(1, 2), Fraction(1, 3)])
    return Lattice.from_rows(rows, scale_sq=scale_sq)


def _random_unimodular(rng, n, steps=8):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    if rng.random() < 0.5:
        rng.shuffle(u)
    return u


def test_certificate_validation_1000():
    rng = random.Random(11)
    found = 0
    for _ in range(CASES):
        n = rng.choice([2, 3])
        lat = _random_lattice(rng, n, spread=2)
        l1_sq, _ = shortest_vectors(lat)
        # radius below lambda_1/2 so certificate search is meaningful
        r = Fraction(float(l1_sq) ** 0.5 / 2).limit_denominator(100) * \
            Fraction(rng.randint(3, 9), 10)
        cert = passage_certificate(lat, r, 1, validate=True)
        if cert is not None:
            found += 1
            # validate=True brute-force checks every nearby lattice point;
            # re-assert the headline inequality here
            assert float(cert.mu) > float(r)
            assert cert.validation_points > 0
    assert found > CASES // 4  # sanity: search does find certificates


def test_projection_determinant_identity_1000():
    rng = random.Random(23)
    for _ in range(CASES):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        lat = _random_lattice(rng, n)
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            if la.rank([[Fraction(x) for x in r] for r in rows]) == k:
                break
        w = saturate(witness(lat, rows))
        proj = project_along(w)
        assert proj.det_sq() * w.det_sq == lat.det_sq()


def test_polar_involution_1000():
    rng = random.Random(37)
    for _ in range(CASES):
        n = rng.choice([2, 2, 2, 3])
        pts = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
               for _ in range(rng.randint(n + 1, n + 4))]
        # force 0 strictly inside by including a small cross-polytope
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1, 2)
            pts.append(list(e))
            pts.append([-x for x in e])
        p = Polytope.from_vertices(pts)
        assert p.polar().polar() == p


def test_scaling_laws_1000():
    rng = random.Random(41)
    for _ in range(CASES):
        n = rng.randint(2, 4)
        lat = _random_lattice(rng, n)
        t_sq = rng.choice([Fraction(2), Fraction(3), Fraction(1, 2),
                           Fraction(9, 4)])
        scaled = lat.scaled(t_sq)
        assert scaled.det_sq() == lat.det_sq() * t_sq ** n
        l1, _ = shortest_vectors(lat)
        l1s, _ = shortest_vectors(scaled)
        assert l1s == l1 * t_sq


def test_polytope_scaling_laws_1000():
    rng = random.Random(43)
    for _ in range(CASES):
        n = rng.choice([2, 2, 3])
        body = rng.choice([cube(n), cross_polytope(n)])
        c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        assert body.scaled(c).coordinate_volume() == \
            body.coordinate_volume() * c ** n
        # polar of the scaled body is the 1/c-scaled polar
        assert body.scaled(c).polar() == body.polar().scaled(Fraction(1) / c)


def test_unimodular_invariance_1000():
    rng = random.Random(53)
    for _ in range(CASES):
        n = rng.randint(2, 4)
        lat = _random_lattice(rng, n)
        other = lat.transformed(_random_unimodular(rng, n))
        assert other.det_sq() == lat.det_sq()
        assert shortest_vectors(other)[0] == shortest_vectors(lat)[0]
        assert successive_minima(other)[0] == successive_minima(lat)[0]


def test_voronoi_volume_equals_determinant_random():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.choice([2, 3])
        lat = _random_lattice(rng, n, spread=2)
        cell = voronoi_cell(lat)
        assert cell.coordinate_volume() == 1  # coefficient space: unit covolume
        assert float(cell.volume()) == pytest.approx(float(lat.determinant()),
                                                     rel=1e-9)


def test_cvp_within_covering_radius_random():
    rng = random.Random(71)
    for _ in range(120):
        n = rng.choice([2, 3])
        lat = _random_lattice(rng, n, spread=2)
        mu_sq, _ = covering_radius(lat)
        t = [Fraction(rng.randint(-10, 10), 7) for _ in range(n)]
        dist_sq, _ = closest_vector(lat, t)
        assert dist_sq <= mu_sq


def test_nonsep_duality_random():
    # non-separability must agree with the absence of hyperplane certificates
    rng = random.Random(83)
    for _ in range(50):
        n = rng.choice([2, 3])
        lat = _random_lattice(rng, n, spread=2)
        d = dual(lat)
        l1d, _ = shortest_vectors(d)
        r = Fraction(1, 2) / Fraction(float(l1d) ** 0.5).limit_denominator(1000)
        for factor in (Fraction(9, 10), Fraction(11, 10)):
            rr = r * factor
            flag, _ = is_nonseparable_ball_lattice(lat, rr)
            cert = passage_certificate(lat, rr, n - 1, validate=False)
            if flag:
                assert cert is None
            # one-sided: absence of a certificate within the default bound
            # does not prove non-separability, so no converse assertion


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_hypothesis_dual_involution(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    if la.det(m) == 0:
        return
    lat = Lattice.from_rows(rows)
    dd = dual(dual(lat))
    assert dd.det_sq() == lat.det_sq()
    assert shortest_vectors(dd)[0] == shortest_vectors(lat)[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_hypothesis_minima_sorted_and_attained(n, seed):
    rng = random.Random(seed)
    lat = _random_lattice(rng, min(n, 4), spread=2)
    norms, vecs = successive_minima(lat)
    assert norms == sorted(norms)
    for q, v in zip(norms, vecs):
        assert lat.norm_sq(list(v)) == q
