"""Lattice point enumeration: shortest and closest vectors, successive
minima, Voronoi-relevant vectors, Dirichlet-Voronoi cells, covering radii,
and packing/covering densities.

All enumeration runs in integers on the LLL-reduced basis, computed once
per lattice value: the branch bounds come from the fraction-free
elimination of its integer Gram, and norms are ints over one denominator,
so every pruning decision and every reported norm is exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import _linalg as la
from .errors import CapabilityError
from .lattice import Lattice, _once, reduce as lll_reduce

MAX_ENUM_RANK = 12
MAX_VORONOI_RANK = 8
POINT_BUDGET = 10**6


def kappa(n: int):
    """Volume of the n-dimensional unit ball, exact: pi^m / m! for n = 2m,
    and 2^n m! pi^m / n! for n = 2m + 1."""
    m, f = n // 2, math.factorial
    c = Fraction(2 ** n * f(m), f(n)) if n % 2 else Fraction(1, f(m))
    return la.ClosedForm(c, 1, m)


def _check_rank(lat: Lattice, cap: int, what: str):
    if lat.rank > cap:
        raise CapabilityError(
            f"{what} capped at rank {cap}; got rank {lat.rank}")


def _reduced(lat: Lattice):
    """(red, U): the LLL reduction of lat, computed once per lattice value,
    and its transform U, which maps red's coordinates to lat's."""
    red = _once(lat, "reduced", lambda: lll_reduce(lat))
    return red, lat._memo["reduction_transform"]


def _reduced_inverse(lat: Lattice):
    """U^{-1} for the transform U of ``_reduced``, as int rows: it maps
    lat's coordinates to red's. Computed on the first request only, as most
    reduced lattices never need it."""
    def compute():
        _, u = _reduced(lat)
        return tuple(tuple(int(x) for x in row) for row in la.inverse(u))
    return _once(lat, "reduced_inverse", compute)


def _enumerate_gram(lat: Lattice, center, bound_sq):
    """All integer x with (x - center)^T G (x - center) <= bound_sq, G the
    Gram of lat, as (x, q, den) triples, in ints throughout: the squared
    distance of x is q / den, with one den for the whole list, so distances
    compare as ints.

    With G = G_int / d, c the lcm of the center's denominators and
    z = c x - c center, the form is sum_i (a_i . z)^2 / (d c^2 D_i D_{i+1})
    over the rows a_i of lat's cached elimination. Times L = lcm(D_i D_{i+1})
    each term and the budget floor(bound_sq d c^2 L) are ints, so isqrt gives
    the exact range of x_i, fixed last first and in ascending order. A list
    longer than ``POINT_BUDGET`` raises CapabilityError, as soon as the
    range of x_0 shows it, before those points are built.
    """
    return _scan(lat, center, bound_sq, False)


def _scan(lat: Lattice, center, bound_sq, nearest):
    """The search of ``_enumerate_gram``; with ``nearest`` the bound drops to
    the best distance found so far, a branch that cannot reach it is cut,
    and only the points at the final best distance are kept."""
    e = lat._elimination
    m = len(e)
    _, d = lat.int_gram
    center = [Fraction(t) for t in center]
    c = math.lcm(*(t.denominator for t in center))
    ct = [t.numerator * (c // t.denominator) for t in center]
    minors = [1] + [e[i][i] for i in range(m)]
    pairs = [a * b for a, b in zip(minors, minors[1:])]
    scale = math.lcm(*pairs)
    w = [scale // p for p in pairs]
    den = d * c * c * scale
    limit = math.floor(Fraction(bound_sq) * den)
    x = [0] * m
    z = [0] * m
    results = []

    def rec(i, used):
        nonlocal limit
        if i < 0:
            if nearest and used < limit:
                limit = used
                results.clear()
            results.append((tuple(x), used, den))
            return
        a, wi, cti = e[i], w[i], ct[i]
        s = sum(a[j] * z[j] for j in range(i + 1, m))
        t = math.isqrt((limit - used) // wi)
        # |D_{i+1} (c x_i - ct_i) + s| <= t
        p, base = a[i] * c, a[i] * cti - s
        lo, hi = -((t - base) // p), (base + t) // p
        if i == 0 and len(results) + hi - lo >= POINT_BUDGET:
            raise CapabilityError(
                f"enumeration exceeded the point budget {POINT_BUDGET} "
                f"({len(results)} points collected)")
        for xi in range(lo, hi + 1):
            x[i] = xi
            z[i] = zi = c * xi - cti
            v = a[i] * zi + s
            q = used + v * v * wi
            if q <= limit:
                rec(i - 1, q)
            elif v > 0:  # v grows with x_i: the rest of the range is out
                break

    if limit >= 0:
        rec(m - 1, 0)
    return results


def _nearest(red: Lattice, t):
    """The points of red nearest to the rational target t (Fractions, in
    red's coordinates), in enumeration order, and their squared distance
    q / den, as (points, q, den).

    Babai's rounding of t is a lattice point, so its squared distance,
    formed in ints against G_int over d c^2 with c the lcm of t's
    denominators, is the first bound of the search. The bound then drops
    to the best distance found so far (Schnorr & Euchner), so a branch
    that cannot reach it is cut; a point at that distance is a tie and is
    kept, so the ties come in the order of the full ``_enumerate_gram``
    listing.
    """
    g, d = red.int_gram
    c = math.lcm(*(v.denominator for v in t))
    dz = [round(v) * c - v.numerator * (c // v.denominator) for v in t]
    bound = Fraction(sum(a * la.dot(row, dz) for a, row in zip(dz, g)),
                     d * c * c)
    found = _scan(red, t, bound, True)
    return [x for x, _, _ in found], found[0][1], found[0][2]


def vectors_within(lat: Lattice, bound_sq):
    """All nonzero lattice vectors with squared norm <= bound_sq, as
    (coeffs, norm_sq) pairs in the original basis, sorted by
    (norm_sq, coeffs)."""
    _check_rank(lat, MAX_ENUM_RANK, "enumeration")
    red, u = _reduced(lat)
    found = sorted((q, tuple(la.vec_mat(x, u)), den) for x, q, den
                   in _enumerate_gram(red, [0] * lat.rank, bound_sq) if any(x))
    return [(v, Fraction(q, den)) for q, v, den in found]


def _nonzero_within(red: Lattice, bound_sq):
    """The nonzero points of red up to bound_sq, as (q, x, den) sorted by
    (q, x): the norm q / den first, ties on reduced coordinates."""
    return sorted((q, x, den) for x, q, den
                  in _enumerate_gram(red, [0] * red.rank, bound_sq) if any(x))


def shortest_vectors(lat: Lattice):
    """(lambda_1 squared, canonical coefficient vectors of all minimal
    vectors, one per +- pair, sorted lexicographically)."""
    _check_rank(lat, MAX_ENUM_RANK, "enumeration")
    red, u = _reduced(lat)
    found = _nonzero_within(red, min(red._gram[i][i] for i in range(lat.rank)))
    best, _, den = found[0]
    mins = {la._canonical_sign(la.vec_mat(x, u))
            for q, x, _ in found if q == best}
    return Fraction(best, den), sorted(mins)


def successive_minima(lat: Lattice):
    """Squared successive minima lambda_k^2 with achieving linearly
    independent coefficient vectors: (list of norm_sq, list of coeffs).
    Ties go to the least vector in reduced coordinates."""
    _check_rank(lat, MAX_ENUM_RANK, "enumeration")
    red, u = _reduced(lat)
    chosen, norms, echelon = [], [], []
    for q, x, den in _nonzero_within(
            red, max(red._gram[i][i] for i in range(lat.rank))):
        if la.add_independent(echelon, x):
            chosen.append(la._canonical_sign(la.vec_mat(x, u)))
            norms.append(Fraction(q, den))
            if len(chosen) == lat.rank:
                break
    assert len(chosen) == lat.rank  # LLL diagonal bounds guarantee this
    return norms, chosen


def closest_vectors(lat: Lattice, target_coeffs):
    """Closest lattice vectors to a target given by (rational) coefficients
    in the lattice basis: (dist_sq, sorted list of coefficient vectors)."""
    _check_rank(lat, MAX_ENUM_RANK, "enumeration")
    red, u = _reduced(lat)
    # target in reduced coordinates: t_red = t . u^{-1}
    t = la.vec_mat([la._rational(c) for c in target_coeffs],
                   _reduced_inverse(lat))
    mins, best, den = _nearest(red, t)
    return Fraction(best, den), sorted(tuple(la.vec_mat(x, u)) for x in mins)


def closest_vector(lat: Lattice, target_coeffs):
    """Single closest vector; ties broken by lexicographically least
    coefficient vector."""
    d, vs = closest_vectors(lat, target_coeffs)
    return d, vs[0]


def relevant_vectors(lat: Lattice):
    """Voronoi-relevant vectors, one per +- pair, as a sorted tuple of
    coefficient vectors; computed once per lattice value.

    A nonzero v is relevant iff +-v are the unique minimizers of the norm in
    the coset v + 2L; scanning the 2^m - 1 nonzero cosets of L/2L finds all
    of them.
    """
    _check_rank(lat, MAX_VORONOI_RANK, "Voronoi computation")
    return _once(lat, "relevant_vectors", lambda: _coset_scan(lat))


def _coset_scan(lat: Lattice):
    # ||b + 2y||^2 = 4 ||y + b/2||^2: the minimizers of the coset b + 2L are
    # b + 2y for the points y nearest to -b/2
    red, u = _reduced(lat)
    out = []
    for bits in itertools.product((0, 1), repeat=lat.rank):
        if not any(bits):
            continue
        mins, _, _ = _nearest(red, [Fraction(-b, 2) for b in bits])
        if len(mins) == 2:
            v = [b + 2 * y for b, y in zip(bits, mins[0])]
            out.append(la._canonical_sign(la.vec_mat(v, u)))
    return tuple(sorted(out))


def voronoi_cell(lat: Lattice):
    """Dirichlet-Voronoi cell in coefficient coordinates, carrying the Gram
    matrix as its metric so volumes and norms come out right; built once
    per lattice value, so its vertices are found once."""
    rel = relevant_vectors(lat)
    return _once(lat, "voronoi_cell", lambda: _cell(lat, rel))


def _cell(lat: Lattice, rel):
    """The cell {x : <x, v> <= <v, v> / 2 for the relevant +-v}, each row
    v G = (v G_int) / d formed in ints and divided by d once per entry."""
    from .polytope import Polytope
    g, d = lat.int_gram
    rows, b = [], []
    for v in rel:
        gv = la.vec_mat(v, g)
        half = Fraction(la.dot(v, gv), 2 * d)
        for s in (1, -1):
            rows.append([Fraction(s * x, d) for x in gv])
            b.append(half)
    return Polytope.from_halfspaces(rows, b, metric=lat.gram())


def covering_radius(lat: Lattice):
    """(mu squared, deep hole) where mu is the covering radius and the deep
    hole is the lexicographically greatest Voronoi-cell vertex attaining it,
    in coefficient coordinates; computed once per lattice value."""
    _check_rank(lat, MAX_VORONOI_RANK, "Voronoi computation")
    return _once(lat, "covering_radius", lambda: _deep_hole(lat))


def _covering_radius_bound(lat: Lattice):
    """Babai's nearest-plane bound mu^2 <= (1/4) sum ||b*_i||^2 on the
    LLL-reduced basis of lat, as an exact Fraction.

    The GSO norms are ratios of leading principal minors,
    ||b*_i||^2 = D_i / D_{i-1}, and the elimination of the integer Gram
    G_int = d G that the reduced lattice caches holds the minors of G_int on
    its diagonal, so the sum is taken over d once.
    """
    red, _ = _reduced(lat)
    e = red._elimination
    minors = [1] + [e[i][i] for i in range(len(e))]
    return (sum(Fraction(b, a) for a, b in zip(minors, minors[1:]))
            / (4 * red.int_gram[1]))


def _deep_hole(lat: Lattice):
    """(mu^2, deep hole) scored in ints: with G = G_int / d and the cell's
    sorted vertices v = w / D in its integer form, the norm of v is
    w^T G_int w / (d D^2). Ties go to the higher index, which is the
    lexicographically greater vertex; only that vertex becomes Fractions."""
    ints, den = voronoi_cell(lat).integer_vertices()
    g, d = lat.int_gram
    q, i = max((sum(x * sum(gij * y for gij, y in zip(row, w))
                    for x, row in zip(w, g)), i)
               for i, w in enumerate(ints))
    return Fraction(q, d * den * den), tuple(Fraction(x, den) for x in ints[i])


def _lambda1_sq(lat: Lattice):
    """lambda_1^2 of lat, once per value; the catalog seeds the ones it
    knows."""
    return _once(lat, "lambda1_sq", lambda: shortest_vectors(lat)[0])


def packing_density(lat: Lattice):
    """delta_L(B^n) = kappa_n (lambda_1 / 2)^n / D(L), exact."""
    l1 = la._sqrt_rational(_lambda1_sq(lat) / 4)
    return kappa(lat.rank) * l1 ** lat.rank / lat.determinant()


def covering_density(lat: Lattice):
    """theta_L = kappa_n mu^n / D(L), exact."""
    mu = la._sqrt_rational(covering_radius(lat)[0])
    return kappa(lat.rank) * mu ** lat.rank / lat.determinant()
