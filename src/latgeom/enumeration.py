"""Lattice point enumeration: shortest and closest vectors, successive
minima, Voronoi-relevant vectors, Dirichlet-Voronoi cells, covering radii,
and packing/covering densities.

All enumeration runs in integers on the LLL-reduced basis, computed once
per lattice value: the branch bounds come from the fraction-free
elimination of its integer Gram, and norms are ints over one denominator,
so every pruning decision and every reported norm is exact.
"""

from __future__ import annotations

import bisect
import math
import operator
from fractions import Fraction

from . import _linalg as la
from ._linalg import kappa
from .errors import CapabilityError
from .lattice import Lattice, _check_length, _once, reduce as lll_reduce
from .polytope import Polytope

MAX_VORONOI_RANK = 8
POINT_BUDGET = 10**6


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


def _search_constants(lat: Lattice):
    """(w, L, diag, tails) for the searches of ``_enumerate_gram`` and
    ``_minima``, once per lattice value: the weights w_i = L / (D_i D_{i+1}),
    their lcm L = lcm(D_i D_{i+1}), the pivots D_{i+1} and the tail
    a_i[i+1:] of each row of lat's elimination."""
    def compute():
        e = lat._elimination
        minors = [1] + [e[i][i] for i in range(len(e))]
        pairs = [a * b for a, b in zip(minors, minors[1:])]
        scale = math.lcm(*pairs)
        return (tuple(scale // p for p in pairs), scale, tuple(minors[1:]),
                tuple(row[i + 1:] for i, row in enumerate(e)))
    return _once(lat, "search_constants", compute)


def _enumerate_gram(lat: Lattice, center, bound_sq, pairs=False):
    """All integer x with (x - center)^T G (x - center) <= bound_sq, G the
    Gram of lat, as (x, q, den) triples, in ints throughout: the squared
    distance of x is q / den, with one den for the whole list, so distances
    compare as ints.

    With G = G_int / d, c the lcm of the center's denominators and
    z = c x - ct for ct = c center, the form is
    sum_i (a_i . z)^2 / (d c^2 D_i D_{i+1}) over the rows a_i of lat's
    cached elimination. Times L = lcm(D_i D_{i+1}) each term and the limit
    floor(bound_sq d c^2 L) are ints, so isqrt gives the exact range of x_i,
    fixed last first and in ascending order, every x_i within the limit.
    Each level adds every range it enters to its node count, and raises
    CapabilityError before walking a range that takes the count past
    ``POINT_BUDGET`` (``_count``), whatever the rank; a node of level 0 is a
    point of the list, so a longer list raises before it is built.

    The listing around 0 is symmetric, and ``_listing`` walks half of it:
    with ``pairs`` (center 0 only), while x_j = 0 for every j > i the range
    of x_i starts at 0, and the zero vector is dropped, so each +- pair
    gives the one point whose last nonzero coordinate is positive.
    """
    c = math.lcm(*(t.denominator for t in center))
    ct = [t.numerator * (c // t.denominator) for t in center]
    w, scale, diag, tails = _search_constants(lat)
    den = lat.int_gram[1] * c * c * scale
    limit = math.floor(Fraction(bound_sq) * den)
    m = len(diag)
    x, z, nodes, results = [0] * m, [0] * m, [0] * m, []

    def rec(i, used, top):
        # top: pairs mode, and x_j = 0 for every j > i
        if i < 0:
            if not top:
                results.append((tuple(x), used, den))
            return
        wi, cti = w[i], ct[i]
        s = sum(map(operator.mul, tails[i], z[i + 1:]))
        t = math.isqrt((limit - used) // wi)
        # |D_{i+1} (c x_i - ct_i) + s| <= t, with v = p x_i - base
        p, base = diag[i] * c, diag[i] * cti - s
        lo, hi = 0 if top else -((t - base) // p), (base + t) // p
        _count(nodes, i, hi - lo + 1)
        for xi in range(lo, hi + 1):
            x[i] = xi
            z[i] = c * xi - cti
            v = p * xi - base
            rec(i - 1, used + v * v * wi, top and not xi)

    if limit >= 0:
        rec(m - 1, 0, pairs)
    return results


def _count(nodes, i, n):
    """Add n nodes to level i's count, raising CapabilityError once it
    passes ``POINT_BUDGET``."""
    nodes[i] += n
    if nodes[i] > POINT_BUDGET:
        raise CapabilityError(
            f"enumeration exceeded the point budget {POINT_BUDGET} "
            f"at level {i} ({nodes[i]} nodes)")


def _int_norms(lat: Lattice, zs):
    """[L z^T G_int z for z in zs] for int vectors z, with L of
    ``_search_constants``: each squared norm of z times d L, in the units
    of the searches' bounds."""
    g, scale, mul = lat.int_gram[0], _search_constants(lat)[1], operator.mul
    return [scale * sum(map(mul, z, [sum(map(mul, z, row)) for row in g]))
            for z in zs]


def _minima(lat: Lattice, ct, c, mod, limits):
    """[(q, ties)] for each class k = sum_i (x_i mod 2) 2^i of x mod
    ``mod`` (1 or 2): its points least distant from ct / c, the ties in the
    order of the full listing, at q over den = d c^2 L, in one search in
    the ints of ``_enumerate_gram``. limits[k] is the first bound of class
    k, or -1 to skip it.

    A class's bound drops to the best distance found in it (Schnorr &
    Euchner). caps[j][s] is the greatest bound of the classes whose x_j..
    have the residues s, so a subtree is cut at its classes' bound, and a
    drop updates caps along one path. Each x_i runs from the rounded center
    outward, up and then down, and a run stops at its first point over its
    parent's cap, as |a_i . z| only grows away from the center. Every level
    counts the ranges it enters against ``POINT_BUDGET``.

    The classes mod 2 are searched around 0 (ct = 0), where x and -x lie
    in one class at one distance, so that mode walks the half tree, as the
    pairs mode of ``_enumerate_gram`` does: while x_j = 0 for every j > i,
    x_i runs from 0 up, and a class keeps the one point of each +- pair
    whose last nonzero coordinate is positive. The zero vector is class 0,
    which the coset scan skips."""
    assert mod == 1 or not any(ct)
    w, _, diag, tails = _search_constants(lat)
    m = len(diag)
    caps = [list(limits)]
    for _ in range(m):
        caps.append([max(caps[-1][k:k + mod])
                     for k in range(0, len(caps[-1]), mod)])
    ties = [[] for _ in limits]
    x, z, nodes = [0] * m, [0] * m, [0] * m

    def rec(i, used, s, top):
        # top: the half tree, and x_j = 0 for every j > i
        wi, cti, below, cap = w[i], ct[i], caps[i], caps[i + 1]
        h = sum(map(operator.mul, tails[i], z[i + 1:]))
        t = math.isqrt((cap[s] - used) // wi)
        p, base = diag[i] * c, diag[i] * cti - h
        lo, hi = 0 if top else -((t - base) // p), (base + t) // p
        _count(nodes, i, hi - lo + 1)
        mid = (2 * base + p - 1) // (2 * p)  # nearest x_i, ties down
        up = range(mid, hi + 1)
        for run in (up,) if top else (up, range(mid - 1, lo - 1, -1)):
            for xi in run:
                v = p * xi - base
                q = used + v * v * wi
                if q > cap[s]:
                    break
                k = s * mod + xi % mod
                if q > below[k]:
                    continue
                x[i] = xi
                if i:
                    z[i] = c * xi - cti
                    rec(i - 1, q, k, top and not xi)
                    continue
                if q < below[k]:  # a new least point of class k
                    below[k], ties[k], j = q, [], k
                    for a, b in zip(caps, caps[1:]):
                        j //= mod
                        b[j] = max(a[j * mod:j * mod + mod])
                ties[k].append(tuple(x))

    if caps[m][0] >= 0:
        rec(m - 1, 0, 0, mod == 2)
    return [(q, sorted(tt, key=lambda r: r[::-1]))
            for q, tt in zip(caps[0], ties)]


def _nearest(red: Lattice, tt, c):
    """The points of red nearest to the rational target tt / c (ints tt in
    red's coordinates over one c > 0), in enumeration order, and their
    squared distance q / den, as (points, q, den).

    Babai's rounding of the target, in ints, is a lattice point, so its
    squared distance is the first bound of the search of ``_minima``, with
    every point in one class.
    """
    dz = [la._round_div(x, c) * c - x for x in tt]
    (q, ties), = _minima(red, tt, c, 1, _int_norms(red, [dz]))
    return ties, q, red.int_gram[1] * c * c * _search_constants(red)[1]


def _listing(red: Lattice, bound_sq):
    """The nonzero points x of the reduced value red up to bound_sq, one per
    +- pair, as (n, x) sorted by n = x G_int x^T, the int norm over the
    denominator d of ``red.int_gram``, ties by x: the pairs mode of
    ``_enumerate_gram``.

    The listing is kept in red's memo with its bound: a bound at or below
    that one reads a prefix, and a larger bound walks again and replaces
    it, so each value is listed once per growth of its bound."""
    bound_sq = Fraction(bound_sq)
    bound, pts = red._memo.get("listing", (None, ()))
    if bound is None or bound_sq > bound:
        scale = _search_constants(red)[1]
        pts = tuple(sorted(
            (q // scale, x) for x, q, _
            in _enumerate_gram(red, [0] * red.rank, bound_sq, pairs=True)))
        red._memo["listing"] = bound_sq, pts
    top = math.floor(bound_sq * red.int_gram[1])
    return pts[:bisect.bisect_right(pts, top, key=operator.itemgetter(0))]


def vector_pairs_within(lat: Lattice, bound_sq):
    """The nonzero lattice vectors with squared norm <= bound_sq, one per
    +- pair, as (n, coeffs) sorted: coeffs in lat's basis with its first
    nonzero entry positive, and n = d ||v||^2 the int norm over the
    denominator d of ``lat.int_gram``.

    Each point of the reduced value's ``_listing`` is mapped to lat's
    coordinates through the columns of the transform; U keeps the norms."""
    red, u = _reduced(lat)
    cols = tuple(zip(*u))
    return sorted(
        (n, la._canonical_sign([sum(map(operator.mul, x, c)) for c in cols]))
        for n, x in _listing(red, bound_sq))


def vectors_within(lat: Lattice, bound_sq):
    """All nonzero lattice vectors with squared norm <= bound_sq, as
    (coeffs, norm_sq) pairs in the original basis, sorted by
    (norm_sq, coeffs): both signs of each ``vector_pairs_within`` pair."""
    d = lat.int_gram[1]
    both = sorted((n, s) for n, v in vector_pairs_within(lat, bound_sq)
                  for s in (v, tuple(-x for x in v)))
    return [(v, Fraction(n, d)) for n, v in both]


def shortest_vectors(lat: Lattice):
    """(lambda_1 squared, canonical coefficient vectors of all minimal
    vectors, one per +- pair, sorted lexicographically): the pairs of
    ``vector_pairs_within`` up to ``_lambda1_sq``."""
    l1_sq = _lambda1_sq(lat)
    return l1_sq, [v for _, v in vector_pairs_within(lat, l1_sq)]


def successive_minima(lat: Lattice):
    """Squared successive minima lambda_k^2 with achieving linearly
    independent coefficient vectors: (list of norm_sq, list of coeffs).
    Ties go to the least vector in reduced coordinates: the pairs of the
    ``_listing`` up to the greatest reduced basis norm are taken in the
    order of (n, min(x, -x)), which is the order of (n, x) over both signs,
    and the first vector independent of the ones before it is chosen."""
    red, u = _reduced(lat)
    d = red.int_gram[1]
    chosen, norms, echelon = [], [], []
    for n, x in sorted(
            _listing(red, max(red._gram[i][i] for i in range(lat.rank))),
            key=lambda p: (p[0], min(p[1], tuple(-t for t in p[1])))):
        if la.add_independent(echelon, x):
            chosen.append(la._canonical_sign(la.vec_mat(x, u)))
            norms.append(Fraction(n, d))
            if len(chosen) == lat.rank:
                break
    assert len(chosen) == lat.rank  # LLL diagonal bounds guarantee this
    return norms, chosen


def closest_vectors(lat: Lattice, target_coeffs):
    """Closest lattice vectors to a target given by (rational) coefficients
    in the lattice basis: (dist_sq, sorted list of coefficient vectors)."""
    _check_length(target_coeffs, lat.rank, "the target")
    red, u = _reduced(lat)
    # target in reduced coordinates: t_red = t . u^{-1}, over t's lcm c
    (t,), c = la.integer_form([[la._rational(x) for x in target_coeffs]])
    mins, best, den = _nearest(red, la.vec_mat(t, _reduced_inverse(lat)), c)
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
    the coset v + 2L; one search over the 2^m - 1 nonzero cosets of L/2L
    (``_coset_scan``) finds all of them.
    """
    if lat.rank > MAX_VORONOI_RANK:
        raise CapabilityError(f"Voronoi computation capped at rank "
                              f"{MAX_VORONOI_RANK}; got rank {lat.rank}")
    return _once(lat, "relevant_vectors", lambda: _coset_scan(lat))


def _coset_scan(lat: Lattice):
    """The relevant vectors of lat from one ``_minima`` search on its
    reduced basis around 0, a class per coset b + 2L, b in {0, 1}^m, on
    the half tree. Each nonzero coset starts at the norm of b, the rounding
    of -b/2 ties to even, and gives a relevant vector when its minima are
    one +- pair, so that the half tree keeps exactly one point v, mapped
    through U and given its canonical sign."""
    red, u = _reduced(lat)
    m = lat.rank
    found = _minima(red, [0] * m, 1, 2, [-1] + _int_norms(
        red, [[k >> i & 1 for i in range(m)] for k in range(1, 2 ** m)]))
    return tuple(sorted(la._canonical_sign(la.vec_mat(ties[0], u))
                        for _, ties in found if len(ties) == 1))


def voronoi_cell(lat: Lattice):
    """Dirichlet-Voronoi cell in coefficient coordinates, carrying the Gram
    matrix as its metric so volumes and norms come out right; built once
    per lattice value, so its vertices are found once."""
    rel = relevant_vectors(lat)
    return _once(lat, "voronoi_cell", lambda: _cell(lat, rel))


def _cell(lat: Lattice, rel):
    """The cell {x : <x, v> <= <v, v> / 2 for the relevant +-v} in int
    rows: with G = G_int / d, each halfspace times 2 d is
    2 v G_int . x <= v G_int v^T, so neither the rows nor the double
    description's primitive normals need a Fraction.

    The halfspaces are added in ascending norm of v, as the short vectors
    bound the cell most tightly, so the double description meets fewer rays
    that a later row cuts off. Within a shell of one norm the order is
    greedy: next comes the v with the least sum of |v G_int u^T| over the u
    of its shell already placed, ties to the lesser coeffs. The cut then
    starts from a near-orthogonal frame, and on the degenerate cells of
    the root lattices fewer of its new rays are cut again: E7's double
    description makes 430 new ray pairs where coeffs order makes 683, D8's
    488 where it makes 998. The metric is lat's Gram, which its elimination
    has already proved positive definite, so it is passed on without a
    second check."""
    g, _ = lat.int_gram
    rows, b = [], []
    shells = {}
    for v in rel:  # rel is sorted, so each shell is in the order of coeffs
        gv = la.vec_mat(v, g)
        shells.setdefault(la.dot(v, gv), []).append((v, gv))
    for q in sorted(shells):
        rest = shells[q]
        score = [0] * len(rest)
        while rest:
            i = score.index(min(score))  # the first least: lesser coeffs
            del score[i]
            _, gu = rest.pop(i)
            score = [s + abs(la.dot(v, gu)) for s, (v, _) in zip(score, rest)]
            rows += [tuple([2 * x for x in gu]), tuple([-2 * x for x in gu])]
            b += [q, q]
    return Polytope(_a=tuple(rows), _b=tuple(b), metric=lat._gram)


def covering_radius(lat: Lattice):
    """(mu squared, deep hole) where mu is the covering radius and the deep
    hole is the lexicographically greatest Voronoi-cell vertex attaining it,
    in coefficient coordinates; computed once per lattice value. The rank
    cap is checked by ``relevant_vectors``, before any work."""
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
    """(mu^2, deep hole) scored in ints: with the cell's sorted vertices
    v = w / D in its integer form, the norm of v is q / (d L D^2) for
    q in ``_int_norms(lat, W)``, which reads the search constants once, so
    only the best q is divided by the scale. The cell is symmetric about 0
    and negation reverses the sorted order, so ints[N-1-i] = -ints[i] and
    only the upper half, the vertices whose first nonzero entry is
    positive, is scored. Ties go to the higher index, which is the
    lexicographically greater vertex, always in that half; only that vertex
    becomes Fractions."""
    ints, den = voronoi_cell(lat).integer_vertices()
    half = len(ints) // 2
    q, i = max(zip(_int_norms(lat, ints[half:]), range(half, len(ints))))
    scale = lat.int_gram[1] * _search_constants(lat)[1]
    return Fraction(q, scale * den * den), tuple(
        Fraction(x, den) for x in ints[i])


def _lambda1_sq(lat: Lattice):
    """lambda_1^2 of lat, once per value: the first norm of the reduced
    value's ``_listing`` up to its least basis norm, with no point mapped
    to lat's basis. The catalog seeds the ones it knows."""
    def compute():
        red, _ = _reduced(lat)
        n, _ = _listing(red, min(red._gram[i][i] for i in range(lat.rank)))[0]
        return Fraction(n, red.int_gram[1])
    return _once(lat, "lambda1_sq", compute)


def _ball_density(lat: Lattice, rho_sq):
    """kappa_n rho^n / D(L), exact: the density of the balls of radius rho
    about the points of lat, for rho^2 a Fraction."""
    return kappa(lat.rank) * la._sqrt_rational(rho_sq) ** lat.rank \
        / lat.determinant()


def packing_density(lat: Lattice):
    """delta_L(B^n) = kappa_n (lambda_1 / 2)^n / D(L), exact."""
    return _ball_density(lat, _lambda1_sq(lat) / 4)


def covering_density(lat: Lattice):
    """theta_L = kappa_n mu^n / D(L), exact."""
    return _ball_density(lat, covering_radius(lat)[0])
