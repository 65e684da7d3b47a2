"""Saturated sublattices: enumeration by determinant, minimal k-sublattice
determinants D_k(L), and projections of a lattice along a sublattice.

Coefficient matrices are integer rows in the parent basis. A sublattice is
saturated when it equals the intersection of the parent with its own linear
span; equivalently its coefficient rows extend to a unimodular matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction

from . import _linalg as la
from .enumeration import _lambda1_sq, successive_minima, vector_pairs_within
# unused here; kept so that bench/tracer.py's REQUIRED_ALIASES resolve
from .enumeration import vectors_within
from .errors import CapabilityError, InvalidInputError
from .lattice import Lattice, dual_in_span
from .symmetry import _row_image, orbit_representatives

NODE_BUDGET = 10**7


@dataclass(frozen=True)
class SublatticeWitness:
    """A k-dimensional sublattice of ``parent`` given by integer coefficient
    rows; ``det_sq`` is the exact squared determinant (Gram determinant of
    the generators)."""

    parent: Lattice
    coeffs: tuple  # k rows of m ints
    det_sq: Fraction
    saturated: bool

    @property
    def k(self) -> int:
        return len(self.coeffs)

    def det_value(self):
        return la._sqrt_rational(self.det_sq)

    def completion(self):
        """``la.complete_to_unimodular`` of the coeffs; ``project_along``
        projects its rows k and up. Not cached, as searches keep witnesses."""
        return la.complete_to_unimodular([list(r) for r in self.coeffs])

    def to_dict(self) -> dict:
        return {"coeffs": [list(map(int, r)) for r in self.coeffs],
                "det": str(self.det_value()),
                "saturated": self.saturated}


def _sub_det_sq(lat: Lattice, rows):
    """det(R G R^T) for integer coefficient rows R, formed in integers
    against G_int and divided by d^k once."""
    g, d = lat.int_gram
    rg = [la.vec_mat(list(r), g) for r in rows]
    return Fraction(la.det_int([[la.dot(a, s) for s in rows] for a in rg]),
                    d ** len(rows))


def _integral(x) -> int:
    """``x`` as an int when it is an integer (a float only when integral),
    else InvalidInputError; a bool is not a number here."""
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise InvalidInputError(f"witness entry {x!r} is not an integer")


def witness(lat: Lattice, rows) -> SublatticeWitness:
    """Wrap integer coefficient rows as a witness, computing det and checking
    saturation via the Hermite normal form.

    ``rows`` must be a list of rows, each of length lat.rank, with integer
    entries, and their number k must satisfy 1 <= k <= rank - 1; each check
    raises InvalidInputError, in that order."""
    if any(len(r) != lat.rank for r in la._list_of_rows(rows, "a witness")):
        raise InvalidInputError(f"witness rows need {lat.rank} entries, one "
                                "per basis vector")
    rows = [[_integral(x) for x in r] for r in rows]
    _check_k(lat, len(rows))
    d2 = _sub_det_sq(lat, rows)
    if d2 == 0:  # G is positive definite, so only dependent rows give 0
        raise InvalidInputError("witness rows are linearly dependent")
    return SublatticeWitness(lat, tuple(tuple(r) for r in rows), d2,
                             la._saturated(rows))


def saturate(w: SublatticeWitness) -> SublatticeWitness:
    """Saturated sublattice of ``w.parent`` spanning the same subspace; the
    determinant of the result divides the input determinant."""
    rows = la.saturation([list(r) for r in w.coeffs])
    d2 = _sub_det_sq(w.parent, rows)
    return SublatticeWitness(w.parent, tuple(tuple(r) for r in rows), d2,
                             True)


# gamma_k^k for k = 1..8, Hermite's constants to the k-th power (Conway &
# Sloane, Sphere Packings, Lattices and Groups, Table 1.2)
_HERMITE_POW = (None, Fraction(1), Fraction(4, 3), Fraction(2), Fraction(4),
                Fraction(8), Fraction(64, 3), Fraction(64), Fraction(256))


def _hermite_pow(k):
    """gamma_k^k, or above k = 8 Hermite's bound (4/3)^(k(k-1)/2) on it: the
    one constant of the search, as Minkowski's second theorem in Hermite
    form, prod lambda_i(M)^2 <= gamma_k^k det(M)^2, caps the minima of a
    k-sublattice M and Hermite's inequality bounds det(M) below."""
    if k < len(_HERMITE_POW):
        return _HERMITE_POW[k]
    return Fraction(4, 3) ** (k * (k - 1) // 2)


def _bound_sq(det_bound):
    """det_bound^2 as a Fraction, or None when det_bound <= 0."""
    det_bound_sq, positive = la._rational_square(det_bound)
    return det_bound_sq if positive else None


def _check_k(lat: Lattice, k: int):
    if not 1 <= k <= lat.rank - 1:
        raise InvalidInputError("need 1 <= k <= rank - 1")


def _det_bound_sq(lat: Lattice, k: int, det_bound, slack):
    """Check k, and give the det^2 bound of a k-sublattice search: det_bound^2
    (``_bound_sq``), or by default slack lambda_1^2 ... lambda_k^2, at least
    D_k(L)^2, as the saturated span of k vectors attaining the minima has no
    larger determinant (Hadamard). At k = n - 1 the default is
    D_{n-1}(L)^2 = det(L)^2 lambda_1(L*)^2: each saturated hyperplane
    sublattice is W = L meet u^perp for a primitive dual vector u, with
    det(W) = det(L) |u| and a projection of spacing 1 / |u|, so
    mu^2 = 1 / (4 |u|^2) falls as det(W) rises, and the least det holds
    every witness that wins, ties or certifies."""
    _check_k(lat, k)
    if det_bound is not None:
        return _bound_sq(det_bound)
    if k == lat.rank - 1:
        return lat.det_sq() * _lambda1_sq(dual_in_span(lat))
    return slack * math.prod(successive_minima(lat)[0][:k])


def _span_key(echelon):
    """Reduced row echelon form of the rational span of the rows that
    ``la.add_independent`` put in ``echelon``, each row made primitive with
    a positive pivot: a key that depends on the span only.

    The pivots of those rows are distinct, so sorted by pivot they are a row
    echelon form; back-substitution clears the entries above each pivot."""
    pivots, rows = zip(*sorted(echelon))
    rows = list(rows)
    for j in range(len(rows) - 1, 0, -1):
        c, rj = pivots[j], rows[j]
        for i in range(j):
            f = rows[i][c]
            if f:
                rows[i] = [rj[c] * x - f * y for x, y in zip(rows[i], rj)]
    key = []
    for c, row in zip(pivots, rows):
        g = math.gcd(*row) if row[c] > 0 else -math.gcd(*row)
        key.append(tuple(x // g for x in row))
    return tuple(key)


def enumerate_sublattices(lat: Lattice, k: int, det_bound):
    """All saturated k-sublattices with determinant <= det_bound, ascending.

    ``det_bound`` is a real number, read like every outside number (a
    float as the nearest fraction with denominator at most 10^12), or a
    ClosedForm or sympy number with a rational square, such as a root of a
    rational; only its square enters the search. This is the search of
    ``orbit_witnesses`` with no generators.
    """
    return orbit_witnesses(lat, k, det_bound, ())


def _candidate_representatives(rows, gens):
    """For each candidate row (one per +- pair), whether it is the least
    index of its orbit under the generators: the indices that
    ``orbit_representatives`` walks in order, where a generator A maps the
    pair of a row v to the pair of +- v A, read through A's columns. An
    isometry keeps norms, so the image of a candidate is a candidate
    whenever ``rows`` holds every vector up to some norm, and a missing
    image raises."""
    index = {s: i for i, v in enumerate(rows)
             for s in (tuple(v), tuple(-x for x in v))}

    def image(i, cols):
        v = _row_image(rows[i], cols)
        if v not in index:
            raise RuntimeError(f"the image {v} of candidate {rows[i]} under "
                               "an automorphism is not a candidate")
        return index[v]

    reps = {i for i, _ in orbit_representatives(range(len(rows)), gens, image)}
    return [i in reps for i in range(len(rows))]


def _least_in_orbits(witnesses, gens):
    """The witness with the least coeffs over the orbits of the (nonempty)
    ``witnesses`` under the group the generators make: the image of coeffs
    C under A is the HNF of C A, and an automorphism keeps the determinant."""
    def image(coeffs, cols):
        return tuple(map(tuple, la.hnf_basis(
            [_row_image(r, cols) for r in coeffs])))

    by_coeffs = {w.coeffs: w for w in witnesses}
    least, c = min((min(orbit), c) for c, orbit
                   in orbit_representatives(by_coeffs, gens, image))
    return replace(by_coeffs[c], coeffs=least, saturated=True)


def orbit_witnesses(lat: Lattice, k: int, det_bound, gens):
    """Saturated k-sublattices with determinant <= det_bound, ascending,
    with at least one member of every orbit of
    ``enumerate_sublattices(lat, k, det_bound)`` under the group of
    isometries that the int matrices ``gens`` make (x -> x A, as
    ``symmetry.automorphisms`` gives them), and usually few others; with no
    generators, all of them. Only the square of ``det_bound`` enters the
    search (``_orbit_search``)."""
    _check_k(lat, k)
    return _orbit_search(lat, k, _bound_sq(det_bound), gens)


def _orbit_search(lat: Lattice, k: int, det_bound_sq, gens):
    """``orbit_witnesses`` for the bound ``det_bound_sq`` on det^2, a
    Fraction, or None for a bound <= 0, which admits no sublattice.

    Every saturated sublattice with small determinant contains k independent
    vectors no longer than its own successive minima; Minkowski's second
    theorem in Hermite form, prod lambda_i^2 <= gamma_k^k det^2, caps their
    squared-norm product by ``_hermite_pow(k)`` det_bound^2, and each of
    them by that product over lambda_1^{2(k-1)}. A cap below lambda_1^{2k}
    admits no k vectors, so such a shell returns [] before any listing,
    after the redirect to the dual side. A depth-first search over
    the vectors up to that length, one per +- pair in ascending norm as
    ``vector_pairs_within`` lists them with their norms as ints over G_int's
    d, compares the integer norm products against G_int exactly. Each chosen
    vector carries its fraction-free echelon row, reduced against the
    earlier pivots, so a dependent candidate is one whose row reduces to
    zero, and its inner products with the vectors chosen before it, each one
    ``la.dot`` against the row x G_int of the earlier vector, formed once per
    candidate.

    Norms never decrease along a tuple, so the search may skip every tuple
    that cannot be the successive minima of its span M in that order. Such a
    tuple has |v_j +- v_i| >= |v_j| for i < j, since v_j +- v_i lies outside
    the span of v_1, ..., v_{j-1}; so 2 |<v_i, v_j>| <= |v_i|^2, and a
    candidate that fails this pair test against a chosen vector is skipped
    with its subtree. For k <= 3 the minima are a basis of M, so their Gram
    determinant is det(M)^2, and a leaf whose tuple Gram determinant exceeds
    det_bound^2 is skipped too; above k = 3 they may span a sublattice of
    index above 1, and only the pair test runs.

    A leaf that passes is keyed by the reduced echelon form of its rational
    span (``_span_key``), which fixes the saturated sublattice, so each span
    is saturated and has its determinant computed once, also when that
    exceeds the bound. For k = 1 the witness is v / gcd(v), of squared norm
    ||v||^2 / gcd(v)^2. A key whose pivots are all 1 is already the HNF of
    its saturation; any other goes through ``la.saturation``.

    Within each norm the least members of the orbits of candidates under
    the generators (``_candidate_representatives``, through
    ``symmetry.orbit_representatives``) come first, each part in
    the order of the coeffs. The first, shortest vector runs over those
    representatives, and each later vector over the candidates after the
    one before it. Any orbit of spans M holds an image whose shortest
    vectors include a representative; take the least such i. A vector of
    that image that sorts before i is no longer than i, so it is a shortest
    vector, of i's norm, and a representative, against the choice of i. So
    the image's minima, taken in the order of the search from i on, are in
    the search; they come in ascending norm, so they are successive minima
    of the image, pass the pair and Gram tests and reach a leaf. With no
    generators every candidate is a representative, the order is that of
    (norm, coeffs), and each span is reached through its own minima tuple."""
    m = lat.rank
    if det_bound_sq is None:
        return []
    if k > m - k:
        # saturated k-sublattices correspond to saturated (m-k)-sublattices
        # of the dual via orthogonal complement; search the smaller side
        return _enumerate_via_dual(lat, k, det_bound_sq, gens)
    l1_sq = _lambda1_sq(lat)
    prod_sq_bound = _hermite_pow(k) * det_bound_sq
    if prod_sq_bound < l1_sq ** k:
        return []  # an empty shell: no k vectors are that short
    # one vector per +- pair, sorted by (norm, coeffs), the shortest among
    # them; squared norms and inner products over G_int's d are ints, and so
    # are the caps
    norms, coeff_rows = zip(*vector_pairs_within(
        lat, prod_sq_bound / l1_sq ** (k - 1)))
    g_int, d = lat.int_gram
    cap = math.floor(prod_sq_bound * d ** k)
    # the candidates that can come first, a set closed under isometries and
    # a whole number of norms
    n_first = next((i for i, q in enumerate(norms) if q ** k > cap),
                   len(norms))
    rep = _candidate_representatives(coeff_rows[:n_first], gens) + \
        [False] * (len(norms) - n_first)
    order = sorted(range(len(norms)), key=lambda i: (norms[i], not rep[i]))
    coeff_rows = [coeff_rows[i] for i in order]
    norms = [norms[i] for i in order]
    gram_cap = math.floor(det_bound_sq * d ** k)
    rows_g = {}  # candidate index -> its row x G_int, formed on first use
    found = {}  # span key -> witness, or None when det_sq > det_bound^2
    nodes = 0
    chosen = []
    products = []  # per chosen vector, its products with the ones before it
    echelon = []  # (pivot column, primitive reduced row) per chosen vector

    def leaf():
        if 2 <= k <= 3:
            # the tuple's Gram determinant, in closed form from the carried
            # norms and products
            a, c = norms[chosen[0]], norms[chosen[1]]
            b = products[1][0]
            if k == 2:
                det = a * c - b * b
            else:
                e, (f, h) = norms[chosen[2]], products[2]
                det = a * (c * e - h * h) - b * (b * e - h * f) \
                    + f * (b * h - c * f)
            if det > gram_cap:
                return  # no basis of a span within the bound
        key = _span_key(echelon)
        if key in found:
            return
        if k == 1:
            g = math.gcd(*coeff_rows[chosen[0]])
            sat, d2 = key, Fraction(norms[chosen[0]], d * g * g)
        else:
            pivots = sorted(c for c, _ in echelon)
            sat = key if all(row[c] == 1 for c, row in zip(pivots, key)) \
                else tuple(map(tuple, la.saturation(key)))
            d2 = _sub_det_sq(lat, sat)
        found[key] = SublatticeWitness(lat, sat, d2, True) \
            if d2 <= det_bound_sq else None

    def dfs(candidates, prod):
        nonlocal nodes
        remaining = k - len(chosen)
        for i in candidates:
            if prod * norms[i] ** remaining > cap:
                break  # norms ascend, so all later candidates fail too
            nodes += 1
            if nodes > NODE_BUDGET:
                raise CapabilityError(
                    f"sublattice search exceeded the node budget {NODE_BUDGET}"
                    f" after reaching {len(found)} distinct spans and finding"
                    f" {sum(w is not None for w in found.values())} witnesses")
            x = coeff_rows[i]
            p = []
            for j in chosen:
                y = la.dot(rows_g[j], x)
                if 2 * abs(y) > norms[j]:
                    break
                p.append(y)
            if len(p) < len(chosen):
                continue  # no successive-minima tuple holds this pair
            if not la.add_independent(echelon, x):
                continue  # dependent on the chosen vectors
            chosen.append(i)
            products.append(p)
            if remaining > 1 and i not in rows_g:
                rows_g[i] = la.vec_mat(x, g_int)
            if remaining == 1:
                leaf()
            else:
                dfs(range(i + 1, len(norms)), prod * norms[i])
            products.pop()
            echelon.pop()
            chosen.pop()

    dfs([t for t, i in enumerate(order) if rep[i]], 1)
    return sorted((w for w in found.values() if w is not None),
                  key=lambda w: (w.det_sq, w.coeffs))


def _shells(lat: Lattice, k: int, det_bound_sq):
    """The elements of ``enumerate_sublattices(lat, k, det_bound)``, in its
    order, for ``det_bound_sq`` its square as ``_bound_sq`` reads it, from
    searches at growing bounds on det^2, so that a caller who needs only
    the first few stops after a small search.

    A k-sublattice M of L has lambda_1(M) >= lambda_1(L), so Hermite's
    inequality lambda_1(M)^2 <= gamma_k det(M)^{2/k} puts det(M)^2 at or
    above lambda_1(L)^{2k} / gamma_k^k, the first bound (``_hermite_pow``).
    Each next bound is 4 times the last, capped at det_bound^2, and each
    search yields only the witnesses above the previous bound; callers
    check k.
    """
    if det_bound_sq is None:
        return
    prev, bound = 0, _lambda1_sq(lat) ** k / _hermite_pow(k)
    while True:
        bound = min(bound, det_bound_sq)
        for w in _orbit_search(lat, k, bound, ()):
            if w.det_sq > prev:
                yield w
        if bound == det_bound_sq:
            return
        prev, bound = bound, 4 * bound


def _enumerate_via_dual(lat: Lattice, k: int, det_bound_sq, gens):
    """The search on the dual side, ``dual_in_span(lat)``, for the
    orthogonal complements M_perp, with det(M)^2 = det_sq(L) det(M_perp)^2.
    An automorphism x -> x A of L acts on dual coefficients as
    y -> y A^{-T}, which keeps the pairing x y^T, so orbits of complements
    are the complements of orbits."""
    dual_gens = [[[int(x) for x in row] for row in la.transpose(la.inverse(a))]
                 for a in gens]
    out = []
    for wd in _orbit_search(dual_in_span(lat), lat.rank - k,
                            det_bound_sq / lat.det_sq(), dual_gens):
        key = tuple(map(tuple, la.hnf_basis(
            la.integer_kernel([list(r) for r in wd.coeffs]))))
        out.append(SublatticeWitness(lat, key, lat.det_sq() * wd.det_sq, True))
    return sorted(out, key=lambda w: (w.det_sq, w.coeffs))


def dk_min(lat: Lattice, k: int, det_bound=None):
    """(D_k(L) squared, witness) minimizing the determinant over saturated
    k-dimensional sublattices.

    The default bound is ``_det_bound_sq``'s with slack 1: lambda_1 ...
    lambda_k, or D_{n-1}(L) itself at k = n - 1."""
    best = next(_shells(lat, k, _det_bound_sq(lat, k, det_bound, 1)), None)
    if best is None:
        raise InvalidInputError("no sublattice within the determinant bound; "
                                "the bound is below D_k(L)")
    return best.det_sq, best


def project_along(w: SublatticeWitness):
    """Projection of L = ``w.parent`` onto the orthocomplement of lin(W).

    Returns a rank (n-k) Lattice carrying the exact Gram of the projected
    basis (the Schur complement of the sublattice block in the re-based
    Gram), so D(projection) * det(W) = D(L) holds exactly. The coefficient
    basis is the image of rows k and up of ``w.completion()``.
    """
    if not w.saturated:
        w = saturate(w)
    t = w.completion()
    k = w.k
    # re-base G_int = d G in ints; k fraction-free elimination steps leave
    # D_k (G22 - G21 G11^{-1} G12) in the trailing block, D_k = det G11
    g, d = w.parent.int_gram
    gp = la.mat_mul(la.mat_mul(t, g), la.transpose(t))
    _, _, dk = la._bareiss(gp, k)
    schur = [[Fraction(x, dk * d) for x in row[k:]] for row in gp[k:]]
    return Lattice.from_gram(schur)
