"""Saturated sublattices: enumeration by determinant, minimal k-sublattice
determinants D_k(L), and projections of a lattice along a sublattice.

Coefficient matrices are integer rows in the parent basis. A sublattice is
saturated when it equals the intersection of the parent with its own linear
span; equivalently its coefficient rows extend to a unimodular matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

from . import _linalg as la
from .enumeration import kappa, successive_minima, vectors_within
from .errors import CapabilityError, InvalidInputError
from .lattice import Lattice

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
        d = Fraction(self.det_sq)
        return sp.sqrt(sp.Rational(d.numerator, d.denominator))

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


def witness(lat: Lattice, rows) -> SublatticeWitness:
    """Wrap integer coefficient rows as a witness, computing det and checking
    saturation via the Hermite normal form."""
    rows = [list(map(int, r)) for r in rows]
    if la.rank(rows) != len(rows):
        raise InvalidInputError("witness rows are linearly dependent")
    d2 = _sub_det_sq(lat, rows)
    sat = la.hnf_basis(rows) == la.saturation(rows)
    return SublatticeWitness(lat, tuple(tuple(r) for r in rows), d2, sat)


def saturate(lat: Lattice, w: SublatticeWitness) -> SublatticeWitness:
    """Saturated sublattice spanning the same subspace; the determinant of
    the result divides the input determinant."""
    rows = la.saturation([list(r) for r in w.coeffs])
    d2 = _sub_det_sq(lat, rows)
    return SublatticeWitness(lat, tuple(tuple(r) for r in rows), d2, True)


def _canonical_key(rows):
    return tuple(tuple(r) for r in la.hnf_basis(rows))


def enumerate_sublattices(lat: Lattice, k: int, det_bound, max_rank=12,
                          node_budget=NODE_BUDGET):
    """All saturated k-sublattices with determinant <= det_bound, ascending.

    Every saturated sublattice with small determinant contains k independent
    vectors no longer than its own successive minima; the Minkowski bound
    prod lambda_i <= (2^k / kappa_k) det caps those minima by
    (2^k / kappa_k) * det_bound / lambda_1^{k-1}, so enumerating all vectors
    up to that length and saturating the span of every independent k-subset
    finds each sublattice at least once. Deduplicated by HNF canonical form.
    """
    m = lat.rank
    if not 1 <= k <= m - 1:
        raise InvalidInputError("need 1 <= k <= rank - 1")
    det_bound = Fraction(det_bound)
    if det_bound <= 0:
        return []
    if k > m - k:
        # saturated k-sublattices correspond to saturated (m-k)-sublattices
        # of the dual via orthogonal complement, with
        # det(M)^2 = det_sq(L) * det(M_perp)^2; search the smaller side
        return _enumerate_via_dual(lat, k, det_bound, max_rank, node_budget)
    if "min_norm_sq" in lat.meta:
        l1_sq = lat.meta["min_norm_sq"]
    else:
        l1_sq = successive_minima(lat, max_rank)[0][0]
    l1 = math.sqrt(float(l1_sq))
    prod_bound = (2.0 ** k / float(kappa(k))) * float(det_bound)
    r_max = max(prod_bound / l1 ** (k - 1), l1)
    bound_sq = Fraction(r_max * r_max).limit_denominator(10**9) * \
        Fraction(1000000001, 1000000000)
    vecs = vectors_within(lat, bound_sq, max_rank=max_rank)
    # keep one representative per +- pair
    pairs = {}
    for v, q in vecs:
        pairs[la._canonical_sign(v)] = q
    vecs = sorted(pairs.items(), key=lambda p: (p[1], p[0]))
    coeff_rows = [list(v) for v, _ in vecs]
    norms = [float(q) for _, q in vecs]
    # the k successive minima of any target sublattice have squared-norm
    # product at most this (Minkowski), so subsets beyond it are not needed
    prod_sq_bound = prod_bound * prod_bound * (1 + 1e-9)
    det_bound_sq = det_bound * det_bound
    seen = {}
    nodes = 0
    chosen = []

    def dfs(start, prod_sq):
        nonlocal nodes
        if len(chosen) == k:
            # saturation returns a row HNF, already the canonical key
            sat_rows = la.saturation([coeff_rows[i] for i in chosen])
            key = tuple(map(tuple, sat_rows))
            if key not in seen:
                d2 = _sub_det_sq(lat, list(key))
                if d2 <= det_bound_sq:
                    seen[key] = SublatticeWitness(lat, key, d2, True)
            return
        remaining = k - len(chosen)
        for i in range(start, len(coeff_rows)):
            new_prod = prod_sq * norms[i] ** remaining
            if new_prod > prod_sq_bound:
                break  # norms ascend, so all later candidates fail too
            nodes += 1
            if nodes > node_budget:
                raise CapabilityError(
                    f"sublattice search exceeded the node budget {node_budget}")
            if la.rank([coeff_rows[j] for j in chosen + [i]]) <= len(chosen):
                continue
            chosen.append(i)
            dfs(i + 1, prod_sq * norms[i])
            chosen.pop()

    dfs(0, 1.0)
    out = sorted(seen.values(), key=lambda w: (w.det_sq, w.coeffs))
    return out


def _enumerate_via_dual(lat: Lattice, k: int, det_bound, max_rank, node_budget):
    m = lat.rank
    dlat = Lattice.from_gram(la.inverse(lat.gram()))
    dual_bound = math.sqrt(float(det_bound ** 2 / lat.det_sq())) * (1 + 1e-12)
    out = []
    for wd in enumerate_sublattices(dlat, m - k, dual_bound,
                                    max_rank=max_rank, node_budget=node_budget):
        rows = la.integer_kernel([list(r) for r in wd.coeffs])
        key = _canonical_key(rows)
        d2 = _sub_det_sq(lat, list(key))
        if d2 <= det_bound ** 2:
            out.append(SublatticeWitness(lat, key, d2, True))
    return sorted(out, key=lambda w: (w.det_sq, w.coeffs))


def cnk_search_bound(lat: Lattice, k: int):
    """Proven upper bound on D_k(L) to prune the minimal-determinant search:
    the density-based bound c * D(L)^{k/n} when the optimal ball packing
    density for n = rank is cataloged, else the successive-minima product."""
    from .bounds import cnk_upper, has_delta
    n = lat.rank
    norms, _ = successive_minima(lat)
    minima_prod = math.prod(math.sqrt(float(q)) for q in norms[:k])
    if has_delta(n):
        c = cnk_upper(n, k).value_float
        density_bound = c * float(lat.det_sq()) ** (k / (2 * n))
        return min(minima_prod, density_bound)
    return minima_prod


def dk_min(lat: Lattice, k: int, det_bound=None, max_rank=12,
           node_budget=NODE_BUDGET):
    """(D_k(L) squared, witness) minimizing the determinant over saturated
    k-dimensional sublattices."""
    m = lat.rank
    if not 1 <= k <= m - 1:
        raise InvalidInputError("need 1 <= k <= rank - 1")
    if det_bound is None:
        det_bound = cnk_search_bound(lat, k) * (1 + 1e-9)
    subs = enumerate_sublattices(lat, k, det_bound, max_rank=max_rank,
                                 node_budget=node_budget)
    if not subs:
        raise InvalidInputError("no sublattice within the determinant bound; "
                                "the bound is below D_k(L)")
    best = subs[0]
    return best.det_sq, best


def _completion(w: SublatticeWitness):
    return la.complete_to_unimodular([list(r) for r in w.coeffs])


def project_along(lat: Lattice, w: SublatticeWitness):
    """Projection of L onto the orthocomplement of lin(W).

    Returns a rank (n-k) Lattice carrying the exact Gram of the projected
    basis (the Schur complement of the sublattice block in the re-based
    Gram), so D(projection) * det(W) = D(L) holds exactly. The coefficient
    basis is the image of a unimodular completion of W's rows; its float
    coordinates in an orthonormal basis of the orthocomplement are attached
    as meta["embedding"] for serialization.
    """
    if not w.saturated:
        w = saturate(lat, w)
    t = _completion(w)
    k = w.k
    # re-base G_int = d G in ints; with its blocks G_ij, the projected Gram
    # is the Schur complement (G22 - G21 G11^{-1} G12) / d
    g, d = lat.int_gram
    gp = la.mat_mul(la.mat_mul(t, g), la.transpose(t))
    x = la.mat_mul(la.inverse([row[:k] for row in gp[:k]]),
                   [row[k:] for row in gp[:k]])
    schur = [[(gij - la.dot(row[:k], col)) / d
              for gij, col in zip(row[k:], zip(*x))] for row in gp[k:]]
    out = Lattice.from_gram(schur)
    emb = _orthonormal_embedding(schur)
    return out.with_meta(projection_of=lat, witness=w,
                         completion=tuple(tuple(r) for r in t),
                         embedding=tuple(tuple(r) for r in emb))


def _orthonormal_embedding(g):
    """Float coordinates of the Gram's basis in an orthonormal frame.

    Cholesky with positive diagonal fixes the frame deterministically: row i
    (basis vector i) is lower triangular with positive i-th entry.
    """
    r = la.float_cholesky([[float(x) for x in row] for row in g])
    return la.transpose(r)  # row i = coordinates of basis vector i
