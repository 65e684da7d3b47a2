"""Passability certificates and free cylinders for lattices of balls.

A lattice of balls {rB^n + x : x in L} is k-passable when some affine
k-plane misses every ball. Certificates come from saturated k-sublattices:
project L along the sublattice; if the projected lattice has covering radius
mu > r, the plane through a lift of a deep hole parallel to the sublattice
clears every ball by mu - r. The search is one-sided: absence of a
certificate up to a determinant bound is evidence, never a proof, except
where Banaszczyk's transference bound rules out every direction
(``passage_certificate``); for hyperplanes (k = n-1) it is the exact
dual-packing criterion, and the default bound there is the least hyperplane
determinant det(L) lambda_1(L*), which reaches every best witness.

The covering radius needs a full Voronoi cell, but most searched directions
cannot matter. Babai's nearest-plane argument bounds it on any basis,
mu^2 <= (1/4) sum ||b*_i||^2 over the Gram-Schmidt vectors; on the
LLL-reduced basis of a projection that bound costs one reduction and one
elimination (``enumeration._covering_radius_bound``). As mu^2 never exceeds
the bound, a direction whose bound is at most r^2 cannot clear the balls,
and one whose bound is below the best mu^2 so far cannot win
``max_clearance``; both are skipped, compared exactly, so every certificate
and clearance is the one an exhaustive search returns. Acceptance and
validation compare exact rationals too.

An automorphism of L maps witnesses to witnesses of the same determinant,
and the projection along one isometrically onto the projection along the
other. So ``max_clearance`` searches up to symmetry
(``sublattice.orbit_witnesses``), which reaches at least one witness per
orbit of ``symmetry.automorphisms`` without building the others, and
projects, bounds and covers only those. It keeps every witness tied at the
best mu^2, and at the end expands their orbits to find the least coeffs,
the tie-break of an exhaustive search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg as la
from .enumeration import (_ball_density, _covering_radius_bound,
                          _enumerate_gram, _lambda1_sq, covering_radius,
                          shortest_vectors)
# unused here; kept so that bench/tracer.py's REQUIRED_ALIASES resolve
from .enumeration import vectors_within
from .errors import (CapabilityError, CertificateValidationError,
                     InvalidInputError, NotAPackingError)
from .lattice import Lattice, dual_in_span
from .sublattice import (SublatticeWitness, _det_bound_sq, _least_in_orbits,
                         _orbit_search, _shells, project_along)
from .symmetry import automorphisms


@dataclass(frozen=True)
class PassageCertificate:
    """Witness that the ball lattice is k-passable."""

    r: object
    witness: SublatticeWitness  # direction subspace
    deep_hole: tuple  # rational coefficients in the projected lattice basis
    mu_sq: object  # squared covering radius of the projection
    projection: Lattice
    validated: bool = False
    validation_points: int = 0
    plane: tuple | None = None  # (base point, orthonormal directions), floats

    @property
    def mu(self):
        return la._sqrt_rational(self.mu_sq)

    @property
    def clearance_float(self) -> float:
        return float(self.mu) - _exact_radius(self.r)[1]

    def to_dict(self) -> dict:
        return {
            "k": self.witness.k,
            "r": _exact_radius(self.r)[1],
            "witness": self.witness.to_dict(),
            "deep_hole": [str(x) for x in self.deep_hole],
            "mu": str(self.mu),
            "clearance": self.clearance_float,
            "validated": self.validated,
            "validation_points": self.validation_points,
            "plane": None if self.plane is None else
            {"base": list(self.plane[0]),
             "directions": [list(d) for d in self.plane[1]]},
        }


@dataclass(frozen=True)
class CylinderWitness:
    """Open cylinder about the certificate plane disjoint from all balls."""

    certificate: PassageCertificate
    base_radius: float
    guaranteed_floor: object  # exact value; may be <= 0 (no guarantee)
    floor_float: float
    guaranteed: bool

    def to_dict(self) -> dict:
        return {"certificate": self.certificate.to_dict(),
                "base_radius": self.base_radius,
                "guaranteed_floor": str(self.guaranteed_floor),
                "floor_float": self.floor_float,
                "guaranteed": self.guaranteed}


def _sqrt_above(q):
    """A rational upper bound on sqrt(q) within 10^-9, by ``math.isqrt``."""
    t = -(-q.numerator * 10**18 // q.denominator)
    s = math.isqrt(t)
    return Fraction(s + (s * s < t), 10**9)


def _validation_radius_sq(mu_sq, r_sq):
    """A rational upper bound on (mu + r + 1)^2, each root rounded up."""
    return (_sqrt_above(mu_sq) + _sqrt_above(r_sq) + 1) ** 2


def _validate_certificate(proj: Lattice, deep_hole, mu_sq, r) -> int:
    """Check that no projected lattice point within mu + r + 1 of the deep
    hole is closer to it than mu, comparing squared distances exactly;
    returns the number of points checked."""
    bound_sq = _validation_radius_sq(mu_sq, _exact_radius(r)[0])
    pts = _enumerate_gram(proj, list(deep_hole), bound_sq)
    for y, q, den in pts:
        if q < mu_sq * den:
            raise CertificateValidationError(
                f"lattice point {y} is at squared distance {Fraction(q, den)}"
                f" < mu^2 = {mu_sq} from the deep hole")
    return len(pts)


def _ambient_plane(w: SublatticeWitness, deep_hole):
    """Float (base point, orthonormal direction vectors) of the passage
    plane, when the parent lattice has an ambient embedding."""
    lat = w.parent
    if lat.basis is None:
        return None
    dirs = [lat.to_ambient(row) for row in w.coeffs]
    # Gram-Schmidt
    ortho = []
    for d in dirs:
        v = list(d)
        for u in ortho:
            c = sum(a * b for a, b in zip(v, u))
            v = [a - c * b for a, b in zip(v, u)]
        nrm = math.sqrt(sum(x * x for x in v))
        ortho.append([x / nrm for x in v])
    # lift of the deep hole: project the corresponding lattice combination
    lift0 = [0.0] * lat.ambient_dim
    for c, row in zip(deep_hole, w.completion()[w.k:]):
        amb = lat.to_ambient(row)
        lift0 = [a + float(c) * b for a, b in zip(lift0, amb)]
    # remove the component inside the direction subspace
    for u in ortho:
        c = sum(a * b for a, b in zip(lift0, u))
        lift0 = [a - c * b for a, b in zip(lift0, u)]
    return (tuple(lift0), tuple(tuple(x) for x in ortho))


def _certificate(w: SublatticeWitness, r, proj: Lattice, validate):
    """Certificate for the projection ``proj`` of w's parent along w, or
    None when its covering radius does not exceed r (mu^2 <= r^2, compared
    exactly)."""
    mu_sq, hole = covering_radius(proj)
    if mu_sq <= _exact_radius(r)[0]:
        return None
    n_pts = _validate_certificate(proj, hole, mu_sq, r) if validate else 0
    return PassageCertificate(r, w, tuple(hole), mu_sq, proj,
                              validated=validate, validation_points=n_pts,
                              plane=_ambient_plane(w, hole))


def passage_certificate(lat: Lattice, r, k: int, det_bound=None,
                        validate=True):
    """First passability certificate over saturated k-sublattices in
    ascending determinant order, or None if no searched direction works.
    A direction whose covering-radius bound is at most r^2 is skipped
    without building a Voronoi cell. After a direction that does not
    certify, the search ends with None when (n - k)^2 <= 4 r^2
    lambda_1(L*)^2: the projection P along a k-sublattice has rank n - k
    and its dual lies in L*, so Banaszczyk's bound mu(P) lambda_1(P*) <=
    (n - k) / 2 (Math. Ann. 296, 1993) gives mu(P) <= r for every P.
    The default bound is ``sublattice._det_bound_sq``'s with slack 9."""
    r_sq, _ = _exact_radius(r)
    for w in _shells(lat, k, _det_bound_sq(lat, k, det_bound, 9)):
        proj = project_along(w)
        if _covering_radius_bound(proj) > r_sq:
            cert = _certificate(w, r, proj, validate)
            if cert is not None:
                return cert
        if (lat.rank - k) ** 2 <= 4 * r_sq * _lambda1_sq(dual_in_span(lat)):
            return None
    return None


def max_clearance(lat: Lattice, r, k: int, det_bound=None):
    """(best clearance, best certificate) over all searched directions;
    certificate is None when no direction clears radius r. Deterministic:
    ties broken by the HNF-lexicographic order of the witness.

    An automorphism of L maps the projection along a witness isometrically
    onto the projection along its image, so mu^2 is constant on an orbit of
    witnesses, and only the witnesses of ``orbit_witnesses``, at least one
    per orbit, are projected and bounded. A witness whose bound is below
    the best mu^2 so far cannot win and is skipped without building a
    Voronoi cell. Those witnesses need not be the least of their orbits, so
    every witness tied at the best mu^2 is kept, and at the end their orbits
    are expanded to find the least coeffs among them: the direction an
    exhaustive search ranks first by (-mu^2, coeffs). The certificate is
    always validated; the default bound is ``passage_certificate``'s."""
    _, r_f = _exact_radius(r)
    det_bound_sq = _det_bound_sq(lat, k, det_bound, 9)
    gens, _ = automorphisms(lat)
    best_sq, tied = None, {}  # coeffs -> (witness, projection) at best mu^2
    for w in _orbit_search(lat, k, det_bound_sq, gens):
        proj = project_along(w)
        if best_sq is not None and _covering_radius_bound(proj) < best_sq:
            continue
        mu_sq = covering_radius(proj)[0]
        if best_sq is None or mu_sq > best_sq:
            best_sq, tied = mu_sq, {}
        if mu_sq == best_sq:
            tied[w.coeffs] = w, proj
    if best_sq is None:
        return float("-inf"), None
    w = _least_in_orbits([w for w, _ in tied.values()], gens)
    proj = tied[w.coeffs][1] if w.coeffs in tied else project_along(w)
    clearance = float(la._sqrt_rational(best_sq)) - r_f
    return clearance, _certificate(w, r, proj, validate=True)


def _exact_radius(r):
    """(r^2 as a Fraction, r as a float) for an exact comparison that needs
    only r^2, read by ``_linalg._rational_square``. Raises InvalidInputError
    when r^2 is not rational (pi, for one), or when r is not positive or its
    float is not a positive finite number."""
    r_sq, positive = la._rational_square(r)
    r_f = float(la._exact(r)) if positive else 0.0  # sqrt(-1) has no float
    if not 0 < r_f < math.inf:
        raise InvalidInputError(f"the radius r = {r} must be positive and "
                                "within the range of a float")
    return r_sq, r_f


def is_nonseparable_ball_lattice(lat: Lattice, r):
    """Hyperplane criterion for balls of radius r: no hyperplane misses all
    balls iff lambda_1 of the dual lattice is >= 1/(2r). The dual is taken
    in the span of the lattice, so lattices of lower rank than their ambient
    space (E7, A5) are handled.

    Returns (flag, margin) with margin = lambda_1(dual) - 1/(2r); the
    comparison is exact and needs r^2 rational.
    """
    r_sq, r_f = _exact_radius(r)
    d = dual_in_span(lat)
    l1_sq, _ = shortest_vectors(d)
    flag = Fraction(l1_sq) * 4 * r_sq >= 1
    margin = float(la._sqrt_rational(l1_sq)) - 1.0 / (2 * r_f)
    return flag, margin


def ball_lattice_density(lat: Lattice, r):
    """Density of the ball packing/arrangement {rB^n + x : x in L}."""
    return _ball_density(lat, _exact_radius(r)[0])


def free_cylinder(lat: Lattice, r, k: int, d_nk, det_bound=None) -> CylinderWitness:
    """Cylinder of guaranteed positive radius about a passage plane.

    ``d_nk`` is a lower bound on the impassability threshold (a BoundReport
    or exact value); the floor (d_nk / density)^{1/n} - 1 is positive exactly
    when the packing is less dense than the threshold, and ``guaranteed``
    is that exact comparison. A floor whose n-th root is in the
    square-root case q sqrt(r) pi^j is built without sympy
    (``la.minus_one``); any other is sympy's. The returned base_radius is
    the best validated clearance found by the search.
    Raises NotAPackingError when lambda_1^2 < 4 r^2 (compared exactly) and
    CapabilityError when no direction within the determinant bound clears
    the balls.
    """
    n = lat.rank
    if _lambda1_sq(lat) < 4 * _exact_radius(r)[0]:
        raise NotAPackingError("balls of this radius overlap (lambda_1 < 2r)")
    d_value = getattr(d_nk, "value_exact", None)
    if d_value is None:
        d_value = la._exact(getattr(d_nk, "value_float", d_nk))
    density = ball_lattice_density(lat, r)
    # a report's ClosedForm decides even where its value is sympy's
    d = getattr(d_nk, "monomial", None) or d_value
    guaranteed = bool(d > density)
    floor = None
    if isinstance(d_value, la.ClosedForm) and d_value > 0:
        floor = la.minus_one((d_value / density) ** Fraction(1, n))
    if floor is None:
        import sympy as sp  # for the n-th roots that no ClosedForm holds
        # the n-th root leaves products of radicals that only powsimp merges
        floor = sp.powsimp((d_value / density) ** sp.Rational(1, n) - 1)
    floor_f = float(floor)
    clearance, cert = max_clearance(lat, r, k, det_bound=det_bound)
    if cert is None:
        raise CapabilityError(
            "no passage direction found within the determinant bound")
    base = max(clearance, 0.0)
    return CylinderWitness(cert, base, floor, floor_f, guaranteed)
