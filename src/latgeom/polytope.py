"""Exact rational polytope arithmetic.

Polytopes carry both an H-description (``a x <= b`` rows) and a V-description
(vertex list), kept in sync lazily via exact double description. Coordinates
live in the polytope's own coordinate space; an optional positive definite
rational ``metric`` Gram matrix says how that space embeds isometrically, so
lower-dimensional sections and projections keep exact volumes: the metric
volume is the coordinate volume times sqrt(det metric).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import _linalg as la
from .enumeration import kappa
from .errors import (
    CapabilityError,
    DimensionMismatchError,
    InvalidInputError,
    PolarUndefinedError,
    UnboundedBodyError,
)


# Rays the double description may hold at once; the largest cell known to
# latgeom, E8's, peaks at 19,440.
RAY_BUDGET = 200_000
# Coordinate ascent steps ``mvee`` may take to meet its tolerance.
MVEE_ITERATIONS = 100_000


# ---------------------------------------------------------------------------
# Exact double description on the homogenization cone
# ---------------------------------------------------------------------------

def _primitive(ints):
    """An integer vector divided by the gcd of its entries, as a tuple."""
    g = math.gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _primitive_int(vec):
    """Scale a rational vector to a primitive integer tuple (gcd 1)."""
    den = math.lcm(*(x.denominator for x in vec))
    return _primitive([x.numerator * (den // x.denominator) for x in vec])


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _at_least(cols, t, universe):
    """Bitmask of the indices in ``universe`` set in at least t of the
    bitmasks ``cols``, by adding the columns in a bit-sliced binary counter:
    plane i holds bit i of every index's count."""
    planes = []
    for x in cols:
        i = 0
        while x:
            if i == len(planes):
                planes.append(x)
                break
            planes[i], x = planes[i] ^ x, planes[i] & x
            i += 1
    if t >> len(planes):
        return 0
    # count >= t, comparing the planes with t from the top bit down
    above, equal = 0, universe
    for i in reversed(range(len(planes))):
        if t >> i & 1:
            equal &= planes[i]
        else:
            above |= equal & planes[i]
            equal &= ~planes[i]
    return above | equal


def _adjacent_pairs(masks, tight, pos, negs, live, d):
    """The adjacent pairs (p, n) of live rays in a pointed cone of dimension
    d, p in ``pos`` and n in the bitmask ``negs``, in order of p, then n.

    ``masks[i]`` is the bitmask of constraints tight at the ray in slot i,
    and ``tight[j]`` the bitmask of slots tight at constraint j; ``live``
    masks out the dead slots that ``tight`` still holds. By the
    combinatorial test of Fukuda & Prodon, p and n are adjacent iff they
    share at least d - 2 constraints and no third ray is tight on all of
    them: the AND of ``tight`` over the shared constraints is the pair alone.
    """
    for p in pos:
        mp = masks[p]
        for n in _bits(_at_least([tight[j] for j in _bits(mp)], d - 2, negs)):
            pair = 1 << p | 1 << n
            common = live
            for j in _bits(mp & masks[n]):
                if common == pair:
                    break
                common &= tight[j]
            if common == pair:
                yield p, n


def _cone_extreme_rays(normals):
    """Extreme rays of {x : n . x <= 0 for all n}, as primitive integer
    tuples, by incremental double description.

    Each ray keeps the slot it was made in, so the incidence is updated, not
    rebuilt: ``masks`` holds, per slot, the bitmask of processed constraints
    tight at its ray, and ``tight``, per constraint, the bitmask of slots
    tight at it. A new ray is a positive combination of an adjacent
    (positive, negative) pair, so it is tight exactly where both are, and on
    the new constraint: it sets its own bits, and the new constraint's mask
    is its zero rays and the new ones. A ray cut off leaves its slot dead.
    The live slots, in ascending order, are the survivors in their old order
    and then the new rays. The cone stays pointed throughout, so the
    combinatorial adjacency test of ``_adjacent_pairs`` holds.
    """
    d = len(normals[0])
    norm_int = [_primitive_int(nv) for nv in normals]
    # start with d linearly independent normals forming a simplicial cone,
    # then add the rest one at a time.
    idx, echelon = [], []
    for i, nv in enumerate(norm_int):
        if la.add_independent(echelon, nv):
            idx.append(i)
            if len(idx) == d:
                break
    if len(idx) < d:
        raise UnboundedBodyError("cone has a lineality space (not pointed)")
    inv = la.inverse([norm_int[i] for i in idx])
    # rays of the simplicial cone {x : M x <= 0}, M the chosen normals: the
    # columns of -M^{-1}; column c is tight at every row of M but row c
    rays = [_primitive_int([-row[c] for row in inv]) for c in range(d)]
    masks = [((1 << d) - 1) ^ (1 << c) for c in range(d)]
    tight = list(masks)  # the initial incidence is symmetric
    live = list(range(d))
    chosen = set(idx)
    rest = [nv for i, nv in enumerate(norm_int) if i not in chosen]
    for step, nv in enumerate(rest, d + 1):
        vals = {i: sum(map(operator.mul, nv, rays[i])) for i in live}
        pos = [i for i in live if vals[i] > 0]
        zero = sum(1 << i for i in live if not vals[i])
        negs = sum(1 << i for i in live if vals[i] < 0)
        everyone = negs | zero | sum(1 << i for i in pos)
        bit, first = 1 << (step - 1), len(rays)
        for p, n in list(_adjacent_pairs(masks, tight, pos, negs, everyone,
                                         d)):
            vp, vn = vals[p], vals[n]
            rays.append(_primitive([vp * xn - vn * xp
                                    for xp, xn in zip(rays[p], rays[n])]))
            both = masks[p] & masks[n]
            masks.append(both | bit)
            for j in _bits(both):
                tight[j] |= 1 << len(masks) - 1
        for i in pos:
            rays[i] = None
        for i in _bits(zero):
            masks[i] |= bit
        tight.append(zero | (1 << len(rays)) - (1 << first))
        live = [i for i in live if vals[i] <= 0]
        live += range(first, len(rays))
        if len(live) > RAY_BUDGET:
            raise CapabilityError(
                f"double description exceeded the ray budget {RAY_BUDGET} "
                f"at constraint {step} of {len(normals)}: {len(live)} rays")
    return [rays[i] for i in live]


def _tight_masks(pts, den, a_rows, b_vals):
    """One bitmask per row of ``a x <= b``: bit j is set when the point
    pts[j] / den lies on the row's hyperplane. Exact in ints: each row
    (a, b) is scaled to a primitive int vector."""
    masks = []
    for row, bv in zip(a_rows, b_vals):
        *normal, rhs = _primitive_int(list(row) + [bv])
        rhs *= den
        masks.append(sum(1 << j for j, p in enumerate(pts)
                         if sum(x * y for x, y in zip(normal, p)) == rhs))
    return masks


def _maximal(masks, whole):
    """The inclusion-maximal masks among ``masks`` other than 0 and
    ``whole``, in ascending order."""
    out = []
    # a strict superset has more bits, so it is kept (or covered) first
    for m in sorted(set(masks) - {0, whole}, key=int.bit_count, reverse=True):
        if all(m & t != m for t in out):
            out.append(m)
    return sorted(out)


def _vertex_rays(a_rows, b_vals):
    """Vertices of {x : A x <= b} as the primitive integer rays (r, t) with
    t > 0 of the DD on the homogenization {(x, t) : A x - b t <= 0,
    -t <= 0}, in the order the DD leaves them; the vertex is r / t, and t is
    the lcm of its denominators. Raises if unbounded or empty."""
    d = len(a_rows[0]) if a_rows else 0
    normals = [list(row) + [-b] for row, b in zip(a_rows, b_vals)]
    normals.append([Fraction(0)] * d + [Fraction(-1)])
    rays = []
    for ray in _cone_extreme_rays(normals):
        if ray[-1] > 0:
            rays.append(ray)
        elif ray[-1] == 0 and any(ray):
            raise UnboundedBodyError("polytope is unbounded")
    if not rays:
        raise InvalidInputError("empty polytope")
    # distinct primitive rays with t > 0 give distinct vertices
    return rays


def _halfspaces_from_vertices(verts):
    """Minimal H-description of conv(verts), full-dimensional in its space.

    Works by polarity through the vertex centroid: the polar of a polytope
    with 0 interior swaps vertices and facet normals.
    """
    d = len(verts[0])
    if la.affine_rank(list(map(list, verts))) != d:
        raise InvalidInputError("vertex set is not full-dimensional")
    n = len(verts)
    c = [sum(v[j] for v in verts) / n for j in range(d)]
    shifted = [[x - cx for x, cx in zip(v, c)] for v in verts]
    # polar body {y : y . v <= 1 for all shifted vertices v}
    a_rows, b_vals = [], []
    for *r, t in _vertex_rays(shifted, [Fraction(1)] * len(shifted)):
        # facet y . (x - c) <= 1 for the polar vertex y = r / t
        y = [Fraction(x, t) for x in r]
        a_rows.append(y)
        b_vals.append(Fraction(1) + la.dot(y, c))
    return a_rows, b_vals


# ---------------------------------------------------------------------------
# Polytope
# ---------------------------------------------------------------------------

@dataclass
class Polytope:
    """Bounded convex rational polytope, full-dimensional in its coordinates."""

    _a: list | None = None
    _b: list | None = None
    _verts: list | None = None
    metric: tuple | None = None  # rational SPD Gram of the coordinate basis
    _canonical: bool = False  # _verts known to be the sorted extreme points
    # the sorted vertices as int rows over their common denominator
    _form: tuple | None = field(default=None, repr=False)
    # face lattice: facet masks over the sorted vertices, and face -> facets
    _facets: list | None = field(default=None, repr=False)
    _below: dict = field(default_factory=dict, repr=False)

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_halfspaces(a_rows: Sequence[Sequence], b_vals: Sequence,
                        metric=None) -> "Polytope":
        a = [[la._rational(x) for x in row] for row in a_rows]
        b = [la._rational(x) for x in b_vals]
        if any(len(r) != len(a[0]) for r in a) or len(b) != len(a):
            raise DimensionMismatchError("inconsistent H-description shapes")
        m = tuple(tuple(map(la._rational, r)) for r in metric) if metric else None
        return Polytope(_a=a, _b=b, metric=m)

    @staticmethod
    def from_vertices(verts: Sequence[Sequence], metric=None) -> "Polytope":
        v = [tuple(la._rational(x) for x in p) for p in verts]
        if any(len(p) != len(v[0]) for p in v):
            raise DimensionMismatchError("inconsistent vertex shapes")
        m = tuple(tuple(map(la._rational, r)) for r in metric) if metric else None
        return Polytope(_verts=list(dict.fromkeys(v)), metric=m)

    @property
    def dim(self) -> int:
        if self._a is not None:
            return len(self._a[0])
        return len(self._verts[0])

    def _metric(self):
        return self.metric or la.identity(self.dim)

    # -- conversions ---------------------------------------------------------

    def integer_vertices(self):
        """(W, D): the sorted vertices as int rows over their common
        denominator D, so ``vertices()[i] == W[i] / D``; computed once.

        An H-built body reads W off the rays (r, t) of the double
        description: D is the lcm of the t, and W holds r (D / t). Rows over
        one positive denominator sort as the vertices do.
        """
        if self._form is None:
            if self._verts is None:
                rays = _vertex_rays(self._a, self._b)
                den = math.lcm(*(ray[-1] for ray in rays))
                ints = [tuple(x * (den // t) for x in r) for *r, t in rays]
            else:
                # constructor points may include non-extreme ones; a point is
                # a vertex iff the rows tight at it are tight at no other one
                masks = _tight_masks(*la.integer_form(self._verts),
                                     *self.halfspaces())
                meets = [functools.reduce(operator.and_,
                                          [m for m in masks if m >> j & 1], -1)
                         for j in range(len(self._verts))]
                ints, den = la.integer_form(
                    [v for j, v in enumerate(self._verts) if meets[j] == 1 << j])
            self._form = tuple(sorted(ints)), den
        return self._form

    def vertices(self):
        """The vertices, sorted, as Fraction tuples read off
        ``integer_vertices`` on the first call; a fresh list on every call."""
        if not self._canonical:
            ints, den = self.integer_vertices()
            self._verts = [tuple(Fraction(x, den) for x in w) for w in ints]
            self._canonical = True
        return list(self._verts)

    def halfspaces(self):
        if self._a is None:
            self._a, self._b = _halfspaces_from_vertices(self._verts)
        return [list(r) for r in self._a], list(self._b)

    def contains(self, point, strict=False) -> bool:
        a, b = self.halfspaces()
        pt = [la._rational(x) for x in point]
        if strict:
            return all(la.dot(row, pt) < bv for row, bv in zip(a, b))
        return all(la.dot(row, pt) <= bv for row, bv in zip(a, b))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return self.integer_vertices() == other.integer_vertices()

    # -- face lattice ---------------------------------------------------------

    def _facets_of(self, face):
        """Facets of a face, both as bitmasks over the sorted vertices.

        The facets of the polytope are the maximal tight vertex sets of its
        rows, found once; the facets of a face F are the inclusion-maximal
        sets among the proper, nonempty F & G over the facets G of the
        polytope. So every face follows from one vertex-facet incidence by
        bit operations alone.
        """
        if self._facets is None:
            ints, den = self.integer_vertices()
            self._facets = _maximal(
                _tight_masks(ints, den, *self.halfspaces()),
                (1 << len(ints)) - 1)
        if face not in self._below:
            self._below[face] = _maximal([face & g for g in self._facets],
                                         face)
        return self._below[face]

    def _faces(self, k):
        """Vertex masks of the k-dimensional faces, in ascending order."""
        level = {(1 << len(self.integer_vertices()[0])) - 1}
        for _ in range(self.dim - k):
            level = {g for f in level for g in self._facets_of(f)}
        return sorted(level)

    # -- volume ---------------------------------------------------------------

    def coordinate_volume(self) -> Fraction:
        """Lebesgue volume in coordinate space, exact rational.

        The simplices of the pulling triangulation come as vertex indices,
        and the determinants are taken in ints, on the vertices scaled to
        their common denominator D and read by index, then divided once by
        d! D^d. A body that is not full-dimensional triangulates into
        smaller simplices and has volume 0.
        """
        d = self.dim
        ints, den = self.integer_vertices()
        total = 0
        for s in self._pulling():
            if len(s) <= d:
                return Fraction(0)
            p0 = ints[s[0]]
            total += abs(la.det_int([[x - y for x, y in zip(ints[v], p0)]
                                     for v in s[1:]]))
        return Fraction(total, math.factorial(d) * den ** d)

    def triangulation(self):
        """List of d-simplices (tuples of d+1 vertices) tiling the polytope:
        the simplices of ``_pulling`` with their indices read as vertices."""
        verts = self.vertices()
        return [tuple(verts[i] for i in s) for s in self._pulling()]

    def _pulling(self):
        """The pulling triangulation, as tuples of indices into the sorted
        vertices: each face is coned from its lowest vertex over the
        triangulations of its facets that do not contain that vertex. The
        simplices have disjoint interiors and exactly tile the polytope.
        """
        def pull(face):
            if face & (face - 1) == 0:
                yield (face.bit_length() - 1,)
                return
            apex = (face & -face).bit_length() - 1
            for g in self._facets_of(face):
                if not g >> apex & 1:
                    for s in pull(g):
                        yield (apex,) + s

        return list(pull((1 << len(self.integer_vertices()[0])) - 1))

    def volume(self):
        """Metric volume, exact (a ClosedForm)."""
        return la._sqrt_rational(la.det(self._metric())) \
            * self.coordinate_volume()

    # -- operations -----------------------------------------------------------

    def polar(self) -> "Polytope":
        """Polar body with respect to the metric: {y : <x, y>_G <= 1}."""
        if not self.contains([0] * self.dim, strict=True):
            raise PolarUndefinedError("polar requires 0 in the interior")
        g = self._metric()
        rows = [la.vec_mat(list(v), g) for v in self.vertices()]
        return Polytope.from_halfspaces(rows, [Fraction(1)] * len(rows),
                                        metric=self.metric)

    def minkowski_sum(self, other: "Polytope") -> "Polytope":
        if self.dim != other.dim:
            raise DimensionMismatchError("Minkowski sum needs equal dimensions")
        pts = [[x + y for x, y in zip(u, v)]
               for u in self.vertices() for v in other.vertices()]
        return Polytope.from_vertices(pts, metric=self.metric)

    def negated(self) -> "Polytope":
        return Polytope.from_vertices([[-x for x in v] for v in self.vertices()],
                                      metric=self.metric)

    def scaled(self, c) -> "Polytope":
        c = la._rational(c)
        return Polytope.from_vertices([[c * x for x in v] for v in self.vertices()],
                                      metric=self.metric)

    def translated(self, t) -> "Polytope":
        t = [la._rational(x) for x in t]
        return Polytope.from_vertices([[x + dx for x, dx in zip(v, t)]
                                       for v in self.vertices()], metric=self.metric)

    def difference_body(self) -> "Polytope":
        """(K - K) / 2: the central symmetrization."""
        return self.minkowski_sum(self.negated()).scaled(Fraction(1, 2))

    def project(self, directions) -> "Polytope":
        """Orthogonal projection (in the metric) onto the span of ``directions``.

        ``directions`` are rational coordinate vectors; the result lives in
        their coefficient coordinates and carries the induced metric, so its
        volume is the metric volume of the projected body.
        """
        g = self._metric()
        d_rows = [[la._rational(x) for x in r] for r in directions]
        k = len(d_rows)
        # metric Gram of the direction vectors
        dg = [[la.dot(la.vec_mat(u, g), v) for v in d_rows] for u in d_rows]
        if la.det(dg) == 0:
            raise InvalidInputError("projection directions are dependent")
        dg_inv = la.inverse(dg)
        pts = []
        for v in self.vertices():
            rhs = [la.dot(la.vec_mat(list(v), g), u) for u in d_rows]
            pts.append(la.mat_vec(dg_inv, rhs))
        proj = Polytope.from_vertices(pts, metric=dg)
        return proj

    def support(self, direction):
        """max over the body of <x, direction> in plain coordinates."""
        dvec = [la._rational(x) for x in direction]
        return max(la.dot(list(v), dvec) for v in self.vertices())

    def is_centrally_symmetric(self) -> bool:
        vs = set(self.vertices())
        return all(tuple(-x for x in v) in vs for v in vs)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        a, b = self.halfspaces()
        out = {
            "halfspaces": {"a": [[str(x) for x in r] for r in a],
                           "b": [str(x) for x in b]},
            "vertices": [[str(x) for x in v] for v in self.vertices()],
        }
        if self.metric is not None:
            out["metric"] = [[str(x) for x in r] for r in self.metric]
        return out

    @staticmethod
    def from_dict(obj: dict) -> "Polytope":
        """Polytope from ``to_dict`` output: nonempty "vertices", or
        "halfspaces" with "a" and "b"; anything else raises InvalidInputError.
        """
        try:
            metric = obj.get("metric")
            if obj.get("vertices"):
                return Polytope.from_vertices(obj["vertices"], metric=metric)
            hs = obj["halfspaces"]
            return Polytope.from_halfspaces(hs["a"], hs["b"], metric=metric)
        except (AttributeError, IndexError, KeyError, TypeError):
            raise InvalidInputError(
                'polytope JSON needs nonempty "vertices", or "halfspaces" '
                'with "a" and "b"') from None


# ---------------------------------------------------------------------------
# Constructors for standard bodies
# ---------------------------------------------------------------------------

def cube(n, half_side=Fraction(1, 2)) -> Polytope:
    h = la._rational(half_side)
    rows, b = [], []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        rows.append(list(e))
        b.append(h)
        rows.append([-x for x in e])
        b.append(h)
    return Polytope.from_halfspaces(rows, b)


def cross_polytope(n) -> Polytope:
    verts = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        verts.append(list(e))
        verts.append([-x for x in e])
    return Polytope.from_vertices(verts)


def _chart_gram(n):
    """Gram <f_i, f_j> = 1 + [i == j] of the chart basis f_i = e_i - e_{n+1}
    of the hyperplane sum x = 0 in R^{n+1}."""
    return [[Fraction(1 + (i == j)) for j in range(n)] for i in range(n)]


def simplex(n) -> Polytope:
    """Regular n-simplex with edge length sqrt(2), realized exactly.

    Coordinates are the coefficients on the basis f_i = e_i - e_{n+1} of the
    hyperplane {x in R^{n+1} : sum x = 0}; the vertices of
    conv{e_1 - c, ..., e_{n+1} - c} (c the centroid of the e_i) become
    0, f_1, ..., f_n up to translation, so conv{0, e_1, ..., e_n} in chart
    coordinates with metric Gram <f_i, f_j> = 1 + [i == j].
    """
    verts = [[Fraction(0)] * n]
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        verts.append(e)
    return Polytope.from_vertices(verts, metric=_chart_gram(n))


def equilateral_triangle() -> Polytope:
    """Unit-edge equilateral triangle, exact via a metric chart."""
    g = [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(1)]]
    return Polytope.from_vertices([[0, 0], [1, 0], [0, 1]], metric=g)


def simplex_dv_cell(n) -> Polytope:
    """Dirichlet-Voronoi cell of the lattice {j in Z^{n+1} : sum j = 0} in the
    chart coordinates of ``simplex(n)``: {x : max_i x_i - min_i x_i <= 1}
    written on the ambient coordinates of R^{n+1}.

    A chart point y is x = sum y_i f_i, so x_i = y_i for i <= n and
    x_{n+1} = -sum(y), and each x_i - x_j <= 1 (i != j) is a linear
    inequality on y.
    """
    rows, b = [], []
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            row = [Fraction(0)] * n
            if i < n:
                row[i] += 1
            else:
                row = [x - 1 for x in row]
            if j < n:
                row[j] -= 1
            else:
                row = [x + 1 for x in row]
            rows.append(row)
            b.append(Fraction(1))
    return Polytope.from_halfspaces(rows, b, metric=_chart_gram(n))


# ---------------------------------------------------------------------------
# Hanner polytopes
# ---------------------------------------------------------------------------

def hanner(tree) -> Polytope:
    """Hanner polytope from a nested tuple tree.

    Leaves are the symbol "seg" (the segment [-1, 1]); internal nodes are
    ("sum", t1, t2, ...) for direct (l1) sums and ("prod", t1, t2, ...) for
    direct (l-infinity) products. The result lives in R^n, n = leaf count.
    """
    if tree == "seg":
        return Polytope.from_vertices([[Fraction(-1)], [Fraction(1)]])
    op = tree[0]
    parts = [hanner(t) for t in tree[1:]]
    if op == "prod":
        out = parts[0]
        for p in parts[1:]:
            a1, b1 = out.halfspaces()
            a2, b2 = p.halfspaces()
            rows = [r + [Fraction(0)] * p.dim for r in a1]
            rows += [[Fraction(0)] * out.dim + r for r in a2]
            out = Polytope.from_halfspaces(rows, b1 + b2)
        return out
    if op == "sum":
        out = parts[0]
        for p in parts[1:]:
            verts = [list(v) + [Fraction(0)] * p.dim for v in out.vertices()]
            verts += [[Fraction(0)] * out.dim + list(v) for v in p.vertices()]
            out = Polytope.from_vertices(verts)
        return out
    raise InvalidInputError(f"unknown Hanner node {op!r}")


def volume_product(p: Polytope):
    """vol(K) * vol(K polar), exact (a ClosedForm)."""
    return p.volume() * p.polar().volume()


# ---------------------------------------------------------------------------
# Zonotope recognition
# ---------------------------------------------------------------------------

def _symmetric(points) -> bool:
    """Whether a point set is symmetric about its centroid."""
    c2 = [2 * sum(col) / len(points) for col in zip(*points)]
    pts = set(points)
    return all(tuple(c - x for c, x in zip(c2, v)) in pts for v in points)


def is_zonotope(p: Polytope):
    """Zonotope test: the body and every 2-face centrally symmetric. Returns
    (flag, generators) where generators are the distinct primitive edge
    directions scaled to full edge length, or (False, None)."""
    verts = p.vertices()
    if not _symmetric(verts) or not all(
            _symmetric([verts[j] for j in _bits(f)]) for f in p._faces(2)):
        return False, None
    gens = {}
    for i, j in sorted(_bits(e) for e in p._faces(1)):
        dvec = la._canonical_sign([x - y for x, y in zip(verts[i], verts[j])])
        gens.setdefault(_primitive_int(dvec), dvec)
    return True, list(gens.values())


# ---------------------------------------------------------------------------
# Minimum volume enclosing ellipsoid (Khachiyan)
# ---------------------------------------------------------------------------

@dataclass
class Ellipsoid:
    """{x : (x - center)^T shape (x - center) <= 1} in coordinate space.

    ``metric`` is the Gram of the coordinate basis; volume is measured in it.
    """

    center: list
    shape: list  # SPD matrix, floats
    metric: list | None = None

    def volume(self) -> float:
        gdet = la.det(_fractions(self.metric)) if self.metric else 1
        return float(kappa(len(self.center))) \
            * math.sqrt(gdet / la.det(_fractions(self.shape)))

    def contains(self, point, tol=1e-9) -> bool:
        d = [float(x) - c for x, c in zip(point, self.center)]
        q = sum(di * sum(sij * dj for sij, dj in zip(si, d))
                for di, si in zip(d, self.shape))
        return q <= 1 + tol

    def to_dict(self):
        return {"center": list(self.center),
                "shape": [list(r) for r in self.shape]}


def _fractions(a):
    """The float matrix ``a`` as the Fractions its entries are, exactly."""
    return [[Fraction(x) for x in row] for row in a]


def _float_inverse(a):
    """Inverse of a nonsingular float matrix, Gauss-Jordan elimination
    with partial pivoting."""
    n = len(a)
    m = [[float(x) for x in row] + [float(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        p = max(range(c, n), key=lambda i: abs(m[i][c]))
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def _weighted_gram(u, pts):
    """sum_i u_i p_i p_i^T over the points p_i, floats."""
    cols = list(zip(*pts))
    return [[sum(map(operator.mul, wa, b)) for b in cols]
            for wa in ([w * x for w, x in zip(u, a)] for a in cols)]


def _moments(u, lifted):
    """(X^-1, [q^T X^-1 q for the points q]) for X = sum_i u_i q_i q_i^T."""
    xi = _float_inverse(_weighted_gram(u, lifted))
    return xi, [la.dot(q, la.mat_vec(xi, q)) for q in lifted]


def mvee(p: Polytope, tol=1e-8) -> Ellipsoid:
    """Minimum volume enclosing ellipsoid of the vertices, Khachiyan's
    barycentric coordinate ascent with away steps (Todd & Yildirim), in
    plain floats; CapabilityError when the duality gap is still above
    ``tol`` after ``MVEE_ITERATIONS`` steps, saying the gap it reached and
    the number of support points (weights above the 1e-14 cut-off).

    A step moves weight to or from one point j, so X^-1 and the m_i take
    a rank-one (Sherman-Morrison) update, O(n d) per step; they are
    computed afresh every n updates and before the gap is accepted.
    The ascent and the minimum volume ellipsoid are affine invariant, so
    the ascent runs on the coordinates themselves and the metric enters
    only the volume: {x : (x-c)^T shape (x-c) <= 1} is the MVEE in the
    polytope's metric as well."""
    pts = [[float(x) for x in v] for v in p.vertices()]
    lifted, cols = [y + [1.0] for y in pts], list(zip(*pts))
    d, n = p.dim, len(pts)
    u = [1.0 / n] * n
    updates = n  # rank-one updates since the moments were fresh
    for _ in range(MVEE_ITERATIONS):
        if updates >= n:
            (xi, m), updates = _moments(u, lifted), 0
        jp = max(range(n), key=m.__getitem__)
        jm = min((i for i in range(n) if u[i] > 1e-14), key=m.__getitem__)
        eps_plus = m[jp] / (d + 1) - 1.0
        eps_minus = 1.0 - m[jm] / (d + 1)
        # duality gap: optimum has m_i = d + 1 on the support
        if max(eps_plus, eps_minus) <= tol:
            if not updates:
                break
            updates = n  # confirm the gap on fresh moments
            continue
        if eps_plus >= eps_minus:
            j, tau = jp, (m[jp] - d - 1.0) / ((d + 1) * (m[jp] - 1.0))
        else:
            # away step: shrink the weight of the worst support point
            lam = u[jm] / (1.0 - u[jm])
            if m[jm] > 1.0:
                lam = min(lam, (d + 1.0 - m[jm]) / ((d + 1) * (m[jm] - 1.0)))
            j, tau = jm, -lam
        u = [(1 - tau) * w for w in u]
        u[j] += tau
        # X <- (1 - tau) X + tau q_j q_j^T
        v = la.mat_vec(xi, lifted[j])
        c, s = tau / (1 - tau + tau * m[j]), 1 / (1 - tau)
        g = [v[-1]] * n  # q_i . v, column by column
        for va, col in zip(v, cols):
            g = [x + va * y for x, y in zip(g, col)]
        m = [(mi - c * gi * gi) * s for mi, gi in zip(m, g)]
        xi = [[(x - c * vi * vk) * s for x, vk in zip(row, v)]
              for row, vi in zip(xi, v)]
        updates += 1
    else:
        raise CapabilityError(
            f"minimum volume ellipsoid not within tolerance {tol} after "
            f"{MVEE_ITERATIONS} iterations: duality gap "
            f"{max(eps_plus, eps_minus):.3g} on "
            f"{sum(w > 1e-14 for w in u)} support points")
    center = [sum(map(operator.mul, u, col)) for col in cols]
    cov = [[x - ca * cb for x, cb in zip(row, center)]
           for row, ca in zip(_weighted_gram(u, pts), center)]
    shape = [[x / d for x in row] for row in _float_inverse(cov)]
    metric = [[float(x) for x in row] for row in p._metric()]
    return Ellipsoid(center=center, shape=shape, metric=metric)


def mvee_ratio(p: Polytope, tol=1e-8) -> float:
    """vol(MVEE) / vol(K) in the body's metric, floats."""
    return mvee(p, tol=tol).volume() / float(p.volume())
