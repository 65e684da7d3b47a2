"""Exact rational polytope arithmetic.

A polytope is an immutable value of one description, its halfspaces
(``a x <= b`` rows): a body built from points takes the halfspaces of their
hull when it is built, and an affine map acts on the rows. The vertices and
the vertex-facet incidence are read off one exact double description of the
halfspaces, once per value, and each facet is named by the row that bounds
it. Coordinates live in the polytope's own coordinate space; an
optional positive definite rational ``metric`` Gram matrix says how that
space embeds isometrically, so lower-dimensional sections and projections
keep exact volumes: the metric volume is the coordinate volume times
sqrt(det metric).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import _double_description as dd
from . import _linalg as la
from ._double_description import _bits, _primitive_int
from ._linalg import kappa
from .errors import (
    CapabilityError,
    DimensionMismatchError,
    InvalidInputError,
    PolarUndefinedError,
)


# Coordinate ascent steps ``mvee`` may take to meet its tolerance.
MVEE_ITERATIONS = 100_000

# Simplices one pulling triangulation may list; the largest that latgeom
# needs, the facet of E8's cell that ``symmetry.cell_volume`` cones, has
# 67,608, and cube:8 has 8! = 40,320.
SIMPLEX_BUDGET = 200_000


def _maximal(masks, whole):
    """The inclusion-maximal masks among ``masks`` other than 0 and
    ``whole``, in ascending order."""
    out = []
    # a strict superset has more bits, so it is kept (or covered) first
    for m in sorted(set(masks) - {0, whole}, key=int.bit_count, reverse=True):
        if all(m & t != m for t in out):
            out.append(m)
    return sorted(out)


def _full_dimensional(verts):
    """InvalidInputError unless the points ``verts`` span their space
    affinely."""
    if la.affine_rank([list(v) for v in verts]) != len(verts[0]):
        raise InvalidInputError("vertex set is not full-dimensional")


def _nonempty(rows, what):
    """``rows`` read by ``la._rational_rows``; InvalidInputError, naming
    ``what`` they describe, when there are none or the first is empty."""
    rows = la._rational_rows(rows)
    if not rows or not rows[0]:
        raise InvalidInputError(f"empty {what}")
    return rows


def _read_metric(metric, d):
    """``metric`` as the Gram of the coordinate basis of a d-dimensional
    body, rows of Fractions, or None when there is none. A metric that is
    not d x d raises DimensionMismatchError, and one that is not symmetric
    positive definite InvalidInputError."""
    if metric is None:
        return None
    m = la._rational_rows(metric)
    if len(m) != d or any(len(r) != d for r in m):
        raise DimensionMismatchError(f"the metric of a {d}-dimensional body "
                                     f"must be {d} x {d}")
    if any(m[i][j] != m[j][i] for i in range(d) for j in range(i)) or \
            la._sylvester(la.integer_form(m)[0]) is None:
        raise InvalidInputError("the metric must be symmetric positive "
                                "definite")
    return m


# ---------------------------------------------------------------------------
# Polytope
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Polytope:
    """Bounded convex rational polytope, full-dimensional in its coordinates:
    an immutable value whose only fields are its halfspaces a x <= b, the
    rows ``_a`` and the right-hand sides ``_b`` as tuples, and its metric.
    What is derived from them (the vertices, the vertex-facet incidence,
    the facets of each face) is computed once per value and cached, as
    ``Lattice`` caches its invariants. So a body is an immutable value
    wherever it is kept, as a lattice memo's entries must be (a Voronoi
    cell is one), which a test in ``tests/test_hygiene.py`` checks.
    Equality compares the vertices; a body is not hashable."""

    _a: tuple
    _b: tuple
    metric: tuple | None = None  # rational SPD Gram of the coordinate basis

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_halfspaces(a_rows: Sequence[Sequence], b_vals: Sequence,
                        metric=None) -> "Polytope":
        a = _nonempty(a_rows, "H-description")
        b = tuple(la._rational(x) for x in b_vals)
        if any(len(r) != len(a[0]) for r in a) or len(b) != len(a):
            raise DimensionMismatchError("inconsistent H-description shapes")
        return Polytope(_a=a, _b=b, metric=_read_metric(metric, len(a[0])))

    @staticmethod
    def from_vertices(verts: Sequence[Sequence], metric=None) -> "Polytope":
        v = _nonempty(verts, "V-description")
        if any(len(p) != len(v[0]) for p in v):
            raise DimensionMismatchError("inconsistent vertex shapes")
        return Polytope._hull(v, _read_metric(metric, len(v[0])))

    @staticmethod
    def _hull(points, metric) -> "Polytope":
        """conv(points) for rows of Fractions, carrying a ``metric`` that
        ``_read_metric`` has already checked, as a body made from another
        body has; duplicate points are dropped, and the rest must span
        their space affinely.

        The body keeps the minimal H-description of the hull, found by
        polarity through the centroid c of the points: the polar of a
        polytope with 0 interior swaps vertices and facet normals, so each
        vertex y of {y : y . (v - c) <= 1 for every point v} gives the
        facet y . (x - c) <= 1.
        """
        verts = list(dict.fromkeys(map(tuple, points)))
        _full_dimensional(verts)
        d, n = len(verts[0]), len(verts)
        c = [sum(v[j] for v in verts) / n for j in range(d)]
        shifted = [[x - cx for x, cx in zip(v, c)] for v in verts]
        a_rows, b_vals = [], []
        for *r, t in dd.vertex_rays(shifted, [Fraction(1)] * n)[0]:
            y = tuple(Fraction(x, t) for x in r)
            a_rows.append(y)
            b_vals.append(Fraction(1) + la.dot(y, c))
        return Polytope(_a=tuple(a_rows), _b=tuple(b_vals), metric=metric)

    @property
    def dim(self) -> int:
        return len(self._a[0])

    def _metric(self):
        return self.metric or la.identity(self.dim)

    # -- conversions ---------------------------------------------------------

    # Derived data, computed once per value. ``cached_property`` writes to
    # the instance ``__dict__`` directly, which a frozen dataclass allows.

    @functools.cached_property
    def _masks(self):
        """The one double description of the halfspaces: the names of its
        rows (their primitive normals (a, -b)), per sorted vertex the mask
        of the rows tight at it, and the vertex form of ``integer_vertices``.
        ``_tight`` drops it once it has turned the masks around: a covering
        radius reads the vertices and never the faces."""
        rays, masks, names = dd.vertex_rays(*self.halfspaces())
        den = math.lcm(*(ray[-1] for ray in rays))
        share = {}.setdefault  # vertices repeat few values
        ints = []
        for ray in rays:
            r = ray[:-1]
            if ray[-1] != den:
                r = [*map((den // ray[-1]).__mul__, r)]
            ints.append(tuple(map(share, r, r)))
        order = sorted(range(len(ints)), key=ints.__getitem__)  # rows differ
        return (names, tuple(map(masks.__getitem__, order)),
                (tuple(map(ints.__getitem__, order)), den))

    @functools.cached_property
    def _form(self):
        return self._masks[2]

    def integer_vertices(self):
        """(W, D): the sorted vertices as int rows over their common
        denominator D, so ``vertices()[i] == W[i] / D``.

        W is read off the rays (r, t) of the double description of the
        halfspaces, so a point given to ``from_vertices`` that is not
        extreme never enters: D is the lcm of the t, and W holds
        r (D / t). Rows over one positive denominator sort as the vertices
        do, and equal entries share one int.
        """
        return self._form

    def vertices(self):
        """The vertices, sorted, as Fraction tuples read off
        ``integer_vertices``; a fresh list, built on every call."""
        ints, den = self.integer_vertices()
        return [tuple(Fraction(x, den) for x in w) for w in ints]

    def halfspaces(self):
        return [list(r) for r in self._a], list(self._b)

    def contains(self, point, strict=False) -> bool:
        pt = [la._rational(x) for x in point]
        below = operator.lt if strict else operator.le
        return all(below(la.dot(r, pt), bv) for r, bv in zip(self._a, self._b))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return self.integer_vertices() == other.integer_vertices()

    # -- face lattice ---------------------------------------------------------

    @functools.cached_property
    def _tight(self):
        self._form  # the vertex form stays when the masks go
        names, masks, _ = vars(self).pop("_masks")
        tight = [0] * len(names)
        for i, mask in enumerate(masks):
            for row in _bits(mask):
                tight[row] |= 1 << i
        return dict(zip(names, tight))

    def _incidence(self):
        """{name: mask}: per double-description row, keyed by its name, the
        primitive int normal (a, -b) of a row a . x <= b, the mask of the
        sorted vertices tight at it. The masks of the double description
        are turned around on the first call, which then drops them. Rows
        that are positive multiples of one another share a name and a
        mask."""
        return self._tight

    def _facet(self, a, b):
        """The mask of the sorted vertices on a . x = b, for a row
        a . x <= b of the body's halfspaces with a != 0."""
        return self._incidence()[_primitive_int(list(a) + [-b])]

    @functools.cached_property
    def _facets(self):
        return _maximal(self._tight.values(), (1 << len(self._form[0])) - 1)

    @functools.cached_property
    def _below(self):
        return {}  # face mask -> the masks of its facets

    def _facets_of(self, face):
        """Facets of a face, both as bitmasks over the sorted vertices.

        The facets of the polytope are the maximal sets among the rows'
        tight vertex sets, the ``_incidence`` that the double description
        hands over with the rays; the facets of a face F are the
        inclusion-maximal sets among the proper, nonempty F & G over the
        facets G of the polytope. So every face follows from one
        vertex-facet incidence by bit operations alone.
        """
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

    def _pulling(self, face=None):
        """The pulling triangulation of a face, given as a vertex mask (the
        whole body by default), as tuples of indices into the sorted
        vertices: each face is coned from its lowest vertex over the
        triangulations of its facets that do not contain that vertex. The
        simplices have disjoint interiors and exactly tile the face. A
        triangulation of more than ``SIMPLEX_BUDGET`` simplices raises
        CapabilityError as the one past the budget is listed.
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

        if face is None:
            face = (1 << len(self.integer_vertices()[0])) - 1
        out = list(itertools.islice(pull(face), SIMPLEX_BUDGET + 1))
        if len(out) > SIMPLEX_BUDGET:
            raise CapabilityError(
                f"pulling triangulation exceeded the simplex budget "
                f"{SIMPLEX_BUDGET}: {len(out)} simplices listed")
        return out

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
        rows = tuple(tuple(la.vec_mat(list(v), g)) for v in self.vertices())
        return Polytope(_a=rows, _b=(Fraction(1),) * len(rows),
                        metric=self.metric)

    def minkowski_sum(self, other: "Polytope") -> "Polytope":
        if self.dim != other.dim:
            raise DimensionMismatchError("Minkowski sum needs equal dimensions")
        pts = [[x + y for x, y in zip(u, v)]
               for u in self.vertices() for v in other.vertices()]
        return Polytope._hull(pts, self.metric)

    # An affine map acts on the rows: x in c K iff (sign c) a . x <= |c| b,
    # and x in K + t iff a . x <= b + a . t.

    def negated(self) -> "Polytope":
        return self.scaled(-1)

    def scaled(self, c) -> "Polytope":
        c = la._rational(c)
        if not c:
            raise InvalidInputError("a body scaled by 0 is flat")
        a = self._a if c > 0 else tuple(tuple(-x for x in r) for r in self._a)
        return replace(self, _a=a, _b=tuple(abs(c) * bv for bv in self._b))

    def translated(self, t) -> "Polytope":
        t = [la._rational(x) for x in t]
        if len(t) != self.dim:
            raise DimensionMismatchError("translation needs a vector of the "
                                         "body's dimension")
        return replace(self, _b=tuple(bv + la.dot(r, t)
                                      for r, bv in zip(self._a, self._b)))

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
        # metric Gram of the direction vectors
        dg = [[la.dot(la.vec_mat(u, g), v) for v in d_rows] for u in d_rows]
        dg_inv = la.inverse(dg)
        if dg_inv is None:
            raise InvalidInputError("projection directions are dependent")
        pts = []
        for v in self.vertices():
            rhs = [la.dot(la.vec_mat(list(v), g), u) for u in d_rows]
            pts.append(la.mat_vec(dg_inv, rhs))
        return Polytope.from_vertices(pts, metric=dg)

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

def _signed_axes(n):
    """The rows e_1, -e_1, ..., e_n, -e_n of R^n."""
    return [[s * (i == j) for j in range(n)] for i in range(n) for s in (1, -1)]


def cube(n, half_side=Fraction(1, 2)) -> Polytope:
    return Polytope.from_halfspaces(_signed_axes(n),
                                    [la._rational(half_side)] * (2 * n))


def cross_polytope(n) -> Polytope:
    return Polytope.from_vertices(_signed_axes(n))


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
    """Unit-edge equilateral triangle: simplex(2)'s chart, Gram halved."""
    g = [[x / 2 for x in row] for row in _chart_gram(2)]
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
    directions scaled to full edge length, or (False, None). A body that is
    not full-dimensional raises InvalidInputError."""
    verts = p.vertices()
    _full_dimensional(verts)
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
    polytope's metric as well. A ``tol`` that is not a positive finite
    number, or a body that is not full-dimensional, raises
    InvalidInputError."""
    if not (isinstance(tol, numbers.Real) and 0 < tol < math.inf):
        raise InvalidInputError(f"the tolerance {tol!r} must be a positive "
                                "finite number")
    verts = p.vertices()
    _full_dimensional(verts)
    pts = [[float(x) for x in v] for v in verts]
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
