"""Exact rational polytope arithmetic.

Polytopes carry both an H-description (``a x <= b`` rows) and a V-description
(vertex list), kept in sync lazily via exact double description. Coordinates
live in the polytope's own coordinate space; an optional positive definite
rational ``metric`` Gram matrix says how that space embeds isometrically, so
lower-dimensional sections and projections keep exact volumes: the metric
volume is the coordinate volume times sqrt(det metric).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import sympy as sp

from . import _linalg as la
from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    PolarUndefinedError,
    UnboundedBodyError,
)


def _sqrt_rat(q: Fraction):
    return sp.sqrt(sp.Rational(q.numerator, q.denominator))


# ---------------------------------------------------------------------------
# Exact double description on the homogenization cone
# ---------------------------------------------------------------------------

def _primitive_int(vec):
    """Scale a rational vector to a primitive integer tuple (gcd 1)."""
    fr = [Fraction(x) for x in vec]
    lcm = math.lcm(*(f.denominator for f in fr)) if fr else 1
    ints = [int(f * lcm) for f in fr]
    g = math.gcd(*ints) if any(ints) else 1
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _cone_extreme_rays(normals):
    """Extreme rays of {x : n . x <= 0 for all n}, by incremental double
    description over primitive integer vectors.

    Tight constraint sets are tracked as bitmasks; ray adjacency uses the
    combinatorial criterion (no third extreme ray is tight on the shared
    set), valid because the cone stays pointed throughout.
    """
    d = len(normals[0])
    norm_int = [_primitive_int(nv) for nv in normals]
    # start with d linearly independent normals forming a simplicial cone,
    # then add the rest one at a time.
    idx = []
    mat = []
    for i, nv in enumerate(norm_int):
        if la.rank(mat + [list(nv)]) > len(mat):
            mat.append(list(nv))
            idx.append(i)
        if len(mat) == d:
            break
    if len(mat) < d:
        raise UnboundedBodyError("cone has a lineality space (not pointed)")
    inv = la.inverse(mat)
    # rays of the simplicial cone {x : mat x <= 0}: columns of -mat^{-1}
    rays = [_primitive_int([-inv[r][c] for r in range(d)]) for c in range(d)]
    processed = [norm_int[i] for i in idx]
    rest = [nv for i, nv in enumerate(norm_int) if i not in set(idx)]

    def tight_mask(ray):
        mask = 0
        for bit, nv in enumerate(processed):
            if sum(a * b for a, b in zip(nv, ray)) == 0:
                mask |= 1 << bit
        return mask

    masks = [tight_mask(r) for r in rays]
    for nv in rest:
        vals = [sum(a * b for a, b in zip(nv, r)) for r in rays]
        bit = 1 << len(processed)
        processed.append(nv)
        keep_r, keep_m = [], []
        pos, neg = [], []
        for r, m, v in zip(rays, masks, vals):
            if v <= 0:
                keep_r.append(r)
                keep_m.append(m | bit if v == 0 else m)
            if v > 0:
                pos.append((r, m, v))
            elif v < 0:
                neg.append((r, m, v))
        if not pos:
            rays, masks = keep_r, keep_m
            continue
        all_masks = masks
        new_r, new_m = [], []
        for (rp, mp, vp), (rn, mn, vn) in itertools.product(pos, neg):
            shared = mp & mn
            if bin(shared).count("1") < d - 2:
                continue
            # combinatorial adjacency: no third extreme ray tight on shared
            if any(m & shared == shared for r3, m in zip(rays, all_masks)
                   if r3 is not rp and r3 is not rn):
                continue
            comb = _primitive_int([vp * xn - vn * xp
                                   for xp, xn in zip(rp, rn)])
            new_r.append(comb)
            new_m.append(None)
        rays = keep_r + new_r
        masks = keep_m + [tight_mask(r) if m is None else m
                          for r, m in zip(new_r, new_m)]
        # dedupe (combinations can coincide)
        seen = {}
        for r, m in zip(rays, masks):
            seen[r] = m
        rays, masks = list(seen.keys()), list(seen.values())
    return [tuple(Fraction(x) for x in r) for r in rays]


def _normalize_ray(r):
    for x in r:
        if x != 0:
            s = abs(x)
            return tuple(Fraction(y) / s for y in r)
    return tuple(Fraction(0) for _ in r)


def _dedupe_rays(rays):
    seen = {}
    for r in rays:
        seen[tuple(r)] = r
    return list(seen.values())


def _vertices_from_halfspaces(a_rows, b_vals):
    """Vertices of {x : A x <= b} via DD on the homogenization
    {(x, t) : A x - b t <= 0, -t <= 0}. Raises if unbounded or empty."""
    d = len(a_rows[0]) if a_rows else 0
    normals = [list(row) + [-b] for row, b in zip(a_rows, b_vals)]
    normals.append([Fraction(0)] * d + [Fraction(-1)])
    rays = _cone_extreme_rays(normals)
    verts = []
    for r in rays:
        t = r[-1]
        if t == 0:
            if any(x != 0 for x in r[:-1]):
                raise UnboundedBodyError("polytope is unbounded")
            continue
        if t < 0:
            continue
        verts.append(tuple(x / t for x in r[:-1]))
    if not verts:
        raise InvalidInputError("empty polytope")
    return _dedupe_rays(verts)


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
    polar_verts = _vertices_from_halfspaces(shifted, [Fraction(1)] * len(shifted))
    a_rows, b_vals = [], []
    for y in polar_verts:
        # facet y . (x - c) <= 1
        a_rows.append(list(y))
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
    metric: list | None = None  # rational SPD Gram of the coordinate basis
    _canonical: bool = False  # _verts known to be exactly the extreme points

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_halfspaces(a_rows: Sequence[Sequence], b_vals: Sequence,
                        metric=None) -> "Polytope":
        a = [[la._rational(x) for x in row] for row in a_rows]
        b = [la._rational(x) for x in b_vals]
        if any(len(r) != len(a[0]) for r in a) or len(b) != len(a):
            raise DimensionMismatchError("inconsistent H-description shapes")
        m = [[la._rational(x) for x in row] for row in metric] if metric else None
        return Polytope(_a=a, _b=b, metric=m)

    @staticmethod
    def from_vertices(verts: Sequence[Sequence], metric=None) -> "Polytope":
        v = [tuple(la._rational(x) for x in p) for p in verts]
        if any(len(p) != len(v[0]) for p in v):
            raise DimensionMismatchError("inconsistent vertex shapes")
        m = [[la._rational(x) for x in row] for row in metric] if metric else None
        return Polytope(_verts=_dedupe_rays(v), metric=m)

    @property
    def dim(self) -> int:
        if self._a is not None:
            return len(self._a[0])
        return len(self._verts[0])

    def _metric(self):
        return self.metric or la.identity(self.dim)

    # -- conversions ---------------------------------------------------------

    def vertices(self):
        if self._verts is None:
            self._verts = _vertices_from_halfspaces(self._a, self._b)
            self._canonical = True
        if not self._canonical:
            # constructor points may include non-extreme ones; a point is a
            # vertex iff its tight facet normals span the whole space
            a, b = self.halfspaces()
            keep = []
            for v in self._verts:
                tight = [row for row, bv in zip(a, b) if la.dot(row, list(v)) == bv]
                if len(tight) >= self.dim and la.rank(tight) == self.dim:
                    keep.append(v)
            self._verts = keep
            self._canonical = True
        return sorted(self._verts)

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
        return sorted(self.vertices()) == sorted(other.vertices())

    # -- volume ---------------------------------------------------------------

    def coordinate_volume(self) -> Fraction:
        """Lebesgue volume in coordinate space, exact rational."""
        verts = self.vertices()
        d = self.dim
        if la.affine_rank(list(map(list, verts))) < d:
            return Fraction(0)
        total = Fraction(0)
        fact = Fraction(math.factorial(d))
        for simplex_verts in self.triangulation():
            v0 = simplex_verts[0]
            rows = [[x - y for x, y in zip(v, v0)] for v in simplex_verts[1:]]
            total += abs(la.det(rows)) / fact
        return total

    def triangulation(self):
        """List of d-simplices (tuples of d+1 vertices) covering the polytope.

        Recursive: cone each facet's triangulation from a fixed base vertex.
        The simplices have disjoint interiors and exactly tile the polytope.
        """
        d = self.dim
        verts = self.vertices()
        if d == 1:
            return [(min(verts), max(verts))]
        a, b = self.halfspaces()
        v0 = verts[0]
        simplices = []
        for row, bv in zip(a, b):
            if la.dot(row, list(v0)) == bv:
                continue
            fverts = [v for v in verts if la.dot(row, list(v)) == bv]
            sub, back = _facet_chart(fverts, d)
            for s in sub.triangulation():
                simplices.append((v0,) + tuple(back[c] for c in s))
        return simplices

    def volume(self):
        """Metric volume, exact sympy expression."""
        cv = self.coordinate_volume()
        g = self._metric()
        return _sqrt_rat(la.det(g)) * sp.Rational(cv.numerator, cv.denominator)

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
        metric = obj.get("metric")
        if "vertices" in obj and obj["vertices"]:
            return Polytope.from_vertices(obj["vertices"], metric=metric)
        hs = obj["halfspaces"]
        return Polytope.from_halfspaces(hs["a"], hs["b"], metric=metric)


def _facet_chart(fverts, d):
    """A facet (affine dimension d-1, given by its vertices in R^d) as a
    full-dimensional polytope in a rational chart (d-1 independent edge
    directions from the first vertex), with the map from chart points back
    to the original facet vertices. The chart serves only the combinatorics.
    """
    p0 = list(fverts[0])
    diffs = [[x - y for x, y in zip(p, p0)] for p in fverts]
    chart = []
    for dvec in diffs:
        if la.rank(chart + [dvec]) > len(chart):
            chart.append(dvec)
        if len(chart) == d - 1:
            break
    ginv = la.inverse(la.gram_matrix(chart))
    coords = [tuple(la.mat_vec(ginv, [la.dot(dvec, c) for c in chart]))
              for dvec in diffs]
    back = {c: tuple(v) for c, v in zip(coords, fverts)}
    return Polytope.from_vertices(coords), back


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
    g = [[Fraction(1 + (i == j)) for j in range(n)] for i in range(n)]
    return Polytope.from_vertices(verts, metric=g)


def equilateral_triangle() -> Polytope:
    """Unit-edge equilateral triangle, exact via a metric chart."""
    g = [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(1)]]
    return Polytope.from_vertices([[0, 0], [1, 0], [0, 1]], metric=g)


def simplex_dv_cell(n) -> Polytope:
    """Dirichlet-Voronoi cell of the lattice {j in Z^{n+1} : sum j = 0} in the
    chart coordinates of ``simplex(n)``: {x : max_i x_i - min_i x_i <= 1}
    written on the ambient coordinates (x_1, ..., x_n, x_{n+1} = chart form).

    In chart coordinates y (ambient x = (y_1, ..., y_n, 0) - mean adjustment),
    the inequalities x_i - x_j <= 1 over all i != j in R^{n+1} become linear
    inequalities on y with x = sum y_i f_i.
    """
    # ambient coordinates of a chart point y: x_i = y_i for i < n+1,
    # x_{n+1} = -sum? No: x = sum y_i (e_i - e_{n+1}), so x_i = y_i (i <= n),
    # x_{n+1} = -sum(y).
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
    g = [[Fraction(1 + (i == j)) for j in range(n)] for i in range(n)]
    return Polytope.from_halfspaces(rows, b, metric=g)


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
    """vol(K) * vol(K polar), exact sympy."""
    return sp.simplify(p.volume() * p.polar().volume())


# ---------------------------------------------------------------------------
# Zonotope recognition
# ---------------------------------------------------------------------------

def _edges(p: Polytope):
    """Vertex pairs forming edges, via the rank test on shared tight facets."""
    verts = p.vertices()
    a, b = p.halfspaces()
    d = p.dim
    tight = []
    for v in verts:
        tight.append({i for i, (row, bv) in enumerate(zip(a, b))
                      if la.dot(row, list(v)) == bv})
    edges = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            shared = tight[i] & tight[j]
            rows = [a[t] for t in shared]
            if rows and la.rank(rows) == d - 1:
                edges.append((verts[i], verts[j]))
    return edges


def is_zonotope(p: Polytope):
    """Zonotope test: every 2-face centrally symmetric. Returns (flag,
    generators) where generators are the distinct primitive edge directions
    scaled to full edge length, or (False, None)."""
    if not p.is_centrally_symmetric():
        # zonotopes here are taken centered; recenter by the vertex centroid
        verts = p.vertices()
        c = [sum(v[j] for v in verts) / len(verts) for j in range(p.dim)]
        p = p.translated([-x for x in c])
        if not p.is_centrally_symmetric():
            return False, None
    ok = _all_2faces_symmetric(p)
    if not ok:
        return False, None
    gens = {}
    for u, v in _edges(p):
        dvec = la._canonical_sign([x - y for x, y in zip(u, v)])
        gens.setdefault(_normalize_ray(dvec), dvec)
    return True, list(gens.values())


def _facet_vertex_sets(p: Polytope):
    verts = p.vertices()
    a, b = p.halfspaces()
    out = []
    for row, bv in zip(a, b):
        out.append([v for v in verts if la.dot(row, list(v)) == bv])
    return out


def _faces_2d(p: Polytope):
    """All 2-faces as vertex tuples (in p's coordinates), by recursive facet
    descent through rational charts."""
    if p.dim == 2:
        return [tuple(p.vertices())]
    faces = {}
    for fverts in _facet_vertex_sets(p):
        sub, back = _facet_chart(fverts, p.dim)
        for face in _faces_2d(sub):
            pts = tuple(sorted(back[c] for c in face))
            faces[frozenset(pts)] = pts
    return list(faces.values())


def _all_2faces_symmetric(p: Polytope) -> bool:
    d = p.dim
    if d <= 2:
        return p.is_centrally_symmetric()
    for pts in _faces_2d(p):
        c = [sum(p_[t] for p_ in pts) * Fraction(1, len(pts)) for t in range(d)]
        vset = {tuple(v) for v in pts}
        for v in pts:
            refl = tuple(2 * cx - x for cx, x in zip(c, v))
            if refl not in vset:
                return False
    return True


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
        import numpy as np
        n = len(self.center)
        kap = float(sp.pi ** sp.Rational(n, 2) / sp.gamma(sp.Rational(n, 2) + 1))
        gdet = np.linalg.det(np.array(self.metric)) if self.metric else 1.0
        return kap * math.sqrt(gdet / np.linalg.det(np.array(self.shape)))

    def contains(self, point, tol=1e-9) -> bool:
        d = [float(x) - c for x, c in zip(point, self.center)]
        q = sum(di * sum(sij * dj for sij, dj in zip(si, d))
                for di, si in zip(d, self.shape))
        return q <= 1 + tol

    def to_dict(self):
        return {"center": list(self.center),
                "shape": [list(r) for r in self.shape]}


def mvee(p: Polytope, tol=1e-8, max_iter=100000) -> Ellipsoid:
    """Minimum volume enclosing ellipsoid of the vertices, Khachiyan's
    barycentric coordinate ascent.

    Minimizes volume in the polytope's metric: coordinates are whitened by a
    Cholesky factor of the metric Gram, so the returned shape matrix is in the
    original coordinates and {x : (x-c)^T shape (x-c) <= 1} is the metric
    MVEE."""
    import numpy as np
    raw = np.array([[float(x) for x in v] for v in p.vertices()], dtype=float)
    r_factor = np.array(la.float_cholesky(p._metric()))  # upper, G = R^T R
    pts = raw @ r_factor.T  # y = R x
    n, d = pts.shape
    q = np.vstack([pts.T, np.ones(n)])
    u = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        x = q @ (u[:, None] * q.T)
        m = np.einsum("ij,jk,ki->i", q.T, np.linalg.inv(x), q)
        jp = int(np.argmax(m))
        active = u > 1e-14
        jm_candidates = np.where(active)[0]
        jm = int(jm_candidates[np.argmin(m[jm_candidates])])
        eps_plus = m[jp] / (d + 1) - 1.0
        eps_minus = 1.0 - m[jm] / (d + 1)
        # duality gap: optimum has m_i = d + 1 on the support
        if max(eps_plus, eps_minus) <= tol:
            break
        if eps_plus >= eps_minus:
            step = (m[jp] - d - 1.0) / ((d + 1) * (m[jp] - 1.0))
            u = (1 - step) * u
            u[jp] += step
        else:
            # away step: shrink the weight of the worst support point
            kappa = m[jm]
            lam = u[jm] / (1.0 - u[jm]) if kappa <= 1.0 else min(
                u[jm] / (1.0 - u[jm]),
                (d + 1.0 - kappa) / ((d + 1) * (kappa - 1.0)))
            u = (1 + lam) * u
            u[jm] -= lam
    center_y = pts.T @ u
    cov = pts.T @ np.diag(u) @ pts - np.outer(center_y, center_y)
    shape_y = np.linalg.inv(cov) / d
    shape_x = r_factor.T @ shape_y @ r_factor
    center_x = np.linalg.solve(r_factor, center_y)
    g = np.array([[float(x) for x in row] for row in p._metric()])
    return Ellipsoid(center=center_x.tolist(), shape=shape_x.tolist(),
                     metric=g.tolist())


def mvee_ratio(p: Polytope, tol=1e-8) -> float:
    """vol(MVEE) / vol(K) in the body's metric, floats."""
    return mvee(p, tol=tol).volume() / float(p.volume())
