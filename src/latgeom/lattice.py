"""Lattice representation, exact determinants, duals, LLL reduction, and the
catalog of named lattices.

A lattice is ``sqrt(scale_sq)`` times the integer row span of a rational
``basis``. Keeping the irrational part as a single squared scalar means every
Gram matrix is rational, so squared lengths and squared determinants stay
exact. Entries are read through ``_linalg._rational``, so float input is
rationalized once, on construction. A ``Lattice`` is an immutable value, so
its basis as integer rows over one denominator, ``(W, D)`` with
``basis = W / D``, its Gram matrix, that Gram's integer form ``(G_int, d)``
with ``G = G_int / d``, and one fraction-free elimination of ``G_int`` are
computed once per value and cached; products of the basis (the Gram, the
LLL basis, the dual) and quadratic forms are evaluated in ``int``. Every
other invariant derived from a value (its reduction, lambda_1, its Voronoi
cell) goes in that value's memo through ``_once``. The ``name`` a value
carries is provenance only: equality and hashing ignore it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from . import _linalg as la
from .errors import (
    CatalogMissError,
    DimensionMismatchError,
    InvalidInputError,
    InvalidLatticeError,
    UnsupportedRankError,
)

# The Lovasz constant of ``reduce``.
LLL_DELTA = Fraction(99, 100)


@dataclass(frozen=True)
class Lattice:
    """Immutable lattice value; all operations return new values."""

    basis: tuple | None  # m rows of length ambient_dim, or None for gram-only
    ambient_dim: int
    scale_sq: Fraction = Fraction(1)  # lattice = sqrt(scale_sq) * rows
    gram_override: tuple | None = None  # for gram-only lattices
    name: str | None = field(default=None, compare=False)  # provenance

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], scale_sq=1,
                  name: str | None = None) -> "Lattice":
        rows = la._rational_rows(rows)
        if not rows:
            raise InvalidInputError("empty basis")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise InvalidInputError("ragged basis")
        scale_sq = la._rational(scale_sq)
        if scale_sq <= 0:
            raise InvalidLatticeError("the scale factor must be positive")
        lat = Lattice(basis=rows, ambient_dim=n, scale_sq=scale_sq,
                      name=name)
        if lat._elimination is None:
            raise InvalidLatticeError("basis vectors are linearly dependent")
        return lat

    @staticmethod
    def from_gram(gram: Sequence[Sequence],
                  name: str | None = None) -> "Lattice":
        g = la._rational_rows(gram)
        if not g or any(len(r) != len(g) for r in g):
            raise InvalidInputError("Gram matrix must be square and nonempty")
        if any(g[i][j] != g[j][i] for i in range(len(g)) for j in range(i)):
            raise InvalidLatticeError("Gram matrix is not symmetric")
        lat = Lattice(basis=None, ambient_dim=len(g), gram_override=g,
                      name=name)
        if lat._elimination is None:
            raise InvalidLatticeError("Gram matrix is not positive definite")
        return lat

    # -- basic geometry ------------------------------------------------------

    @property
    def rank(self) -> int:
        if self.basis is not None:
            return len(self.basis)
        return len(self.gram_override)

    # Derived invariants, computed once per value. ``cached_property`` writes
    # to the instance ``__dict__`` directly, which a frozen dataclass allows.

    @functools.cached_property
    def int_basis(self) -> tuple:
        """(W, D): the basis as integer rows over one positive denominator
        D, so ``basis == W / D``; every product of the basis is formed in
        ints from it, and only its result becomes Fractions."""
        return la.integer_form(self.basis)

    @functools.cached_property
    def _gram(self) -> tuple:
        if self.gram_override is not None:
            return self.gram_override
        w, d = self.int_basis
        s = self.scale_sq
        den = s.denominator * d * d
        return tuple(tuple(Fraction(s.numerator * x, den) for x in row)
                     for row in la.gram_matrix(w))

    @functools.cached_property
    def int_gram(self) -> tuple:
        """(G_int, d): the exact Gram as integer rows over one positive
        denominator d, so ``gram() == G_int / d``."""
        return la.integer_form(self._gram)

    @functools.cached_property
    def _elimination(self):
        """Rows a_i of ``G_int`` after forward fraction-free elimination,
        a_i[i] = D_{i+1} the leading minors (D_0 = 1), or None when the Gram
        is not positive definite: ``la._sylvester``."""
        return la._sylvester(self.int_gram[0])

    @functools.cached_property
    def _det_sq(self):
        return Fraction(self._elimination[-1][-1],
                        self.int_gram[1] ** self.rank)

    @functools.cached_property
    def _memo(self) -> dict:
        """Invariants derived from this value (its reduction, lambda_1^2,
        relevant vectors, Voronoi cell, covering radius), keyed by name,
        filled by ``_once``. Every entry is an immutable value: a number, a
        str, a ClosedForm, a tuple or frozenset of such, or a frozen
        dataclass (a Lattice, a Polytope) whose fields are such, which
        ``tests/test_hygiene.py`` checks on the invariants the CLI reports.
        The one entry that may be replaced is ``enumeration._listing``'s,
        by a longer listing."""
        return {}

    def gram(self):
        """Gram matrix of the (scaled) basis, rational.

        A fresh list on every call, so a caller that edits it cannot change
        the cached Gram."""
        return [list(r) for r in self._gram]

    def det_sq(self):
        return self._det_sq

    def determinant(self):
        """D(L): volume of a basic parallelotope, exact (a ClosedForm)."""
        return la._sqrt_rational(self.det_sq())

    def norm_sq(self, coeffs):
        """Squared length of the lattice vector with the given coefficients."""
        return self.inner(coeffs, coeffs)

    def inner(self, coeffs_a, coeffs_b):
        _check_length(coeffs_a, self.rank, "a coefficient vector")
        _check_length(coeffs_b, self.rank, "a coefficient vector")
        g = self._gram
        return sum(ai * sum(gij * bj for gij, bj in zip(gi, coeffs_b))
                   for ai, gi in zip(coeffs_a, g))

    def to_ambient(self, coeffs):
        """Ambient float coordinates of a coefficient vector (basis required)."""
        if self.basis is None:
            raise UnsupportedRankError("gram-only lattice has no ambient embedding")
        _check_length(coeffs, self.rank, "a coefficient vector")
        # basis = W / D and coeffs = C / e: one int sum and one true
        # division per coordinate, which rounds the exact value as float does
        s = math.sqrt(float(self.scale_sq))
        w, d = self.int_basis
        (cs,), e = la.integer_form([coeffs])
        return [s * (la.dot(cs, col) / (d * e)) for col in zip(*w)]

    def coords_of(self, point):
        """Coefficients (in the rational part of the basis) of an ambient point
        divided by sqrt(scale_sq), exact."""
        if self.basis is None:
            raise UnsupportedRankError("gram-only lattice has no ambient embedding")
        _check_length(point, self.ambient_dim, "an ambient point")
        # with basis = W / D and point = P / e: (e W W^T) x = D W P
        w, d = self.int_basis
        (p,), e = la.integer_form([[la._rational(x) for x in point]])
        return la.solve([[e * x for x in row] for row in la.gram_matrix(w)],
                        [d * x for x in la.mat_vec(w, p)])

    def scaled(self, factor_sq) -> "Lattice":
        """Lattice scaled by sqrt(factor_sq), factor_sq positive rational."""
        f = la._rational(factor_sq)
        if f <= 0:
            raise InvalidLatticeError("the scale factor must be positive")
        if self.gram_override is not None:
            return replace(self, gram_override=tuple(
                tuple(f * x for x in row) for row in self.gram_override))
        return replace(self, scale_sq=self.scale_sq * f)

    def transformed(self, u) -> "Lattice":
        """Apply an integer change of basis (rows of u give new generators);
        generators that are linearly dependent raise InvalidLatticeError."""
        u = [list(r) for r in u]
        if self.gram_override is not None:
            return Lattice.from_gram(
                la.mat_mul(la.mat_mul(u, self.gram()), la.transpose(u)),
                self.name)
        w, d = self.int_basis
        return Lattice.from_rows(_over(la.mat_mul(u, w), d), self.scale_sq,
                                 self.name)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        if self.gram_override is not None:
            g = [[str(x) for x in row] for row in self.gram_override]
            return json.dumps({"gram": g, "exact": True})
        basis = [[str(x) for x in row] for row in self.basis]
        payload = {"ambient_dim": self.ambient_dim, "basis": basis, "exact": True}
        if self.scale_sq != 1:
            payload["scale_sq"] = str(self.scale_sq)
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "Lattice":
        """Lattice from ``to_json`` output. Entries may be ints, strings
        (``"1/2"``, ``"0.5"``) or floats; an ``"exact"`` key, which older
        files set to false for float entries, is ignored. Text that is not
        a JSON object with a ``"basis"`` or ``"gram"`` key raises
        InvalidInputError."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(
                f"lattice file is not valid JSON: {exc}") from None
        if not isinstance(obj, dict) or not ("gram" in obj or "basis" in obj):
            raise InvalidInputError(
                'lattice JSON needs a "basis" or a "gram" key')
        if "gram" in obj:
            return Lattice.from_gram(obj["gram"])
        return Lattice.from_rows(obj["basis"], scale_sq=obj.get("scale_sq", 1))


def _once(lat: Lattice, key, compute):
    """Result of ``compute()`` for this lattice value, computed on the first
    request and kept in its memo, which hands the one result to every later
    caller: it must be an immutable value, as ``Lattice._memo`` says and a
    test in ``tests/test_hygiene.py`` checks. Only
    ``enumeration._listing`` keeps its entry itself, to replace it."""
    memo = lat._memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _check_length(v, n, what):
    """Raise DimensionMismatchError unless the vector v has n entries."""
    if len(v) != n:
        raise DimensionMismatchError(
            f"{what} has length {len(v)}; the lattice needs {n}")


def _over(rows, d):
    """The int rows over the denominator d, one Fraction per entry."""
    return tuple(tuple(Fraction(x, d) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def determinant(lat: Lattice):
    return lat.determinant()


def dual(lat: Lattice) -> Lattice:
    """Polar lattice L*: inverse-transpose basis; requires full rank. For a
    square basis B, (B B^T)^{-1} B = B^{-T}, so this is ``dual_in_span``."""
    if lat.basis is None or lat.rank != lat.ambient_dim:
        raise UnsupportedRankError("dual requires a full-rank lattice with a basis")
    return dual_in_span(lat)


def dual_in_span(lat: Lattice) -> Lattice:
    """Dual taken inside the span of a (possibly lower-rank) lattice, kept
    once per lattice value; its coefficients pair with lat's by x y^T."""
    def compute():
        if lat.basis is None:
            return Lattice.from_gram(la.inverse(lat.gram()))
        # (B B^T)^{-1} B for B = W / D is (W W^T)^{-1} (D W), solved in ints
        w, d = lat.int_basis
        rows = la._gauss_jordan(la.gram_matrix(w),
                                [[d * x for x in row] for row in w])
        return Lattice.from_rows(rows, scale_sq=1 / lat.scale_sq)

    return _once(lat, "dual_in_span", compute)


def _lll_transform(int_gram, delta):
    """LLL on the Gram G = G_int / d, given as its integer form
    ``(G_int, d)``; returns the unimodular transform U and U G_int U^T, the
    reduced Gram over the same d (both lists of int rows).

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7) on ``G_int``: it keeps the leading principal minors
    D_i of the current Gram and the integers lam_kj = D_{j+1} mu_kj, so every
    quantity is an int and every division exact. Row k is size-reduced
    against j = k-1 down to 0, by mu_kj rounded half to even, and then the
    Lovasz test q (D_{k+1} D_{k-1} + lam_k,k-1^2) >= p D_k^2 for
    delta = p/q runs. These are the decisions, in the same order, of the
    textbook loop on the Fraction Gram-Schmidt data, so U and U G U^T are
    the ones it returns.
    """
    g, _ = int_gram
    m = len(g)
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    delta = la._rational(delta)
    p, q = delta.numerator, delta.denominator
    dm = [1] * (m + 1)  # dm[i]: leading i x i minor of the current Gram
    lam = [[0] * m for _ in range(m)]

    def add_gso_row(k):
        # incremental Gram-Schmidt of row k, still the input's row k, against
        # rows 0..k-1; b_k . b_j is then row k of G_int times u_j
        for j in range(k + 1):
            x = la.dot(g[k], u[j])
            for i in range(j):
                x = (dm[i + 1] * x - lam[k][i] * lam[j][i]) // dm[i]
            if j < k:
                lam[k][j] = x
            else:
                dm[k + 1] = x

    def size_reduce(k, j):
        # row_k -= c row_j on the transform and lam, c = round(mu_kj) half
        # to even
        lk, lj = lam[k], lam[j]
        c = la._round_div(lk[j], dm[j + 1])
        u[k] = [x - c * y for x, y in zip(u[k], u[j])]
        lk[j] -= c * dm[j + 1]
        for i in range(j):
            lk[i] -= c * lj[i]

    def swap(k, kmax):
        # exchange rows k-1 and k; the minors and lam move as in Cohen's SWAPI
        u[k], u[k - 1] = u[k - 1], u[k]
        lk, lk1 = lam[k], lam[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        mu = lk[k - 1]
        b = (dm[k - 1] * dm[k + 1] + mu * mu) // dm[k]
        for i in range(k + 1, kmax + 1):
            li = lam[i]
            t = li[k]
            li[k] = (dm[k + 1] * li[k - 1] - mu * t) // dm[k]
            li[k - 1] = (b * t + mu * li[k]) // dm[k + 1]
        dm[k] = b

    k, kmax = 1, 0
    if m:
        add_gso_row(0)
    while k < m:
        if k > kmax:
            kmax = k
            add_gso_row(k)
        for j in range(k - 1, -1, -1):
            if 2 * abs(lam[k][j]) > dm[j + 1]:
                size_reduce(k, j)
        lk = lam[k][k - 1]
        if q * (dm[k + 1] * dm[k - 1] + lk * lk) >= p * dm[k] * dm[k]:
            k += 1
        else:
            swap(k, kmax)
            k = max(k - 1, 1)
    ug = la.mat_mul(u, g)
    return u, [[la.dot(a, b) for b in u] for a in ug]


def reduce(lat: Lattice) -> Lattice:
    """LLL-reduced basis of the same lattice (unimodular change of basis).

    The result keeps the reduced Gram that LLL computed, in its integer
    form U G_int U^T over lat's d, and the input's squared determinant,
    which a unimodular change of basis preserves. That form is the one
    ``int_gram`` would derive: the entries of U G_int U^T and of G_int are
    integer combinations of each other, so they have one gcd, and as d is
    the lcm of the denominators of G, that gcd shares no prime with d. The
    transform U, which maps the result's coordinates to lat's, goes in
    lat's memo as ``"reduction_transform"``."""
    _, d = lat.int_gram
    u, g_int = _lll_transform(lat.int_gram, LLL_DELTA)
    g_int = tuple(map(tuple, g_int))
    g = _over(g_int, d)
    lat._memo["reduction_transform"] = tuple(tuple(r) for r in u)
    if lat.basis is None:
        out = replace(lat, gram_override=g)
    else:
        # U is unimodular, so U W over D is already the reduced integer form
        w, w_den = lat.int_basis
        uw = tuple(map(tuple, la.mat_mul(u, w)))
        out = replace(lat, basis=_over(uw, w_den))
        out.__dict__["int_basis"] = (uw, w_den)
    out.__dict__.update(_gram=g, int_gram=(g_int, d), _det_sq=lat.det_sq())
    return out


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _fcc_rows(n):
    if n == 3:
        return [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = rows[0][1] = 1
    for i in range(1, n):
        rows[i][i - 1] = 1
        rows[i][i] = -1
    return rows


def _an_rows(n):
    rows = []
    for i in range(n):
        r = [0] * (n + 1)
        r[i] = 1
        r[i + 1] = -1
        rows.append(r)
    return rows


def _e8_rows():
    rows = [[2, 0, 0, 0, 0, 0, 0, 0]]
    for i in range(6):
        r = [0] * 8
        r[i] = -1
        r[i + 1] = 1
        rows.append(r)
    rows.append([Fraction(1, 2)] * 8)
    return rows


def _with_minimum(lat: Lattice, l1_sq) -> Lattice:
    """lat, with its known lambda_1^2 seeded in its memo."""
    lat._memo["lambda1_sq"] = Fraction(l1_sq)
    return lat


@functools.lru_cache(maxsize=None)
def _e8_lattice():
    lat = Lattice.from_rows(_e8_rows(), name="E8")
    assert lat.det_sq() == 1
    return _with_minimum(lat, 2)


def _orthogonal_sublattice(lat: Lattice, normals, name):
    """Sublattice of lat orthogonal (in ambient metric) to the given lattice
    vectors; returned with an exact basis and the given name."""
    w, d = lat.int_basis
    # integer coefficient vectors c with (W n) . c = 0 for every normal n
    ker = la.integer_kernel([la.mat_vec(w, nv) for nv in normals])
    return Lattice.from_rows(_over(la.mat_mul(ker, w), d),
                             scale_sq=lat.scale_sq, name=name)


_GOLAY_B = [
    [0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0],
    [1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1],
    [1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1],
    [1, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0],
    [1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1],
    [1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1],
    [1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1],
    [1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0],
    [1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0],
    [1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0],
    [1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1],
]


@functools.lru_cache(maxsize=None)
def _golay_generator():
    """Rows of the [I | B] generator of the extended binary Golay code,
    sanity-checked by full weight enumeration."""
    gen = [[int(i == j) for j in range(12)] + _GOLAY_B[i] for i in range(12)]
    weights = {}
    for mask in range(4096):
        w = [0] * 24
        for i in range(12):
            if mask >> i & 1:
                w = [(a + b) % 2 for a, b in zip(w, gen[i])]
        weights[sum(w)] = weights.get(sum(w), 0) + 1
    assert set(weights) == {0, 8, 12, 16, 24} and weights[8] == 759, weights
    return gen


@functools.lru_cache(maxsize=None)
def _leech_lattice():
    """Leech lattice as sqrt(1/8) times an integer matrix; det verified."""
    gen = _golay_generator()
    spanning = [[2 * x for x in row] for row in gen]
    for i in range(1, 24):
        r = [0] * 24
        r[0] = 4
        r[i] = 4
        spanning.append(r)
    r = [0] * 24
    r[0] = 8
    spanning.append(r)
    spanning.append([-3] + [1] * 23)
    basis = la.hnf_basis(spanning)
    lat = Lattice.from_rows(basis, scale_sq=Fraction(1, 8), name="Leech")
    assert lat.det_sq() == 1, lat.det_sq()
    return _with_minimum(lat, 4)


_CATALOG_ALIASES = {
    "z": "Z", "zn": "Z",
    "a": "A", "an": "A",
    "astar": "Astar", "a*": "Astar",
    "d": "D", "dn": "D", "fcc": "D",
    "e": "E",
    "leech": "Leech",
    "bambahwoods": "BambahWoods", "bambah-woods": "BambahWoods",
    "nonsep": "NonSep", "nonsep3": "NonSep", "bcc-nonsep": "NonSep",
}


def catalog(name: str, n: int | None = None) -> Lattice:
    """Named lattice with exact entries; its known lambda_1^2, where the
    catalog has one, is seeded in its memo. E8 and Leech are built once, and
    every call returns that value.

    Supported: Z(n), A(n) and Astar(n) for n <= 5, D(n) for 3 <= n <= 8,
    E(6|7|8), Leech, BambahWoods (n=3), NonSep (n=3, the thinnest
    non-separable unit-ball lattice).
    """
    key = _CATALOG_ALIASES.get(name.lower())
    if key is None:
        raise CatalogMissError(f"unknown catalog name {name!r}")
    if key == "Z":
        if not n or n < 1:
            raise CatalogMissError("Z requires a dimension n >= 1")
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        return _with_minimum(Lattice.from_rows(rows, name=f"Z{n}"), 1)
    if key == "A":
        if not n or not 1 <= n <= 5:
            raise CatalogMissError("A_n supported for 1 <= n <= 5")
        return _with_minimum(Lattice.from_rows(_an_rows(n), name=f"A{n}"), 2)
    if key == "Astar":
        if not n or not 1 <= n <= 5:
            raise CatalogMissError("A_n* supported for 1 <= n <= 5")
        out = dual_in_span(Lattice.from_rows(_an_rows(n)))
        return _with_minimum(replace(out, name=f"A{n}star"),
                             Fraction(n, n + 1))
    if key == "D":
        if not n or not 3 <= n <= 8:
            raise CatalogMissError("D_n supported for 3 <= n <= 8")
        return _with_minimum(Lattice.from_rows(_fcc_rows(n), name=f"D{n}"), 2)
    if key == "E":
        if n == 8:
            return _e8_lattice()
        if n == 7:
            out = _orthogonal_sublattice(_e8_lattice(),
                                         [[0, 0, 0, 0, 0, 0, 1, 1]], "E7")
            assert out.det_sq() == 2
            return _with_minimum(out, 2)
        if n == 6:
            out = _orthogonal_sublattice(_e8_lattice(),
                                         [[0, 0, 0, 0, 0, 0, 1, 1],
                                          [0, 0, 0, 0, 0, 1, 1, 0]], "E6")
            assert out.det_sq() == 3
            return _with_minimum(out, 2)
        raise CatalogMissError("E_n supported for n in {6, 7, 8}")
    if key == "Leech":
        return _leech_lattice()
    if key == "BambahWoods":
        if n not in (None, 3):
            raise CatalogMissError("BambahWoods lattice lives in dimension 3")
        rows = [[0, Fraction(4, 3), Fraction(4, 3)],
                [Fraction(4, 3), 0, Fraction(4, 3)],
                [Fraction(4, 3), Fraction(4, 3), 0]]
        return Lattice.from_rows(rows, name="BambahWoods")
    if key == "NonSep":
        if n not in (None, 3):
            raise CatalogMissError("NonSep lattice lives in dimension 3")
        rows = [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]
        return Lattice.from_rows(rows, scale_sq=2, name="NonSep3")
    raise CatalogMissError(f"unknown catalog name {name!r}")
