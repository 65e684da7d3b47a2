"""Exact linear algebra over the rationals plus integer normal forms.

Matrices are lists of lists (rows). Rational entries are ``fractions.Fraction``;
the same routines work on floats (the arithmetic degrades gracefully), but the
integer normal forms require genuine ints.
"""

from __future__ import annotations

import math
from fractions import Fraction


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def vec_mat(v, a):
    return [sum(x * row[j] for x, row in zip(v, a)) for j in range(len(a[0]))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def identity(n, one=Fraction(1)):
    return [[one if i == j else one * 0 for j in range(n)] for i in range(n)]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def gram_matrix(rows):
    return [[dot(u, v) for v in rows] for u in rows]


def det(a):
    """Determinant by fraction-free-ish Gaussian elimination (exact on Fractions)."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    result_one = m[0][0] * 0 + 1 if n else 1
    prod = result_one
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return prod * 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        prod = prod * p
        inv = Fraction(1) / p if isinstance(p, (Fraction, int)) else 1.0 / p
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return sign * prod


def det_int(a):
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination; every division is exact, so all entries stay ints."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * row_k[j]) // prev
        prev = p
    return sign * m[-1][-1] if n else 1


def integer_form(a):
    """(A_int, d) with ``a == A_int / d``: integer rows over d, the lcm of
    the denominators of the rational (int or Fraction) entries of ``a``."""
    d = math.lcm(*(x.denominator for row in a for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                 for row in a), d


def rank(a):
    if not a:
        return 0
    m = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in a]
    rows, cols = len(m), len(m[0])
    r = 0
    for col in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        for i in range(r + 1, rows):
            if m[i][col]:
                f = m[i][col] / p
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def solve(a, b):
    """Solve a x = b for square nonsingular a. Returns None if singular."""
    n = len(a)
    m = [list(row) + [bv] for row, bv in zip(a, b)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def inverse(a):
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def affine_rank(points):
    """Dimension of the affine hull of a list of points."""
    if len(points) <= 1:
        return 0
    p0 = points[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    return rank(diffs)


# ---------------------------------------------------------------------------
# Integer normal forms
# ---------------------------------------------------------------------------

def hnf_row(a):
    """Row-style Hermite normal form of an integer matrix.

    Returns (H, U) with U unimodular, U a = H, H in row echelon form with
    positive pivots and reduced entries above each pivot. Zero rows sink to
    the bottom.
    """
    m = [list(map(int, row)) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    r = 0
    for col in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        u[r], u[piv] = u[piv], u[r]
        # clear below with gcd steps
        for i in range(r + 1, rows):
            while m[i][col] != 0:
                if abs(m[i][col]) < abs(m[r][col]):
                    m[r], m[i] = m[i], m[r]
                    u[r], u[i] = u[i], u[r]
                q = m[i][col] // m[r][col]
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        if m[r][col] < 0:
            m[r] = [-x for x in m[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = m[i][col] // m[r][col]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == rows:
            break
    return m, u


def hnf_basis(a):
    """Nonzero rows of the row HNF: canonical basis of the integer row span."""
    h, _ = hnf_row(a)
    return [row for row in h if any(row)]


def integer_kernel(a):
    """Basis of {x in Z^rows? -> no: {x in Z^m : x is integer row vector with a @ x^T = 0}.

    Input a: k x m integers. Returns basis rows of the right kernel lattice
    {x in Z^m : a x = 0}, computed via column HNF with transform tracking.
    """
    k = len(a)
    m = len(a[0]) if k else 0
    # column operations on a == row operations on a^T
    at = [list(map(int, col)) for col in zip(*a)] if k else [[] for _ in range(m)]
    # row HNF of a^T with transform u: u @ a^T = h
    h, u = hnf_row(at) if at and at[0] else ([[0] * k for _ in range(m)],
                                             [[int(i == j) for j in range(m)] for i in range(m)])
    kernel = [u[i] for i in range(m) if not any(h[i])]
    return kernel


def saturation(a):
    """Basis of the saturation of the integer row span of a within Z^m.

    The saturation is rowspace_Q(a) intersected with Z^m; computed as the
    integer kernel of the integer kernel.
    """
    m = len(a[0])
    ker = integer_kernel(a)
    if not ker:
        return [[int(i == j) for j in range(m)] for i in range(m)]
    sat = integer_kernel(ker)
    return hnf_basis(sat)


def integer_right_inverse(a):
    """Integer right inverse W (m x k) with a @ W = I_k.

    Exists exactly when the row span of a is a saturated rank-k sublattice of
    Z^m (all Smith invariant factors 1). Returns None otherwise.
    """
    k = len(a)
    at = [list(col) for col in zip(*a)]  # m x k
    h, u = hnf_row(at)  # u @ a^T = h, h = [h1; 0] with h1 k x k
    h1 = [row[:k] for row in h[:k]]
    if any(h1[i][i] != 1 for i in range(k)):
        return None
    # back-substitute h1^{-1} over the integers (unit diagonal, upper triangular)
    inv = [[int(i == j) for j in range(k)] for i in range(k)]
    for i in range(k - 1, -1, -1):
        for j in range(i + 1, k):
            f = h1[i][j]
            if f:
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[j])]
    # W^T = [h1^{-1} | 0] @ u
    wt = [[sum(inv[i][t] * u[t][c] for t in range(k)) for c in range(len(u))]
          for i in range(k)]
    return [list(col) for col in zip(*wt)]


def complete_to_unimodular(a):
    """Extend saturated integer rows a (k x m) to a unimodular m x m matrix
    whose first k rows are exactly a."""
    k = len(a)
    m = len(a[0])
    w = integer_right_inverse(a)
    if w is None:
        raise ValueError("rows do not span a saturated sublattice")
    wt = [list(col) for col in zip(*w)]  # k x m
    complement = integer_kernel(wt)  # {z : z w = 0}, rank m - k
    full = [list(map(int, row)) for row in a] + complement
    d = det([[Fraction(x) for x in row] for row in full])
    assert abs(d) == 1
    return full


def float_cholesky(g):
    """Cholesky factor R (upper triangular, G = R^T R) of an SPD matrix, floats."""
    n = len(g)
    r = [[0.0] * n for _ in range(n)]
    for i in range(n):
        s = float(g[i][i]) - sum(r[k][i] ** 2 for k in range(i))
        if s <= 0:
            raise ValueError("matrix not positive definite")
        r[i][i] = math.sqrt(s)
        for j in range(i + 1, n):
            r[i][j] = (float(g[i][j]) - sum(r[k][i] * r[k][j] for k in range(i))) / r[i][i]
    return r
