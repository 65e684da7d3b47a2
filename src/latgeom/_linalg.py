"""Exact linear algebra over the rationals plus integer normal forms.

Matrices are lists of lists (rows) of ints and ``fractions.Fraction``s. One
fraction-free elimination kernel serves ``det``, ``rank``, ``solve`` and
``inverse``: rational rows are scaled to ints and eliminated in ints.
Numbers from outside the program enter here (``_rational``, ``_exact`` and,
for values that only their square decides, ``_rational_square``), and exact
square roots leave here as sympy numbers (``_sqrt_rational``).
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import sympy as sp

from .errors import InvalidInputError

# Floats are rationalized to the nearest fraction with a denominator up to
# this bound, so short decimals such as 0.1 or 2.75 come back exactly.
MAX_DENOMINATOR = 10**12


def _rational(x) -> Fraction:
    """``x`` as an exact rational; every number from outside the program
    passes through here once.

    Rationals (ints, Fractions, numpy and sympy integers) and strings such as
    ``"3"``, ``"-1/2"`` or ``"0.5"`` are read exactly. Any other finite real,
    a float for one, is read by its shortest repr (17.229 is 17229/1000)
    when that has a denominator at most ``MAX_DENOMINATOR``, and otherwise
    becomes the nearest fraction with such a denominator (1/3 stays 1/3).
    Anything else raises InvalidInputError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (numbers.Rational, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(x, numbers.Real) and math.isfinite(x):
        q = Fraction(repr(float(x)))
        if q.denominator <= MAX_DENOMINATOR:
            return q
        return q.limit_denominator(MAX_DENOMINATOR)
    raise InvalidInputError(f"cannot interpret {x!r} as an exact rational")


def _rational_square(x):
    """(x^2 as a Fraction, whether x > 0) for a real x whose square is
    rational; every radius, scale and bound that only its square decides
    is read here.

    Real numbers and strings are read by ``_rational`` and squared; any
    other value must be a sympy number, such as sqrt(3)/2, whose square
    ``_rational`` reads (3/4), and its sign is sympy's ``is_positive``,
    which unlike ``x > 0`` needs no numeric evaluation. Anything else (pi,
    inf, "abc") raises InvalidInputError.
    """
    if isinstance(x, (numbers.Real, str)):
        q = _rational(x)
        return q * q, q > 0
    try:
        return _rational(x ** 2), bool(x.is_positive)
    except (InvalidInputError, TypeError, AttributeError):
        raise InvalidInputError(f"{x} is not a real number with a rational "
                                "square") from None


def _exact(x):
    """``x`` as an exact sympy number: a sympy value passes unchanged, any
    other number is read by ``_rational`` (a float is never guessed to be
    a closed form in pi or radicals)."""
    if isinstance(x, sp.Basic):
        return x
    q = _rational(x)
    return sp.Rational(q.numerator, q.denominator)


def _sqrt_rational(q):
    """sqrt(q) for a rational q >= 0 as an exact sympy number: the one
    place where an exact square leaves as a sympy root."""
    return sp.sqrt(_exact(Fraction(q)))


def _canonical_sign(v):
    """``v`` as a tuple, negated if its first nonzero entry is negative."""
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def vec_mat(v, a):
    return [sum(x * row[j] for x, row in zip(v, a)) for j in range(len(a[0]))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def gram_matrix(rows):
    return [[dot(u, v) for v in rows] for u in rows]


def _int_rows(a):
    """Rows of the rational matrix ``a`` as int lists, each row multiplied
    by the lcm of its denominators (1 for a row of ints); returns the rows
    and the product of those multipliers."""
    rows, scale = [], 1
    for row in a:
        d = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    return rows, scale


def _bareiss(m, ncols, jordan=False):
    """Fraction-free elimination (Bareiss 1968) of the int rows ``m`` in
    place, pivoting on the first ``ncols`` columns and updating every column.

    Every division is exact, so all entries stay ints: after each step the
    entries are minors of the input. Forward elimination leaves an echelon
    form whose last pivot is the determinant of the pivot block; with
    ``jordan`` the rows above each pivot are cleared too, so a nonsingular
    square block ends as ``p I`` with p its determinant (up to the sign) and
    the other columns hold p times the solution. Returns (rank, number of
    row exchanges, last pivot); with no exchange, forward elimination of a
    square matrix leaves its leading principal minors on the diagonal.
    """
    rows = len(m)
    width = len(m[0]) if rows else 0
    r, swaps, prev = 0, 0, 1
    for c in range(ncols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        p, prow = m[r][c], m[r]
        # below the pivot, the columns left of c are already zero
        first = 0 if jordan else c + 1
        for i in range(0 if jordan else r + 1, rows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            for j in range(first, width):
                row[j] = (row[j] * p - f * prow[j]) // prev
            row[c] = 0
        prev = p
        r += 1
    return r, swaps, prev


def det(a):
    """Determinant of a square rational (int or Fraction) matrix, exact."""
    m, scale = _int_rows(a)
    return Fraction(_det(m), scale)


def det_int(a):
    """Determinant of an integer matrix; the elimination stays in ints."""
    return _det([list(row) for row in a])


def _det(m):
    """Determinant of the square int rows ``m``, which it overwrites."""
    r, swaps, p = _bareiss(m, len(m))
    return (-1) ** swaps * p if r == len(m) else 0


def integer_form(a):
    """(A_int, d) with ``a == A_int / d``: integer rows over d, the lcm of
    the denominators of the rational (int or Fraction) entries of ``a``."""
    d = math.lcm(*(x.denominator for row in a for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                 for row in a), d


def rank(a):
    """Rank of a rational matrix (forward elimination only)."""
    if not a:
        return 0
    m, _ = _int_rows(a)
    return _bareiss(m, len(m[0]))[0]


def _gauss_jordan(a, extra):
    """Columns ``extra`` (one list per row) of the reduced system
    [a | extra] with a square: the rows of a^{-1} extra, or None when a is
    singular."""
    n = len(a)
    m, _ = _int_rows([list(row) + list(e) for row, e in zip(a, extra)])
    r, _, p = _bareiss(m, n, jordan=True)
    if r < n:
        return None
    return [[Fraction(x, p) for x in row[n:]] for row in m]


def solve(a, b):
    """Solve a x = b for square nonsingular a. Returns None if singular."""
    sol = _gauss_jordan(a, [[bv] for bv in b])
    return None if sol is None else [row[0] for row in sol]


def inverse(a):
    """Inverse of a square rational matrix, or None if it is singular."""
    n = len(a)
    return _gauss_jordan(a, [[int(i == j) for j in range(n)] for i in range(n)])


def add_independent(echelon, row):
    """Append the int ``row`` to ``echelon`` unless it lies in the span of
    the rows already there; returns whether it was appended.

    ``echelon`` holds the (pivot column, primitive row) pairs this function
    appends, each reduced fraction-free against the earlier ones; a row that
    reduces to zero is dependent. Pop the last pair to undo an append."""
    for c, e in echelon:
        f = row[c]
        if f:
            p = e[c]
            row = [p * x - f * y for x, y in zip(row, e)]
    if not any(row):
        return False
    g = math.gcd(*row)
    echelon.append((next(c for c, x in enumerate(row) if x),
                    [x // g for x in row]))
    return True


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
    n = len(a)
    return _hnf(a, [[int(i == j) for j in range(n)] for i in range(n)])


def _hnf(a, u):
    """``hnf_row`` applying every row operation to the rows ``u`` as well;
    rows of length 0 skip the transform at almost no cost."""
    m = [list(map(int, row)) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
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
    h, _ = _hnf(a, [[] for _ in a])
    return [row for row in h if any(row)]


def integer_kernel(a):
    """Basis rows of the integer right kernel {x in Z^m : a x = 0}.

    Input a: k x m integers. Computed via column HNF with transform tracking.
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
    """HNF basis of the saturation of the row span of the independent
    integer rows ``a`` (k x m) within Z^m, rowspace_Q(a) intersected with Z^m.

    One row HNF of a^T gives U a^T = [H; 0] with U unimodular, so a = H^T S
    for S the first k rows of U^{-T}: rows that extend to a unimodular
    matrix, hence a basis of the saturation. H^T is lower triangular, so
    forward substitution reads S off ``a``, and every division is exact.
    """
    h, _ = _hnf(transpose(a), [[] for _ in a[0]])
    s = []
    for i, row in enumerate(a):
        for j in range(i):
            f = h[j][i]
            if f:
                row = [x - f * y for x, y in zip(row, s[j])]
        s.append([x // h[i][i] for x in row])
    return hnf_basis(s)


def _saturated(a):
    """Whether the independent integer rows ``a`` span a saturated
    sublattice of Z^m: the gcd of their maximal minors, the product of the
    pivots of the HNF of a^T, is 1."""
    h, _ = _hnf(transpose(a), [[] for _ in a[0]])
    return all(h[i][i] == 1 for i in range(len(a)))


def complete_to_unimodular(a):
    """Extend saturated integer rows a (k x m) to a unimodular m x m matrix
    whose first k rows are exactly a; ValueError when they are not saturated.

    The row HNF of a^T, U a^T = H, has unit pivots exactly when the rows are
    saturated; unit pivots leave nothing above them, so then U[:k] a^T = I,
    and Z^m splits as the row span of a plus the kernel {z : U[:k] z = 0},
    which completes a.
    """
    k = len(a)
    h, u = hnf_row(transpose(a))
    if any(h[i][i] != 1 for i in range(k)):
        raise ValueError("rows do not span a saturated sublattice")
    full = [list(map(int, row)) for row in a] + integer_kernel(u[:k])
    if abs(det_int(full)) != 1:
        raise ValueError("completion is not unimodular")
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
