"""Exact linear algebra over the rationals plus integer normal forms.

Matrices are lists of lists (rows) of ints and ``fractions.Fraction``s. One
fraction-free elimination kernel serves ``det``, ``rank``, ``solve`` and
``inverse``: rational rows are scaled to ints and eliminated in ints.
Numbers from outside the program enter here (``_rational``, ``_exact`` and,
for values that only their square decides, ``_rational_square``), and exact
square roots leave here (``_sqrt_rational``). Every exact value is one
``ClosedForm``, q prod p^(e_p) pi^b, closed under products, quotients and
rational powers and ordered exactly.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from fractions import Fraction

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
    if isinstance(x, ClosedForm) and not x.e and not x.b:
        return x.q
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


def _list_of_rows(rows, what="a matrix"):
    """``rows`` itself when it is a list or tuple of lists or tuples, the
    shape of every matrix read from outside; otherwise InvalidInputError,
    naming ``what`` the rows describe."""
    if not isinstance(rows, (list, tuple)) or \
            not all(isinstance(r, (list, tuple)) for r in rows):
        raise InvalidInputError(f"{what} is a list of rows, each a list")
    return rows


def _rational_rows(rows):
    """The list of lists ``rows`` as tuples of ``_rational`` entries; rows
    of another shape raise InvalidInputError (``_list_of_rows``)."""
    return tuple(tuple(_rational(x) for x in r) for r in _list_of_rows(rows))


def _rational_square(x):
    """(x^2 as a Fraction, whether x > 0) for a real x whose square is
    rational; every radius, scale and bound that only its square decides
    is read here.

    Real numbers and strings are read by ``_rational`` and squared. Any
    other value must be a ClosedForm or a sympy number, such as sqrt(3)/2,
    whose square ``_rational`` reads (3/4); the sign of a sympy number is
    its ``is_positive``, which unlike ``x > 0`` needs no numeric
    evaluation. Anything else (pi, inf, "abc") raises InvalidInputError.
    """
    if isinstance(x, (numbers.Real, str)):
        q = _rational(x)
        return q * q, q > 0
    try:
        positive = x.q > 0 if isinstance(x, ClosedForm) else x.is_positive
        return _rational(x ** 2), bool(positive)
    except (InvalidInputError, TypeError, AttributeError):
        raise InvalidInputError(f"{x} is not a real number with a rational "
                                "square") from None


def _exact(x):
    """``x`` as an exact value: a ClosedForm or a sympy value passes
    unchanged, any other number is read by ``_rational`` (a float is never
    guessed to be a closed form in pi or radicals)."""
    sp = sys.modules.get("sympy")  # a sympy value implies a loaded sympy
    if isinstance(x, ClosedForm) or (sp is not None and isinstance(x, sp.Basic)):
        return x
    return ClosedForm(_rational(x))


def _sqrt_rational(q):
    """sqrt(q) for a rational q >= 0 as a ClosedForm: the one place where
    an exact square leaves as a root."""
    return ClosedForm(q) ** _HALF


def _canonical_sign(v):
    """``v`` as a tuple, negated if its first nonzero entry is negative."""
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(map(operator.mul, row, v)) for row in a]


def vec_mat(v, a):
    return [sum(map(operator.mul, v, col)) for col in zip(*a)]


def transpose(a):
    return [list(row) for row in zip(*a)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def dot(u, v):
    return sum(map(operator.mul, u, v))


def gram_matrix(rows):
    return [[dot(u, v) for v in rows] for u in rows]


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
    m, d = integer_form(a)
    return Fraction(det_int(m), d ** len(m))


def det_int(a):
    """Determinant of an integer matrix; the elimination stays in ints."""
    m = [list(row) for row in a]
    r, swaps, p = _bareiss(m, len(m))
    return (-1) ** swaps * p if r == len(m) else 0


def _sylvester(g):
    """The rows of the symmetric int matrix ``g`` after forward
    fraction-free elimination, with its leading minors D_1, ..., D_n on the
    diagonal, or None when ``g`` is not positive definite (Sylvester: some
    D_i <= 0; a zero one forces a row exchange, after which the diagonal
    holds no minors)."""
    e = [list(row) for row in g]
    _, swaps, _ = _bareiss(e, len(e))
    if swaps or any(e[i][i] <= 0 for i in range(len(e))):
        return None
    return tuple(map(tuple, e))


def _round_div(a, b):
    """round(Fraction(a, b)) for ints a and b > 0, ties to even, in ints."""
    q, r = divmod(a, b)
    return q + (2 * r > b or 2 * r == b and q & 1)


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
    return _bareiss([list(row) for row in integer_form(a)[0]], len(a[0]))[0]


def _gauss_jordan(a, extra):
    """Columns ``extra`` (one list per row) of the reduced system
    [a | extra] with a square: the rows of a^{-1} extra, or None when a is
    singular."""
    n = len(a)
    m = [list(row) for row in integer_form(
        [list(row) + list(e) for row, e in zip(a, extra)])[0]]
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
    # column operations on a == row operations on a^T; the row HNF of a^T
    # with transform u has u @ a^T = h, and u's rows at h's zero rows span
    # the kernel
    h, u = hnf_row([list(map(int, col)) for col in zip(*a)])
    return [ui for hi, ui in zip(h, u) if not any(hi)]


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


# ---------------------------------------------------------------------------
# Closed forms q prod p^(e_p) pi^b
# ---------------------------------------------------------------------------

def _via_sympy(op):
    """The ClosedForm method self op other, evaluated on sympy's value."""
    return lambda self, other: op(self._sympy_(), other)


def _order(op):
    """The comparison self op other: exact (``_cmp``) when other is a
    rational or a ClosedForm, and sympy's for anything else (a float, a
    sympy value)."""
    def compare(self, other):
        if isinstance(other, (int, Fraction)):
            other = ClosedForm(other)
        if isinstance(other, ClosedForm):
            return op(_cmp(self, other), 0)
        return op(self._sympy_(), other)
    return compare


_HALF = Fraction(1, 2)


class ClosedForm:
    """The exact real q prod p^(e_p) pi^b (q, e_p and b Fractions, 0 < e_p
    < 1; ``ClosedForm(q, e, b)`` with e a dict {p: e_p}, whose whole parts
    move into q) of every determinant, minimum, volume, density and bound
    the engine reports. A base p is a prime below 2^15 or a factor that trial
    division leaves (``_factor``); the bases are pairwise coprime and none
    is a perfect power, so equal values have equal ``_key``s. Products,
    quotients, negation and rational powers of a value >= 0 stay in the
    form, and order comparisons with rationals and ClosedForms are exact
    (``_cmp``). In the square-root case q sqrt(r) pi^j (``root``) ``str``
    and ``float`` are sympy's for the same value (``3*sqrt(2)/4``,
    ``sqrt(2)*pi/6``), computed here; any other value prints and evaluates
    as its sympy value. ``_sympy_`` hands it to sympy for the rest: a sum,
    another exponent and an operand outside the form, such as a float or a
    sympy value."""

    __slots__ = ("q", "e", "b")

    def __init__(self, q, e=(), b=0):
        q, e, exps = Fraction(q), dict(e or ()), {}
        _coprime(e)
        for p, a in e.items():
            whole = math.floor(a)
            if whole:
                q, a = q * Fraction(p) ** whole, a - whole
            if a:
                exps[p] = a
        self.q, self.e = q, tuple(sorted(exps.items())) if q else ()
        self.b = Fraction(b) if q else Fraction(0)

    def root(self):
        """(r, j) when the value is q sqrt(r) pi^j with j an int, r the
        product of the bases; None for any other value."""
        if self.b.denominator != 1 or any(a != _HALF for _, a in self.e):
            return None
        return math.prod(p for p, _ in self.e), int(self.b)

    def _key(self):
        return (self.b, self.q > 0) + _lift(self)

    def __eq__(self, other):  # a float is never equal, as in sympy
        if isinstance(other, (int, Fraction)):
            other = ClosedForm(other)
        if isinstance(other, ClosedForm):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key() if self.e or self.b else self.q)

    def __bool__(self):
        return bool(self.q)

    def __neg__(self):
        return ClosedForm(-self.q, self.e, self.b)

    def __abs__(self):
        return ClosedForm(abs(self.q), self.e, self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ClosedForm(self.q * other, self.e, self.b)
        if not isinstance(other, ClosedForm):
            return self._sympy_() * other
        e = dict(self.e)
        for p, a in other.e:
            e[p] = e.get(p, 0) + a
        return ClosedForm(self.q * other.q, e, self.b + other.b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return ClosedForm(self.q / other, self.e, self.b)
        if not isinstance(other, ClosedForm):
            return self._sympy_() / other
        return self * other ** -1

    def __rtruediv__(self, other):
        return self ** -1 * other

    def __pow__(self, t):
        if not isinstance(t, (int, Fraction)) or \
                self.q < 0 and Fraction(t).denominator != 1:
            return self._sympy_() ** t
        t = Fraction(t)
        e = {p: a * t for p, a in self.e}
        if t.denominator == 1 or not self.q:
            return ClosedForm(self.q ** t, e, self.b * t)
        for n, s in ((self.q.numerator, t), (self.q.denominator, -t)):
            for p, a in _factor(n).items():
                e[p] = e.get(p, 0) + a * s
        return ClosedForm(1, e, self.b * t)

    # a sum and an exponent outside the rationals are sympy's
    __add__ = __radd__ = _via_sympy(operator.add)
    __sub__ = _via_sympy(operator.sub)
    __rsub__ = _via_sympy(lambda a, b: b - a)
    __rpow__ = _via_sympy(lambda a, b: b ** a)
    __lt__, __le__ = _order(operator.lt), _order(operator.le)
    __gt__, __ge__ = _order(operator.gt), _order(operator.ge)

    def _sympy_(self):
        import sympy as sp

        def rational(x):
            return sp.Rational(x.numerator, x.denominator)
        return rational(self.q) * sp.pi ** rational(self.b) * sp.Mul(
            *(sp.Integer(p) ** rational(a) for p, a in self.e))

    def __str__(self):
        root = self.root()
        if root is None:
            return str(self._sympy_())
        q, (r, j) = self.q, root
        if r == 1 and not j:
            return str(q)
        if q == 1 and r == 1 and j < -1:
            return f"pi**({j})"
        pi = "pi" if abs(j) == 1 else f"pi**{abs(j)}"
        num = [str(abs(q.numerator))] * (abs(q.numerator) != 1)
        num += [f"sqrt({r})"] * (r != 1) + [pi] * (j > 0)
        den = [str(q.denominator)] * (q.denominator != 1) + [pi] * (j < 0)
        out = "-" * (q < 0) + ("*".join(num) or "1")
        if len(den) > 1:
            return f"{out}/({'*'.join(den)})"
        return f"{out}/{den[0]}" if den else out

    __repr__ = __str__

    def __float__(self):
        if not self.q:
            return 0.0
        root = self.root()
        if root is None or abs(root[1]) > 13:
            # sympy powers pi in steps not followed here
            return float(self._sympy_())
        try:
            f = math.ldexp(*_float_bits(self.q, *root))
        except OverflowError:
            f = math.inf
        return -f if self.q < 0 else f


def _coprime(e):
    """Split the bases of 2^15 and above of the product prod p^(e_p), the
    dict ``e``, in place at their common factors until they are pairwise
    coprime, each part that is a perfect power read as its root.
    ``_factor`` leaves such a base for factors it does not find, and a
    product can bring two that share one (p^2 m and m, for primes p and m
    above 2^15)."""
    while True:
        big = [p for p in e if p >> 15]
        pair = next(((u, v) for i, u in enumerate(big) for v in big[i + 1:]
                     if math.gcd(u, v) > 1), None)
        if pair is None:
            return
        u, v = pair
        g = math.gcd(u, v)
        a, b = e.pop(u), e.pop(v)
        for c, x in ((g, a + b), (u // g, a), (v // g, b)):
            if c > 1:
                r, k = _perfect_power(c)
                e[r] = e.get(r, 0) + k * x


def _lift(x):
    """(d, |q|^d prod p^(e_p d)) for the ClosedForm x and d the common
    denominator of its e_p: with coprime bases that are no perfect powers,
    d is the least power that makes |x| / pi^b rational, so the pair is the
    value's own."""
    d = math.lcm(*(a.denominator for _, a in x.e))
    return d, abs(x.q) ** d * math.prod(p ** int(a * d) for p, a in x.e)


def kappa(n: int):
    """Volume of the n-dimensional unit ball, exact: pi^m / m! for n = 2m,
    and 2^n m! pi^m / n! for n = 2m + 1."""
    m, f = n // 2, math.factorial
    c = Fraction(2 ** n * f(m), f(n)) if n % 2 else Fraction(1, f(m))
    return ClosedForm(c, b=m)


# The float of a closed form is sympy's, bit for bit, so no output depends
# on the type that holds a value. As in mpmath, a float is man 2^exp with
# man odd, rounded toward zero ("d"), away from zero ("u") or to nearest,
# ties to even ("n"). sympy truncates the factors of q sqrt(r) pi^j to 62 +
# (their number) bits, rounds the product to 57 bits and then to 53, and
# truncates a lone factor to 57 bits.

_PI = 0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74  # floor(pi 2^190)


def _bits(num, den, exp, prec, mode="d"):
    """(num / den) 2^exp for ints num, den > 0 rounded to prec bits, as
    (man, exp) with man odd; a sticky bit below the quotient keeps every
    mode exact."""
    k = prec + 3 + den.bit_length() - num.bit_length()
    man, rem = divmod(num << max(k, 0), den << max(-k, 0))
    man, k = 2 * man + bool(rem), k + 1
    n = man.bit_length() - prec
    low, man, half = man & ((1 << n) - 1), man >> n, 1 << (n - 1)
    if low and (mode == "u" or mode == "n" and (low > half or
                                                 low == half and man & 1)):
        man += 1
    z = (man & -man).bit_length() - 1
    return man >> z, exp + n + z - k


def _product_bits(q, r, j, prec):
    """|q sqrt(r) pi^j| for q != 0 and |j| <= 13 as sympy evaluates it at
    working precision prec, as (man, exp): the factors truncated to
    prec + 5 + (their number) bits and the product rounded to prec, or a
    lone factor truncated to prec."""
    nargs = (q != 1) + (r != 1) + (j != 0)
    wp = prec if nargs == 1 else prec + 5 + nargs
    out = [_bits(abs(q.numerator), q.denominator, 0, wp)] * (q != 1)
    if r != 1:
        m, e = _bits(r, 1, 0, wp + 5)
        m, e = (m << 1, e - 1) if e & 1 else (m, e)
        out.append(_bits(math.isqrt(m << 2 * wp + 4), 1, e // 2 - wp - 2, wp))
    if j == 1:
        out.append(_bits(_PI, 1, -190, wp))
    elif j:
        m, e = _bits(_PI, 1, -190, wp + abs(j).bit_length() + 4)
        if j > 0:
            out.append(_bits(m ** j, 1, e * j, wp))
        else:
            if j < -1:  # the power below 1 / pi^|j| is rounded up
                m, e = _bits(m ** -j, 1, -e * j, wp + 5, "u")
            out.append(_bits(1, m, -e, wp))
    man, exp = math.prod(m for m, _ in out), sum(e for _, e in out)
    if nargs > 1:
        if 1 + sum(m.bit_length() for m, _ in out) > 3 * wp:
            man, exp = man >> wp, exp + wp  # sympy cuts a long product
        man, exp = _bits(man, 1, exp, prec, "n")
    return man, exp


def _float_bits(q, r, j):
    """|q sqrt(r) pi^j| for q != 0 and |j| <= 13 rounded to 53 bits, as
    sympy's float() rounds it: evaluated at 57 bits, then rounded."""
    if r == 1 and not j:
        return _bits(abs(q.numerator), q.denominator, 0, 53, "n")
    man, exp = _product_bits(q, r, j, 57)
    return _bits(man, 1, exp, 53, "n")


class MinusOne:
    """The exact real x - 1 for a ClosedForm x > 0 that is not rational,
    with sympy's text (``-1 + 3*sqrt(2)/4``) and float; ``minus_one``
    makes it."""

    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def __str__(self):
        return f"-1 + {self.x}"

    __repr__ = __str__

    def _sympy_(self):
        return self.x._sympy_() - 1

    def __float__(self):
        # sympy's sum evaluates its terms at 67 bits, adds them exactly and
        # rounds the sum to 57 bits, which float() rounds to 53
        man, exp = _product_bits(self.x.q, *self.x.root(), 67)
        num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
        num -= den
        man, exp = _bits(abs(num), den, 0, 57, "n")
        try:
            f = math.ldexp(*_bits(man, 1, exp, 53, "n"))
        except OverflowError:
            f = math.inf
        return -f if num < 0 else f


def minus_one(x):
    """x - 1 for a ClosedForm x > 0, with sympy's text and float: a
    ClosedForm when x is rational, a MinusOne when x is another
    q sqrt(r) pi^j. None where sympy's evaluation is not followed: x not
    of that form, a power of pi beyond 13, x within 2^-9 of 1, where
    sympy's sum cancels bits and restarts at a higher precision, or a prime
    of q past trial division below 2^15, which sympy keeps under the root."""
    root = x.root()
    if root is None or abs(root[1]) > 13:
        return None
    if root == (1, 0):
        return ClosedForm(x.q - 1)
    near = Fraction(1, 512)
    if 1 - near < x < 1 + near or max(
            _factor(x.q.numerator * x.q.denominator), default=1) >= 1 << 15:
        return None
    return MinusOne(x)


def _factor(n):
    """{p: a} with n = prod p^a for an int n >= 1, by trial division below
    2^15; a cofactor c left above that counts as a prime, or as the power
    r^k of one when c = r^k (``_perfect_power``)."""
    out, p = {}, 2
    while p * p <= n and p < 1 << 15:
        while n % p == 0:
            n, out[p] = n // p, out.get(p, 0) + 1
        p += 1 + (p > 2)
    if n > 1:
        r, k = _perfect_power(n)
        out[r] = k
    return out


def _perfect_power(n):
    """(r, k) with n = r^k and k as large as it goes, for an int n > 1 with
    no prime factor below 2^15 (so k <= log n / 15)."""
    k = next(k for k in range(n.bit_length() // 15, 0, -1)
             if _iroot(n, k) ** k == n) if n >> 30 else 1
    return _iroot(n, k), k


def _iroot(n, k):
    """floor(n^(1/k)) for ints n >= 1 and k >= 1, by Newton's method."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _cmp(x, y):
    """The sign of x - y for ClosedForms x and y, exact."""
    sx, sy = (x.q > 0) - (x.q < 0), (y.q > 0) - (y.q < 0)
    if sx != sy or not sx:
        return (sx > sy) - (sx < sy)
    return sx * _cmp_one(x / y)


def _cmp_one(z):
    """The sign of z - 1 for a ClosedForm z > 0."""
    if z.b < 0:
        return -_cmp_one(z ** -1)
    if not z.b:  # z^d is rational for d the common denominator of the e_p
        w = _lift(z)[1]
        return (w > 1) - (w < 1)
    # z = c pi^(s/t) > 1 exactly when pi^s > c^-t, an algebraic number that
    # no power of pi equals, so a close enough enclosure of pi decides
    s, c = z.b.numerator, ClosedForm(z.q, z.e) ** -z.b.denominator
    for lo, hi in _pi_enclosures():
        if _cmp_one(c / lo ** s) <= 0:
            return 1
        if _cmp_one(c / hi ** s) >= 0:
            return -1


def _pi_enclosures():
    """Rationals lo < pi < hi, each pair much closer than the last: the 190
    bits of ``_PI``, then Machin's formula at 380, 760, ... bits."""
    yield Fraction(_PI, 1 << 190), Fraction(_PI + 1, 1 << 190)
    bits = 380
    while True:
        lo, hi = _machin(bits)
        yield Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)
        bits *= 2


def _machin(bits):
    """Ints lo < pi 2^bits < hi, from pi = 16 atan(1/5) - 4 atan(1/239)
    summed in fixed point with 16 guard bits: each of the k terms of a
    series is off by less than 3 and its tail by less than 2."""
    total = err = 0
    for x, w in ((5, 16), (239, -4)):
        power, k = (1 << bits + 16) // x, 0
        while power:
            total += w * (-1) ** k * (power // (2 * k + 1))
            power, k = power // (x * x), k + 1
        err += abs(w) * (3 * k + 2)
    return (total - err) >> 16, ((total + err) >> 16) + 1


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

