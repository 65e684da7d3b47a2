"""The exact value type q prod p^(e_p) pi^b (``_linalg.ClosedForm``)
against sympy as the oracle: text, float, and arithmetic on random values
and on every determinant, density and volume the catalog and the standard
bodies give."""

import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latgeom._linalg as la
from latgeom.errors import InvalidInputError
from latgeom.enumeration import covering_density, kappa, packing_density
from latgeom.impassability import ball_lattice_density
from latgeom.lattice import catalog
from latgeom.polytope import (cross_polytope, cube, equilateral_triangle,
                              simplex, simplex_dv_cell, volume_product)

_SQUAREFREE = st.integers(1, 10**6).filter(
    lambda n: all(n % (p * p) for p in range(2, math.isqrt(n) + 1)))
_Q = st.one_of(st.fractions(max_denominator=10**6).filter(bool),
               st.fractions(-10**20, 10**20, max_denominator=10**15).filter(bool),
               st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2)]))


def _cf(q, r=1, j=0):
    """The ClosedForm q sqrt(r) pi^j for an int j."""
    return la.ClosedForm(q, b=j) * la._sqrt_rational(r)


_VALUES = st.builds(_cf, _Q, st.one_of(st.just(1), _SQUAREFREE),
                    st.integers(0, 4))


def _same(v, want):
    """v is a ClosedForm that reads and evaluates as the sympy value want."""
    assert isinstance(v, la.ClosedForm)
    assert str(v) == str(want)
    assert float(v) == float(want)
    assert v == want


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_text_and_float_are_sympys(v):
    _same(v, v._sympy_())


@settings(max_examples=200, deadline=None)
@given(_VALUES, _VALUES)
def test_products_and_quotients_are_sympys(v, w):
    _same(v * w, v._sympy_() * w._sympy_())
    _same(v / w, v._sympy_() / w._sympy_())
    _same(3 / w, 3 / w._sympy_())
    _same(v * Fraction(2, 7), v._sympy_() * sp.Rational(2, 7))


@settings(max_examples=200, deadline=None)
@given(st.fractions(0, 10**6, max_denominator=10**6), st.integers(0, 2),
       st.sampled_from([-3, -1, 1, 3, 5]))
def test_half_integer_powers_are_sympys(q, half_j, m):
    v = _cf(q, 1, 2 * half_j)
    if q:
        _same(v ** Fraction(m, 2), v._sympy_() ** sp.Rational(m, 2))


@settings(max_examples=200, deadline=None)
@given(_VALUES, st.integers(-4, 4))
def test_integer_powers_are_sympys(v, e):
    _same(v ** e, v._sympy_() ** e)


@settings(max_examples=200, deadline=None)
@given(st.fractions(0, 10**12, max_denominator=10**12))
def test_sqrt_rational_is_sympys(q):
    _same(la._sqrt_rational(q), sp.sqrt(sp.Rational(q.numerator, q.denominator)))


def test_sums_and_other_powers_go_to_sympy():
    v = la._sqrt_rational(2)
    assert v - 1 == sp.sqrt(2) - 1 and 1 + v == sp.sqrt(2) + 1
    assert v ** sp.Rational(1, 3) == sp.root(2, 6)
    # 2^(1/4) has no closed form q sqrt(r) pi^j
    assert v ** Fraction(1, 2) == sp.root(2, 4)
    assert 2 ** v == 2 ** sp.sqrt(2)


def test_sign_order_and_float_operands_are_sympys():
    v, w = la._sqrt_rational(2), la.ClosedForm(Fraction(3, 2))
    s, t = v._sympy_(), w._sympy_()
    _same(-v, -s)
    _same(abs(-v), s)
    assert not la.ClosedForm(0) and v and -v
    assert (v < w) and (v <= w) and not (v > w) and not (v >= w)
    assert (0.5 < v) and (w > 1) and not (-v > 0)
    for x in (0.5, 3.0):
        assert v * x == s * x and x * v == x * s
        assert v / x == s / x and x / v == x / s
        assert v ** x == s ** x
    assert (la.ClosedForm(Fraction(1, 2)) == 0.5) == (sp.Rational(1, 2) == 0.5)


def test_a_float_beyond_range_is_sympys_infinity():
    for q, want in ((10**400, math.inf), (-10**400, -math.inf)):
        v = _cf(Fraction(q), 2, 1)
        assert float(v) == float(v._sympy_()) == want


_BIG_PRIMES = [p for p in range(2**15, 2**15 + 300)
               if all(p % d for d in range(2, math.isqrt(p) + 1))]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(_BIG_PRIMES), st.sampled_from(_BIG_PRIMES))
def test_a_square_above_trial_division_folds_into_q(p, m):
    # sqrt(p^2 m) keeps p^2 under the root: both primes are above the
    # trial division of _factor
    v = la._sqrt_rational(p * p * m) * la._sqrt_rational(m)
    assert (v.q, v.root()) == (m * p, (1, 0))
    _same(v, sp.Integer(m * p))
    assert hash(v) == hash(Fraction(m * p))


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_BIG_PRIMES + _SMALL_PRIMES),
       st.sampled_from(_BIG_PRIMES + _SMALL_PRIMES), _Q, st.integers(-2, 2))
def test_one_value_built_two_ways_is_one_value(p, m, q, j):
    # products and powers that meet the same factor above trial division
    # from two sides still give one form
    c, third = la.ClosedForm(q, b=j), Fraction(1, 3)
    pairs = [(la._sqrt_rational(p * m),
              la._sqrt_rational(p) * la._sqrt_rational(m)),
             (la._sqrt_rational(p * p * m) * la._sqrt_rational(m),
              la.ClosedForm(p * m)),
             (la.ClosedForm(p * m) ** third * la.ClosedForm(p) ** (2 * third),
              p * la.ClosedForm(m) ** third)]
    for x, y in pairs:
        x, y = x * c, c * y
        assert x == y and hash(x) == hash(y)
        assert str(x) == str(y) and float(x) == float(y)
    assert hash(la.ClosedForm(q)) == hash(q)
    assert not la.ClosedForm(0) * pairs[2][0] and not c * 0


def test_a_rational_closed_form_reads_as_a_rational():
    assert la._rational(la._exact(Fraction(1, 4))) == Fraction(1, 4)
    assert catalog("Z", 2).scaled(la._exact(4)).det_sq() == 16
    with pytest.raises(InvalidInputError):
        la._rational(la._sqrt_rational(2))


def _catalog_values():
    lats = [catalog(name, n) for name, top in
            (("Z", 6), ("A", 5), ("Astar", 5)) for n in range(1, top + 1)]
    lats += [catalog("D", n) for n in range(3, 9)]
    lats += [catalog("E", n) for n in (6, 7, 8)]
    lats += [catalog("Leech"), catalog("BambahWoods"), catalog("NonSep")]
    values = [lat.determinant() for lat in lats]
    values += [packing_density(lat) for lat in lats]
    # covering radii of rank 8 take seconds each
    values += [covering_density(lat) for lat in lats if lat.rank < 8]
    values += [ball_lattice_density(lat, Fraction(1, 3)) for lat in lats]
    bodies = [cube(3), cross_polytope(3), cross_polytope(4), simplex(3),
              simplex(5), equilateral_triangle(), simplex_dv_cell(3)]
    values += [b.volume() for b in bodies]
    values += [volume_product(b) for b in bodies[:3]]
    return values + [kappa(n) for n in range(25)]


def test_catalog_values_are_sympys():
    values = _catalog_values()
    assert len(values) > 100
    for v in values:
        _same(v, v._sympy_())
    for v, w in zip(values, values[1:]):
        _same(v * w, v._sympy_() * w._sympy_())
        _same(v / w, v._sympy_() / w._sympy_())


# ---------------------------------------------------------------------------
# Products of rational powers q prod p^(e_p) pi^b
# ---------------------------------------------------------------------------

_EXPONENTS = st.fractions(-3, 3, max_denominator=12)
_MONOMIALS = st.builds(
    la.ClosedForm,
    st.fractions(Fraction(1, 10**6), 10**6, max_denominator=10**6),
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]), _EXPONENTS,
                    max_size=3),
    _EXPONENTS)


def _sym(m):
    """The sympy value of a ClosedForm, factor by factor."""
    def r(x):
        return sp.Rational(x.numerator, x.denominator)
    return r(m.q) * sp.Mul(*[sp.Integer(p) ** r(a) for p, a in m.e]) \
        * sp.pi ** r(m.b)


def _agree(m, want):
    """m has the value of the sympy number want to 100 digits. sympy keeps
    no unique form for these products (6**(1/3) or 2**(1/3)*3**(1/3)), so
    its values, not its trees, are compared."""
    got, want = sp.N(_sym(m), 110), sp.N(want, 110)
    assert abs(got - want) <= abs(want) * sp.Float(10) ** -100, (m, want)


@settings(max_examples=150, deadline=None)
@given(_MONOMIALS, _MONOMIALS, st.fractions(-4, 4, max_denominator=7))
def test_monomial_arithmetic_is_sympys(x, y, t):
    _agree(x * y, _sym(x) * _sym(y))
    _agree(x / y, _sym(x) / _sym(y))
    _agree(x ** t, _sym(x) ** sp.Rational(t.numerator, t.denominator))
    _agree(x * 3 / Fraction(2, 5), _sym(x) * sp.Rational(15, 2))
    # the form is normal: every exponent of a prime is in (0, 1)
    assert all(0 < a < 1 for _, a in (x * y).e)


@settings(max_examples=100, deadline=None)
@given(_MONOMIALS, _MONOMIALS)
def test_monomial_order_is_sympys(x, y):
    for a, b in ((x, y), (x, x * Fraction(10**12 + 1, 10**12)), (x, y * -1)):
        want = _sym(a) > _sym(b)
        assert (a > b) == bool(want) and (b < a) == bool(want)
        assert (a <= b) == (not want)
    assert x == x * la.ClosedForm(2) ** Fraction(1, 3) \
        / la.ClosedForm(16) ** Fraction(1, 12)
    assert not x < x and x >= x


@pytest.mark.parametrize("digits", [20, 70, 130])
def test_monomial_order_refines_pi(digits):
    # rationals within 10^-digits of sqrt(pi) and pi^(3/2) / 2^(1/3): at 70
    # and 130 digits the 190 bits of _PI do not decide, Machin's series
    # does. sympy's relational gives up this close, so the oracle is the
    # sign of the difference at digits + 40 digits.
    scale = 10 ** digits
    for m in (la.ClosedForm(1, None, Fraction(1, 2)),
              la.ClosedForm(1, {2: Fraction(-1, 3)}, Fraction(3, 2))):
        s = sp.N(_sym(m), digits + 40)
        lo = Fraction(int(s * scale), scale)
        for q in (lo, lo + Fraction(1, scale)):
            want = sp.N(_sym(m) - sp.Rational(q.numerator, q.denominator),
                        digits + 40) > 0
            assert (m > q) == bool(want) and (q < m) == bool(want)


def test_machin_encloses_pi():
    pi = sp.N(sp.pi, 600)
    for bits in (190, 380, 1520):
        lo, hi = la._machin(bits)
        assert sp.Rational(lo, 2 ** bits) < pi < sp.Rational(hi, 2 ** bits)
        assert hi - lo < 2 ** 12
    lo, hi = la._machin(190)
    assert lo <= la._PI < la._PI + 1 <= hi


@settings(max_examples=200, deadline=None)
@given(_MONOMIALS)
def test_a_closed_monomial_is_a_closed_form(m):
    if m.root() is not None:
        _same(m, _sym(m))
    half = la.ClosedForm(m.q, {p: Fraction(1, 2) for p, _ in m.e}, round(m.b))
    _same(half, _sym(half))
    assert _cf(half.q, *half.root()) == half


def test_closed_form_order_is_exact_in_the_kernel():
    # q is pi^2 cut after 19 decimals, far closer than a float can tell
    v = _cf(1, 1, 2)
    q = Fraction(98696044010893586188, 10**19)
    assert v > q and not v < q and v < q + Fraction(1, 10**19)
    assert la.ClosedForm(0) < la._sqrt_rational(2) and -v < 0


_POSITIVE = st.builds(_cf,
                      st.fractions(Fraction(1, 10**6), 10**6,
                                   max_denominator=10**6),
                      st.one_of(st.just(1), _SQUAREFREE), st.integers(-3, 4))


def _today_floor(ratio, n):
    """The cylinder floor (ratio)^(1/n) - 1 as sympy builds it."""
    return sp.powsimp(ratio._sympy_() ** sp.Rational(1, n) - 1)


def _split(v):
    """Whether trial division below 2^15 (``_factor``) splits the rational
    part of the ClosedForm v into primes: a leftover above 2^15 counts as
    one prime there, and may be a product of larger ones."""
    return all(sp.isprime(p) for m in (v.q.numerator, v.q.denominator)
               for p in la._factor(m))


@settings(max_examples=300, deadline=None)
@given(_POSITIVE, st.integers(1, 8))
@example(_cf(Fraction(476633, 1000000), 123121), 2)
@example(_cf(Fraction(262139, 1000000), 58451), 2)
@example(_cf(Fraction(457, 328226), 208991), 3)
@example(_cf(Fraction(1, 666667), 311941), 3)
@example(_cf(Fraction(1, 666667), 137587), 3)
@example(_cf(Fraction(4, 615187), 48239), 3)
@example(_cf(Fraction(20769437037, 347759), 86857), 3)
@example(_cf(Fraction(16, 969697), 509259), 3)
@example(_cf(Fraction(57, 987013), 126717), 3)
@example(_cf(Fraction(28, 952381), 106087), 3)
@example(_cf(Fraction(214, 861167), 220859), 3)
def test_floor_text_and_float_are_sympys(x, n):
    root = (x ** n) ** Fraction(1, n)
    floor = la.minus_one(root)
    # sympy is followed except within 2^-9 of 1 and where q has a prime
    # past trial division below 2^15, which sympy's root of x^n keeps under
    # the square root (57 sqrt(987013^4 282797) / 987013^3 for
    # 57 sqrt(282797) / 987013); a rational x - 1 is always exact
    q = root.q.numerator * root.q.denominator
    handed = root.root() != (1, 0) and (
        abs(float(x) - 1) < 2 ** -9
        or max(sp.primefactors(q), default=1) >= 2 ** 15)
    assert (floor is None) == handed
    if handed:
        return
    want = _today_floor(x ** n, n)
    assert str(floor) == str(want)
    assert float(floor) == float(want)
    # x^n's n-th root keeps a leftover of trial division whole, and so does
    # sympy's want (sqrt(476633^2 123121) above), while x built from q and r
    # prints q's primes outside the root (476633 sqrt(123121)): the text of
    # x - 1 is the floor's only where trial division splits x^n
    if _split(x ** n):
        assert str(floor) == str(x._sympy_() - 1)


def _near_one(r, bits, up):
    """q sqrt(r) with q the dyadic rational next to 1/sqrt(r) at bits."""
    s = math.isqrt((1 << 2 * bits) // r) + up
    return _cf(Fraction(s, 1 << bits), r)


@settings(max_examples=300, deadline=None)
@given(_SQUAREFREE.filter(lambda r: r > 1), st.integers(4, 40),
       st.booleans())
@example(2, 8, False)
@example(3, 10, True)
def test_floor_near_one_goes_to_sympy(r, bits, up):
    # sympy's sum restarts at a higher precision when -1 + x cancels more
    # than 10 bits; minus_one hands every x within 2^-9 of 1 back to sympy
    x = _near_one(r, bits, up)
    floor = la.minus_one(x)
    want = x._sympy_() - 1
    near = abs(x - 1) < Fraction(1, 512)
    assert bool(abs(want) < sp.Rational(1, 512)) == near
    if near:
        assert floor is None
    else:
        assert str(floor) == str(want) and float(floor) == float(want)


def test_floor_of_a_rational_root_is_a_rational():
    for x in (Fraction(5, 4), Fraction(1), Fraction(1, 3)):
        floor = la.minus_one(la.ClosedForm(x))
        _same(floor, sp.Rational(x.numerator, x.denominator) - 1)
    assert la.minus_one(la.ClosedForm(2) ** Fraction(1, 3)) is None
    assert la.minus_one(la.ClosedForm(1, None, 14)) is None
