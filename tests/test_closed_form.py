"""The exact value type q sqrt(r) pi^j (``_linalg.ClosedForm``) against
sympy as the oracle: text, float, and arithmetic on random values and on
every determinant, density and volume the catalog and the standard bodies
give."""

import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
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
_VALUES = st.builds(la.ClosedForm, _Q, st.one_of(st.just(1), _SQUAREFREE),
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
    v = la.ClosedForm(q, 1, 2 * half_j)
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
        v = la.ClosedForm(Fraction(q), 2, 1)
        assert float(v) == float(v._sympy_()) == want


_BIG_PRIMES = [p for p in range(2**15, 2**15 + 300)
               if all(p % d for d in range(2, math.isqrt(p) + 1))]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(_BIG_PRIMES), st.sampled_from(_BIG_PRIMES))
def test_a_square_above_trial_division_folds_into_q(p, m):
    # sqrt(p^2 m) keeps p^2 under the root: both primes are above the
    # trial division of _square_part
    v = la._sqrt_rational(p * p * m) * la._sqrt_rational(m)
    assert (v.q, v.r) == (m * p, 1)
    _same(v, sp.Integer(m * p))
    assert hash(v) == hash(Fraction(m * p))


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
