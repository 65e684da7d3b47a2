"""The fraction-free elimination kernel behind det, rank, solve and inverse,
checked against sympy's exact matrices as an independent reference."""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import latgeom._linalg as la
from latgeom.errors import InvalidInputError

# ints next to Fractions with mixed denominators, and plenty of zeros
_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 7, 12])),
)


@st.composite
def _matrices(draw, square):
    rows = draw(st.integers(1, 8))
    cols = rows if square else draw(st.integers(1, 8))
    m = [[draw(_entries) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):  # a zero column
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = 0
    if rows > 1 and draw(st.booleans()):  # a row dependent on two others
        i, p, q = (draw(st.integers(0, rows - 1)) for _ in range(3))
        a, b = draw(_entries), draw(_entries)
        m[i] = [a * x + b * y for x, y in zip(m[p], m[q])]
    if draw(st.booleans()):  # a zero leading pivot
        m[0][0] = 0
    return m


def _sym(m):
    return sp.Matrix([[sp.Rational(Fraction(x).numerator, Fraction(x).denominator)
                       for x in row] for row in m])


def _frac(q):
    return Fraction(int(sp.numer(q)), int(sp.denom(q)))


@settings(max_examples=300, deadline=None)
@given(_matrices(square=False))
def test_rank_matches_sympy(m):
    assert la.rank(m) == _sym(m).rank()


@settings(max_examples=300, deadline=None)
@given(_matrices(square=True))
def test_det_matches_sympy(m):
    d = _frac(_sym(m).det())
    assert la.det(m) == d
    if all(isinstance(x, int) for row in m for x in row):
        assert la.det_int(m) == d


@settings(max_examples=300, deadline=None)
@given(_matrices(square=True), st.data())
def test_solve_and_inverse_match_sympy(m, data):
    s = _sym(m)
    b = [data.draw(_entries) for _ in m]
    if s.det() == 0:
        assert la.inverse(m) is None
        assert la.solve(m, b) is None
        return
    assert la.inverse(m) == [[_frac(x) for x in row] for row in s.inv().tolist()]
    assert la.solve(m, b) == [_frac(x) for x in s.LUsolve(_sym([[x] for x in b]))]


def test_rank_of_empty_and_det_of_empty():
    assert la.rank([]) == 0
    assert la.det([]) == 1


def test_elimination_leaves_input_unchanged():
    m = [[0, Fraction(1, 2)], [3, 4]]
    copy = [list(row) for row in m]
    la.det(m), la.rank(m), la.inverse(m), la.solve(m, [1, 2])
    assert m == copy


@pytest.mark.parametrize("x,want", [
    (3, Fraction(3)), ("-1/2", Fraction(-1, 2)), ("0.5", Fraction(1, 2)),
    (0.1, Fraction(1, 10)), (Fraction(2, 3), Fraction(2, 3)),
    (np.int64(-4), Fraction(-4)), (np.float32(0.25), Fraction(1, 4)),
    (sp.Rational(3, 7), Fraction(3, 7)),
    # floats by their shortest repr, else the nearest fraction
    (17.229, Fraction(17229, 1000)), (0.1 + 0.2, Fraction(3, 10)),
    (1 / 3, Fraction(1, 3)), (1e-13, Fraction(0)),
])
def test_rational_reads_numbers(x, want):
    assert la._rational(x) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**15 + 1, 10**15 - 1), st.integers(0, 12))
def test_rational_reads_a_short_decimal_float_exactly(digits, places):
    # a decimal of at most 15 significant digits survives the float, and
    # its shortest repr gives it back
    want = Fraction(digits, 10**places)
    assert la._rational(float(f"{digits}e-{places}")) == want


@pytest.mark.parametrize("x", ["x", "1/0", "", float("nan"), float("inf"), None, [1]])
def test_rational_rejects_non_numbers(x):
    with pytest.raises(InvalidInputError):
        la._rational(x)


def test_exact_passes_sympy_and_reads_the_rest():
    # a sympy value passes unchanged; any other number is read, never
    # guessed: the float of sqrt(2)*pi/6 stays a rational
    for v in (sp.pi, sp.sqrt(2) / 3, sp.Rational(5, 7), sp.Float(0.5)):
        assert la._exact(v) is v
    assert la._exact(Fraction(-1, 2)) == sp.Rational(-1, 2)
    assert la._exact("0.25") == sp.Rational(1, 4)
    x = float(sp.sqrt(2) * sp.pi / 6)
    assert la._exact(x) == sp.Rational(la._rational(x))
    assert la._exact(x).root() == (1, 0)  # a rational
    with pytest.raises(InvalidInputError):
        la._exact("pi")


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.lists(
    st.lists(st.integers(-6, 6), min_size=m, max_size=m), min_size=1,
    max_size=m)))
def test_complete_to_unimodular(rows):
    assume(la.rank(rows) == len(rows))
    sat = la.saturation(rows)
    full = la.complete_to_unimodular(sat)
    assert full[:len(sat)] == sat and abs(la.det_int(full)) == 1
    if not la._saturated(rows):
        with pytest.raises(ValueError, match="saturated"):
            la.complete_to_unimodular(rows)


def _kernel_of_kernel(rows):
    """Reference saturation: the HNF of the integer kernel of the integer
    kernel of ``rows``, Z^m itself when the first kernel is zero."""
    m = len(rows[0])
    ker = la.integer_kernel(rows)
    if not ker:
        return [[int(i == j) for j in range(m)] for i in range(m)]
    return la.hnf_basis(la.integer_kernel(ker))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(st.integers(-6, 6), min_size=m, max_size=m), min_size=1,
    max_size=m)))
def test_saturation_matches_kernel_of_kernel(rows):
    assume(la.rank(rows) == len(rows))
    assert la.saturation(rows) == _kernel_of_kernel(rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1,
    max_size=8)), st.integers(0, 7))
def test_add_independent_matches_rank(rows, dup):
    # the echelon keeps exactly the rows that raise the rank of those kept
    rows.insert(dup % len(rows), rows[-1])  # a repeated row is dependent
    echelon, kept = [], []
    for row in rows:
        grew = la.rank(kept + [row]) > len(kept)
        assert la.add_independent(echelon, row) == grew
        if grew:
            kept.append(row)
    assert len(echelon) == len(kept) == la.rank(rows)
    for c, e in echelon:
        assert e[c] and not any(e[:c]) and np.gcd.reduce(e) == 1
    if kept:  # popping the last pair undoes its append
        echelon.pop()
        assert la.add_independent(echelon, kept[-1])


def _mat_mul_ref(a, b):
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            s = 0
            for t in range(len(b)):
                s += row[t] * b[t][j]
            out[-1].append(s)
    return out


# p x q times q x r; the fixed shapes are 1 x m, m x 1 and non-square
@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([(1, 5, 3), (5, 1, 3), (3, 5, 1), (2, 3, 4)]),
                 st.tuples(*[st.integers(1, 6)] * 3)),
       st.booleans(), st.data())
def test_products_match_a_triple_loop(shape, ints, data):
    p, q, r = shape
    entry = st.integers(-10**6, 10**6) if ints else _entries
    a = data.draw(st.lists(st.lists(entry, min_size=q, max_size=q),
                           min_size=p, max_size=p))
    b = data.draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                           min_size=q, max_size=q))
    want = _mat_mul_ref(a, b)
    for got in (la.mat_mul(a, b), [la.vec_mat(row, b) for row in a]):
        assert got == want
        assert [list(map(type, row)) for row in got] == \
            [list(map(type, row)) for row in want]
        if ints:
            assert all(type(x) is int for row in got for x in row)


def test_complete_to_unimodular_checks_the_completion(monkeypatch):
    # a complement that doubles the volume fails the unimodularity check,
    # which is a raise, not an assert, so it holds under python -O too
    real = la.integer_kernel
    monkeypatch.setattr(la, "integer_kernel",
                        lambda a: [[2 * x for x in r] for r in real(a)])
    with pytest.raises(ValueError, match="not unimodular"):
        la.complete_to_unimodular([[1, 0, 0]])


@pytest.mark.parametrize("a", [[], [[]], [[], []]])
def test_integer_kernel_of_a_matrix_without_columns_is_empty(a):
    # the kernel lies in Z^0, whose basis is empty
    assert la.integer_kernel(a) == []


_REALS = st.one_of(
    st.fractions(-100, 100, max_denominator=1000), st.integers(-10**6, 10**6),
    st.decimals(-100, 100, places=3, allow_nan=False).map(str),
    st.floats(-1e6, 1e6, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(_REALS)
def test_rational_square_of_a_rational_reader_value(x):
    q = la._rational(x)
    assert la._rational_square(x) == (q * q, q > 0)


@settings(max_examples=100, deadline=None)
@given(st.fractions(-20, 20, max_denominator=50).filter(bool),
       st.fractions(0, 20, max_denominator=50).filter(bool))
def test_rational_square_of_a_root(c, q):
    x = sp.Rational(c) * sp.sqrt(sp.Rational(q))
    assert la._rational_square(x) == (c * c * q, c > 0)


@pytest.mark.parametrize("x", [sp.pi, sp.sqrt(2) + 1, sp.E ** 2,
                               float("inf"), float("nan"), "abc", None])
def test_rational_square_rejects_other_values(x):
    with pytest.raises(InvalidInputError):
        la._rational_square(x)


_half_ties = st.builds(lambda q, h: ((2 * q + 1) * h, 2 * h),
                       st.integers(-2**70, 2**70), st.integers(1, 2**70))
_quotients = st.tuples(st.integers(-2**90, 2**90), st.integers(1, 2**80))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_half_ties, _quotients))
def test_round_div_is_round_of_the_fraction(ab):
    a, b = ab
    got = la._round_div(a, b)
    assert type(got) is int and got == round(Fraction(a, b))
