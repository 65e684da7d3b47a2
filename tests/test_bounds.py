import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

import latgeom._linalg as la
from latgeom.bounds import (body_min_chain, body_min_floor, cnk_upper,
                            conjectured_min_dnn1, constants, delta_ball,
                            dnk_chain, dnk_known, dnk_lower, dnn1_ball,
                            dnn1_body, has_delta, has_theta, mahler_floors,
                            max_d21_upper, min_dnk_over_bodies,
                            remark321_table, theta_ball)
from latgeom.errors import LatgeomError, MissingConstantError
from latgeom.impassability import ball_lattice_density, free_cylinder
from latgeom.lattice import catalog
from latgeom.polytope import cross_polytope, cube, simplex


def test_delta_catalog():
    assert sp.simplify(delta_ball(2).value_exact - sp.pi / sp.sqrt(12)) == 0
    assert sp.simplify(delta_ball(8).value_exact - sp.pi ** 4 / 384) == 0
    assert has_delta(24) and not has_delta(9)
    with pytest.raises(MissingConstantError):
        delta_ball(9)


def test_theta_catalog():
    assert sp.simplify(theta_ball(2).value_exact - 2 * sp.pi / sp.sqrt(27)) == 0
    assert has_theta(5) and not has_theta(6)
    with pytest.raises(MissingConstantError):
        theta_ball(6)


def test_constants_bundle():
    c = constants(3)
    assert set(c) == {"delta", "theta"}
    assert constants(8).keys() == {"delta"}
    with pytest.raises(MissingConstantError):
        constants(9)


def test_cnk_equality_at_k1():
    rep = cnk_upper(3, 1)
    assert rep.strictness == "equality"
    # c_{3,1} = 2 (delta_3/kappa_3)^{1/3} = 2^{1/6}
    assert sp.simplify(rep.value_exact - 2 ** sp.Rational(1, 6)) == 0


def test_dnk_lower_21_exact():
    rep = dnk_lower(2, 1)
    assert sp.simplify(rep.value_exact - sp.sqrt(3) * sp.pi / 8) == 0
    assert rep.strictness == "equality"


def test_dnk_lower_41_exact():
    rep = dnk_lower(4, 1)
    assert sp.simplify(rep.value_exact - 25 * sp.pi ** 2 / 256) == 0


def test_dnk_lower_31_value():
    # chain value ~0.8411; the sharp threshold 9 pi/32 ~0.8836 is strictly above
    rep = dnk_lower(3, 1)
    assert rep.value_float == pytest.approx(0.841111, abs=5e-6)
    assert rep.value_float < dnk_known(3, 1).value_float


def test_dnk_known_values():
    assert sp.simplify(dnk_known(3, 1).value_exact - 9 * sp.pi / 32) == 0
    assert sp.simplify(dnk_known(2, 1).value_exact - sp.sqrt(3) * sp.pi / 8) == 0
    assert sp.simplify(dnk_known(3, 2).value_exact - sp.sqrt(2) * sp.pi / 12) == 0
    with pytest.raises(MissingConstantError):
        dnk_known(4, 1)


def test_dnn1_monotone_floor():
    # the hyperplane threshold is a valid lower bound for every k
    for n in (3, 4, 5):
        for k in range(1, n):
            assert dnk_lower(n, k).value_float >= dnn1_ball(n).value_float - 1e-15


def test_dnn1_body_simplex_chain():
    for n in (2, 3, 4):
        rep = dnn1_body(simplex(n), 1)
        expected = sp.Rational(n + 1, 2 ** n * sp.factorial(n))
        assert sp.simplify(rep.value_exact - expected) == 0


def test_dnn1_body_cross_polytope():
    for n in (2, 3):
        rep = dnn1_body(cross_polytope(n), 1)
        assert sp.simplify(rep.value_exact - sp.Rational(1, sp.factorial(n))) == 0


def test_body_min_floor_has_dimension_factor():
    # floor at n=3: kappa_3^2 / (C(6,3) * 64) ~ 0.0137, safely below the
    # chain value 0.0454
    f = body_min_floor(3)
    assert sp.simplify(f.value_exact - sp.pi ** 2 * sp.Rational(16, 9)
                       / (20 * 64)) == 0
    assert f.value_float < body_min_chain(3, 2, symmetric=False).value_float


def test_min_dnk_floor_dominates_at_24():
    chain = body_min_chain(24, 23, symmetric=False)
    combined = min_dnk_over_bodies(24, 23, symmetric=False)
    assert combined.value_float > chain.value_float
    assert combined.strictness == "strict-lower-bound"


_TABLE_FLOATS = {
    "chain-general": [4.536092e-2, 4.549292e-3, 3.557562e-4, 1.974002e-5,
                      8.745534e-7, 2.909718e-8, 4.672720e-38],
    "chain-symmetric": [1.178511e-1, 2.083333e-2, 2.946278e-3, 3.007033e-4,
                        2.480159e-5, 1.550099e-6, 9.606705e-32],
}


def test_remark_table_chain_values():
    rows = remark321_table()
    for key, expect in _TABLE_FLOATS.items():
        got = [e["report"].value_float for e in rows[key]]
        for g, e in zip(got, expect):
            assert g == pytest.approx(e, rel=1e-6)


def test_remark_table_conjecture_values():
    rows = remark321_table()
    for e in rows["conjecture-general"]:
        n = e["n"]
        assert e["report"].value_exact == Fraction((n + 1), 2 ** n * math.factorial(n))
    for e in rows["conjecture-symmetric"]:
        assert e["report"].value_exact == Fraction(1, math.factorial(e["n"]))


def test_remark_table_printed_digits():
    rows = remark321_table()
    for key, entries in rows.items():
        for e in entries:
            printed = float(e["printed"])
            rel = abs(e["report"].value_float - printed) / printed
            if e["discrepancy"]:
                # off in the fourth significant digit, never worse
                assert 5e-5 < rel < 2e-3, (key, e["n"])
            else:
                assert rel < 5e-4, (key, e["n"])


def test_max_d21_triple():
    proved, legacy, conjecture = max_d21_upper()
    assert proved.value_float == pytest.approx(0.691071, abs=5e-7)
    assert legacy.value_float == pytest.approx(0.699932, abs=5e-7)
    assert conjecture.value_float == pytest.approx(0.680175, abs=5e-7)
    assert sp.simplify(conjecture.value_exact - sp.sqrt(3) * sp.pi / 8) == 0


def test_mahler_floors_ordering():
    kuperberg, symm, gen = mahler_floors(3)
    assert sp.simplify(kuperberg.value_exact - kappa3_sq() / 8) == 0
    assert symm.value_float < kuperberg.value_float
    assert gen.value_float < symm.value_float


def kappa3_sq():
    return (sp.Rational(4, 3) * sp.pi) ** 2


def test_conjectured_min_values():
    assert conjectured_min_dnn1(3, symmetric=False) == sp.Rational(4, 48)
    assert conjectured_min_dnn1(3, symmetric=True) == sp.Rational(1, 6)


def test_report_serialization():
    d = dnk_lower(4, 1).to_dict()
    assert d["formula_id"] == "dnk-lower"
    assert d["value_float"] == pytest.approx(float(25 * math.pi ** 2 / 256))
    assert isinstance(d["inputs"], list)


def _all_reports():
    """Every BoundReport for n <= 8 and n = 24 that the catalog supports."""
    reports = list(max_d21_upper()[1:])
    for n in list(range(1, 9)) + [24]:
        reports += mahler_floors(n)
        if has_delta(n):
            reports.append(dnn1_ball(n))
        for k in range(1, n):
            calls = [(dnk_lower, k), (dnk_chain, k), (cnk_upper, k)]
            calls += [(min_dnk_over_bodies, k, sym) for sym in (False, True)]
            for f, *args in calls:
                try:
                    reports.append(f(n, *args))
                except MissingConstantError:
                    pass
    for rows in remark321_table().values():
        reports += [e["report"] for e in rows]
    return reports


def test_reports_leave_in_canonical_form():
    # sympy's automatic evaluation already writes these products of rational
    # powers of integers and pi as sp.simplify would: no simplifier is needed
    reports = _all_reports()
    values = {r.value_exact for r in reports}
    values |= {c.value_exact for r in reports for c in r.inputs}
    assert len(values) > 150
    for v in values:
        assert str(v) == str(sp.simplify(v))


def test_dnn1_body_reads_a_float_density_exactly():
    # a float delta_polar is read as the rational it is, not guessed to be
    # the closed form sqrt(2)*pi/6 that it approximates
    delta = 0.7404804896930609
    rep = dnn1_body(cube(2), delta)
    assert rep.value_exact == sp.Rational(1, 2) / sp.Rational(la._rational(delta))
    assert rep.value_exact.root() == (1, 0)  # a rational
    assert dnn1_body(cube(2), sp.sqrt(2) * sp.pi / 6).value_exact \
        == 3 * sp.sqrt(2) / (2 * sp.pi)
    assert dnn1_body(cube(2), Fraction(1, 2)).value_exact == 1


def _covered():
    """(n, k) for every dnk_lower that ``_all_reports`` covers."""
    out = []
    for n in list(range(1, 9)) + [24]:
        for k in range(1, n):
            try:
                dnk_lower(n, k)
            except MissingConstantError:
                continue
            out.append((n, k))
    return out


def test_choices_are_sympys_exact_comparisons():
    covered = _covered()
    assert len(covered) == 30
    for n, k in covered:
        chain, floor = dnk_chain(n, k), dnn1_ball(n)
        takes_floor = bool(sp.sympify(floor.value_exact)
                           > sp.sympify(chain.value_exact))
        assert (dnk_lower(n, k).notes == chain.notes) is not takes_floor
        for symmetric in (False, True):
            body, volume = body_min_chain(n, k, symmetric), body_min_floor(n)
            takes_floor = bool(sp.sympify(volume.value_exact)
                               > sp.sympify(body.value_exact))
            got = min_dnk_over_bodies(n, k, symmetric)
            assert got.notes == (volume if takes_floor else body).notes
            assert got.value_exact == (volume if takes_floor else body).value_exact


def test_the_21_tie_keeps_the_chain():
    # the chain and the hyperplane threshold are both sqrt(3) pi / 8: a tie
    # that no float comparison may break
    chain, floor = dnk_chain(2, 1), dnn1_ball(2)
    assert chain.value_float == floor.value_float == 0.6801747615878317
    assert chain.monomial == floor.monomial
    assert dnk_lower(2, 1) == replace(chain, formula_id="dnk-lower")


@pytest.mark.parametrize("name,n,scale_sq,r,threshold", [
    ("D", 3, 2, 1, lambda: dnk_known(3, 1)),
    ("D", 4, 2, 1, lambda: dnk_lower(4, 1)),
    ("Z", 2, 1, Fraction(1, 4), lambda: dnk_known(2, 1)),
])
def test_guaranteed_is_the_exact_density_test(name, n, scale_sq, r, threshold):
    lat = catalog(name, n).scaled(scale_sq)
    d = threshold()
    density = ball_lattice_density(lat, r)
    cw = free_cylinder(lat, r, 1, d)
    assert cw.guaranteed is bool(sp.sympify(d.value_exact)
                                 > sp.sympify(density))
    # at d = density the floor is 0 and nothing is guaranteed; a hair above
    # it, something is, although the floor rounds to a float near 0
    at = free_cylinder(lat, r, 1, density)
    assert not at.guaranteed and str(at.guaranteed_floor) == "0"
    above = free_cylinder(lat, r, 1, density * Fraction(10**30 + 1, 10**30))
    assert above.guaranteed and above.floor_float < 1e-29


# (catalog name, dimension, squared scale, r) of the pinned cylinder floors:
# D3 and D4 times sqrt2, Z2, Z3 and A2, and Z2 times sqrt3
_CYLINDERS = [("D", 3, 2, 1), ("D", 4, 2, 1), ("Z", 2, 1, Fraction(1, 4)),
              ("Z", 3, 1, Fraction(1, 4)), ("A", 2, 1, Fraction(1, 4)),
              ("Z", 2, 3, Fraction(1, 3))]


def _pinned():
    """The text and float of every report of ``_all_reports`` and of
    ``free_cylinder``'s floor (or its error) on ``_CYLINDERS`` at the
    thresholds ``dnk_known`` and ``dnk_lower`` where they exist and at the
    floats 0.3 and 0.7, as JSON records."""
    out = [dict(r.to_dict(), float_repr=repr(r.value_float))
           for r in _all_reports()]
    for name, n, scale_sq, r in _CYLINDERS:
        lat = catalog(name, n).scaled(scale_sq)
        thresholds = []
        for f in (dnk_known, dnk_lower):
            try:
                thresholds.append((f.__name__, f(n, 1)))
            except MissingConstantError:
                pass
        for label, d in thresholds + [("0.3", 0.3), ("0.7", 0.7)]:
            case = {"cylinder": f"{name}{n} scale^2 {scale_sq} r {r} k 1",
                    "threshold": label}
            try:
                cw = free_cylinder(lat, r, 1, d)
            except LatgeomError as exc:
                out.append(dict(case, error=f"{type(exc).__name__}: {exc}"))
                continue
            out.append(dict(case, guaranteed_floor=str(cw.guaranteed_floor),
                            floor_float=repr(cw.floor_float),
                            guaranteed=cw.guaranteed))
    return out


def test_bound_and_floor_texts_are_pinned():
    # tests/pinned_texts.json holds _pinned() one record a line, as computed
    # before the bounds and floors moved to one exact value type
    path = Path(__file__).with_name("pinned_texts.json")
    want = json.loads(path.read_text())
    got = json.loads(json.dumps(_pinned()))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
