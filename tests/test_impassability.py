import math
from fractions import Fraction

import pytest
import sympy as sp

from latgeom.bounds import dnk_known, dnk_lower
from latgeom.errors import NotAPackingError
from latgeom.impassability import (ball_lattice_density, free_cylinder,
                                   is_nonseparable_ball_lattice,
                                   max_clearance, passage_certificate)
from latgeom.lattice import Lattice, catalog


def test_certificate_cubic_lattice():
    cert = passage_certificate(catalog("Z", 3), Fraction(6, 10), 1)
    assert cert is not None
    assert cert.validated and cert.validation_points > 0
    assert float(cert.mu) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert cert.clearance_float == pytest.approx(math.sqrt(2) / 2 - 0.6, abs=1e-12)


def test_certificate_none_when_balls_too_big():
    # Z^2 with r = 0.8 > mu of every line projection within the bound
    assert passage_certificate(catalog("Z", 2), Fraction(8, 10), 1) is None


def test_certificate_plane_lift_is_orthogonal():
    cert = passage_certificate(catalog("Z", 3), Fraction(1, 2), 1)
    base, dirs = cert.plane
    for d in dirs:
        assert sum(a * b for a, b in zip(base, d)) == pytest.approx(0, abs=1e-9)
        assert sum(x * x for x in d) == pytest.approx(1, abs=1e-12)


def test_max_clearance_fcc():
    fcc = catalog("D", 3).scaled(2)
    clearance, cert = max_clearance(fcc, 1, 1)
    assert clearance == pytest.approx(3 * math.sqrt(2) / 4 - 1, abs=1e-12)
    assert cert.validated
    # the witness is a minimal vector of the lattice
    assert cert.witness.det_sq == 4


def test_max_clearance_deterministic():
    fcc = catalog("D", 3).scaled(2)
    _, c1 = max_clearance(fcc, 1, 1)
    _, c2 = max_clearance(fcc, 1, 1)
    assert c1.witness.coeffs == c2.witness.coeffs
    assert c1.deep_hole == c2.deep_hole


def test_max_clearance_d4():
    d4 = catalog("D", 4).scaled(2)
    clearance, cert = max_clearance(d4, 1, 1)
    assert clearance > math.sqrt(5) / 2 - 1
    assert cert.validated


def test_k2_certificate_z4():
    cert = passage_certificate(catalog("Z", 4), Fraction(1, 2), 2)
    assert cert is not None
    assert float(cert.mu) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_nonseparable_cubic_zero_margin():
    for n in (2, 3, 4):
        flag, margin = is_nonseparable_ball_lattice(catalog("Z", n), Fraction(1, 2))
        assert flag
        assert margin == pytest.approx(0, abs=1e-12)


def test_nonseparable_catalog_lattice():
    flag, margin = is_nonseparable_ball_lattice(catalog("NonSep", 3), 1)
    assert flag
    assert margin == pytest.approx(0, abs=1e-12)


def test_nonseparable_lower_rank_lattices():
    # the dual is taken in the span: lambda_1(E7*)^2 = 3/2, lambda_1(A5*)^2 = 5/6
    flag, margin = is_nonseparable_ball_lattice(catalog("E", 7), Fraction(1, 2))
    assert flag
    assert margin == pytest.approx(math.sqrt(3 / 2) - 1, abs=1e-12)
    flag, margin = is_nonseparable_ball_lattice(catalog("A", 5), Fraction(1, 2))
    assert not flag
    assert margin == pytest.approx(math.sqrt(5 / 6) - 1, abs=1e-12)


def test_separable_when_balls_small():
    flag, margin = is_nonseparable_ball_lattice(catalog("Z", 3), Fraction(2, 5))
    assert not flag
    assert margin < 0


def test_density():
    d = ball_lattice_density(catalog("Z", 2), Fraction(1, 2))
    assert sp.simplify(d - sp.pi / 4) == 0


def test_free_cylinder_fcc_floor_exact():
    fcc = catalog("D", 3).scaled(2)
    cw = free_cylinder(fcc, 1, 1, dnk_known(3, 1))
    assert sp.simplify(cw.guaranteed_floor - (3 * sp.sqrt(2) / 4 - 1)) == 0
    assert cw.guaranteed
    assert cw.base_radius >= cw.floor_float - 1e-3
    assert cw.certificate.validated


def test_free_cylinder_d4_floor_exact():
    d4 = catalog("D", 4).scaled(2)
    cw = free_cylinder(d4, 1, 1, dnk_lower(4, 1))
    assert sp.simplify(cw.guaranteed_floor - (sp.sqrt(5) / 2 - 1)) == 0
    assert cw.base_radius > cw.floor_float


def test_free_cylinder_rejects_overlapping_balls():
    with pytest.raises(NotAPackingError):
        free_cylinder(catalog("Z", 3), 0.7, 1, dnk_lower(3, 1))


def test_free_cylinder_no_guarantee_flag():
    # Z^3 at r = 0.49 is denser than the d_{3,2} threshold: floor < 0, but
    # the axis direction still clears the balls by 0.01
    cw = free_cylinder(catalog("Z", 3), Fraction(49, 100), 2, dnk_lower(3, 2))
    assert not cw.guaranteed
    assert cw.floor_float <= 0
    assert cw.base_radius == pytest.approx(0.01, abs=1e-12)


def test_certificate_serialization():
    cert = passage_certificate(catalog("Z", 3), Fraction(1, 2), 1)
    d = cert.to_dict()
    assert d["validated"] is True
    assert d["k"] == 1
    assert isinstance(d["witness"]["coeffs"], list)
    assert d["plane"] is not None
