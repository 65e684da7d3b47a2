import itertools
import math
from fractions import Fraction

import pytest
import sympy as sp

import latgeom._linalg as la
from latgeom.errors import CapabilityError, InvalidInputError
from latgeom.lattice import Lattice, catalog
from latgeom.sublattice import (dk_min, enumerate_sublattices, project_along,
                                saturate, witness)


def test_witness_det_and_saturation():
    lat = catalog("Z", 3)
    w = witness(lat, [[1, 1, 0]])
    assert w.det_sq == 2
    assert w.saturated
    w2 = witness(lat, [[2, 0, 0]])
    assert not w2.saturated
    assert saturate(lat, w2).det_sq == 1


def test_witness_rejects_dependent_rows():
    with pytest.raises(InvalidInputError):
        witness(catalog("Z", 3), [[1, 0, 0], [2, 0, 0]])


def test_enumerate_z3_lines_of_determinant_one():
    subs = enumerate_sublattices(catalog("Z", 3), 1, 1)
    assert len(subs) == 3
    assert all(w.det_sq == 1 for w in subs)


def test_enumerate_z3_planes_of_determinant_one():
    subs = enumerate_sublattices(catalog("Z", 3), 2, 1)
    assert len(subs) == 3
    assert all(w.det_sq == 1 for w in subs)


def test_enumerate_a2_minimal_lines():
    subs = enumerate_sublattices(catalog("A", 2), 1, math.sqrt(2) * 1.001)
    assert len(subs) == 3  # the three minimal directions of the hexagonal lattice


def test_enumerate_matches_hnf_oracle_z3():
    # oracle: all saturated rank-2 sublattices of Z^3 with det <= 2 are
    # kernels of primitive normal vectors with |v| <= 2
    subs = enumerate_sublattices(catalog("Z", 3), 2, 2)
    normals = set()
    for a, b, c in itertools.product(range(-2, 3), repeat=3):
        v = (a, b, c)
        if v == (0, 0, 0) or a * a + b * b + c * c > 4:
            continue
        if math.gcd(a, math.gcd(b, c)) != 1:
            continue
        normals.add(max(v, tuple(-x for x in v)))
    assert len(subs) == len(normals)


def test_dk_z_is_one():
    for n in range(2, 7):
        lat = catalog("Z", n)
        for k in range(1, n):
            d2, w = dk_min(lat, k)
            assert d2 == 1, (n, k)
            assert w.saturated


def test_dk_fcc():
    fcc = catalog("D", 3)
    d1, _ = dk_min(fcc, 1)
    d2, _ = dk_min(fcc, 2)
    assert d1 == 2  # lambda_1^2
    assert d2 == 3  # minimal hexagonal section


def test_dk_at_most_minima_product():
    from latgeom.enumeration import successive_minima
    lat = Lattice.from_rows([[3, 1, 0], [1, 2, 1], [0, 1, 4]])
    norms, _ = successive_minima(lat)
    for k in (1, 2):
        d2, _ = dk_min(lat, k)
        prod = math.prod(float(q) for q in norms[:k])
        assert float(d2) <= prod * (1 + 1e-9)


def test_node_budget_capability_error():
    with pytest.raises(CapabilityError):
        enumerate_sublattices(catalog("Z", 4), 2, 2, node_budget=3)


def test_project_along_determinant_identity():
    lat = catalog("D", 4)
    for w in enumerate_sublattices(lat, 2, 3)[:5]:
        proj = project_along(lat, w)
        assert proj.det_sq() * w.det_sq == lat.det_sq()


def test_project_fcc_minimal_vector():
    fcc = catalog("D", 3).scaled(2)
    w = witness(fcc, [[0, 0, 1]])
    proj = project_along(fcc, w)
    assert proj.gram() == [[Fraction(3), Fraction(1)], [Fraction(1), Fraction(3)]]


def test_project_auto_saturates():
    lat = catalog("Z", 3)
    w = witness(lat, [[2, 0, 0]])
    proj = project_along(lat, w)
    # projection of Z^3 along the x-axis is Z^2 regardless of the multiplier
    assert proj.det_sq() == 1


def test_project_embedding_matches_gram():
    lat = catalog("A", 3)
    w = witness(lat, [[1, 0, 0]])
    proj = project_along(lat, w)
    emb = proj.meta["embedding"]
    g = proj.gram()
    for i, ri in enumerate(emb):
        for j, rj in enumerate(emb):
            dot = sum(a * b for a, b in zip(ri, rj))
            assert dot == pytest.approx(float(g[i][j]), abs=1e-9)


def test_project_along_keeps_cached_invariants():
    lat = catalog("D", 4)
    _, w = dk_min(lat, 1)
    proj = project_along(lat, w)
    assert {"_gram", "int_gram", "_det_sq"} <= set(vars(proj))
