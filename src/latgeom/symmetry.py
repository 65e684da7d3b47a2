"""Lattice automorphisms: the isometries that map a lattice onto itself.

An automorphism sends the basis b_1, ..., b_n to lattice vectors with the
same Gram matrix, and any such images define one. The Plesken-Souvignier
backtrack (Plesken & Souvignier, "Computing isometries of lattices",
J. Symbolic Comput. 24, 1997) finds the group on the LLL-reduced basis, in
integers against G_int:

- the candidate images of b_i are the vectors whose norm is G_ii, both
  signs of the reduced value's pairs (``enumeration._listing``), in the
  order of the full walk around 0, x ascending from its last coordinate;
- an image is kept only when its inner products with the images already
  chosen are the Gram entries, so each choice filters the later lists;
- a stabilizer chain, level i fixing b_1, ..., b_{i-1}, is filled from the
  last level up: each candidate image of b_i not yet in the orbit of b_i is
  either reached by one new isometry, which joins the generators, or shown
  outside the orbit together with its orbit under the generators so far.

The order of the group is the product of the orbit sizes along the chain.

The group also gives the volume of the Voronoi cell from one pyramid per
orbit of facets (``cell_volume``); ``orbit_representatives`` is the one
orbit routine, for those facets and for the sublattice search.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import _linalg as la
from .enumeration import (
    _listing,
    _reduced,
    _reduced_inverse,
    relevant_vectors,
    voronoi_cell,
)
from .errors import CapabilityError
from .lattice import Lattice, _once


def automorphisms(lat: Lattice):
    """(generators, order) of Aut(L), computed once per lattice value.

    Each generator is an int matrix A in lat's coefficient space whose rows
    are the images of the basis vectors, so A G A^T = G; a coefficient row
    x maps to x A."""
    return _once(lat, "automorphisms", lambda: _automorphisms(lat))


def _row_image(v, cols):
    return tuple([sum(map(operator.mul, v, c)) for c in cols])


def orbit_representatives(items, gens, act=_row_image):
    """(x, orbit of x) for each x of ``items``, in order, that no orbit
    before it reaches, under the int matrices ``gens``: act(x, cols) is the
    image of x under the A whose columns are cols, taken once per call; by
    default x is an int row and its image x A."""
    cols = [tuple(zip(*a)) for a in gens]
    reached, out = set(), []
    for x in items:
        if x in reached:
            continue
        orbit, todo = {x}, [x]
        while todo:
            v = todo.pop()
            for a in cols:
                w = act(v, a)
                if w not in orbit:
                    orbit.add(w)
                    todo.append(w)
        reached |= orbit
        out.append((x, orbit))
    return out


def _extend(g, images, options):
    """Images of the remaining basis vectors, given the ``images`` chosen so
    far and, for each remaining vector, its ``options``: the (x, x G_int)
    pairs consistent with every chosen image. None when there are none."""
    t = len(images)
    if not options:
        return tuple(images)
    for x, _ in options[0]:
        rest = [[(y, gy) for y, gy in opts if la.dot(gy, x) == g[j][t]]
                for j, opts in enumerate(options[1:], t + 1)]
        if all(rest):
            images.append(x)
            found = _extend(g, images, rest)
            images.pop()
            if found is not None:
                return found
    return None


def _automorphisms(lat: Lattice):
    red, u = _reduced(lat)
    g, d = red.int_gram
    n = red.rank
    diag = {g[i][i] for i in range(n)}
    cands = {q: [] for q in diag}  # norm in G_int -> both signs of its pairs
    for q, x in _listing(red, Fraction(max(diag), d)):
        if q in cands:
            cands[q] += x, tuple(-t for t in x)
    # each list with its rows x G_int, in the walk order of the full tree
    cands = {q: [(x, tuple(la.vec_mat(x, g))) for x in sorted(
        xs, key=lambda x: x[::-1])] for q, xs in cands.items()}
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    gens, order = [], 1
    for i in reversed(range(n)):
        # the inner product of x with b_l is (x G_int)_l, so the images that
        # fix b_1..b_{i-1} are read off the first i entries of x G_int
        level = [[(x, gx) for x, gx in cands[g[j][j]] if gx[:i] == g[j][:i]]
                 for j in range(i, n)]
        orbit, outside = orbit_representatives([unit[i]], gens)[0][1], set()
        for x, gx in level[0]:
            if x in orbit or x in outside:
                continue
            found = _extend(g, unit[:i], [[(x, gx)]] + level[1:])
            if found is None:
                outside |= orbit_representatives([x], gens)[0][1]
            else:
                gens.append(found)
                orbit = orbit_representatives([unit[i]], gens)[0][1]
        order *= len(orbit)
    # conjugate back: lat's basis is U^{-1} times red's
    u_inv = _reduced_inverse(lat)
    g_lat = [list(row) for row in lat.int_gram[0]]
    out = []
    for a in gens:
        m = tuple(map(tuple, la.mat_mul(la.mat_mul(u_inv, a), u)))
        if la.mat_mul(la.mat_mul(m, g_lat), la.transpose(m)) != g_lat:
            raise RuntimeError(f"automorphism {m} does not preserve the Gram")
        out.append(m)
    return tuple(out), order


def cell_volume(lat: Lattice):
    """The volume of ``voronoi_cell(lat)``, exact (a ClosedForm), computed
    once per lattice value from one pyramid per orbit of facets.

    The cell is the union of the pyramids from 0 over its facets; the facet
    F_v of a relevant vector v lies on <x, v> = <v, v> / 2. An automorphism
    A maps x to xA and F_v onto F_{vA}, and |det A| = 1, so the facets of
    one orbit give pyramids of one coordinate volume: the sum takes one
    facet per orbit, the least v, times the orbit size. With the group +-1
    the orbits are the +- pairs. The sum holds for any subgroup of Aut(L),
    so a lattice whose group search is over the point budget (successive
    minima far apart) takes the subgroup +-1. On the cell's vertices W / D,
    the pyramid over F_v is the sum of |det W[s]| / (n! D^n) over the
    simplices s of the facet's pulling triangulation. Its size depends on
    the member of the orbit: E7's facets take 160 to 280 simplices, and
    the least v takes 280.
    """
    return _once(lat, "cell_volume", lambda: _cell_volume(lat))


def _cell_volume(lat: Lattice):
    """``cell_volume`` of lat. The vertices of F_v are the ones the cell's
    double description found tight at the row ``_cell`` wrote for v, and
    the cell hands them out by that row (``Polytope._facet``), so no vertex
    is tested again."""
    cell = voronoi_cell(lat)
    ints, den = cell.integer_vertices()
    g, _ = lat.int_gram
    try:
        gens, _ = automorphisms(lat)
    except CapabilityError:
        gens = (tuple(tuple(-int(i == j) for j in range(lat.rank))
                      for i in range(lat.rank)),)
    facets = sorted(s for v in relevant_vectors(lat)
                    for s in (v, tuple(-x for x in v)))
    total = 0
    for v, orbit in orbit_representatives(facets, gens):
        gv = la.vec_mat(v, g)
        # F_v is where the cell's row 2 v G_int . x <= v G_int v^T is tight
        face = cell._facet([2 * x for x in gv], la.dot(v, gv))
        total += len(orbit) * sum(abs(la.det_int([ints[k] for k in s]))
                                  for s in cell._pulling(face))
    n = lat.rank
    return la._sqrt_rational(lat.det_sq()) \
        * Fraction(total, math.factorial(n) * den ** n)
