"""Exact double description: the extreme rays of a cone {x : n . x <= 0},
by the incremental method of Fukuda & Prodon on primitive integer rays.

Each ray keeps the slot it was made in, so the incidence is updated, not
rebuilt: ``masks`` holds, per slot, the bitmask of processed constraints
tight at its ray, and ``tight``, per constraint, the bitmask of slots tight
at it. A new ray is a positive combination of an adjacent (positive,
negative) pair, so it is tight exactly where both are, and on the new
constraint: it sets its own bits, and the new constraint's mask is its zero
rays and the new ones. A ray cut off leaves its slot dead. The live slots,
in ascending order, are the survivors in their old order and then the new
rays. The cone stays pointed throughout, so the combinatorial adjacency test
holds; a pair with a ray tight at exactly d - 1 constraints is adjacent
without it, by a rank argument (``_crossings``).

Two drivers share that kernel, one step of the method that returns the new
rays of a cut as a list: ``cone_rays`` adds the constraints one at a
time to a simplicial cone, and ``paired_rays`` cuts a centrally symmetric
body by both rows of a mirror pair at once. Each returns its live rays with
their masks, so the vertex-facet incidence leaves with the rays. A driver
that holds more than ``RAY_BUDGET`` rays raises CapabilityError.
``vertex_rays`` is the entry for bodies {x : A x <= b}: it homogenizes
them, picks the driver, and names the constraint of each mask bit by its
primitive int normal (a, -b), the one name a row has.
"""

from __future__ import annotations

import math
import operator

from . import _linalg as la
from .errors import CapabilityError, InvalidInputError, UnboundedBodyError

# Rays the double description may hold at once; the largest cell known to
# latgeom, E8's, peaks at 19,440 under the paired driver, its vertex count.
RAY_BUDGET = 200_000


def _primitive(ints):
    """An integer vector divided by the gcd of its entries, as a tuple."""
    g = math.gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _primitive_int(vec):
    """Scale a rational vector to a primitive integer tuple (gcd 1)."""
    den = math.lcm(*(x.denominator for x in vec))
    return _primitive([x.numerator * (den // x.denominator) for x in vec])


def _mirror(r):
    """The mirror (-a, c) of a row or ray (a, c): -a in every entry but
    the last."""
    return (*[-x for x in r[:-1]], r[-1])


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending. Peeled from the top
    bit, so each step shrinks the mask and needs no negation."""
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    return out


def _at_least(cols, t, universe):
    """Bitmask of the indices in ``universe`` set in at least t of the
    bitmasks ``cols``, by adding the columns in a bit-sliced binary counter:
    plane i holds bit i of every index's count."""
    planes = []
    for x in cols:
        i = 0
        while x:
            if i == len(planes):
                planes.append(x)
                break
            planes[i], x = planes[i] ^ x, planes[i] & x
            i += 1
    if t >> len(planes):
        return 0
    # count >= t, comparing the planes with t from the top bit down
    above, equal = 0, universe
    for i in reversed(range(len(planes))):
        if t >> i & 1:
            equal &= planes[i]
        else:
            above |= equal & planes[i]
            equal &= ~planes[i]
    return above | equal


def _crossings(rays, masks, tight, vals, negs, alive, nv):
    """The new rays of a cut by nv . x <= 0, as a list of (ray, mask): the
    positive combination on nv . x = 0 of each adjacent pair (p, n), p a
    key of ``vals`` (which maps the slots beyond the cut to nv . r) and n
    in the bitmask ``negs``, below it, in order of p, then n, with the mask
    of the constraints tight at both.

    ``masks[i]`` is the bitmask of constraints tight at slot i, ``tight[j]``
    that of the slots tight at constraint j, and ``alive`` masks out the
    dead slots that ``tight`` still holds. In a pointed cone of dimension
    d, the candidates n share at least d - 2 of p's constraints, and p and
    n are adjacent iff the AND of ``tight`` over the shared ones is the
    pair alone (Fukuda & Prodon). A pair with a ray tight at exactly d - 1
    constraints skips that test: an extreme ray's tight constraints have
    rank d - 1, so these d - 1 are independent; the pair shares d - 2 of
    them (all d - 1 would put both on one ray), which cut out a 2-face, and
    a pointed 2-face has no third extreme ray.
    """
    d = len(nv)
    below, out = {}, []
    for p, vp in vals.items():
        mp, rp = masks[p], rays[p]
        cols = _bits(mp)
        simple = len(cols) == d - 1
        for n in _bits(_at_least([tight[j] for j in cols], d - 2, negs)):
            mn = masks[n]
            if not simple and mn.bit_count() != d - 1:
                pair = 1 << p | 1 << n
                common = alive
                for j in cols:
                    if mn >> j & 1:
                        common &= tight[j]
                        if common == pair:
                            break
                if common != pair:
                    continue
            vn = below.get(n)
            if vn is None:
                vn = below[n] = sum(map(operator.mul, nv, rays[n]))
            ray = [vp * xn - vn * xp for xp, xn in zip(rp, rays[n])]
            g = math.gcd(*ray)
            out.append((tuple([x // g for x in ray]) if g > 1 else tuple(ray),
                        mp & mn))
    return out


def _over_budget(step, m, n):
    """CapabilityError when n rays, held after constraint ``step`` of m,
    exceed ``RAY_BUDGET``."""
    if n > RAY_BUDGET:
        raise CapabilityError(
            f"double description exceeded the ray budget {RAY_BUDGET} "
            f"at constraint {step} of {m}: {n} rays")


def cone_rays(normals):
    """(rays, masks): the extreme rays of {x : n . x <= 0 for all n}, as
    primitive integer tuples, and per ray the bitmask of the normals tight
    at it, bit j for ``normals[j]``. A simplicial cone on the first d
    independent normals is cut by the others one at a time, in their
    order. Normals that do not span raise UnboundedBodyError: the cone has
    a lineality space."""
    d = len(normals[0])
    norm_int = [_primitive_int(nv) for nv in normals]
    idx, echelon = [], []
    for i, nv in enumerate(norm_int):
        if la.add_independent(echelon, nv):
            idx.append(i)
            if len(idx) == d:
                break
    if len(idx) < d:
        raise UnboundedBodyError("cone has a lineality space (not pointed)")
    inv = la.inverse([norm_int[i] for i in idx])
    # rays of the simplicial cone {x : M x <= 0}, M the chosen normals: the
    # columns of -M^{-1}; column c is tight at every row of M but row c,
    # the normal idx[c]
    rays = [_primitive_int([-row[c] for row in inv]) for c in range(d)]
    chosen = sum(1 << i for i in idx)
    masks = [chosen ^ 1 << i for i in idx]
    tight = {i: (1 << d) - 1 ^ 1 << c for c, i in enumerate(idx)}
    live, alive = list(range(d)), (1 << d) - 1
    rest = [(j, nv) for j, nv in enumerate(norm_int) if not chosen >> j & 1]
    for step, (j, nv) in enumerate(rest, d + 1):
        vals, zero = {}, 0
        for i in live:
            u = sum(map(operator.mul, nv, rays[i]))
            if u > 0:
                vals[i] = u
            elif not u:
                zero |= 1 << i
        beyond = list(vals)
        cut = sum(1 << i for i in beyond)
        bit, first = 1 << j, len(rays)
        for ray, both in _crossings(rays, masks, tight, vals,
                                    alive & ~(zero | cut), alive, nv):
            slot = 1 << len(rays)
            rays.append(ray)
            masks.append(both | bit)
            for c in _bits(both):
                tight[c] |= slot
        for i in beyond:
            rays[i] = None
        for i in _bits(zero):
            masks[i] |= bit
        new = (1 << len(rays)) - (1 << first)
        tight[j] = zero | new
        alive = alive & ~cut | new
        live = [i for i in live if rays[i]] + list(range(first, len(rays)))
        _over_budget(step, len(normals), len(live))
    return [rays[i] for i in live], [masks[i] for i in live]


def mirror_pairs(normals, d):
    """The rows (a, -b) of a centrally symmetric body in d dimensions, as
    primitive int normals, one per mirror pair, or None if the body is not
    given by such pairs: every primitive row (a, b) has its mirror (-a, b),
    every b > 0, and the a span. Repeated rows and rows with a = 0, which no
    vertex meets, are dropped. The pairs come in the order of their first
    rows, but with the first d independent a ahead of the rest."""
    rows = dict.fromkeys(map(_primitive_int, normals))
    rows.pop((0,) * d + (-1,), None)
    basis, rest, echelon, taken = [], [], [], set()
    for r in rows:
        mirror = _mirror(r)
        if r[-1] >= 0 or mirror not in rows:
            return None
        if mirror not in taken:
            taken.add(r)
            if len(basis) < d and la.add_independent(echelon, list(r[:-1])):
                basis.append(r)
            else:
                rest.append(r)
    return basis + rest if basis and len(basis) == d else None


def paired_rays(pairs, m):
    """(rays, masks): the rays (r, t), t > 0, of the homogenization cone
    {(x, t) : a . x <= b t} of a centrally symmetric body, given by its
    ``mirror_pairs``, and per ray the bitmask of the constraints tight at
    it; m is the row count of that cone, for the budget's message.

    Constraint 2j is pair j's row (a, -b) and 2j + 1 its mirror (-a, -b).
    The ray in slot 2k + 1 is the mirror (-r, t) of the ray in slot 2k, so
    its constraint mask is the other's with bits 2j and 2j + 1 swapped. The
    start is the parallelotope of the first d pairs, whose vertex
    s in {+1, -1}^d solves a_i . x = s_i b_i and is tight exactly at the
    rows s_i a_i. Each further pair is cut at once: the body is symmetric
    before the cut, so the edges that cross -a . x = b are the mirrors of
    those that cross a . x = b, and each new ray comes with its mirror. A
    ray and its mirror are never both beyond the pair's rows, nor both on
    them; with u = a . r - b t, the mirror has -u - 2 b t, so u is formed
    once per mirror pair.
    """
    d = len(pairs[0]) - 1
    _over_budget(2 * d, m, 1 << d)
    inv = la.inverse([r[:-1] for r in pairs[:d]])
    cols, den = la.integer_form([[-row[i] * pairs[i][-1] for row in inv]
                                 for i in range(d)])
    half = [(list(cols[0]), 1)]  # the vertices with s_0 = +1, and masks
    for i in range(1, d):
        half = [([x + s * y for x, y in zip(v, cols[i])],
                 mask | 1 << 2 * i + (s < 0))
                for v, mask in half for s in (1, -1)]
    rays, masks, tight = [], [], [0] * (2 * len(pairs))
    for v, mask in half:
        ray = _primitive(v + [den])
        rays += [ray, _mirror(ray)]
        masks += [mask, mask ^ (1 << 2 * d) - 1]
    for slot, mask in enumerate(masks):
        for c in _bits(mask):
            tight[c] |= 1 << slot
    live, alive = list(range(len(rays))), (1 << len(rays)) - 1
    even = int("01" * len(pairs), 2)  # the bits of the pairs' first rows
    for j in range(d, len(pairs)):
        nv, twob = pairs[j], -2 * pairs[j][-1]
        vals, zero = {}, 0
        for i in live[::2]:  # live holds the slots of a pair side by side
            u = sum(map(operator.mul, nv, rays[i]))
            if u < 0:
                i, u = i + 1, -u - twob * rays[i][-1]
            if u > 0:
                vals[i] = u
            elif not u:
                zero |= 1 << i
        beyond = list(vals)
        cut = sum(1 << i for i in beyond)
        bit, first = 1 << 2 * j, len(rays)
        for ray, both in _crossings(rays, masks, tight, vals,
                                    alive & ~(zero | cut), alive, nv):
            slot = 1 << len(rays)
            rays += [ray, _mirror(ray)]
            masks += [both | bit, (both & even) << 1 | both >> 1 & even
                      | bit << 1]
            for c in _bits(both):
                tight[c] |= slot
                tight[c ^ 1] |= slot << 1
        for i in beyond:
            rays[i] = rays[i ^ 1] = None
        mirrored = 0
        for i in _bits(zero):
            masks[i] |= bit
            masks[i ^ 1] |= bit << 1
            mirrored |= 1 << (i ^ 1)
        new = int("01" * ((len(rays) - first) // 2) or "0", 2) << first
        tight[2 * j], tight[2 * j + 1] = zero | new, mirrored | new << 1
        alive = alive & ~(cut | sum(1 << (i ^ 1) for i in beyond)) \
            | new | new << 1
        live = [i for i in live if rays[i]] + list(range(first, len(rays)))
        _over_budget(2 * j + 2, m, len(live))
    return [rays[i] for i in live], [masks[i] for i in live]


def vertex_rays(a_rows, b_vals):
    """(rays, masks, names): the vertices of {x : A x <= b} as the
    primitive integer rays (r, t) with t > 0 of the DD on the
    homogenization {(x, t) : A x - b t <= 0, -t <= 0}, in the order the DD
    leaves them; per vertex the bitmask of the constraints tight at it; and
    per bit j the constraint it names, the primitive int normal (a, -b) of
    a row a . x <= b. The vertex is r / t, and t is the lcm of its
    denominators. A body given by mirror pairs of rows (``mirror_pairs``)
    takes the paired driver, whose names are each pair's row and its
    mirror; any other takes the sequential one, whose names are the rows in
    their order and then -t <= 0. Either way every row of A x <= b with
    a != 0 is named. Raises if unbounded or empty."""
    d = len(a_rows[0]) if a_rows else 0
    normals = [list(row) + [-b] for row, b in zip(a_rows, b_vals)]
    normals.append([0] * d + [-1])
    pairs = mirror_pairs(normals[:-1], d)
    if pairs:
        return (*paired_rays(pairs, len(normals)),
                [r for p in pairs for r in (p, _mirror(p))])
    rays, masks = [], []
    for ray, mask in zip(*cone_rays(normals)):
        if ray[-1] > 0:
            rays.append(ray)
            masks.append(mask)
        elif ray[-1] == 0 and any(ray):
            raise UnboundedBodyError("polytope is unbounded")
    if not rays:
        raise InvalidInputError("empty polytope")
    # distinct primitive rays with t > 0 give distinct vertices
    return rays, masks, [_primitive_int(nv) for nv in normals]
