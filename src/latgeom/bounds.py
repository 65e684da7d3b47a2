"""Constants catalog (optimal ball packing/covering densities) and the
closed-form density bound evaluators: sublattice-determinant constants,
impassability lower bounds, body-minima chains, the comparison tables, and
volume-product floors.

The bounds are computed as ``_linalg.ClosedForm`` values: q prod p^(e_p)
pi^b with rational q, e_p and b, closed under products, quotients and
rational powers, and compared exactly. So ``dnk_lower`` and
``min_dnk_over_bodies`` choose their formula by an exact comparison, and a
report keeps its exact value (``monomial``) for the next choice. A value in
the square-root case q sqrt(r) pi^j is reported as itself, with no sympy.
Any other value is reported as the sympy expression that its formula's own
sympy steps build, which fix how sympy prints it; sympy is imported for
those only, and for the legacy sum and the 0.8926 literal of
``max_d21_upper``. Floats are derived from the exact values. The one
genuinely algebraic constant (the planar packing bound of 0.8926) is stored
as a float literal lower bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import _linalg as la
from ._linalg import kappa
from .enumeration import covering_density, packing_density
from .errors import InvalidInputError, MissingConstantError, PolarUndefinedError
from .lattice import catalog


@dataclass(frozen=True)
class ConstantEntry:
    name: str
    n: int
    value_exact: object  # ClosedForm or sympy expression
    source: str  # "derived-by-oracle" | "external-catalog"
    notes: str = ""


@dataclass(frozen=True)
class BoundReport:
    formula_id: str
    n: int
    k: int | None
    value_exact: object  # ClosedForm, sympy expression or None
    value_float: float
    inputs: tuple = ()
    strictness: str = "lower-bound"  # equality | lower-bound | upper-bound | strict-lower-bound
    notes: str = ""
    # the exact value as a ClosedForm, also where value_exact is sympy's,
    # which decides every choice between bounds; None for a sympy value
    monomial: object = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "formula_id": self.formula_id,
            "n": self.n,
            "k": self.k,
            "value_exact": str(self.value_exact) if self.value_exact is not None else None,
            "value_float": self.value_float,
            "inputs": [{"name": c.name, "n": c.n, "value": str(c.value_exact),
                        "source": c.source} for c in self.inputs],
            "strictness": self.strictness,
            "notes": self.notes,
        }


def _report(formula_id, n, k, exact, inputs=(), strictness="lower-bound",
            notes="", build=None):
    """The report of an exact value, a ClosedForm or a sympy value. A
    ClosedForm outside the square-root case leaves as the sympy expression
    ``build()``, by the formula's own sympy steps, where there is one."""
    monomial = exact if isinstance(exact, la.ClosedForm) else None
    if build is not None and exact.root() is None:
        exact = build()
    return BoundReport(formula_id, n, k, exact, float(exact), tuple(inputs),
                       strictness, notes, monomial)


def _sympy_power(x, k, n):
    """x ** (k/n) in sympy, for a value that is not a closed form."""
    import sympy
    return x ** sympy.Rational(k, n)


# ---------------------------------------------------------------------------
# Constants: optimal lattice packing and covering densities for balls
# ---------------------------------------------------------------------------

_DELTA_LATTICES = {1: ("Z", 1), 2: ("A", 2), 3: ("D", 3), 4: ("D", 4),
                   5: ("D", 5), 6: ("E", 6), 7: ("E", 7), 8: ("E", 8)}

TAMMELA_D21_FLOOR = 0.8926  # planar lattice packing bound, literal


def has_delta(n: int) -> bool:
    """Whether the optimal lattice packing density of the n-ball is known:
    the one rule ``delta_ball`` follows."""
    return n in _DELTA_LATTICES or n == 24


def has_theta(n: int) -> bool:
    """Whether the optimal lattice covering density of the n-ball is known:
    the one rule ``theta_ball`` follows."""
    return 1 <= n <= 5


@functools.lru_cache(maxsize=None)
def delta_ball(n: int) -> ConstantEntry:
    """Optimal lattice packing density of the n-ball; n <= 8 computed from
    the catalog optimizers, n = 24 taken from the external catalog."""
    if not has_delta(n):
        raise MissingConstantError(
            f"optimal ball packing density unknown for n={n}")
    if n == 24:
        # Leech: minimum norm 2, determinant 1, so density = kappa_24
        return ConstantEntry("delta_ball_24", 24, kappa(24), "external-catalog",
                             "Leech lattice, optimality from the literature")
    name, dim = _DELTA_LATTICES[n]
    value = packing_density(catalog(name, dim))
    return ConstantEntry(f"delta_ball_{n}", n, value, "derived-by-oracle",
                         f"packing density of the {name}{dim} lattice")


@functools.lru_cache(maxsize=None)
def theta_ball(n: int) -> ConstantEntry:
    """Optimal lattice covering density of the n-ball, n <= 5, from the
    body-centered family of catalog lattices."""
    if not has_theta(n):
        raise MissingConstantError(
            f"optimal ball covering density unknown for n={n}")
    value = covering_density(catalog("Astar", n))
    return ConstantEntry(f"theta_ball_{n}", n, value,
                         "derived-by-oracle",
                         f"covering density of the A{n}* lattice")


def constants(n: int) -> dict:
    out = {}
    if has_delta(n):
        out["delta"] = delta_ball(n)
    if has_theta(n):
        out["theta"] = theta_ball(n)
    if not out:
        raise MissingConstantError(f"no cataloged ball constants for n={n}")
    return out


# ---------------------------------------------------------------------------
# Sublattice determinant constant c_{n,k}
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _cnk(n: int, k: int):
    """2^k (delta / kappa_n)^{k/n} as a ClosedForm."""
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"need 1 <= k <= n - 1; got n={n}, k={k}")
    return 2 ** k * (delta_ball(n).value_exact / kappa(n)) ** Fraction(k, n)


@functools.lru_cache(maxsize=None)
def cnk_upper(n: int, k: int) -> BoundReport:
    """Upper bound 2^k (delta / kappa_n)^{k/n} on the minimal-sublattice
    determinant constant; exact equality when k = 1."""
    strict = "equality" if k == 1 else "upper-bound"
    return _report("cnk-upper", n, k, _cnk(n, k), (delta_ball(n),), strict,
                   "density bound on D_k(L)/D(L)^{k/n}; tight for k=1")


# ---------------------------------------------------------------------------
# Impassability lower bounds for balls
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def dnn1_ball(n: int) -> BoundReport:
    """Exact hyperplane-impassability threshold for balls:
    d_{n,n-1} = kappa_n^2 / (4^n delta)."""
    delta = delta_ball(n)
    value = kappa(n) ** 2 / (4 ** n * delta.value_exact)
    return _report("dnn1-ball", n, n - 1, value, (delta,), "equality",
                   "density threshold below which some hyperplane misses all balls")


@functools.lru_cache(maxsize=None)
def dnk_chain(n: int, k: int) -> BoundReport:
    """Covering-based lower bound on d_{n,k} for balls:
    kappa_n * (theta_{n-k} / (kappa_{n-k} c_{n,k}))^{n/(n-k)}."""
    c = _cnk(n, k)  # first, as it checks 1 <= k <= n - 1
    theta, delta = theta_ball(n - k), delta_ball(n)
    value = kappa(n) * (theta.value_exact / (kappa(n - k) * c)) \
        ** Fraction(n, n - k)
    if n == 2 and k == 1:
        strict = "equality"
    elif k >= 2 or (k == 1 and 3 <= n <= 6):
        strict = "strict-lower-bound"
    else:
        strict = "lower-bound"
    return _report("dnk-chain", n, k, value, (theta, delta), strict,
                   "projected lattice must fail to cover the orthocomplement",
                   lambda: kappa(n) * _sympy_power(
                       theta.value_exact / (kappa(n - k) * c), n, n - k))


@functools.lru_cache(maxsize=None)
def dnk_lower(n: int, k: int) -> BoundReport:
    """Best available lower bound on d_{n,k} for balls: the larger of the
    covering chain and the hyperplane threshold (monotonicity in k)."""
    chain = dnk_chain(n, k)  # needs delta_n, so dnn1_ball(n) exists
    floor = dnn1_ball(n)
    if floor.monomial > chain.monomial:
        return replace(floor, formula_id="dnk-lower", k=k,
                       strictness="equality" if k == n - 1 else "lower-bound",
                       notes="hyperplane threshold dominates the covering chain")
    return replace(chain, formula_id="dnk-lower")


@functools.lru_cache(maxsize=None)
def dnk_known(n: int, k: int) -> BoundReport:
    """Exact value of d_{n,k} for balls where one is known: the hyperplane
    case k = n-1 (for cataloged packing densities) and the proved line case
    d_{3,1} = 9 pi / 32."""
    if k == n - 1 and has_delta(n):
        return replace(dnn1_ball(n), formula_id="dnk-known")
    if (n, k) == (3, 1):
        entry = ConstantEntry("d_3_1", 3, la.ClosedForm(Fraction(9, 32), b=1),
                              "external-catalog",
                              "proved sharp line-impassability threshold")
        return _report("dnk-known", 3, 1, entry.value_exact, (entry,),
                       "equality",
                       "attained by the densest 3-dimensional packing")
    raise MissingConstantError(f"d_({n},{k}) for balls is not known exactly")


def dnn1_body(body, delta_polar) -> BoundReport:
    """Hyperplane threshold for a general convex body through the polytope
    pipeline: V(K) V(((K-K)/2)*) / (4^n delta_polar), where delta_polar is
    the optimal lattice packing density of the polar of the symmetrized body
    (supplied by the caller; 1 for space fillers)."""
    n = body.dim
    diff = body.difference_body()
    if not diff.contains([0] * n, strict=True):
        raise PolarUndefinedError("difference body must have 0 interior")
    value = body.volume() * diff.polar().volume() / \
        (4 ** n * la._exact(delta_polar))
    return _report("dnn1-body", n, n - 1, value, (), "equality",
                   "exact when delta_polar is the true packing density")


# ---------------------------------------------------------------------------
# Minima over bodies (comparison chains and tables)
# ---------------------------------------------------------------------------

def _body_min_denominator(n: int, symmetric: bool):
    if symmetric:
        return kappa(n) * math.factorial(n) / 2 ** n
    return kappa(n) * math.factorial(n) \
        * la._sqrt_rational(Fraction(n ** n, (n + 1) ** (n + 1)))


@functools.lru_cache(maxsize=None)
def body_min_floor(n: int) -> BoundReport:
    """Universal floor kappa_n^2 / (C(2n, n) 4^n) on min_K d_{n,k}(K),
    via d_{n,k}(K) >= d_{n,n-1}(K) and the volume-product floor."""
    value = kappa(n) ** 2 / (math.comb(2 * n, n) * 4 ** n)
    return _report("body-min-floor", n, None, value, (), "strict-lower-bound",
                   "volume-product floor, any k")


@functools.lru_cache(maxsize=None)
def body_min_chain(n: int, k: int, symmetric: bool) -> BoundReport:
    """First-inequality lower bound on min over convex bodies K of
    d_{n,k}(K): the ball value divided by the extremal volume ratio of the
    enclosing ellipsoid (simplex for general bodies, cross-polytope for
    centrally symmetric ones)."""
    ball = dnn1_ball(n) if k == n - 1 else dnk_lower(n, k)
    denominator = _body_min_denominator(n, symmetric)
    fid = "body-min-symmetric" if symmetric else "body-min-general"
    return _report(fid, n, k, ball.monomial / denominator, ball.inputs,
                   "lower-bound",
                   "ball bound divided by the extremal volume ratio",
                   lambda: ball.value_exact / denominator)


@functools.lru_cache(maxsize=None)
def min_dnk_over_bodies(n: int, k: int, symmetric: bool) -> BoundReport:
    """Best lower bound on min over convex bodies K of d_{n,k}(K): the
    larger of the ellipsoid chain and the universal volume-product floor
    (the floor wins for large n, e.g. n = 24)."""
    report = body_min_chain(n, k, symmetric)
    floor = body_min_floor(n)
    if floor.monomial > report.monomial:
        return replace(floor, formula_id=report.formula_id, k=k)
    return report


_TABLE_DIMS = (3, 4, 5, 6, 7, 8, 24)

# printed reference values (4 significant digits as published); entries where
# exact arithmetic disagrees in the last digit carry a discrepancy flag
_PRINTED_GENERAL_CHAIN = {3: "0.04538", 4: "0.004548", 5: "0.0003558",
                          6: "0.00001974", 7: "0.0000008751",
                          8: "0.00000002909", 24: "4.673e-38"}
_PRINTED_SYMMETRIC_CHAIN = {3: "0.1179", 4: "0.02083", 5: "0.002947",
                            6: "0.0003007", 7: "0.00002482",
                            8: "0.000001550", 24: "9.607e-32"}
_PRINTED_GENERAL_CONJ = {3: "0.08335", 4: "0.01302", 5: "0.001562",
                         6: "0.0001519", 7: "0.00001240",
                         8: "0.0000008717", 24: "2.402e-30"}
_PRINTED_SYMMETRIC_CONJ = {3: "0.1667", 4: "0.04167", 5: "0.008333",
                           6: "0.001389", 7: "0.0001984",
                           8: "0.00002480", 24: "1.612e-24"}
# rows where the published 4-digit rounding does not match exact arithmetic
PRINT_DISCREPANCIES = {("chain-general", 3), ("chain-general", 4),
                       ("chain-general", 7), ("chain-symmetric", 5),
                       ("chain-symmetric", 7),
                       ("conjecture-general", 3), ("conjecture-general", 8)}


def conjectured_min_dnn1(n: int, symmetric: bool):
    """Conjectured exact minima of d_{n,n-1}(K) over bodies: (n+1)/(2^n n!)
    in general (simplex), 1/n! centrally symmetric (cross-polytope)."""
    if symmetric:
        return la.ClosedForm(Fraction(1, math.factorial(n)))
    return la.ClosedForm(Fraction(n + 1, 2 ** n * math.factorial(n)))


def remark321_table() -> dict:
    """The four comparison rows over n = 3..8, 24 (k = n-1): proved chain
    values and conjectured minima, general and centrally symmetric, with the
    published 4-digit reference strings and discrepancy flags."""
    rows = {"chain-general": [], "chain-symmetric": [],
            "conjecture-general": [], "conjecture-symmetric": []}
    for n in _TABLE_DIMS:
        cg = body_min_chain(n, n - 1, symmetric=False)
        cs = body_min_chain(n, n - 1, symmetric=True)
        for key, rep, printed in (
                ("chain-general", cg, _PRINTED_GENERAL_CHAIN[n]),
                ("chain-symmetric", cs, _PRINTED_SYMMETRIC_CHAIN[n])):
            rows[key].append({"n": n, "report": rep, "printed": printed,
                              "discrepancy": (key, n) in PRINT_DISCREPANCIES})
        for key, sym, printed in (
                ("conjecture-general", False, _PRINTED_GENERAL_CONJ[n]),
                ("conjecture-symmetric", True, _PRINTED_SYMMETRIC_CONJ[n])):
            value = conjectured_min_dnn1(n, sym)
            rep = _report(key, n, n - 1, value, (), "equality",
                          "conjectured minimum (simplex / cross-polytope)")
            rows[key].append({"n": n, "report": rep, "printed": printed,
                              "discrepancy": (key, n) in PRINT_DISCREPANCIES})
    return rows


# ---------------------------------------------------------------------------
# Planar maximum and volume-product floors
# ---------------------------------------------------------------------------

def max_d21_upper() -> tuple:
    """Bounds on max over planar convex bodies of d_{2,1}(K): the proved
    upper bound pi^2/(16 * 0.8926), the older upper bound
    pi^2/[4(3 sqrt2 + sqrt3 - sqrt6)], and the conjectured maximum
    sqrt3 pi / 8 (disk)."""
    import sympy as sp
    tammela = ConstantEntry("planar_packing_floor", 2, sp.Float(TAMMELA_D21_FLOOR),
                            "external-catalog",
                            "algebraic constant kept as a 4-digit literal")
    proved = BoundReport("max-d21-upper", 2, 1, None,
                         math.pi ** 2 / (16 * TAMMELA_D21_FLOOR), (tammela,),
                         "upper-bound", "via the planar packing floor")
    legacy = _report("max-d21-legacy", 2, 1,
                     sp.pi ** 2 / (3 * sp.sqrt(2) + sp.sqrt(3) - sp.sqrt(6)) / 4,
                     (), "upper-bound", "older proved upper bound")
    disk = la._sqrt_rational(3) * la.ClosedForm(Fraction(1, 8), b=1)
    conjecture = _report("max-d21-conjecture", 2, 1, disk, (), "equality",
                         "conjectured maximum, attained by a disk")
    return proved, legacy, conjecture


def mahler_floors(n: int) -> tuple:
    """Volume-product floors: V(K)V(K*) > kappa_n^2/2^n for 0-symmetric K;
    the induced d_{n,n-1} floors kappa_n^2/8^n (symmetric) and
    kappa_n^2 / (C(2n,n) 4^n) (general, ``body_min_floor``). Needs n >= 1."""
    if n < 1:
        raise InvalidInputError(f"need n >= 1; got n={n}")
    kuperberg = _report("volume-product-floor", n, None,
                        kappa(n) ** 2 / 2 ** n, (), "strict-lower-bound",
                        "0-symmetric volume product floor")
    sym = _report("dfloor-symmetric", n, n - 1, kappa(n) ** 2 / 8 ** n, (),
                  "strict-lower-bound", "hyperplane floor, 0-symmetric bodies")
    gen = _report("dfloor-general", n, n - 1, body_min_floor(n).value_exact,
                  (), "lower-bound", "hyperplane floor, general bodies")
    return kuperberg, sym, gen
