import ast
import collections
import dataclasses
import numbers
import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import latgeom
from latgeom import enumeration as enu
from latgeom import symmetry as sym
from latgeom._linalg import ClosedForm
from latgeom.errors import InvalidLatticeError
from latgeom.lattice import Lattice, catalog, dual

SRC = Path(latgeom.__file__).resolve().parent


def _unread_parameters(tree):
    """(line, function, parameter) for each parameter that its function's
    body never reads. The receiver of a method (the first parameter of one
    that is not static) and the ``args`` of the CLI's ``cmd_*`` handlers,
    which share one signature, are exempt."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)
               and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in f.decorator_list)}
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        a = f.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        if id(f) in methods:
            params = params[1:]
        name = getattr(f, "name", "<lambda>")
        if name.startswith("cmd_"):
            params = [p for p in params if p != "args"]
        body = f.body if isinstance(f.body, list) else [f.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(f.lineno, name, p) for p in params if p not in read]
    return out


def test_every_parameter_is_read():
    found = {path.name: _unread_parameters(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_an_unread_parameter_is_found():
    tree = ast.parse("def f(a, b):\n    return a\n"
                     "class C:\n    def m(self, x):\n        pass\n"
                     "    @staticmethod\n    def s(y):\n        pass\n")
    assert sorted(_unread_parameters(tree)) == [(1, "f", "b"), (4, "m", "x"),
                                                (7, "s", "y")]


def _dead_privates(trees):
    """(module, name) for each private top-level function or method (a name
    with one leading underscore, not a dunder) of the modules ``trees``,
    {module: tree}, that no code outside its own definition names, as a
    variable or as an attribute."""
    refs, defs = collections.Counter(), []

    def names(node):
        return [n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    for module, tree in trees.items():
        refs.update(names(tree))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            defs += [(module, f) for f in members
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and f.name.startswith("_") and not f.name.endswith("__")]
    return [(module, f.name) for module, f in defs
            if refs[f.name] == names(f).count(f.name)]


def test_every_private_helper_is_used():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert _dead_privates(trees) == []


def test_a_dead_private_helper_is_found():
    a = ast.parse("def _used():\n    return 1\n"
                  "def _dead(n):\n    return _dead(n - 1)\n"
                  "class C:\n    def _m(self):\n        return self\n"
                  "    def __len__(self):\n        return 0\n")
    b = ast.parse("from a import _used\nx = _used()\n")
    assert _dead_privates({"a": a, "b": b}) == [("a", "_dead"), ("a", "_m")]


# Imported but not read, on purpose: ``__init__`` re-exports its imports, and
# bench/tracer.py's REQUIRED_ALIASES checks that the tracer rebinds these
# three aliases, ``cli.lll_reduce``, ``impassability.vectors_within`` and
# ``sublattice.vectors_within``, so they must exist in the modules that
# import them.
UNREAD_IMPORTS = {"__init__.py": None, "cli.py": {"lll_reduce"},
                  "impassability.py": {"vectors_within"},
                  "sublattice.py": {"vectors_within"}}


def _unread_imports(tree):
    """(line, name) for each name an import binds that the module never
    reads; ``from __future__`` imports are exempt."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_every_import_is_read():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        exempt = UNREAD_IMPORTS.get(path.name, set())
        if exempt is None:
            continue
        bad = [(line, name)
               for line, name in _unread_imports(ast.parse(path.read_text()))
               if name not in exempt]
        if bad:
            found[path.name] = bad
    assert found == {}


def test_an_unread_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import sys as system\nfrom . import a, b as c\n"
                     "def f():\n    import json\n    return b, os, c\n")
    assert sorted(_unread_imports(tree)) == [(3, "system"), (4, "a"),
                                             (6, "json")]


def _function_imports(tree):
    """(line, function) for each import of a latgeom module inside a
    function: a relative import, or one of ``latgeom`` by name."""
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(f):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if not node.level else ["."]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n == "." or n.split(".")[0] == "latgeom" for n in names):
                out.append((node.lineno, f.name))
    return out


def test_no_module_imports_latgeom_inside_a_function():
    # a lazy import of sympy is fine; one of a latgeom module hides a cycle
    found = {path.name: _function_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_a_function_import_is_found():
    tree = ast.parse("def f():\n    import sympy\n    from . import a\n"
                     "def g():\n    import latgeom.cli\n"
                     "    from .lattice import b\n")
    assert _function_imports(tree) == [(3, "f"), (5, "g"), (6, "g")]


def test_polytope_does_not_load_enumeration():
    code = ("import sys, latgeom.polytope; "
            "print(sorted(m for m in sys.modules if m.startswith('latgeom')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert "'latgeom.enumeration'" not in out, out


def _relative_imports(tree):
    """The latgeom modules a module imports relatively: ``from .x import y``
    names x, and ``from . import x`` names x."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out |= {a.name for a in node.names}
    return out


def _cycle(graph):
    """One cycle of the directed graph {node: successors}, as a list of
    nodes that starts and ends at the same one, or None."""
    state, path = {}, []

    def visit(u):
        state[u] = "open"
        path.append(u)
        for v in sorted(graph.get(u, ())):
            if state.get(v) == "open":
                return path[path.index(v):] + [v]
            if v not in state:
                found = visit(v)
                if found:
                    return found
        state[u] = "done"
        path.pop()
        return None

    for u in sorted(graph):
        if u not in state:
            found = visit(u)
            if found:
                return found
    return None


def test_latgeom_imports_have_no_cycle():
    graph = {path.stem: _relative_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert graph["symmetry"] >= {"enumeration"}
    assert _cycle(graph) is None


def test_an_import_cycle_is_found():
    tree = ast.parse("from . import b\nfrom .c.d import e\n")
    assert _relative_imports(tree) == {"b", "c"}
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == [
        "a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


# The only functions that may import sympy: the hand-off of a ClosedForm to
# sympy, the bounds that are not closed forms (their rational powers and the
# sums of the planar bounds), and the cylinder floors whose n-th root is not
# a closed form. A new importer fails the test, so the list can only shrink.
SYMPY_IMPORTERS = {"_linalg.ClosedForm._sympy_", "bounds._sympy_power",
                   "bounds.max_d21_upper", "impassability.free_cylinder"}


def _sympy_importers(tree, module):
    """The dotted names (module, classes, functions) of the scopes in which
    an import of sympy stands; the module's own name for a top-level one."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                visit(child, scope)
                continue
            if any(n.split(".")[0] == "sympy" for n in names):
                out.add(".".join([module] + scope))

    visit(tree, [])
    return out


def test_only_the_listed_functions_import_sympy():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _sympy_importers(ast.parse(path.read_text()), path.stem)
    assert found == SYMPY_IMPORTERS


def test_a_sympy_import_is_found():
    tree = ast.parse("import sympy\nclass C:\n    def m(self):\n"
                     "        if self:\n            from sympy.core import S\n"
                     "def f():\n    import json\n"
                     "def g():\n    def h():\n        import sympy as sp\n")
    assert _sympy_importers(tree, "mod") == {"mod", "mod.C.m", "mod.g.h"}


# a module-level limit: a search budget, a cap (a rank, the denominator of
# a float read exactly) or the ellipsoid's iteration cap
_LIMIT = re.compile(r"\b(?:[A-Z_]+_BUDGET|MAX_[A-Z_]+|[A-Z_]+_ITERATIONS)\b")


def _int_value(node):
    """The int that a limit's expression of int literals, * and ** gives."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    ops = {ast.Mult: operator.mul, ast.Pow: operator.pow}
    assert isinstance(node, ast.BinOp) and type(node.op) in ops
    return ops[type(node.op)](_int_value(node.left), _int_value(node.right))


def _limits(tree):
    """{name: value} of the module-level limit constants that ``tree``
    binds."""
    return {t.id: _int_value(node.value) for node in tree.body
            if isinstance(node, ast.Assign) for t in node.targets
            if isinstance(t, ast.Name) and _LIMIT.fullmatch(t.id)}


# a limit named with its value in the README: `NAME` (10^6 ...), written
# as digits in groups of three or as a power
_NAMED = re.compile(r"`([A-Z_]+)` \((\d{1,3}(?:,\d{3})*)(?:\^(\d+))?\b")


def _named_values(text):
    """{name: value} of the limits that ``text`` names with a value."""
    return {name: int(base.replace(",", "")) ** int(exp or 1)
            for name, base, exp in _NAMED.findall(text)
            if _LIMIT.fullmatch(name)}


def test_the_readme_names_exactly_the_limits():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        found |= _limits(ast.parse(path.read_text()))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Guarantees and limits\n")[1].split("\n## ")[0]
    assert set(_LIMIT.findall(section)) == set(found)
    assert _named_values(section) == found


def test_a_limit_constant_is_found():
    tree = ast.parse("RAY_BUDGET = 1\nMAX_CELL_RANK = 2\nMVEE_ITERATIONS = 3\n"
                     "MAX_DENOMINATOR = 10**12\nSTEP_BUDGET = 2 * 10**5\n"
                     "LLL_DELTA = 4\ndef f():\n    NODE_BUDGET = 5\n")
    assert _limits(tree) == {"RAY_BUDGET": 1, "MAX_CELL_RANK": 2,
                             "MVEE_ITERATIONS": 3, "MAX_DENOMINATOR": 10**12,
                             "STEP_BUDGET": 200_000}


def test_a_limit_value_is_read():
    text = ("`POINT_BUDGET` (10^6 nodes), `RAY_BUDGET` (200,000 rays), "
            "`MAX_VORONOI_RANK` (8), `LLL_DELTA` (99/100), `NODE_BUDGET`")
    assert _named_values(text) == {"POINT_BUDGET": 10**6,
                                   "RAY_BUDGET": 200_000,
                                   "MAX_VORONOI_RANK": 8}


# the functions that take float roots of float geometry; an exact square
# root leaves through ``_linalg._sqrt_rational``, whose float is correctly
# rounded, where math.sqrt(float(q)) rounds q first
FLOAT_ROOTS = {"_linalg.float_cholesky", "impassability._ambient_plane",
               "lattice.Lattice.to_ambient", "polytope.Ellipsoid.volume"}


def _float_roots(tree, module):
    """The dotted names of the scopes (module, classes, functions) in which
    a call of math.sqrt stands."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            f = getattr(child, "func", None)
            if isinstance(child, ast.Call) and isinstance(f, ast.Attribute) \
                    and f.attr == "sqrt" and isinstance(f.value, ast.Name) \
                    and f.value.id == "math":
                out.add(".".join([module] + scope))
            visit(child, scope)

    visit(tree, [])
    return out


def test_only_the_float_geometry_takes_math_sqrt():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _float_roots(ast.parse(path.read_text()), path.stem)
    assert found == FLOAT_ROOTS


def test_a_float_root_is_found():
    tree = ast.parse("import math\nx = math.sqrt(2)\nclass C:\n"
                     "    def m(self):\n"
                     "        return [math.sqrt(y) for y in self]\n"
                     "def f(q):\n    return math.isqrt(q) + la.sqrt(q)\n"
                     "def g():\n    def h():\n"
                     "        return f(math.sqrt(3))\n")
    assert _float_roots(tree, "mod") == {"mod", "mod.C.m", "mod.g.h"}


# ---------------------------------------------------------------------------
# Memo entries are immutable values
# ---------------------------------------------------------------------------

def _mutable(value, where, seen):
    """The paths, below ``where``, of the parts of ``value`` that are not
    immutable values: None, a number, a str, a ClosedForm, a tuple or
    frozenset of such, or a frozen dataclass whose fields are such. The
    memo of each Lattice reached is walked too, once per value."""
    if value is None or isinstance(value, (numbers.Number, str, ClosedForm)):
        return []
    if isinstance(value, (tuple, frozenset)):
        return [w for i, x in enumerate(value)
                for w in _mutable(x, f"{where}[{i}]", seen)]
    if not dataclasses.is_dataclass(value) or \
            not value.__dataclass_params__.frozen:
        return [where]
    out = [w for f in dataclasses.fields(value)
           for w in _mutable(getattr(value, f.name), f"{where}.{f.name}",
                             seen)]
    if isinstance(value, Lattice) and id(value) not in seen:
        seen.add(id(value))
        out += [w for key, x in value._memo.items()
                for w in _mutable(x, f"{where}[{key!r}]", seen)]
    return out


def _random_lattice(n, seed):
    """A lattice from a random nonsingular n x n basis, entries -3..3."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        try:
            return Lattice.from_rows(rows)
        except InvalidLatticeError:
            pass


@pytest.mark.parametrize("make", [lambda: catalog("D", 4),
                                  lambda: _random_lattice(4, 0)],
                         ids=["D4", "random4"])
def test_memo_entries_are_immutable_values(make):
    # every invariant the CLI reports goes in the memo of its value, and
    # the memo hands each out to every later caller
    lat = make()
    enu.shortest_vectors(lat)
    enu.successive_minima(lat)
    enu.closest_vectors(lat, [Fraction(1, 3), Fraction(1, 2), 0, 2])
    assert enu.voronoi_cell(lat).volume() == sym.cell_volume(lat)
    enu.covering_radius(lat)
    sym.automorphisms(lat)
    dual(lat)
    assert {"reduced", "voronoi_cell", "covering_radius", "automorphisms",
            "dual_in_span"} <= set(lat._memo)
    assert _mutable(lat, "lat", set()) == []


def test_a_mutable_memo_entry_is_found():
    @dataclasses.dataclass
    class Open:
        x: int

    lat = Lattice.from_rows([[1, 0], [0, 2]])
    inner = Lattice.from_rows([[3]])
    lat._memo.update(ok=(1, "a", frozenset({Fraction(1, 2)})), rows=[1],
                     box=Open(1), pair=(0, {1: 2}), inner=inner)
    inner._memo.update(back=lat, open=(Open(2),))
    assert _mutable(lat, "lat", set()) == [
        "lat['rows']", "lat['box']", "lat['pair'][1]",
        "lat['inner']['open'][0]"]
