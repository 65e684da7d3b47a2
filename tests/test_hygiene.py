import ast
from pathlib import Path

import latgeom

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
