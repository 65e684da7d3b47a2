"""Out-of-program tracing for the benchmark.

``Tracer.install`` replaces the public functions of each latgeom layer (and
the public methods of ``Lattice`` and ``Polytope``) with wrappers that record
one span per call: name, start, end, parent span and case id. Every alias of a
wrapped function in any latgeom module is rebound too (``cli.lll_reduce``,
``impassability.covering_radius``, ``sublattice.vectors_within``, ...), so
calls that cross a layer boundary are caught. Spans are kept in flat arrays
and written out once, at the end of the run.

A few private kernels get counting hooks without a span, so that work counts
(enumerated points, validation points) are measured where the work happens
without splitting the self time of the public function that called them.
"""

from __future__ import annotations

import array
import collections
import gzip
import importlib
import inspect
import time

LAYERS = ("lattice", "enumeration", "sublattice", "polytope", "bounds",
          "impassability", "cli", "_linalg")

# Helpers too small to trace without the wrapper costing more than the call.
UNTRACED = {"_linalg": {"dot", "vec_mat", "mat_vec", "transpose", "identity"}}
# Only the entry point of the CLI is a span: its self time is argument
# parsing, verb glue and JSON emission.
ONLY = {"cli": {"run"}}
METHODS = {"lattice": "Lattice", "polytope": "Polytope"}

# Aliases the tracer must reach; checked after install.
REQUIRED_ALIASES = (
    ("impassability", "covering_radius"), ("impassability", "shortest_vectors"),
    ("impassability", "vectors_within"), ("sublattice", "vectors_within"),
    ("sublattice", "successive_minima"), ("enumeration", "lll_reduce"),
    ("cli", "lll_reduce"),
)


def layer_of(span_name: str) -> str:
    """Metric prefix of a span name: ``_linalg`` is reported as ``linalg``."""
    return span_name.split(".", 1)[0].lstrip("_")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.case = array.array("i")
        self.counts = collections.Counter()
        self.cover_inputs: set = set()
        self.active = False
        self.case_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._posts = {"sublattice.enumerate_sublattices": self._witnesses,
                       "polytope.triangulation": self._simplices,
                       "enumeration.covering_radius": self._cover_input}

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"latgeom.{name}")
                for name in LAYERS}
        self.gram_of = vars(mods["lattice"].Lattice)["gram"]
        originals = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not self._traceable(layer, mod, attr, obj):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                originals[id(obj)] = (obj, wrapper)
            cls_name = METHODS.get(layer)
            if cls_name:
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    self._set(cls, attr, self._wrap(f"{layer}.{attr}", obj))
        enu, imp = mods["enumeration"], mods["impassability"]
        for mod, attr, counter in (
                (enu, "_enumerate_gram", "enumeration.points"),
                (imp, "_validate_certificate",
                 "impassability.validation_points")):
            obj = getattr(mod, attr)
            originals[id(obj)] = (obj, self._count(counter, obj))
        # rebind the wrapped object under every name any latgeom module uses
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for layer, attr in REQUIRED_ALIASES:
            if not getattr(getattr(mods[layer], attr), "_bench_traced", False):
                raise RuntimeError(f"tracer missed alias {layer}.{attr}")
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    @staticmethod
    def _traceable(layer, mod, attr, obj):
        if attr.startswith("_") or attr in UNTRACED.get(layer, ()):
            return False
        if layer in ONLY and attr not in ONLY[layer]:
            return False
        if inspect.isclass(obj) or not callable(obj):
            return False
        return getattr(obj, "__module__", None) == mod.__name__

    def _set(self, owner, attr, obj):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, obj)

    # -- recording -----------------------------------------------------------

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn):
        nid = self._intern(name)
        post = self._posts.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.case.append(tracer.case_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(args, out)
            return out

        wrapper._bench_traced = True
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count(self, counter, fn):
        tracer = self

        def hook(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.active:
                tracer.counts[counter] += out if isinstance(out, int) else len(out)
            return out

        hook._bench_traced = True
        return hook

    def _witnesses(self, args, out):
        self.counts["sublattice.witnesses"] += len(out)

    def _simplices(self, args, out):
        self.counts["polytope.simplices"] += len(out)

    def _cover_input(self, args, out):
        # the exact Gram identifies the input; read through the unwrapped
        # method so the key costs no span
        gram = self.gram_of(args[0])
        self.cover_inputs.add(tuple(tuple(row) for row in gram))

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self seconds per span name and per layer, plus the
        work counts."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = collections.Counter()
        self_s = collections.Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            own = self.end[i] - self.start[i] - child[i]
            calls[name] += 1
            self_s[name] += own
            self_s[layer_of(name)] += own
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts),
                "cover_distinct": len(self.cover_inputs), "spans": n}

    def write(self, path, case_ids):
        """Gzipped tab-separated spans: index, name, start, end, parent span,
        case index; the case ids head the file as comments."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.writelines(f"# case {i}\t{c}\n" for i, c in enumerate(case_ids))
            fh.write("span\tname\tstart\tend\tparent\tcase\n")
            names, nid = self.names, self.name_id
            start, end, parent, case = self.start, self.end, self.parent, self.case
            fh.writelines(f"{i}\t{names[nid[i]]}\t{start[i]:.9f}\t{end[i]:.9f}\t"
                          f"{parent[i]}\t{case[i]}\n" for i in range(len(start)))
