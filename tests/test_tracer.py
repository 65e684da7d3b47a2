"""The benchmark tracer must still install: it rebinds every latgeom alias
it requires (``cli.lll_reduce``, ``impassability.vectors_within``, ...), so
an import that looks unused in the library may be one the tracer needs."""

import importlib.util
from pathlib import Path

from latgeom import cli, enumeration, lattice
from latgeom.lattice import catalog

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_counts():
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        assert cli.lll_reduce._bench_traced
        tracer.active = True
        enumeration.shortest_vectors(catalog("D", 4))
        tracer.active = False
        summary = tracer.summary()
        assert summary["calls"]["enumeration.shortest_vectors"] == 1
        assert summary["calls"]["lattice.reduce"] == 1
        # one point per +- pair of D4's 24 minimal vectors
        assert summary["counts"]["enumeration.points"] == 12
    finally:
        tracer.uninstall()
    assert cli.lll_reduce is lattice.reduce is enumeration.lll_reduce
    assert not hasattr(lattice.reduce, "_bench_traced")


def test_one_reduce_span_per_value():
    # the reduction and its transform live in the value's memo, so a second
    # enumeration of the same value runs no LLL
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        tracer.active = True
        lat = catalog("D", 5)
        enumeration.shortest_vectors(lat)
        enumeration.vectors_within(lat, 4)
        tracer.active = False
        assert tracer.summary()["calls"]["lattice.reduce"] == 1
    finally:
        tracer.uninstall()
