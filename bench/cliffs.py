"""Regenerate the ROADMAP Baseline cliff table, outside the gated workloads.

    python3 bench/cliffs.py [--cap SECONDS]

Each cliff runs in a fresh subprocess, killed when it exceeds the cap, so one
slow cliff cannot stall the table. A row reads the time in seconds or
"exceeded cap". Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cover_e8():
    from latgeom.enumeration import covering_radius
    from latgeom.lattice import catalog
    return covering_radius(catalog("E", 8))


def _max_clearance_d5():
    from latgeom.impassability import max_clearance
    from latgeom.lattice import catalog
    return max_clearance(catalog("D", 5).scaled(2), Fraction(1), 2)


def _dk_min_d6():
    from latgeom.lattice import catalog
    from latgeom.sublattice import dk_min
    return dk_min(catalog("D", 6), 3)


def _cli(*argv):
    def run():
        from latgeom.cli import run
        with contextlib.redirect_stdout(io.StringIO()):
            if run(list(argv)) != 0:
                raise RuntimeError(f"latgeom {' '.join(argv)} failed")
    return run


CLIFFS = {
    "covering_radius(E8)": _cover_e8,
    "max_clearance(D5*sqrt2, r=1, k=2)": _max_clearance_d5,
    "dk_min(D6, 3)": _dk_min_d6,
    "voronoi --catalog E7": _cli("voronoi", "--catalog", "E7"),
    "polytope --body cube:7": _cli("polytope", "--body", "cube:7"),
}


def time_one(name):
    sys.path.insert(0, str(ROOT / "src"))
    import latgeom  # noqa: F401  (import outside the timed region)
    t0 = time.perf_counter()
    CLIFFS[name]()
    print(time.perf_counter() - t0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cap", type=float, default=120.0,
                    help="seconds allowed per cliff (default 120)")
    ap.add_argument("--one", choices=sorted(CLIFFS), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        return time_one(args.one)
    print(f"| cliff | seconds (cap {args.cap:g} s) |")
    print("|---|---|")
    for name in CLIFFS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--one", name]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=args.cap)
        except subprocess.TimeoutExpired:
            cell = "exceeded cap"
        else:
            cell = (f"{float(proc.stdout.split()[-1]):.1f}" if proc.returncode == 0
                    else f"failed: {proc.stderr.strip().splitlines()[-1]}")
        print(f"| `{name}` | {cell} |", flush=True)


if __name__ == "__main__":
    main()
