"""latgeom benchmark: one workload per run, timed warm, outputs checked.

    python3 bench/run.py --workload {invariants,passage} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, single-process and single-threaded. Every run:

1. sets up ``SETUPS`` times (this process and fresh subprocesses): import,
   building the seeded inputs and goldens, and a warm-up on Z2 and cube:2,
   which no timed case uses. ``setup_s`` is the median.
2. times one pass over the case list, one case at a time; no case repeats
   verbatim, so a result cache cannot win by replaying an input.
3. runs the workload's known-defect rows, untimed and never gated.
4. checks every output against its reference, after all timing is done.

A run measures this fixed pass, not a fixed time: ``--seconds`` is accepted
for the command-line contract, and ``run_seconds`` in ``BENCHMARK.json`` is
about the length of a pass.

Times are reported in reference seconds. On shared hosts the CPU speed swings
by up to 2x over seconds to minutes, and it moves every case alike, so a raw
pass time differs by up to 30% between runs of the same code. ``RefClock``
therefore measures the host's speed while it times a block: it runs
``reference``, a fixed loop of exact Fraction elimination (the arithmetic
latgeom spends its time in), before and after the block and, from a SIGALRM
handler, every ``SAMPLE_EVERY_S`` inside it. The block's time, without the
handler's, is scaled by the mean sampled speed over the nominal one: a
reference second is a second on a host where the loop takes ``REF_S``.
Speeds, not durations, are averaged, because the work a block does is its
speed integrated over its time. Per-case rows give raw and reference seconds.

With ``--trace 0`` the last stdout line holds the end-to-end metrics named in
``BENCHMARK.json``. With ``--trace 1`` the pass runs untraced here and traced
in ``TRACED_RUNS`` fresh subprocesses; their call and work counts must agree
exactly, and the last line holds the per-layer metrics. Per-case rows go to
stdout and to ``.bench_out/``, together with the trace spans.

``--write-goldens`` rewrites ``goldens.json`` from the current code. Goldens
are the reference for later changes: regenerate them only on purpose.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
GOLDENS = BENCH / "goldens.json"
SETUPS = 3
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 150
REF_S = 0.03  # seconds for REF_REPS repetitions at the nominal host speed
REF_REPS = 25
SAMPLE_REPS = 2
SAMPLE_EVERY_S = 0.1

# Layers a workload must reach, checked in the traced run.
PRIMARY_LAYERS = {
    "invariants": ("cli", "lattice", "enumeration", "polytope"),
    "passage": ("cli", "lattice", "enumeration", "sublattice",
                "impassability", "bounds", "linalg"),
}


def reference(reps):
    """Seconds for a fixed workload: Fraction elimination of the 8x8 Hilbert
    matrix, ``reps`` times."""
    t0 = time.perf_counter()
    for _ in range(reps):
        m = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
        for c in range(8):
            for r in range(c + 1, 8):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return time.perf_counter() - t0


class RefClock:
    """Times blocks in reference seconds; see the module docstring."""

    def __init__(self):
        self.speeds: list[float] = []  # repetitions per second
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        reference(REF_REPS)  # warm the loop itself
        self.last = self._speed(REF_REPS)

    @staticmethod
    def _speed(reps):
        return reps / reference(reps)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.speeds.append(self._speed(SAMPLE_REPS))
        self.paused += time.perf_counter() - t0

    def run(self, fn, sample=True):
        """Call fn() once; returns (its result, seconds, reference seconds).
        With ``sample`` false the speed is taken only around the block, so
        no handler time lands inside it (for traced runs)."""
        self.speeds, self.paused = [self.last], 0.0
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        secs = time.perf_counter() - start - self.paused
        self.last = self._speed(REF_REPS)
        self.speeds.append(self.last)
        return out, secs, secs * statistics.fmean(self.speeds) * REF_S / REF_REPS


def setup(workload, seed):
    """Import latgeom from this checkout, build the inputs, load the goldens
    and warm up. Returns (Workload, goldens, RefClock, reference seconds of
    the setup)."""
    clock = RefClock()
    (wl, goldens), _, ref_s = clock.run(lambda: _setup(workload, seed))
    return wl, goldens, clock, ref_s


def _setup(workload, seed):
    src = ROOT / "src"
    if not (src / "latgeom" / "__init__.py").is_file():
        sys.exit(f"bench: no latgeom package under {src}")
    sys.path.insert(0, str(src))
    import latgeom
    if Path(latgeom.__file__).resolve().parent != src / "latgeom":
        sys.exit(f"bench: imported latgeom from {latgeom.__file__}, not {src}")
    import cases
    wl = cases.WORKLOADS[workload](seed)
    goldens = json.loads(GOLDENS.read_text())
    cases.warm_up()
    return wl, goldens


def child(role, args, index=0):
    """Run this script in a fresh process and return its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--index", str(index)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench: {role} subprocess failed with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_pass(wl, clock, tracer=None):
    """Time each case once. Returns ([(seconds, reference seconds, output)],
    pass in reference seconds)."""
    gc.collect()
    rows = []
    for i, case in enumerate(wl.cases):
        if tracer is not None:
            tracer.case_id, tracer.active = i, True
        out, secs, ref = clock.run(lambda: run_case(case), sample=tracer is None)
        if tracer is not None:
            tracer.active = False
        rows.append((secs, ref, out))
    return rows, math.fsum(ref for _, ref, _ in rows)


def run_case(case):
    try:
        return case.run()
    except Exception as exc:  # a raising case is a failed case
        return exc


def errors_of(case, out, goldens):
    import cases
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    try:
        errs = case.check(out)
    except Exception as exc:  # a malformed output fails its check
        return [f"check raised {type(exc).__name__}: {exc}"]
    if case.golden is not None:
        want = goldens.get(case.id)
        if want is None:
            errs.append("no golden output")
        elif not cases.matches_golden(case.golden(out), want):
            errs.append("output differs from the golden output")
    return errs


def report_rows(wl, rows, goldens):
    """Check every output; print one row per case; return the failed ids."""
    failed = []
    for case, (secs, ref, out) in zip(wl.cases, rows):
        errs = errors_of(case, out, goldens)
        if errs:
            failed.append(case.id)
        status = "ok" if not errs else "FAIL " + "; ".join(errs)
        print(f"case\t{case.id}\t{secs:.6f}\t{ref:.6f}\t{status}")
    return failed


def report_ungated(wl, goldens):
    """Run the known-defect rows untimed; print them; return how many fail."""
    failed = 0
    for case in wl.ungated:
        errs = errors_of(case, run_case(case), goldens)
        failed += bool(errs)
        print(f"ungated\t{case.id}\t{'ok' if not errs else 'FAIL ' + '; '.join(errs)}")
    return failed


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(correct, attempted, failed, values, kind):
    metrics = {}
    for m in spec()[kind]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------

def measure(args):
    wl, goldens, clock, setup_s = setup(args.workload, args.seed)
    setups = [setup_s] + [child("setup", args)["setup_s"]
                          for _ in range(SETUPS - 1)]
    rows, wall = timed_pass(wl, clock)
    rss = peak_rss_mb()
    report_ungated(wl, goldens)
    failed = report_rows(wl, rows, goldens)
    values = {"wall_ref_s": wall, "setup_s": statistics.median(setups),
              "peak_rss_mb": rss}
    save(args, "cases", {"cases": [[c.id, secs, ref] for c, (secs, ref, _)
                                   in zip(wl.cases, rows)],
                         "failed": failed, "setups_ref_s": setups,
                         "metrics": values})
    emit(not failed, len(rows), len(failed), values, "end_to_end")


def traced(args):
    """One traced pass in this fresh process; prints its trace summary."""
    from tracer import Tracer
    wl, goldens, clock, _ = setup(args.workload, args.seed)
    tracer = Tracer().install()
    rows, wall = timed_pass(wl, clock, tracer)
    tracer.uninstall()
    failed = [c.id for c, (_, _, out) in zip(wl.cases, rows)
              if errors_of(c, out, goldens)]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}-{args.index}.tsv.gz",
                 [c.id for c in wl.cases])
    print(json.dumps({"wall_ref_s": wall, "failed": failed,
                      **tracer.summary()}))


def measure_traced(args):
    wl, goldens, clock, _ = setup(args.workload, args.seed)
    rows, wall = timed_pass(wl, clock)
    ungated_failed = report_ungated(wl, goldens)
    failed = report_rows(wl, rows, goldens)
    runs = [child("traced", args, i) for i in range(TRACED_RUNS)]
    ok = not failed and not any(r["failed"] for r in runs)
    work = [{k: r[k] for k in ("calls", "counts", "cover_distinct", "spans")}
            for r in runs]
    if any(w != work[0] for w in work):
        print("bench: call and work counts differ between traced runs",
              file=sys.stderr)
        ok = False
    calls = runs[0]["calls"]
    layers_hit = {n.split(".", 1)[0].lstrip("_") for n in calls}
    missing = set(PRIMARY_LAYERS[args.workload]) - layers_hit
    if missing:
        print(f"bench: no calls recorded in {sorted(missing)}", file=sys.stderr)
        ok = False
    values = layer_values(runs, wall, ungated_failed)
    save(args, "trace", {"untraced_wall_ref_s": wall, "traced": runs,
                         "metrics": values})
    emit(ok, len(rows), len(failed), values, "per_layer")


def layer_values(runs, untraced_wall, ungated_failed):
    """Per-layer metrics named in BENCHMARK.json; times are the mean of the
    traced runs, counts are equal across them."""
    def self_s(key):
        return statistics.fmean(r["self_s"].get(key, 0.0) for r in runs)

    first = runs[0]
    calls, counts = first["calls"], first["counts"]
    values = {}
    for m in spec()["per_layer"]:
        name = m["name"]
        head, _, field = name.rpartition(".")
        span = "_" + head if head.startswith("linalg.") else head
        if name == "trace_overhead":
            v = statistics.fmean(r["wall_ref_s"] for r in runs) / untraced_wall
        elif name == "ungated_failed":
            v = ungated_failed
        elif name == "bounds.calls":
            v = sum(c for n, c in calls.items() if n.startswith("bounds."))
        elif field == "calls":
            v = calls.get(span, 0)
        elif field == "self_s":
            v = self_s(span if "." in head else head)
        elif field == "distinct_ratio":
            n = calls.get(span, 0)
            v = first["cover_distinct"] / n if n else 0.0
        else:
            v = counts.get(name, 0)
        values[name] = v
    return values


def save(args, kind, payload):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{kind}-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(payload, indent=1, default=str))


def write_goldens():
    setup("invariants", 0)
    import cases
    goldens = {}
    for build in cases.WORKLOADS.values():
        for case in build(0).cases:
            if case.golden is not None:
                goldens[case.id] = json.loads(json.dumps(case.golden(case.run())))
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} golden outputs to {GOLDENS}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("invariants", "passage"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "traced"), help=argparse.SUPPRESS)
    ap.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args()
    if args.write_goldens:
        return write_goldens()
    if args.workload is None:
        ap.error("--workload is required")
    if args.role == "setup":
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[3]}))
    elif args.role == "traced":
        traced(args)
    elif args.trace:
        measure_traced(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
