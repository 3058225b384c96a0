"""stlattice benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {search,pipeline} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  The run

1. times set-up: seven fresh interpreters, spread over the run, each
   import stlattice and build every basis the workload uses; ``setup_s``
   is their median;
2. runs one reference round on seed 0 and compares its outputs with
   ``references.json`` (this also warms caches);
3. runs timed rounds on inputs drawn from --seed, every round the same
   inputs, until --seconds have passed and at least the rounds that the
   metrics use are done, checking every output;
4. prints a readable report, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With --trace 0 the metrics are the end-to-end ones: set-up, the time of
the workload's timed calls scaled by a reference loop timed between them
(see metrics.end_to_end; the unscaled time is in the report), and peak
memory.  With
--trace 1 every campaign is also replayed through the public functions with
a span around each call, and the metrics are the per-layer ones; the layers
that the workload does not reach are measured on small probe calls.  Spans
and the full report are written to ``perfbench/out/``.  The digest of the
round's outputs is kept there too, so a later run with the same seed must
reproduce it byte for byte.

A hard limit stops a run that has not finished 150 s after it started: one
sphere-decoder trial can run for minutes (the decoder has no node budget).
The trial in flight is then reported as cut, with its replay coordinates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
HARD_LIMIT_S = 150.0
SETUP_SAMPLES = 7
WORKLOADS = ("search", "pipeline")

# One process generates the load; one BLAS thread keeps runs steady on a
# shared machine and never exceeds nproc.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(codes, samples: int) -> list:
    """Wall time of fresh interpreters that import stlattice and build the
    workload's bases, from process start to exit."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from stlattice import build; [build(n) for n in sys.argv[2:]]"
    )
    times = []
    for _ in range(samples):
        # No timeout here: with one, the wait polls in 50 ms steps.  The
        # run's hard limit still applies, and run() kills the child on it.
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(SRC), *codes],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return times


def _blas_threads() -> str:
    """Thread count of the loaded OpenBLAS, asked through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment() -> dict:
    import hashlib

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "stlattice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _on_alarm(signum, frame):
    from spans import Deadline

    raise Deadline()


def check_seen(workload: str, seed: int, digest: str, tally):
    """Equal seeds give equal bytes across runs: compare this run's output
    digest with the one an earlier run of the same seed left behind."""
    path = OUT / "seen" / f"{workload}-{seed}.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = None
    if seen is not None:
        tally.check(seen == digest, f"seed {seed} gave other outputs than in an earlier run")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digest))
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stlattice" / "__init__.py").is_file():
        print(f"error: no stlattice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stlattice

    if Path(stlattice.__file__).resolve().parent != SRC / "stlattice":
        print(f"error: imported stlattice from {stlattice.__file__}", file=sys.stderr)
        return 2

    import metrics
    import workloads as wl
    from spans import Deadline, NullTracer, Tracer

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(1.0, HARD_LIMIT_S - (perf_counter() - START)))

    codes = wl.CODES[args.workload]
    # Set-up samples are spread over the run, so that their median does not
    # rest on one slow stretch of a shared machine.
    setup_times = measure_setup(codes, 1)
    traced = bool(args.trace)
    tracer = Tracer() if traced else NullTracer()
    tally = wl.Tally()
    refs = json.loads((BENCH / "references.json").read_text())
    bases = {}
    for name in codes:
        for _ in range(5 if traced else 1):
            bases[name] = tracer.call("codebook.build", stlattice.build, name)
    warm = wl.Context(bases, NullTracer(), tally, refs)
    wl.reference_round(args.workload, warm)
    ctx = wl.Context(bases, tracer, tally, refs, sample_reference=not traced)

    digests, round_units, cut = [], [], None
    min_rounds = 1 if traced else wl.METRIC_ROUNDS[args.workload]
    t_start = perf_counter()
    try:
        while len(digests) < min_rounds or perf_counter() - t_start < args.seconds:
            ctx.progress = {"round": len(digests)}
            ctx.units = {}
            digests.append(wl.timed_round(args.workload, ctx, args.seed, traced))
            round_units.append(ctx.units)
            if len(setup_times) < SETUP_SAMPLES - 1:
                setup_times += measure_setup(codes, 1)
    except Deadline:
        cut = dict(ctx.progress)
    signal.setitimer(signal.ITIMER_REAL, 0)
    timed_s = perf_counter() - t_start
    setup_times += measure_setup(codes, max(1, SETUP_SAMPLES - len(setup_times)))
    for r, digest in enumerate(digests[1:], 1):
        if digest is not None:
            tally.check(digest == digests[0], f"round {r} gave other outputs than round 0")
    if digests:
        check_seen(args.workload, args.seed, digests[0], tally)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "rounds": len(digests), "timed_s": timed_s,
        "setup_samples_s": setup_times, "cut": cut,
    }
    if traced:
        values = metrics.per_layer(ctx, max(1, len(digests)))
        report["checks"] = metrics.checks(ctx)
        missing = [k for k, v in values.items() if v is None]
        if missing:
            probe = wl.Context(dict(bases), Tracer(), tally, refs)
            wl.probe_round(probe)
            probed = metrics.per_layer(probe, 1)
            values.update({k: probed[k] or 0.0 for k in missing})
            report["probed"] = missing
        units_of = metrics.PER_LAYER_UNITS
    else:
        values, units_of, raw = metrics.end_to_end(
            args.workload, setup_times, round_units, peak_rss_mb
        )
        report.update(raw)
        report.update(metrics.summary(args.workload, ctx, round_units))
        report["round_units"] = round_units
    report["worst_trials"] = metrics.worst_trials(ctx)
    report["metrics"] = values
    report["failures"] = tally.failures[:50]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str))
    if traced:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    metrics.print_report(report, units_of)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
