"""opfdist benchmark: one command, two workloads, end-to-end metrics with
tracing off and per-layer metrics from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wine-grid --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The benchmark imports opfdist from the checkout's ``src/`` and times only
calls into its public functions from these files; nothing under ``src/``
is instrumented.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every output check
passed, 1 when a check failed (the result is still printed), 2 when the
benchmark could not run at all (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
WORKLOADS = ("wine-grid", "noise-fit")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_opfdist() -> None:
    """Import the package from this checkout's src/ (set-up times the
    import in fresh interpreters, see ``common.timed_import``)."""
    src = ROOT / "src"
    if not (src / "opfdist" / "__init__.py").is_file():
        raise RuntimeError(f"no opfdist package under {src}")
    sys.path.insert(0, str(src))
    import opfdist  # noqa: F401
    from opfdist import cli  # noqa: F401  (cli pulls in yaml)
    if Path(opfdist.__file__).resolve().parent != (src / "opfdist").resolve():
        raise RuntimeError(f"opfdist imported from {opfdist.__file__}, "
                           f"not from {src}")


def cache_size(index: int) -> str:
    """Size of cpu0's cache at sysfs ``index`` (2 = L2, 3 = L3)."""
    try:
        return Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size"
                    ).read_text().strip()
    except OSError:
        return "unknown"


def working_sets() -> dict[str, dict[str, int]]:
    """Computed (not measured) bytes of the largest structures per workload.

    A cached distance matrix is a list of n lists of n pointers; a
    symmetric measure stores each off-diagonal value as one float object
    shared by both halves.  A feature vector is a tuple of float objects.
    """
    import synthetic
    import wine

    def matrix(n):
        return n * n * 8 + n * (n - 1) // 2 * 24 + n * 56

    def vectors(n, d):
        return n * (40 + 8 * d + 24 * d)

    wine_train = 89
    return {
        "wine-grid": {"matrix_per_cell": matrix(wine_train),
                      "dataset": vectors(178, 13),
                      "cells_per_call": 47 * wine.RUNS * 2},
        "noise-fit": {"matrix": matrix(synthetic.N_TRAIN),
                      "train_vectors": vectors(synthetic.N_TRAIN, 50)},
    }


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "l2_cache": cache_size(2),
        "l3_cache": cache_size(3),
        "working_set_bytes_computed": working_sets(),
    }


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """name -> unit for the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_pids() -> list[int]:
    """Processes whose parent is this one, read from /proc."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """End and reap every process this run started, so none outlives it.

    A spawn pool starts multiprocessing's resource tracker, which would
    otherwise exit only after this process has, as an orphan.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.join(timeout=5)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's own arithmetic and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    import selftest
    from pace import NOMINAL_S, WINDOW_S, Pace
    problems = selftest.run()
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    if problems:
        return fail("self-tests of the benchmark failed")
    if args.selftest:
        print("selftest: ok")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    try:
        end_to_end, per_layer = declared_metrics()
        import_opfdist()
    except (OSError, ValueError, KeyError, RuntimeError, ImportError) as exc:
        return fail(str(exc))

    import common
    import synthetic
    import tracing
    import wine
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    runners = {
        ("wine-grid", 0): wine.untraced, ("wine-grid", 1): wine.traced,
        ("noise-fit", 0): synthetic.noise_untraced,
        ("noise-fit", 1): synthetic.noise_traced,
    }

    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = common.Context(root=ROOT, work=work, seed=args.seed,
                         seconds=args.seconds,
                         default_seed=args.seed == DEFAULT_SEED, pace=Pace())
    wall0 = time.perf_counter()
    try:
        measured, ledger, tracer = runners[(args.workload, args.trace)](
            ctx, expected[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - wall0
    if tracer is not None:
        trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_file)

    if args.trace:
        units = per_layer
        # Layers a workload does not exercise spend nothing there.
        unused = sorted(set(per_layer) - set(measured))
        measured = {name: measured.get(name, 0) for name in per_layer}
    else:
        units = end_to_end
        measured["peak_rss_mb"] = common.peak_rss_mb()
        unused = []
    unknown = set(measured) - set(units)
    if unknown or set(units) - set(measured):
        return fail(f"metrics disagree with BENCHMARK.json: "
                    f"{sorted(unknown ^ (set(units) - set(measured)))}")

    print(f"workload = {args.workload}  seed = {args.seed}  "
          f"trace = {args.trace}  wall_s = {wall:.3f}")
    print("env = " + json.dumps(environment(), sort_keys=True))
    if not args.trace:
        pace = ctx.pace
        print(f"pace = {pace.ratio:.4f} (median of {len(pace.slices)} "
              f"reference slices / nominal {NOMINAL_S} s; query latencies "
              f"are scaled by the slices run between them, other timings by "
              f"the slices within {WINDOW_S} s of them)")
    if tracer is not None:
        print(f"spans: {len(tracer.spans)} written to {trace_file}")
        own = tracing.self_time_by_name(tracer.spans)
        for name in sorted(own):
            print(f"  span {name:<36} total {tracer.total(name):10.4f} s"
                  f"  self {own[name]:10.4f} s")
    for name in units:
        print(f"  {name:<36} {measured[name]:>16.6g} {units[name]}")
    if unused:
        print("not exercised by this workload (reported as 0): "
              + " ".join(unused))
    print(f"  {'error_rate':<36} {ledger.error_rate:>16.6g} ratio"
          f"  ({ledger.failed} failed of {ledger.attempted} operations)")
    if ledger.digests:
        print("digests = " + json.dumps(ledger.digests, sort_keys=True))
    for m in ledger.mismatches:
        print(f"MISMATCH: {m}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": measured[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
