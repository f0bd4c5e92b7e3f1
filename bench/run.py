"""Benchmark of the zonoehrhart library: one workload, one process, one thread.

    python3 bench/run.py --workload formula-fresh --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The load is a closed loop with a single caller: each item starts
after the previous one and its check have finished.  Items run for
``--seconds`` seconds and at least ``MIN_ITEMS`` items.  Each item is
checked, untimed, right after it runs; a failed check or an exception counts
the item as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics, from times calibrated against
a fixed reference slice of work (see ``calibrate.py``).  ``--trace 1`` runs
the same items with spans around every call into a layer and reports the
per-layer metrics; in the first quarter of the run it repeats each item
without spans on a second copy of the package, to measure the tracing
overhead.  Every metric is printed as ``name value unit``, a record with
the environment goes to ``bench/out/``, and the last line of standard output
is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from calibrate import calibrate, reference_time  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ITEMS = 100          # so that at least 10 samples lie beyond p90
SETUP_REPEATS = 11       # set-up is measured this many times; the median is reported
HARD_STOP_S = 150.0      # stop a run this long even short of MIN_ITEMS

# Items and set-up are timed in CPU time of this process.  The library is
# single-threaded and never waits, so on an idle machine this equals wall
# time; on a shared one it leaves out the time other tenants hold the core.
clock = time.process_time


def import_library():
    """Import ``zonoehrhart`` afresh, so that every cache in it starts empty."""
    for name in [m for m in sys.modules if m == "zonoehrhart" or m.startswith("zonoehrhart.")]:
        del sys.modules[name]
    return importlib.import_module("zonoehrhart"), importlib.import_module("zonoehrhart.cli")


class Inputs:
    """The workload's item stream, drawn on demand and kept for re-use."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.workdir = workdir
        self.stream = workload.items(seed)
        self.items, self.args = [], []

    def get(self, i):
        while len(self.items) <= i:
            item = next(self.stream)
            self.items.append(item)
            self.args.append(self.workload.materialize(item, self.workdir))
        return self.items[i], self.args[i]


def set_up(workload, seed, workdir):
    """Import, generate the first MIN_ITEMS inputs, write them, run the warm-up item."""
    start = clock()
    lib, cli = import_library()
    inputs = Inputs(workload, seed, workdir)
    inputs.get(MIN_ITEMS - 1)
    warm = workload.materialize(workload.warmup, workdir)
    workload.run(lib, cli, warm)
    return clock() - start, lib, cli, inputs


def box_table_cache(lib):
    """(hits, misses) of the cache on ``default_box_table``; (0, 0) without one."""
    info = getattr(lib.default_box_table, "cache_info", None)
    if info is None:
        return 0, 0
    info = info()
    return info.hits, info.misses


@dataclass
class Measurement:
    times: list = field(default_factory=list)     # CPU seconds per item
    refs: list = field(default_factory=list)      # reference time after each item
    failures: list = field(default_factory=list)
    hits: int = 0                                  # box-table cache traffic in items
    misses: int = 0
    pairs: list = field(default_factory=list)     # (traced, untraced) item times


def measure(workload, lib, cli, inputs, seconds, tracer=None, stats=None, shadow=None):
    """Run items in a closed loop for ``seconds`` and at least MIN_ITEMS items.

    With a tracer, items run with spans.  With a ``shadow`` (lib, cli) pair
    as well, each item of the first quarter of the run is repeated untraced
    on that second, separately imported copy of the package.
    """
    m = Measurement()
    loop_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - loop_start
        if (elapsed >= seconds and i >= MIN_ITEMS) or elapsed >= HARD_STOP_S:
            break
        item, args = inputs.get(i)
        before = box_table_cache(lib)
        result, error = None, None
        t0 = clock()
        try:
            if tracer is None:
                result = workload.run(lib, cli, args)
            else:
                tracer.item_id = i
                with tracer.span("item"):
                    result = workload.run_traced(lib, cli, args, tracer, stats)
        except Exception as exc:  # a raised error fails the item, not the run
            error = exc
        t1 = clock()
        after = box_table_cache(lib)
        m.hits += after[0] - before[0]
        m.misses += after[1] - before[1]
        m.times.append(t1 - t0)
        if error is None:
            try:
                ok = workload.check(lib, cli, item, result)
            except Exception as exc:
                ok, error = False, exc
        if error is not None or not ok:
            m.failures.append({"item": i, "error": repr(error) if error else "wrong result"})
        elif shadow is not None and elapsed < seconds / 4:
            try:
                u0 = clock()
                workload.run(*shadow, args)
                m.pairs.append((t1 - t0, clock() - u0))
            except Exception:  # the pair is dropped; the item was already checked
                pass
        m.refs.append(reference_time(clock))
        i += 1
    return m


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(tracer, stats, m):
    by_name = tracer.by_name()

    def mean_ms(name):
        calls = by_name.get(name, [])
        return 1e3 * sum(s for _, s in calls) / len(calls) if calls else 0.0

    def total_s(name):
        return sum(s for _, s in by_name.get(name, []))

    metrics = {}
    for name in ("matroid.independent_sets", "matroid.bases", "zonotope.box_table",
                 "zonotope.hstar", "zonotope.hstar_typeB", "zonotope.ehrhart",
                 "oracle.compile", "oracle.count", "oracle.interpolate",
                 "cli.check", "cli.hstar_diagnostics", "cli.matroid",
                 "cli.eulerian_enumerate"):
        metrics[name + ".ms"] = (mean_ms(name), "ms")

    # Counts are per-item means over the first MIN_ITEMS items, so they repeat
    # exactly for a seed however many items a run completes.
    counts = stats["counts"]
    prefix = counts[:MIN_ITEMS]
    for name in ("matroid.independent_sets.count", "matroid.bases.count",
                 "zonotope.ib_pairs.count", "oracle.box_points.count",
                 "oracle.lattice_points.count"):
        values = [c[name] for c in prefix if name in c]
        metrics[name] = (sum(values) / len(prefix) if values else 0.0, "count")

    def ratio(num, den):
        return num / den if den else 0.0

    sets_total = sum(c.get("matroid.independent_sets.count", 0) for c in counts)
    metrics["matroid.us_per_independent_set"] = (
        1e6 * ratio(total_s("matroid.independent_sets"), sets_total), "us")
    box_total = sum(c.get("oracle.box_points.count", 0) for c in counts)
    lattice_total = sum(c.get("oracle.lattice_points.count", 0) for c in counts)
    metrics["oracle.hit_ratio"] = (ratio(lattice_total, box_total), "ratio")
    metrics["oracle.count.ns_per_box_point"] = (1e9 * ratio(total_s("oracle.count"), box_total), "ns")

    # Box-table cache traffic as the untraced calls see it.  Each explicit
    # box-table span is a miss that the library's next call would have taken
    # instead of a hit, so one hit per span is taken back out.
    own = stats["own_box_table_calls"]
    metrics["zonotope.box_table.cache_hit_ratio"] = (
        ratio(m.hits - own, m.hits + m.misses - own), "ratio")

    layer_self = sum(s for name, calls in by_name.items() if name != "item" for _, s in calls)
    item_total = sum(d for d, _ in by_name.get("item", []))
    metrics["trace.coverage"] = (ratio(layer_self, item_total), "ratio")
    metrics["trace.overhead_ratio"] = (
        ratio(sum(u for _, u in m.pairs), sum(t for t, _ in m.pairs)), "ratio")
    return metrics


def timing_metrics(times, setups):
    """items_per_s, the item percentiles and setup_s from (calibrated) times."""
    ordered = sorted(times)
    return {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(ordered), "ms"),
        "item_p90_ms": (1e3 * percentile(ordered, 0.9), "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zonoehrhart" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC / 'zonoehrhart'}; "
                         "run from the root of a zonoehrhart checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"docs-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups, setup_refs = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir)
            workdir.mkdir()
            seconds, lib, cli, inputs = set_up(workload, args.seed, str(workdir))
            setups.append(seconds)
            setup_refs.append(statistics.median(reference_time(clock) for _ in range(3)))

        tracer = stats = shadow = None
        if args.trace:
            tracer = Tracer(clock)
            stats = {"counts": [], "own_box_table_calls": 0, "configs_built": set()}
            # A second copy of the package, with its own empty caches, runs
            # the same items untraced right after the traced ones, so that the
            # overhead is measured on pairs close in time.
            _, lib2, cli2, _ = set_up(workload, args.seed, str(workdir))
            shadow = (lib2, cli2)
        m = measure(workload, lib, cli, inputs, args.seconds, tracer, stats, shadow)
        info = getattr(lib.default_box_table, "cache_info", None)
        cache_info = info()._asdict() if info else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = timing_metrics(m.times, setups)
    if args.trace:
        metrics = layer_metrics(tracer, stats, m)
        tracer.write(OUT / f"{tag}-spans.json")
    else:
        metrics = timing_metrics(calibrate(m.times, m.refs), calibrate(setups, setup_refs))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")

    attempted, failed = len(m.times), len(m.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)), "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "box_table_cache_info": cache_info,
        "failures": m.failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "setup_s": setups, "setup_ref_s": setup_refs,
        "item_s": m.times, "item_ref_s": m.refs,
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"raw.{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ratio")
    print(f"samples {attempted} count")
    print(json.dumps({k: record[k] for k in ("python", "git_sha", "nproc", "seed",
                                              "attempted", "failed",
                                              "box_table_cache_info")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
