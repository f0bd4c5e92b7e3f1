"""Exact work counts on a fixed ladder, against BENCH_work.json at the root.

Seconds on a shared machine swing about as far as a benchmark's bounds; the
work each layer does is exact and the same on every machine.  The test wraps
named private functions with counters (`_internally_passive` is handed a
mapping that counts its membership probes) and runs:

* seed-7 draws at d = 4, 5, 6 with n = 2d generators and entries in
  [-3, 3], through `hstar` in both modes and `ehrhart`, as the benchmark's
  formula-fresh items do;
* the graphical zonotope of K_5 the same way;
* 20 fixed full-rank d = 3 bodies through `hstar_via_oracle`, in each mode.

A change that moves a count on purpose rewrites the file with
`PYTHONPATH=src python tests/test_work.py > BENCH_work.json`, and its
CHANGES.md entry says which counts moved and why.
"""

import json
import random
import sys
from functools import partial
from itertools import combinations
from pathlib import Path

from graph_reference import graph_generators
from zonoehrhart import _linalg, matroid, oracle
from zonoehrhart.matroid import VectorConfiguration
from zonoehrhart.zonotope import ZonotopeSpec, ehrhart, hstar

BENCH_WORK = Path(__file__).resolve().parent.parent / "BENCH_work.json"
FIELDS = ("rank_tests", "folds", "sets", "bases", "passive_probes", "group_pairs",
          "basis_major_pairs", "compiles", "facets", "swept_lines", "box_points")


def _draw(rng, d, n, entries):
    while True:
        vectors = [tuple(rng.randint(-entries, entries) for _ in range(d)) for _ in range(n)]
        if VectorConfiguration(vectors, d).full_rank == d:
            return vectors


def _formula(vectors):
    config = VectorConfiguration(vectors)
    hstar(ZonotopeSpec(config))
    hstar(ZonotopeSpec(config, "typeB"))
    ehrhart(ZonotopeSpec(config))


def _oracle(bodies, mode):
    for vectors in bodies:
        oracle.hstar_via_oracle(ZonotopeSpec(VectorConfiguration(vectors), mode))


def _items():
    """(name, run) of every item, drawn before any counter runs."""
    rng = random.Random(7)
    items = [(f"ladder d={d}", partial(_formula, _draw(rng, d, 2 * d, 3))) for d in (4, 5, 6)]
    items.append(("K5", partial(_formula, graph_generators(5, list(combinations(range(5), 2))))))
    rng = random.Random(3)
    bodies = [_draw(rng, 3, rng.randint(3, 4), 2) for _ in range(20)]
    items += [(f"oracle d=3 {mode}", partial(_oracle, bodies, mode))
              for mode in ("standard", "typeB")]
    return items


def _counters(counts):
    """(owner, name, wrap(real)) of every wrapped function."""
    def after(tally):  # tally(args, result) once the call returns
        def wrap(real):
            def counted(*args):
                result = real(*args)
                tally(args, result)
                return result
            return counted
        return wrap

    class Probed(dict):  # counts the membership tests made on it
        __slots__ = ()

        def __contains__(self, key):
            counts["passive_probes"] += 1
            return dict.__contains__(self, key)

    def probed(real):
        return lambda members, r: real(Probed(members), r)

    def group(args, result):
        counts["sets"] += len(args[0])
        counts["group_pairs"] += sum(sum(m) * len(masks) for m, masks in result)

    def basis_major(args, result):
        counts["bases"] += len(args[1])
        counts["basis_major_pairs"] += sum(1 << basis.bit_count() for basis in args[1])

    def compile_rows(args, result):
        counts["compiles"] += 1
        counts["facets"] += len(args[0].rows)

    def sweep(args, result):
        (first, final), runs = args[3], args[2]
        counts["swept_lines"] += sum(stop - start + 1 for _, start, stop, _ in runs)
        counts["box_points"] += (final - first + 1) * sum(
            weight * (stop - start + 1) for _, start, stop, weight in runs)

    def tally(field):
        return lambda args, result: counts.__setitem__(field, counts[field] + 1)

    return ((_linalg, "rank", after(tally("rank_tests"))),
            (_linalg, "fold", after(tally("folds"))),
            (matroid, "_group", after(group)), (matroid, "_basis_major", after(basis_major)),
            (matroid, "_internally_passive", probed),
            (oracle._Membership, "__init__", after(compile_rows)),
            (oracle, "_sweep", after(sweep)))


def work_counts() -> dict:
    """{item: {field: count}} over the ladder, with every wrapper removed after."""
    out = {}
    for name, run in _items():
        counts = dict.fromkeys(FIELDS, 0)
        wrapped = [(owner, attr, getattr(owner, attr), wrap)
                   for owner, attr, wrap in _counters(counts)]
        for owner, attr, real, wrap in wrapped:
            setattr(owner, attr, wrap(real))
        try:
            run()
        finally:
            for owner, attr, real, _ in wrapped:
                setattr(owner, attr, real)
        out[name] = counts
    return out


def test_work_counts_match_the_committed_figures():
    assert work_counts() == json.loads(BENCH_WORK.read_text())


if __name__ == "__main__":
    json.dump(work_counts(), sys.stdout, indent=2)
    print()
