"""The benchmark's three workloads: seeded inputs, the calls each item makes,
the traced variant of those calls, and the untimed correctness check.

Inputs come from ``random.Random`` seeded with the workload name and the
seed, and use only the standard library, so the library under test receives
nothing but the generated vectors, documents and arguments.  Every workload
yields an endless stream; the runner takes as many items as fit in the run.

``lib`` is the freshly imported ``zonoehrhart`` package and ``cli`` its
``zonoehrhart.cli`` module; the runner re-imports both for every set-up so
that the package's caches start empty.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction



def _full_rank(vectors, d):
    """Whether the integer vectors span Q^d (exact elimination, stdlib only)."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(d):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == d


def _fresh_configs(rng, ladder, entries, exclude):
    """Endless full-rank configurations cycling through the (d, n) ladder,
    with entries drawn from the closed range ``entries``.

    No configuration repeats, and none equals one in ``exclude``.
    """
    seen = set(exclude)
    lo, hi = entries
    i = 0
    while True:
        d, n = ladder[i % len(ladder)]
        vectors = tuple(tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(n))
        if vectors in seen or not _full_rank(vectors, d):
            continue
        seen.add(vectors)
        i += 1
        yield vectors


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


class FormulaFresh:
    """h* in both modes and the Ehrhart polynomial of never-seen configurations."""

    name = "formula-fresh"
    # Sizes that keep a 30 s run above 100 items (n = 8, 9 take 0.2-1.3 s an
    # item); three steps, so that the median item lies inside one size.
    ladder = ((4, 7), (5, 6), (5, 7))
    entries = (-3, 3)
    warmup = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
              (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (1, 2, -1, 3, 1))

    def items(self, seed):
        return _fresh_configs(_rng(self.name, seed), self.ladder, self.entries, {self.warmup})

    def materialize(self, item, workdir):
        return item

    def run(self, lib, cli, vectors):
        config = lib.VectorConfiguration(vectors)
        return (lib.hstar_zonotope(lib.ZonotopeSpec(config)),
                lib.hstar_type_b_zonotope(lib.ZonotopeSpec(config, "typeB")),
                lib.ehrhart_zonotope(lib.ZonotopeSpec(config)))

    def run_traced(self, lib, cli, vectors, tracer, stats):
        """The calls of ``run``, with each stage the library computes first
        pulled out in front of it, in the library's order."""
        config = lib.VectorConfiguration(vectors)
        with tracer.span("matroid.independent_sets"):
            sets = config.independent_sets()
        with tracer.span("zonotope.box_table"):
            lib.default_box_table(config)
        stats["own_box_table_calls"] += 1
        with tracer.span("matroid.bases"):
            bases = config.bases()
        with tracer.span("zonotope.hstar"):
            h = lib.hstar_zonotope(lib.ZonotopeSpec(config))
        with tracer.span("zonotope.hstar_typeB"):
            hb = lib.hstar_type_b_zonotope(lib.ZonotopeSpec(config, "typeB"))
        with tracer.span("zonotope.ehrhart"):
            e = lib.ehrhart_zonotope(lib.ZonotopeSpec(config))
        d = len(vectors[0])
        stats["counts"].append({
            "matroid.independent_sets.count": len(sets),
            "matroid.bases.count": len(bases),
            "zonotope.ib_pairs.count": len(bases) * 2 ** d,
        })
        return h, hb, e

    def check(self, lib, cli, vectors, result):
        h, hb, e = result
        d = len(vectors[0])
        config = lib.VectorConfiguration(vectors)
        e_b = lib.ehrhart_type_b_zonotope(lib.ZonotopeSpec(config, "typeB"))
        return (h == lib.hstar_from_ehrhart(e, d)
                and hb == lib.hstar_from_ehrhart(e_b, d))


class OracleD3:
    """h* by brute-force lattice-point counting on never-seen d = 3 configurations."""

    name = "oracle-d3"
    # Counting cost grows with the bounding box; n = 5 or entries up to 3
    # give items of up to 5 s, and too few items per run to be steady.
    ladder = ((3, 3), (3, 4), (3, 4))
    entries = (-2, 2)
    warmup = ((1, 0, 0), (0, 1, 0), (1, 1, 2))

    def items(self, seed):
        return _fresh_configs(_rng(self.name, seed), self.ladder, self.entries, {self.warmup})

    def materialize(self, item, workdir):
        return item

    def run(self, lib, cli, vectors):
        return lib.hstar_via_oracle(lib.ZonotopeSpec(lib.VectorConfiguration(vectors)))

    def run_traced(self, lib, cli, vectors, tracer, stats):
        """The calls ``hstar_via_oracle`` makes, split at public functions."""
        spec = lib.ZonotopeSpec(lib.VectorConfiguration(vectors))
        d = spec.dim
        spec.config.full_rank  # hstar_via_oracle checks the rank first
        with tracer.span("oracle.compile"):
            lib.contains_point(spec, 0, (0,) * d)
        with tracer.span("oracle.count"):
            counts = [lib.count_lattice_points(spec, n) for n in range(d + 2)]
        with tracer.span("oracle.interpolate"):
            h = lib.hstar_from_ehrhart(lib.interpolate_ehrhart(counts, d), d)
        box_points = 0
        for n in range(d + 2):
            size = 1
            for lo, hi in lib.bounding_box(spec, n):
                size *= hi - lo + 1
            box_points += size
        stats["counts"].append({
            "oracle.box_points.count": box_points,
            "oracle.lattice_points.count": sum(counts),
        })
        return h

    def check(self, lib, cli, vectors, result):
        return result == lib.hstar_zonotope(lib.ZonotopeSpec(lib.VectorConfiguration(vectors)))


def _jsonable(value):
    """The CLI's JSON form of an exact number."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    value = int(value)
    return str(value) if abs(value) > 2**53 else value


class CliValuations:
    """JSON documents with distinct integer box tables through ``cli.main``."""

    name = "cli-valuations"
    # Twelve configurations of two shapes of similar cost, so that the
    # per-configuration cost averages out between seeds.
    shapes = ((4, 7), (4, 8)) * 6
    entries = (-3, 3)
    commands = (("check",), ("hstar", "--diagnostics"), ("matroid",))
    eulerian_every = 10            # every 10th item is an ``eulerian`` call
    eulerian_d = (3, 4, 5, 6)
    warmup = {"kind": "doc", "cmd": ["hstar", "--diagnostics"], "doc": "warmup",
              "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
              "mode": "standard", "table": None}

    def items(self, seed):
        rng = _rng(self.name, seed)
        configs = [next(_fresh_configs(rng, (shape,), self.entries,
                                       {tuple(map(tuple, self.warmup["generators"]))}))
                   for shape in self.shapes]
        sets = [_independent_sets(c) for c in configs]
        seen_tables = set()
        doc = doc_items = eulerian_items = 0
        i = 0
        current = None
        while True:
            if i % self.eulerian_every == self.eulerian_every - 1:
                family = "AB"[eulerian_items % 2]
                d = self.eulerian_d[(eulerian_items // 2) % len(self.eulerian_d)]
                index = rng.randint(1, d)
                eulerian_items += 1
                yield {"kind": "eulerian", "family": family, "d": d, "index": index}
            else:
                if doc_items % len(self.commands) == 0:
                    c = doc % len(configs)
                    mode = ("standard", "typeB")[(doc // len(configs)) % 2]
                    while True:
                        table = tuple(rng.randint(-2, 4) for _ in sets[c])
                        if (c, table) not in seen_tables:
                            break
                    seen_tables.add((c, table))
                    current = {"doc": doc, "config": c,
                               "generators": [list(v) for v in configs[c]],
                               "mode": mode,
                               "table": {json.dumps(list(s), separators=(",", ":")): v
                                         for s, v in zip(sets[c], table)}}
                    doc += 1
                cmd = list(self.commands[doc_items % len(self.commands)])
                doc_items += 1
                yield {"kind": "doc", "cmd": cmd, **current}
            i += 1

    def materialize(self, item, workdir):
        """Write the item's JSON document (once); return the argv for ``cli.main``
        and the document's generators (None for an ``eulerian`` call)."""
        if item["kind"] == "eulerian":
            return ["eulerian", "--family", item["family"], "--d", str(item["d"]),
                    "--index", str(item["index"]), "--method", "enumerate"], None
        path = os.path.join(workdir, f"doc-{item['doc']}.json")
        if not os.path.exists(path):
            body = {"generators": item["generators"], "mode": item["mode"]}
            if item["table"] is not None:
                body["box_table"] = item["table"]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(body, fh)
        return item["cmd"][:1] + [path] + item["cmd"][1:], item["generators"]

    def run(self, lib, cli, args):
        argv, _ = args
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def run_traced(self, lib, cli, args, tracer, stats):
        """``run`` in one span named after the command.

        The first document of each configuration builds its default box
        table; that call is pulled out in front of ``cli.main`` so that the
        ``zonotope.box_table`` span holds it.
        """
        argv, generators = args
        if generators is not None:
            config = lib.VectorConfiguration(generators)
            key = tuple(config.vectors)
            if key not in stats["configs_built"]:
                stats["configs_built"].add(key)
                with tracer.span("zonotope.box_table"):
                    lib.default_box_table(config)
                stats["own_box_table_calls"] += 1
        name = {"check": "cli.check", "hstar": "cli.hstar_diagnostics",
                "matroid": "cli.matroid", "eulerian": "cli.eulerian_enumerate"}[argv[0]]
        with tracer.span(name):
            return self.run(lib, cli, args)

    def check(self, lib, cli, item, result):
        code, out = result
        if code != 0:
            return False
        doc = json.loads(out)
        if item["kind"] == "eulerian":
            d, index = item["d"], item["index"]
            expected = (lib.a_j_polynomial(d, index) if item["family"] == "A"
                        else lib.b_l_polynomial_via_a(d - 1, index - 1))
            return doc["coefficients"] == [_jsonable(c) for c in expected.coeffs]
        config = lib.VectorConfiguration(item["generators"])
        if item["cmd"][0] == "matroid":
            return (doc["rank"] == config.dim
                    and doc["bases"] == [list(b) for b in config.bases()])
        # The document overrides every entry, so it is the whole table.
        table = lib.BoxValuationTable(
            config, {tuple(json.loads(k)): v for k, v in item["table"].items()})
        ehrhart = (lib.ehrhart_type_b_zonotope if item["mode"] == "typeB"
                   else lib.ehrhart_zonotope)
        ehr = ehrhart(lib.ZonotopeSpec(config, item["mode"]), table)
        expected = lib.hstar_from_ehrhart(ehr, config.dim)
        return doc["hstar"] == [_jsonable(c) for c in expected.h]


def _independent_sets(vectors):
    """Independent index sets (1-based, including ()) in the library's order."""
    d = len(vectors[0])
    found = [()]

    def grow(prefix, start):
        for i in range(start, len(vectors) + 1):
            cand = prefix + (i,)
            if len(cand) <= d and _independent([vectors[j - 1] for j in cand]):
                found.append(cand)
                grow(cand, i + 1)
    grow((), 1)
    return sorted(found, key=lambda s: (len(s), s))


def _independent(vectors):
    """Whether the vectors are linearly independent."""
    return _full_rank([list(col) for col in zip(*vectors)], len(vectors))


WORKLOADS = {w.name: w for w in (FormulaFresh(), OracleD3(), CliValuations())}
