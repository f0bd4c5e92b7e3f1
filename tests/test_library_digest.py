"""The library's answers on seeded inputs, pinned by one sha256.

Each record is canonical JSON: for every seeded configuration its sets, bases
and IP(B), minor gcds and box counts, `hstar` and `ehrhart` in both modes
with no table, the default table and a seeded rational override,
`hstar_totally_unimodular` and the errors of seeded bad queries; then seeded
descent-statistic queries, good and bad; then the corpus's oracle h*.  A
change that moves a record on purpose updates both digests and says which
records moved and why.
"""

import json
import random
from fractions import Fraction
from itertools import chain, combinations

from zonoehrhart.eulerian import (descent_set, j_descent_set, l_descent_set_b,
                                  signed_descent_set)
from zonoehrhart.matroid import VectorConfiguration
from zonoehrhart.polycore import HStarVector, Poly
from zonoehrhart.zonotope import (MODES, BoxValuationTable, ZonotopeSpec, default_box_table,
                                  ehrhart, hstar, hstar_halfopen_parallelepiped,
                                  hstar_totally_unimodular)

LIBRARY_SEED = 3807
SHAPES = ("plain", "loop", "parallel", "deficient")


def _canon(x):
    """x as JSON values: a Fraction as its "p/q" string, so that it never reads as an int."""
    if isinstance(x, HStarVector):
        return {"d": x.d, "h": _canon(x.h)}
    if isinstance(x, Poly):
        return _canon(x.coeffs)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (frozenset, set)):
        return sorted(x)
    if isinstance(x, dict):
        return [[_canon(k), _canon(v)] for k, v in x.items()]
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    return x


def _outcome(call):
    """The call's value, or the type and message of what it raised."""
    try:
        return _canon(call())
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


def _draws(rng):
    """Seeded configurations at d = 0..6, each shape at each d, each also as its reversed list."""
    for d in range(7):
        for shape in SHAPES:
            n = rng.randint(max(d - 1, 0), min(d + 3, 8))
            vectors = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
            if shape == "loop":
                vectors.insert(rng.randint(0, n), [0] * d)
            elif shape == "parallel" and vectors:
                v = rng.choice(vectors)
                vectors.insert(rng.randint(0, n), [rng.choice((-2, -1, 1, 2)) * x for x in v])
            elif shape == "deficient" and d:
                for v in vectors:
                    v[-1] = v[0] if d > 1 else 0
            yield shape, vectors, d
            yield shape + "-reversed", vectors[::-1], d


def _rational_updates(rng, sets):
    return {s: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.6
            else rng.randint(-3, 5) for s in rng.sample(sets, rng.randint(1, len(sets)))}


def _bad_queries(rng, config, other):
    """Seeded queries that a configuration may refuse, each with its outcome."""
    n, sets = config.n, config.independent_sets()
    subsets = [s for s in (tuple(sorted(rng.sample(range(1, n + 1), k)))
                           for k in range(n + 1) for _ in range(2)) if s not in sets]
    dependent = subsets[0] if subsets else (n + 1,)
    table = default_box_table(config)
    faults = [(dependent, 1), ((1, 1), 1), ((n + 1,), 1), ((), 0.5), ((), True), ((), "1/2")]
    updates = dict(rng.sample(faults, 2))
    updates.update(_rational_updates(rng, sets))
    partial = dict(rng.sample(sorted(table.values.items()), rng.randint(0, len(sets) - 1)))
    return {
        "minor_gcd": _outcome(lambda: config.minor_gcd(dependent)),
        "internally_passive": _outcome(lambda: config.internally_passive(rng.choice(sets))),
        "min_basis_containing": _outcome(lambda: config.min_basis_containing(dependent)),
        "value": _outcome(lambda: table.value(dependent)),
        "override": _outcome(lambda: table.override(updates).values),
        "missing": _outcome(lambda: BoxValuationTable(config, partial).values),
        "other_table": _outcome(lambda: hstar(ZonotopeSpec(config), default_box_table(other))),
        "mode": _outcome(lambda: ZonotopeSpec(config, "typeC")),
        "parallelepiped": _outcome(lambda: hstar_halfopen_parallelepiped(
            ZonotopeSpec(config), rng.sample(range(1, n + 2), min(n + 1, 2)))),
    }


def _configuration_records(rng):
    other = VectorConfiguration([[1, 0], [0, 1], [1, 1]])
    for shape, vectors, d in _draws(rng):
        config = VectorConfiguration(vectors, d)
        sets, bases = config.independent_sets(), config.bases()
        override = default_box_table(config).override(_rational_updates(rng, sets))
        values = {}
        for mode in MODES:
            z = ZonotopeSpec(config, mode)
            for name, table in (("none", None), ("default", default_box_table(config)),
                                ("override", override)):
                values[f"{mode}-{name}"] = [_outcome(lambda: hstar(z, table)),
                                            _outcome(lambda: ehrhart(z, table))]
            values[f"{mode}-unimodular"] = _outcome(lambda: hstar_totally_unimodular(z))
        yield {
            "shape": shape, "generators": vectors, "d": d, "rank": config.full_rank,
            "sets": _canon(sets), "bases": _canon(bases),
            "passive": [_canon(config.internally_passive(b)) for b in bases],
            "minor_gcds": [config.minor_gcd(s) for s in sets],
            "box_counts": _canon(default_box_table(config).values),
            "override": _canon(override.values),
            "values": values,
            "bad": _bad_queries(rng, config, other),
        }


def _descent_records(rng):
    """Descent sets of seeded words at d = 0..5, one record per d: with no
    fault, and with each fault and each pair of faults in the letters, signs
    or last argument, so that the order in which faults are named shows."""
    kinds = ("letter", "repeat", "sign", "sign-value", "sign-length", "signs-type",
             "last", "last-type")
    for d in range(6):
        entries = []
        for faults in chain([()], combinations(kinds, 1), combinations(kinds, 2)):
            word, signs = rng.sample(range(1, d + 1), d), [rng.choice((1, -1)) for _ in range(d)]
            last = rng.randint(0, d)
            if "letter" in faults and d:
                word[rng.randrange(d)] = rng.choice((1.0, True, "1"))
            if "repeat" in faults and d > 1:
                word[0] = word[1]
            if "sign" in faults and d:
                signs[rng.randrange(d)] = rng.choice((1.0, True, None))
            if "sign-value" in faults and d:
                signs[rng.randrange(d)] = rng.choice((0, 2, -2))
            if "sign-length" in faults:
                signs.append(1)
            if "signs-type" in faults:
                signs = rng.choice((None, "1" * d))
            if "last" in faults:
                last = rng.choice((-1, d + 1))
            if "last-type" in faults:
                last = rng.choice((True, 1.0, None))
            entries.append({
                "word": _canon(word), "signs": _canon(signs), "last": last, "faults": faults,
                "descent_set": _outcome(lambda: descent_set(word)),
                "j_descent_set": _outcome(lambda: j_descent_set(word, last)),
                "signed_descent_set": _outcome(lambda: signed_descent_set(word, signs)),
                "l_descent_set_b": _outcome(lambda: l_descent_set_b(word, signs, last))})
        yield entries


def _library_records(corpus):
    rng = random.Random(LIBRARY_SEED)
    records = [*_configuration_records(rng), *_descent_records(rng)]
    entries = corpus["records"]
    for start in range(0, len(entries), 10):  # ten corpus configurations per record
        records.append([[r["config"].vectors, _canon(r["oracle"])]
                        for r in entries[start:start + 10]])
    return [json.dumps(record, separators=(",", ":")) for record in records]


# The sha256 of the records, and the first four hex digits of each record's
# own sha256, taken on the tree before descent-statistic arguments had one
# check path and before a passed default table was read as the configuration's
# own box counts: neither moves a value, an error message or its order.
LIBRARY_DIGEST = "d3a248429e1da199622c229df42bcd8baa80267781d3ca6100cbd9e84491532c"
LIBRARY_RECORD_DIGESTS = """
dfd4 362c c877 07c9 2a61 2948 821c 45dc ae13 4958 9510 0eb3 39e8 0c4d f165 dcda e0ed
bf4b 59c1 b5e8 01fb 3111 b6df 90d4 8d00 0e5e 9d1f 53b5 7c7e 3fc0 bf11 a5ef b067 22aa
97fc 0e35 8f37 d6d5 1e33 c9ab 3225 9c5c 8650 61a7 1eac 2ace 7280 872e 9d67 d19d 0d14
1c53 6cf3 8b01 4ffa e48b 169a 46b9 1208 a007 3f30 cace c081 6156 4e1c cdb9 8ecb 49db
fb2d 927e f0a2 2b9e 676e 9b1a e9f7 4fdc ad0b 3d2e 7ac1 2500 856c fbb2 e822
"""


def test_library_matches_its_digest(corpus, match_digest):
    match_digest(_library_records(corpus), LIBRARY_DIGEST, LIBRARY_RECORD_DIGESTS)
