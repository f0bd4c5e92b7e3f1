import gc
import random
import re
import weakref
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from integer_reference import det_bareiss
from test_matroid import _random_unimodular_matrix
from zonoehrhart import _linalg
from zonoehrhart.errors import DependentSetError, EnumerationLimitError, LatticeMathError
from zonoehrhart.eulerian import a_j_polynomial, eulerian_b
from zonoehrhart.matroid import VectorConfiguration
from zonoehrhart.oracle import count_lattice_points, hstar_via_oracle, interpolate_ehrhart
from zonoehrhart.polycore import (HStarVector, Poly, ehrhart_from_hstar, hstar_from_ehrhart,
                                  is_real_rooted)
from zonoehrhart.zonotope import (MODES, BoxValuationTable, ZonotopeSpec,
                                  default_box_table, ehrhart,
                                  ehrhart_halfopen_cube,
                                  ehrhart_type_b_zonotope, ehrhart_zonotope,
                                  eulerian_ray_parallelepiped,
                                  express_in_eulerian_basis, hstar,
                                  hstar_halfopen_cube,
                                  hstar_halfopen_parallelepiped,
                                  hstar_totally_unimodular,
                                  hstar_type_b_zonotope, hstar_zonotope,
                                  is_in_zonotope_cone, is_reflexive_by_ehrhart)

HEXAGON = VectorConfiguration([(1, 0), (0, 1), (1, 1)])
SKEW = VectorConfiguration([(1, 1), (1, -1)])


def test_box_halfopen_count_examples():
    # The half-open box of an independent set holds minor_gcd lattice points.
    assert HEXAGON.minor_gcd(()) == 1
    assert SKEW.minor_gcd((1, 2)) == 2
    assert HEXAGON.minor_gcd((1, 3)) == 1


def test_default_box_table_examples():
    table = default_box_table(HEXAGON)
    assert table.value(()) == 1
    assert all(table.value(s) == 0 for s in HEXAGON.independent_sets() if s)

    table = default_box_table(SKEW)
    assert table.value(()) == 1
    assert table.value((1,)) == table.value((2,)) == 0
    assert table.value((1, 2)) == 1

    stretched = VectorConfiguration([(4, 0), (0, 1)])
    table = default_box_table(stretched)
    assert table.value((1,)) == 3
    assert table.value(()) == 1
    assert table.value((2,)) == 0 and table.value((1, 2)) == 0


def _seeded_configs(rng, count, dims=(1, 2, 3, 4)):
    """Full-rank configurations with a loop or a parallel pair now and then,
    every other one listed backwards, so that the extra vector comes first."""
    for i in range(count):
        d = rng.choice(dims)
        while True:
            vectors = [tuple(rng.randint(-3, 3) for _ in range(d))
                       for _ in range(rng.randint(d, d + 2))]
            if i % 3 == 1:
                vectors.append((0,) * d)
            elif i % 3 == 2:
                vectors.append(tuple(-x for x in vectors[0]))
            config = VectorConfiguration(vectors[::-1] if i % 2 else vectors, d)
            if config.full_rank == d:
                yield config
                break


def test_default_box_table_is_inclusion_exclusion():
    rng = random.Random(67)
    for config in _seeded_configs(rng, 40):
        table = default_box_table(config)
        for s in config.independent_sets():
            expected = sum((-1) ** (len(s) - k) * config.minor_gcd(sub)
                           for k in range(len(s) + 1) for sub in combinations(s, k))
            assert table.value(s) == expected, (config, s)


def test_ehrhart_default_and_custom_table_paths_agree():
    rng = random.Random(71)
    for config in _seeded_configs(rng, 30):
        table = default_box_table(config)
        custom = BoxValuationTable(
            config, {s: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for s in config.independent_sets()})
        # phi(box(I)) = sum over J subseteq I of b(J), summed explicitly.
        coeffs = [0] * (config.dim + 1)
        for s in config.independent_sets():
            coeffs[len(s)] += sum(custom.value(sub) for k in range(len(s) + 1)
                                  for sub in combinations(s, k))
        for mode in MODES:
            z = ZonotopeSpec(config, mode)
            assert ehrhart(z) == ehrhart(z, table), (config, mode)
            expected = Poly(coeffs)
            if mode == "typeB":
                expected = expected.scale_argument(2)
            assert ehrhart(z, custom) == expected, (config, mode)


def test_box_table_rejects_inexact_values():
    sets = SKEW.independent_sets()
    table = BoxValuationTable(SKEW, {s: Fraction(4, 2) for s in sets})
    assert all(type(table.value(s)) is int for s in sets)
    for bad in (0.5, 2.0, "1/2", Decimal(1), None, True):
        with pytest.raises(LatticeMathError, match="int or Fraction"):
            BoxValuationTable(SKEW, {s: (bad if s == (1,) else 1) for s in sets})
        with pytest.raises(LatticeMathError, match="int or Fraction"):
            table.override({(1, 2): bad})
    assert table.override({(1, 2): Fraction(1, 2)}).value((1, 2)) == Fraction(1, 2)
    # Of an update's bad entries, one replacing a table entry is named before
    # a set the configuration lacks, whatever their order in the update.
    with pytest.raises(LatticeMathError, match=r"box value of \(1, 2\) must be"):
        table.override({(3,): 1, (1, 2): 0.5})


def test_box_table_names_each_set_once():
    table = default_box_table(HEXAGON)
    with pytest.raises(LatticeMathError, match=r"names the set \(1, 2\) twice"):
        BoxValuationTable(HEXAGON, {**table.values, (2, 1): 5})
    with pytest.raises(LatticeMathError, match=r"names the set \(1, 2\) twice"):
        table.override({(1, 2): 3, (2, 1): 5})
    # A set named twice is named before an earlier dependent set or bad value.
    with pytest.raises(LatticeMathError, match=r"names the set \(1, 2\) twice"):
        BoxValuationTable(HEXAGON, {(2, 3, 1): 1, (1,): 0.5, **table.values, (2, 1): 5})
    # One update, in any spelling, replaces the entry.
    for key in ((1, 2), (2, 1)):
        assert table.override({key: 5}).value((1, 2)) == 5


def test_index_sets_take_only_integers():
    table = default_box_table(HEXAGON)
    square = _parallelepiped([(1, 0), (0, 1)])
    for call in (lambda: HEXAGON.minor_gcd([1.0]), lambda: HEXAGON.rank([1.5]),
                 lambda: HEXAGON.min_basis_containing([1.0]),
                 lambda: HEXAGON.internally_passive([1.0, 2.0]),
                 lambda: table.value([1.0]), lambda: table.value([True]),
                 lambda: BoxValuationTable(HEXAGON, {(1.0,): 0}),
                 lambda: hstar_halfopen_parallelepiped(square, [1.0]),
                 lambda: hstar_halfopen_parallelepiped(square, [True])):
        with pytest.raises(LatticeMathError, match="an index must be an integer"):
            call()


def test_box_table_requires_complete_domain():
    with pytest.raises(LatticeMathError):
        BoxValuationTable(SKEW, {(): 1})
    with pytest.raises(DependentSetError):
        default_box_table(SKEW).value((3,))
    # Of several missing sets, the first in lexicographic order is named.
    with pytest.raises(LatticeMathError, match=r"missing the independent set \(1,\)$"):
        BoxValuationTable(HEXAGON, {(): 1})
    entries = default_box_table(HEXAGON).values
    del entries[(2, 3)], entries[(1, 3)]
    with pytest.raises(LatticeMathError, match=r"missing the independent set \(1, 3\)$"):
        BoxValuationTable(HEXAGON, entries)


def test_box_table_keys_no_mask_stands_for():
    # Bit masks would read a repeated index as another element, (1, 1) as (2,),
    # and 1 << -1 raises: each of these keys names no set of the configuration.
    table = default_box_table(HEXAGON)
    for key in ((1, 1), (0,), (-1,), (HEXAGON.n + 1,)):
        message = rf"^{re.escape(repr(key))} is not an independent set of the configuration$"
        for call in (lambda: BoxValuationTable(HEXAGON, {**table.values, key: 1}),
                     lambda: table.override({key: 1}), lambda: table.value(key)):
            with pytest.raises(DependentSetError, match=message):
                call()


def test_ehrhart_zonotope_examples():
    assert ehrhart_zonotope(ZonotopeSpec(HEXAGON)) == Poly((1, 3, 3))
    assert ehrhart_zonotope(ZonotopeSpec(SKEW)) == Poly((1, 2, 2))
    point = ZonotopeSpec(VectorConfiguration([], dim=0))
    assert ehrhart_zonotope(point) == Poly((1,))


def test_halfopen_cube_examples():
    assert ehrhart_halfopen_cube(2, 0) == Poly((1, 2, 1))
    assert ehrhart_halfopen_cube(2, 2) == Poly((0, 0, 1))
    assert ehrhart_halfopen_cube(1, 1) == Poly((0, 1))
    assert hstar_halfopen_cube(2, 0).h == (1, 1, 0)
    assert hstar_halfopen_cube(2, 2).h == (0, 1, 1)
    assert hstar_halfopen_cube(1, 1).h == (0, 1)
    with pytest.raises(LatticeMathError, match="d must be an integer"):
        ehrhart_halfopen_cube(2.0, 1)
    with pytest.raises(LatticeMathError, match="j must be an integer"):
        hstar_halfopen_cube(2, 1.0)


def test_halfopen_cube_consistency():
    for d in range(7):
        for j in range(d + 1):
            assert hstar_from_ehrhart(ehrhart_halfopen_cube(d, j), d) == \
                hstar_halfopen_cube(d, j), (d, j)


def _parallelepiped(vectors, mode="standard"):
    return ZonotopeSpec(VectorConfiguration(vectors), mode)


def test_hstar_halfopen_parallelepiped_examples():
    square = _parallelepiped([(1, 0), (0, 1)])
    assert hstar_halfopen_parallelepiped(square).h == (1, 1, 0)
    assert hstar_halfopen_parallelepiped(square, (1, 2)).h == (0, 1, 1)
    assert hstar_halfopen_parallelepiped(_parallelepiped([(4, 0), (0, 1)])).h == (1, 7, 0)
    point = ZonotopeSpec(VectorConfiguration([], 0))
    assert hstar_halfopen_parallelepiped(point).h == (1,)
    for mode in MODES:
        with pytest.raises(DependentSetError):
            hstar_halfopen_parallelepiped(_parallelepiped([(1, 0), (2, 0)], mode))
        square = _parallelepiped([(1, 0), (0, 1)], mode)
        for removed in ((3,), (0,), (1, 1)):
            with pytest.raises(LatticeMathError, match="index set"):
                hstar_halfopen_parallelepiped(square, removed)


def test_hstar_zonotope_examples():
    assert hstar_zonotope(ZonotopeSpec(HEXAGON)).h == (1, 4, 1)
    assert hstar_zonotope(ZonotopeSpec(SKEW)).h == (1, 2, 1)
    assert hstar_zonotope(ZonotopeSpec(VectorConfiguration([(4, 0), (0, 1)]))).h == (1, 7, 0)
    # The segment from 0 to (3, 0) in Z^2 has h* of degree 1, its rank.
    segment = VectorConfiguration([(1, 0), (2, 0)])
    assert hstar_zonotope(ZonotopeSpec(segment)) == HStarVector((1, 2), 1)
    assert hstar_type_b_zonotope(ZonotopeSpec(segment, "typeB")) == HStarVector((1, 5), 1)


def test_hstar_totally_unimodular():
    assert hstar_totally_unimodular(ZonotopeSpec(HEXAGON)).h == (1, 4, 1)
    cube3 = ZonotopeSpec(VectorConfiguration([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert hstar_totally_unimodular(cube3).h == (1, 4, 1, 0)
    doubled = ZonotopeSpec(VectorConfiguration([(1, 0), (0, 1), (1, 0)]))
    assert hstar_totally_unimodular(doubled) == hstar_zonotope(doubled) == \
        hstar_via_oracle(doubled)
    assert hstar_totally_unimodular(ZonotopeSpec(HEXAGON, "typeB")).h == (1, 16, 7)
    for mode in MODES:
        with pytest.raises(LatticeMathError):
            hstar_totally_unimodular(ZonotopeSpec(SKEW, mode))


def _graphical(rng, vertices):
    """The edges e_i - e_j of a seeded subgraph of K_vertices, in Z^vertices:
    totally unimodular, and of rank below the dimension."""
    edges = [e for e in combinations(range(vertices), 2) if rng.random() < 0.6]
    return VectorConfiguration(
        [tuple(1 if k == i else -1 if k == j else 0 for k in range(vertices))
         for i, j in edges], vertices)


def test_hstar_totally_unimodular_matches_general_formula():
    rng = random.Random(41)
    checked = 0
    while checked < 25:
        d = rng.randint(1, 3)
        n = rng.randint(d, 5)
        config = VectorConfiguration(
            [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(n)], d)
        if config.full_rank != d:
            continue
        try:
            hstar_totally_unimodular(ZonotopeSpec(config))
        except LatticeMathError:
            continue
        for mode in MODES:
            z = ZonotopeSpec(config, mode)
            assert hstar_totally_unimodular(z) == hstar(z), (config, mode)
        checked += 1
    # Graphical configurations are totally unimodular at every rank.
    for draw in range(40):
        config = _graphical(rng, draw % 5 + 2)
        for mode in MODES:
            z = ZonotopeSpec(config, mode)
            assert hstar_totally_unimodular(z) == hstar(z), (config, mode)


def _lifted_of_rank(rng, d, rank, m_max):
    """Seeded configuration of the given rank in Z^d, with one possible loop:
    generators with entries in [-1, 1] drawn in Z^rank, mapped into Z^d by a
    d x rank matrix whose rows hold one or two entries +-1.  Two-entry rows
    can map Z^rank onto a proper sublattice of the integer points of its span."""
    while True:
        low = [[rng.randint(-1, 1) for _ in range(rank)]
               for _ in range(rng.randint(max(rank, 1), m_max))]
        lift = []
        for _ in range(d):
            row = [0] * rank
            for j in rng.sample(range(rank), min(rank, rng.randint(1, 2))):
                row[j] = rng.choice((-1, 1))
            lift.append(row)
        vectors = [tuple(sum(a * b for a, b in zip(row, w)) for row in lift) for w in low]
        if rng.random() < 0.5:
            vectors.insert(rng.randint(0, len(vectors)), (0,) * d)
        config = VectorConfiguration(vectors, d)
        if config.full_rank == rank:
            return config


def test_hstar_below_full_rank():
    # h* has degree r, the rank, on bodies with r < d: eleven draws for each
    # d = 2..5, r = 0..d-1 and mode, 308 in all, most with a loop.  The
    # matroid formula must equal the binomial transform of the counting
    # polynomial, be real-rooted, agree with the unimodular corollary when
    # every basis has minor gcd 1, and agree with the oracle wherever its box
    # guard admits the body.
    rng = random.Random(151)
    admitted, unimodular = 0, dict.fromkeys(MODES, 0)
    for d in range(2, 6):
        for rank in range(d):
            for mode in MODES:
                for _ in range(11):
                    z = ZonotopeSpec(_lifted_of_rank(rng, d, rank, rank + 1), mode)
                    h = hstar(z)
                    assert h == hstar_from_ehrhart(ehrhart(z), rank), (z.config, mode)
                    assert is_real_rooted(h.poly()), (z.config, mode, h)
                    try:
                        assert hstar_totally_unimodular(z) == h, (z.config, mode)
                        unimodular[mode] += 1
                    except LatticeMathError:
                        pass
                    try:
                        oracle = hstar_via_oracle(z)
                    except EnumerationLimitError:
                        continue
                    assert oracle == h, (z.config, mode)
                    admitted += 1
    assert admitted >= 300 and min(unimodular.values()) >= 50, (admitted, unimodular)


def test_hstar_is_invariant_under_unimodular_embedding():
    # A full-rank configuration in Z^r, padded with zeros into Z^d for
    # d = r+1 or r+2 and mapped by a unimodular matrix, spans a lattice
    # zonotope unimodularly equivalent to the original one: same h*, degree r.
    rng = random.Random(157)
    for draw in range(80):
        r = draw % 5 + 1
        d = r + rng.randint(1, 2)
        while True:
            low = VectorConfiguration([tuple(rng.randint(-2, 2) for _ in range(r))
                                       for _ in range(rng.randint(r, r + 2))], r)
            if low.full_rank == r:
                break
        u = _random_unimodular_matrix(rng, d)
        padded = [v + (0,) * (d - r) for v in low.vectors]
        high = VectorConfiguration(
            [tuple(sum(a * b for a, b in zip(row, v)) for row in u) for v in padded], d)
        for mode in MODES:
            assert hstar(ZonotopeSpec(high, mode)) == hstar(ZonotopeSpec(low, mode)), \
                (low, u, mode)


def test_ungrounded_k4_matches_grounded():
    # The graphical zonotope of K_4: edges e_i - e_j span rank 3 in Z^4;
    # sending vertex 4 to 0 gives the same body, full-dimensional in Z^3.
    ungrounded = VectorConfiguration(
        [tuple(1 if k == i else -1 if k == j else 0 for k in range(4))
         for i, j in combinations(range(4), 2)])
    grounded = VectorConfiguration([v[:3] for v in ungrounded.vectors])
    for config in (ungrounded, grounded):
        z = ZonotopeSpec(config)
        assert hstar(z) == hstar_totally_unimodular(z) == HStarVector((1, 34, 55, 6), 3)


def test_unimodularity_test_agrees_with_bareiss_minors():
    # Rejected exactly when some d x d minor lies outside {0, +-1}; the
    # message names |det| of the first such basis in the basis order.
    rng = random.Random(137)
    accepted = rejected = 0
    for draw in range(120):
        d = draw % 4 + 1
        n = rng.randint(d, d + 2)
        while True:
            config = VectorConfiguration(
                [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)], d)
            if config.full_rank == d:
                break
        z = ZonotopeSpec(config)
        minors = {b: det_bareiss([config.vectors[i - 1] for i in b])
                  for b in combinations(range(1, n + 1), d)}
        assert {b for b, minor in minors.items() if minor} == set(config.bases())
        offending = [abs(minors[b]) for b in config.bases() if minors[b] not in (-1, 1)]
        if offending:
            with pytest.raises(LatticeMathError, match=f"absolute value {offending[0]} "):
                hstar_totally_unimodular(z)
            rejected += 1
        else:
            assert hstar_totally_unimodular(z) == hstar_zonotope(z), config
            accepted += 1
    assert accepted >= 10 and rejected >= 10, (accepted, rejected)


def test_matroid_queries_make_no_rank_calls_after_enumeration(monkeypatch):
    # Once a configuration's independent sets are enumerated, passive sets,
    # closures, the coloop test, the box table and h* are lookups into them.
    calls = []
    real_rank = _linalg.rank
    monkeypatch.setattr(_linalg, "rank",
                        lambda rows: calls.append(1) or real_rank(rows))
    rng = random.Random(43)
    while True:
        seeded = VectorConfiguration(
            [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(7)], 4)
        if seeded.full_rank == 4:
            break
    hexagon = VectorConfiguration(HEXAGON.vectors)  # nothing cached yet
    for config, unimodular in ((hexagon, True), (seeded, False),
                               (VectorConfiguration(seeded.vectors[::-1], 4), False)):
        calls.clear()
        config.independent_sets()
        config.full_rank
        assert calls, "the counter does not see the enumeration"
        calls.clear()
        for b in config.bases():
            config.internally_passive(b)
        for s in config.independent_sets():
            config.min_basis_containing(s)
        config.is_coloop_free()
        default_box_table(config)
        for mode in MODES:
            hstar(ZonotopeSpec(config, mode))
        if unimodular:
            hstar_totally_unimodular(ZonotopeSpec(config))
        assert not calls, (config, len(calls))


def test_library_keeps_no_configuration_alive():
    # The box counts live on the configuration, so once the caller lets go
    # of it, nothing in the library holds its enumeration.  The walk is a
    # method, not a closure that refers to itself, so no reference cycle
    # waits for the cyclic collector: the configuration goes at once.
    gc.disable()
    try:
        config = VectorConfiguration([(2, 1, 0), (0, 1, 1), (1, 1, -1), (1, 0, 3)])
        ref = weakref.ref(config)
        for mode in MODES:
            hstar(ZonotopeSpec(config, mode))
            ehrhart(ZonotopeSpec(config, mode))
        default_box_table(config)
        del config
        assert ref() is None
    finally:
        gc.enable()


def test_one_double_sum_per_configuration_and_table(monkeypatch):
    # The double sum does not depend on the mode: with the default table the
    # configuration keeps its histogram, and a passed table keeps its own, so
    # the second mode, and every later call on the same table, only assembles.
    # A table made by `override` is another table, summed once more.
    from zonoehrhart import matroid
    calls = []
    real_double_sum = matroid._double_sum
    monkeypatch.setattr(matroid, "_double_sum",
                        lambda *args: calls.append(1) or real_double_sum(*args))
    for vectors in (HEXAGON.vectors, SKEW.vectors, [(2, 1, 0), (0, 1, 1), (1, 1, -1), (1, 0, 3)]):
        config = VectorConfiguration(vectors)  # nothing cached yet
        calls.clear()
        for mode in MODES:
            z = ZonotopeSpec(config, mode)
            assert hstar(z) == hstar_from_ehrhart(ehrhart(z), config.full_rank)
        assert len(calls) == 1
        table = default_box_table(config).override({(1,): Fraction(1, 3)})
        calls.clear()
        seen = [hstar(ZonotopeSpec(config, mode), table) for mode in MODES + MODES]
        assert len(calls) == 1 and seen[:2] == seen[2:]
        other = table.override({(1,): 2})
        for mode in MODES:
            z = ZonotopeSpec(config, mode)
            assert hstar(z, other) != hstar(z, table)
            assert ehrhart_from_hstar(hstar(z, other)) == ehrhart(z, other)
        assert len(calls) == 2


def test_histograms_are_stanleys_coordinates():
    # Stanley's sum E(n) = sum_k S_k n^k, with S_k the sum of the half-open
    # box values phi(I) over the k-element independent sets, fixes the
    # double sum's histogram without reading a basis or IP(B):
    # sum_j c_j x^j = sum_k S_k x^k (1 - x)^(r - k).  Seeded configurations
    # at d = 1..5 with loops, parallel pairs and rank deficiency; the default
    # table and seeded rational tables, read in turn on one configuration, so
    # a histogram kept for the wrong table shows; h* in both modes.
    from math import comb

    from zonoehrhart.zonotope import _assemble, _histogram

    rng = random.Random(33)
    draws = 0
    for d in range(1, 6):
        for shape in ("plain", "loop", "parallel", "deficient") * 3:
            n = rng.randint(d, d + 2)
            vectors = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
            if shape == "loop":
                vectors.insert(rng.randint(0, n), [0] * d)
            elif shape == "parallel":
                v = rng.choice(vectors)
                vectors.insert(rng.randint(0, n), [rng.choice((-2, -1, 1, 2)) * x for x in v])
            elif shape == "deficient":
                for v in vectors:
                    v[-1] = 0
            config = VectorConfiguration(vectors, d)
            r, sets = config.full_rank, config.independent_sets()
            tables = [None]
            for _ in range(3):
                chosen = rng.sample(sets, rng.randint(1, len(sets)))
                tables.append(default_box_table(config).override(
                    {s: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for s in chosen}))
            for table in tables + [None, tables[1]]:
                sums = config._box_sums(None if table is None else table._values)
                expected = [sum(s * comb(r - k, j - k) * (-1) ** (j - k)
                                for k, s in enumerate(sums[:j + 1])) for j in range(r + 1)]
                assert _histogram(config, table) == expected, (vectors, table)
                for mode in MODES:
                    assert hstar(ZonotopeSpec(config, mode), table) == _assemble(expected, mode)
                draws += 1
    assert draws == 360


def test_passed_tables_sum_by_multiplicity_groups(monkeypatch):
    # Every table is summed over the groups of independent sets that share
    # m_I[j] = #{B containing I : |I u IP(B)| = j}.  The groups are built once
    # per configuration, by its first histogram (here the default table's),
    # and serve every passed table after it.  Each set lies in one group,
    # whose m a count over `bases()` and `internally_passive()` confirms, and
    # Stanley's sum in `ehrhart` reads no group, so it checks every sum.
    # Seeded tables of integers, rationals, zeros and negatives, on loops, a
    # parallel pair, rank below the dimension and draws up to d = 6, in both
    # modes.
    from zonoehrhart import matroid
    calls = []
    real_group = matroid._group
    monkeypatch.setattr(matroid, "_group", lambda *args: calls.append(1) or real_group(*args))
    rng = random.Random(29)
    configs = [VectorConfiguration([(1, 0), (0, 0), (0, 1), (1, 1), (0, 0)]),
               VectorConfiguration([(1, 2), (1, 2), (-2, 1), (0, 3)]),
               VectorConfiguration([(1, 2, 0), (2, 4, 0), (0, 1, 0), (3, -1, 0)]),
               VectorConfiguration([(0, 0, 0, 0, 0)] + [(1, -1, 0, 2, 1), (0, 1, 1, 0, -1),
                                                        (1, 0, 1, 2, 0), (2, 1, 0, 0, 1)])]
    for d, n in ((3, 5), (4, 7), (5, 7), (6, 8)):
        configs.append(VectorConfiguration(
            [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)], d))
    for config in configs:
        r = config.full_rank
        calls.clear()
        hstar(ZonotopeSpec(config))
        for case in range(6):
            values = {}
            for s in config.independent_sets():
                kind = 0 if case == 0 else rng.randrange(3 if case == 1 else 4)  # zeros, ints
                values[s] = (0, rng.randint(-4, -1), rng.randint(1, 5),
                             Fraction(rng.randint(-7, 7), rng.randint(2, 5)))[kind]
            table = BoxValuationTable(config, values)
            for mode in MODES:
                z = ZonotopeSpec(config, mode)
                assert ehrhart_from_hstar(hstar(z, table)) == ehrhart(z, table)
                if all(type(v) is int for v in values.values()):
                    assert hstar(z, table) == hstar_from_ehrhart(ehrhart(z, table), r)
        pieces = [(set(b), set(config.internally_passive(b))) for b in config.bases()]
        grouped = [(m, matroid._indices(s)) for m, masks in config._groups for s in masks]
        assert sorted(s for _, s in grouped) == sorted(config.independent_sets())
        for m, s in grouped:
            count = [0] * (r + 1)
            for basis, passive in pieces:
                if basis.issuperset(s):
                    count[len(passive.union(s))] += 1
            assert m == tuple(count), (config, s)
        assert len(calls) == 1, config


def test_spec_takes_only_a_configuration():
    for bad in ([(1, 0)], HEXAGON.vectors, None, "standard"):
        with pytest.raises(LatticeMathError, match="config must be a VectorConfiguration"):
            ZonotopeSpec(bad)
        with pytest.raises(LatticeMathError, match="config must be a VectorConfiguration"):
            ZonotopeSpec(bad, "typeB")


def test_hstar_type_b_parallelepiped_examples():
    segment = _parallelepiped([(1,)], "typeB")
    assert hstar_halfopen_parallelepiped(segment).h == (1, 1)
    assert hstar_halfopen_parallelepiped(_parallelepiped([(1, 0), (0, 1)], "typeB")).h == \
        (1, 6, 1)
    assert hstar_halfopen_parallelepiped(segment, (1,)).h == (0, 2)


def test_hstar_type_b_zonotope_examples():
    square = ZonotopeSpec(VectorConfiguration([(1, 0), (0, 1)]), "typeB")
    assert hstar_type_b_zonotope(square).h == (1, 6, 1)
    segment = ZonotopeSpec(VectorConfiguration([(1,)]), "typeB")
    assert hstar_type_b_zonotope(segment).h == (1, 1)
    hexagon = ZonotopeSpec(HEXAGON, "typeB")
    assert hstar_type_b_zonotope(hexagon) == hstar_via_oracle(hexagon)
    skewed = ZonotopeSpec(SKEW, "typeB")
    assert hstar_type_b_zonotope(skewed).h == (1, 10, 5)
    assert hstar_via_oracle(skewed).h == (1, 10, 5)


def test_type_b_matches_unit_cube_eulerian():
    for d in range(1, 6):
        units = VectorConfiguration(
            [tuple(1 if r == i else 0 for r in range(d)) for i in range(d)], d)
        z = ZonotopeSpec(units, "typeB")
        expected = HStarVector(eulerian_b(d).padded(d + 1), d)
        assert hstar_type_b_zonotope(z) == expected, d


def test_ehrhart_type_b_is_standard_at_doubled_dilate():
    z = ZonotopeSpec(HEXAGON, "typeB")
    assert ehrhart_type_b_zonotope(z) == Poly((1, 6, 12))
    assert hstar_from_ehrhart(Poly((1, 6, 12)), 2) == hstar_type_b_zonotope(z)


def test_mode_mismatch_errors():
    with pytest.raises(LatticeMathError):
        hstar_zonotope(ZonotopeSpec(HEXAGON, "typeB"))
    with pytest.raises(LatticeMathError):
        hstar_type_b_zonotope(ZonotopeSpec(HEXAGON))
    with pytest.raises(LatticeMathError):
        ZonotopeSpec(HEXAGON, "diag")


def test_express_in_eulerian_basis_examples():
    assert express_in_eulerian_basis(HStarVector((1, 4, 1))) == (1, 1, 1)
    assert express_in_eulerian_basis(HStarVector((1, 7, 0))) == (1, 3, 0)
    for d in range(1, 6):
        for j in range(1, d + 2):
            h = HStarVector(a_j_polynomial(d + 1, j).padded(d + 1), d)
            coords = express_in_eulerian_basis(h)
            assert coords == tuple(1 if i == j - 1 else 0 for i in range(d + 1))


def test_eulerian_coordinates_round_trip():
    # sum_j c_j A_j(d+1) rebuilds h, and a whole coordinate comes back as an int.
    rng = random.Random(61)
    for _ in range(300):
        d = rng.randint(0, 8)
        entries = [rng.randint(-9, 9) for _ in range(d + 1)]
        if rng.random() < 0.5:
            entries = [Fraction(x, rng.randint(1, 4)) for x in entries]
        h = HStarVector(entries, d)
        coords = express_in_eulerian_basis(h)
        rebuilt = sum((a_j_polynomial(d + 1, j) * c for j, c in enumerate(coords, 1)),
                      Poly())
        assert HStarVector.from_poly(rebuilt, d) == h
        assert all(type(c) is int or c.denominator > 1 for c in coords), coords


def test_is_in_zonotope_cone_examples():
    assert is_in_zonotope_cone(HStarVector((1, 4, 1)))
    assert not is_in_zonotope_cone(HStarVector((2, 0, 0)))
    assert not is_in_zonotope_cone(HStarVector((1, 0, 1)))
    assert express_in_eulerian_basis(HStarVector((1, 0, 1))) == (1, -1, 1)


def test_eulerian_ray_parallelepiped():
    z = eulerian_ray_parallelepiped(2, 3, 3)
    assert z.config.vectors == ((1, 0), (1, 4))
    assert hstar_zonotope(z).h == (1, 4, 3)
    z = eulerian_ray_parallelepiped(2, 2, 3)
    assert z.config.vectors == ((4, 0), (0, 1))
    assert hstar_zonotope(z).h == (1, 7, 0)
    for k in (2, 3, 4):
        assert hstar_zonotope(eulerian_ray_parallelepiped(3, k, 0)).h == \
            a_j_polynomial(4, 1).padded(4)
    with pytest.raises(LatticeMathError):
        eulerian_ray_parallelepiped(2, 4, 1)
    with pytest.raises(LatticeMathError):
        eulerian_ray_parallelepiped(2, 2, -1)
    with pytest.raises(LatticeMathError, match="k must be an integer"):
        eulerian_ray_parallelepiped(3, 2.0, 1)


def test_reflexive_examples():
    assert is_reflexive_by_ehrhart(Poly((1, 2, 2)), 2)
    assert not is_reflexive_by_ehrhart(Poly((1, 2, 1)), 2)
    assert is_reflexive_by_ehrhart(Poly((1, 3, 3)), 2)
    with pytest.raises(LatticeMathError, match="basis degree must be at least 0, got -1"):
        is_reflexive_by_ehrhart(Poly(), -1)


def _count_halfopen_parallelepiped(vectors, removed, n):
    """Inclusion-exclusion over closed faces; independent of the h* formulas."""
    from itertools import combinations
    total = 0
    base = list(vectors)
    for k in range(len(removed) + 1):
        for dropped in combinations(removed, k):
            kept = [v for i, v in enumerate(base, start=1) if i not in dropped]
            d = len(base[0])
            config = VectorConfiguration(kept, d)
            total += (-1) ** k * count_lattice_points(ZonotopeSpec(config), n)
    return total


def test_halfopen_dilation_counts_match_box_sums():
    # phi(n * halfopen(I)) = sum over supersets J of I of n^|J| phi(box(J))
    rng = random.Random(43)
    cases = 0
    while cases < 12:
        d = rng.randint(1, 3)
        vectors = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d)]
        config = VectorConfiguration(vectors, d)
        if config.full_rank != d:
            continue
        r = d
        removed = tuple(i for i in range(1, r + 1) if rng.random() < 0.5)
        removed_set = set(removed)
        for n in range(5):
            direct = _count_halfopen_parallelepiped(vectors, removed, n)
            from itertools import combinations
            predicted = 0
            for k in range(r + 1):
                for sup in combinations(range(1, r + 1), k):
                    if removed_set <= set(sup):
                        predicted += n ** len(sup) * config.minor_gcd(sup)
            assert direct == predicted, (vectors, removed, n)
        cases += 1


def test_halfopen_parallelepiped_hstar_matches_oracle():
    rng = random.Random(47)
    cases = 0
    while cases < 10:
        d = rng.randint(1, 3)
        vectors = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d)]
        config = VectorConfiguration(vectors, d)
        if config.full_rank != d:
            continue
        removed = tuple(i for i in range(1, d + 1) if rng.random() < 0.5)
        counts = [_count_halfopen_parallelepiped(vectors, removed, n)
                  for n in range(d + 2)]
        ehr = interpolate_ehrhart(counts, d)
        # The typeB body is a lattice translate of the doubled one: E at 2n.
        for mode, counting in (("standard", ehr), ("typeB", ehr.scale_argument(2))):
            assert hstar_halfopen_parallelepiped(ZonotopeSpec(config, mode), removed) == \
                hstar_from_ehrhart(counting, d), (vectors, removed, mode)
        cases += 1


def test_hstar_linear_in_box_table():
    rng = random.Random(53)
    for config, mode in ((HEXAGON, "standard"), (SKEW, "standard"),
                         (HEXAGON, "typeB"), (SKEW, "typeB")):
        z = ZonotopeSpec(config, mode)
        sets = config.independent_sets()
        t1 = BoxValuationTable(config, {s: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                        for s in sets})
        t2 = BoxValuationTable(config, {s: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                        for s in sets})
        alpha, beta = Fraction(2, 3), Fraction(-1, 2)
        combo = BoxValuationTable(
            config, {s: alpha * t1.value(s) + beta * t2.value(s) for s in sets})
        lhs = hstar(z, combo).poly()
        rhs = alpha * hstar(z, t1).poly() + beta * hstar(z, t2).poly()
        assert lhs == rhs, mode


def test_custom_table_override():
    table = default_box_table(SKEW).override({(1, 2): 0})
    assert hstar_zonotope(ZonotopeSpec(SKEW), table).h == (1, 1, 0)
    with pytest.raises(DependentSetError):
        default_box_table(SKEW).override({(3,): 1})
    with pytest.raises(LatticeMathError):
        hstar_zonotope(ZonotopeSpec(HEXAGON), table)  # table bound to SKEW
    with pytest.raises(DependentSetError):
        BoxValuationTable(SKEW, {s: 1 for s in (*SKEW.independent_sets(), (1, 2, 3))})


def test_hstar_independent_of_ground_order():
    # The decomposition into half-open pieces depends on the ground-set order,
    # but the assembled h* does not.
    rng = random.Random(59)
    for _ in range(15):
        d = rng.randint(1, 3)
        while True:
            config = VectorConfiguration(
                [tuple(rng.randint(-2, 2) for _ in range(d))
                 for _ in range(rng.randint(d, 5))], d)
            if config.full_rank == d:
                break
        forward = hstar_zonotope(ZonotopeSpec(config))
        backward = hstar_zonotope(ZonotopeSpec(VectorConfiguration(config.vectors[::-1], d)))
        assert forward == backward, config
        shuffled = list(config.vectors)
        rng.shuffle(shuffled)
        permuted = hstar_zonotope(ZonotopeSpec(VectorConfiguration(shuffled, d)))
        assert permuted == forward, (config, shuffled)


def test_hstar_unchanged_by_sign_loop_and_split():
    # Three changes of the generators that leave the zonotope a lattice
    # translate of itself, at d = 4..6 in both modes: negating one generator,
    # adding a zero generator (a loop) anywhere, and writing a generator 2w as
    # two copies of w, [0, 2w] = [0, w] + [0, w].
    rng = random.Random(163)
    for draw in range(18):
        d = 4 + draw % 3
        while True:
            vectors = [tuple(rng.randint(-2, 2) for _ in range(d))
                       for _ in range(rng.randint(d, d + 2))]
            if VectorConfiguration(vectors, d).full_rank == d:
                break
        i, k = rng.randrange(len(vectors)), rng.randrange(len(vectors))
        w, j = vectors[i], rng.randrange(len(vectors) + 1)
        doubled = vectors[:i] + [tuple(2 * x for x in w)] + vectors[i + 1:]
        negated = doubled[:k] + [tuple(-x for x in doubled[k])] + doubled[k + 1:]
        looped = doubled[:j] + [(0,) * d] + doubled[j:]
        split = vectors[:j] + [w] + vectors[j:]
        base = VectorConfiguration(doubled, d)
        for mode in MODES:
            h = hstar(ZonotopeSpec(base, mode))
            for changed in (negated, looped, split):
                assert hstar(ZonotopeSpec(VectorConfiguration(changed, d), mode)) == h, \
                    (doubled, changed, mode)


def test_public_names_are_not_modules():
    # `from zonoehrhart import *` binds the API, not the submodules.
    import types

    import zonoehrhart
    assert zonoehrhart.__all__
    assert not [name for name in zonoehrhart.__all__
                if isinstance(getattr(zonoehrhart, name), types.ModuleType)]
    assert {"hstar", "VectorConfiguration", "LatticeMathError"} <= set(zonoehrhart.__all__)
