import ast
import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd
from pathlib import Path

import pytest

import zonoehrhart.oracle
import zonoehrhart.polycore
from integer_reference import cofactor_normal, det_bareiss, is_independent
from zonoehrhart.errors import (EnumerationLimitError, InternalDisagreementError,
                                LatticeMathError, NotFullDimensionalError)
from zonoehrhart.matroid import VectorConfiguration
from zonoehrhart.oracle import (bounding_box, contains_point,
                                count_interior_lattice_points, count_lattice_points,
                                ehrhart_via_oracle, hstar_via_oracle, interpolate_ehrhart)
from zonoehrhart.polycore import Poly, hstar_from_ehrhart
from zonoehrhart.zonotope import ZonotopeSpec, ehrhart, hstar

HEXAGON = ZonotopeSpec(VectorConfiguration([(1, 0), (0, 1), (1, 1)]))
SKEW = ZonotopeSpec(VectorConfiguration([(1, 1), (1, -1)]))


def test_contains_point_examples():
    assert contains_point(HEXAGON, 1, (2, 1))
    assert contains_point(HEXAGON, 1, (2, 2))
    assert not contains_point(HEXAGON, 1, (3, 0))
    assert contains_point(HEXAGON, 0, (0, 0))
    assert not contains_point(HEXAGON, 0, (1, 0))


def test_contains_point_validation():
    with pytest.raises(LatticeMathError):
        contains_point(HEXAGON, 1, (1, 2, 3))
    with pytest.raises(LatticeMathError):
        contains_point(HEXAGON, -1, (0, 0))


@pytest.mark.parametrize("call, args", [
    pytest.param(contains_point, (HEXAGON, 0, (0.5, 0.5)), id="point-float"),
    pytest.param(contains_point, (HEXAGON, 0, ("1", "1")), id="point-str"),
    pytest.param(contains_point, (HEXAGON, 1, (Fraction(1, 2), 0)), id="point-fraction"),
    pytest.param(contains_point, (HEXAGON, 1, (True, 0)), id="point-bool"),
    pytest.param(contains_point, (HEXAGON, 1.5, (1, 1)), id="contains-dilate-float"),
    pytest.param(contains_point, (HEXAGON, True, (1, 1)), id="contains-dilate-bool"),
    pytest.param(bounding_box, (HEXAGON, -1), id="box-dilate-negative"),
    pytest.param(bounding_box, (HEXAGON, 0.5), id="box-dilate-float"),
    pytest.param(count_lattice_points, (HEXAGON, 1.5), id="count-dilate-float"),
    pytest.param(count_lattice_points, (HEXAGON, -1), id="count-dilate-negative"),
    pytest.param(count_interior_lattice_points, (HEXAGON, 1.0), id="interior-dilate-float"),
    pytest.param(interpolate_ehrhart, ([1, 7, 19], 2.0), id="degree-float"),
    pytest.param(interpolate_ehrhart, ([1, 7, 19], True), id="degree-bool"),
    pytest.param(interpolate_ehrhart, ([1, Fraction(7), 19], 2), id="count-fraction"),
])
def test_oracle_entry_points_take_integers_only(call, args):
    with pytest.raises(LatticeMathError):
        call(*args)


def test_count_examples():
    assert count_lattice_points(HEXAGON, 0) == 1
    assert count_lattice_points(HEXAGON, 1) == 7
    assert count_lattice_points(HEXAGON, 2) == 19
    assert [count_lattice_points(SKEW, n) for n in range(3)] == [1, 5, 13]


def test_count_type_b():
    square = ZonotopeSpec(VectorConfiguration([(1, 0), (0, 1)]), "typeB")
    assert [count_lattice_points(square, n) for n in range(3)] == [1, 9, 25]
    segment = ZonotopeSpec(VectorConfiguration([(2,)]), "typeB")
    assert [count_lattice_points(segment, n) for n in range(3)] == [1, 5, 9]


def test_interior_count_examples():
    # E(-n) = (-1)^d * interior(n): the hexagon's E(n) = 3n^2 + 3n + 1 gives 1, 7.
    assert [count_interior_lattice_points(HEXAGON, n) for n in (1, 2)] == [1, 7]
    assert [count_interior_lattice_points(SKEW, n) for n in (1, 2)] == [1, 5]
    square = ZonotopeSpec(VectorConfiguration([(1, 0), (0, 1)]), "typeB")
    assert [count_interior_lattice_points(square, n) for n in (1, 2)] == [1, 9]
    segment = ZonotopeSpec(VectorConfiguration([(2,)]), "typeB")
    assert [count_interior_lattice_points(segment, n) for n in (1, 2)] == [3, 7]
    # Below full rank the count is of the relative interior: equality rows stay.
    diagonal = ZonotopeSpec(VectorConfiguration([(1, 1)]))
    assert [count_interior_lattice_points(diagonal, n) for n in (1, 2, 3)] == [0, 1, 2]
    flat = ZonotopeSpec(VectorConfiguration([(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
    assert [count_interior_lattice_points(flat, n) for n in (1, 2)] == [1, 7]
    point = ZonotopeSpec(VectorConfiguration([], dim=0))
    assert count_interior_lattice_points(point, 3) == 1
    with pytest.raises(LatticeMathError):
        count_interior_lattice_points(HEXAGON, 0)
    huge = ZonotopeSpec(VectorConfiguration([(4000, 0), (0, 4000)]))
    with pytest.raises(EnumerationLimitError, match="enumeration guard"):
        count_interior_lattice_points(huge, 1)


def test_counts_invariant_under_unimodular_embedding():
    # (x, y) -> (x, y, x + y) maps Z^2 onto the lattice points of a plane in
    # Z^3, so closed and relative-interior counts both carry over.
    rng = random.Random(103)
    for _ in range(8):
        config = _random_full_rank(rng, 2)
        lifted = VectorConfiguration([(x, y, x + y) for x, y in config.vectors], 3)
        for mode in ("standard", "typeB"):
            flat, tilted = ZonotopeSpec(config, mode), ZonotopeSpec(lifted, mode)
            for n in (1, 2):
                assert count_lattice_points(tilted, n) == count_lattice_points(flat, n)
                assert (count_interior_lattice_points(tilted, n)
                        == count_interior_lattice_points(flat, n)), (config, mode, n)


def test_resource_guard():
    huge = ZonotopeSpec(VectorConfiguration([(4000, 0), (0, 4000)]))
    with pytest.raises(EnumerationLimitError):
        count_lattice_points(huge, 1)


def test_bounding_box_sign_decomposition():
    box = bounding_box(SKEW, 2)
    assert box == [(0, 4), (-2, 2)]
    box = bounding_box(ZonotopeSpec(SKEW.config, "typeB"), 1)
    assert box == [(-2, 2), (-2, 2)]


def test_interpolate_examples():
    assert interpolate_ehrhart([1, 7, 19], 2) == Poly((1, 3, 3))
    assert interpolate_ehrhart([1, 5, 13], 2) == Poly((1, 2, 2))
    assert interpolate_ehrhart([1, 1, 1], 0) == Poly((1,))
    assert interpolate_ehrhart([1, 1, 1], 2) == Poly((1,))


def test_interpolate_guards():
    with pytest.raises(LatticeMathError):
        interpolate_ehrhart([1, 7], 2)
    with pytest.raises(LatticeMathError, match=r"count at n=3 is 38\b"):
        interpolate_ehrhart([1, 7, 19, 38], 2)  # 38 is off the polynomial


def test_interpolate_is_exact_on_seeded_polynomials():
    rng = random.Random(107)
    for _ in range(60):
        r = rng.randint(0, 6)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(r + 1)]
        p = Poly(coeffs)
        scale = 1
        for c in coeffs:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        values = [int(scale * p(n)) for n in range(r + 1 + rng.randint(1, 2))]
        assert interpolate_ehrhart(values, r) == p * scale
        # A count off the polynomial, at either extra node, is refused.
        off = rng.randrange(r + 1, len(values))
        values[off] += rng.choice((-1, 1)) * rng.randint(1, 5)
        got = Fraction(scale) * p(off)
        with pytest.raises(LatticeMathError, match=rf"^count at n={off} is {values[off]}, "
                           rf"but the degree-{r} interpolant gives {got}; the degree was "
                           rf"underestimated$"):
            interpolate_ehrhart(values, r)


def test_hstar_via_oracle_examples():
    assert hstar_via_oracle(HEXAGON).h == (1, 4, 1)
    assert hstar_via_oracle(SKEW).h == (1, 2, 1)
    square_b = ZonotopeSpec(VectorConfiguration([(1, 0), (0, 1)]), "typeB")
    assert hstar_via_oracle(square_b).h == (1, 6, 1)
    with pytest.raises(NotFullDimensionalError):
        hstar_via_oracle(ZonotopeSpec(VectorConfiguration([(1, 0), (2, 0)])))


def _random_full_rank(rng, d, n_max=4):
    while True:
        n = rng.randint(d, n_max)
        config = VectorConfiguration(
            [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)], d)
        if config.full_rank == d:
            return config


def _random_of_rank(rng, d, rank, m_max):
    """Seeded configuration of the given rank in Z^d with at most m_max
    generators besides one possible loop."""
    while True:
        basis = [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(rank)]
        m = rng.randint(max(rank, 1), m_max)
        vectors = [tuple(sum(rng.randint(-1, 1) * b[i] for b in basis) for i in range(d))
                   for _ in range(m)]
        if rng.random() < 0.5:
            vectors.insert(rng.randint(0, m), (0,) * d)
        config = VectorConfiguration(vectors, d)
        if config.full_rank == rank:
            return config


def test_counts_monotone_and_positive():
    rng = random.Random(61)
    for _ in range(10):
        z = ZonotopeSpec(_random_full_rank(rng, rng.randint(1, 2)))
        counts = [count_lattice_points(z, n) for n in range(4)]
        assert counts[0] == 1
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_counts_invariant_under_generator_permutation():
    rng = random.Random(67)
    for _ in range(8):
        config = _random_full_rank(rng, 2)
        shuffled = list(config.vectors)
        rng.shuffle(shuffled)
        z1, z2 = ZonotopeSpec(config), ZonotopeSpec(VectorConfiguration(shuffled, 2))
        for n in range(3):
            assert count_lattice_points(z1, n) == count_lattice_points(z2, n)


def test_counts_invariant_under_generator_negation():
    # Negating a generator translates the standard body, preserving counts.
    rng = random.Random(71)
    for _ in range(8):
        config = _random_full_rank(rng, 2)
        flipped = [tuple(-x for x in v) if i == 0 else v
                   for i, v in enumerate(config.vectors)]
        z1 = ZonotopeSpec(config)
        z2 = ZonotopeSpec(VectorConfiguration(flipped, 2))
        for n in range(3):
            assert count_lattice_points(z1, n) == count_lattice_points(z2, n)


def test_type_b_membership_invariant_under_negation():
    # The [-1,1]-coefficient body itself is unchanged by negating a generator.
    rng = random.Random(73)
    for _ in range(5):
        config = _random_full_rank(rng, 2)
        flipped = VectorConfiguration(
            [tuple(-x for x in v) if i == 0 else v
             for i, v in enumerate(config.vectors)], 2)
        z1 = ZonotopeSpec(config, "typeB")
        z2 = ZonotopeSpec(flipped, "typeB")
        box = bounding_box(z1, 1)
        for x in range(box[0][0], box[0][1] + 1):
            for y in range(box[1][0], box[1][1] + 1):
                assert contains_point(z1, 1, (x, y)) == contains_point(z2, 1, (x, y))


def test_point_zonotope():
    point = ZonotopeSpec(VectorConfiguration([], dim=0))
    assert count_lattice_points(point, 5) == 1
    assert hstar_via_oracle(point).h == (1,)


def test_loop_generators_are_harmless():
    z = ZonotopeSpec(VectorConfiguration([(0, 0), (1, 0), (0, 1)]))
    assert [count_lattice_points(z, n) for n in range(3)] == [1, 4, 9]
    assert hstar_via_oracle(z).h == (1, 1, 0)


def _naive_member(z, n, point):
    """From-scratch rational Fourier-Motzkin over all coefficient variables.

    Equalities enter as opposite inequality pairs and nothing is cached or
    precompiled, so this is an independent check of the library's membership.
    """
    from fractions import Fraction

    vectors = z.config.vectors
    d, m = z.config.dim, z.config.n
    lo = -n if z.mode == "typeB" else 0
    # rows: (coeffs over lam, const) meaning coeffs . lam <= const
    rows = []
    for r in range(d):
        coeffs = [Fraction(vectors[c][r]) for c in range(m)]
        rows.append((coeffs, Fraction(point[r])))
        rows.append(([-x for x in coeffs], Fraction(-point[r])))
    for i in range(m):
        unit = [Fraction(1 if j == i else 0) for j in range(m)]
        rows.append((unit, Fraction(n)))
        rows.append(([-x for x in unit], Fraction(-lo)))
    for var in range(m):
        pos = [(c, b) for c, b in rows if c[var] > 0]
        neg = [(c, b) for c, b in rows if c[var] < 0]
        rest = [(c, b) for c, b in rows if c[var] == 0]
        for cp, bp in pos:
            for cn, bn in neg:
                scale = -cp[var] / cn[var]
                combined = [x + scale * y for x, y in zip(cp, cn)]
                rest.append((combined, bp + scale * bn))
        rows = rest
    return all(b >= 0 for _, b in rows)


def test_membership_against_naive_elimination():
    rng = random.Random(79)
    for _ in range(20):
        d = rng.randint(1, 2)
        m = rng.randint(1, 4)
        config = VectorConfiguration(
            [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(m)], d)
        mode = rng.choice(["standard", "typeB"])
        z = ZonotopeSpec(config, mode)
        n = rng.randint(0, 2)
        box = bounding_box(z, n)
        points = [tuple(rng.randint(lo - 1, hi + 1) for lo, hi in box)
                  for _ in range(25)]
        for p in points:
            assert contains_point(z, n, p) == _naive_member(z, n, p), (config, mode, n, p)
    rng = random.Random(83)
    for draw in range(24):
        rank = draw % 3 + 1
        mode = ("standard", "typeB")[draw // 3 % 2]
        config = _random_of_rank(rng, 3, rank, 3)
        z = ZonotopeSpec(config, mode)
        n = rng.randint(0, 2)
        box = bounding_box(z, n)
        low = -n if mode == "typeB" else 0
        # Box points are mostly off the span when rank < 3; integer
        # combinations of the generators lie on it, in and out of the body.
        points = [tuple(rng.randint(lo - 1, hi + 1) for lo, hi in box)
                  for _ in range(10)]
        for _ in range(15):
            coeffs = [rng.randint(low - 1, n + 1) for _ in config.vectors]
            points.append(tuple(sum(c * v[i] for c, v in zip(coeffs, config.vectors))
                                for i in range(3)))
        for p in points:
            assert contains_point(z, n, p) == _naive_member(z, n, p), (config, mode, n, p)


def _cofactor_rows(config, type_b):
    """The inequality rows lo < hi of the zonotope, each facet normal the
    cofactor normal of r-1 independent generators together with a basis of
    the complement of their span; the basis is itself made of cofactor
    normals of a completion of the span by unit vectors."""
    def extend(chosen, candidates):
        for v in candidates:
            if is_independent(chosen + [v]):
                chosen = chosen + [v]
        return chosen

    d = config.dim
    gens = [v for v in config.vectors if any(v)]
    span = extend([], gens)
    r = len(span)
    completion = extend(span, [tuple(int(i == j) for j in range(d)) for i in range(d)])[r:]
    complement = [cofactor_normal(span + completion[:k] + completion[k + 1:], d)
                  for k in range(d - r)]
    rows = set()
    for subset in combinations(gens, r - 1) if r else ():
        u = cofactor_normal(list(subset) + complement, d)
        if any(u):
            dots = [sum(a * b for a, b in zip(u, v)) for v in gens]
            spread = sum(map(abs, dots))
            rows.add((u, -spread, spread) if type_b else
                     (u, sum(t for t in dots if t < 0), sum(t for t in dots if t > 0)))
    return sorted(rows)


def test_compiled_rows_are_the_cofactor_facets():
    # Every inequality row is a facet, found exactly once: no redundant
    # supporting row from a dependent subset.  The equality rows are d - r
    # independent vectors orthogonal to every generator.  Every row ends in a
    # positive entry, as the sweep needs.
    rng = random.Random(131)
    for draw in range(150):
        d = draw % 5 + 1
        rank = rng.randint(0, d)
        config = _random_of_rank(rng, d, rank, d + 2)
        vectors = list(config.vectors)
        if rank:
            k, v = rng.choice((-2, -1, 1)), rng.choice(vectors)
            vectors.append(tuple(k * x for x in v))  # a parallel element
        config = VectorConfiguration(vectors, d)
        for mode in ("standard", "typeB"):
            member = zonoehrhart.oracle._Membership(ZonotopeSpec(config, mode))
            assert member.rank == rank
            assert [row for row in member.rows if row[1] < row[2]] == \
                _cofactor_rows(config, mode == "typeB"), (config, mode)
            equalities = [u for u, lo, hi in member.rows if lo == hi]
            assert len(equalities) == d - rank and is_independent(equalities), config
            assert all(sum(a * b for a, b in zip(w, v)) == 0
                       for w in equalities for v in vectors), config
            assert all(next(x for x in reversed(u) if x) > 0 for u, _, _ in member.rows)


def _swept_and_pointwise(z, n):
    """count_lattice_points(z, n) and, for n >= 1,
    count_interior_lattice_points(z, n); and the same counts taken point by
    point over the bounding box with the compiled rows' membership test,
    closed and strict."""
    member = zonoehrhart.oracle._Membership(z)
    points = list(product(*(range(lo, hi + 1) for lo, hi in bounding_box(z, n))))
    swept = [count_lattice_points(z, n)]
    pointwise = [sum(member.test(n, p) for p in points)]
    if n:
        swept.append(count_interior_lattice_points(z, n))
        pointwise.append(sum(member.test(n, p, strict=True) for p in points))
    return swept, pointwise


def _box_points(z, n):
    size = 1
    for lo, hi in bounding_box(z, n):
        size *= hi - lo + 1
    return size


def test_sweep_matches_pointwise_membership():
    # Every (d, n) pair for d = 1..3 and n = 0..3, at full rank, rank d-1 and
    # rank d-2 (floored at 0); boxes above 1500 points are redrawn only
    # to bound the pointwise side.
    rng = random.Random(89)
    for draw in range(36):
        d, n, drop = draw % 3 + 1, draw // 3 % 4, draw // 12
        while True:
            config = _random_of_rank(rng, d, max(d - drop, 0), 3)
            z = ZonotopeSpec(config, rng.choice(["standard", "typeB"]))
            if _box_points(z, n) <= 1500:
                break
        swept, pointwise = _swept_and_pointwise(z, n)
        assert swept == pointwise, (config, z.mode, n)
    # The half sweep, for d = 0..4: of the N heads (x_1, ..., x_{d-1}) of
    # the box, in row-major order, it sweeps the first floor(N/2) twice and
    # the middle one, if N is odd, once.  With c = box lo + box hi, the
    # depth is the number of leading even c_k among the head coordinates:
    # the half ends after a whole run of x_{d-1} below depth d-2, part way
    # along one at depth d-2, and at the middle head, the centre, at depth
    # d-1.  Each depth is drawn twice, in both modes where the centre line
    # is swept (typeB boxes are centred on 0).
    rng = random.Random(97)
    for d in range(5):
        heads = max(d - 1, 0)
        for depth in range(heads + 1):
            modes = ("standard", "typeB") if depth == heads else ("standard",) * 2
            for mode in modes:
                while True:
                    config = _random_of_rank(rng, d, rng.randint(max(d - 2, 0), d), 4)
                    z = ZonotopeSpec(config, mode)
                    n = rng.randint(1, 3)
                    centre = [lo + hi for lo, hi in bounding_box(z, n)][:heads]
                    leading_even = next((k for k, c in enumerate(centre) if c % 2), heads)
                    if leading_even == depth and _box_points(z, n) <= 1500:
                        break
                swept, pointwise = _swept_and_pointwise(z, n)
                assert swept == pointwise, (config, mode, n)


def test_half_sweep_rejects_an_off_centre_row(monkeypatch):
    # The half sweep counts each line for its mirror image too, which holds
    # only while every row is centred on the bounding box.
    compile_rows = zonoehrhart.oracle._Membership.__init__

    def off_centre(self, z):
        compile_rows(self, z)
        (u, lo, hi), *rest = self.rows
        self.rows = ((u, lo, hi + 1), *rest)

    monkeypatch.setattr(zonoehrhart.oracle._Membership, "__init__", off_centre)
    with pytest.raises(InternalDisagreementError):
        count_lattice_points(HEXAGON, 2)
    with pytest.raises(InternalDisagreementError):
        hstar_via_oracle(ZonotopeSpec(HEXAGON.config, "typeB"))


def test_oracle_matches_formula_at_d4():
    # A check past the acceptance corpus, which stops at d = 3.
    rng = random.Random(101)
    checked = 0
    while checked < 8:
        config = VectorConfiguration(
            [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(5)], 4)
        if config.full_rank < 4:
            continue
        for mode in ("standard", "typeB"):
            z = ZonotopeSpec(config, mode)
            assert hstar_via_oracle(z) == hstar(z), (config, mode)
        checked += 1


def _small_of_rank(rng, d, rank, m_max):
    """Seeded configuration in Z^d with entries in [-1, 1] spanning the given
    rank: generators drawn in Z^rank until they span it, lifted by the
    coordinates x_1..x_rank and d - rank more of the form +-x_j in shuffled
    order, with one possible loop."""
    while True:
        low = [[rng.randint(-1, 1) for _ in range(rank)]
               for _ in range(rng.randint(max(rank, 1), m_max))]
        if VectorConfiguration(low, rank).full_rank == rank:
            break
    rows = [(j, 1) for j in range(rank)] + [
        (rng.randrange(rank), rng.choice((-1, 1))) if rank else (0, 0)
        for _ in range(d - rank)]
    rng.shuffle(rows)
    vectors = [tuple(s * w[j] if s else 0 for j, s in rows) for w in low]
    if rng.random() < 0.5:
        vectors.insert(rng.randint(0, len(vectors)), (0,) * d)
    return VectorConfiguration(vectors, d)


def test_reciprocity_path_equals_counting_path():
    # ehrhart_via_oracle reads h* of the rank r, not the ambient dimension
    # d, from closed counts at dilates 0..ceil((r+1)/2) and interior counts
    # at 1..floor((r+1)/2); the plain path interpolates closed counts at
    # dilates 0..r+1.  Ten draws for each d = 0..4, rank 0..d and mode: 300,
    # of which 120 have d - r odd, where (-1)^r and (-1)^d differ.
    rng = random.Random(109)
    for d in range(5):
        for rank in range(d + 1):
            for mode in ("standard", "typeB"):
                for _ in range(10):
                    z = ZonotopeSpec(_small_of_rank(rng, d, rank, rank + 2), mode)
                    counts = [count_lattice_points(z, n) for n in range(rank + 2)]
                    plain = interpolate_ehrhart(counts, rank)
                    assert ehrhart_via_oracle(z) == plain == ehrhart(z), (z.config, mode)
                    if rank == d:
                        assert hstar_via_oracle(z) == hstar_from_ehrhart(plain, d)


def _counted_dilates(rank):
    """(dilate, strict) of every count the oracle takes at the given rank."""
    return ([(n, False) for n in range((rank + 2) // 2 + 1)]
            + [(k, True) for k in range(1, (rank + 1) // 2 + 1)])


def test_a_count_off_the_polynomial_raises(monkeypatch):
    # One count moved by 1, closed or interior, at any counted dilate: the
    # two ends of h* then disagree on their shared entry, for d = 1..4.
    count = zonoehrhart.oracle._count
    rng = random.Random(137)
    for d in range(1, 5):
        for mode in ("standard", "typeB"):
            z = ZonotopeSpec(_small_of_rank(rng, d, d, d + 1), mode)
            counted = []
            monkeypatch.setattr(zonoehrhart.oracle, "_count", lambda member, n, strict=False:
                                counted.append((n, strict)) or count(member, n, strict))
            hstar_via_oracle(z)
            assert counted == _counted_dilates(d)
            for target in counted:
                def off_by_one(member, n, strict=False, target=target):
                    return count(member, n, strict) + ((n, strict) == target)

                monkeypatch.setattr(zonoehrhart.oracle, "_count", off_by_one)
                for call in (hstar_via_oracle, ehrhart_via_oracle):
                    with pytest.raises(InternalDisagreementError, match="polynomial of degree"):
                        call(z)
                monkeypatch.setattr(zonoehrhart.oracle, "_count", count)
            assert hstar_via_oracle(z) == hstar(z), (z.config, mode)


def test_rank_zero_bodies(monkeypatch):
    # A body of rank 0 is a point.  The oracle counts closed dilates 0 and 1
    # only; h* = (1) keeps its one entry, and h*_1 = E(1) - E(0) = 0 is the
    # entry both ends share, so it guards the degree.
    count = zonoehrhart.oracle._count
    counted = []
    monkeypatch.setattr(zonoehrhart.oracle, "_count", lambda member, n, strict=False:
                        counted.append((n, strict)) or count(member, n, strict))
    loops = VectorConfiguration([(0, 0), (0, 0)])
    for config in (VectorConfiguration([], dim=0), VectorConfiguration([], dim=3), loops):
        for mode in ("standard", "typeB"):
            counted.clear()
            z = ZonotopeSpec(config, mode)
            h = zonoehrhart.oracle._hstar(zonoehrhart.oracle._Membership(z))
            assert (h.h, h.d) == ((1,), 0)
            assert counted == [(0, False), (1, False)]
            assert ehrhart_via_oracle(z) == Poly((1,))
    assert hstar_via_oracle(ZonotopeSpec(VectorConfiguration([], dim=0))).h == (1,)
    with pytest.raises(NotFullDimensionalError):
        hstar_via_oracle(ZonotopeSpec(loops))
    monkeypatch.setattr(zonoehrhart.oracle, "_count",
                        lambda m, n, strict=False: count(m, n, strict) + (n == 1))
    with pytest.raises(InternalDisagreementError, match=r"h\*_1 is 1 .* degree 0"):
        ehrhart_via_oracle(ZonotopeSpec(loops))


def test_oracle_hstar_needs_no_interpolation(monkeypatch):
    # h* comes from the counts in integers, through the private binomial sum;
    # neither interpolation nor the public transform of a polynomial is on
    # its path.
    def refuse(*args):
        raise AssertionError("called on the oracle's h* path")

    monkeypatch.setattr(zonoehrhart.oracle, "interpolate_ehrhart", refuse)
    monkeypatch.setattr(zonoehrhart.polycore, "hstar_from_ehrhart", refuse)
    monkeypatch.setattr(zonoehrhart.oracle, "hstar_from_ehrhart", refuse, raising=False)
    rng = random.Random(139)
    for d in range(4):
        for mode in ("standard", "typeB"):
            z = ZonotopeSpec(_small_of_rank(rng, d, d, d + 2), mode)
            assert hstar_via_oracle(z) == hstar(z), (z.config, mode)
            assert ehrhart_via_oracle(z) == ehrhart(z), (z.config, mode)


def test_oracle_matches_formula_at_d5():
    # Past the reach of dilates 0..d+1: the plain path hits the 10^7-point
    # box guard on some of these draws.  Every draw must complete.
    rng = random.Random(113)
    for mode, n, draws in (("standard", 6, 6), ("typeB", 5, 4)):
        checked = 0
        while checked < draws:
            config = VectorConfiguration(
                [tuple(rng.randint(-1, 1) for _ in range(5)) for _ in range(n)], 5)
            if config.full_rank < 5:
                continue
            z = ZonotopeSpec(config, mode)
            assert hstar_via_oracle(z) == hstar(z), (config, mode)
            checked += 1


def test_closed_forms_at_d6():
    # Past the full oracle: h*_1 = E(1) - d - 1, h*_d = interior(1), and
    # h*(1) = d! vol(Z) = d! * sum_B |det B|, times 2^d in typeB mode.
    rng = random.Random(127)
    d, checked = 6, 0
    while checked < 4:
        config = VectorConfiguration(
            [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(8)], d)
        if config.full_rank < d:
            continue
        z = ZonotopeSpec(config)
        h = hstar(z).h
        assert h[1] == count_lattice_points(z, 1) - d - 1, config
        assert h[d] == count_interior_lattice_points(z, 1), config
        volume = sum(abs(det_bareiss([config.vectors[i - 1] for i in basis]))
                     for basis in config.bases())
        assert sum(h) == factorial(d) * volume, config
        assert sum(hstar(ZonotopeSpec(config, "typeB")).h) == 2**d * factorial(d) * volume
        checked += 1


def test_oracle_stays_formula_independent():
    """The oracle is ground truth for the formula, so it must share none of it."""
    tree = ast.parse(Path(zonoehrhart.oracle.__file__).read_text())
    allowed = {"_linalg": None, "errors": None, "polycore": None,
               "zonotope": {"ZonotopeSpec"}}
    forbidden = {"minor_gcd", "default_box_table", "BoxValuationTable", "eulerian"}
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
            assert not any(a.name.split(".")[0] == "zonoehrhart" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            named.update(names)
            if node.level == 0:
                assert node.module.split(".")[0] != "zonoehrhart", node.module
            elif node.module is None:
                assert names <= {"_linalg"}, names
            else:
                assert node.module in allowed, node.module
                assert allowed[node.module] is None or names <= allowed[node.module]
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not named & forbidden, named & forbidden
