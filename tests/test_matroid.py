import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from integer_reference import det_bareiss, is_independent
from zonoehrhart.errors import (DependentSetError, EnumerationLimitError,
                                LatticeMathError)
from zonoehrhart.matroid import VectorConfiguration, _mask

HEXAGON = VectorConfiguration([(1, 0), (0, 1), (1, 1)])


def test_rank_examples():
    assert HEXAGON.rank(()) == 0
    assert HEXAGON.rank((1, 2, 3)) == 2
    loopy = VectorConfiguration([(0, 0)])
    assert loopy.rank((1,)) == 0
    assert VectorConfiguration([(2, 0)]).rank((1,)) == 1


def test_index_set_validation():
    with pytest.raises(LatticeMathError):
        HEXAGON.rank((0,))
    with pytest.raises(LatticeMathError):
        HEXAGON.rank((1, 1))
    with pytest.raises(LatticeMathError):
        HEXAGON.rank((4,))


def test_independent_sets():
    assert set(HEXAGON.independent_sets()) == \
        {(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)}
    assert VectorConfiguration([(0, 0)]).independent_sets() == ((),)
    assert set(VectorConfiguration([(2, 0)]).independent_sets()) == {(), (1,)}


def test_bases_lex_order():
    assert HEXAGON.bases() == ((1, 2), (1, 3), (2, 3))
    assert VectorConfiguration([(1, 0), (2, 0), (0, 1)]).bases() == ((1, 3), (2, 3))
    assert VectorConfiguration([(1, 0)]).bases() == ((1,),)
    # Rank-zero configuration: the empty set is the unique basis.
    assert VectorConfiguration([(0, 0)]).bases() == ((),)


def test_minor_gcd_examples():
    assert HEXAGON.minor_gcd(()) == 1
    assert VectorConfiguration([(1, 1), (1, -1)]).minor_gcd((1, 2)) == 2
    assert VectorConfiguration([(2, 4)]).minor_gcd((1,)) == 2
    with pytest.raises(DependentSetError):
        VectorConfiguration([(1, 0), (2, 0)]).minor_gcd((1, 2))
    # A loop, and more columns than rows: every maximal minor is 0 (or there
    # is none), so the minors alone reject them.
    with pytest.raises(DependentSetError):
        VectorConfiguration([(0, 0)]).minor_gcd((1,))
    with pytest.raises(DependentSetError):
        HEXAGON.minor_gcd((1, 2, 3))


def test_internally_passive_examples():
    assert HEXAGON.internally_passive((1, 2)) == ()
    assert HEXAGON.internally_passive((1, 3)) == (3,)
    assert HEXAGON.internally_passive((2, 3)) == (2, 3)
    assert VectorConfiguration([(1, 0)]).internally_passive((1,)) == ()
    with pytest.raises(DependentSetError):
        HEXAGON.internally_passive((1,))


def test_lex_minimal_basis_has_no_passive_elements():
    rng = random.Random(17)
    for _ in range(50):
        config = _random_config(rng, d=rng.randint(1, 3), n=rng.randint(1, 6))
        bases = config.bases()
        if bases and bases[0]:
            assert config.internally_passive(bases[0]) == ()


def test_min_basis_containing_examples():
    assert HEXAGON.min_basis_containing((3,)) == (1, 3)
    assert HEXAGON.min_basis_containing((2, 3)) == (2, 3)
    assert HEXAGON.min_basis_containing(()) == (1, 2)
    with pytest.raises(DependentSetError):
        VectorConfiguration([(1, 0), (2, 0)]).min_basis_containing((1, 2))


def test_coloop_free_examples():
    assert HEXAGON.is_coloop_free()
    assert not VectorConfiguration([(1, 0), (0, 1)]).is_coloop_free()
    assert VectorConfiguration([(1, 0), (2, 0)]).is_coloop_free()


def _random_config(rng, d, n, low=-2, high=2):
    return VectorConfiguration(
        [tuple(rng.randint(low, high) for _ in range(d)) for _ in range(n)], d)


def _check_exchange_lemmas(config):
    """Exhaustive (I, B) verification of the exchange and fiber properties."""
    independents = config.independent_sets()
    bases = config.bases()
    ip = {b: set(config.internally_passive(b)) for b in bases}
    closure = {s: config.min_basis_containing(s) for s in independents}
    # The enumeration and both lookups agree with their definitions, computed
    # here from Gram determinants, which share no code with the library's rank.
    reference = {c for k in range(min(config.n, config.dim) + 1)
                 for c in combinations(range(1, config.n + 1), k)
                 if is_independent([config.vectors[i - 1] for i in c])}
    assert set(independents) == reference, config
    r = max(map(len, reference))
    rank_bases = sorted(c for c in reference if len(c) == r)
    assert sorted(bases) == rank_bases, config
    for b in bases:
        expected = {i for i in b
                    if any(tuple(sorted(set(b) - {i} | {j})) in reference
                           for j in range(1, i) if j not in b)}
        assert ip[b] == expected, (config, b)
    for s in independents:
        expected = min(c for c in rank_bases if set(s) <= set(c))
        assert closure[s] == expected, (config, s)
    for s in independents:
        s_set = set(s)
        for b in bases:
            if not s_set <= set(b):
                continue
            # min completing basis is b exactly when IP(b) is inside s
            assert (closure[s] == b) == (ip[b] <= s_set), (config, s, b)
            # otherwise some passive element of b can be removed around s
            if closure[s] != b:
                assert any(i not in s_set for i in ip[b]), (config, s, b)
    # The fibers of s -> min_basis_containing(s) partition the independent sets.
    fiber_total = 0
    for b in bases:
        fiber = {s for s in independents if closure[s] == b}
        expected = {tuple(sorted(ip[b] | set(extra)))
                    for k in range(len(b) - len(ip[b]) + 1)
                    for extra in combinations(sorted(set(b) - ip[b]), k)}
        assert fiber == expected, (config, b)
        fiber_total += len(fiber)
    assert fiber_total == len(independents)


def test_exchange_lemmas_random_configs():
    rng = random.Random(23)
    for _ in range(120):
        d = rng.randint(1, 4)
        n = rng.randint(1, 7)
        _check_exchange_lemmas(_random_config(rng, d, n))


def _reversed(config):
    """The same vectors listed backwards: the reversed matroid order."""
    return VectorConfiguration(config.vectors[::-1], config.dim)


def _flip(s, n):
    """Relabel an index set by i -> n + 1 - i, between a list and its reversal."""
    return tuple(sorted(n + 1 - i for i in s))


def test_exchange_lemmas_reversed_list():
    rng = random.Random(29)
    for _ in range(40):
        config = _random_config(rng, rng.randint(1, 3), rng.randint(1, 6))
        _check_exchange_lemmas(_reversed(config))


def test_reversed_list_passive_sets():
    # The reversed list answers for the reversed order, relabelled.
    skew = VectorConfiguration([(1, 0), (2, 0), (0, 1)])
    for config, passive in ((HEXAGON, {(1, 2): (1, 2), (2, 3): ()}),
                            (skew, {(1, 3): (1,), (2, 3): ()})):
        rev, n = _reversed(config), config.n
        for b, expected in passive.items():
            assert rev.internally_passive(_flip(b, n)) == _flip(expected, n)
        assert rev.bases()[0] == _flip((2, 3), n)
        assert rev.min_basis_containing(()) == _flip((2, 3), n)


def test_coloop_free_passive_cover():
    # Every element of a basis of a coloop-free configuration is passive in at
    # least one of the two orderings.
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        config = _random_config(rng, rng.randint(1, 3), rng.randint(2, 6))
        if not config.is_coloop_free():
            continue
        rev, n = _reversed(config), config.n
        for b in config.bases():
            fwd = set(config.internally_passive(b))
            bwd = set(_flip(rev.internally_passive(_flip(b, n)), n))
            assert fwd | bwd == set(b), (config, b)
        checked += 1
    assert checked > 30


def _random_unimodular_matrix(rng, d):
    """Product of random elementary integer matrices; determinant +-1."""
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(6):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(d):
            m[i][k] += c * m[j][k]
    return m


def test_minor_gcd_invariant_under_unimodular_row_ops():
    rng = random.Random(37)
    for _ in range(60):
        d = rng.randint(1, 3)
        n = rng.randint(1, 5)
        config = _random_config(rng, d, n, low=-3, high=3)
        u = _random_unimodular_matrix(rng, d)
        transformed = VectorConfiguration(
            [tuple(sum(u[r][k] * v[k] for k in range(d)) for r in range(d))
             for v in config.vectors], d)
        assert transformed.independent_sets() == config.independent_sets()
        for s in config.independent_sets():
            assert transformed.minor_gcd(s) == config.minor_gcd(s), (config, u, s)


def test_duplicate_vectors_are_parallel_elements():
    config = VectorConfiguration([(1, 0), (1, 0), (0, 1)])
    assert config.bases() == ((1, 3), (2, 3))
    assert config.internally_passive((2, 3)) == (2,)


def test_generator_entries_must_be_integers():
    # Checked before anything is stored: no entry is truncated or parsed.
    for bad in (Fraction(7, 2), 1.5, "3", True):
        with pytest.raises(LatticeMathError, match="generator entries must be integers"):
            VectorConfiguration([(bad, 0), (0, 1)])
    assert VectorConfiguration([(-7, 0), (0, 1)]).vectors == ((-7, 0), (0, 1))


def test_dimension_must_be_a_nonnegative_integer():
    for bad in (1.5, -1, True, "2", Fraction(2)):
        with pytest.raises(LatticeMathError, match="dimension must be a nonnegative integer"):
            VectorConfiguration([], bad)
    assert VectorConfiguration([], 0).full_rank == 0
    assert VectorConfiguration([(1, 0)], 2).dim == 2
    # Without a dimension, the first generator's length is the one required.
    for vectors, dim, length in (([(1, 0), (0, 1)], 3, 3), ([(1, 0), (1,)], None, 2)):
        with pytest.raises(LatticeMathError, match=f"every generator must have length {length}"):
            VectorConfiguration(vectors, dim)


def test_empty_configuration_needs_dimension():
    with pytest.raises(LatticeMathError):
        VectorConfiguration([])
    empty = VectorConfiguration([], dim=2)
    assert empty.rank() == 0
    assert empty.bases() == ((),)


def _reference_minor_gcd(config, s):
    """gcd of all maximal minors of the selected columns; 0 when dependent."""
    g = 0
    for rows in combinations(range(config.dim), len(s)):
        g = gcd(g, det_bareiss(
            [[config.vectors[i - 1][r] for i in s] for r in rows]))
    return g


def _gcd_test_configs(rng):
    """Seeded configurations for d = 1..6 with gcds above 1, parallel
    elements, loops and the reversed order among them."""
    for d in range(1, 7):
        for _ in range(1 if d > 4 else 3):
            config = _random_config(rng, d, rng.randint(d, d + 1), low=-3, high=3)
            vectors = list(config.vectors)
            vectors.insert(rng.randrange(len(vectors) + 1), (0,) * d)  # a loop
            vectors.append(tuple(2 * x for x in rng.choice(config.vectors)))  # parallel
            yield config
            yield VectorConfiguration(vectors[::-1], d)


def test_minor_gcd_matches_bareiss_reference():
    rng = random.Random(61)
    above_one = 0
    for config in _gcd_test_configs(rng):
        independent = set(config.independent_sets())
        # The cached gcds are keyed by mask, and their keys are the independent sets.
        assert set(config._minor_gcds) == set(map(_mask, independent))
        for k in range(min(config.n, config.dim + 1) + 1):
            for s in combinations(range(1, config.n + 1), k):
                expected = _reference_minor_gcd(config, s)
                if s in independent:
                    assert expected > 0, (config, s)
                    assert config.minor_gcd(s) == expected, (config, s)
                    assert config._minor_gcds[_mask(s)] == expected, (config, s)
                    above_one += expected > 1
                else:
                    assert expected == 0, (config, s)
                    with pytest.raises(DependentSetError, match="is not independent"):
                        config.minor_gcd(s)
    assert above_one > 50


def test_minor_gcd_needs_no_enumeration():
    # Past the enumeration guard a single set's gcd is still a few folds.
    rng = random.Random(12)
    config = VectorConfiguration(
        [[rng.randint(-2, 2) for _ in range(12)] for _ in range(60)])
    with pytest.raises(EnumerationLimitError):
        config.independent_sets()
    for s in ((1, 2, 3), (7, 30, 59)):
        assert config.minor_gcd(s) == _reference_minor_gcd(config, s)
    scaled = VectorConfiguration([tuple(3 * x for x in v) for v in config.vectors])
    assert scaled.minor_gcd((1, 2, 3)) == 27 * config.minor_gcd((1, 2, 3))
    with pytest.raises(DependentSetError, match="is not independent"):
        config.minor_gcd(tuple(range(1, 14)))  # more vectors than coordinates


def test_passive_intervals_must_partition_the_independent_sets(monkeypatch):
    # The intervals [IP(B), B] partition the independent sets (Bjoerner).
    # Dropping one element from one IP(B) widens its interval onto another
    # basis's, and the check refuses the passive sets before the double sum's
    # orderings are compared.
    from zonoehrhart import matroid
    from zonoehrhart.errors import InternalDisagreementError
    from zonoehrhart.zonotope import ZonotopeSpec, hstar

    rng = random.Random(29)
    vectors = [tuple(rng.randint(-2, 2) for _ in range(6)) for _ in range(9)]
    assert VectorConfiguration(vectors).full_rank == 6
    real_passive, dropped, compared = matroid._internally_passive, [], []

    def dropping_one_element(members, r):
        passive_sets = real_passive(members, r)
        basis = next(b for b, p in passive_sets.items() if p)
        passive_sets[basis] &= passive_sets[basis] - 1  # its lowest passive element goes
        dropped.append(basis)
        return passive_sets

    monkeypatch.setattr(matroid, "_internally_passive", dropping_one_element)
    monkeypatch.setattr(matroid, "_double_sum", lambda *args: compared.append(1))
    with pytest.raises(InternalDisagreementError, match=r"\[IP\(B\), B\] do not partition"):
        hstar(ZonotopeSpec(VectorConfiguration(vectors)))
    assert dropped and not compared
