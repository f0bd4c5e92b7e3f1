import random
import re
from fractions import Fraction
from math import factorial

import pytest

from zonoehrhart.errors import LatticeMathError
from zonoehrhart.polycore import (HStarVector, Poly, count_distinct_real_roots,
                                  ehrhart_from_hstar,
                                  express_in_shifted_power_basis,
                                  hstar_from_ehrhart,
                                  is_alternatingly_increasing, is_palindromic,
                                  is_real_rooted, is_unimodal,
                                  symmetric_decomposition)


def test_poly_normalization_and_arithmetic():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(()) == Poly((0, 0))
    assert not Poly(())
    p = Poly((1, 1))
    assert (p * p).coeffs == (1, 2, 1)
    assert (p**3).coeffs == (1, 3, 3, 1)
    assert (p - p) == Poly()
    assert p(4) == 5
    assert Poly((0, 0, 3)).derivative() == Poly((0, 6))
    assert sum([p, p], Poly()) == 2 * p
    assert (p**0).coeffs == (1,)
    with pytest.raises(LatticeMathError, match="polynomial power must be an integer, got 1.5"):
        p**1.5
    with pytest.raises(LatticeMathError, match="polynomial power must be at least 0, got -1"):
        p**-1
    with pytest.raises(LatticeMathError, match="polynomial power must be an integer, got True"):
        p**True


def test_poly_reversal_and_scaling():
    p = Poly((1, 4))
    assert p.reversed(2).coeffs == (0, 4, 1)
    assert p.scale_argument(2).coeffs == (1, 8)
    with pytest.raises(LatticeMathError):
        p.reversed(0)


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly((1.5, 2))


def test_hstar_vector_invariants():
    h = HStarVector((1, 4, 1))
    assert h.d == 2 and h.h == (1, 4, 1)
    assert HStarVector((1, 1, 0), d=2).d == 2
    with pytest.raises(LatticeMathError):
        HStarVector(())
    with pytest.raises(LatticeMathError):
        HStarVector((1, 2), d=2)
    for d in (-1, True, 2.0, "2", Fraction(2)):
        with pytest.raises(LatticeMathError, match=re.escape(
                f"ambient degree must be a nonnegative integer, got {d!r}")):
            HStarVector((1, 2, 3), d)


def test_hstar_from_ehrhart_examples():
    assert hstar_from_ehrhart(Poly((1, 2, 1)), 2).h == (1, 1, 0)
    assert hstar_from_ehrhart(Poly((1,)), 0).h == (1,)
    assert hstar_from_ehrhart(Poly((1, 3, 3)), 2).h == (1, 4, 1)


def test_hstar_from_ehrhart_errors():
    with pytest.raises(LatticeMathError):
        hstar_from_ehrhart(Poly((1, 3, 3)), 1)  # degree exceeds ambient
    with pytest.raises(LatticeMathError):
        hstar_from_ehrhart(Poly((0, Fraction(1, 2))), 1)  # not integer-valued
    for degree in (2.0, "2"):
        with pytest.raises(LatticeMathError, match="ambient degree must be an integer"):
            hstar_from_ehrhart(Poly((1, 1)), degree)
    with pytest.raises(LatticeMathError, match="basis degree must be an integer"):
        express_in_shifted_power_basis(Poly((1, 1)), 2.0)
    with pytest.raises(LatticeMathError, match="basis degree must be at least 0, got -1"):
        express_in_shifted_power_basis(Poly(), -1)


def test_ehrhart_from_hstar_examples():
    assert ehrhart_from_hstar(HStarVector((1, 1, 0))) == Poly((1, 2, 1))
    assert ehrhart_from_hstar(HStarVector((1,))) == Poly((1,))
    assert ehrhart_from_hstar(HStarVector((1, 4, 1))) == Poly((1, 3, 3))


def test_round_trip_random_integer_polynomials():
    rng = random.Random(99)
    for _ in range(200):
        r = rng.randint(0, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(r + 1)]
        p = Poly(coeffs)
        assert ehrhart_from_hstar(hstar_from_ehrhart(p, r)) == p


def _ehrhart_from_hstar_reference(h):
    """sum_i h_i C(n+d-i, d), each binomial a product of Fraction polynomials."""
    out = Poly()
    for i, hi in enumerate(h.h):
        binomial = Poly((1,))
        for s in range(h.d):
            binomial = binomial * Poly((h.d - i - s, 1))
        out = out + binomial * Fraction(hi, factorial(h.d))
    return out


def test_ehrhart_from_hstar_matches_the_binomial_sum():
    # 360 seeded h*-vectors, 40 for each d = 0..8: integer ones, about half
    # their entries zero, round-trip; every fifth is rational.
    rng = random.Random(151)
    for draw in range(360):
        d = draw % 9
        if draw % 5 == 4:
            h = HStarVector([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                             for _ in range(d + 1)], d)
        else:
            h = HStarVector([rng.choice((0, rng.randint(-40, 40))) for _ in range(d + 1)], d)
        ehr = ehrhart_from_hstar(h)
        assert ehr == _ehrhart_from_hstar_reference(h), h
        if draw % 5 != 4:
            assert hstar_from_ehrhart(ehr, d) == h


def test_shifted_power_basis_elements():
    d = 4
    one_plus_n = Poly((1, 1))
    n = Poly((0, 1))
    assert express_in_shifted_power_basis(one_plus_n**d, d) == (1, 0, 0, 0, 0)
    for j in range(d + 1):
        basis = n**j * one_plus_n ** (d - j)
        coords = express_in_shifted_power_basis(basis, d)
        assert coords == tuple(1 if i == j else 0 for i in range(d + 1))
    assert express_in_shifted_power_basis(Poly((1, 2, 2)), 2) == (1, 0, 1)


def test_shifted_power_basis_reproduces_values():
    # Rebuilt by Poly products, which share nothing with the closed sum:
    # integer and rational coefficients, degree below d, the zero polynomial.
    rng = random.Random(7)
    n = Poly((0, 1))
    one_plus_n = Poly((1, 1))
    for draw in range(120):
        d = rng.randint(0, 8)
        degree = -1 if draw % 10 == 9 else rng.randint(0, d)
        if draw % 3:
            p = Poly([rng.randint(-5, 5) for _ in range(degree + 1)])
        else:
            p = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                      for _ in range(degree + 1)])
        coords = express_in_shifted_power_basis(p, d)
        assert len(coords) == d + 1
        rebuilt = sum((n**j * one_plus_n ** (d - j) * c for j, c in enumerate(coords)),
                      Poly())
        for x in range(d + 1):
            assert rebuilt(x) == p(x)
        assert rebuilt == p


def test_real_rooted_examples():
    assert is_real_rooted(Poly((1, 4, 1)))
    assert not is_real_rooted(Poly((1, 1, 1)))
    assert is_real_rooted(Poly((1, 3, 3, 1)))  # (1+t)^3, multiplicity path
    assert is_real_rooted(Poly((5,)))  # constants are vacuously real-rooted
    with pytest.raises(LatticeMathError):
        is_real_rooted(Poly(()))


def _real_rooted_by_discriminant(coeffs):
    """Closed-form oracle for degree <= 3 integer polynomials."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    deg = len(c) - 1
    if deg <= 1:
        return True
    if deg == 2:
        c0, c1, c2 = c
        return c1 * c1 - 4 * c2 * c0 >= 0
    c0, c1, c2, c3 = c
    disc = (18 * c3 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2
            - 4 * c3 * c1**3 - 27 * c3**2 * c0**2)
    return disc >= 0


def test_real_rooted_matches_discriminant_oracle():
    span = range(-5, 6)
    checked = 0
    for c3 in span:
        for c2 in span:
            for c1 in span:
                for c0 in span:
                    if c0 == c1 == c2 == c3 == 0:
                        continue
                    p = Poly((c0, c1, c2, c3))
                    assert is_real_rooted(p) == _real_rooted_by_discriminant(p.coeffs), p
                    checked += 1
    assert checked == 11**4 - 1


def _linear_power_product(rng, degree):
    """Seeded product of powers (a*t + b)^m of exact degree, and its distinct roots."""
    p = Poly((rng.choice([-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3)]),))
    roots = set()
    while p.degree < degree:
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        b = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        p = p * Poly((b, a)) ** rng.randint(1, min(3, degree - p.degree))
        roots.add(-b / a)
    return p, roots


def test_real_rootedness_known_by_construction():
    # Degrees 4-10: products of powers of linear factors are real-rooted with
    # one real root per distinct factor root; times an irreducible quadratic,
    # or its square, they keep those real roots and are not real-rooted.
    rng = random.Random(2024)
    for _ in range(300):
        degree = rng.randint(4, 10)
        p, roots = _linear_power_product(rng, degree)
        assert is_real_rooted(p), p
        assert count_distinct_real_roots(p) == len(roots), p

        c = rng.randint(-3, 3)
        quad = Poly((c * c // 4 + rng.randint(1, 3), c, 1)) ** rng.choice([1, 2])
        p, roots = _linear_power_product(rng, degree - quad.degree)
        q = p * quad
        assert not is_real_rooted(q), q
        assert count_distinct_real_roots(q) == len(roots), q


def test_count_distinct_real_roots():
    assert count_distinct_real_roots(Poly((0, 1))) == 1
    assert count_distinct_real_roots(Poly((-1, 0, 1))) == 2
    assert count_distinct_real_roots(Poly((1, 2, 1))) == 1  # (1+t)^2
    assert count_distinct_real_roots(Poly((1, 1, 1))) == 0
    assert count_distinct_real_roots(Poly((0, -1, 0, 1))) == 3  # t(t-1)(t+1)


def test_unimodal_examples():
    assert is_unimodal(HStarVector((1, 4, 1))) == (True, frozenset({1}))
    assert is_unimodal(HStarVector((1, 1, 1))) == (True, frozenset({0, 1, 2}))
    ok, peaks = is_unimodal(HStarVector((1, 0, 1)))
    assert not ok and peaks == frozenset()
    assert is_unimodal(HStarVector((1, 4, 1, 4, 1)))[0] is False


def test_palindromic_examples():
    assert is_palindromic(HStarVector((1, 4, 1)))
    assert not is_palindromic(HStarVector((1, 1, 0)))
    assert is_palindromic(HStarVector((1, 6, 1)))


def test_alternatingly_increasing_examples():
    assert is_alternatingly_increasing(HStarVector((1, 4, 3)))
    assert is_alternatingly_increasing(HStarVector((1, 4, 1)))
    assert not is_alternatingly_increasing(HStarVector((1, 0, 2)))


def test_ambient_degree_matters():
    # (1, 1) at d=1 is palindromic; (1, 1, 0) at d=2 is not.
    assert is_palindromic(HStarVector((1, 1)))
    assert not is_palindromic(HStarVector((1, 1, 0)))


def test_symmetric_decomposition_examples():
    a, b = symmetric_decomposition(HStarVector((1, 4, 1)))
    assert a == Poly((1, 4, 1)) and b == Poly()
    # The unique decomposition of 1 + t at ambient degree 2 has negative parts.
    a, b = symmetric_decomposition(HStarVector((1, 1, 0)))
    assert a == Poly((1, 2, 1)) and b == Poly((-1, -1))
    a, b = symmetric_decomposition(HStarVector((1, 4, 3)))
    assert a == Poly((1, 2, 1)) and b == Poly((2, 2))


def test_symmetric_decomposition_properties():
    rng = random.Random(3)
    t = Poly((0, 1))
    for _ in range(300):
        d = rng.randint(0, 7)
        h = HStarVector([rng.randint(-6, 6) for _ in range(d + 1)])
        a, b = symmetric_decomposition(h)
        assert a + t * b == h.poly()
        assert a.padded(d + 1) == tuple(reversed(a.padded(d + 1)))
        if d >= 1:
            assert b.padded(d) == tuple(reversed(b.padded(d)))


def _random_palindromic(rng, length, low=0, high=9):
    half = [rng.randint(low, high) for _ in range((length + 1) // 2)]
    full = half + list(reversed(half[: length // 2]))
    return full


def test_alternating_increase_iff_parts_unimodal():
    # With nonnegative palindromic parts a (center d/2) and b (center (d-1)/2):
    # a + t*b is alternatingly increasing iff both parts are unimodal.
    rng = random.Random(11)
    t = Poly((0, 1))
    seen_false = 0
    for _ in range(500):
        d = rng.randint(1, 7)
        a = Poly(_random_palindromic(rng, d + 1))
        b = Poly(_random_palindromic(rng, d))
        h = HStarVector((a + t * b).padded(d + 1), d)
        expected = is_unimodal(HStarVector(a.padded(d + 1), d))[0] and \
            is_unimodal(HStarVector(b.padded(d), d - 1))[0]
        assert is_alternatingly_increasing(h) == expected
        seen_false += not expected
    assert seen_false > 0  # the sample exercises both directions


def test_alternating_increase_implies_peak_past_middle():
    rng = random.Random(5)
    hit = 0
    for _ in range(2000):
        d = rng.randint(1, 6)
        h = HStarVector([rng.randint(0, 6) for _ in range(d + 1)])
        if not is_alternatingly_increasing(h):
            continue
        hit += 1
        ok, peaks = is_unimodal(h)
        assert ok and (d + 1) // 2 in peaks
    assert hit > 50
