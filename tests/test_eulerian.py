import inspect
import random
import sys
from itertools import permutations
from math import comb, factorial

import pytest

from zonoehrhart.errors import EnumerationLimitError, LatticeMathError
from zonoehrhart.eulerian import (a_j_polynomial, a_j_polynomial_enumerate,
                                  b_l_polynomial_enumerate,
                                  b_l_polynomial_via_a, descent_count,
                                  descent_set, eulerian_a,
                                  eulerian_a_enumerate, eulerian_b,
                                  eulerian_b_via_a, j_descent_set,
                                  l_descent_set_b, signed_descent_count,
                                  signed_descent_set, signed_permutations)
from zonoehrhart.polycore import (HStarVector, Poly,
                                  is_alternatingly_increasing, is_real_rooted)


def test_descent_set_examples():
    assert descent_set((1, 2, 3)) == frozenset()
    assert descent_set((3, 2, 1)) == {1, 2}
    assert descent_set((4, 2, 1, 3, 5)) == {1, 2}
    with pytest.raises(LatticeMathError):
        descent_set((1, 3))
    for word in ([1.0, 2], [True, 2]):
        with pytest.raises(LatticeMathError, match="a letter must be an integer"):
            descent_set(word)


def test_j_descent_set_examples():
    assert j_descent_set((1, 2), 0) == frozenset()
    assert j_descent_set((1, 2), 1) == {2}
    assert j_descent_set((2, 1), 1) == {1}
    with pytest.raises(LatticeMathError):
        j_descent_set((1, 2), 3)
    with pytest.raises(LatticeMathError, match="j must be an integer"):
        j_descent_set((1, 2), 1.5)


def test_signed_descent_set_examples():
    # 4'2'13'5 has descents exactly at 0 and 3
    assert signed_descent_set((4, 2, 1, 3, 5), (-1, -1, 1, -1, 1)) == {0, 3}
    assert signed_descent_set((1, 2, 3), (1, 1, 1)) == frozenset()
    assert signed_descent_set((1,), (-1,)) == {0}
    for word, signs in (((2, 1), (True, -1)), ((1, 2), (1.0, -1))):
        with pytest.raises(LatticeMathError, match="a sign must be an integer"):
            signed_descent_set(word, signs)
    with pytest.raises(LatticeMathError, match="signs must be a"):
        signed_descent_set((1, 2), (1, 2))


def test_l_descent_set_examples():
    assert l_descent_set_b((1,), (1,), 1) == {1}
    assert l_descent_set_b((1,), (-1,), 1) == {0}
    for word, signs in signed_permutations(3):
        assert l_descent_set_b(word, signs, 0) == signed_descent_set(word, signs)
    with pytest.raises(LatticeMathError, match="l must be an integer"):
        l_descent_set_b((1, 2), (1, 1), 0.5)
    # Signs of any iterable type are read; a fault is named by the first
    # check it fails, in order: letters, permutation, signs, l.
    assert l_descent_set_b((2, 1), iter((1, 1)), 2) == {1, 2}
    for args, message in ((((1, 1.5), (1, True), 9), "a letter must be an integer"),
                          (((1, 3), None, 9), "not a permutation"),
                          (((1, 2), (1, True), 9), "a sign must be an integer"),
                          (((1, 2), (1, 2), 9), "signs must be a"),
                          (((1, 2), iter((1, -1)), 9), "l must lie in 0..2"),
                          (((2, 1), [1, -1], True), "l must be an integer")):
        with pytest.raises(LatticeMathError, match=message):
            l_descent_set_b(*args)


def test_a_j_small_tables():
    assert a_j_polynomial_enumerate(1, 1) == Poly((1,))
    assert a_j_polynomial_enumerate(2, 1) == Poly((1,))
    assert a_j_polynomial_enumerate(2, 2) == Poly((0, 1))
    assert a_j_polynomial_enumerate(3, 1) == Poly((1, 1))
    assert a_j_polynomial_enumerate(3, 2) == Poly((0, 2))
    assert a_j_polynomial_enumerate(3, 3) == Poly((0, 1, 1))


def test_a_j_recurrence_matches_enumeration():
    for d in range(1, 8):
        for j in range(1, d + 1):
            assert a_j_polynomial(d, j) == a_j_polynomial_enumerate(d, j), (d, j)


def test_a_j_guards():
    with pytest.raises(EnumerationLimitError):
        a_j_polynomial_enumerate(13, 1)
    with pytest.raises(LatticeMathError):
        a_j_polynomial(3, 0)
    with pytest.raises(LatticeMathError):
        a_j_polynomial(3, 4)
    with pytest.raises(LatticeMathError, match="d must be an integer"):
        a_j_polynomial(3.0, 1)
    with pytest.raises(LatticeMathError, match="d must be an integer"):
        eulerian_a(2.0)


def test_a_j_row_needs_no_stack():
    # The row is built in a loop: d = 80 runs within a few dozen frames.
    from zonoehrhart.eulerian import _a_row

    _a_row.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        p = a_j_polynomial(80, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert sum(p.coeffs) == factorial(79)
    assert p == a_j_polynomial(80, 80).reversed(79)


def test_recurrence_guard_refuses_before_building(monkeypatch):
    # Past d = 100 the recurrence refuses before it builds a row, naming the
    # row it was asked for; d = 100 itself is admitted.
    from zonoehrhart.eulerian import MAX_RECURRENCE_D, _a_row

    def refuse(*_):
        raise AssertionError("built a row past the guard")

    _a_row.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr("zonoehrhart.eulerian.accumulate", refuse)
        for call, args, row in ((a_j_polynomial, (101, 1), 101),
                                (a_j_polynomial, (1100, 1), 1100),
                                (eulerian_a, (100,), 101),
                                (b_l_polynomial_via_a, (100, 0), 101),
                                (eulerian_b_via_a, (1100,), 1100)):
            with pytest.raises(EnumerationLimitError,
                               match=rf"A_j\({row}, t\).* guard of d <= 100$"):
                call(*args)
    assert MAX_RECURRENCE_D == 100
    assert sum(a_j_polynomial(100, 1).coeffs) == factorial(99)
    assert eulerian_a(99) == a_j_polynomial(100, 1)


@pytest.mark.parametrize("enumerate_, args, words", [
    (a_j_polynomial_enumerate, (12, 1), factorial(11)),
    (eulerian_a_enumerate, (11,), factorial(11)),
    (b_l_polynomial_enumerate, (9, 1), 2**8 * factorial(8)),
    (eulerian_b, (8,), 2**8 * factorial(8)),
])
def test_enumeration_guard_refuses_before_enumerating(monkeypatch, enumerate_, args, words):
    def refuse(*_):
        raise AssertionError("enumerated past the guard")

    monkeypatch.setattr("zonoehrhart.eulerian.permutations", refuse)
    with pytest.raises(EnumerationLimitError, match=f"enumerating {words} words"):
        enumerate_(*args)


def test_a_j_coefficient_sums():
    for d in range(1, 9):
        for j in range(1, d + 1):
            assert sum(a_j_polynomial(d, j).coeffs) == factorial(d - 1)


def test_j_descent_distribution_matches_refined_family():
    # The multiset of j-descent numbers over S_d is the (j+1)-st refined row.
    for d in range(1, 8):
        for j in range(d + 1):
            counts = [0] * (d + 1)
            for word in permutations(range(1, d + 1)):
                counts[len(j_descent_set(word, j))] += 1
            assert Poly(counts) == a_j_polynomial(d + 1, j + 1), (d, j)


def test_a_j_symmetry_reversal():
    for d in range(1, 11):
        for j in range(1, d + 1):
            assert a_j_polynomial(d, j) == a_j_polynomial(d, d + 1 - j).reversed(d - 1)


def test_a_j_row_sums_to_classical_eulerian():
    for d in range(1, 11):
        row_sum = sum((a_j_polynomial(d, j) for j in range(1, d + 1)), Poly())
        assert row_sum == eulerian_a(d)
    assert eulerian_a(2) == Poly((1, 1))
    for d in range(1, 7):
        assert eulerian_a(d) == eulerian_a_enumerate(d)
        assert sum(eulerian_a(d).coeffs) == factorial(d)


def test_nonnegative_combinations_are_real_rooted():
    rng = random.Random(42)
    for _ in range(100):
        d = rng.randint(1, 8)
        coeffs = [rng.randint(0, 9) for _ in range(d)]
        if not any(coeffs):
            coeffs[rng.randrange(d)] = 1
        combo = sum((c * a_j_polynomial(d, j + 1) for j, c in enumerate(coeffs)), Poly())
        assert is_real_rooted(combo)


def _chain_peak_ok(values, peak):
    rising = all(values[i] <= values[i + 1] for i in range(peak))
    falling = all(values[i] >= values[i + 1] for i in range(peak, len(values) - 1))
    return rising and falling


def test_a_j_peak_positions():
    for d in range(1, 10):
        for j in range(1, d + 1):
            v = a_j_polynomial(d, j).padded(d)
            if d % 2 == 0:
                peak = d // 2 - 1 if j <= d // 2 else d // 2
                assert _chain_peak_ok(v, peak), (d, j, v)
            elif d == 1:
                assert v == (1,)
            elif j == 1:
                mid = d // 2
                assert v[mid - 1] == v[mid] and _chain_peak_ok(v, mid - 1), (d, j, v)
            elif j == d:
                mid = d // 2
                assert v[mid] == v[mid + 1] and _chain_peak_ok(v, mid), (d, j, v)
            else:
                assert _chain_peak_ok(v, d // 2), (d, j, v)


def test_a_j_alternatingly_increasing_for_large_j():
    for d in range(0, 10):
        for j in range(1, d + 2):
            if 2 * j > d + 1:
                h = HStarVector(a_j_polynomial(d + 1, j).padded(d + 1), d)
                assert is_alternatingly_increasing(h), (d, j)


def test_pair_sums_alternatingly_increasing():
    for d in range(1, 9):
        for i in range(1, d + 2):
            for j in range(1, d + 2):
                if i + j >= d + 2:
                    s = a_j_polynomial(d + 1, i) + a_j_polynomial(d + 1, j)
                    assert is_alternatingly_increasing(HStarVector(s.padded(d + 1), d)), (d, i, j)


def test_b_l_small_values():
    assert b_l_polynomial_enumerate(1, 1) == Poly((1,))
    assert b_l_polynomial_enumerate(2, 1) == Poly((1, 1))
    assert b_l_polynomial_enumerate(2, 2) == Poly((0, 2))
    assert eulerian_b(1) == Poly((1, 1))
    assert eulerian_b(2) == Poly((1, 6, 1))


def test_b_l_identity_examples():
    assert b_l_polynomial_via_a(1, 0) == Poly((1, 1))  # B_1(2,t)
    assert b_l_polynomial_via_a(2, 0) == Poly((1, 6, 1))  # B_1(3,t)
    assert b_l_polynomial_via_a(2, 2) == Poly((0, 4, 4))  # B_3(3,t)


def test_b_l_identity_matches_enumeration():
    for dplus1 in range(1, 8):
        for l in range(dplus1):
            assert b_l_polynomial_via_a(dplus1 - 1, l) == \
                b_l_polynomial_enumerate(dplus1, l + 1), (dplus1, l)


def test_b_l_identity_reads_one_cached_row():
    from zonoehrhart.eulerian import _b_row

    for d in range(5):
        row = _b_row(d)
        assert len(row) == d + 1
        for l in range(d + 1):
            assert b_l_polynomial_via_a(d, l) is row[l]
    for d, l in ((-1, 0), (2, -1), (2, 3), (2.0, 0)):
        with pytest.raises(LatticeMathError):
            b_l_polynomial_via_a(d, l)


def test_b_l_coefficient_sums_and_guards():
    for d in range(1, 7):
        for l in range(1, d + 1):
            assert sum(b_l_polynomial_enumerate(d, l).coeffs) == \
                2 ** (d - 1) * factorial(d - 1)
    with pytest.raises(EnumerationLimitError):
        b_l_polynomial_enumerate(11, 1)
    with pytest.raises(EnumerationLimitError):
        eulerian_b(11)
    with pytest.raises(LatticeMathError, match="d must be an integer"):
        eulerian_b(2.0)


def test_eulerian_b_split_by_last_letter():
    for d in range(1, 7):
        assert eulerian_b_via_a(d) == eulerian_b(d)
        assert sum(eulerian_b(d).coeffs) == 2**d * factorial(d)


def test_l_descent_distribution_matches_refined_family():
    for d in range(1, 7):
        for l in range(d + 1):
            counts = [0] * (d + 2)
            for word, signs in signed_permutations(d):
                counts[len(l_descent_set_b(word, signs, l))] += 1
            assert Poly(counts) == b_l_polynomial_via_a(d, l), (d, l)


def test_b_l_real_rooted_and_alternatingly_increasing():
    # B_l(d,t) has degree at most d-1 (its top coefficient vanishes because the
    # last signed letter is positive), so it lives at ambient degree d-1, like
    # the type-A family at the same first parameter.
    for d in range(1, 8):
        for l in range(1, d + 1):
            p = b_l_polynomial_via_a(d - 1, l - 1)
            assert p.degree <= d - 1, (d, l)
            assert is_real_rooted(p), (d, l)
            assert is_alternatingly_increasing(HStarVector(p.padded(d), d - 1)), (d, l)


def test_descent_counts():
    assert descent_count((3, 1, 2)) == 1
    assert signed_descent_count((2, 1), (1, 1)) == 1
