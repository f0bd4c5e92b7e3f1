"""Descent statistics on permutations and signed permutations.

Permutations are 1-indexed words over [d] in one-line notation; signed
permutations are a (word, signs) pair with signs in {+1, -1}.  Descent
positions are likewise 1-based; signed descents may additionally use the
virtual position 0 (word_0 = 0 with positive sign, never stored).

Each polynomial family has two deliberately independent computation paths,
enumeration and recurrence/identity, so that one can serve as the other's
oracle in tests.  The four enumerators feed one descent counter, which reads
each word after the virtual letter 0 (type A needs no special case, since 0
never descends to a positive letter).  Before it makes any word, the counter
raises EnumerationLimitError, naming the word count, if more than
MAX_ENUMERATION_WORDS = 10^7 words would be read.  The largest admitted calls
read 10! words (a_j_polynomial_enumerate at d = 11, eulerian_a_enumerate at
d = 10) or 2^7 7! signed words (b_l_polynomial_enumerate at d = 8,
eulerian_b at d = 7).

The recurrence builds the rows A(1), ..., A(d) of the refined family; row k
holds k polynomials of up to k coefficients, so the work grows as d^3.  It
raises EnumerationLimitError, naming d, before it builds any row when
d > MAX_RECURRENCE_D = 100.  The largest admitted calls build A(100):
a_j_polynomial at d = 100, eulerian_a at d = 99 and the type-B identity at
d = 100.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, chain, compress, count, permutations, product
from math import comb, factorial
from operator import gt, mul
from typing import Iterator, Sequence

from .errors import EnumerationLimitError, LatticeMathError, _integers
from .polycore import Poly

MAX_ENUMERATION_WORDS = 10**7
MAX_RECURRENCE_D = 100


_UNSIGNED = object()  # the signs of a type-A word


def _letters(word: Sequence[int], signs: Sequence[int] = _UNSIGNED,
             what: str | None = None, last: int = 0) -> tuple:
    """(0, eps_1 w_1, ..., eps_d w_d), unsigned without signs, followed by
    d - last if what names last (j or l): the values _descents reads.

    One test covers every argument; only a fault goes through the
    per-argument checks, which raise it with their message and in their order.
    """
    w = tuple(word)
    d = len(w)
    unsigned = signs is _UNSIGNED
    # Signs of another type, which may not even be iterable, take the per-argument checks.
    s = () if unsigned else tuple(signs) if type(signs) in (tuple, list) else None
    if not (s is not None and {*map(type, w + s)} == {int}
            and sorted(w) == list(range(1, d + 1))
            and (unsigned or len(s) == d and {*s} <= {1, -1})
            and (what is None or type(last) is int and 0 <= last <= d)):
        w = _integers("a letter", w)
        if sorted(w) != list(range(1, d + 1)):
            raise LatticeMathError(f"{w!r} is not a permutation of 1..{d}")
        if not unsigned:
            s = _integers("a sign", signs)
            if len(s) != d or not {*s} <= {1, -1}:
                raise LatticeMathError("signs must be a +1/-1 vector matching the word length")
        if what is not None:
            _integers(what, (last,), 0, d)
    values = (0,) + (w if unsigned else tuple(map(mul, s, w)))
    return values if what is None else values + (d - last,)


def _descents(values: tuple) -> frozenset:
    """Positions i with values[i] > values[i+1]; values[0] is the virtual letter 0.

    A trailing value d - j puts d in the set exactly when the last letter is
    at least d+1-j, which is how the j- and l-descent sets extend the plain ones.
    """
    return frozenset(compress(count(), map(gt, values, values[1:])))


def descent_set(word: Sequence[int]) -> frozenset:
    """Positions i in [d-1] with word_i > word_{i+1}."""
    return _descents(_letters(word))


def descent_count(word: Sequence[int]) -> int:
    return len(descent_set(word))


def j_descent_set(word: Sequence[int], j: int) -> frozenset:
    """descent_set(word) plus {d} exactly when the last letter is at least d+1-j."""
    return _descents(_letters(word, _UNSIGNED, "j", j))


def signed_descent_set(word: Sequence[int], signs: Sequence[int]) -> frozenset:
    """Positions i in {0} u [d-1] with eps_i w_i > eps_{i+1} w_{i+1}, using w_0 = 0."""
    return _descents(_letters(word, signs))


def signed_descent_count(word: Sequence[int], signs: Sequence[int]) -> int:
    return len(signed_descent_set(word, signs))


def l_descent_set_b(word: Sequence[int], signs: Sequence[int], l: int) -> frozenset:
    """signed_descent_set plus {d} exactly when the last signed letter is at least d+1-l."""
    return _descents(_letters(word, signs, "l", l))


def signed_permutations(d: int) -> Iterator[tuple[tuple, tuple]]:
    """All 2^d d! signed permutations on [d] as (word, signs) pairs."""
    for word in permutations(range(1, d + 1)):
        for signs in product((1, -1), repeat=d):
            yield word, signs


def _descent_polynomial(letters: Sequence[int], last: tuple, signed: bool) -> Poly:
    """Descent generating polynomial over the words that order letters every
    way (and, if signed, sign each letter every way), each followed by last.

    Each word is read with the virtual letter 0 in front, which descends only
    to a negative letter; so type A counts the same descents as without it.
    """
    n_words = factorial(len(letters)) << (len(letters) if signed else 0)
    if n_words > MAX_ENUMERATION_WORDS:
        raise EnumerationLimitError(
            f"enumerating {n_words} words exceeds the guard of "
            f"{MAX_ENUMERATION_WORDS} words"
        )
    words = permutations(letters)
    if signed:
        words = chain.from_iterable(product(*((x, -x) for x in w)) for w in words)
    counts = [0] * (len(letters) + len(last) + 1)
    for word in words:
        counts[sum(map(gt, (0,) + word, word + last))] += 1
    return Poly(counts)


# ---------------------------------------------------------------------------
# Refined Eulerian polynomials, type A
# ---------------------------------------------------------------------------

def a_j_polynomial_enumerate(d: int, j: int) -> Poly:
    """Descent generating polynomial over words in S_d with last letter d+1-j."""
    _check_a_args(d, j)
    last = d + 1 - j
    return _descent_polynomial([x for x in range(1, d + 1) if x != last], (last,), False)


@cache
def _a_row(d: int) -> tuple[Poly, ...]:
    """The tuple (A_1(d,t), ..., A_d(d,t)) built bottom-up from A_1(1,t) = 1 by
    A_j(d,t) = t sum_{i<j} A_i(d-1,t) + sum_{i>=j} A_i(d-1,t), in a loop, so
    the stack stays flat at any d and only the rows asked for stay cached."""
    if d > MAX_RECURRENCE_D:
        raise EnumerationLimitError(
            f"the recurrence for A_j({d}, t) builds {d} rows of up to {d} polynomials; "
            f"d = {d} exceeds the guard of d <= {MAX_RECURRENCE_D}")
    t = Poly((0, 1))
    row = (Poly((1,)),)
    for _ in range(d - 1):
        prefix = list(accumulate(row, initial=Poly()))
        row = tuple(t * below + (prefix[-1] - below) for below in prefix)
    return row


def a_j_polynomial(d: int, j: int) -> Poly:
    """A_j(d,t) by the one-step recurrence; no factorial blowup."""
    _check_a_args(d, j)
    return _a_row(d)[j - 1]


def _check_a_args(d: int, j: int) -> None:
    _integers("d", (d,), 1)
    _integers("j", (j,), 1, d)


def eulerian_a(d: int) -> Poly:
    """Classical Eulerian polynomial of S_d (coefficient sum d!)."""
    _integers("d", (d,), 1)
    return a_j_polynomial(d + 1, 1)


def eulerian_a_enumerate(d: int) -> Poly:
    """Classical Eulerian polynomial by direct enumeration of S_d."""
    _integers("d", (d,), 1)
    return _descent_polynomial(range(1, d + 1), (), False)


# ---------------------------------------------------------------------------
# Refined Eulerian polynomials, type B
# ---------------------------------------------------------------------------

def b_l_polynomial_enumerate(d: int, l: int) -> Poly:
    """Signed-descent generating polynomial over B_d with last signed letter d+1-l."""
    _integers("d", (d,), 1)
    _integers("l", (l,), 1, d)
    last = d + 1 - l
    return _descent_polynomial([x for x in range(1, d + 1) if x != last], (last,), True)


def b_l_polynomial_via_a(d: int, l: int) -> Poly:
    """B_{l+1}(d+1,t) = 2^l sum_j C(d-l, j) A_{j+l+1}(d+1,t), for 0 <= l <= d."""
    _integers("d", (d,), 0)
    _integers("l", (l,), 0, d)
    return _b_row(d)[l]


@cache
def _b_row(d: int) -> tuple[Poly, ...]:
    """The tuple (B_1(d+1,t), ..., B_{d+1}(d+1,t)) by the identity above."""
    a = _a_row(d + 1)
    row = []
    for l in range(d + 1):
        total = Poly()
        for j in range(d - l + 1):
            total = total + a[j + l] * comb(d - l, j)
        row.append(total * 2**l)
    return tuple(row)


def eulerian_b(d: int) -> Poly:
    """Type-B Eulerian polynomial over all signed permutations (sum 2^d d!)."""
    _integers("d", (d,), 1)
    return _descent_polynomial(range(1, d + 1), (), True)


def eulerian_b_via_a(d: int) -> Poly:
    """Type-B Eulerian polynomial assembled from the refined family.

    Splits B_d by the sign of the last signed letter; the negative half is the
    coefficient reversal of the positive half (negate every letter).
    """
    _integers("d", (d,), 1)
    total = Poly()
    for l in range(1, d + 1):
        half = b_l_polynomial_via_a(d - 1, l - 1)
        total = total + half + half.reversed(d)
    return total
