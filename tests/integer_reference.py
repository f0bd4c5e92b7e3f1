"""Determinant-based references for the library's integer column fold.

The library computes minor gcds, facet normals and complement bases with
one unimodular column fold; these helpers get the same quantities the
textbook way, from Bareiss determinants and cofactors, so tests can check
the fold against them.
"""

from math import gcd


def det_bareiss(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def cofactor_normal(vectors, d):
    """Primitive integer normal of d-1 vectors in Z^d from the cofactors of
    the matrix they form, sign-fixed so that its last nonzero entry is
    positive; all zeros if the vectors are dependent."""
    u = [(-1) ** j * det_bareiss([v[:j] + v[j + 1:] for v in vectors]) for j in range(d)]
    g = 0
    for x in u:
        g = gcd(g, x)
    if g == 0:
        return tuple(u)
    if next(x for x in reversed(u) if x) < 0:
        g = -g
    return tuple(x // g for x in u)


def is_independent(vectors):
    """Whether the integer vectors are linearly independent: a nonzero Gram
    determinant."""
    return det_bareiss([[sum(x * y for x, y in zip(a, b)) for b in vectors]
                        for a in vectors]) != 0
