"""Exact linear algebra over integers and rationals.

Everything here works with Python ints and fractions.Fraction; no floats.
Matrices are lists of row lists.  Determinants are fraction-free (Bareiss);
`rank` is the one routine left that eliminates over Fraction.
"""

from fractions import Fraction
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


def rank(rows):
    """Rank of a matrix with integer or rational entries."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][col]
        for i in range(r + 1, nrows):
            if a[i][col] != 0:
                f = a[i][col] / pv
                for j in range(col, ncols):
                    a[i][j] -= f * a[r][j]
        r += 1
        if r == nrows:
            break
    return r


def vector_gcd(values):
    """gcd of an iterable of integers, 0 for an empty or all-zero input."""
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g
