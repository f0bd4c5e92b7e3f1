"""Exact linear algebra over integers and rationals.

Everything here works with Python ints and fractions.Fraction; no floats.
Vectors and columns are tuples of ints.

`fold` is the one integer routine: Hermite-style reduction of Z^d by
unimodular column operations (Cohen, A Course in Computational Algebraic
Number Theory, ch. 2).  Folding vectors w_1, ..., w_k one at a time into
the unit columns keeps a unimodular matrix whose "used" columns make the
w_i triangular, with the gcd of each step on the diagonal, and whose "free"
columns are orthogonal to every w_i.  So the product of the steps is the
gcd of the maximal minors of the w_i, a zero step marks a w_i in the span
of the earlier ones, and the free columns are a lattice basis of the
orthogonal complement of their span; every one of them is primitive.
`rank` is the one routine left that eliminates over Fraction.
"""

from fractions import Fraction
from operator import mul


def _xgcd(a: int, b: int) -> tuple:
    """(g, x, y) with x*a + y*b = g and |g| = gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def unit_columns(d: int) -> list:
    """The columns of the d x d identity matrix."""
    return [tuple(int(r == c) for r in range(d)) for c in range(d)]


def fold(v, columns: list) -> tuple:
    """Fold the vector v into the free columns of a unimodular transform.

    Returns (g, rest, pivot): g >= 0 is the gcd of the products v.u over the
    free columns u, pivot is the column that unimodular column steps have
    gathered g into, which becomes used (v.pivot = +-g), and rest are the
    free columns left.  g == 0 means v lies in the span of the rows already
    folded in; then pivot is None and rest is columns.
    """
    rest = []
    g = 0
    pivot = None
    for u in columns:
        a = sum(map(mul, v, u))
        if a == 0:
            rest.append(u)
        elif pivot is None:
            pivot, g = u, a
        else:
            # [pivot, u] -> [x pivot + y u, (a/h) pivot - (g/h) u], determinant -1.
            h, x, y = _xgcd(g, a)
            p, q = a // h, g // h
            rest.append(tuple(p * s - q * t for s, t in zip(pivot, u)))
            pivot = tuple(x * s + y * t for s, t in zip(pivot, u))
            g = h
    return abs(g), rest, pivot


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
