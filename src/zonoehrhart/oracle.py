"""Formula-independent ground truth by exact lattice-point counting.

The n-th dilate of Z = sum_i [0,1] v_i (sum_i [-1,1] v_i in typeB mode) is
described exactly by integer rows n*lo <= u . p <= n*hi, built directly from
the generators:

* Facets.  Inside the span of the generators, every facet of Z is parallel
  to r-1 linearly independent generators, where r is the rank.  Its primitive
  normal u is the cofactor cross product of those generators together with an
  integer basis of the orthogonal complement of the span.  The extent of Z
  along u is [sum_i min(0, u.v_i), sum_i max(0, u.v_i)], or [-s, s] with
  s = sum_i |u.v_i| in typeB mode.
* Equalities.  Each vector w of the complement basis gives the row
  0 <= w . p <= 0, which confines the points to the span.

Zero generators are dropped, and each row is scaled by -1 if need be so that
its last nonzero coefficient is positive.  Counting sweeps the integer
bounding box along its last coordinate: for each head (x_1, ..., x_{d-1}),
every row with an x_d term bounds x_d by an exact ceiling or floor division,
so a whole line costs one pass over the rows.  The innermost head coordinate
x_{d-1} steps by one, so each row's u . head is carried along it by adding
u_{d-1}; rows without an x_d term bound x_{d-1} instead, once per run of
x_{d-1}.  Every row satisfies lo + hi = u . sum_i v_i (0 in typeB mode), and
the bounding box is centred on the same point, so the point reflection
p -> (box lo + box hi) - p maps each dilate and its box onto themselves.
Only the heads that are lexicographically at most their mirror image are
swept: each of their lines counts twice, except the lines that are their own
mirror, in the centre slice.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product, repeat
from math import factorial
from operator import floordiv, mul, sub
from typing import Sequence

from . import _linalg
from .errors import (EnumerationLimitError, InternalDisagreementError, LatticeMathError,
                     NotFullDimensionalError)
from .polycore import HStarVector, Poly, hstar_from_ehrhart
from .zonotope import ZonotopeSpec

MAX_BOX_POINTS = 10**7


def _normal(vectors, d):
    """Primitive integer normal of d-1 vectors in Z^d, sign-fixed so that its
    first nonzero entry is positive; all zeros if the vectors are dependent."""
    u = [(-1) ** j * _linalg.det_bareiss([v[:j] + v[j + 1:] for v in vectors])
         for j in range(d)]
    g = _linalg.vector_gcd(u)
    if g == 0:
        return tuple(u)
    if next(x for x in u if x) < 0:
        g = -g
    return tuple(x // g for x in u)


def _extend_independent(chosen, candidates, d):
    """chosen plus the candidates that each raise its rank, taken greedily,
    up to d vectors of Z^d."""
    chosen = list(chosen)
    for v in candidates:
        if len(chosen) == d:
            break
        if _linalg.rank(chosen + [v]) > len(chosen):
            chosen.append(v)
    return chosen


def _last_positive(u, lo, hi):
    """The row lo <= u . p <= hi with u scaled so its last nonzero entry is positive."""
    if next(x for x in reversed(u) if x) > 0:
        return u, lo, hi
    return tuple(-x for x in u), -hi, -lo


class _Membership:
    """Exact integer H-description of the dilates of one zonotope."""

    def __init__(self, config, type_b: bool):
        d = config.dim
        gens = [v for v in config.vectors if any(v)]
        span = _extend_independent([], gens, d)
        r = len(span)
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        completion = _extend_independent(span, units, d)[r:]
        complement = [_normal(span + completion[:k] + completion[k + 1:], d)
                      for k in range(len(completion))]
        rows = {w: (0, 0) for w in complement}
        for subset in combinations(gens, r - 1) if r else ():
            u = _normal(list(subset) + complement, d)
            if u in rows or not any(u):
                continue
            dots = [sum(map(mul, u, v)) for v in gens]
            if type_b:
                spread = sum(abs(t) for t in dots)
                rows[u] = (-spread, spread)
            else:
                rows[u] = (sum(t for t in dots if t < 0), sum(t for t in dots if t > 0))
        self.dim = d
        self.rows = tuple(sorted(_last_positive(u, lo, hi) for u, (lo, hi) in rows.items()))

    def test(self, n: int, point: Sequence[int]) -> bool:
        return all(n * lo <= sum(map(mul, u, point)) <= n * hi
                   for u, lo, hi in self.rows)

    def count(self, n: int, box: Sequence[tuple[int, int]]) -> int:
        """Integer points of the n-th dilate inside box, a box centred on it.

        Only the heads h with h <= c - h lexicographically are swept, where
        c is the head of box lo + box hi: the heads below the centre in
        x_1, then those at the centre in x_1 and below it in x_2, and so on,
        each line counted twice; then the centre line itself, once.
        """
        if self.dim == 0:
            return int(self.test(n, ()))
        centre = [lo + hi for lo, hi in box]
        for u, lo, hi in self.rows:
            if n * (lo + hi) != sum(map(mul, u, centre)):
                raise InternalDisagreementError(
                    f"row {lo} <= {u} . p <= {hi} of dilate {n} is not centred on "
                    f"the bounding box {list(box)}; the half sweep needs central symmetry")
        d = self.dim
        # (coefficients of x_1..x_{d-2}, of x_{d-1}, of x_d, n*lo, n*hi)
        rows = [(u[:d - 2], u[d - 2] if d > 1 else 0, u[-1], n * lo, n * hi)
                for u, lo, hi in self.rows]
        lines = [row for row in rows if row[2]]
        slabs = [row for row in rows if not row[2]]
        *heads, last = box
        total = 0
        for k, (lo, _) in enumerate(heads):
            below = [(c // 2, c // 2) for c in centre[:k]] + [(lo, (centre[k] - 1) // 2)]
            total += 2 * _sweep(lines, slabs, below + heads[k + 1:], last)
            if centre[k] % 2:
                return total
        return total + _sweep(lines, slabs, [(c // 2, c // 2) for c in centre[:-1]], last)


def _sweep(lines, slabs, heads, last) -> int:
    """Integer points of the rows over the box heads x last, one line along
    x_d at a time, with x_{d-1} innermost.

    Rows are (coefficients of x_1..x_{d-2}, e, c, lo, hi) for
    lo <= u . p <= hi, where e and c are the coefficients of x_{d-1} and
    x_d; c > 0 in lines, c = 0 and e >= 0 in slabs.
    """
    first, final = last
    *outer, (start, stop) = heads or [(0, 0)]
    total = 0
    for prefix in product(*(range(lo, hi + 1) for lo, hi in outer)):
        # Slabs bound x_{d-1}, or hold or fail for the whole prefix.
        low, high = start, stop
        for p, e, _, lo, hi in slabs:
            s = sum(map(mul, p, prefix))
            if e:
                low = max(low, -((s - lo) // e))
                high = min(high, (hi - s) // e)
            elif not lo <= s <= hi:
                high = low - 1
        if low > high:
            continue
        # On line x_{d-1} = low + t, a line row reads lo <= s + e*t + c*x_d <= hi,
        # with s = u . head at t = 0, so it bounds x_d below by (a - e*t) // c
        # and above by (b - e*t) // c, where a = lo - s + c - 1 and b = hi - s.
        length = high - low + 1
        bottoms = [repeat(first, length)]
        tops = [repeat(final, length)]
        for p, e, c, lo, hi in lines:
            s = sum(map(mul, p, prefix)) + e * low
            a, b = lo - s + c - 1, hi - s
            if e:
                bottoms.append(map(floordiv, range(a, a - e * length, -e), repeat(c)))
                tops.append(map(floordiv, range(b, b - e * length, -e), repeat(c)))
            else:
                bottoms.append(repeat(a // c, length))
                tops.append(repeat(b // c, length))
        # A line holds top - bottom + 1 points, or none when that is negative.
        gaps = map(sub, map(min, *tops), map(max, *bottoms))
        total += length + sum(map(max, gaps, repeat(-1)))
    return total


def contains_point(z: ZonotopeSpec, n: int, point: Sequence[int]) -> bool:
    """Whether the integer point lies in the n-th dilate of the zonotope."""
    if n < 0:
        raise LatticeMathError(f"dilate must be nonnegative, got {n}")
    p = tuple(int(x) for x in point)
    if len(p) != z.dim:
        raise LatticeMathError(f"point has length {len(p)}, ambient dimension is {z.dim}")
    return _Membership(z.config, z.mode == "typeB").test(n, p)


def bounding_box(z: ZonotopeSpec, n: int) -> list[tuple[int, int]]:
    """Componentwise integer bounds from the sign decomposition of the generators."""
    type_b = z.mode == "typeB"
    box = []
    for r in range(z.dim):
        if type_b:
            spread = n * sum(abs(v[r]) for v in z.config.vectors)
            box.append((-spread, spread))
        else:
            lo = n * sum(min(0, v[r]) for v in z.config.vectors)
            hi = n * sum(max(0, v[r]) for v in z.config.vectors)
            box.append((lo, hi))
    return box


def count_lattice_points(z: ZonotopeSpec, n: int) -> int:
    """|nZ cap Z^d| by sweeping the integer bounding box line by line."""
    return _count(_Membership(z.config, z.mode == "typeB"), z, n)


def _count(member: _Membership, z: ZonotopeSpec, n: int) -> int:
    if n < 0:
        raise LatticeMathError(f"dilate must be nonnegative, got {n}")
    box = bounding_box(z, n)
    size = 1
    for lo, hi in box:
        size *= hi - lo + 1
    if size > MAX_BOX_POINTS:
        raise EnumerationLimitError(
            f"bounding box holds {size} integer points, above the "
            f"{MAX_BOX_POINTS} enumeration guard")
    return member.count(n, box)


def interpolate_ehrhart(counts: Sequence[int], r: int) -> Poly:
    """Unique degree-<=r polynomial through (n, counts[n]) by Newton differences.

    Any counts beyond index r must lie on the polynomial; otherwise the
    declared degree was too small and an error is raised.
    """
    if r < 0:
        raise LatticeMathError(f"degree must be nonnegative, got {r}")
    values = list(counts)
    if any(not isinstance(c, int) or isinstance(c, bool) for c in values):
        raise LatticeMathError("counts must be integers")
    if len(values) < r + 1:
        raise LatticeMathError(f"need at least {r + 1} counts for degree {r}")
    diffs = list(values[: r + 1])
    newton = []
    for j in range(r + 1):
        newton.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    poly = Poly()
    falling = Poly((1,))
    for j, coeff in enumerate(newton):
        if j > 0:
            falling = falling * Poly((-(j - 1), 1))
        if coeff:
            poly = poly + falling * Fraction(coeff, factorial(j))
    for extra in range(r + 1, len(values)):
        if poly(extra) != values[extra]:
            raise LatticeMathError(
                f"count at n={extra} is {values[extra]}, but the degree-{r} "
                f"interpolant gives {poly(extra)}; the degree was underestimated")
    return poly


def hstar_via_oracle(z: ZonotopeSpec) -> HStarVector:
    """h*-vector from raw lattice-point counts at dilates 0..d+1.

    One count beyond the d+1 interpolation nodes guards the degree.
    """
    d = z.dim
    if z.config.full_rank != d:
        raise NotFullDimensionalError(
            f"generators span rank {z.config.full_rank} < ambient dimension {d}")
    member = _Membership(z.config, z.mode == "typeB")
    counts = [_count(member, z, n) for n in range(d + 2)]
    ehr = interpolate_ehrhart(counts, d)
    return hstar_from_ehrhart(ehr, d)
