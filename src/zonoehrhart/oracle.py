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

Zero generators are dropped.  Counting sweeps the integer bounding box along
its last coordinate: for each point of the first d-1 coordinates, every row
bounds x_d by an exact ceiling or floor division, so a whole line costs one
pass over the rows.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial
from operator import mul
from typing import Sequence

from . import _linalg
from .errors import (EnumerationLimitError, LatticeMathError, NotFullDimensionalError)
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


def _extend_independent(chosen, candidates):
    """chosen plus the candidates that each raise its rank, taken greedily."""
    chosen = list(chosen)
    for v in candidates:
        if _linalg.rank(chosen + [v]) > len(chosen):
            chosen.append(v)
    return chosen


class _Membership:
    """Exact integer H-description of the dilates of one zonotope."""

    def __init__(self, config, type_b: bool):
        d = config.dim
        gens = [v for v in config.vectors if any(v)]
        span = _extend_independent([], gens)
        r = len(span)
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        completion = _extend_independent(span, units)[r:]
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
        self.rows = tuple(sorted((u, lo, hi) for u, (lo, hi) in rows.items()))

    def test(self, n: int, point: Sequence[int]) -> bool:
        return all(n * lo <= sum(map(mul, u, point)) <= n * hi
                   for u, lo, hi in self.rows)

    def count(self, n: int, box: Sequence[tuple[int, int]]) -> int:
        """Integer points of the n-th dilate inside box, one line along x_d at a time."""
        if self.dim == 0:
            return int(self.test(n, ()))
        *outer, (first, last) = box
        lines = [(u[:-1], u[-1], n * lo, n * hi) for u, lo, hi in self.rows]
        total = 0
        for head in product(*(range(lo, hi + 1) for lo, hi in outer)):
            low, high = first, last
            for coeffs, c, lo, hi in lines:
                s = sum(map(mul, coeffs, head))
                # lo <= s + c*x_d <= hi
                if c > 0:
                    low = max(low, -((s - lo) // c))
                    high = min(high, (hi - s) // c)
                elif c < 0:
                    low = max(low, -((hi - s) // -c))
                    high = min(high, (s - lo) // -c)
                elif not lo <= s <= hi:
                    break
                if low > high:
                    break
            else:
                total += high - low + 1
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
