"""Formula-independent ground truth by exact lattice-point counting.

The n-th dilate of Z = sum_i [0,1] v_i (sum_i [-1,1] v_i in typeB mode) is
described exactly by integer rows n*lo <= u . p <= n*hi, built directly from
the generators:

* Facets.  Inside the span of the generators, every facet of Z is parallel
  to r-1 linearly independent generators, where r is the rank.  Its primitive
  normal u spans the integer vectors orthogonal to those generators and to
  the orthogonal complement of the span.  The extent of Z along u is
  [sum_i min(0, u.v_i), sum_i max(0, u.v_i)], or [-s, s] with
  s = sum_i |u.v_i| in typeB mode.
* Equalities.  Each vector w of a lattice basis of the complement gives the
  row 0 <= w . p <= 0, which confines the points to the span.

One integer column fold (`_linalg.fold`) gives all of it.  Folding the
generators into the unit columns counts the rank r and leaves a lattice
basis of the complement.  Folding that basis into fresh unit columns leaves
r columns, a lattice basis of the span; folding r-1 generators into those
leaves one column, the primitive normal, unless a step is zero, when the
generators are dependent and give no facet.

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
mirror, in the centre slice.

The relative interior of the n-th dilate is where every inequality row holds
strictly: every hyperplane spanned by generators supports two opposite
facets of a zonotope, so the rows are exactly its facets.  Strict rows
n*lo + 1 <= u . p <= n*hi - 1 stay centred and are swept the same way, over
the bounding box shrunk by one on each side.  ehrhart_via_oracle reads the
counting polynomial at negative dilates from these interior counts by
Ehrhart-Macdonald reciprocity, so its largest dilate is about (r+1)/2, not
r+1; hstar_via_oracle reads the same polynomial.  No floating point is used
anywhere, and no rational elimination: the fold and the interpolation run
over the integers.
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


class _Membership:
    """Exact integer H-description of the dilates of one zonotope."""

    def __init__(self, config, type_b: bool):
        d = config.dim
        gens = [v for v in config.vectors if any(v)]
        r, complement = 0, _linalg.unit_columns(d)
        for v in gens:
            step, complement = _linalg.fold(v, complement)
            r += step > 0
        span = _linalg.unit_columns(d)
        for w in complement:
            _, span = _linalg.fold(w, span)
        normals = list(complement)
        for subset in combinations(gens, r - 1) if r else ():
            columns = span
            for v in subset:
                step, columns = _linalg.fold(v, columns)
                if not step:
                    break
            else:
                normals.append(columns[0])
        rows = []
        for u in {u if next(x for x in reversed(u) if x) > 0 else tuple(-x for x in u)
                  for u in normals}:
            dots = [sum(map(mul, u, v)) for v in gens]
            if type_b:
                spread = sum(map(abs, dots))
                rows.append((u, -spread, spread))
            else:
                rows.append((u, sum(t for t in dots if t < 0), sum(t for t in dots if t > 0)))
        self.dim = d
        self.rank = r
        self.box = _unit_box(gens, d, type_b)
        self.rows = tuple(sorted(rows))

    def bounds(self, n: int, strict: bool = False) -> list:
        """(u, low, high) for each row low <= u . p <= high of the n-th dilate.

        Strict bounds describe the relative interior: each inequality row
        moves in by one on both sides, and the equality rows stay.
        """
        s = int(strict)
        return [(u, n * lo + s, n * hi - s) if lo < hi else (u, lo, hi)
                for u, lo, hi in self.rows]

    def test(self, n: int, point: Sequence[int], strict: bool = False) -> bool:
        return all(low <= sum(map(mul, u, point)) <= high
                   for u, low, high in self.bounds(n, strict))

    def count(self, n: int, box: Sequence[tuple[int, int]], strict: bool = False) -> int:
        """Integer points of the n-th dilate (its relative interior if strict)
        inside box, a box centred on it.

        Only the heads h with h <= c - h lexicographically are swept, where
        c is the head of box lo + box hi: the heads below the centre in
        x_1, then those at the centre in x_1 and below it in x_2, and so on,
        each line counted twice; then the centre line itself, once.  Strict
        bounds move both ends of a row by one, so they stay centred.
        """
        if self.dim == 0:
            return int(self.test(n, (), strict))
        centre = [lo + hi for lo, hi in box]
        for u, lo, hi in self.rows:
            if n * (lo + hi) != sum(map(mul, u, centre)):
                raise InternalDisagreementError(
                    f"row {lo} <= {u} . p <= {hi} of dilate {n} is not centred on "
                    f"the bounding box {list(box)}; the half sweep needs central symmetry")
        d = self.dim
        # (coefficients of x_1..x_{d-2}, of x_{d-1}, of x_d, low, high)
        rows = [(u[:d - 2], u[d - 2] if d > 1 else 0, u[-1], low, high)
                for u, low, high in self.bounds(n, strict)]
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


def _integers(what: str, values: Sequence, least: int | None = None) -> tuple[int, ...]:
    """The values as a tuple, each checked to be an int (bool excluded) and,
    if least is given, at least least."""
    values = tuple(values)
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise LatticeMathError(f"{what} must be an integer, got {x!r}")
        if least is not None and x < least:
            raise LatticeMathError(f"{what} must be at least {least}, got {x}")
    return values


def contains_point(z: ZonotopeSpec, n: int, point: Sequence[int]) -> bool:
    """Whether the integer point lies in the n-th dilate of the zonotope."""
    _integers("dilate", (n,), 0)
    p = _integers("point coordinate", point)
    if len(p) != z.dim:
        raise LatticeMathError(f"point has length {len(p)}, ambient dimension is {z.dim}")
    return _Membership(z.config, z.mode == "typeB").test(n, p)


def _unit_box(vectors, d: int, type_b: bool) -> list[tuple[int, int]]:
    """Componentwise integer bounds of the zonotope itself, the dilate 1,
    from the sign decomposition of the generators."""
    box = []
    for column in (tuple(v[i] for v in vectors) for i in range(d)):
        if type_b:
            spread = sum(map(abs, column))
            box.append((-spread, spread))
        else:
            box.append((sum(x for x in column if x < 0), sum(x for x in column if x > 0)))
    return box


def bounding_box(z: ZonotopeSpec, n: int) -> list[tuple[int, int]]:
    """Componentwise integer bounds from the sign decomposition of the generators."""
    _integers("dilate", (n,), 0)
    return [(n * lo, n * hi) for lo, hi in _unit_box(z.config.vectors, z.dim, z.mode == "typeB")]


def count_lattice_points(z: ZonotopeSpec, n: int) -> int:
    """|nZ cap Z^d| by sweeping the integer bounding box line by line."""
    _integers("dilate", (n,), 0)
    return _count(_Membership(z.config, z.mode == "typeB"), n)


def count_interior_lattice_points(z: ZonotopeSpec, n: int) -> int:
    """Integer points of the relative interior of nZ, for n >= 1.

    Every hyperplane spanned by generators supports two opposite facets of a
    zonotope, so the relative interior is exactly where every inequality row
    holds strictly, and the sweep counts it the same way.
    """
    _integers("dilate of an interior count", (n,), 1)
    return _count(_Membership(z.config, z.mode == "typeB"), n, strict=True)


def _count(member: _Membership, n: int, strict: bool = False) -> int:
    # A point of the relative interior lies strictly inside every coordinate
    # range that is not a single value, so strict counts sweep a smaller box.
    s = int(strict)
    box = [(n * lo + s, n * hi - s) if lo < hi else (n * lo, n * hi) for lo, hi in member.box]
    size = 1
    for lo, hi in box:
        size *= hi - lo + 1
    if size > MAX_BOX_POINTS:
        raise EnumerationLimitError(
            f"bounding box holds {size} integer points, above the "
            f"{MAX_BOX_POINTS} enumeration guard")
    return member.count(n, box, strict)


def interpolate_ehrhart(counts: Sequence[int], r: int) -> Poly:
    """Unique degree-<=r polynomial through (n, counts[n]) by Newton differences.

    Any counts beyond index r must lie on the polynomial; otherwise the
    declared degree was too small and an error is raised.
    """
    _integers("degree", (r,), 0)
    values = list(_integers("count", counts))
    if len(values) < r + 1:
        raise LatticeMathError(f"need at least {r + 1} counts for degree {r}")
    return _interpolate(values, r, 0)


def _interpolate(values: list[int], r: int, start: int) -> Poly:
    """The degree-<=r polynomial through (start + i, values[i]), i = 0..r,
    checked against the values beyond index r.

    Newton's forward form P(t) = sum_j D_j (t - start)_j / j!, with D_j the
    j-th difference at start and (x)_j the falling factorial, is summed as
    r! * P over the integers; each coefficient becomes a Fraction once, at
    the end.
    """
    diffs = values[: r + 1]
    scale = factorial(r)
    scaled = [0] * (r + 1)  # r! * P, the coefficient of t^i at index i
    falling = [1]  # (t - start)_j, the coefficient of t^i at index i
    for j in range(r + 1):
        if j:
            root = start + j - 1
            falling = [a - root * b for a, b in zip([0] + falling, falling + [0])]
        weight = diffs[0] * (scale // factorial(j))
        for i, c in enumerate(falling):
            scaled[i] += weight * c
        diffs = list(map(sub, diffs[1:], diffs))
    for extra in range(r + 1, len(values)):
        node = start + extra
        got = 0
        for c in reversed(scaled):
            got = got * node + c
        if got != scale * values[extra]:
            raise LatticeMathError(
                f"count at n={node} is {values[extra]}, but the degree-{r} "
                f"interpolant gives {Fraction(got, scale)}; the degree was underestimated")
    return Poly(Fraction(c, scale) for c in scaled)


def ehrhart_via_oracle(z: ZonotopeSpec) -> Poly:
    """Counting polynomial of the zonotope, of any rank r, from raw
    lattice-point counts and Ehrhart-Macdonald reciprocity.

    The counting polynomial E of the r-dimensional zonotope Z satisfies
    E(-k) = (-1)^r times the number of points in the relative interior of
    kZ.  So closed counts at dilates 0..ceil((r+1)/2) and interior counts at
    dilates 1..floor((r+1)/2) give E at the r+2 equally spaced nodes
    -floor((r+1)/2)..ceil((r+1)/2): r+1 to interpolate, and one more to
    guard the degree.  The largest dilate counted is about half of r+1.
    """
    return _ehrhart(_Membership(z.config, z.mode == "typeB"))


def _ehrhart(member: _Membership) -> Poly:
    r = member.rank
    below, above = (r + 1) // 2, (r + 2) // 2
    # The closed count at the largest dilate has the largest box, so the
    # box guard fires before any interior count is spent.
    closed = [_count(member, n) for n in range(above + 1)]
    interior = [_count(member, k, strict=True) for k in range(below, 0, -1)]
    values = [(-1) ** r * c for c in interior] + closed
    return _interpolate(values, r, -below)


def hstar_via_oracle(z: ZonotopeSpec) -> HStarVector:
    """h*-vector of a full-dimensional zonotope from `ehrhart_via_oracle`'s
    polynomial; the rank is checked before anything is counted."""
    d = z.dim
    member = _Membership(z.config, z.mode == "typeB")
    if member.rank != d:
        raise NotFullDimensionalError(
            f"generators span rank {member.rank} < ambient dimension {d}")
    return hstar_from_ehrhart(_ehrhart(member), d)
