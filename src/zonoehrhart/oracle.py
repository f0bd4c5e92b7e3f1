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
generators are dependent and give no facet.  The (r-1)-subsets are folded
down their prefix tree, so a prefix shared by several subsets is folded
once, and a dependent prefix is dropped with all its extensions.

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
It maps the head with row-major index i among the N heads of the box to the
head with index N-1-i, so one pass sweeps the first floor(N/2) heads and
counts each of their lines twice, and the middle head's line, when N is
odd, once.  A box of one point is tested directly.

The relative interior of the n-th dilate is where every inequality row holds
strictly: every hyperplane spanned by generators supports two opposite
facets of a zonotope, so the rows are exactly its facets.  Strict rows
n*lo + 1 <= u . p <= n*hi - 1 stay centred and are swept the same way, over
the bounding box shrunk by one on each side.

h* of the rank-r body comes from both ends, in integers: its bottom entries
from closed counts, as the numerator of the Ehrhart series, and its top
entries from interior counts, by Ehrhart-Macdonald reciprocity.  So the
largest dilate counted is ceil((r+1)/2), not r+1, and the entry both ends
reach guards the degree.  Each end is the binomial sum that
hstar_from_ehrhart takes (`polycore._hstar_numerator`); interpolate_ehrhart
reads given counts 0..r through it too, as the counting polynomial of their
h*.  hstar_via_oracle returns that h*, and ehrhart_via_oracle its counting
polynomial.  No floating point is used anywhere, and no rational
elimination: the fold and the counts run over the integers.
"""

from __future__ import annotations

from itertools import islice, product, repeat
from operator import floordiv, mul, sub
from typing import Sequence

from . import _linalg
from .errors import (EnumerationLimitError, InternalDisagreementError, LatticeMathError,
                     NotFullDimensionalError)
from .polycore import HStarVector, Poly, _hstar_numerator, ehrhart_from_hstar
from .zonotope import ZonotopeSpec

MAX_BOX_POINTS = 10**7


class _Membership:
    """Exact integer H-description of the dilates of one zonotope."""

    def __init__(self, z: ZonotopeSpec):
        d = z.dim
        type_b = z.mode == "typeB"
        gens = [v for v in z.config.vectors if any(v)]
        r, complement = 0, _linalg.unit_columns(d)
        for v in gens:
            step, complement = _linalg.fold(v, complement)
            r += step > 0
        span = _linalg.unit_columns(d)
        for w in complement:
            _, span = _linalg.fold(w, span)
        normals = list(complement)
        if r:
            _facet_normals(gens, span, 0, r - 1, normals)
        rows = []
        for u in {u if next(x for x in reversed(u) if x) > 0 else tuple(-x for x in u)
                  for u in normals}:
            dots = [sum(map(mul, u, v)) for v in gens]
            spread = sum(map(abs, dots))
            if type_b:
                rows.append((u, -spread, spread))
            else:
                # The sums of the negative and of the positive u . v_i.
                total = sum(dots)
                rows.append((u, (total - spread) // 2, (total + spread) // 2))
        self.dim = d
        self.rank = r
        self.box = _unit_box(z)
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

        The point reflection about the centre maps the head with row-major
        index i among the N heads (x_1, ..., x_{d-1}) of box to the head
        with index N-1-i, so the lines of the first floor(N/2) heads are
        swept in one pass and counted twice, and the middle head's line, if
        N is odd, once.  Strict bounds move both ends of a row by one, so
        they stay centred.
        """
        centre = [lo + hi for lo, hi in box]
        for u, lo, hi in self.rows:
            if n * (lo + hi) != sum(map(mul, u, centre)):
                raise InternalDisagreementError(
                    f"row {lo} <= {u} . p <= {hi} of dilate {n} is not centred on "
                    f"the bounding box {list(box)}; the half sweep needs central symmetry")
        if all(lo == hi for lo, hi in box):
            return int(self.test(n, [lo for lo, _ in box], strict))
        d = self.dim
        # (coefficients of x_1..x_{d-2}, of x_{d-1}, of x_d, low, high)
        rows = [(u[:d - 2], u[d - 2] if d > 1 else 0, u[-1], low, high)
                for u, low, high in self.bounds(n, strict)]
        lines = [row for row in rows if row[2]]
        slabs = [row for row in rows if not row[2]]
        *outer, (start, stop) = box[:-1] or [(0, 0)]
        width = stop - start + 1
        heads = width
        for lo, hi in outer:
            heads *= hi - lo + 1
        half, odd = divmod(heads, 2)
        # A strict box can be empty along x_{d-1}; then half is 0 as well.
        full, part = divmod(half, width or 1)
        prefixes = product(*(range(lo, hi + 1) for lo, hi in outer))
        runs = [(prefix, start, stop, 2) for prefix in islice(prefixes, full)]
        if part or odd:
            prefix, middle = next(prefixes), start + part
            runs.append((prefix, start, middle - 1, 2))
            if odd:
                runs.append((prefix, middle, middle, 1))
        return _sweep(lines, slabs, runs, box[-1])


def _facet_normals(gens, columns, start: int, depth: int, normals: list) -> None:
    """Append the column left by folding each independent depth-subset of
    gens[start:] into columns, down the prefix tree of the subsets: every
    prefix is folded once for all its extensions, and a zero step prunes
    the dependent prefix with all of them."""
    if not depth:
        normals.append(columns[0])
        return
    for i in range(start, len(gens) - depth + 1):
        step, rest = _linalg.fold(gens[i], columns)
        if step:
            _facet_normals(gens, rest, i + 1, depth - 1, normals)


def _sweep(lines, slabs, runs, last) -> int:
    """Weighted integer points of the rows over runs of lines along x_d.

    Rows are (coefficients of x_1..x_{d-2}, e, c, lo, hi) for
    lo <= u . p <= hi, where e and c are the coefficients of x_{d-1} and
    x_d; c > 0 in lines, c = 0 and e >= 0 in slabs.  Each run
    (prefix, start, stop, weight) is the heads (prefix, x_{d-1}) with
    start <= x_{d-1} <= stop, whose lines count weight times each.
    """
    first, final = last
    total = 0
    for prefix, start, stop, weight in runs:
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
            if not e:
                bottoms.append(repeat(a // c, length))
                tops.append(repeat(b // c, length))
            elif c == 1:
                bottoms.append(range(a, a - e * length, -e))
                tops.append(range(b, b - e * length, -e))
            else:
                bottoms.append(map(floordiv, range(a, a - e * length, -e), repeat(c)))
                tops.append(map(floordiv, range(b, b - e * length, -e), repeat(c)))
        # A line holds top - bottom + 1 points, or none when that is negative.
        gaps = map(sub, map(min, *tops), map(max, *bottoms))
        total += weight * (length + sum(map(max, gaps, repeat(-1))))
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
    return _Membership(z).test(n, p)


def _unit_box(z: ZonotopeSpec) -> list[tuple[int, int]]:
    """Componentwise integer bounds of the zonotope itself, the dilate 1,
    from the sign decomposition of the generators."""
    box = []
    for column in (tuple(v[i] for v in z.config.vectors) for i in range(z.dim)):
        if z.mode == "typeB":
            spread = sum(map(abs, column))
            box.append((-spread, spread))
        else:
            box.append((sum(x for x in column if x < 0), sum(x for x in column if x > 0)))
    return box


def bounding_box(z: ZonotopeSpec, n: int) -> list[tuple[int, int]]:
    """Componentwise integer bounds from the sign decomposition of the generators."""
    _integers("dilate", (n,), 0)
    return [(n * lo, n * hi) for lo, hi in _unit_box(z)]


def count_lattice_points(z: ZonotopeSpec, n: int) -> int:
    """|nZ cap Z^d| by sweeping the integer bounding box line by line."""
    _integers("dilate", (n,), 0)
    return _count(_Membership(z), n)


def count_interior_lattice_points(z: ZonotopeSpec, n: int) -> int:
    """Integer points of the relative interior of nZ, for n >= 1.

    Every hyperplane spanned by generators supports two opposite facets of a
    zonotope, so the relative interior is exactly where every inequality row
    holds strictly, and the sweep counts it the same way.
    """
    _integers("dilate of an interior count", (n,), 1)
    return _count(_Membership(z), n, strict=True)


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
    """Unique degree-<=r polynomial through (n, counts[n]), n = 0..r: the
    counting polynomial of the h*-vector read from those counts.

    Any counts beyond index r must lie on the polynomial; otherwise the
    declared degree was too small and an error is raised.
    """
    _integers("degree", (r,), 0)
    values = _integers("count", counts)
    if len(values) < r + 1:
        raise LatticeMathError(f"need at least {r + 1} counts for degree {r}")
    ehr = ehrhart_from_hstar(HStarVector(_hstar_numerator(values[:r + 1], r), r))
    for n in range(r + 1, len(values)):
        got = ehr(n)
        if got != values[n]:
            raise LatticeMathError(
                f"count at n={n} is {values[n]}, but the degree-{r} "
                f"interpolant gives {got}; the degree was underestimated")
    return ehr


def ehrhart_via_oracle(z: ZonotopeSpec) -> Poly:
    """Counting polynomial of the zonotope, of any rank r, from raw
    lattice-point counts and Ehrhart-Macdonald reciprocity: the polynomial
    of the h*-vector of rank r that `hstar_via_oracle` reads from them."""
    return ehrhart_from_hstar(_hstar(_Membership(z)))


def _hstar(member: _Membership) -> HStarVector:
    """h*-vector of rank r from closed counts at dilates 0..ceil((r+1)/2) and
    interior counts at dilates 1..floor((r+1)/2), in integers.

    With E(n) the closed and I(n) the interior count of the n-th dilate,
    sum_n E(n) t^n = h*(t) / (1-t)^(r+1), and by Ehrhart-Macdonald
    reciprocity sum_n I(n) t^n = t^(r+1) h*(1/t) / (1-t)^(r+1).  So
    h*_k = sum_i (-1)^(k-i) C(r+1, k-i) E(i) for the bottom entries, and
    h*_(r+1-k) = sum_i (-1)^(k-i) C(r+1, k-i) I(i) for the top ones.  Both
    ends reach the entry h*_ceil((r+1)/2) (for r = 0, h*_1, which must be
    0); the counts lie on one polynomial of degree r exactly when the two
    agree, so that entry guards the degree.
    """
    r = member.rank
    below, above = (r + 1) // 2, (r + 2) // 2
    # The closed count at the largest dilate has the largest box, so the
    # box guard fires before any interior count is spent.
    closed = [_count(member, n) for n in range(above + 1)]
    interior = [0] + [_count(member, k, strict=True) for k in range(1, below + 1)]
    bottom, top = _hstar_numerator(closed, r), _hstar_numerator(interior, r)
    if bottom[above] != top[below]:
        raise InternalDisagreementError(
            f"h*_{above} is {bottom[above]} from the closed counts {closed} but "
            f"{top[below]} from the interior counts {interior[1:]}; the counts do not "
            f"lie on one polynomial of degree {r}")
    return HStarVector(bottom[:above] + top[below:0:-1], r)


def hstar_via_oracle(z: ZonotopeSpec) -> HStarVector:
    """h*-vector of a full-dimensional zonotope from closed and interior
    lattice-point counts; the rank is checked before anything is counted."""
    d = z.dim
    member = _Membership(z)
    if member.rank != d:
        raise NotFullDimensionalError(
            f"generators span rank {member.rank} < ambient dimension {d}")
    return _hstar(member)
