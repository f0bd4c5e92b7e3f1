"""Formula-independent ground truth by exact lattice-point counting.

The n-th dilate of Z = sum_i [0,1] v_i is counted in its own lattice, where
it is full-dimensional, and described exactly there by integer rows
n*lo <= u . p <= n*hi, built directly from the generators by one integer
column fold (`_linalg.fold`).  The typeB body sum_i [-1,1] v_i is the lattice
translate 2Z - sum_i v_i of the second dilate, so both modes compile Z: p lies
in its n-th dilate iff p + n sum_i v_i lies in 2nZ; its volume is 2^r vol(Z).

* Lattice.  Folding the generators into the unit columns of Z^d counts the
  rank r and leaves r used columns, the pivots, and d-r free ones, a lattice
  basis of the orthogonal complement of the span; [used | free] is
  unimodular.  So p -> (p . u over the used columns) maps the integer points
  of the span one to one onto Z^r, and below full rank every generator is
  replaced by its image, once unimodular steps have narrowed the body
  along the used columns (`_narrow`).  At full rank nothing is mapped.
* Facets.  Every facet of the body in Z^r is parallel to r-1 linearly
  independent generators, and its primitive normal u spans the integer
  vectors orthogonal to them: folding them into the unit columns of Z^r
  leaves one column, u, unless a step is zero, when they are dependent and
  give no facet.  The extent of Z along u is [sum_i min(0, u.v_i),
  sum_i max(0, u.v_i)].  The (r-1)-subsets are folded down their prefix
  tree, so a prefix shared by several subsets is folded once, and a
  dependent prefix is dropped with all its extensions.  The same walk gives
  the volume sum_B |det B| over the r-subsets B: the steps' product g_S of
  a subset S times |v . u| is |det(S, v)|, for each generator v after S.

Zero generators are dropped, and each row is scaled by -1 if need be so that
its last nonzero coefficient is positive.  From here on d is r, the
dimension counted in.  Counting sweeps the integer bounding box along its
widest axis.  Compiling orders the axes by the width of the body's box,
narrowest first and ties in input order, names them x_1, ..., x_d in that
order, and splits the rows once into lines (with an x_d term) and slabs
(without), each flipped again to end in a positive coefficient in this
order.  For each head (x_1, ..., x_{d-1}), every line bounds x_d by an exact
ceiling or floor division, so a whole line costs one pass over the rows at
any length, and only the d-2 narrowest axes are looped over in Python.  The
innermost head coordinate x_{d-1} steps by one, so each row's u . head is
carried along it by adding u_{d-1}; slabs bound x_{d-1} instead, once per
run of x_{d-1}.  Every row satisfies lo + hi = u . sum_i v_i, and the
bounding box is centred on the same point, so the point reflection
p -> (box lo + box hi) - p maps each dilate and its box onto themselves.
It maps the head with row-major index i among the N heads of the box to
the head with index N-1-i, so one pass sweeps the first floor(N/2) heads
and counts each of their lines twice, and the middle head's line, when N
is odd, once.  A box of one point is swept like any other.
Every count checks each line and slab it sweeps to be centred on its box as
it dilates it, and h* checks every box it will sweep against MAX_BOX_POINTS
before the first sweep.  The rows are exact, so the lines keep x_d in the
box; the box clips a line only where a count has one line row.

The relative interior of the n-th dilate is where every row holds strictly:
every hyperplane spanned by generators supports two opposite facets of a
zonotope, so the rows are exactly its facets.  Strict rows
n*lo + 1 <= u . p <= n*hi - 1 stay centred and are swept the same way, over
the bounding box shrunk by one on each side.

h* of the rank-r body comes from both ends, in integers (`_hstar`): closed
counts at dilates 1..floor(r/2), as E(0) = 1 for every body, give its
bottom floor(r/2)+1 entries, and interior counts at 1..ceil(r/2) its top
ceil(r/2) ones, by Ehrhart-Macdonald reciprocity: r counts, none at rank 0.
The two ends share no entry, so h*(1) = r! vol guards them, with the
body's volume from the compile: every single wrong count moves h*(1), and
the guard ties the counts to the generators, which the rows alone do not.
hstar_via_oracle returns that h*, and ehrhart_via_oracle its counting
polynomial.  No floating point is used anywhere, and no rational
elimination: the fold and the counts run over the integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, permutations, product, repeat
from math import factorial, prod
from operator import floordiv, mul, sub
from typing import Sequence

from . import _linalg
from .errors import (EnumerationLimitError, InternalDisagreementError, LatticeMathError,
                     _integers)
from .polycore import HStarVector, Poly, _hstar_numerator, ehrhart_from_hstar
from .zonotope import ZonotopeSpec

MAX_BOX_POINTS = 10**7


class _Membership:
    """Exact integer H-description of the dilates of Z, in Z^r, in both modes."""

    def __init__(self, z: ZonotopeSpec):
        gens = [v for v in z.config.vectors if any(v)]
        self.scale = 2 if z.mode == "typeB" else 1
        self.used, self.free = [], _linalg.unit_columns(z.dim)
        for v in gens:
            _, self.free, pivot = _linalg.fold(v, self.free)
            if pivot is not None:
                self.used.append(pivot)
        r = self.rank = len(self.used)
        if self.free:
            _narrow(self.used, gens)
            gens = [self._coordinates(v) for v in gens]
        normals = []
        # Z's volume in Z^r: sum_B |det B| over the r-subsets B (1 at rank 0).
        volume = _facet_normals(gens, _linalg.unit_columns(r), 0, r - 1, normals) if r else 1
        self.volume = volume * self.scale ** r
        self.rows = tuple(sorted(
            (u, *_extent([sum(map(mul, u, v)) for v in gens]))
            for u in {u if next(x for x in reversed(u) if x) > 0 else tuple(-x for x in u)
                      for u in normals}))
        self.box = _unit_box(gens, r)
        # The sweep order: axes by unit-box width, narrowest first (ties in
        # input order), so the widest is the line axis.  Each row is split
        # once in it, into _sweep's (coefficients of x_1..x_{d-2}, e, c, lo,
        # hi), and flipped to end in a positive coefficient, as _sweep needs.
        self.order = sorted(range(r), key=lambda i: self.box[i][1] - self.box[i][0])
        self.lines, self.slabs = [], []
        for u, lo, hi in self.rows:
            u = [u[i] for i in self.order]
            if next(x for x in reversed(u) if x) < 0:
                u, lo, hi = [-x for x in u], -hi, -lo
            (self.lines if u[-1] else self.slabs).append(
                (u[:r - 2], u[r - 2] if r > 1 else 0, u[-1], lo, hi))

    def _coordinates(self, p: Sequence[int]) -> Sequence[int]:
        """The point p of the span in the lattice counted in: (p . u over the
        used columns) below full rank, p itself at full rank."""
        return tuple(sum(map(mul, p, u)) for u in self.used) if self.free else p

    def test(self, n: int, point: Sequence[int], strict: bool = False) -> bool:
        """Whether the point lies on the span and satisfies every row of the
        n-th dilate, or of its relative interior if strict."""
        on_span = not any(sum(map(mul, f, point)) for f in self.free)
        shift = (self.scale - 1) * n  # p + n sum_i v_i in typeB mode, sum_i v_i = lo + hi
        point = [x + shift * (lo + hi) for x, (lo, hi) in zip(self._coordinates(point), self.box)]
        return on_span and all(low <= sum(map(mul, u, point)) <= high for u, lo, hi in self.rows
                               for low, high in [self._dilate(n, lo, hi, strict)])

    def box_at(self, n: int, strict: bool = False) -> list[tuple[int, int]]:
        """Integer bounding box of the n-th dilate in Z^r, or of its relative
        interior if strict, refused above MAX_BOX_POINTS."""
        box = [self._dilate(n, lo, hi, strict) for lo, hi in self.box]
        size = prod(hi - lo + 1 for lo, hi in box)
        if size > MAX_BOX_POINTS:
            raise EnumerationLimitError(
                f"bounding box holds {size} integer points, above the "
                f"{MAX_BOX_POINTS} enumeration guard")
        return box

    def count(self, n: int, strict: bool = False) -> int:
        """Integer points of the n-th dilate, or of its relative interior if
        strict, by the half sweep of its bounding box (`box_at`) that the
        module docstring describes; Z^0 holds one point and is not swept."""
        box = self.box_at(n, strict)
        if not box:
            return 1
        box = [box[i] for i in self.order]
        *outer, (start, stop) = box[:-1] or [(0, 0)]
        # Box lo + box hi along each axis in sweep order; 0 for x_{d-1} at d = 1.
        *centre, centre_e, centre_c = [lo + hi for lo, hi in (*outer, (start, stop), box[-1])]
        lines, slabs = [], []
        for rows, swept in ((self.lines, lines), (self.slabs, slabs)):
            for p, e, c, lo, hi in rows:
                lo, hi = self._dilate(n, lo, hi, strict)
                if lo + hi != sum(map(mul, p, centre)) + e * centre_e + c * centre_c:
                    raise InternalDisagreementError(
                        f"row {lo} <= {(*p, e, c)} . p <= {hi} of dilate {n}, in sweep order, "
                        f"is not centred on the bounding box {box}; the half sweep needs "
                        f"central symmetry")
                swept.append((p, e, c, lo, hi))
        width = stop - start + 1
        heads = width * prod(hi - lo + 1 for lo, hi in outer)
        half, odd = divmod(heads, 2)
        # A strict box can be empty along x_{d-1}; then half is 0 as well.
        full, part = divmod(half, width or 1)
        prefixes = product(*(range(lo, hi + 1) for lo, hi in outer))
        runs = [(prefix, start, stop, 2) for prefix in islice(prefixes, full)]
        if part or odd:
            prefix, middle = next(prefixes), start + part
            if part:
                runs.append((prefix, start, middle - 1, 2))
            if odd:
                runs.append((prefix, middle, middle, 1))
        return _sweep(lines, slabs, runs, box[-1])

    def _dilate(self, n: int, lo: int, hi: int, strict: bool) -> tuple[int, int]:
        """The range lo..hi of Z, a coordinate's or a row's, at the dilate counted
        for n, 2n in typeB mode; for the relative interior moved in by one."""
        return self.scale * n * lo + strict, self.scale * n * hi - strict


def _narrow(columns: list, gens: list) -> None:
    """Reduce the used columns u_i in place by unimodular steps, which keep the map one
    to one: exact LLL (delta 3/4) of the rows (v . u_i over the generators v), then steps
    u_i -> u_i - t u_j, t a breakpoint's floor or ceiling, while they narrow the convex,
    piecewise linear width sum_k |v_k . u_i|; at rank 2 the box ends within the ambient one."""
    k = 1
    while k < len(columns):
        rows = [[sum(map(mul, v, u)) for v in gens] for u in columns]
        norms, mu = [], []  # Gram-Schmidt from the integer Gram matrix of the rows
        for row in rows:
            mu.append([])
            for prior, b, mu_j in zip(rows, norms, mu):
                dot = sum(map(mul, row, prior)) - sum(map(mul, map(mul, mu[-1], mu_j), norms))
                mu[-1].append(Fraction(dot, b))
            norms.append(sum(map(mul, row, row)) - sum(map(mul, map(mul, mu[-1], mu[-1]), norms)))
        for j in reversed(range(k)):  # size reduction, which keeps the norms
            t = round(mu[k][j])
            columns[k] = tuple(x - t * y for x, y in zip(columns[k], columns[j]))
            mu[k][:j + 1] = [a - t * b for a, b in zip(mu[k], mu[j] + [1])]
        swap = norms[k] < (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]  # Lovasz
        if swap:
            columns[k - 1], columns[k] = columns[k], columns[k - 1]
        k = max(k - 1, 1) if swap else k + 1
    narrowing = True
    while narrowing:
        narrowing = False
        for i, j in permutations(range(len(columns)), 2):
            a, b = ([sum(map(mul, v, u)) for v in gens] for u in (columns[i], columns[j]))
            width = lambda t: sum(abs(x - t * y) for x, y in zip(a, b))
            t = min((x // y + k for x, y in zip(a, b) if y for k in (0, 1)), key=width)
            if width(t) < width(0):
                columns[i] = tuple(x - t * y for x, y in zip(columns[i], columns[j]))
                narrowing = True


def _facet_normals(gens, columns, start: int, depth: int, normals: list, steps: int = 1) -> int:
    """Append the column left by folding each independent depth-subset S of
    gens[start:] into columns, down the prefix tree of the subsets: every
    prefix is folded once for all its extensions, and a zero step prunes
    the dependent prefix with all of them.  Return sum |det(S, v)| over
    every S and every generator v after it: with g_S the product of S's
    steps, carried down the tree, and u its column, |det(S, v)| = g_S |v . u|."""
    if not depth:
        normals.append(columns[0])
        return steps * sum(abs(sum(map(mul, columns[0], v))) for v in gens[start:])
    volume = 0
    for i in range(start, len(gens) - depth + 1):
        step, rest, _ = _linalg.fold(gens[i], columns)
        if step:
            volume += _facet_normals(gens, rest, i + 1, depth - 1, normals, steps * step)
    return volume


def _sweep(lines, slabs, runs, last) -> int:
    """Weighted integer points of the rows over runs of lines along x_d.

    Coordinates are in the sweep order, so x_d is the widest axis and last
    its range.  Rows are (coefficients of x_1..x_{d-2}, e, c, lo, hi) for
    lo <= u . p <= hi, where e and c are the coefficients of x_{d-1} and
    x_d; c > 0 in lines, c = 0 and e >= 0 in slabs.  Each run
    (prefix, start, stop, weight) is the heads (prefix, x_{d-1}) with
    start <= x_{d-1} <= stop, whose lines count weight times each.  The
    rows are exact, so the lines keep x_d inside last; last bounds a line
    only when there is one line row, as map(min) needs two iterables.
    """
    first, final = last
    clip = len(lines) < 2
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
        bottoms = [repeat(first, length)] if clip else []
        tops = [repeat(final, length)] if clip else []
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


def contains_point(z: ZonotopeSpec, n: int, point: Sequence[int]) -> bool:
    """Whether the integer point lies in the n-th dilate of the zonotope."""
    _integers("dilate", (n,), 0)
    p = _integers("point coordinate", point)
    if len(p) != z.dim:
        raise LatticeMathError(f"point has length {len(p)}, ambient dimension is {z.dim}")
    return _Membership(z).test(n, p)


def _extent(dots: list[int]) -> tuple[int, int]:
    """The range of sum_i c_i dots_i over c_i in [0, 1]: the sums of the
    negative and of the positive dots."""
    spread = sum(map(abs, dots))
    return (sum(dots) - spread) // 2, (sum(dots) + spread) // 2


def _unit_box(gens, d: int) -> list[tuple[int, int]]:
    """Componentwise integer bounds of the zonotope of gens in Z^d itself."""
    return [_extent([v[i] for v in gens]) for i in range(d)]


def bounding_box(z: ZonotopeSpec, n: int) -> list[tuple[int, int]]:
    """Componentwise integer bounds in Z^d from the sign decomposition of the
    generators: the ambient box, not the one a count sweeps below full rank.
    The typeB body 2Z - sum_i v_i is centred on 0 and twice as wide."""
    _integers("dilate", (n,), 0)
    return [(n * (lo - hi), n * (hi - lo)) if z.mode == "typeB" else (n * lo, n * hi)
            for lo, hi in _unit_box(z.config.vectors, z.dim)]


def count_lattice_points(z: ZonotopeSpec, n: int) -> int:
    """|nZ cap Z^d| by sweeping the integer bounding box line by line."""
    _integers("dilate", (n,), 0)
    return _Membership(z).count(n)


def count_interior_lattice_points(z: ZonotopeSpec, n: int) -> int:
    """Integer points of the relative interior of nZ, for n >= 1: where
    every row holds strictly, as every row is a facet."""
    _integers("dilate of an interior count", (n,), 1)
    return _Membership(z).count(n, strict=True)


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
    """h*-vector of rank r from E(0) = 1, closed counts at dilates
    1..floor(r/2) and interior counts at 1..ceil(r/2), in integers; r counts
    for the r unknown entries, none at rank 0.

    With E(n) the closed and I(n) the interior count of the n-th dilate,
    sum_n E(n) t^n = h*(t) / (1-t)^(r+1), and by Ehrhart-Macdonald
    reciprocity sum_n I(n) t^n = t^(r+1) h*(1/t) / (1-t)^(r+1).  So
    h*_k = sum_i (-1)^(k-i) C(r+1, k-i) E(i) gives the bottom entries
    h*_0..h*_floor(r/2), and h*_(r+1-k) = sum_i (-1)^(k-i) C(r+1, k-i) I(i)
    the top ones, h*_(floor(r/2)+1)..h*_r.  The ends meet without overlap,
    so h*(1) = r! vol guards them, with vol the body's volume (2^r vol(Z)
    in typeB mode) from the compile.  A count moved by one moves the
    sum by +-C(r, K-n) != 0, with K = floor(r/2) or ceil(r/2) for its end
    and n its dilate, so every single wrong count trips the guard, and the
    volume ties the counts to the generators.
    """
    r = member.rank
    low, high = r // 2, (r + 1) // 2
    dilates = [(n, False) for n in range(1, low + 1)] + [(k, True) for k in range(1, high + 1)]
    for n, strict in dilates:  # every box meets the guard before the first sweep
        member.box_at(n, strict)
    counts = [member.count(n, strict) for n, strict in dilates]
    closed, interior = [1] + counts[:low], [0] + counts[low:]
    h = _hstar_numerator(closed, r) + _hstar_numerator(interior, r)[high:0:-1]
    if sum(h) != factorial(r) * member.volume:
        raise InternalDisagreementError(
            f"h* = {h} from the closed counts {closed} and the interior counts "
            f"{interior[1:]} sums to {sum(h)}, but {r}! times the generators' volume "
            f"{member.volume} is {factorial(r) * member.volume}")
    return HStarVector(h, r)


def hstar_via_oracle(z: ZonotopeSpec) -> HStarVector:
    """h*-vector of the zonotope, of any rank r, at degree r, from closed and
    interior lattice-point counts of its relative interior."""
    return _hstar(_Membership(z))
