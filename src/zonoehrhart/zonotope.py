"""Ehrhart and h*-polynomials of lattice zonotopes and related bodies.

A zonotope spec is a vector configuration plus a mode: "standard" means
generator coefficients in [0, 1], "typeB" means coefficients in [-1, 1]
(a lattice translate of the dilation by 2 of the standard body).  `ehrhart`,
`hstar`, `hstar_totally_unimodular` and `hstar_halfopen_parallelepiped`
read the mode from the spec and answer in both; the h* paths weight each
half-open piece by the refined Eulerian family of the mode, A_j for
standard and B_j for typeB.  The four `*_zonotope` wrappers accept one mode
each.

All h* computations are parameterized over a box-valuation table holding the
rational value b(I) assigned to the open box spanned by each independent set
I; the default table encodes lattice-point counting.  Every h* path works at
the rank r of the configuration and returns h* of degree r: a rank-r lattice
zonotope is unimodularly equivalent to a full-dimensional one in Z^r, and
that map keeps the independent sets, the bases, IP(B) and the minor gcds,
which count each half-open box in its own span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .errors import DependentSetError, InternalDisagreementError, LatticeMathError, _integers
from .eulerian import _a_row, _b_row, a_j_polynomial
from .matroid import VectorConfiguration, _as_index_set, _mask, _subset_transform
from .polycore import (HStarVector, Poly, _as_hstar, _exact, ehrhart_from_hstar,
                       express_in_shifted_power_basis)

MODES = ("standard", "typeB")


@dataclass(frozen=True)
class ZonotopeSpec:
    """Generator configuration plus coefficient mode."""

    config: VectorConfiguration
    mode: str = "standard"

    def __post_init__(self):
        if self.mode not in MODES:
            raise LatticeMathError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def dim(self) -> int:
        return self.config.dim


class BoxValuationTable:
    """Map from independent index sets to the valuation of their open box."""

    def __init__(self, config: VectorConfiguration, values: Mapping[tuple, int | Fraction]):
        self.config = config
        domain = set(config.independent_sets())
        table = {}
        for key, v in _by_sorted_key(values).items():
            if key not in domain:
                raise DependentSetError(f"{key!r} is not an independent set of the configuration")
            table[key] = _table_value(key, v)
        for s in domain:
            if s not in table:
                raise LatticeMathError(f"box table is missing the independent set {s!r}")
        self.values = table

    def value(self, indices: Sequence[int]) -> int | Fraction:
        key = _sorted_key(indices)
        try:
            return self.values[key]
        except KeyError:
            raise DependentSetError(f"{key!r} is not an independent set of the configuration")

    def override(self, updates: Mapping[tuple, int | Fraction]) -> "BoxValuationTable":
        return BoxValuationTable(self.config, {**self.values, **_by_sorted_key(updates)})


def _sorted_key(indices: Sequence[int]) -> tuple:
    return tuple(sorted(_integers("an index", indices)))


def _by_sorted_key(values: Mapping[tuple, int | Fraction]) -> dict:
    """The entries keyed by their sorted index tuples; a set named twice raises."""
    keyed = {}
    for indices, v in values.items():
        key = _sorted_key(indices)
        if key in keyed:
            raise LatticeMathError(f"box table names the set {key!r} twice")
        keyed[key] = v
    return keyed


def _table_value(key: tuple, v) -> int | Fraction:
    if not isinstance(v, (int, Fraction)):
        raise LatticeMathError(f"box value of {key!r} must be an int or Fraction, "
                               f"got {type(v).__name__}")
    return _exact(v)


def default_box_table(config: VectorConfiguration) -> BoxValuationTable:
    """Box table of the lattice-point count: the configuration's own box counts."""
    return BoxValuationTable(config, config._box_counts)


def _resolve_table(config, table) -> Mapping[tuple, int | Fraction]:
    """The table's values, or the configuration's box counts without a table."""
    if table is None:
        return config._box_counts
    if table.config != config:
        raise LatticeMathError("box table belongs to a different configuration")
    return table.values


# ---------------------------------------------------------------------------
# Ehrhart polynomials
# ---------------------------------------------------------------------------

def ehrhart(z: ZonotopeSpec, table: BoxValuationTable | None = None) -> Poly:
    """Counting polynomial of the zonotope in either mode.

    Standard mode: sum_I phi(box(I)) n^|I| over independent sets, where
    phi(box(I)) = sum_{J subseteq I} b(J); with the default table this is the
    classical sum of minor gcds weighted by n^|I|.  TypeB mode: the same
    polynomial at 2n, since the [-1,1]-coefficient body is a lattice translate
    of the doubled standard one.
    """
    config = z.config
    if table is None:
        phi = config._minor_gcds  # the lattice-point count of box(I) is gcd(I)
    else:
        phi = _subset_transform(_resolve_table(config, table), config.n, 1)
    coeffs = [0] * (config.full_rank + 1)
    for s, v in phi.items():
        coeffs[len(s)] += v
    standard = Poly(coeffs)
    return standard.scale_argument(2) if z.mode == "typeB" else standard


def ehrhart_zonotope(z: ZonotopeSpec, table: BoxValuationTable | None = None) -> Poly:
    """`ehrhart` of a standard-mode zonotope."""
    if z.mode != "standard":
        raise LatticeMathError("ehrhart_zonotope takes a standard-mode spec; "
                               "use ehrhart_type_b_zonotope for [-1,1] coefficients")
    return ehrhart(z, table)


def ehrhart_type_b_zonotope(z: ZonotopeSpec, table: BoxValuationTable | None = None) -> Poly:
    """`ehrhart` of a typeB-mode zonotope: the standard counting polynomial at 2n."""
    if z.mode != "typeB":
        raise LatticeMathError("ehrhart_type_b_zonotope takes a typeB-mode spec")
    return ehrhart(z, table)


def ehrhart_halfopen_cube(d: int, j: int) -> Poly:
    """n^j (1+n)^(d-j), the counting polynomial of the unit cube with j facets removed."""
    _check_cube_args(d, j)
    return Poly((0, 1)) ** j * Poly((1, 1)) ** (d - j)


def hstar_halfopen_cube(d: int, j: int) -> HStarVector:
    """h* of the half-open unit cube: the (j+1)-st refined Eulerian polynomial."""
    _check_cube_args(d, j)
    return HStarVector.from_poly(a_j_polynomial(d + 1, j + 1), d)


def _check_cube_args(d: int, j: int) -> None:
    _integers("d", (d,), 0)
    _integers("j", (j,), 0, d)


# ---------------------------------------------------------------------------
# h* of half-open parallelepipeds and zonotopes
#
# Every h* below is sum_j c_j R_j(r+1, t) over j = 1..r+1, at the rank r of
# the generators, where the integer (or, for custom tables, rational)
# histogram c is the matroid double sum and the row R is the refined Eulerian
# family of the mode: A_j for standard, B_j for typeB.
# ---------------------------------------------------------------------------

def _eulerian_histogram(values, pieces, r: int) -> list:
    """c[|K u P|] += b(K) for each piece (B, P) and each subset K of B.

    B is a sorted tuple of indices, P the bit mask of the passive (removed)
    directions and `values` maps sorted index tuples to b; entry i of the
    result is the coordinate of A_{i+1}(r+1) (or B_{i+1}(r+1)).
    """
    c = [0] * (r + 1)
    for basis, passive in pieces:
        for k in range(len(basis) + 1):
            for sub in combinations(basis, k):
                b = values[sub]
                if b != 0:
                    c[(passive | _mask(sub)).bit_count()] += b
    return c


def _assemble(c: Sequence, r: int, mode: str) -> HStarVector:
    """h* = sum_j c_j R_j(r+1) with the refined family of the mode as row R."""
    row = _b_row(r) if mode == "typeB" else _a_row(r + 1)
    h = [0] * (r + 1)
    for cj, poly in zip(c, row):
        if cj != 0:
            for i, x in enumerate(poly.coeffs):
                h[i] += cj * x
    return HStarVector(h, r)


def hstar_halfopen_parallelepiped(z: ZonotopeSpec, removed: Sequence[int] = (),
                                  table: BoxValuationTable | None = None) -> HStarVector:
    """h* of the parallelepiped of z's r independent generators with the
    facets in the removed directions taken away, in z's mode.

    Computes sum_K b(K) * R_{|removed u K| + 1}(r+1, t) over all subsets K of
    the generators, with R = A in standard mode and R = B in typeB mode; the
    box table refers to the original (undoubled) generators.
    """
    config = z.config
    r = config.n
    if config.full_rank != r:
        raise DependentSetError("parallelepiped generators must be linearly independent")
    values = _resolve_table(config, table)
    passive = _mask(_as_index_set(removed, r))
    c = _eulerian_histogram(values, [(tuple(range(1, r + 1)), passive)], r)
    return _assemble(c, r, z.mode)


def hstar(z: ZonotopeSpec, table: BoxValuationTable | None = None) -> HStarVector:
    """h* of a zonotope of rank r, at degree r, in either mode by the matroid formula.

    Sum over independent I and bases B containing I of
    b(I) * R_{|I u IP(B)| + 1}(r+1, t), with R = A in standard mode and R = B
    in typeB mode; the box table refers to the original (undoubled)
    generators.  The double sum is taken as a histogram over j in two
    independent orderings, basis-major and independent-set-major, which are
    asserted equal.
    """
    config = z.config
    values = _resolve_table(config, table)
    r = config.full_rank
    ip = config._passive_sets  # IP(B) as a bit mask, for every basis B

    # Basis-major: each basis contributes its half-open parallelepiped.
    basis_major = _eulerian_histogram(values, ip.items(), r)

    # Independent-set-major: the same double sum, reindexed.  Basis k is bit
    # k of `containing[e]` when it contains e, so the bases containing I are
    # the AND of the masks of I's elements.
    containing = [0] * (config.n + 1)
    passive_bits = list(ip.values())
    for k, b in enumerate(ip):
        for e in b:
            containing[e] |= 1 << k
    all_bases = (1 << len(ip)) - 1
    set_major = [0] * (r + 1)
    for s in config.independent_sets():
        b_val = values[s]
        if b_val == 0:
            continue
        mask, s_bits = all_bases, _mask(s)
        for e in s:
            mask &= containing[e]
        while mask:
            low = mask & -mask
            passive = passive_bits[low.bit_length() - 1]
            set_major[(passive | s_bits).bit_count()] += b_val  # |I u IP(B)|
            mask ^= low

    if basis_major != set_major:
        raise InternalDisagreementError(
            "basis-major and independent-set-major double sums disagree")
    return _assemble(basis_major, r, z.mode)


def hstar_zonotope(z: ZonotopeSpec, table: BoxValuationTable | None = None) -> HStarVector:
    """`hstar` of a standard-mode zonotope."""
    if z.mode != "standard":
        raise LatticeMathError("hstar_zonotope takes a standard-mode spec; "
                               "use hstar_type_b_zonotope for [-1,1] coefficients")
    return hstar(z, table)


def hstar_type_b_zonotope(z: ZonotopeSpec, table: BoxValuationTable | None = None) -> HStarVector:
    """`hstar` of a typeB-mode ([-1,1]-coefficient) zonotope."""
    if z.mode != "typeB":
        raise LatticeMathError("hstar_type_b_zonotope takes a typeB-mode spec")
    return hstar(z, table)


def hstar_totally_unimodular(z: ZonotopeSpec) -> HStarVector:
    """h* of a zonotope of rank r, at degree r, whose bases all have minor gcd 1
    (at full rank: all of whose maximal minors lie in {0, +-1}).

    Every box count but b(()) = 1 is then 0, so the double sum reduces to
    sum over bases of R_{|IP(B)| + 1}(r+1, t), with R = A in standard mode and
    R = B in typeB mode: the paper's unimodular corollary.  It reads no box
    table, so on such inputs it is a cross-check of `hstar`.
    """
    config = z.config
    r = config.full_rank
    c = [0] * (r + 1)
    for b in config.bases():
        # A basis's minor gcd is |det| in a lattice basis of the span's
        # integer points; r-subsets that are not bases have det 0.
        minor = config.minor_gcd(b)
        if minor != 1:
            raise LatticeMathError(
                f"maximal minor of absolute value {minor} outside {{0, +-1}}; "
                "configuration is not unimodular")
        c[config._passive_sets[b].bit_count()] += 1
    return _assemble(c, r, z.mode)


# ---------------------------------------------------------------------------
# The refined-Eulerian coordinate system
# ---------------------------------------------------------------------------

def express_in_eulerian_basis(h) -> tuple:
    """Unique coordinates (c_1, ..., c_{d+1}) with h = sum_j c_j A_j(d+1).

    A_{j+1}(d+1) is the h* of the half-open cube whose counting polynomial is
    n^j (1+n)^(d-j), so the coordinates of h are those of its counting
    polynomial in that shifted power basis.
    """
    h = _as_hstar(h)
    return express_in_shifted_power_basis(ehrhart_from_hstar(h), h.d)


def is_in_zonotope_cone(h) -> bool:
    """True iff h = A_1(d+1) + nonnegative combination of A_2(d+1)..A_{d+1}(d+1)."""
    return coordinates_in_cone(express_in_eulerian_basis(h))


def coordinates_in_cone(c) -> bool:
    """Whether Eulerian coordinates (c_1, ..., c_{d+1}) have c_1 = 1 and the rest nonnegative."""
    return c[0] == 1 and all(cj >= 0 for cj in c[1:])


def eulerian_ray_parallelepiped(d: int, k: int, m: int) -> ZonotopeSpec:
    """Parallelepiped generators whose h* equals A_1(d+1) + m * A_k(d+1).

    Unit vectors except for a staircase generator at position k-1:
    v_{k-1} = e_1 + ... + e_{k-2} + (m+1) e_{k-1}.  For k = 2 this degenerates
    to a single scaled generator (m+1) e_1.
    """
    _integers("d", (d,))
    _integers("k", (k,), 2, d + 1)
    _integers("m", (m,), 0)
    apex = k - 1
    vectors = []
    for i in range(1, d + 1):
        if i == apex:
            v = [1 if r < apex - 1 else 0 for r in range(d)]
            v[apex - 1] = m + 1
            vectors.append(tuple(v))
        else:
            vectors.append(tuple(1 if r == i - 1 else 0 for r in range(d)))
    return ZonotopeSpec(VectorConfiguration(vectors, d), "standard")


def is_reflexive_by_ehrhart(ehr: Poly, d: int) -> bool:
    """Reflexivity test: symmetric coordinates in the n^j (1+n)^(d-j) basis."""
    return coordinates_symmetric(express_in_shifted_power_basis(ehr, d))


def coordinates_symmetric(c) -> bool:
    """Whether coordinates (c_0, ..., c_d) in the n^j (1+n)^(d-j) basis read
    the same backwards, the reflexivity condition."""
    return c == c[::-1]
