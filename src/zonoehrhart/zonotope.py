"""Ehrhart and h*-polynomials of lattice zonotopes and related bodies.

A zonotope spec is a vector configuration plus a mode: "standard" means
generator coefficients in [0, 1], "typeB" means coefficients in [-1, 1]
(a lattice translate of the dilation by 2 of the standard body).  `ehrhart`,
`hstar`, `hstar_totally_unimodular` and `hstar_halfopen_parallelepiped`
read the mode from the spec and answer in both: the matroid's double sum
gives a mode-free histogram c, which the configuration keeps for its own box
counts and a table keeps for its values, and h* = sum_j c_j R_j(r+1, t) takes
the row R of the mode, A_j or B_j.  The four `*_zonotope` wrappers take one mode.

All h* computations are parameterized over a box-valuation table holding the
rational value b(I) of the open box of each independent set I, by set mask;
the default table is the lattice-point count, and `override` checks only its
updates.  Every h* path works at the rank r and returns h* of degree r: a
rank-r lattice zonotope is unimodularly equivalent to a full-dimensional one
in Z^r, and that map keeps the independent sets, the bases, IP(B) and the
minor gcds, which count each half-open box in its own span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import DependentSetError, LatticeMathError, _integers
from .eulerian import _a_row, _b_row, a_j_polynomial
from .matroid import VectorConfiguration, _as_index_set, _indices, _mask
from .polycore import (HStarVector, Poly, _as_hstar, _exact, ehrhart_from_hstar,
                       express_in_shifted_power_basis)

MODES = ("standard", "typeB")


@dataclass(frozen=True)
class ZonotopeSpec:
    """Generator configuration plus coefficient mode."""

    config: VectorConfiguration
    mode: str = "standard"

    def __post_init__(self):
        if not isinstance(self.config, VectorConfiguration):
            raise LatticeMathError(f"config must be a VectorConfiguration, got {self.config!r}")
        if self.mode not in MODES:
            raise LatticeMathError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def dim(self) -> int:
        return self.config.dim


class BoxValuationTable:
    """Map from independent index sets to the valuation of their open box,
    kept by the set's bit mask (element i at bit i) and checked once."""

    def __init__(self, config: VectorConfiguration, values: Mapping[tuple, int | Fraction]):
        self.config, self._values = config, _checked(config, _keyed(values, config.n), {})
        if len(self._values) < len(config._minor_gcds):
            missing = next(m for m in config._minor_gcds if m not in self._values)
            raise LatticeMathError(
                f"box table is missing the independent set {_indices(missing)!r}")

    @classmethod
    def _trusted(cls, config: VectorConfiguration, values: dict) -> "BoxValuationTable":
        """A table of values already checked, keyed by mask."""
        table = object.__new__(cls)
        table.config, table._values = config, values
        return table

    @property
    def values(self) -> dict:
        """The table by sorted index tuple in `independent_sets()` order, built on each read."""
        tuples = self.config._index_tuples()
        return {tuples[m]: self._values[m] for m in sorted(tuples, key=int.bit_count)}

    def value(self, indices: Sequence[int]) -> int | Fraction:
        mask = _key_mask(indices, self.config.n)
        if mask not in self._values:
            raise DependentSetError(
                f"{_named(mask)!r} is not an independent set of the configuration")
        return self._values[mask]

    def override(self, updates: Mapping[tuple, int | Fraction]) -> "BoxValuationTable":
        """The table with the updates in place; only the updates are checked."""
        return self._trusted(
            self.config, _checked(self.config, _keyed(updates, self.config.n), self._values))

    @cached_property
    def _histogram(self) -> list:
        """The double sum's histogram of the table's values, taken on the first read."""
        return self.config._eulerian_histogram(self._values)


def _key_mask(indices: Sequence[int], n: int) -> int | tuple:
    """The set's mask, or its sorted index tuple if it leaves 1..n or repeats
    an index: `_mask` reads (1, 1) as (2,), a mask with fewer bits."""
    key = tuple(sorted(_integers("an index", indices)))
    mask = _mask(key) if not key or 0 < key[0] and key[-1] <= n else 0
    return mask if mask.bit_count() == len(key) else key


def _named(key: int | tuple) -> tuple:  # the sorted index tuple of a `_key_mask` key
    return _indices(key) if type(key) is int else key


def _keyed(values: Mapping[tuple, object], n: int) -> dict:
    """The entries by `_key_mask` key, in order; a bad index or a set named twice raises at once."""
    updates = {}
    for indices, v in values.items():
        mask = _key_mask(indices, n)
        if mask in updates:
            raise LatticeMathError(f"box table names the set {_named(mask)!r} twice")
        updates[mask] = v
    return updates


def _checked(config: VectorConfiguration, updates: dict, base: dict | None) -> dict:
    """`base` with the updates (by `_key_mask` key), merged at once if none is a dependent set
    or an inexact value; else the first such fault raises, updates of `base` first.  `base`
    None is the configuration's box counts, read only if the updates leave a set out."""
    members, kinds = config._minor_gcds, set(map(type, updates.values()))
    if not (updates.keys() <= members.keys() and kinds <= {int, Fraction}):
        faults = {}
        for mask, v in updates.items():
            if mask not in members:
                faults[mask] = DependentSetError(
                    f"{_named(mask)!r} is not an independent set of the configuration")
            elif isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                faults[mask] = LatticeMathError(f"box value of {_named(mask)!r} must be an "
                                                f"int or Fraction, got {type(v).__name__}")
        if faults:  # popped, so that this frame does not hold the traceback that holds it
            order = members if base is None else base
            raise faults.pop(next((m for m in order if m in faults), next(iter(faults))))
    if kinds != {int}:
        updates = {m: _exact(v) for m, v in updates.items()}
    if base is None:
        base = {} if len(updates) == len(members) else config._box_counts
    return {**base, **updates}


def default_box_table(config: VectorConfiguration) -> BoxValuationTable:
    """Box table of the lattice-point count: its own box counts, which need no check."""
    return BoxValuationTable._trusted(config, config._box_counts)


def _resolve_table(config, table) -> Mapping[int, int | Fraction] | None:
    """The table's values by mask, or None for the configuration's own box counts:
    no table, or the table `default_box_table` made of them (looked up in the
    configuration's dict, so that a passed table never computes the counts)."""
    if table is not None and table.config != config:
        raise LatticeMathError("box table belongs to a different configuration")
    if table is None or table._values is vars(table.config).get("_box_counts"):
        return None
    return table._values


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
    standard = Poly(z.config._box_sums(_resolve_table(z.config, table)))
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
# h* of half-open parallelepipeds and zonotopes: sum_j c_j R_j(r+1, t) at the
# rank r, with the matroid's histogram c (rational for custom tables)
# ---------------------------------------------------------------------------

def _histogram(config: VectorConfiguration, table: BoxValuationTable | None) -> list:
    """The double sum's histogram c, kept by the table or, without one, by the configuration."""
    return config._histogram if _resolve_table(config, table) is None else table._histogram


def _assemble(c: Sequence, mode: str) -> HStarVector:
    """h* = sum_j c_j R_j(r+1), r = len(c) - 1, with the mode's family as row R."""
    r = len(c) - 1
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
    values, passive = _resolve_table(config, table), _as_index_set(removed, r)
    return _assemble(config._eulerian_histogram(values, passive), z.mode)


def hstar(z: ZonotopeSpec, table: BoxValuationTable | None = None) -> HStarVector:
    """h* of a zonotope of rank r, at degree r, in either mode by the matroid formula.

    Sum over independent I and bases B containing I of
    b(I) * R_{|I u IP(B)| + 1}(r+1, t), with R = A in standard mode and R = B
    in typeB mode; the box table refers to the original (undoubled)
    generators.  The matroid takes the double sum in two orderings, asserted
    equal, once for both modes: the configuration keeps the histogram of its
    own box counts, and a table the histogram of its values.
    """
    return _assemble(_histogram(z.config, table), z.mode)


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
    R = B in typeB mode: the paper's unimodular corollary.  It shares `hstar`'s
    enumeration, the minor gcds its walk folded and IP(B), but reads no box
    counts and takes no double sum: on such inputs it cross-checks those two.
    """
    c, gcds = [0] * (z.config.full_rank + 1), z.config._minor_gcds
    # gcd(B) is |det B| in a lattice basis of the span; an r-subset that is no basis has det 0.
    for basis, passive in z.config._passive_sets.items():
        if (minor := gcds[basis]) != 1:
            raise LatticeMathError(
                f"maximal minor of absolute value {minor} outside {{0, +-1}}; "
                "configuration is not unimodular")
        c[passive.bit_count()] += 1
    return _assemble(c, z.mode)


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
