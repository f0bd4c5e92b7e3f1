"""Ehrhart and h*-polynomials of lattice zonotopes and related bodies.

A zonotope spec is a vector configuration plus a mode: "standard" means
generator coefficients in [0, 1], "typeB" means coefficients in [-1, 1]
(a lattice translate of the dilation by 2 of the standard body).

All h* computations are parameterized over a box-valuation table holding the
rational value b(I) assigned to the open box spanned by each independent set
I; the default table encodes lattice-point counting.  Every h* path requires
the configuration to span the ambient space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from . import _linalg
from .errors import (DependentSetError, InternalDisagreementError, LatticeMathError,
                     NotFullDimensionalError)
from .eulerian import a_j_polynomial, b_l_polynomial_via_a
from .matroid import VectorConfiguration
from .polycore import (HStarVector, Poly, _as_hstar, _exact,
                       express_in_shifted_power_basis, is_palindromic)

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
        for indices, v in values.items():
            key = tuple(sorted(indices))
            if key not in domain:
                raise DependentSetError(f"{key!r} is not an independent set of the configuration")
            table[key] = _exact(Fraction(v))
        for s in domain:
            if s not in table:
                raise LatticeMathError(f"box table is missing the independent set {s!r}")
        self.values = table

    def value(self, indices: Sequence[int]) -> int | Fraction:
        key = tuple(sorted(indices))
        try:
            return self.values[key]
        except KeyError:
            raise DependentSetError(f"{key!r} is not an independent set of the configuration")

    def override(self, updates: Mapping[tuple, int | Fraction]) -> "BoxValuationTable":
        merged = dict(self.values)
        for indices, v in updates.items():
            key = tuple(sorted(indices))
            if key not in merged:
                raise DependentSetError(f"{key!r} is not an independent set of the configuration")
            merged[key] = _exact(Fraction(v))
        return BoxValuationTable(self.config, merged)


def box_halfopen_count(config: VectorConfiguration, indices: Sequence[int]) -> int:
    """Lattice points of the half-open box of an independent set; equals minor_gcd."""
    return config.minor_gcd(indices)


# Shared across callers (the CLI reads many documents against few
# configurations) but bounded, so a stream of distinct configurations cannot
# grow it for the life of the process.
@lru_cache(maxsize=128)
def default_box_table(config: VectorConfiguration) -> BoxValuationTable:
    """Box table of the lattice-point count, by Moebius inversion of minor gcds."""
    values = {}
    for s in config.independent_sets():
        total = 0
        for k in range(len(s) + 1):
            for sub in combinations(s, k):
                total += (-1) ** (len(s) - k) * config.minor_gcd(sub)
        values[s] = total
    return BoxValuationTable(config, values)


def _resolve_table(config, table) -> BoxValuationTable:
    if table is None:
        return default_box_table(config)
    if table.config != config:
        raise LatticeMathError("box table belongs to a different configuration")
    return table


# ---------------------------------------------------------------------------
# Ehrhart polynomials
# ---------------------------------------------------------------------------

def ehrhart_zonotope(z: ZonotopeSpec, table: BoxValuationTable | None = None) -> Poly:
    """Counting polynomial sum_I phi(box(I)) n^|I| over independent sets.

    phi(box(I)) = sum_{J subseteq I} b(J); with the default table this is the
    classical sum of minor gcds weighted by n^|I|.
    """
    if z.mode != "standard":
        raise LatticeMathError("ehrhart_zonotope expects standard mode; "
                               "use ehrhart_type_b_zonotope for [-1,1] coefficients")
    config = z.config
    table = _resolve_table(config, table)
    coeffs = [0] * (config.full_rank + 1)
    for s in config.independent_sets():
        halfopen = 0
        for k in range(len(s) + 1):
            for sub in combinations(s, k):
                halfopen += table.value(sub)
        coeffs[len(s)] += halfopen
    return Poly(coeffs)


def ehrhart_type_b_zonotope(z: ZonotopeSpec, table: BoxValuationTable | None = None) -> Poly:
    """Counting polynomial of the [-1,1]-coefficient body: the standard one at 2n."""
    if z.mode != "typeB":
        raise LatticeMathError("ehrhart_type_b_zonotope expects typeB mode")
    standard = ehrhart_zonotope(ZonotopeSpec(z.config, "standard"), table)
    return standard.scale_argument(2)


def ehrhart_halfopen_cube(d: int, j: int) -> Poly:
    """n^j (1+n)^(d-j), the counting polynomial of the unit cube with j facets removed."""
    _check_cube_args(d, j)
    return Poly((0, 1)) ** j * Poly((1, 1)) ** (d - j)


def hstar_halfopen_cube(d: int, j: int) -> HStarVector:
    """h* of the half-open unit cube: the (j+1)-st refined Eulerian polynomial."""
    _check_cube_args(d, j)
    return HStarVector.from_poly(a_j_polynomial(d + 1, j + 1), d)


def _check_cube_args(d: int, j: int) -> None:
    if d < 0 or not 0 <= j <= d:
        raise LatticeMathError(f"need 0 <= j <= d, got j={j}, d={d}")


# ---------------------------------------------------------------------------
# h* of half-open parallelepipeds and zonotopes
# ---------------------------------------------------------------------------

def _parallelepiped_config(vectors: Sequence[Sequence[int]]) -> VectorConfiguration:
    vecs = tuple(tuple(int(x) for x in v) for v in vectors)
    if not vecs:
        raise LatticeMathError("pass a VectorConfiguration with an explicit dimension "
                               "for a zero-generator parallelepiped")
    config = VectorConfiguration(vecs)
    if config.full_rank != config.n:
        raise DependentSetError("parallelepiped generators must be linearly independent")
    return config


def _hstar_parallelepiped_sum(config, removed, table, refined) -> Poly:
    r = config.n
    removed = frozenset(removed)
    if not removed <= set(range(1, r + 1)):
        raise LatticeMathError(f"removed-facet directions {sorted(removed)!r} not within 1..{r}")
    total = Poly()
    for k in range(r + 1):
        for sub in combinations(range(1, r + 1), k):
            b = table.value(sub)
            if b != 0:
                total = total + refined(len(removed | set(sub)) + 1, r + 1) * b
    return total


def _refined_a(j: int, dplus1: int) -> Poly:
    return a_j_polynomial(dplus1, j)


def _refined_b(j: int, dplus1: int) -> Poly:
    return b_l_polynomial_via_a(dplus1 - 1, j - 1)


def hstar_halfopen_parallelepiped(vectors: Sequence[Sequence[int]],
                                  removed: Sequence[int] = (),
                                  table: BoxValuationTable | None = None) -> HStarVector:
    """h* of the parallelepiped with facets removed in the given directions.

    Computes sum_K b(K) * A_{|removed u K| + 1}(r+1, t) over all subsets K of
    the r independent generators.
    """
    config = vectors if isinstance(vectors, VectorConfiguration) else _parallelepiped_config(vectors)
    if config.full_rank != config.n:
        raise DependentSetError("parallelepiped generators must be linearly independent")
    table = _resolve_table(config, table)
    total = _hstar_parallelepiped_sum(config, removed, table, _refined_a)
    return HStarVector.from_poly(total, config.n)


def hstar_type_b_parallelepiped(vectors: Sequence[Sequence[int]],
                                removed: Sequence[int] = (),
                                table: BoxValuationTable | None = None) -> HStarVector:
    """h* of the doubled half-open parallelepiped, via the type-B refined family.

    The box table refers to the original (undoubled) generators.
    """
    config = vectors if isinstance(vectors, VectorConfiguration) else _parallelepiped_config(vectors)
    if config.full_rank != config.n:
        raise DependentSetError("parallelepiped generators must be linearly independent")
    table = _resolve_table(config, table)
    total = _hstar_parallelepiped_sum(config, removed, table, _refined_b)
    return HStarVector.from_poly(total, config.n)


def _hstar_zonotope_by_matroid(config, table, refined) -> Poly:
    d = config.dim
    if config.full_rank != d:
        raise NotFullDimensionalError(
            f"generators span rank {config.full_rank} < ambient dimension {d}")
    bases = config.bases()
    ip = {b: config.internally_passive(b) for b in bases}

    # Basis-major: each basis contributes its half-open parallelepiped.
    basis_major = Poly()
    for b in bases:
        local_vectors = tuple(config.vectors[i - 1] for i in b)
        local_config = VectorConfiguration(local_vectors, config.dim)
        positions = {i: pos + 1 for pos, i in enumerate(b)}
        local_values = {}
        for k in range(len(b) + 1):
            for sub in combinations(b, k):
                local_values[tuple(positions[i] for i in sub)] = table.value(sub)
        local_table = BoxValuationTable(local_config, local_values)
        local_removed = tuple(positions[i] for i in ip[b])
        basis_major = basis_major + _hstar_parallelepiped_sum(
            local_config, local_removed, local_table, refined)

    # Independent-set-major: the same double sum, reindexed.
    set_major = Poly()
    for s in config.independent_sets():
        b_val = table.value(s)
        if b_val == 0:
            continue
        s_set = set(s)
        for b in bases:
            if s_set <= set(b):
                idx = len(s_set | set(ip[b])) + 1
                set_major = set_major + refined(idx, d + 1) * b_val

    if basis_major != set_major:
        raise InternalDisagreementError(
            "basis-major and independent-set-major double sums disagree")
    return basis_major


def hstar_zonotope(z: ZonotopeSpec, table: BoxValuationTable | None = None) -> HStarVector:
    """h* of a full-dimensional zonotope by the matroid decomposition formula.

    sum over independent I and bases B containing I of
    b(I) * A_{|I u IP(B)| + 1}(d+1, t); evaluated in two independent orderings
    which are asserted equal.
    """
    if z.mode != "standard":
        raise LatticeMathError("hstar_zonotope expects standard mode; "
                               "use hstar_type_b_zonotope for [-1,1] coefficients")
    config = z.config
    table = _resolve_table(config, table)
    total = _hstar_zonotope_by_matroid(config, table, _refined_a)
    return HStarVector.from_poly(total, config.dim)


def hstar_type_b_zonotope(z: ZonotopeSpec, table: BoxValuationTable | None = None) -> HStarVector:
    """h* of a full-dimensional [-1,1]-coefficient zonotope.

    Same matroid decomposition as the standard case with the type-B refined
    family in place of the type-A one; the box table refers to the original
    (undoubled) generators.
    """
    if z.mode != "typeB":
        raise LatticeMathError("hstar_type_b_zonotope expects typeB mode")
    config = z.config
    table = _resolve_table(config, table)
    total = _hstar_zonotope_by_matroid(config, table, _refined_b)
    return HStarVector.from_poly(total, config.dim)


def hstar_totally_unimodular(z: ZonotopeSpec) -> HStarVector:
    """h* of a zonotope all of whose maximal minors lie in {0, +-1}.

    Reduces to sum over bases of A_{|IP(B)| + 1}(d+1, t).
    """
    if z.mode != "standard":
        raise LatticeMathError("hstar_totally_unimodular expects standard mode")
    config = z.config
    d = config.dim
    if config.full_rank != d:
        raise NotFullDimensionalError(
            f"generators span rank {config.full_rank} < ambient dimension {d}")
    cols = [list(v) for v in config.vectors]
    for subset in combinations(range(config.n), d):
        minor = _linalg.det_bareiss([[cols[c][r] for c in subset] for r in range(d)])
        if minor not in (-1, 0, 1):
            raise LatticeMathError(
                f"maximal minor {minor} outside {{0, +-1}}; configuration is not unimodular")
    total = Poly()
    for b in config.bases():
        total = total + a_j_polynomial(d + 1, len(config.internally_passive(b)) + 1)
    return HStarVector.from_poly(total, d)


# ---------------------------------------------------------------------------
# The refined-Eulerian coordinate system
# ---------------------------------------------------------------------------

def express_in_eulerian_basis(h) -> tuple:
    """Unique coordinates (c_1, ..., c_{d+1}) with h = sum_j c_j A_j(d+1)."""
    h = _as_hstar(h)
    d = h.d
    columns = [a_j_polynomial(d + 1, j).padded(d + 1) for j in range(1, d + 2)]
    matrix = [[columns[j][i] for j in range(d + 1)] for i in range(d + 1)]
    solution = _linalg.solve_exact(matrix, list(h.h))
    return tuple(_exact(c) for c in solution)


def is_in_zonotope_cone(h) -> bool:
    """True iff h = A_1(d+1) + nonnegative combination of A_2(d+1)..A_{d+1}(d+1)."""
    c = express_in_eulerian_basis(h)
    return c[0] == 1 and all(cj >= 0 for cj in c[1:])


def eulerian_ray_parallelepiped(d: int, k: int, m: int) -> ZonotopeSpec:
    """Parallelepiped generators whose h* equals A_1(d+1) + m * A_k(d+1).

    Unit vectors except for a staircase generator at position k-1:
    v_{k-1} = e_1 + ... + e_{k-2} + (m+1) e_{k-1}.  For k = 2 this degenerates
    to a single scaled generator (m+1) e_1.
    """
    if not 2 <= k <= d + 1:
        raise LatticeMathError(f"k must lie in 2..{d + 1}, got {k}")
    if m < 0:
        raise LatticeMathError(f"m must be nonnegative, got {m}")
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
    c = express_in_shifted_power_basis(ehr, d)
    return all(c[j] == c[d - j] for j in range(d + 1))


def is_reflexive_by_hstar(ehr: Poly, d: int) -> bool:
    """Independent route to the same predicate: palindromic h*-vector."""
    from .polycore import hstar_from_ehrhart
    return is_palindromic(hstar_from_ehrhart(ehr, d))
