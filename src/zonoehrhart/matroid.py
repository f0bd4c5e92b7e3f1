"""Linear matroid of an ordered integer vector configuration.

Indices are 1-based throughout, matching the convention that the ground set
is [n] with the matroid order v_1 < ... < v_n given by the input order; every
order-sensitive notion (lexicographic basis order, internally passive
elements, minimal completing bases) reads that order, so another order is
another input order.  One walk enumerates the independent sets with their
minor gcds, keyed by bit mask (element i at bit i): the one cached form of a
set, and index tuples are built only at the public boundary, each from its
parent's.  The matroid also owns the double sum of the h* formula, whose
histogram is the same in each mode.

Duplicate vectors are distinct parallel elements; zero vectors are loops and
never independent.

Enumeration is guarded: a configuration whose count of independent sets may
exceed `MAX_INDEPENDENT_SETS` (the bound is sum_{k <= rank} C(n, k)) raises
`EnumerationLimitError` before any set is enumerated.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import comb
from operator import and_
from typing import Iterable, Mapping, Sequence

from . import _linalg
from .errors import (DependentSetError, EnumerationLimitError, InternalDisagreementError,
                     LatticeMathError, _integers)

MAX_INDEPENDENT_SETS = 10**5


def _as_index_set(indices: Iterable[int], n: int) -> tuple:
    s = tuple(sorted(_integers("an index", indices)))
    if len(set(s)) != len(s):
        raise LatticeMathError(f"index set {s!r} has repeats")
    if s and (s[0] < 1 or s[-1] > n):
        raise LatticeMathError(f"index set {s!r} not contained in 1..{n}")
    return s


def _mask(indices: Iterable[int]) -> int:
    return sum(map((1).__lshift__, indices))


def _bits(mask: int):
    """The one-bit masks of the elements of a mask, lowest first."""
    while mask:
        yield mask & -mask
        mask &= mask - 1


def _indices(mask: int) -> tuple:
    """The sorted index tuple of a mask."""
    return tuple(low.bit_length() - 1 for low in _bits(mask))


def _by_prefix(masks: Iterable[int], empty, extend) -> dict:
    """{mask: value} for `masks` listed parents first, a mask's parent being
    the mask less its highest bit: the empty set's value is `empty`, any
    other's extend(its parent's value, its highest index)."""
    out = {0: empty}
    for m in masks:
        if m:
            i = m.bit_length() - 1
            out[m] = extend(out[m ^ 1 << i], i)
    return out


def _subset_transform(f: dict, n: int, sign: int) -> dict:
    """g(I) = sum over J subseteq I of sign^|I - J| f(J), for f keyed by the
    masks of a family of subsets of 1..n closed under taking subsets.  One pass
    per element e adds sign * g(I - e) to g(I) for every I containing e; I - e
    lacks e, so a pass never reads a value it has already changed."""
    g = dict(f)
    for e in range(1, n + 1):
        bit = 1 << e
        for m in g:
            if m & bit:
                g[m] += sign * g[m ^ bit]
    return g


def _group(sets: Iterable[int], pieces: Mapping[int, int], r: int) -> tuple:
    """The `sets` grouped by their table-free vector m_I[j] = #{B holding I :
    |I u P| = j}, as (m, masks) pairs, from one visit of every (I, B) pair.

    The pieces (B, P) whose B holds a set are those holding its parent (the
    set less its highest element) whose B holds the set, so a stack of r+1
    lists, one per size, carries them.  That needs `sets` in DFS order, as
    `_minor_gcds` lists them: every set after its parent and before any other
    set of its parent's size.  A set listed out of that order may be short of
    pieces, and the comparison in `_double_sum` catches any sum that skews."""
    held, groups = [list(pieces.items())] * (r + 1), {}
    for s in sets:
        k = s.bit_count()
        if k:
            held[k] = [piece for piece in held[k - 1] if piece[0] & s == s]
        m = [0] * (r + 1)
        for _, passive in held[k]:
            m[(passive | s).bit_count()] += 1
        groups.setdefault(tuple(m), []).append(s)
    return tuple(groups.items())


def _grouped_sum(groups: Iterable[tuple], values: Mapping[int, object], r: int) -> list:
    """The set-major ordering as sum over groups of m * (the group's sum of b(I))."""
    c = [0] * (r + 1)
    for m, masks in groups:
        total = sum(map(values.__getitem__, masks))
        if total != 0:
            for j, k in enumerate(m):
                if k:
                    c[j] += k * total
    return c


def _double_sum(c: list, values: Mapping[int, object], pieces: Mapping[int, int], r: int) -> list:
    """c, the histogram c[|I u P|] += b(I) over each piece (B, P) and independent
    I inside B that a set-major ordering summed, once the other ordering,
    `_basis_major`, agrees."""
    if c != _basis_major(values, pieces, r):
        raise InternalDisagreementError(
            "basis-major and independent-set-major double sums disagree")
    return c


def _basis_major(values: Mapping[int, object], pieces: Mapping[int, int], r: int) -> list:
    """The double sum over the submasks of each basis."""
    c = [0] * (r + 1)
    for basis, passive in pieces.items():
        c[passive.bit_count()] += values[0]
        sub = basis
        while sub:
            b = values[sub]
            if b != 0:
                c[(passive | sub).bit_count()] += b
            sub = sub - 1 & basis
    return c


def _internally_passive(members: Mapping[int, int], r: int) -> dict:
    """IP(B) for every basis B among the independent `members`, both as masks,
    in their order: the i in B with some smaller j outside B such that
    B - i + j is independent."""
    return {inside: sum(low for low in _bits(inside)
                        if any(not inside >> j & 1 and (inside ^ low | 1 << j) in members
                               for j in range(1, low.bit_length() - 1)))
            for inside in members if inside.bit_count() == r}


def _check_intervals(members: Mapping[int, int], passive_sets: Mapping[int, int]) -> None:
    """Raise unless the intervals [IP(B), B] partition the independent sets
    (Bjoerner 1992): walked by the submasks of B - IP(B), they must visit
    every member once and nothing else."""
    covered = []
    for basis, passive in passive_sets.items():
        free = basis ^ passive
        sub = free
        while True:
            covered.append(passive | sub)
            if not sub:
                break
            sub = sub - 1 & free
    if len(covered) != len(members) or members.keys() != set(covered):
        raise InternalDisagreementError(
            "the intervals [IP(B), B] do not partition the independent sets")


class VectorConfiguration:
    """Ordered list of integer vectors in a fixed ambient dimension."""

    def __init__(self, vectors: Sequence[Sequence[int]], dim: int | None = None):
        vecs = tuple(tuple(v) for v in vectors)
        if any(not isinstance(x, int) or isinstance(x, bool) for v in vecs for x in v):
            raise LatticeMathError("generator entries must be integers")
        if dim is None:
            if not vecs:
                raise LatticeMathError("dimension is required for an empty configuration")
            dim = len(vecs[0])
        elif not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise LatticeMathError(f"dimension must be a nonnegative integer, got {dim!r}")
        if any(len(v) != dim for v in vecs):
            raise LatticeMathError(f"every generator must have length {dim}")
        self.vectors = vecs
        self.dim = dim
        self.n = len(vecs)

    def __eq__(self, other):
        if isinstance(other, VectorConfiguration):
            return (self.vectors, self.dim) == (other.vectors, other.dim)
        return NotImplemented

    def __hash__(self):
        return hash((self.vectors, self.dim))

    def __repr__(self):
        return f"VectorConfiguration({list(self.vectors)!r}, dim={self.dim})"

    # -- rank and independence ------------------------------------------------

    def rank(self, indices: Iterable[int] | None = None) -> int:
        """Rank of the selected columns (all of them by default)."""
        s = _as_index_set(indices, self.n) if indices is not None else \
            tuple(range(1, self.n + 1))
        if not s:
            return 0
        return _linalg.rank([list(self.vectors[i - 1]) for i in s])

    @cached_property
    def full_rank(self) -> int:
        return self.rank()

    def independent_sets(self) -> tuple[tuple, ...]:
        """All independent index sets including (), in sorted order."""
        return tuple(sorted(self._index_tuples().values(), key=len))

    def _index_tuples(self) -> dict:
        """The sorted index tuple of every independent set by mask, in the
        walk's order, each its parent's plus one index: built on each call."""
        return _by_prefix(self._minor_gcds, (), lambda parent, i: parent + (i,))

    def bases(self) -> tuple[tuple, ...]:
        """Maximal independent sets in lexicographic order."""
        return tuple(map(_indices, self._passive_sets))

    # -- minor gcd ------------------------------------------------------------
    #
    # Folding P's vectors with `_linalg.fold` makes them triangular under a
    # unimodular column transform, which keeps the gcd of maximal minors, so
    # gcd(P + v) = gcd(P) * (the step of v).  Only the free columns are carried.

    def minor_gcd(self, indices: Iterable[int]) -> int:
        """gcd of all maximal minors of the column matrix of an independent set.

        Equals the number of lattice points in the half-open box spanned by
        the selected vectors; 1 for the empty set by convention.  Folds along
        the set's own elements, so it needs no enumeration.
        """
        s = _as_index_set(indices, self.n)
        g, free = 1, _linalg.unit_columns(self.dim)
        for i in s:
            step, free, _ = _linalg.fold(self.vectors[i - 1], free)
            if step == 0:
                raise DependentSetError(f"{s!r} is not independent")
            g *= step
        return g

    @cached_property
    def _minor_gcds(self) -> dict:
        """minor_gcd of every independent set by mask, in lexicographic order:
        the enumeration itself.  A DFS extends each set by the elements after
        its largest that `rank` accepts, folding each into the free columns
        its parent left; that step, never 0 on an independent set, times the
        parent's gcd is the child's."""
        r = self.full_rank
        bound = sum(comb(self.n, k) for k in range(r + 1))
        if bound > MAX_INDEPENDENT_SETS:
            raise EnumerationLimitError(
                f"up to {bound} independent sets (n={self.n}, rank={r}) exceed the "
                f"{MAX_INDEPENDENT_SETS} enumeration guard")
        gcds = {0: 1}
        self._grow(gcds, (), 0, _linalg.unit_columns(self.dim))
        return gcds

    def _grow(self, gcds: dict, prefix: tuple, parent: int, free: list):
        """Enter every independent extension of `prefix` (mask `parent`, whose
        fold left the columns `free`) by elements after its largest.  A method,
        not a closure, so the walk leaves no reference cycle through `self`."""
        for i in range(prefix[-1] + 1 if prefix else 1, self.n + 1):
            cand = prefix + (i,)
            if self.rank(cand) == len(cand):
                step, rest, _ = _linalg.fold(self.vectors[i - 1], free)
                if step == 0:
                    raise InternalDisagreementError(
                        f"the rank test finds {cand!r} independent, but its fold step is 0")
                mask = parent | 1 << i
                gcds[mask] = gcds[parent] * step
                self._grow(gcds, cand, mask, rest)

    @cached_property
    def _box_counts(self) -> dict:
        """Lattice points of the open box of every independent set: the
        Moebius inversion of `_minor_gcds`, which count the half-open boxes."""
        return _subset_transform(self._minor_gcds, self.n, -1)

    def _box_sums(self, table: Mapping[int, object] | None = None) -> list:
        """Entry k sums the half-open box values phi(I) = sum_{J subseteq I} b(J)
        of the k-element independent sets I, for a table keyed by mask;
        without one, the minor gcds."""
        phi = self._minor_gcds if table is None else _subset_transform(table, self.n, 1)
        sums = [0] * (self.full_rank + 1)
        for m, v in phi.items():
            sums[m.bit_count()] += v
        return sums

    # -- order-sensitive structure: every exchange test is a mask lookup -------

    @cached_property
    def _passive_sets(self) -> dict:
        """IP(B) for every basis B, both as masks, in lexicographic order (the
        keys are the bases), once the intervals [IP(B), B] are found to
        partition the independent sets."""
        passive_sets = _internally_passive(self._minor_gcds, self.full_rank)
        _check_intervals(self._minor_gcds, passive_sets)
        return passive_sets

    def internally_passive(self, basis: Iterable[int]) -> tuple:
        """Elements of the basis exchangeable for a smaller outside element."""
        b = _as_index_set(basis, self.n)
        passive = self._passive_sets.get(_mask(b))
        if passive is None:
            raise DependentSetError(f"{b!r} is not a basis")
        return _indices(passive)

    def min_basis_containing(self, indices: Iterable[int]) -> tuple:
        """Lexicographically least basis containing the independent set."""
        s = _as_index_set(indices, self.n)
        members = self._minor_gcds
        chosen = _mask(s)
        if chosen not in members:
            raise DependentSetError(f"{s!r} is not independent")
        for j in range(1, self.n + 1):
            if chosen | 1 << j in members:
                chosen |= 1 << j
        return _indices(chosen)

    def is_coloop_free(self) -> bool:
        """True iff no vector lies in every basis (removing any one keeps the rank)."""
        return not reduce(and_, self._passive_sets)

    # -- the double sum: h* is sum_j c_j R_j(r+1, t), and only the row R of the
    # refined Eulerian family depends on the mode, so c is kept per configuration.

    @cached_property
    def _groups(self) -> tuple:
        """The independent sets grouped by multiplicity vector (`_group`),
        built by the first histogram, of the box counts or of a passed table."""
        return _group(self._minor_gcds, self._passive_sets, self.full_rank)

    def _eulerian_histogram(self, table: Mapping[int, object] | None = None,
                            passive: Iterable[int] | None = None) -> list:
        """c[j] sums b(I) over the independent I and bases B containing I with
        |I u IP(B)| = j, for a table keyed by mask or the box counts; with
        `passive`, over the one piece (ground set, passive).  Every table is
        summed by multiplicity groups: the configuration's, kept in `_groups`,
        or the one piece's, built on each call."""
        r, values = self.full_rank, self._box_counts if table is None else table
        if passive is None:
            pieces, groups = self._passive_sets, self._groups
        else:
            pieces = {_mask(range(1, self.n + 1)): _mask(passive)}
            groups = _group(self._minor_gcds, pieces, r)
        return _double_sum(_grouped_sum(groups, values, r), values, pieces, r)

    _histogram = cached_property(_eulerian_histogram)
