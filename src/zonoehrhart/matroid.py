"""Linear matroid of an ordered integer vector configuration.

Indices are 1-based throughout, matching the convention that the ground set
is [n] with the matroid order v_1 < ... < v_n given by the input order; every
order-sensitive notion (lexicographic basis order, internally passive
elements, minimal completing bases) reads that order, so another order is
another input order.  Sets of elements are also kept as bit masks, element i
at bit i.

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
from typing import Iterable, Sequence

from . import _linalg
from .errors import DependentSetError, EnumerationLimitError, LatticeMathError, _integers

MAX_INDEPENDENT_SETS = 10**5


def _as_index_set(indices: Iterable[int], n: int) -> tuple:
    s = tuple(sorted(_integers("an index", indices)))
    if len(set(s)) != len(s):
        raise LatticeMathError(f"index set {s!r} has repeats")
    if s and (s[0] < 1 or s[-1] > n):
        raise LatticeMathError(f"index set {s!r} not contained in 1..{n}")
    return s


def _mask(indices: Iterable[int]) -> int:
    return sum(1 << i for i in indices)


def _subset_transform(f: dict, n: int, sign: int) -> dict:
    """g(I) = sum over J subseteq I of sign^|I - J| f(J), for f on a family of
    subsets of 1..n closed under taking subsets (here: independent sets).

    One pass per element e adds sign * g(I - e) to g(I) for every I containing
    e; I - e lacks e, so a pass never reads a value it has already changed.
    """
    g = dict(f)
    for e in range(1, n + 1):
        for s in g:
            if e in s:
                i = s.index(e)
                g[s] += sign * g[s[:i] + s[i + 1:]]
    return g


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
        return self._independent_sets

    @cached_property
    def _independent_sets(self) -> tuple[tuple, ...]:
        r = self.full_rank
        bound = sum(comb(self.n, k) for k in range(r + 1))
        if bound > MAX_INDEPENDENT_SETS:
            raise EnumerationLimitError(
                f"up to {bound} independent sets (n={self.n}, rank={r}) exceed the "
                f"{MAX_INDEPENDENT_SETS} enumeration guard")
        found = [()]
        def grow(prefix: tuple, start: int):
            for i in range(start, self.n + 1):
                cand = prefix + (i,)
                if self.rank(cand) == len(cand):
                    found.append(cand)
                    grow(cand, i + 1)
        grow((), 1)
        return tuple(sorted(found, key=lambda s: (len(s), s)))

    def bases(self) -> tuple[tuple, ...]:
        """Maximal independent sets in lexicographic order."""
        return self._bases

    @cached_property
    def _bases(self) -> tuple[tuple, ...]:
        return tuple(s for s in self._independent_sets if len(s) == self.full_rank)

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
            step, free = _linalg.fold(self.vectors[i - 1], free)
            if step == 0:
                raise DependentSetError(f"{s!r} is not independent")
            g *= step
        return g

    @cached_property
    def _minor_gcds(self) -> dict:
        """minor_gcd of every independent set, folded down the prefix tree.

        In lexicographic order each set's parent (the set less its largest
        element) is the last shorter set seen before it, so `free[k]` holds
        the free columns of the current k-element prefix.
        """
        gcds = {(): 1}
        free = [_linalg.unit_columns(self.dim)]
        for s in sorted(self._independent_sets):
            if not s:
                continue
            k = len(s)
            step, cols = _linalg.fold(self.vectors[s[-1] - 1], free[k - 1])
            gcds[s] = gcds[s[:-1]] * step
            del free[k:]
            free.append(cols)
        return gcds

    @cached_property
    def _box_counts(self) -> dict:
        """Lattice points of the open box of every independent set: the
        Moebius inversion of `_minor_gcds`, which count the half-open boxes."""
        return _subset_transform(self._minor_gcds, self.n, -1)

    # -- order-sensitive structure ---------------------------------------------
    #
    # Once the independent sets are enumerated the matroid is a finite set
    # system, so every exchange test below is a lookup of a bit mask.

    @cached_property
    def _independent_masks(self) -> frozenset:
        return frozenset(map(_mask, self._independent_sets))

    @cached_property
    def _passive_sets(self) -> dict:
        """IP(B) as a mask for every basis B: the i in B with some smaller j
        outside B such that B - i + j is independent."""
        members = self._independent_masks
        passive_sets = {}
        for b in self._bases:
            inside = _mask(b)
            passive_sets[b] = _mask(
                i for i in b
                if any(not inside >> j & 1 and (inside ^ 1 << i | 1 << j) in members
                       for j in range(1, i)))
        return passive_sets

    def internally_passive(self, basis: Iterable[int]) -> tuple:
        """Elements of the basis exchangeable for a smaller outside element."""
        b = _as_index_set(basis, self.n)
        try:
            passive = self._passive_sets[b]
        except KeyError:
            raise DependentSetError(f"{b!r} is not a basis") from None
        return tuple(i for i in b if passive >> i & 1)

    def min_basis_containing(self, indices: Iterable[int]) -> tuple:
        """Lexicographically least basis containing the independent set."""
        s = _as_index_set(indices, self.n)
        members = self._independent_masks
        chosen = _mask(s)
        if chosen not in members:
            raise DependentSetError(f"{s!r} is not independent")
        for j in range(1, self.n + 1):
            if chosen | 1 << j in members:
                chosen |= 1 << j
        return tuple(j for j in range(1, self.n + 1) if chosen >> j & 1)

    def is_coloop_free(self) -> bool:
        """True iff no vector lies in every basis (removing any one keeps the rank)."""
        return not reduce(and_, map(_mask, self._bases))
