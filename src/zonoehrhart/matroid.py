"""Linear matroid of an ordered integer vector configuration.

Indices are 1-based throughout, matching the convention that the ground set
is [n] with the matroid order v_1 < ... < v_n given by the input order.  The
`reverse_order` flag exposes the same configuration under the reversed order
v_n < ... < v_1 without mutating or copying the vectors; it affects every
order-sensitive notion (lexicographic basis order, internally passive
elements, minimal completing bases).

Duplicate vectors are distinct parallel elements; zero vectors are loops and
never independent.

Enumeration is guarded: a configuration whose count of independent sets may
exceed `MAX_INDEPENDENT_SETS` (the bound is sum_{k <= rank} C(n, k)) raises
`EnumerationLimitError` before any set is enumerated.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from typing import Iterable, Sequence

from . import _linalg
from .errors import DependentSetError, EnumerationLimitError, LatticeMathError

MAX_INDEPENDENT_SETS = 10**5


def _as_index_set(indices: Iterable[int], n: int) -> tuple:
    s = tuple(sorted(indices))
    if len(set(s)) != len(s):
        raise LatticeMathError(f"index set {s!r} has repeats")
    if s and (s[0] < 1 or s[-1] > n):
        raise LatticeMathError(f"index set {s!r} not contained in 1..{n}")
    return s


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

    def __init__(self, vectors: Sequence[Sequence[int]], dim: int | None = None,
                 reverse_order: bool = False):
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
            raise LatticeMathError("all generators must have the same length")
        self.vectors = vecs
        self.dim = dim
        self.n = len(vecs)
        self.reverse_order = bool(reverse_order)

    def __eq__(self, other):
        if isinstance(other, VectorConfiguration):
            return (self.vectors, self.dim, self.reverse_order) == \
                   (other.vectors, other.dim, other.reverse_order)
        return NotImplemented

    def __hash__(self):
        return hash((self.vectors, self.dim, self.reverse_order))

    def __repr__(self):
        flag = ", reverse_order=True" if self.reverse_order else ""
        return f"VectorConfiguration({list(self.vectors)!r}, dim={self.dim}{flag})"

    def with_reverse_order(self) -> "VectorConfiguration":
        return VectorConfiguration(self.vectors, self.dim, not self.reverse_order)

    def _order_pos(self, i: int) -> int:
        return self.n + 1 - i if self.reverse_order else i

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
        """Maximal independent sets in lexicographic order of the active ordering."""
        return self._bases

    @cached_property
    def _bases(self) -> tuple[tuple, ...]:
        r = self.full_rank
        maximal = [s for s in self._independent_sets if len(s) == r]
        return tuple(sorted(maximal, key=lambda b: tuple(sorted(self._order_pos(i) for i in b))))

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
    # system, so every exchange test below is a membership lookup.

    @cached_property
    def _independent_set_members(self) -> frozenset:
        return frozenset(self._independent_sets)

    @cached_property
    def _passive_sets(self) -> dict:
        """IP(B) for every basis B: the i in B with some order-smaller j outside
        B such that B - i + j is independent."""
        members = self._independent_set_members
        order = sorted(range(1, self.n + 1), key=self._order_pos)
        passive_sets = {}
        for b in self._bases:
            inside = set(b)
            passive_sets[b] = tuple(
                i for i in b
                if any(tuple(sorted(inside - {i} | {j})) in members
                       for j in order[:self._order_pos(i) - 1] if j not in inside))
        return passive_sets

    def internally_passive(self, basis: Iterable[int]) -> tuple:
        """Elements of the basis exchangeable for an order-smaller outside element."""
        b = _as_index_set(basis, self.n)
        try:
            return self._passive_sets[b]
        except KeyError:
            raise DependentSetError(f"{b!r} is not a basis") from None

    def min_basis_containing(self, indices: Iterable[int]) -> tuple:
        """Lexicographically least basis containing the independent set."""
        s = _as_index_set(indices, self.n)
        members = self._independent_set_members
        if s not in members:
            raise DependentSetError(f"{s!r} is not independent")
        chosen = set(s)
        order = sorted(range(1, self.n + 1), key=self._order_pos)
        for j in order:
            if len(chosen) == self.full_rank:
                break
            if j in chosen:
                continue
            cand = tuple(sorted(chosen | {j}))
            if cand in members:
                chosen.add(j)
        return tuple(sorted(chosen))

    def is_coloop_free(self) -> bool:
        """True iff no vector lies in every basis (removing any one keeps the rank)."""
        in_every_basis = set(range(1, self.n + 1))
        for b in self._bases:
            in_every_basis.intersection_update(b)
        return not in_every_basis
