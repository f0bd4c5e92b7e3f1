"""Exact polynomial arithmetic and coefficient-shape predicates.

Polynomials carry integer or rational coefficients and are immutable.
h*-vectors pair a coefficient tuple (h_0, ..., h_d) with an explicit ambient
degree d, because the shape predicates (palindromicity, alternating increase)
depend on d and not just on the nonzero support.

A counting polynomial E, its h*-vector and its coordinates in the shifted
power basis n^j (1+n)^(d-j) are converted by one closed sum per direction.
The oracle applies the sum that takes values of E to h* to its raw counts.

Real-rootedness is decided by one primitive Sturm chain in Z[t]: rational
coefficients are cleared once on entry, and every later step is an integer
pseudo-remainder, so no rational division happens along the chain.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import LatticeMathError

Scalar = Union[int, Fraction]


def _exact(x) -> Scalar:
    """Coerce to int or reduced Fraction; floats are rejected."""
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


class Poly:
    """Univariate polynomial with exact coefficients, index i = coeff of t^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-other if isinstance(other, Poly) else Poly((-other,)))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self or not other:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _exact(acc) if isinstance(acc, Fraction) else acc

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def scale_argument(self, k: Scalar) -> "Poly":
        """p(k*t) as a polynomial in t."""
        return Poly(tuple(c * k**i for i, c in enumerate(self.coeffs)))

    def reversed(self, d: int) -> "Poly":
        """t^d * p(1/t), the coefficient reversal at ambient degree d."""
        if self.degree > d:
            raise LatticeMathError(f"degree {self.degree} exceeds ambient degree {d}")
        padded = list(self.coeffs) + [0] * (d + 1 - len(self.coeffs))
        return Poly(tuple(reversed(padded)))

    def padded(self, length: int) -> tuple:
        """Coefficients padded with zeros to the requested length."""
        if len(self.coeffs) > length:
            raise LatticeMathError(f"degree {self.degree} does not fit in length {length}")
        return self.coeffs + (0,) * (length - len(self.coeffs))


class HStarVector:
    """Coefficient vector (h_0, ..., h_d) with explicit ambient degree d."""

    __slots__ = ("h", "d")

    def __init__(self, entries: Sequence[Scalar], d: int | None = None):
        h = tuple(_exact(x) for x in entries)
        if not h:
            raise LatticeMathError("empty h*-vector")
        if d is None:
            d = len(h) - 1
        elif not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise LatticeMathError(f"ambient degree must be a nonnegative integer, got {d!r}")
        if len(h) != d + 1:
            raise LatticeMathError(f"expected {d + 1} entries for ambient degree {d}, got {len(h)}")
        self.h = h
        self.d = d

    @classmethod
    def from_poly(cls, p: Poly, d: int) -> "HStarVector":
        return cls(p.padded(d + 1), d)

    def poly(self) -> Poly:
        return Poly(self.h)

    def __iter__(self):
        return iter(self.h)

    def __getitem__(self, i):
        return self.h[i]

    def __len__(self):
        return len(self.h)

    def __eq__(self, other) -> bool:
        if isinstance(other, HStarVector):
            return self.h == other.h and self.d == other.d
        return NotImplemented

    def __hash__(self):
        return hash((self.h, self.d))

    def __repr__(self) -> str:
        return f"HStarVector({self.h!r}, d={self.d})"


def _as_hstar(h, d: int | None = None) -> HStarVector:
    if isinstance(h, HStarVector):
        return h
    return HStarVector(tuple(h), d)


# ---------------------------------------------------------------------------
# Basis transformations
# ---------------------------------------------------------------------------

def _hstar_numerator(values: Sequence[Scalar], r: int) -> list:
    """h_k = sum_{i<=k} (-1)^(k-i) C(r+1, k-i) values[i] for each k < len(values):
    from values E(0), E(1), ..., the bottom of h(t) = (1-t)^(r+1) sum_n E(n) t^n."""
    signed = [(-1) ** j * comb(r + 1, j) for j in range(len(values))]
    return [sum(map(mul, signed[k::-1], values)) for k in range(len(values))]


def hstar_from_ehrhart(ehr: Poly, r: int) -> HStarVector:
    """h*-vector of a counting polynomial of an r-dimensional body.

    Uses h_k = sum_{i<=k} (-1)^(k-i) C(r+1, k-i) ehr(i); the result satisfies
    sum_i h_i C(n+r-i, r) = ehr(n) for all n.  Non-integer entries mean the
    input was not integer-valued of the declared degree.
    """
    if r < 0:
        raise LatticeMathError("ambient degree must be nonnegative")
    if ehr.degree > r:
        raise LatticeMathError(f"polynomial degree {ehr.degree} exceeds ambient degree {r}")
    h = [_exact(hk) for hk in _hstar_numerator([ehr(i) for i in range(r + 1)], r)]
    for k, hk in enumerate(h):
        if not isinstance(hk, int):
            raise LatticeMathError(
                f"h*-entry h_{k} = {hk} is not an integer; the input is not an "
                f"integer-valued polynomial of degree at most {r}"
            )
    return HStarVector(h, r)


def ehrhart_from_hstar(h: HStarVector) -> Poly:
    """Counting polynomial sum_i h_i C(n+d-i, d); exact inverse of hstar_from_ehrhart.

    d! C(n+d-i, d) = (n+1-i)(n+2-i)...(n+d-i) has integer coefficients, so
    d! times the polynomial is summed without division; each coefficient
    becomes a Fraction once, at the end.
    """
    h = _as_hstar(h)
    d = h.d
    scaled = [0] * (d + 1)  # d! * E, the coefficient of n^k at index k
    for i, hi in enumerate(h.h):
        if hi:
            product = [1]  # (n+1-i)...(n+shift) so far, the coefficient of n^k at index k
            for shift in range(1 - i, d + 1 - i):
                product = [a + shift * b for a, b in zip([0] + product, product + [0])]
            for k, c in enumerate(product):
                scaled[k] += hi * c
    scale = factorial(d)
    return Poly(Fraction(c, scale) for c in scaled)


def express_in_shifted_power_basis(p: Poly, d: int) -> tuple:
    """Coordinates (c_0, ..., c_d) with p(n) = sum_j c_j n^j (1+n)^(d-j).

    At n = x/(1-x) the element n^j (1+n)^(d-j) is x^j / (1-x)^d, so
    sum_j c_j x^j = (1-x)^d p(x/(1-x)) = sum_k p_k x^k (1-x)^(d-k), and
    c_j = sum_{k<=j} (-1)^(j-k) C(d-k, j-k) p_k.
    """
    if p.degree > d:
        raise LatticeMathError(f"degree {p.degree} exceeds basis degree {d}")
    return tuple(_exact(sum((-1) ** (j - k) * comb(d - k, j - k) * c
                            for k, c in enumerate(p.coeffs[:j + 1])))
                 for j in range(d + 1))


# ---------------------------------------------------------------------------
# Real-rootedness via Sturm chains
# ---------------------------------------------------------------------------

def _primitive(p: Poly) -> Poly:
    """Divide an integer polynomial by the positive gcd of its coefficients."""
    g = gcd(*p.coeffs)
    return Poly(c // g for c in p.coeffs)


def _sturm_chain(p: Poly) -> list:
    """Primitive Sturm chain of a nonzero p in Z[t], ending at gcd(p, p').

    The chain is p, p' and then the negated pseudo-remainders, each made
    primitive.  A pseudo-remainder is scaled by |lc|^(delta+1), a positive
    factor, so every sign matches the chain of rational remainders.
    """
    p = _primitive(p * lcm(*(c.denominator for c in p.coeffs)))
    chain = [p]
    rem = p.derivative()
    while rem:
        b = _primitive(rem)
        chain.append(b)
        lc, db = b.coeffs[-1], b.degree
        scale, sign = abs(lc), (1 if lc > 0 else -1)
        tail = b.coeffs[:-1]
        r = list(chain[-2].coeffs)
        for i in range(len(r) - 1, db - 1, -1):
            f = sign * r.pop()
            r = [scale * x for x in r]
            for j, c in enumerate(tail):
                r[i - db + j] -= f * c
        rem = -Poly(r)
    return chain


def _real_root_count(chain: list) -> int:
    """Sign variations of a Sturm chain at -oo minus those at +oo."""
    def variations(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))
    at_plus = [q.coeffs[-1] > 0 for q in chain]
    at_minus = [(q.coeffs[-1] > 0) != (q.degree % 2 == 1) for q in chain]
    return variations(at_minus) - variations(at_plus)


def count_distinct_real_roots(p: Poly) -> int:
    """Number of distinct real roots, by a Sturm chain over (-oo, oo)."""
    if not p:
        raise LatticeMathError("the zero polynomial has no well-defined root count")
    return _real_root_count(_sturm_chain(p))


def is_real_rooted(p: Poly) -> bool:
    """True iff every complex root of p is real, counted with multiplicity.

    p has deg(p) - deg(gcd(p, p')) distinct complex roots, and the Sturm
    chain ends at that gcd, so one chain decides it.
    """
    if not p:
        raise LatticeMathError("the zero polynomial is not a valid input")
    chain = _sturm_chain(p)
    return _real_root_count(chain) == chain[0].degree - chain[-1].degree


# ---------------------------------------------------------------------------
# Coefficient-shape predicates
# ---------------------------------------------------------------------------

def is_unimodal(h) -> tuple[bool, frozenset]:
    """Whether h rises then falls weakly; on success also the set of argmax indices."""
    h = _as_hstar(h)
    if unimodality_violation(h) is not None:
        return False, frozenset()
    peak = max(h.h)
    return True, frozenset(i for i, v in enumerate(h.h) if v == peak)


def is_palindromic(h) -> bool:
    """True iff h_i = h_{d-i} for all i (trailing zeros participate via d)."""
    h = _as_hstar(h)
    return all(h.h[i] == h.h[h.d - i] for i in range(h.d + 1))


def is_alternatingly_increasing(h) -> bool:
    """True iff h_0 <= h_d <= h_1 <= h_{d-1} <= ... <= h_{floor((d+1)/2)}."""
    return alternating_increase_violation(h) is None


def unimodality_violation(h):
    """Index witnessing a failure of unimodality, or None (a rise after a fall)."""
    h = _as_hstar(h)
    seq = h.h
    fallen = False
    for i in range(1, len(seq)):
        if seq[i] < seq[i - 1]:
            fallen = True
        elif seq[i] > seq[i - 1] and fallen:
            return i
    return None


def alternating_increase_violation(h):
    """Pair of indices (i, j) with h_i > h_j violating the alternating chain, or None."""
    h = _as_hstar(h)
    order = []
    lo, hi = 0, h.d
    while lo <= hi:
        order.append(lo)
        if hi > lo:
            order.append(hi)
        lo += 1
        hi -= 1
    for a, b in zip(order, order[1:]):
        if h.h[a] > h.h[b]:
            return a, b
    return None


def symmetric_decomposition(h) -> tuple[Poly, Poly]:
    """Unique split h(t) = a(t) + t*b(t) with a, b palindromic at d/2 and (d-1)/2."""
    h = _as_hstar(h)
    d = h.d
    a = [0] * (d + 1)
    b = [0] * d
    for i in range(d // 2 + 1):
        a[i] = h.h[i] - (b[i - 1] if i > 0 else 0)
        a[d - i] = a[i]
        if d - 1 - i >= 0:
            b[d - 1 - i] = h.h[d - i] - a[d - i]
            b[i] = b[d - 1 - i]
    assert all(h.h[i] == a[i] + (b[i - 1] if i > 0 else 0) for i in range(d + 1))
    assert all(a[i] == a[d - i] for i in range(d + 1))
    assert all(b[i] == b[d - 1 - i] for i in range(d))
    return Poly(a), Poly(b)
