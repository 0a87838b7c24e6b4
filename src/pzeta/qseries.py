"""Exact truncated power series and rational functions over Fraction.

Provides the machinery to machine-verify two identities: the partial
fraction decomposition of the exact-length partition generating function

    q^k / ((1-q)(1-q^2)...(1-q^k))
        = sum over partitions lambda of k of
          q^k / (N(lambda) m_1!...m_k! (1-q)^{m_1} (1-q^2)^{m_2} ... )

and the exponential partition identity

    exp(sum_j a_j x^j) = sum_k x^k sum over lambda of k of
                         prod_j a_j^{m_j} / m_j!

plus the finite restricted generating function in z whose z^k coefficient
reproduces the truncated direct sum over bounded partitions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DivergenceRegion, NonzeroConstantTerm
from .exact import format_rational
from .partitions import complete_homogeneous, enumerate_partitions_of_size


class TruncatedSeries:
    """Dense exact coefficients of q^0..q^order; arithmetic modulo q^(order+1).

    Coefficients beyond the order are dropped on construction; binary
    operations require operands of equal order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            cs = cs[: order + 1]
            cs += [Fraction(0)] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("empty coefficient list requires an explicit order")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def _aligned(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"series orders differ: {self.order} vs {other.order}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._aligned(other)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._aligned(other)
        return TruncatedSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._aligned(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for jj in range(n - i + 1):
                b = other.coeffs[jj]
                if b:
                    out[i + jj] += a * b
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "TruncatedSeries":
        if e < 0:
            raise ValueError("negative powers not supported; use reciprocal")
        out = TruncatedSeries([1], self.order)
        for _ in range(e):
            out = out * self
        return out

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k, truncating at the original order."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return TruncatedSeries([Fraction(0)] * k + self.coeffs, self.order)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse modulo q^(order+1); the constant term must
        be nonzero."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("reciprocal requires a nonzero constant term")
        inv0 = Fraction(1) / c0
        out = [Fraction(0)] * (self.order + 1)
        out[0] = inv0
        for n in range(1, self.order + 1):
            acc = sum(self.coeffs[i] * out[n - i] for i in range(1, n + 1))
            out[n] = -inv0 * acc
        return TruncatedSeries(out)

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [format_rational(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self.coeffs]})"


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """Exact exponential of a series with zero constant term.

    Uses the derivative recurrence n b_n = sum_{i=1}^{n} i a_i b_{n-i}: the
    Newton recurrence of complete_homogeneous with power sums p_i = i a_i.
    """
    if a.coeffs[0] != 0:
        raise NonzeroConstantTerm("series exponential requires a zero constant term")
    power_sums = [i * a.coeffs[i] for i in range(1, a.order + 1)]
    return TruncatedSeries(complete_homogeneous(power_sums, Fraction(1)))


def geometric_series(j: int, order: int) -> TruncatedSeries:
    """The series of 1/(1 - q^j) up to the given order."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return TruncatedSeries([1 if n % j == 0 else 0 for n in range(order + 1)])


class Polynomial:
    """Dense exact polynomial, coefficient of q^n at index n.

    The zero polynomial has an empty coefficient list.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for jj, b in enumerate(other.coeffs):
                if b:
                    out[i + jj] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative powers not supported")
        out = Polynomial([1])
        for _ in range(e):
            out = out * self
        return out

    def to_json(self) -> list:
        return [format_rational(c) for c in (self.coeffs or [Fraction(0)])]

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"


class RationalFunction:
    """Quotient of two exact polynomials; the denominator must be nonzero.

    Stored unreduced; equality is decided by exact cross multiplication, so
    equivalent fractions over different denominators compare equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ValueError("denominator must be nonzero")
        self.num = num
        self.den = den

    def equals(self, other: "RationalFunction") -> bool:
        return self.num * other.den == other.num * self.den

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


def one_minus_q_power(j: int) -> Polynomial:
    """The polynomial 1 - q^j."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return Polynomial([1] + [0] * (j - 1) + [-1])


def _partition_weight(lam) -> tuple[Fraction, dict[int, int]]:
    # 1 / (N(lambda) * m_1! * ... * m_k!) together with the multiplicity map.
    mult = lam.multiplicities()
    denom = lam.norm()
    for mj in mult.values():
        denom *= math.factorial(mj)
    return Fraction(1, denom), mult


def macmahon_lhs(k: int, order: int) -> TruncatedSeries:
    """Generating function q^k / ((1-q)(1-q^2)...(1-q^k)) modulo q^(order+1).

    Its q^n coefficient counts the partitions of n with exactly k parts.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if order < k:
        raise ValueError("order must be >= k")
    prod = TruncatedSeries([1], order)
    for j in range(1, k + 1):
        prod = prod * geometric_series(j, order)
    return prod.shift(k)


def macmahon_rhs(k: int, order: int) -> TruncatedSeries:
    """Partition-indexed partial-fraction side of the same generating
    function: sum over partitions lambda of k of
    q^k / (N(lambda) m_1!...m_k! (1-q)^{m_1} ... (1-q^k)^{m_k}),
    expanded modulo q^(order+1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if order < k:
        raise ValueError("order must be >= k")
    geoms = {j: geometric_series(j, order) for j in range(1, k + 1)}
    total = TruncatedSeries([0], order)
    for lam in enumerate_partitions_of_size(k):
        weight, mult = _partition_weight(lam)
        term = TruncatedSeries([1], order)
        for j, mj in mult.items():
            term = term * geoms[j] ** mj
        total = total + term.shift(k) * weight
    return total


def macmahon_exact_identity(k: int) -> bool:
    """Exact rational-function form of the decomposition: checks

        1 / ((1-q)...(1-q^k)) == sum over lambda of k of
            1 / (N(lambda) m_1!...m_k! prod_j (1-q^j)^{m_j})

    by putting the right side over the common denominator
    prod_j (1-q^j)^{floor(k/j)} and cross-multiplying.  Returns True when
    the two sides agree identically.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    base = {j: one_minus_q_power(j) for j in range(1, k + 1)}
    # Power tables (1-q^j)^e for e up to floor(k/j), reused across terms.
    pows: dict[int, list[Polynomial]] = {}
    for j in range(1, k + 1):
        tab = [Polynomial([1])]
        for _ in range(k // j):
            tab.append(tab[-1] * base[j])
        pows[j] = tab

    lhs_den = Polynomial([1])
    common_den = Polynomial([1])
    for j in range(1, k + 1):
        lhs_den = lhs_den * base[j]
        common_den = common_den * pows[j][k // j]
    lhs = RationalFunction(Polynomial([1]), lhs_den)

    acc = Polynomial()
    for lam in enumerate_partitions_of_size(k):
        weight, mult = _partition_weight(lam)
        term = Polynomial([1])
        for j in range(1, k + 1):
            e = k // j - mult.get(j, 0)
            if e:
                term = term * pows[j][e]
        acc = acc + term * weight
    rhs = RationalFunction(acc, common_den)
    return lhs.equals(rhs)


def faa_di_bruno_check(coeffs: Sequence, order: int) -> bool:
    """Verify the exponential partition identity through the given order.

    ``coeffs`` supplies a_1..a_order exactly (shorter sequences are padded
    with zeros).  Expands exp(sum_j a_j x^j) with exact arithmetic and
    compares every x^k coefficient, k <= order, against the partition sum
    sum over lambda of k of prod_j a_j^{m_j} / m_j!.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    a = [Fraction(c) for c in coeffs]
    if len(a) > order:
        raise ValueError("more coefficients than the requested order")
    a += [Fraction(0)] * (order - len(a))
    lhs = series_exp(TruncatedSeries([0] + a, order))
    for k in range(order + 1):
        acc = Fraction(0)
        for lam in enumerate_partitions_of_size(k):
            term = Fraction(1)
            for j, mj in lam.multiplicities().items():
                term *= a[j - 1] ** mj / math.factorial(mj)
            acc += term
        if lhs[k] != acc:
            return False
    return True


def restricted_genfun_coeffs(s: complex, max_part: int, k_max: int) -> list[complex]:
    """Coefficients of z^0..z^k_max in prod_{n<=max_part} 1/(1 - z n^(-s)).

    The z^k coefficient equals the direct sum of N(lambda)^(-s) over the
    partitions with exactly k parts, all parts <= max_part: the same finite
    sum the truncated oracle computes, reached through a different route.
    Requires Re(s) > 1.
    """
    s = complex(s)
    if s.real <= 1:
        raise DivergenceRegion(f"requires Re(s) > 1, got {s.real}")
    if max_part < 1:
        raise ValueError("max_part must be >= 1")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    out = [1 + 0j] + [0j] * k_max
    for n in range(1, max_part + 1):
        a = complex(n) ** (-s)
        # Multiply by 1/(1 - a z): new[t] = old[t] + a * new[t-1].
        for t in range(1, k_max + 1):
            out[t] = out[t] + a * out[t - 1]
    return out
