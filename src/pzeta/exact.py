"""Exact arithmetic: Bernoulli numbers, even-argument zeta values, and
fixed-length partition zeta values as rational multiples of powers of pi.

Every computation in this module is exact; no floating point enters any
intermediate.  Rationals are stdlib ``fractions.Fraction`` values, which are
always reduced to lowest terms with a positive denominator.  The power of pi
in each result is fixed by its arguments before any arithmetic starts, so
PiPower only records the pair.  Partition zeta values run their recurrence
on plain ints scaled by a denominator bound that von Staudt-Clausen proves,
and reduce one Fraction per value at the end.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from fractions import Fraction

from .errors import integer_size


def _decimal(n: int) -> str:
    # Decimal digits of n >= 0.  str(int) refuses past a process-wide digit
    # limit (4,300 by default, never below 640), so n past 2,000 bits (603
    # digits) is split in two by a power of ten.
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half its digits
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_rational(value: Fraction | int) -> str:
    """Serialize a rational as "num/den" in lowest terms, e.g. "-7/360"."""
    q = Fraction(value)
    sign = "-" if q < 0 else ""
    return f"{sign}{_decimal(abs(q.numerator))}/{_decimal(q.denominator)}"


class PiPower(namedtuple("PiPower", "coeff exponent", defaults=(0,))):
    """Exact value ``coeff * pi**exponent``, a read-only (coeff, exponent)
    record that compares and hashes as that pair; scaling by an int or
    Fraction keeps the exponent, and adding two PiPowers raises TypeError."""

    __slots__ = ()

    def __add__(self, other):
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PiPower(self.coeff * other, self.exponent)
        return NotImplemented

    __rmul__ = __mul__

    def to_float(self) -> float:
        return float(self.coeff) * math.pi**self.exponent

    def to_json(self) -> dict:
        return {"coeff": format_rational(self.coeff), "pi_power": self.exponent}


def _next_tangent_column(column: list[int]) -> list[int]:
    """Column n+1 of Brent and Harvey's tangent-number triangle from column n.

    Their in-place algorithm ("Fast computation of Bernoulli, Tangent and
    Secant numbers", 2011) sets T[j] = (j-1)! and then, in pass k = 2, 3, ...,
    T[j] = (j-k) T[j-1] + (j-k+2) T[j] for j >= k.  Entry k-1 of column n
    holds T[n] after pass k, so the last entry is the tangent number T_n,
    and the next column needs only this one: the table grows one tangent
    number at a time, in O(n) integer products.  Column 1 is [1].
    """
    n = len(column)
    if n == 0:
        return [1]
    t = n * column[0]  # pass 1: T[n+1] = n!
    out = [t]
    for k in range(2, n + 1):
        t = (n + 1 - k) * column[k - 1] + (n + 3 - k) * t
        out.append(t)
    out.append(2 * t)  # pass n+1 gives T[n] weight 0
    return out


_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_tangent_column: list[int] = []  # column m of the triangle once B_2m is cached
_bernoulli_lock = threading.Lock()


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """Bernoulli numbers B_0..B_n_max, convention B_1 = -1/2.

    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) from the integer tangent
    numbers T_m, and B_n = 0 for odd n >= 3.  Cached for the lifetime of the
    process (the cache is lock-guarded, so concurrent callers are safe).
    """
    n_max = integer_size("n_max", n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= n_max:
            _tangent_column[:] = _next_tangent_column(_tangent_column)
            m = len(_tangent_column)
            t = _tangent_column[-1] if m % 2 else -_tangent_column[-1]
            four_m = 4**m
            _bernoulli_cache.extend((Fraction(2 * m * t, four_m * (four_m - 1)), Fraction(0)))
        return _bernoulli_cache[: n_max + 1]


def zeta_even_exact(two_m: int) -> PiPower:
    """Exact zeta value at a positive even integer argument 2m.

    Returns (-1)^(m+1) (2 pi)^(2m) B_{2m} / (2 (2m)!) as a PiPower, e.g.
    zeta_even_exact(2) = (1/6) pi^2.  Odd or nonpositive arguments are
    rejected.
    """
    two_m = integer_size("two_m", two_m)
    if two_m < 2 or two_m % 2 != 0:
        raise ValueError(f"argument must be a positive even integer, got {two_m}")
    m = two_m // 2
    b = bernoulli_numbers(two_m)[two_m]
    coeff = (-1) ** (m + 1) * (2**two_m) * b / (2 * math.factorial(two_m))
    return PiPower(coeff, two_m)


def partition_zeta_exact(m: int, k: int) -> PiPower:
    """Fixed-length partition zeta value at even argument s = 2m, exactly.

    The sum, over the partitions of k, of zeta(2m)^{m_1} ... zeta(2mk)^{m_k}
    divided by N(lambda) * m_1! * ... * m_k!, that is h_k(zeta(2m), ...,
    zeta(2mk)): a rational multiple of pi^(2mk).  Newton's recurrence
    n h_n = sum_j zeta(2mj) h_{n-j} runs in O(k^2) products of plain ints on
    a scale that makes every step an exact integer, and one Fraction is
    reduced at the end.  k = 0 gives 1 by convention.
    """
    m, k = integer_size("m", m), integer_size("k", k)
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    # Every term of h_k carries pi^(2mk), so the recurrence runs on
    # c_j = zeta(2mj) / pi^(2mj) = 2^(2mj-1) |B_2mj| / (2mj)! and gives
    # h_n = F_n(2m) / pi^(2mn).
    #
    # The scale.  Let d_i be the denominator of B_2mi, Q_n = d_1 ... d_n,
    # E_n = (2mn)! Q_n and W_n = n! E_n.  Then C_j = c_j E_j =
    # 2^(2mj-1) |numerator of B_2mj| Q_(j-1) is an integer, and so is
    # G_n = h_n W_n: multiplied out, n h_n = sum_j c_j h_(n-j) reads
    #     G_n = sum_(j=1..n) A_(n,j) C_j G_(n-j),
    #     A_(n,j) = [(n-1)! / (n-j)!] C(2mn, 2mj) [Q_n / (Q_j Q_(n-j))].
    # The first two factors of A_(n,j) are integers, and so is the third.
    # By von Staudt-Clausen d_i is the product of the primes p with
    # (p-1) | 2mi.  With g_p = gcd(p-1, 2m) and r_p = (p-1) / g_p, that
    # holds iff r_p | i, because r_p is prime to 2m / g_p.  So
    # Q_n = prod_p p^floor(n / r_p), and floor(x+y) >= floor(x) + floor(y).
    #
    # The loop.  A_(n,j) = [(n-1)! / (n-j)!] E_n / (E_j E_(n-j)), so with
    # delta_i = E_i / E_(i-1) = [(2mi)! / (2mi-2m)!] d_i, A_(n,1) =
    # delta_n / delta_1 and A_(n,j) = A_(n,j-1) (n-j+1) delta_(n-j+1) /
    # delta_j.  Each floor division below therefore has the integer
    # A_(n,j) as its exact quotient.  All terms are positive.
    two_m = 2 * m
    bernoulli = bernoulli_numbers(two_m * k)
    c, delta, q = [0], [1], 1
    for j in range(1, k + 1):
        b = bernoulli[two_m * j]
        c.append((abs(b.numerator) << (two_m * j - 1)) * q)
        q *= b.denominator
        delta.append(math.perm(two_m * j, two_m) * b.denominator)
    up = [i * d for i, d in enumerate(delta)]
    g = [1]
    for n in range(1, k + 1):
        a = delta[n] // delta[1]
        total = a * g[n - 1] * c[1]
        for j in range(2, n + 1):
            a = a * up[n - j + 1] // delta[j]
            total += a * g[n - j] * c[j]
        g.append(total)
    w = math.factorial(k) * math.factorial(two_m * k) * q
    return PiPower(Fraction(g[k], w), two_m * k)


def zeta2_family_coefficient(k: int) -> Fraction:
    """Rational ratio between the length-k partition zeta value at s = 2 and
    zeta(2k): returns (2^(2k-1) - 1) / 2^(2k-2), defined for k >= 1.

    Examples: k=1 -> 1, k=2 -> 7/4, k=5 -> 511/256.
    """
    k = integer_size("k", k)
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(2 ** (2 * k - 1) - 1, 2 ** (2 * k - 2))
