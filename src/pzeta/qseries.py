"""Exact q-series checks of the identities behind the explicit formula.

Provides the machinery to machine-verify two identities: the partial
fraction decomposition of the exact-length partition generating function

    q^k / ((1-q)(1-q^2)...(1-q^k))
        = sum over partitions lambda of k of
          q^k / (N(lambda) m_1!...m_k! (1-q)^{m_1} (1-q^2)^{m_2} ... )

and the exponential partition identity

    exp(sum_j a_j x^j) = sum_k x^k sum over lambda of k of
                         prod_j a_j^{m_j} / m_j!

The decomposition is checked on plain int coefficient lists.  With
z_lambda = N(lambda) m_1!...m_k!, the weight k!/z_lambda counts the
permutations of cycle type lambda, so it is an integer, and scaling both
sides by k! leaves only integer polynomials.  Every step multiplies a
polynomial by (1 - q^j) or divides a truncated series by it, each in
O(length) integer additions.  The two sides come back as TruncatedSeries,
a read-only record of coefficients compared with ==.  The Faa di Bruno
check runs the exponential's recurrence on Fraction coefficients.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .numeric import restricted_genfun_coeffs  # noqa: F401  also public as qseries.restricted_genfun_coeffs
from .partitions import complete_homogeneous, enumerate_partitions_of_size


@dataclass(frozen=True)
class TruncatedSeries:
    """Exact coefficients of q^0..q^(len(coeffs) - 1) of a power series."""

    coeffs: list


def _times_one_minus_q_power(c: list[int], j: int) -> list[int]:
    """The polynomial c(q) (1 - q^j), j degrees longer than c."""
    out = c + [0] * j
    for n, cn in enumerate(c):
        out[n + j] -= cn
    return out


def _divide_one_minus_q_power(c: list[int], j: int) -> None:
    """Divide the truncated series c(q) by (1 - q^j) in place, modulo
    q^len(c)."""
    for n in range(j, len(c)):
        c[n] += c[n - j]


def _cycle_types(k: int) -> Iterator[tuple[int, Counter]]:
    """For each partition lambda of k: the number k!/z_lambda of permutations
    of cycle type lambda, z_lambda = N(lambda) m_1!...m_k!, together with the
    multiplicity map."""
    k_factorial = math.factorial(k)
    for lam in enumerate_partitions_of_size(k):
        mult = Counter(lam)
        z = math.prod(lam)
        for mj in mult.values():
            z *= math.factorial(mj)
        yield k_factorial // z, mult


def _check_macmahon_args(k: int, order: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if order < k:
        raise ValueError("order must be >= k")


def macmahon_lhs(k: int, order: int) -> TruncatedSeries:
    """Generating function q^k / ((1-q)(1-q^2)...(1-q^k)) modulo q^(order+1).

    Its q^n coefficient counts the partitions of n with exactly k parts.
    """
    _check_macmahon_args(k, order)
    c = [0] * (order + 1)
    c[k] = 1
    for j in range(1, k + 1):
        _divide_one_minus_q_power(c, j)
    return TruncatedSeries(c)


def macmahon_rhs(k: int, order: int) -> TruncatedSeries:
    """Partition-indexed partial-fraction side of the same generating
    function: sum over partitions lambda of k of
    q^k / (N(lambda) m_1!...m_k! (1-q)^{m_1} ... (1-q^k)^{m_k}),
    expanded modulo q^(order+1).

    Each term is summed in integers scaled by k!, with weight k!/z_lambda,
    and the total is divided by k! once at the end.
    """
    _check_macmahon_args(k, order)
    total = [0] * (order + 1)
    for count, mult in _cycle_types(k):
        term = [0] * (order + 1)
        term[k] = count
        for j, mj in mult.items():
            for _ in range(mj):
                _divide_one_minus_q_power(term, j)
        total = [a + b for a, b in zip(total, term)]
    k_factorial = math.factorial(k)
    return TruncatedSeries([Fraction(c, k_factorial) for c in total])


def macmahon_exact_identity(k: int) -> bool:
    """Exact rational-function form of the decomposition: checks

        1 / ((1-q)...(1-q^k)) == sum over lambda of k of
            1 / (N(lambda) m_1!...m_k! prod_j (1-q^j)^{m_j})

    by putting the right side over the common denominator
    D = prod_j (1-q^j)^{floor(k/j)}, scaling by k! and cross-multiplying,
    all in integer polynomials:

        sum_lambda (k!/z_lambda) prod_j (1-q^j)^{floor(k/j)-m_j}
            * prod_j (1-q^j) == k! D.

    Returns True when the two sides agree identically.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # Every term has degree sum_j j floor(k/j) - k, so all share one length.
    acc: list[int] = []
    for count, mult in _cycle_types(k):
        term = [count]
        for j in range(1, k + 1):
            for _ in range(k // j - mult.get(j, 0)):
                term = _times_one_minus_q_power(term, j)
        acc = [a + b for a, b in zip(acc, term)] if acc else term
    for j in range(1, k + 1):
        acc = _times_one_minus_q_power(acc, j)

    rhs = [math.factorial(k)]
    for j in range(1, k + 1):
        for _ in range(k // j):
            rhs = _times_one_minus_q_power(rhs, j)
    # The left side carries k(k-1)/2 extra degrees, which must all vanish.
    return acc[: len(rhs)] == rhs and not any(acc[len(rhs):])


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
    # exp's derivative recurrence n b_n = sum_i i a_i b_{n-i} is Newton's
    # with power sums i a_i.
    lhs = complete_homogeneous([j * a[j - 1] for j in range(1, order + 1)], Fraction(1))
    for k in range(order + 1):
        acc = Fraction(0)
        for lam in enumerate_partitions_of_size(k):
            term = Fraction(1)
            for j, mj in Counter(lam).items():
                term *= a[j - 1] ** mj / math.factorial(mj)
            acc += term
        if lhs[k] != acc:
            return False
    return True
