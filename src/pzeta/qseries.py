"""Exact q-series checks of the identities behind the explicit formula.

Provides the machinery to machine-verify two identities: the partial
fraction decomposition of the exact-length partition generating function

    q^k / ((1-q)(1-q^2)...(1-q^k))
        = sum over partitions lambda of k of
          q^k / (N(lambda) m_1!...m_k! (1-q)^{m_1} (1-q^2)^{m_2} ... )

and the exponential partition identity

    exp(sum_j a_j x^j) = sum_k x^k sum over lambda of k of
                         prod_j a_j^{m_j} / m_j!

Both are checked on plain ints; a Fraction is formed only where
macmahon_rhs returns one.  With z_lambda = N(lambda) m_1!...m_k!, the
weight k!/z_lambda counts the permutations of cycle type lambda, so it is
an integer, and the partition side of the decomposition is summed in
integers scaled by k!, in one depth-first pass over the parts in
increasing order: partitions that share a prefix share its series, so
each edge of the pass divides a truncated series by one (1 - q^j), in
O(length) integer additions, and carries the weight down exactly.  The
two sides come back as TruncatedSeries, a read-only record of
coefficients compared with ==; the exact identity compares k! times the
left side with the integer partition side at an order proven to decide
it.  The Faa di Bruno check runs the exponential's recurrence and the
partition sums, one depth-first pass over the partitions of size
<= order, each on ints scaled by order! den^order (den the lcm of the
a_j's denominators), and compares the two integer lists.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .errors import integer_size
from .numeric import restricted_genfun_coeffs  # noqa: F401  also public as qseries.restricted_genfun_coeffs


class TruncatedSeries(namedtuple("TruncatedSeries", "coeffs")):
    """Exact coefficients of q^0..q^(len(coeffs) - 1) of a power series: a
    read-only record of the one list, equal when the lists are equal."""

    __slots__ = ()


def _divide_one_minus_q_power(c: list[int], j: int) -> None:
    """Divide the truncated series c(q) by (1 - q^j) in place, modulo
    q^len(c)."""
    for n in range(j, len(c)):
        c[n] += c[n - j]


def _cycle_type_terms(k: int, length: int) -> Iterator[tuple[int, list[int]]]:
    """For each partition lambda of k: the number k!/z_lambda of permutations
    of cycle type lambda, z_lambda = N(lambda) m_1!...m_k!, together with
    1 / prod_j (1-q^j)^{m_j} modulo q^length.  One depth-first pass over the
    parts in increasing order: partitions that share a prefix share its
    series, so each edge divides by one (1 - q^j)."""
    # Appending part j to reach multiplicity m takes z to z j m, so the
    # child's weight is the parent's // (j m).  The division is exact: a
    # prefix mu of size <= k has z_mu dividing |mu|! (the quotient counts
    # the permutations of cycle type mu), which divides k!.  A prefix whose
    # last part is j and whose rest r is left can be completed exactly when
    # r == 0 or r >= j, so from rest r the next part is at most r // 2, or r.
    stack = [([1] + [0] * (length - 1), k, 1, 0, math.factorial(k))]
    while stack:
        c, rest, last, mult, w = stack.pop()
        if not rest:
            yield w, c
            continue
        for j in [*range(last, rest // 2 + 1), rest]:
            child = c.copy()
            _divide_one_minus_q_power(child, j)
            m = mult + 1 if j == last else 1
            stack.append((child, rest - j, j, m, w // (j * m)))


def _partition_side(k: int, order: int) -> list[int]:
    """k! times the partition side of the decomposition modulo q^(order+1):
    the sum over lambda of k of (k!/z_lambda) q^k / prod_j (1-q^j)^{m_j}."""
    total = [0] * (order + 1 - k)
    for w, c in _cycle_type_terms(k, len(total)):
        total = [t + w * x for t, x in zip(total, c)]
    return [0] * k + total


def _check_macmahon_args(k: int, order: int) -> None:
    k, order = integer_size("k", k), integer_size("order", order)
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

    Summed in integers scaled by k! in one pass over the partitions
    (_partition_side); each coefficient is divided by k! once at the end.
    """
    _check_macmahon_args(k, order)
    k_factorial = math.factorial(k)
    return TruncatedSeries([Fraction(c, k_factorial) for c in _partition_side(k, order)])


def macmahon_exact_identity(k: int) -> bool:
    """Exact rational-function form of the decomposition: checks

        1 / ((1-q)...(1-q^k)) == sum over lambda of k of
            1 / (N(lambda) m_1!...m_k! prod_j (1-q^j)^{m_j})

    identically, by comparing k! macmahon_lhs with k! times the partition
    side, both in integers, through q^d, d = sum_j j floor(k/j), an order
    at which agreement proves equality.
    """
    k = integer_size("k", k)
    # Why order d decides.  D = prod_j (1-q^j)^{floor(k/j)} has degree d and
    # every term's denominator divides it, so k! D (lhs - rhs) = q^k P with
    #     P = k! prod_j (1-q^j)^{floor(k/j)-1}
    #         - sum_lambda (k!/z_lambda) prod_j (1-q^j)^{floor(k/j)-m_j},
    # an integer polynomial of degree <= d - k: each partition's term loses
    # degree sum_j j m_j = k from D, and the left side loses k(k+1)/2 >= k.
    # Agreement through q^d makes q^k P vanish through q^d, so P vanishes
    # through q^(d-k), so P = 0.  D(0) = 1 makes D a unit in Z[[q]], so then
    # lhs == rhs; and series that differ at any order already disprove it.
    d = sum(j * (k // j) for j in range(1, k + 1))
    k_factorial = math.factorial(k)
    return [k_factorial * c for c in macmahon_lhs(k, d).coeffs] == _partition_side(k, d)


def _exp_partition_sums(a: Sequence[Fraction], order: int) -> list[int]:
    """[x^0..x^order] of exp(sum_j a_j x^j), a = a_1..a_order, as partition
    sums scaled by order! den^order, den the lcm of the denominators: the
    x^k coefficient is the sum over lambda of k of prod_j a_j^{m_j} / m_j!.
    One depth-first pass on plain ints visits every partition of size
    <= order once and adds one term for it."""
    # The scale.  With num_j = a_j den, a partition lambda of length l
    # carries
    #     V(lambda) = order! den^(order - l) prod_j num_j^{m_j} / prod_j m_j!,
    # an integer: l <= |lambda| <= order, and prod_j m_j! divides l! (the
    # quotient is a multinomial coefficient), which divides order!.  So the
    # V over the partitions of k sum to order! den^order times the x^k
    # coefficient.
    #
    # The pass.  Parts are appended in weakly decreasing order, so each
    # partition is reached once.  Appending part j to reach multiplicity m
    # gives V(child) = V num_j / (den m), and the floor division below is
    # exact because V(child) is again an integer.
    den = math.lcm(*(c.denominator for c in a))
    num = [c.numerator * (den // c.denominator) for c in a]
    sums = [0] * (order + 1)
    # (size, last part, its multiplicity, V); the root's last part is order
    # with multiplicity 0, so its children all start at multiplicity 1.
    stack = [(0, order, 0, math.factorial(order) * den**order)]
    while stack:
        size, last, mult, v = stack.pop()
        sums[size] += v
        for j in range(1, min(last, order - size) + 1):
            m = mult + 1 if j == last else 1
            stack.append((size + j, j, m, v * num[j - 1] // (den * m)))
    return sums


def _exp_recurrence(a: Sequence[Fraction], order: int) -> list[int]:
    """[x^0..x^order] of exp(sum_j a_j x^j), a = a_1..a_order, by the
    exponential's recurrence n b_n = sum_i i a_i b_(n-i), on ints scaled by
    order! den^order, den the lcm of the denominators."""
    # With num_i = a_i den and L_n = order! den^order b_n the recurrence is
    #     L_n = (sum_i i num_i L_(n-i)) / (n den).
    # Each L_n, n <= order, is an integer: it is the sum of the integers
    # V(lambda) over the partitions of n (see _exp_partition_sums).  So the
    # floor division below is exact.
    den = math.lcm(*(c.denominator for c in a))
    weighted = [i * c.numerator * (den // c.denominator) for i, c in enumerate(a, 1)]
    out = [math.factorial(order) * den**order]
    for n in range(1, order + 1):
        out.append(sum(w * b for w, b in zip(weighted, reversed(out))) // (n * den))
    return out


def faa_di_bruno_check(coeffs: Sequence, order: int) -> bool:
    """Verify the exponential partition identity through the given order.

    ``coeffs`` supplies a_1..a_order exactly (shorter sequences are padded
    with zeros).  Expands exp(sum_j a_j x^j) by its recurrence
    (_exp_recurrence) and compares every x^k coefficient, k <= order,
    against the partition sum over lambda of k of prod_j a_j^{m_j} / m_j!,
    summed one term per partition (_exp_partition_sums).  Both sides are
    plain ints at the same scale order! den^order, each computed from the
    coefficients on its own, so the lists are compared directly.
    """
    order = integer_size("order", order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    a = [Fraction(c) for c in coeffs]
    if len(a) > order:
        raise ValueError("more coefficients than the requested order")
    a += [Fraction(0)] * (order - len(a))
    return _exp_recurrence(a, order) == _exp_partition_sums(a, order)
