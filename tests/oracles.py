"""Partition helpers that only the tests use, as oracles for the package.

Partitions are weakly decreasing tuples of positive integers, as the
package enumerates them.  partition_from_multiplicities inverts
collections.Counter on a partition, and enumerate_partitions_fixed_length
lists the bounded fixed-length partitions that the truncated direct sum and
the restricted generating function fold.  subset_euler_product multiplies
out a restricted Euler product over parts listed as Python ints,
exp_partition_sums_fraction sums the exponential's partition side one
reduced Fraction product per partition, poly_mul multiplies integer
polynomials by schoolbook convolution, and em_plan_walk plans the
Euler-Maclaurin kernel by walking every correction depth up from 1.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from pzeta.numeric import _CORRECTION_COST, _LOG_4, _LOG_4PI2, _LOG_EM_TARGET, _MAX_CORRECTIONS
from pzeta.partitions import enumerate_partitions_of_size


def partition_from_multiplicities(entries: Mapping[int, int]) -> tuple[int, ...]:
    """Rebuild a partition from a part -> multiplicity map.

    Inverse of collections.Counter: round-tripping either way is exact.
    """
    parts: list[int] = []
    for part in sorted(entries, reverse=True):
        mult = entries[part]
        if part < 1:
            raise ValueError(f"part values must be >= 1, got {part}")
        if mult < 1:
            raise ValueError(f"multiplicities must be >= 1, got {mult} for part {part}")
        parts.extend([part] * mult)
    return tuple(parts)


def enumerate_partitions_fixed_length(k: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition with exactly ``k`` parts, all parts <= ``max_part``,
    each exactly once (ordered by ascending largest part).

    The count is C(max_part - 1 + k, k), so callers should fold the stream
    rather than materialize it for large arguments.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_part < 1:
        raise ValueError("max_part must be >= 1")

    def descend(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(1, cap + 1):
            for rest in descend(remaining - 1, first):
                yield (first,) + rest

    yield from descend(k, max_part)


def subset_euler_product(parts: Sequence[int], s: complex, max_factor: int) -> complex:
    """prod over the listed parts n of 1/(1 - n^-s), one Python complex
    factor at a time, times the first-order tail factor that
    numeric.euler_product_eval applies: the listed parts' density over the
    top W = max_factor - max_factor // 2 values times
    max_factor^(1-s)/(s-1).  The parts must be distinct, in 2..max_factor.
    """
    s = complex(s)
    product = 1 + 0j
    for n in parts:
        product /= 1 - n ** (-s)
    window = max_factor - max_factor // 2
    density = sum(1 for n in parts if n > max_factor // 2) / window
    return product * cmath.exp(density * max_factor ** (1 - s) / (s - 1))


def exp_partition_sums_fraction(a: Sequence, order: int) -> list[Fraction]:
    """[x^0..x^order] of exp(sum_j a_j x^j), a = a_1..a_order, each x^k
    coefficient summed literally over the partitions lambda of k as
    prod_j a_j^{m_j} / m_j! in reduced Fractions."""
    a = [Fraction(c) for c in a]
    sums = []
    for k in range(order + 1):
        acc = Fraction(0)
        for lam in enumerate_partitions_of_size(k):
            term = Fraction(1)
            for j, mj in Counter(lam).items():
                term *= a[j - 1] ** mj / math.factorial(mj)
            acc += term
        sums.append(acc)
    return sums


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of a(q) b(q), len(a) + len(b) - 1 of them, by summing
    every product a_i b_j into position i + j."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def one_minus_q_power(j: int) -> list[int]:
    """Coefficients of the polynomial 1 - q^j, j >= 1."""
    return [1] + [0] * (j - 1) + [-1]


def em_plan_walk(s: complex, a: int = 1) -> tuple[int, int, float]:
    """numeric._em_plan as it was before it learned to jump: (N, M, bound)
    by walking the depths up from M = 1, one log |s + j| pair per depth,
    until the cost N + 4M (N floored at a - 1) stops falling."""
    sigma, t = s.real, s.imag
    best, skipped = math.inf, float(a - 1)
    log_poch = 0.0  # log |(s)_2M|
    for m in range(1, _MAX_CORRECTIONS + 1):
        e = sigma + (2 * m - 1)
        # log |s + 2M - 2| + log |s + 2M - 1|, apart so that neither overflows
        log_poch += math.log(math.hypot(e - 1, t)) + math.log(math.hypot(e, t))
        log_c = _LOG_4 + log_poch - m * _LOG_4PI2 - math.log(e)
        n = math.exp(min((log_c - _LOG_EM_TARGET) / e, 700.0))
        cost = (n if n > skipped else skipped) + _CORRECTION_COST * m
        if cost >= best:
            break
        best, pick = cost, (m, log_c, e, n)
    m, log_c, e, n = pick
    n = max(2, a, math.ceil(n))
    log_bound = log_c - e * math.log(n)
    return n, m, math.exp(log_bound) if log_bound < 709.0 else math.inf
