"""Integer partitions as plain tuples, and the Newton recurrence for sums
over them.

A partition is a weakly decreasing tuple of positive integers; () is the
empty partition.  Its statistics are builtins: size sum(lam), length
len(lam), norm math.prod(lam) and multiplicities collections.Counter(lam).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from operator import mul

from .errors import integer_size


def enumerate_partitions_of_size(k: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of size ``k`` exactly once, in reverse
    lexicographic order: (k) first, (1,...,1) last.

    For k = 0 yields exactly the empty partition ().  Streaming: partitions
    are produced one at a time, nothing is materialized.
    """
    k = integer_size("k", k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        yield ()
        return
    parts = [k]
    while True:
        yield tuple(parts)
        # Everything to the right of the rightmost part > 1 is a run of 1s.
        i = len(parts) - 1
        ones = 0
        while i >= 0 and parts[i] == 1:
            ones += 1
            i -= 1
        if i < 0:
            return
        # Decrement that part, then repack the freed units greedily under
        # the new cap; this lands on the reverse-lex successor.
        cap = parts[i] - 1
        rem = ones + 1
        parts = parts[:i] + [cap]
        while rem > 0:
            take = min(cap, rem)
            parts.append(take)
            rem -= take


def complete_homogeneous(power_sums: Sequence, one) -> list:
    """[h_0 = one, h_1, ..., h_k], h_n = sum over lambda of n of p_lambda /
    (N(lambda) m_1!...m_n!), by Newton's n h_n = sum_j p_j h_{n-j} in O(k^2).

    The history h_{n-2}, ..., h_0 is kept newest first, so each step's
    inner product is one sum over map(mul, ...) of p_2, p_3, ... against it,
    started from p_1 h_{n-1}: the terms and their order are those of the
    plain loop over j, so float, complex and Fraction results are the same
    bit for bit, signed zeros included."""
    h, past, rest = [one], [], power_sums[1:]
    for n in range(1, len(power_sums) + 1):
        h.append(sum(map(mul, rest, past), power_sums[0] * h[-1]) / n)
        past.insert(0, h[-2])
    return h
