"""Integer partitions and their statistics.

A partition is a weakly decreasing sequence of positive integers; the empty
sequence is the empty partition.  Everything else in the package is driven by
four statistics: size (sum of parts), length (number of parts), norm (product
of parts, 1 for the empty partition) and the multiplicity map part -> count.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence


class Partition:
    """Immutable weakly decreasing tuple of positive integers."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        pt = tuple(int(p) for p in parts)
        prev = None
        for p in pt:
            if p < 1:
                raise ValueError(f"partition parts must be >= 1, got {p}")
            if prev is not None and p > prev:
                raise ValueError(f"partition parts must be weakly decreasing, got {pt}")
            prev = p
        self._parts = pt

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        """Sum of the parts; 0 for the empty partition."""
        return sum(self._parts)

    @property
    def length(self) -> int:
        """Number of parts; 0 for the empty partition."""
        return len(self._parts)

    def norm(self) -> int:
        """Product of the parts; 1 for the empty partition.

        Exact arbitrary-precision integer.
        """
        return math.prod(self._parts)

    def multiplicities(self) -> dict[int, int]:
        """Sparse map part value -> multiplicity.  Absent parts mean 0; every
        stored multiplicity is >= 1."""
        mult: dict[int, int] = {}
        for p in self._parts:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        # Canonical textual form used in serialized output, e.g. "[3,2,2]".
        return "[" + ",".join(str(p) for p in self._parts) + "]"


def enumerate_partitions_of_size(k: int) -> Iterator[Partition]:
    """Yield every partition of size ``k`` exactly once, in reverse
    lexicographic order: (k) first, (1,...,1) last.

    For k = 0 yields exactly the empty partition.  Streaming: partitions are
    produced one at a time, nothing is materialized.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        yield Partition()
        return
    parts = [k]
    while True:
        yield Partition(parts)
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
    Sums start from their first term: types without a zero (PiPower) work."""
    h = [one]
    for n in range(1, len(power_sums) + 1):
        terms = (power_sums[j - 1] * h[n - j] for j in range(2, n + 1))
        h.append(sum(terms, power_sums[0] * h[n - 1]) / n)
    return h

