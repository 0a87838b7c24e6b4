"""Partition enumeration, pinned against independent oracles:
the pentagonal-number recurrence for partition counts, brute-force recursive
enumeration, and nested-loop counting for bounded fixed-length partitions."""

import math
import random
from collections import Counter
from functools import lru_cache

import pytest

from oracles import enumerate_partitions_fixed_length, partition_from_multiplicities
from pzeta.partitions import enumerate_partitions_of_size


# --- oracles -----------------------------------------------------------------

@lru_cache(maxsize=None)
def pentagonal_count(n: int) -> int:
    # p(n) via Euler's pentagonal number recurrence.
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if j % 2 == 0 else 1
        total += sign * (pentagonal_count(n - g1) + pentagonal_count(n - g2))
        j += 1
    return total


def brute_force_partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    # Straightforward recursion, independent of the package's iterator.
    cap = n if cap is None else min(cap, n)
    if n == 0:
        return [()]
    out = []
    for first in range(cap, 0, -1):
        for rest in brute_force_partitions(n - first, first):
            out.append((first,) + rest)
    return out


# --- statistics of enumerated partitions ---------------------------------------

def test_statistics_of_small_partition():
    lam = (3, 2, 2)
    assert lam in enumerate_partitions_of_size(7)
    assert sum(lam) == 7
    assert len(lam) == 3
    assert math.prod(lam) == 12
    assert Counter(lam) == {3: 1, 2: 2}


def test_empty_partition():
    # The k = 0 convention: one empty partition of norm 1.
    (lam,) = enumerate_partitions_of_size(0)
    assert sum(lam) == 0
    assert len(lam) == 0
    assert math.prod(lam) == 1
    assert Counter(lam) == {}


def test_norm_examples():
    assert [math.prod(lam) for lam in enumerate_partitions_of_size(4)] == [4, 3, 4, 2, 1]


def test_multiplicities_examples():
    got = [Counter(lam) for lam in enumerate_partitions_of_size(4)]
    assert got == [{4: 1}, {3: 1, 1: 1}, {2: 2}, {2: 1, 1: 2}, {1: 4}]


def test_multiplicity_round_trip_exhaustive_small():
    for k in range(9):
        for lam in enumerate_partitions_of_size(k):
            assert partition_from_multiplicities(Counter(lam)) == lam


def test_multiplicity_round_trip_randomized():
    rng = random.Random(1131)
    for _ in range(200):
        lam = tuple(sorted((rng.randint(1, 40) for _ in range(rng.randint(0, 12))), reverse=True))
        assert partition_from_multiplicities(Counter(lam)) == lam


def test_from_multiplicities_rejects_bad_entries():
    with pytest.raises(ValueError):
        partition_from_multiplicities({2: 0})
    with pytest.raises(ValueError):
        partition_from_multiplicities({0: 3})
    with pytest.raises(ValueError):
        partition_from_multiplicities({2: -1})


# --- enumerate_partitions_of_size --------------------------------------------

def test_size_zero_enumeration():
    assert list(enumerate_partitions_of_size(0)) == [()]


def test_size_four_reverse_lex_order():
    got = list(enumerate_partitions_of_size(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_size_seven_count_is_15():
    got = list(enumerate_partitions_of_size(7))
    assert len(got) == 15
    assert pentagonal_count(7) == 15
    assert len(brute_force_partitions(7)) == 15


def test_counts_match_pentagonal_oracle_up_to_30():
    for k in range(31):
        assert sum(1 for _ in enumerate_partitions_of_size(k)) == pentagonal_count(k)
    assert pentagonal_count(30) == 5604


def test_matches_brute_force_sets():
    for k in range(13):
        ours = set(enumerate_partitions_of_size(k))
        assert ours == set(brute_force_partitions(k))


def test_no_duplicates_and_valid_statistics():
    for k in range(13):
        seen = set()
        for lam in enumerate_partitions_of_size(k):
            assert type(lam) is tuple
            assert lam not in seen
            seen.add(lam)
            assert sum(lam) == k
            assert all(p >= 1 for p in lam)
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
            mult = Counter(lam)
            assert sum(j * m for j, m in mult.items()) == k
            assert sum(mult.values()) == len(lam)
            prod = 1
            for j, m in mult.items():
                prod *= j**m
            assert prod == math.prod(lam)


def test_reverse_lex_is_strictly_decreasing():
    for k in (5, 9, 12):
        tuples = list(enumerate_partitions_of_size(k))
        assert tuples == sorted(tuples, reverse=True)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        list(enumerate_partitions_of_size(-1))


def test_non_integer_size_rejected():
    # Refused at the first next(): a fractional size would reach the
    # repacking loop with a negative cap, which never ends.
    for k in (2.5, 3.0, "3"):
        with pytest.raises(ValueError):
            next(enumerate_partitions_of_size(k))


# --- enumerate_partitions_fixed_length ---------------------------------------

def test_fixed_length_k2_m2():
    got = list(enumerate_partitions_fixed_length(2, 2))
    assert got == [(1, 1), (2, 1), (2, 2)]


def test_fixed_length_k3_m2():
    got = list(enumerate_partitions_fixed_length(3, 2))
    assert got == [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]


def test_fixed_length_k3_m5_count_35():
    # Independent nested-loop count of weakly decreasing triples in [1,5].
    count = 0
    for a in range(1, 6):
        for b in range(1, a + 1):
            for c in range(1, b + 1):
                count += 1
    assert count == 35
    got = list(enumerate_partitions_fixed_length(3, 5))
    assert len(got) == 35
    assert len(set(got)) == 35


def test_fixed_length_counts_match_binomial():
    from math import comb

    for k in range(1, 6):
        for max_part in range(1, 9):
            n = sum(1 for _ in enumerate_partitions_fixed_length(k, max_part))
            assert n == comb(max_part - 1 + k, k)


def test_fixed_length_shape_constraints():
    for lam in enumerate_partitions_fixed_length(4, 6):
        assert len(lam) == 4
        assert max(lam) <= 6


def test_fixed_length_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_partitions_fixed_length(0, 5))
    with pytest.raises(ValueError):
        list(enumerate_partitions_fixed_length(2, 0))
