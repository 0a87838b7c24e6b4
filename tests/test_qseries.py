"""The q-series identity verifiers and the exponential's recurrence, pinned
against brute-force partition counting and permutation counting."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from pzeta import qseries
from pzeta.partitions import complete_homogeneous
from pzeta.qseries import (
    faa_di_bruno_check,
    macmahon_exact_identity,
    macmahon_lhs,
    macmahon_rhs,
)


# --- oracle ------------------------------------------------------------------

@lru_cache(maxsize=None)
def count_exact_parts(n: int, k: int, cap: int | None = None) -> int:
    # Brute-force count of partitions of n with exactly k parts, each <= cap.
    cap = n if cap is None else min(cap, n)
    if k == 0:
        return 1 if n == 0 else 0
    if n < k:
        return 0
    total = 0
    for first in range(1, cap + 1):
        total += count_exact_parts(n - first, k - 1, first)
    return total


@lru_cache(maxsize=None)
def partitions_into_k_parts(n: int, k: int) -> int:
    # p(n, k) = p(n-1, k-1) + p(n-k, k): remove a part equal to 1, or
    # subtract 1 from each of the k parts.
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0:
        return 0
    return partitions_into_k_parts(n - 1, k - 1) + partitions_into_k_parts(n - k, k)


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    # Sorted cycle lengths of a permutation of range(len(perm)).
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# --- integer (1 - q^j) steps -----------------------------------------------------

def test_divide_one_minus_q_power_gives_geometric_series():
    # 1/(1-q^j) is the geometric series in q^j.
    for j in (1, 2, 5):
        c = [1] + [0] * 12
        qseries._divide_one_minus_q_power(c, j)
        assert c == [1 if n % j == 0 else 0 for n in range(13)]
    c = [1] + [0] * 6
    qseries._divide_one_minus_q_power(c, 2)
    assert c == [1, 0, 1, 0, 1, 0, 1]


def test_times_one_minus_q_power_small_case():
    assert qseries._times_one_minus_q_power([1], 1) == [1, -1]
    assert qseries._times_one_minus_q_power([1, 2], 3) == [1, 2, 0, -1, -2]


def test_divide_undoes_times_one_minus_q_power_randomized():
    rng = random.Random(404)
    for _ in range(30):
        c = [rng.randint(-9, 9) for _ in range(11)]
        j = rng.randint(1, 6)
        prod = qseries._times_one_minus_q_power(c, j)
        assert len(prod) == len(c) + j
        qseries._divide_one_minus_q_power(prod, j)
        assert prod == c + [0] * j


# --- the exponential's recurrence ---------------------------------------------------
# exp(sum_i a_i x^i) is complete_homogeneous with power sums i a_i: the
# recurrence faa_di_bruno_check expands.

def exp_coeffs(a: list) -> list:
    """x^0..x^len(a) coefficients of exp(a_1 x + a_2 x^2 + ...)."""
    return complete_homogeneous([i * ai for i, ai in enumerate(a, 1)], Fraction(1))


def test_exp_of_x():
    from math import factorial

    got = exp_coeffs([1] + [0] * 7)
    assert got == [Fraction(1, factorial(n)) for n in range(9)]


def test_exp_of_minus_x_alternates():
    from math import factorial

    got = exp_coeffs([-1] + [0] * 6)
    assert got == [Fraction((-1) ** n, factorial(n)) for n in range(8)]


def test_exp_of_log_geometric_is_geometric():
    # exp(sum_j x^j / j) = 1/(1-x).
    order = 12
    assert exp_coeffs([Fraction(1, j) for j in range(1, order + 1)]) == [1] * (order + 1)


# --- faa_di_bruno_check -----------------------------------------------------------

def test_faa_di_bruno_fixed_cases():
    order = 12
    assert faa_di_bruno_check([Fraction(1, j) for j in range(1, order + 1)], order)
    assert faa_di_bruno_check([1], order)  # exp(x)


def test_faa_di_bruno_randomized():
    rng = random.Random(71)
    for _ in range(20):
        a = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(10)]
        assert faa_di_bruno_check(a, 10)


def test_faa_di_bruno_routes_are_independent():
    # The checker pits the exp recurrence against literal partition sums.
    # Feeding one route perturbed inputs while the other keeps the original
    # vector must break the coefficientwise match, confirming the comparison
    # has teeth and the two routes do not share state.
    import math as _m

    from pzeta.partitions import enumerate_partitions_of_size

    order = 6
    original = [Fraction(1, j) for j in range(1, 7)]
    perturbed = list(original)
    perturbed[3] += Fraction(1, 99)
    lhs = exp_coeffs(perturbed)
    mismatch = False
    for k in range(order + 1):
        acc = Fraction(0)
        for lam in enumerate_partitions_of_size(k):
            term = Fraction(1)
            for j, mj in Counter(lam).items():
                term *= original[j - 1] ** mj / _m.factorial(mj)
            acc += term
        if lhs[k] != acc:
            mismatch = True
    assert mismatch
    assert faa_di_bruno_check(original, order)


def test_faa_di_bruno_rejects_too_many_coeffs():
    with pytest.raises(ValueError):
        faa_di_bruno_check([1, 1, 1], 2)


# --- macmahon ---------------------------------------------------------------------

def test_lhs_k1_counts_every_positive_size():
    got = macmahon_lhs(1, 8)
    assert got.coeffs == [0, 1, 1, 1, 1, 1, 1, 1, 1]


def test_lhs_k2_counts():
    got = macmahon_lhs(2, 6)
    assert got.coeffs == [0, 0, 1, 1, 2, 2, 3]


def test_lhs_k3_counts():
    got = macmahon_lhs(3, 6)
    assert got.coeffs == [0, 0, 0, 1, 1, 2, 3]


def test_lhs_matches_brute_force_counts():
    for k in (1, 2, 3, 4):
        series = macmahon_lhs(k, 30)
        for n in range(31):
            assert series.coeffs[n] == count_exact_parts(n, k), (k, n)


def test_lhs_matches_independent_recurrence():
    for k in range(1, 13):
        series = macmahon_lhs(k, 60)
        assert series.coeffs == [partitions_into_k_parts(n, k) for n in range(61)], k


def test_rhs_equals_lhs_coefficientwise():
    for k in range(1, 13):
        order = 2 * k + 10
        assert macmahon_lhs(k, order) == macmahon_rhs(k, order), k


def test_macmahon_order_must_cover_k():
    with pytest.raises(ValueError):
        macmahon_lhs(4, 3)
    with pytest.raises(ValueError):
        macmahon_rhs(4, 3)


def test_exact_identity_small_k():
    for k in range(1, 17):
        assert macmahon_exact_identity(k), k


def test_exact_identity_k2_by_hand():
    # 1/((1-q)(1-q^2)) == 1/(2(1-q)^2) + 1/(2(1-q^2)).  Times 2 and over the
    # common denominator (1-q)^2 (1-q^2), the right side's numerator is
    # (1-q^2) + (1-q)^2; cross-multiplied against 2 / ((1-q)(1-q^2)):
    times = qseries._times_one_minus_q_power
    num = [a + b for a, b in zip(times([1], 2), times(times([1], 1), 1))]
    assert num == [2, -2, 0]
    left = times(times(num, 1), 2)
    right = times(times(times([2], 1), 1), 2)
    assert left == right + [0]
    assert sorted(qseries._cycle_types(2), key=str) == [(1, {1: 2}), (1, {2: 1})]
    assert macmahon_exact_identity(2)


def test_cycle_type_counts_match_permutations():
    # k!/z_lambda against a brute-force count over all permutations of k.
    for k in range(1, 7):
        counts: dict[tuple[int, ...], int] = {}
        for perm in itertools.permutations(range(k)):
            key = cycle_type(perm)
            counts[key] = counts.get(key, 0) + 1
        got = {}
        for count, mult in qseries._cycle_types(k):
            key = tuple(sorted((j for j, mj in mult.items() for _ in range(mj)), reverse=True))
            got[key] = count
        assert got == counts, k
        assert sum(got.values()) == math.factorial(k)


def test_wrong_class_size_breaks_both_modes(monkeypatch):
    # One partition's weight k!/z_lambda off by one must fail the exact
    # identity and the coefficientwise series check alike.
    true_cycle_types = qseries._cycle_types

    def one_weight_wrong(k):
        for i, (count, mult) in enumerate(true_cycle_types(k)):
            yield (count + 1 if i == 1 else count), mult

    monkeypatch.setattr(qseries, "_cycle_types", one_weight_wrong)
    for k in (2, 5, 9):
        order = 2 * k + 10
        assert not macmahon_exact_identity(k), k
        assert macmahon_lhs(k, order) != macmahon_rhs(k, order), k


def test_length_conjugation_bijection():
    # Partitions of n with parts <= k are equinumerous with partitions of
    # n + k with exactly k parts: the unshifted product against the
    # brute-force exact-length count.
    for k in (1, 2, 3, 5):
        prod = [1] + [0] * 20
        for j in range(1, k + 1):
            qseries._divide_one_minus_q_power(prod, j)
        for n in range(14):
            assert prod[n] == count_exact_parts(n + k, k), (k, n)
