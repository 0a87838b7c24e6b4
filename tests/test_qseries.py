"""The q-series identity verifiers and the exponential's recurrence, pinned
against brute-force partition counting and permutation counting."""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from oracles import exp_partition_sums_fraction, one_minus_q_power, poly_mul
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


def test_divide_undoes_times_one_minus_q_power_randomized():
    rng = random.Random(404)
    for _ in range(30):
        c = [rng.randint(-9, 9) for _ in range(11)]
        j = rng.randint(1, 6)
        prod = poly_mul(c, one_minus_q_power(j))
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
    order = 6
    original = [Fraction(1, j) for j in range(1, 7)]
    perturbed = list(original)
    perturbed[3] += Fraction(1, 99)
    assert exp_coeffs(perturbed) != exp_partition_sums_fraction(original, order)
    assert faa_di_bruno_check(original, order)


def _random_coeff(rng: random.Random):
    # Zeros, negative values, ints, strings and Fractions with denominators
    # past 2^64, in one mix.
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return f"{rng.randint(-99, 99)}/{rng.randint(1, 99)}"
    if kind == 3:
        return Fraction(rng.randint(-(2**70), 2**70), rng.randint(2**64, 2**72))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def unscaled(ints: list[int], a: list[Fraction]) -> list[Fraction]:
    # The integer sides are scaled by order! den^order, den the lcm of the
    # coefficients' denominators, order = len(a).
    order = len(a)
    scale = math.factorial(order) * math.lcm(*(c.denominator for c in a)) ** order
    assert all(type(t) is int for t in ints)
    return [Fraction(t, scale) for t in ints]


def test_integer_partition_pass_matches_fraction_partition_sums():
    rng = random.Random(1301)
    for order in [0, 1] + list(range(2, 15)):
        for _ in range(8 if order < 10 else 3):
            raw = [_random_coeff(rng) for _ in range(order)]
            a = [Fraction(c) for c in raw]
            got = unscaled(qseries._exp_partition_sums(a, order), a)
            assert got == exp_partition_sums_fraction(raw, order), (order, raw)
            assert faa_di_bruno_check(raw, order), (order, raw)
    # All zeros leave only the constant term; a single nonzero a_j = c
    # gives c^m / m! at x^(j m).
    zeros = [Fraction(0)] * 5
    assert unscaled(qseries._exp_partition_sums(zeros, 5), zeros) == [1, 0, 0, 0, 0, 0]
    c = Fraction(-3, 2**65)
    a = [Fraction(0), c] + [Fraction(0)] * 4
    got = unscaled(qseries._exp_partition_sums(a, 6), a)
    assert got == [1, 0, c, 0, c**2 / 2, 0, c**3 / 6]


def test_integer_recurrence_matches_fraction_recurrence():
    # The check's integer recurrence against complete_homogeneous on
    # Fractions, the same recurrence with every product and sum reduced.
    rng = random.Random(2707)
    for order in range(17):
        for _ in range(8 if order < 10 else 3):
            a = [Fraction(_random_coeff(rng)) for _ in range(order)]
            got = unscaled(qseries._exp_recurrence(a, order), a)
            assert got == exp_coeffs(a), (order, a)
    # The padding zeros of faa_di_bruno_check, and exp(x) against 1/n!.
    zeros = [Fraction(0)] * 4
    assert unscaled(qseries._exp_recurrence(zeros, 4), zeros) == [1, 0, 0, 0, 0]
    a = [Fraction(1)] + [Fraction(0)] * 7
    assert unscaled(qseries._exp_recurrence(a, 8), a) == [Fraction(1, math.factorial(n)) for n in range(9)]


def test_faa_di_bruno_fails_when_any_one_coefficient_is_off(monkeypatch):
    # Perturbing the recurrence's scaled x^k coefficient by one unit alone,
    # for each k <= order, must fail the check: the partition side never
    # reads the recurrence.
    order = 9
    coeffs = [Fraction((-1) ** j * j, j + 2) for j in range(1, order + 1)]
    assert faa_di_bruno_check(coeffs, order)
    true_recurrence = qseries._exp_recurrence
    for k in range(order + 1):
        def off_at_k(a, order, k=k):
            b = true_recurrence(a, order)
            b[k] += 1
            return b

        monkeypatch.setattr(qseries, "_exp_recurrence", off_at_k)
        assert not faa_di_bruno_check(coeffs, order), k


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


def test_truncated_series_is_a_read_only_record():
    lhs = macmahon_lhs(2, 6)
    assert lhs == qseries.TruncatedSeries([0, 0, 1, 1, 2, 2, 3])
    assert lhs != qseries.TruncatedSeries([0, 0, 1, 1, 2, 2, 4])
    assert repr(lhs) == "TruncatedSeries(coeffs=[0, 0, 1, 1, 2, 2, 3])"
    with pytest.raises(TypeError):
        hash(lhs)  # a list of coefficients does not hash
    with pytest.raises(AttributeError):
        lhs.coeffs = []


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
    one_minus_q, one_minus_q2 = one_minus_q_power(1), one_minus_q_power(2)
    num = [a + b for a, b in zip(one_minus_q2, poly_mul(one_minus_q, one_minus_q))]
    assert num == [2, -2, 0]
    left = poly_mul(poly_mul(num, one_minus_q), one_minus_q2)
    right = poly_mul(poly_mul([2], poly_mul(one_minus_q, one_minus_q)), one_minus_q2)
    assert left == right + [0]
    # Both cycle types of S_2 have one permutation: 1/(1-q^2) and 1/(1-q)^2.
    assert sorted(qseries._cycle_type_terms(2, 5)) == [(1, [1, 0, 1, 0, 1]), (1, [1, 2, 3, 4, 5])]
    # The series comparison decides the identity at d = 1*2 + 2*1 = 4.
    assert macmahon_lhs(2, 4) == macmahon_rhs(2, 4)
    assert macmahon_exact_identity(2)


def series_of(lam: tuple[int, ...], length: int) -> list[int]:
    # 1 / prod_(j in lam) (1 - q^j) modulo q^length, one geometric series at
    # a time.  Modulo q^(k+1) it determines a partition of k: the q^n
    # coefficient, once the parts below n are divided out, is m_n.
    c = [1] + [0] * (length - 1)
    for j in lam:
        for n in range(j, length):
            c[n] += c[n - j]
    return c


def test_cycle_type_counts_match_permutations():
    # The pass's k!/z_lambda against a brute-force count over all
    # permutations of k, each term matched to its cycle type by its series.
    for k in range(1, 7):
        counts: dict[tuple[int, ...], int] = {}
        for perm in itertools.permutations(range(k)):
            key = cycle_type(perm)
            counts[key] = counts.get(key, 0) + 1
        by_series = {tuple(series_of(lam, k + 1)): lam for lam in counts}
        assert len(by_series) == len(counts)
        got = {}
        for count, series in qseries._cycle_type_terms(k, k + 1):
            lam = by_series[tuple(series)]
            assert lam not in got, (k, lam)
            got[lam] = count
        assert got == counts, k
        assert sum(got.values()) == math.factorial(k)


def test_wrong_class_size_breaks_both_modes(monkeypatch):
    # Any one partition's weight k!/z_lambda off by one must fail the exact
    # identity and the coefficientwise series check alike.
    true_terms = qseries._cycle_type_terms
    for k in (2, 5, 9):
        order = 2 * k + 10
        for wrong in range(sum(1 for _ in true_terms(k, 1))):
            def one_weight_wrong(k, length, wrong=wrong):
                for i, (count, series) in enumerate(true_terms(k, length)):
                    yield (count + 1 if i == wrong else count), series

            monkeypatch.setattr(qseries, "_cycle_type_terms", one_weight_wrong)
            assert not macmahon_exact_identity(k), (k, wrong)
            assert macmahon_lhs(k, order) != macmahon_rhs(k, order), (k, wrong)


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
