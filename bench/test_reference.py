"""The benchmark's references checked against textbook values, never against
pzeta's output.  Run with ``python3 -m pytest bench/test_reference.py``."""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest

import reference as ref

mpmath.mp.dps = 40  # so the textbook side of each comparison is exact to 1e-25
PI = mpmath.pi


def close(a, b, tol=1e-25):
    return abs(a - b) <= tol * max(1, abs(b))


def test_f1_is_zeta_at_even_integers():
    assert close(ref.fk(2, 1), PI**2 / 6)
    assert close(ref.fk(4, 1), PI**4 / 90)
    assert close(ref.fk(6, 1), PI**6 / 945)


def test_zeta_at_classical_points():
    assert close(ref.fk(0, 1), mpmath.mpf(-1) / 2)
    assert close(ref.fk(-1, 1), mpmath.mpf(-1) / 12)
    assert close(ref.fk(3, 1), mpmath.mpf("1.202056903159594285399738161511449990764986292"))
    # The first nontrivial zero, from Odlyzko's tables.
    assert abs(ref.fk(mpmath.mpc(0.5, "14.134725141734693790457251983562"), 1)) < 1e-25


def test_f2_at_two_is_seven_pi4_over_360():
    assert close(ref.fk(2, 2), 7 * PI**4 / 360)
    assert ref.fk_exact(1, 2) == (Fraction(7, 360), 4)


def test_exact_f1_matches_bernoulli_closed_forms():
    assert ref.fk_exact(1, 1) == (Fraction(1, 6), 2)
    assert ref.fk_exact(2, 1) == (Fraction(1, 90), 4)
    assert ref.fk_exact(3, 1) == (Fraction(1, 945), 6)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_exact_value_at_two_is_a_multiple_of_zeta_2k(k):
    # F_k(2) = (2^(2k-1) - 1) / 2^(2k-2) * zeta(2k) (the paper's explicit formula at s = 2).
    coeff, exponent = ref.fk_exact(1, k)
    assert exponent == 2 * k
    assert coeff == Fraction(2 ** (2 * k - 1) - 1, 2 ** (2 * k - 2)) * ref.zeta_even_coeff(2 * k)


def test_exact_and_numeric_routes_agree():
    for m, k in ((1, 3), (2, 4), (3, 2)):
        coeff, exponent = ref.fk_exact(m, k)
        exact = mpmath.mpf(coeff.numerator) / coeff.denominator * PI**exponent
        assert close(ref.fk(2 * m, k), exact)


def test_partition_counts():
    # p(n, k) from the tables of partitions into exactly k parts.
    assert ref.partitions_exactly_k(3, 10)[7] == 4
    assert ref.partitions_exactly_k(2, 9)[8] == 4
    assert ref.partitions_exactly_k(4, 12)[10] == 9
    assert ref.partitions_exactly_k(1, 5) == [0, 1, 1, 1, 1, 1]
    # Summed over k they give p(n): p(10) = 42, p(20) = 627.
    assert sum(ref.partitions_exactly_k(k, 10)[10] for k in range(1, 11)) == 42
    assert sum(ref.partitions_exactly_k(k, 20)[20] for k in range(1, 21)) == 627


def test_truncated_sums_match_brute_force():
    s, max_part = mpmath.mpc(2.5, 1.0), 7
    sums = ref.truncated_sums(s, max_part, 3)
    for k in range(4):
        brute = mpmath.fsum(mpmath.power(math.prod(parts), -s)
                            for parts in itertools.combinations_with_replacement(range(1, max_part + 1), k))
        assert close(sums[k], brute)


def test_euler_closed_forms():
    wallis = mpmath.nprod(lambda n: 1 / (1 - 1 / (2 * n) ** 2), [1, mpmath.inf])
    distinct = mpmath.nprod(lambda n: 1 + 1 / n**2, [1, mpmath.inf])
    cubes = mpmath.nprod(lambda n: 1 / (1 - 1 / n**3), [2, mpmath.inf])
    assert close(ref.euler_closed_form("even", 2), wallis, 1e-20)
    assert close(ref.euler_closed_form("distinct", 2), distinct, 1e-20)
    assert close(ref.euler_closed_form("not-one", 3), cubes, 1e-20)
    assert ref.euler_closed_form("not-one", 2) == 2


def test_pole_order():
    assert [ref.pole_order(6, j) for j in range(1, 7)] == [6, 3, 2, 1, 1, 1]
