"""Exact module: Bernoulli numbers against independent Akiyama-Tanigawa and
defining-recurrence oracles, even zeta values, the fixed-length family at even arguments, and the
closed-form s=2 coefficients."""

import math
import random
from fractions import Fraction

import pytest

from pzeta import numeric
from pzeta.exact import (
    PiPower,
    bernoulli_numbers,
    format_rational,
    partition_zeta_exact,
    zeta2_family_coefficient,
    zeta_even_exact,
)


# --- oracle ------------------------------------------------------------------

def akiyama_tanigawa(n: int) -> Fraction:
    # Independent Bernoulli oracle.  The transform yields the B_1 = +1/2
    # convention; (-1)^n converts to the B_1 = -1/2 convention used by the
    # package (odd indices > 1 vanish either way).
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return (-1) ** n * row[0]


def bernoulli_by_defining_recurrence(n_max: int) -> list[Fraction]:
    # sum_{j=0}^{n} C(n+1, j) B_j = 0 over Fractions: O(n^2) rational terms.
    bs = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(math.comb(n + 1, j) * bs[j] for j in range(n))
        bs.append(-acc / (n + 1))
    return bs


# --- bernoulli_numbers ---------------------------------------------------------

def test_bernoulli_first_values():
    assert bernoulli_numbers(4) == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
    ]


def test_bernoulli_b3_zero_and_b12():
    bs = bernoulli_numbers(12)
    assert bs[3] == 0
    assert bs[12] == Fraction(-691, 2730)


def test_bernoulli_matches_akiyama_tanigawa_oracle():
    bs = bernoulli_numbers(40)
    for n in range(41):
        assert bs[n] == akiyama_tanigawa(n), n


def test_bernoulli_matches_defining_recurrence_oracle():
    bs = bernoulli_numbers(300)
    assert bs == bernoulli_by_defining_recurrence(300)
    assert bs[1] == Fraction(-1, 2)
    assert all(bs[n] == 0 for n in range(3, 301, 2))


def test_bernoulli_odd_vanish():
    bs = bernoulli_numbers(39)
    for n in range(3, 40, 2):
        assert bs[n] == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli_numbers(-1)


# --- zeta_even_exact -----------------------------------------------------------

def test_zeta_even_small_values():
    assert zeta_even_exact(2) == PiPower(Fraction(1, 6), 2)
    assert zeta_even_exact(4) == PiPower(Fraction(1, 90), 4)
    assert zeta_even_exact(6) == PiPower(Fraction(1, 945), 6)
    assert zeta_even_exact(8) == PiPower(Fraction(1, 9450), 8)


def test_zeta_even_rejects_bad_arguments():
    for bad in (3, 0, -2, 1):
        with pytest.raises(ValueError):
            zeta_even_exact(bad)


def test_zeta_even_matches_numeric_zeta():
    for m in range(1, 11):
        exact_val = zeta_even_exact(2 * m).to_float()
        num_val = numeric.riemann_zeta(2 * m).value.real
        assert abs(num_val - exact_val) / exact_val < 1e-12


# --- PiPower -------------------------------------------------------------------

def test_pi_power_multiplication_adds_exponents():
    # A rational is a pi^0 factor: scaling adds 0 to the exponent.
    a = PiPower(Fraction(1, 6), 2)
    assert a * Fraction(3) == PiPower(Fraction(1, 2), 2)
    assert 2 * a == PiPower(Fraction(1, 3), 2)
    assert Fraction(3, 5) * a == PiPower(Fraction(1, 10), 2)


def test_pi_power_json():
    assert PiPower(Fraction(7, 360), 4).to_json() == {"coeff": "7/360", "pi_power": 4}


# --- rational serialization ----------------------------------------------------

def test_format_and_parse_rational_round_trip():
    for q in (Fraction(7, 360), Fraction(-691, 2730), Fraction(5), Fraction(0)):
        assert Fraction(format_rational(q)) == q
    assert format_rational(Fraction(7, 360)) == "7/360"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_format_rational_past_the_int_digit_limit():
    # str(int) refuses past 4,300 digits by default; the numerator here has
    # 6,001 and the denominator 5,101.  The runs of zeros give low halves
    # that start with zeros, which a split must keep.
    rng = random.Random(4300)
    digits = [rng.randint(1, 9)]
    for _ in range(6):
        digits += [rng.randint(0, 9) for _ in range(rng.randint(1, 900))] + [0] * rng.randint(1, 300)
    digits += [rng.randint(0, 9) for _ in range(6000 - len(digits))] + [7]
    numerator = 0
    for d in digits:
        numerator = 10 * numerator + d
    # The last digit 7 makes the numerator prime to 10, so q is in lowest terms.
    q = Fraction(-numerator, 10**5100)
    assert format_rational(q) == "-" + "".join(map(str, digits)) + "/1" + "0" * 5100


def test_rational_exactness_randomized():
    rng = random.Random(8128)
    for _ in range(100):
        a = Fraction(rng.getrandbits(256) - 2**255, rng.getrandbits(256) + 1)
        b = Fraction(rng.getrandbits(256) - 2**255, rng.getrandbits(256) + 1)
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a
        assert math.gcd(a.numerator, a.denominator) == 1
        assert a.denominator >= 1


# --- partition_zeta_exact --------------------------------------------------------

def test_family_k0_is_one():
    assert partition_zeta_exact(1, 0) == PiPower(Fraction(1), 0)
    assert partition_zeta_exact(3, 0) == PiPower(Fraction(1), 0)


def test_family_k1_is_zeta():
    assert partition_zeta_exact(1, 1) == zeta_even_exact(2)
    assert partition_zeta_exact(2, 1) == zeta_even_exact(4)


def test_family_m1_k2_value():
    # Independent: zeta(2)^2 / 2 + zeta(4) / 2 with bare Fractions.
    by_hand = Fraction(1, 6) ** 2 / 2 + Fraction(1, 90) / 2
    assert by_hand == Fraction(7, 360)
    assert partition_zeta_exact(1, 2) == PiPower(Fraction(7, 360), 4)


def test_family_m1_k3_value():
    # zeta(2)^3/6 + zeta(2) zeta(4)/2 + zeta(6)/3, weights 1/6, 1/2, 1/3.
    by_hand = (
        Fraction(1, 6) ** 3 / 6
        + Fraction(1, 6) * Fraction(1, 90) / 2
        + Fraction(1, 945) / 3
    )
    got = partition_zeta_exact(1, 3)
    assert got == PiPower(by_hand, 6)


def test_family_rejects_bad_arguments():
    with pytest.raises(ValueError):
        partition_zeta_exact(0, 2)
    with pytest.raises(ValueError):
        partition_zeta_exact(1, -1)


def test_family_matches_numeric_for_small_mk():
    for m in (1, 2, 3):
        for k in range(0, 12 // m + 1):
            exact_val = partition_zeta_exact(m, k).to_float()
            num_val = numeric.partition_zeta_family(2 * m, k).value.real
            assert abs(num_val - exact_val) <= 1e-10 * abs(exact_val), (m, k)


# --- zeta2_family_coefficient -----------------------------------------------------

def test_coefficient_values():
    # Frozen from the closed form (2^(2k-1) - 1) / 2^(2k-2).
    assert zeta2_family_coefficient(1) == 1
    assert zeta2_family_coefficient(2) == Fraction(7, 4)
    assert zeta2_family_coefficient(3) == Fraction(31, 16)
    assert zeta2_family_coefficient(5) == Fraction(511, 256)


def test_coefficient_rejects_k0():
    with pytest.raises(ValueError):
        zeta2_family_coefficient(0)


def test_coefficient_formal_k0_reciprocal_is_minus_half():
    # The closed form extended formally to k=0 on bare Fractions:
    # (2^-1 - 1) / 2^-2 = -2, whose reciprocal is -1/2.
    value = (Fraction(2) ** (-1) - 1) / Fraction(2) ** (-2)
    assert value == -2
    assert 1 / value == Fraction(-1, 2)


def test_closed_form_identity_small_k():
    for k in range(1, 11):
        lhs = partition_zeta_exact(1, k)
        rhs = zeta2_family_coefficient(k) * zeta_even_exact(2 * k)
        assert lhs == rhs, k


def test_even_argument_structure_small():
    for m in (1, 2):
        for k in range(0, 5):
            val = partition_zeta_exact(m, k)
            assert val.exponent == 2 * m * k
            assert val.coeff > 0
            assert math.gcd(val.coeff.numerator, val.coeff.denominator) == 1
