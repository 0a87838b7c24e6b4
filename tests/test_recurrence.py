"""The O(k^2) Newton recurrence behind both F_k routes, checked against the
explicit partition-sum formula, and exact F_k(4) and F_k(6) against the
s = 2 closed form through the square and cube roots of unity.  On the left
half plane the numeric route is checked against exact F_k(-n) from the
rational zeta(-m) (tests/oracles.py).

The oracle below enumerates every partition of k and sums
prod_j zeta(js)^{m_j} / (N(lambda) prod_j m_j!) term by term.  It lives only
here: the package computes F_k by the recurrence (the numeric route through
partitions.complete_homogeneous, the exact one on scaled ints) and never
enumerates partitions for it.  The numeric route's passes are also checked
bit for bit against the recurrence as plain loops over j, from
tests/oracles.py.
"""

import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from oracles import complete_homogeneous_loop, family_at_negative_integer, family_error_loop
from pzeta.errors import DomainError, PrecisionLoss
from pzeta.exact import (
    PiPower,
    partition_zeta_exact,
    zeta2_family_coefficient,
    zeta_even_exact,
)
from pzeta.numeric import _U, _family_length, _family_tail, partition_zeta_family, riemann_zeta
from pzeta.partitions import complete_homogeneous, enumerate_partitions_of_size


# --- oracle ------------------------------------------------------------------

def _weight(lam) -> int:
    # N(lambda) * m_1! * ... * m_k!
    denom = math.prod(lam)
    for mj in Counter(lam).values():
        denom *= math.factorial(mj)
    return denom


def partition_sum_exact(m: int, k: int) -> PiPower:
    # Each term is an integer ratio; one Fraction per term keeps this fast.
    coeffs = {j: zeta_even_exact(2 * m * j).coeff for j in range(1, k + 1)}
    total = Fraction(0)
    for lam in enumerate_partitions_of_size(k):
        num, den = 1, _weight(lam)
        for j, mj in Counter(lam).items():
            num *= coeffs[j].numerator ** mj
            den *= coeffs[j].denominator ** mj
        total += Fraction(num, den)
    return PiPower(total, 2 * m * k)


def partition_sum_numeric(s: complex, k: int) -> tuple[complex, float, float]:
    """(value, propagated zeta error, sum of term magnitudes) from the
    partition sum over the same zeta(js) values the package uses."""
    zetas = {j: riemann_zeta(j * s) for j in range(1, k + 1)}
    total, err, abs_sum = 0j, 0.0, 0.0
    for lam in enumerate_partitions_of_size(k):
        denom = _weight(lam)
        v, v_abs, v_hi = 1 + 0j, 1.0, 1.0
        for j, mj in Counter(lam).items():
            z = zetas[j]
            v *= z.value**mj
            v_abs *= abs(z.value) ** mj
            v_hi *= (abs(z.value) + z.est_error) ** mj
        total += v / denom
        err += (v_hi - v_abs) / denom
        abs_sum += v_abs / denom
    return total, err, abs_sum


# --- complete_homogeneous ------------------------------------------------------

def test_complete_homogeneous_small_cases_by_hand():
    p = [Fraction(3), Fraction(5), Fraction(7)]
    h = complete_homogeneous(p, Fraction(1))
    assert h == [
        Fraction(1),
        Fraction(3),
        (Fraction(3) ** 2 + 5) / 2,
        Fraction(3) ** 3 / 6 + Fraction(3 * 5, 2) + Fraction(7, 3),
    ]
    assert complete_homogeneous([], 1 + 0j) == [1 + 0j]


def test_complete_homogeneous_agrees_across_number_types():
    rng = random.Random(2024)
    p = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(10)]
    exact = complete_homogeneous(p, Fraction(1))
    floats = complete_homogeneous([float(x) for x in p], 1.0)
    cplx = complete_homogeneous([complex(x) for x in p], 1 + 0j)
    for n in range(11):
        assert abs(floats[n] - float(exact[n])) <= 1e-12 * (1 + abs(float(exact[n])))
        assert abs(cplx[n] - float(exact[n])) <= 1e-12 * (1 + abs(float(exact[n])))


def _bits(x):
    # Floats and complex parts by their hex digits, so -0.0 differs from 0.0.
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return x.hex() if isinstance(x, float) else x


def test_complete_homogeneous_is_the_plain_loop_bit_for_bit():
    # The newest-first history and map(mul, ...) sum the plain loop's terms
    # in its order from its first term: float and complex results match
    # bit for bit, signed zeros included, and Fractions exactly.
    rng = random.Random(2061)
    zeros = (0.0, -0.0)
    for k in range(46):
        floats = [rng.choice(zeros) if rng.random() < 0.2 else rng.uniform(-3, 3) for _ in range(k)]
        cplx = [complex(rng.choice(zeros), rng.choice(zeros)) if rng.random() < 0.2
                else complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(k)]
        cases = [(floats, 1.0), ([-0.0] * k, 1.0), (cplx, 1 + 0j), ([complex(-0.0, -0.0)] * k, 1 + 0j),
                 ([complex(x) for x in floats], 1 + 0j)]
        if k <= 20:
            cases.append(([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)], Fraction(1)))
        for power_sums, one in cases:
            got = complete_homogeneous(power_sums, one)
            want = complete_homogeneous_loop(power_sums, one)
            assert list(map(_bits, got)) == list(map(_bits, want)), (k, power_sums)
    assert complete_homogeneous([], -0.0)[0].hex() == "-0x0.0p+0"


def _stop(sigma: float, k: int) -> tuple[int, float]:
    # The length F_k stops at, found by trying every n from 1: the first
    # whose tail bound is at most u, and that bound; (k, 0.0) if none is.
    if sigma > 1:
        for n in range(1, k):
            tail = _family_tail(sigma, n)
            if tail <= _U:
                return n, tail
    return k, 0.0


def test_family_is_the_plain_loops_on_its_zeta_values_bit_for_bit():
    # partition_zeta_family against the loops run on the same zeta(js),
    # the L factors it evaluates, plus the tail bound where L < k.
    rng = random.Random(2063)
    checked = left = stopped = 0
    for _ in range(160):
        s = complex(rng.uniform(-3, 6), rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 1.5))
        k = rng.randint(0, 45)
        try:
            got = partition_zeta_family(s, k)
        except DomainError:
            continue
        length, tail = _stop(s.real, k)
        zetas = [riemann_zeta(j * s) for j in range(1, length + 1)]
        a = [abs(z.value) for z in zetas]
        e = [z.est_error for z in zetas]
        value = complete_homogeneous_loop([z.value for z in zetas], 1 + 0j)[length]
        assert _bits(got.value) == _bits(value), (s, k)
        assert _bits(got.est_error) == _bits(family_error_loop(a, e, length) + tail), (s, k)
        assert got.terms_used == sum(z.terms_used for z in zetas) + length * (length + 1) // 2
        checked += 1
        left += s.real < 0.5
        stopped += length < k
    assert checked > 100 and left > 20 and stopped > 20


# --- exact route ------------------------------------------------------------------

def test_exact_matches_partition_sum_oracle():
    # The integer scale gains a factor p every (p - 1) / gcd(p - 1, 2m)
    # steps, so m = 4, 5, 6 exercise scales that m <= 3 never reach.
    for m in range(1, 7):
        for k in range(0, 26 if m <= 3 else 13):
            assert partition_zeta_exact(m, k) == partition_sum_exact(m, k), (m, k)


def _f_at_two(a: int) -> Fraction:  # F_a(2) / pi^(2a) from the s = 2 closed form
    if a == 0:
        return Fraction(1)
    return (zeta2_family_coefficient(a) * zeta_even_exact(2 * a)).coeff


def test_exact_at_four_matches_product_of_twos():
    # prod_n 1/(1 - x n^-4) = prod_n 1/(1 - y n^-2) * prod_n 1/(1 + y n^-2)
    # with x = y^2, so F_k(4) = sum_{a+b=2k} (-1)^b F_a(2) F_b(2): the s = 2
    # closed form alone, never the recurrence.
    for k in [*range(41), 60, 100]:
        want = sum((-1) ** b * _f_at_two(2 * k - b) * _f_at_two(b) for b in range(2 * k + 1))
        assert partition_zeta_exact(2, k) == PiPower(want, 4 * k), k


def test_exact_at_six_matches_cube_roots_of_two():
    # 1 - x^3 n^-6 = prod_w (1 - w x n^-2) over the cube roots of unity w,
    # so sum_k F_k(6) x^(3k) = G(x) G(wx) G(w^2 x) with G(y) = sum_a F_a(2) y^a.
    # The x^(3k) coefficient is sum_{a+b+c=3k} g_a g_b g_c w^(b-c), and
    # pairing (b, c) with (c, b) leaves Re w^(b-c): 1 if 3 | b - c, else
    # -1/2, which is (3 same - every) / 2 over the two sums below.
    for k in [*range(13), 25, 40]:
        g = [_f_at_two(a) for a in range(3 * k + 1)]
        same = every = Fraction(0)
        for b in range(3 * k + 1):
            for c in range(3 * k + 1 - b):
                term = g[b] * g[c] * g[3 * k - b - c]
                every += term
                if (b - c) % 3 == 0:
                    same += term
        assert partition_zeta_exact(3, k) == PiPower((3 * same - every) / 2, 6 * k), k


def test_exact_closed_form_at_large_k():
    assert partition_zeta_exact(1, 60) == zeta2_family_coefficient(60) * zeta_even_exact(120)


# --- numeric route ----------------------------------------------------------------

def test_numeric_matches_partition_sum_oracle():
    rng = random.Random(1907)
    for _ in range(60):
        s = complex(rng.uniform(-0.5, 3), rng.uniform(-3, 3))
        k = rng.randint(1, 12)
        got = partition_zeta_family(s, k)
        want, propagated, abs_sum = partition_sum_numeric(s, k)
        assert abs(got.value - want) <= 1e-14 * abs_sum, (s, k)
        # est_error is the propagated zeta error plus a rounding bound.
        assert propagated * (1 - 1e-12) <= got.est_error, (s, k)
        assert got.est_error <= propagated + 1e-12 * abs_sum, (s, k)


def test_numeric_terms_used_counts_zeta_terms_and_products():
    s, k = 2.5 + 1j, 7
    zeta_terms = sum(riemann_zeta(j * s).terms_used for j in range(1, k + 1))
    assert partition_zeta_family(s, k).terms_used == zeta_terms + k * (k + 1) // 2


def test_numeric_large_k_matches_exact():
    got = partition_zeta_family(4, 40)
    want = partition_zeta_exact(2, 40).to_float()
    assert abs(got.value - want) <= got.est_error + 1e-15 * abs(want)


def test_numeric_at_negative_odd_integers_is_within_est_error_of_exact():
    # F_k(-n) is rational; wherever the numeric route returns it (past the
    # trust gate on every reflected factor) it must be within est_error.
    returned = 0
    for n in (1, 3, 5, 7, 9):
        for k in range(1, 41):
            try:
                got = partition_zeta_family(-n, k)
            except PrecisionLoss:
                continue
            returned += 1
            exact = family_at_negative_integer(n, k)
            err = math.hypot(float(Fraction(got.value.real) - exact), got.value.imag)
            assert err <= got.est_error, (n, k, err, got.est_error)
    assert returned


def test_numeric_at_negative_even_integers_is_exactly_zero():
    # The paper's trivial roots: every factor zeta(-2nj) is 0, and so is the
    # numeric value, also where Gamma(1 - s) overflows in a factor's
    # reflection prefactor (zeta(-174) in F_29(-6), say).
    for n in (1, 2, 3, 4):
        for k in range(1, 41):
            assert family_at_negative_integer(2 * n, k) == 0
            got = partition_zeta_family(-2 * n, k)
            assert got.value == 0, (n, k, got)


# --- the stop on Re s > 1 -------------------------------------------------------

def _pi(digits: int) -> Decimal:
    # Machin's pi/4 = 4 arctan(1/5) - arctan(1/239) on integers scaled by
    # 10^(digits + 10); the guard digits absorb the truncated divisions.
    unity = 10 ** (digits + 10)

    def arctan_inv(x: int) -> int:
        total = term = unity // x
        n, sign = 1, -1
        while term:
            term //= x * x
            n += 2
            total += sign * (term // n)
            sign = -sign
        return total

    return Decimal(16 * arctan_inv(5) - 4 * arctan_inv(239)) / unity


def _exact_decimal(value: PiPower, pi: Decimal) -> Decimal:
    return Decimal(value.coeff.numerator) / Decimal(value.coeff.denominator) * pi**value.exponent


def test_tail_bound_holds_against_the_exact_tails_at_two_and_four():
    # F_n -> prod_(m>=2) (1 - m^-s)^-1 as n grows, which is 2 at s = 2 and,
    # as 1 - m^-4 = (1 - m^-2)(1 + m^-2) and prod_(m>=1) (1 + m^-2) =
    # sinh(pi)/pi, 4 pi / sinh(pi) at s = 4.  Every G_i is positive at real
    # s, so the tail past F_n is exactly that limit minus F_n.  The bound is
    # 8.2 times it at s = 2, n = 0, and from n = 4 on 4.09 times at s = 2 and
    # 1.16 times at s = 4.
    with localcontext() as ctx:
        ctx.prec = 160
        pi = _pi(170)
        limits = {1: Decimal(2), 2: 8 * pi / (pi.exp() - (-pi).exp())}
        for m, limit in limits.items():
            for n in range(61):
                tail = limit - _exact_decimal(partition_zeta_exact(m, n), pi)
                bound = Decimal(_family_tail(2.0 * m, n))
                assert 0 < tail <= bound <= 9 * tail, (m, n, tail, bound)


def test_tail_bound_holds_against_mpmath_tails():
    # The true tail at real sigma from the G_i themselves: G_i = h_i(q_1,
    # q_2, ...) with q_j = zeta(j sigma, 2) = sum_(m>=2) m^(-j sigma), all
    # positive, so 30 digits hold it without cancellation.  Summed to 60 +
    # 130 / sigma terms, past which the omitted part is below 1e-35 of it.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = random.Random(3001)
    for sigma in (1.01, 1.2, 1.5, 2.0, 3.0, 8.0, *(rng.uniform(1.0, 8.0) for _ in range(6))):
        top = 60 + math.ceil(130 / sigma)
        q = [mpmath.zeta(j * mpmath.mpf(sigma), 2) for j in range(1, top + 1)]
        g = complete_homogeneous_loop(q, mpmath.mpf(1))
        tail = sum(g[61:])
        for n in range(60, -1, -1):
            bound = _family_tail(sigma, n)
            assert tail <= bound, (sigma, n, tail, bound)
            tail += g[n]


def test_family_past_the_stop_is_the_same_for_every_length():
    # The stop depends on Re s alone: from L + 1 on, every k returns h_L,
    # D_L + T(Re s, L) and the same terms; k = L itself omits no tail.
    for s in (1.7 + 3.1j, 2, 2.5 - 40j, 4 + 0.5j, 8 - 1j, 30 + 2j):
        length, tail = _family_length(s.real, 10**6)
        at_stop = partition_zeta_family(s, length)
        past = [partition_zeta_family(s, k) for k in (length + 1, length + 2, length + 9, 1000)]
        for got in past:
            assert (_bits(got.value), _bits(got.est_error), got.terms_used) == (
                _bits(at_stop.value), _bits(at_stop.est_error + tail), at_stop.terms_used), (s, got)
    assert _family_length(1.7, 10**6)[0] == 36 and _family_length(3.0, 10**6)[0] == 18


def test_family_near_re_s_one_runs_to_its_full_length():
    # Near sigma = 1 the bound passes the double range at the walk's first
    # n; T is then infinite, no stop is taken, and F_k is the full
    # recurrence, bit for bit.
    for sigma in (1 + 1e-12, 1.0001, 1.005):
        for n in (1, 51, 200):
            assert _family_tail(sigma, n) == math.inf, (sigma, n)
    for s, k in ((1.005 + 2j, 60), (1.0001 - 5j, 70)):
        got = partition_zeta_family(s, k)
        zetas = [riemann_zeta(j * s) for j in range(1, k + 1)]
        a = [abs(z.value) for z in zetas]
        e = [z.est_error for z in zetas]
        value = complete_homogeneous_loop([z.value for z in zetas], 1 + 0j)[k]
        assert _bits(got.value) == _bits(value), (s, k)
        assert _bits(got.est_error) == _bits(family_error_loop(a, e, k)), (s, k)
        assert got.terms_used == sum(z.terms_used for z in zetas) + k * (k + 1) // 2


def test_family_past_the_stop_is_within_est_error_against_mpmath():
    # Seeded on Re s in (1, 8], |Im s| <= 100, k <= 120, against 30-digit
    # h_k(zeta(s), ..., zeta(ks)), every factor zeta(js) from mpmath.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = random.Random(3002)
    stopped = 0
    for _ in range(16):
        s = complex(rng.uniform(1.0, 8.0), rng.uniform(-100, 100))
        k = rng.randint(1, 120)
        got = partition_zeta_family(s, k)
        ms = mpmath.mpc(s.real, s.imag)
        want = complete_homogeneous_loop([mpmath.zeta(j * ms) for j in range(1, k + 1)], mpmath.mpf(1))[k]
        assert abs(got.value - complex(want)) <= got.est_error, (s, k)
        stopped += _family_length(s.real, k)[0] < k
    assert stopped >= 8


def test_family_at_even_arguments_past_the_stop_is_within_est_error_of_exact():
    with localcontext() as ctx:
        ctx.prec = 80
        pi = _pi(90)
        for m in (1, 2, 3):
            for k in range(81):
                got = partition_zeta_family(2 * m, k)
                exact = _exact_decimal(partition_zeta_exact(m, k), pi)
                err = abs(Decimal(got.value.real) - exact) + Decimal(abs(got.value.imag))
                assert err <= Decimal(got.est_error), (m, k, err, got.est_error)
