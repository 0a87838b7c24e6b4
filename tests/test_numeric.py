"""Complex-plane evaluation: zeta, the fixed-length partition zeta family,
the bounded-part generating function and the truncated direct sums read
from it, pole probing, and restricted Euler products.

Reference values marked "frozen" were computed with an independent
high-precision engine (mpmath at 30 digits) and pasted in as literals.
"""

import cmath
import math
import random
import warnings

import pytest

from oracles import enumerate_partitions_fixed_length
from pzeta.errors import (
    DivergenceRegion,
    DomainError,
    FitUnstable,
    InvalidForm,
    PoleAt1,
    PoleProximity,
    PrecisionLoss,
)
from pzeta.exact import bernoulli_numbers, partition_zeta_exact, zeta_even_exact
from pzeta.numeric import (
    EvalResult,
    PRECISION_LOSS_THRESHOLD,
    _em_factors,
    _em_plan,
    _trusted,
    _zeta_euler_maclaurin,
    _zeta_functional,
    ProductForm,
    direct_sum_truncated,
    euler_product_eval,
    partition_zeta_family,
    pole_order_estimate,
    restricted_genfun_coeffs,
    riemann_zeta,
    truncation_error_estimate,
)

# frozen: mpmath.zeta at 30 digits
ZETA_3 = 1.2020569031595942854
ZETA_HALF = -1.4603545088095868129
ZETA_MINUS_HALF = -0.20788622497735456602
ZETA_2_3J = 0.79802198514627572062 - 0.11374430805293850022j
ZETA_03_5J = 0.67564899811602329993 + 0.2541447865546774403j
ZETA_M42 = -0.0014687209305056967445

# frozen: mpmath at 30 digits through the partition-sum formula
FAMILY_25_K3 = 1.4331423363901825735
FAMILY_2_1J_K2 = 1.0649087903043777837 - 0.53904663517272359542j
FAMILY_73_K4 = 1.5550900251160430613


# --- riemann_zeta -------------------------------------------------------------

def test_zeta_2_matches_pi_squared_over_6():
    got = riemann_zeta(2)
    assert abs(got.value - math.pi**2 / 6) < 1e-14
    assert got.value.imag == 0 or abs(got.value.imag) < 1e-16
    assert got.est_error < 1e-12


def test_zeta_even_args_match_exact_closed_forms():
    for m in range(1, 11):
        want = zeta_even_exact(2 * m).to_float()
        got = riemann_zeta(2 * m).value
        assert abs(got - want) < 1e-12 * abs(want), m


def test_zeta_3_frozen():
    assert abs(riemann_zeta(3).value - ZETA_3) < 1e-14


def test_zeta_on_critical_line_edge_frozen():
    assert abs(riemann_zeta(0.5).value - ZETA_HALF) < 1e-12


def test_zeta_left_of_strip_frozen():
    assert abs(riemann_zeta(-0.5).value - ZETA_MINUS_HALF) < 1e-12
    assert abs(riemann_zeta(-4.2).value - ZETA_M42) < 1e-12


def test_zeta_complex_frozen():
    assert abs(riemann_zeta(2 + 3j).value - ZETA_2_3J) < 1e-13
    assert abs(riemann_zeta(0.3 + 5j).value - ZETA_03_5J) < 1e-12


def test_zeta_at_zero_and_negative_integers():
    assert abs(riemann_zeta(0).value - (-0.5)) < 1e-12
    assert riemann_zeta(-2).value == 0
    assert riemann_zeta(-4).value == 0
    assert abs(riemann_zeta(-1).value - (-1 / 12)) < 1e-14


def test_zeta_conjugate_symmetry():
    for s in (2 + 3j, 0.7 + 11j, -1.5 + 4j):
        a = riemann_zeta(s).value
        b = riemann_zeta(s.conjugate()).value
        assert abs(a.conjugate() - b) < 1e-12 * (1 + abs(a))


def test_zeta_branches_agree_across_the_seam():
    for s in (0.49 + 3j, 0.51 + 3j, 0.5 + 1j):
        em = _zeta_euler_maclaurin(s).value
        fe = _zeta_functional(s).value
        assert abs(em - fe) < 1e-10 * (1 + abs(em)), s


def test_zeta_pole_exclusion():
    with pytest.raises(PoleAt1):
        riemann_zeta(1)
    with pytest.raises(PoleAt1):
        riemann_zeta(1 + 1e-12)
    with pytest.raises(PoleAt1):
        riemann_zeta(1 - 1e-10 * 1j)
    # just outside the exclusion radius the pole blows up the value, not the call
    near = riemann_zeta(1 + 1e-6)
    assert abs(near.value) > 1e5


def test_zeta_precision_loss_attaches_partial():
    untrusted = EvalResult(1.6 + 0j, 2 * PRECISION_LOSS_THRESHOLD, 3)
    with pytest.raises(PrecisionLoss) as exc:
        _trusted(untrusted)
    assert exc.value.partial is untrusted
    trusted = EvalResult(1.6 + 0j, PRECISION_LOSS_THRESHOLD, 3)
    assert _trusted(trusted) is trusted


def test_zeta_reflection_overflow_is_typed():
    # pi |Im s| / 2 past the double range (sine), and Gamma(1 - s) at large
    # negative s, both overflow inside the functional equation.
    for s in (-1 + 460j, -200, -1e6 + 1e6j):
        with pytest.raises(PrecisionLoss):
            riemann_zeta(s)
    with pytest.raises(PrecisionLoss):
        partition_zeta_family(-0.5 + 120j, 4)


def test_non_finite_argument_is_a_domain_error():
    for s in (float("nan"), complex(float("inf"), 0), complex(1, float("nan"))):
        with pytest.raises(DomainError):
            riemann_zeta(s)
        for k in (0, 2):
            with pytest.raises(DomainError):
                partition_zeta_family(s, k)


@pytest.mark.parametrize("call", [
    lambda s: direct_sum_truncated(s, 2, 10),
    lambda s: truncation_error_estimate(s, 2, 10),
    lambda s: euler_product_eval(ProductForm.distinct_parts(), s, 100),
    lambda s: restricted_genfun_coeffs(s, 10, 3),
], ids=["direct_sum_truncated", "truncation_error_estimate", "euler_product_eval",
        "restricted_genfun_coeffs"])
def test_array_routines_reject_non_finite_s(call):
    # Rejected before any power is formed: no numpy RuntimeWarning, no
    # PrecisionLoss from a NaN result.  At Im s = 1e308 the phase
    # Im(s) log n overflows, which CPython reports as ZeroDivisionError;
    # at Re s = 1e308, s log n overflows in numpy's power.
    for s in (math.nan, complex(2, math.inf), complex(math.inf, 0), complex(math.nan, 1),
              complex(2, 1e308), complex(1e308, 5e16)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                call(s)
        assert not isinstance(info.value, PrecisionLoss), s


def test_em_factor_table_is_shared_and_exact():
    for depth in range(1, 21):
        table = _em_factors(depth)
        assert isinstance(table, tuple)
        assert _em_factors(depth) is table
        bs = bernoulli_numbers(2 * depth)
        assert table == tuple(
            float(bs[2 * r]) / math.factorial(2 * r) for r in range(depth))


def test_zeta_cutoff_follows_height_and_real_part():
    assert riemann_zeta(0.5 + 1e4j).terms_used < 6000
    # Far right, a handful of terms meets the bound at any height.
    assert riemann_zeta(30 + 1e3j).terms_used < 10
    assert riemann_zeta(120 + 400j).terms_used < 10


def test_zeta_plan_meets_its_remainder_bound():
    for s in (2, 0.5 + 14j, 0.7 + 300j, 0.5 + 1e4j, 30 + 1e3j, -0.5 + 3j):
        s = complex(s)
        n, m, bound = _em_plan(s)
        e = s.real + 2 * m - 1
        log_want = (math.log(4) + math.fsum(math.log(abs(s + j)) for j in range(2 * m))
                    - 2 * m * math.log(2 * math.pi) - math.log(e) - e * math.log(n))
        assert math.log(bound) == pytest.approx(log_want, abs=1e-9), s
        assert bound <= 1e-16, s
        assert _zeta_euler_maclaurin(s).est_error >= bound


def test_zeta_refuses_cutoffs_whose_rounding_alone_breaks_the_threshold():
    # N u > 1e-8: refused before summing, not after minutes of work.  The
    # reflected branch checks its prefactor before the inner sum.
    for s in (0.5 + 1e12j, -1 + 1e9j):
        with pytest.raises(PrecisionLoss):
            riemann_zeta(s)


def test_zeta_refuses_on_the_partial_sums_rounding_before_summing():
    # Here N u alone passes no threshold, but u (2 |t| log N + 20 + N) Z
    # does; a value summed first would come back attached as ``partial``.
    for s in (2 + 1e7j, 0.75 + 3e6j):
        with pytest.raises(PrecisionLoss) as exc:
            riemann_zeta(s)
        assert exc.value.partial is None, s


def test_zeta_forced_deep_corrections_stay_finite():
    # At t = 10^4 the planner is forced to its deepest depth, 80.  The
    # running Pochhammer term is rescaled by N^-2 each step, so it neither
    # overflows nor loses the value; the mpmath test checks the value.
    s = 0.5 + 1e4j
    n, m, _ = _em_plan(s)
    assert m == 80
    got = riemann_zeta(s)
    assert got.terms_used == n + m
    assert cmath.isfinite(got.value) and got.est_error < 1e-8


def test_zeta_far_right_is_one():
    # The planner's Pochhammer factors are logged one at a time, so Re s
    # past 1e77 no longer overflows their product into a huge cutoff.  At
    # 1e200 + 1e200i, 2^-s underflows to 0 and 1 ** -s is exactly 1, so the
    # phase error 2 |t| log N u falls on no term of nonzero modulus.
    for s in (1e77, 1e78, 1e300, 1e300 + 5j, 1e200 + 1e200j):
        got = riemann_zeta(s)
        assert got.value == 1, s
        assert got.terms_used == 3 and got.est_error < 1e-14, s
    assert partition_zeta_family(1e300, 3).value == 1


def _mpmath_zeta(mpmath, s):
    return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))


def test_zeta_est_error_bounds_the_error_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = random.Random(2027)
    points = []
    for lo, hi in ((0.5, 2.0), (2.0, 30.0)):  # direct branch, |t| <= 10^4
        points += [complex(rng.uniform(lo, hi), rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 4))
                   for _ in range(60)]
    points += [complex(rng.uniform(-1.0, 0.5), rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 2.6))
               for _ in range(100)]  # reflected branch, |t| <= 400
    for s in points:
        got = riemann_zeta(s)
        assert abs(got.value - _mpmath_zeta(mpmath, s)) <= got.est_error, s


def test_family_est_error_bounds_the_error_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = random.Random(2029)
    for _ in range(80):
        s = complex(rng.uniform(-0.5, 3.0), rng.uniform(-30, 30))
        k = rng.randint(1, 6)
        zetas = [mpmath.zeta(j * mpmath.mpc(s.real, s.imag)) for j in range(1, k + 1)]
        h = [mpmath.mpf(1)]
        for n in range(1, k + 1):
            h.append(sum(zetas[j - 1] * h[n - j] for j in range(1, n + 1)) / n)
        got = partition_zeta_family(s, k)
        assert abs(got.value - complex(h[k])) <= got.est_error, (s, k)


# --- partition_zeta_family -----------------------------------------------------

def test_family_k0_is_exactly_one():
    got = partition_zeta_family(3.7 + 2j, 0)
    assert got.value == 1
    assert got.est_error == 0.0


def test_family_k1_is_zeta():
    a = partition_zeta_family(2 + 3j, 1).value
    b = riemann_zeta(2 + 3j).value
    assert a == b


def test_family_matches_exact_even_values():
    for m in range(1, 4):
        for k in range(2, 5):
            want = partition_zeta_exact(m, k).to_float()
            got = partition_zeta_family(2 * m, k).value
            assert abs(got - want) < 1e-10 * abs(want), (m, k)


def test_family_frozen_values():
    assert abs(partition_zeta_family(2.5, 3).value - FAMILY_25_K3) < 1e-12
    assert abs(partition_zeta_family(2 + 1j, 2).value - FAMILY_2_1J_K2) < 1e-12
    assert abs(partition_zeta_family(7 / 3, 4).value - FAMILY_73_K4) < 1e-12


def test_family_trivial_zeros():
    # At negative even arguments every zeta factor vanishes, so the whole
    # length-k sum does, exactly.
    for s in (-2, -4, -6):
        for k in (1, 2, 3, 4):
            assert partition_zeta_family(s, k).value == 0, (s, k)


def test_family_not_zero_at_first_critical_zero():
    rho = 0.5 + 14.134725j
    assert abs(partition_zeta_family(rho, 2).value) > 1e-3
    assert abs(partition_zeta_family(rho, 3).value) > 1e-3
    # frozen magnitudes: 0.974378713616 and 0.268480759478
    assert abs(abs(partition_zeta_family(rho, 2).value) - 0.974378713616) < 1e-9


def test_family_pole_proximity_names_the_factor():
    with pytest.raises(PoleProximity) as exc:
        partition_zeta_family(0.5, 2)
    assert exc.value.j == 2
    with pytest.raises(PoleProximity) as exc:
        partition_zeta_family(1 / 3 + 1e-12, 3)
    assert exc.value.j == 3
    with pytest.raises(PoleProximity) as exc:
        partition_zeta_family(1.0, 4)
    assert exc.value.j == 1


def test_family_rejects_negative_length():
    with pytest.raises(ValueError):
        partition_zeta_family(2, -1)


def test_family_error_estimate_is_honest_at_even_args():
    for (m, k) in ((1, 2), (2, 3), (3, 2)):
        want = partition_zeta_exact(m, k).to_float()
        got = partition_zeta_family(2 * m, k)
        assert abs(got.value - want) <= got.est_error + 1e-15 * abs(want)


# --- direct_sum_truncated ---------------------------------------------------------

def test_direct_sum_k1_is_partial_zeta():
    got = direct_sum_truncated(2, 1, 10)
    want = sum(n ** -2.0 for n in range(1, 11))
    assert abs(got.value - want) < 1e-15
    assert got.terms_used == 10


def test_direct_sum_tiny_case_by_hand():
    # k=2, parts <= 2: partitions [1,1], [2,1], [2,2] with norms 1, 2, 4.
    got = direct_sum_truncated(2, 2, 2)
    assert abs(got.value - (1 / 1 + 1 / 4 + 1 / 16)) < 1e-15


def test_direct_sum_matches_explicit_enumeration():
    for s in (2, 3, 2.5 + 1j):
        for k in (1, 2, 3, 4):
            for max_part in (2, 5, 9):
                got = direct_sum_truncated(s, k, max_part).value
                want = sum(
                    math.prod(lam) ** (-complex(s))
                    for lam in enumerate_partitions_fixed_length(k, max_part)
                )
                assert abs(got - want) < 1e-12 * (1 + abs(want)), (s, k, max_part)


def test_direct_sum_converges_to_family():
    got = direct_sum_truncated(3, 2, 4000)
    want = partition_zeta_family(3, 2)
    assert abs(got.value - want.value) <= got.est_error + want.est_error


def test_direct_sum_requires_convergence():
    with pytest.raises(DivergenceRegion):
        direct_sum_truncated(1, 2, 100)
    with pytest.raises(DivergenceRegion):
        direct_sum_truncated(0.5 + 3j, 2, 100)


def test_direct_sum_validation():
    with pytest.raises(ValueError):
        direct_sum_truncated(2, 0, 100)
    with pytest.raises(ValueError):
        direct_sum_truncated(2, 2, 0)


def test_truncation_estimate_matches_reported_and_shrinks():
    est_small = truncation_error_estimate(2, 3, 100)
    est_big = truncation_error_estimate(2, 3, 10000)
    assert est_big < est_small
    assert direct_sum_truncated(2, 3, 100).est_error == est_small


def test_truncation_estimate_bounds_true_tail():
    for s in (1.05, 1.1, 1.5, 2, 2.5, 1.3 + 5j):
        for k in (1, 2, 3, 4):
            for max_part in (10, 50, 100, 200, 1000):
                got = direct_sum_truncated(s, k, max_part)
                want = partition_zeta_family(s, k).value
                assert abs(got.value - want) <= got.est_error, (s, k, max_part)


def test_truncation_estimate_out_of_range_is_infinite():
    assert truncation_error_estimate(1 + 1e-12, 40, 1000) == math.inf
    with pytest.raises(PrecisionLoss):
        direct_sum_truncated(1 + 1e-12, 40, 1000)


# --- restricted_genfun_coeffs --------------------------------------------------------

def test_genfun_constant_term_is_one():
    assert restricted_genfun_coeffs(2, 7, 4)[0] == 1


def test_genfun_s2_m2_k2_is_21_16():
    got = restricted_genfun_coeffs(2, 2, 2)
    assert abs(got[2] - 21 / 16) < 1e-15


def test_genfun_k1_is_partial_zeta_sum():
    got = restricted_genfun_coeffs(3, 50, 1)
    partial = sum(n ** (-3.0) for n in range(1, 51))
    assert abs(got[1] - partial) < 1e-14


def test_genfun_matches_literal_enumeration():
    # Every coefficient of each call, so the z^t with t < k_max are checked
    # against the enumeration too, not only against direct_sum_truncated,
    # which reads the same recurrence.
    for s in (2, 3, 2.5 + 1j):
        for k in range(1, 5):
            for max_part in (3, 7, 12):
                got = restricted_genfun_coeffs(s, max_part, k)
                want = [1] + [
                    sum(math.prod(lam) ** (-complex(s))
                        for lam in enumerate_partitions_fixed_length(t, max_part))
                    for t in range(1, k + 1)
                ]
                assert len(got) == k + 1
                for t in range(k + 1):
                    assert abs(got[t] - want[t]) < 1e-12, (s, t, k, max_part)


def test_genfun_requires_convergent_s():
    with pytest.raises(DivergenceRegion):
        restricted_genfun_coeffs(1, 10, 2)
    with pytest.raises(DivergenceRegion):
        restricted_genfun_coeffs(0.5 + 2j, 10, 2)


def test_genfun_rejects_non_finite_s():
    # NaN used to come back as coefficients, 2 + inf i as ZeroDivisionError.
    for s in (math.nan, complex(2, math.inf), complex(math.inf, 0), complex(math.nan, 1)):
        with pytest.raises(DomainError):
            restricted_genfun_coeffs(s, 10, 3)


# --- pole_order_estimate --------------------------------------------------------------

def test_pole_orders_small_grid():
    # The pole of the length-k value at s = 1/j has order floor(k/j).
    for k in range(1, 6):
        for j in range(1, k + 1):
            assert pole_order_estimate(k, j) == k // j, (k, j)


def test_pole_order_validation():
    with pytest.raises(ValueError):
        pole_order_estimate(0, 1)
    with pytest.raises(ValueError):
        pole_order_estimate(3, 4)
    with pytest.raises(ValueError):
        pole_order_estimate(3, 0)


# --- euler_product_eval -------------------------------------------------------------

def test_product_over_parts_not_one_s2():
    # prod_{n>=2} 1/(1 - n^-2) telescopes to 2.
    got = euler_product_eval(ProductForm.parts_not_one(), 2, 200000)
    assert abs(got.value - 2) < 1e-9


def test_product_distinct_parts_s2():
    # prod_{n>=1} (1 + n^-2) = sinh(pi)/pi.
    got = euler_product_eval(ProductForm.distinct_parts(), 2, 200000)
    want = math.sinh(math.pi) / math.pi
    assert abs(got.value - want) < 1e-9 * want


def test_product_even_parts_s2():
    # prod over even n of 1/(1 - n^-2) = pi/2.
    form = ProductForm.subset_parts(lambda n: n % 2 == 0)
    got = euler_product_eval(form, 2, 200000)
    assert abs(got.value - math.pi / 2) < 1e-9


def test_product_finite_subset_is_exact():
    # Only parts 2 and 3 admitted at s=2: (1/(1-1/4))(1/(1-1/9)) = 3/2.
    form = ProductForm.subset_parts(lambda n: n in (2, 3))
    got = euler_product_eval(form, 2, 1000)
    assert abs(got.value - 1.5) < 1e-12


def test_product_error_estimate_is_honest():
    for nmax in (10000, 100000):
        got = euler_product_eval(ProductForm.parts_not_one(), 2, nmax)
        assert abs(got.value - 2) <= got.est_error, nmax


def test_product_est_error_bounds_periodic_subsets():
    # The tail density is counted over W = N - N//2 parts, so it is off by
    # up to 1/W; est_error carries that.  Closed forms: the products over
    # multiples of 2 and of 3 of 1/(1 - n^-2) are pi/2 and 2 pi/(3 sqrt 3).
    sizes = [*range(10**4, 10**4 + 60), *range(10**5, 10**5 + 20)]
    for modulus, want in ((2, math.pi / 2), (3, 2 * math.pi / (3 * math.sqrt(3)))):
        form = ProductForm.subset_parts(lambda n: n % modulus == 0)
        for n_max in sizes:
            got = euler_product_eval(form, 2, n_max)
            assert abs(got.value - want) <= got.est_error, (modulus, n_max)


@pytest.mark.parametrize("form, lo, sign", [
    (ProductForm.distinct_parts(), 1, 1),
    (ProductForm.parts_not_one(), 2, -1),
    (ProductForm.subset_parts(lambda n: n % 3 == 0), 3, -1),
], ids=["distinct", "not_one", "multiples_of_3"])
@pytest.mark.parametrize("s", [2 + 5j, 3 - 1j])
def test_product_kernel_matches_mpmath_at_complex_s(form, lo, sign, s):
    # The finite product at 40 digits times the same first-order tail
    # factor: this checks the log1p/atan2 kernel, not the tail model.
    mpmath = pytest.importorskip("mpmath")
    n_max = 3000
    parts = range(lo, n_max + 1, lo if form.kind == "subset" else 1)
    window = n_max - n_max // 2
    density = sum(1 for n in parts if n > n_max // 2) / window
    with mpmath.workdps(40):
        z = mpmath.mpc(s.real, s.imag)
        log_prod = sign * mpmath.fsum(mpmath.log(1 + sign * mpmath.power(n, -z)) for n in parts)
        want = complex(mpmath.exp(log_prod + density * mpmath.power(n_max, 1 - z) / (z - 1)))
    got = euler_product_eval(form, s, n_max)
    assert abs(got.value - want) <= 1e-13 * abs(want)
    assert got.terms_used == len(parts)


@pytest.mark.parametrize("form", [
    ProductForm.distinct_parts(), ProductForm.parts_not_one(),
    ProductForm.subset_parts(lambda n: n % 2 == 0)], ids=["distinct", "not_one", "even"])
def test_product_at_real_s_is_real(form):
    for s in (2, 3.5, 1.25):
        got = euler_product_eval(form, s, 1000)
        assert got.value.imag == 0.0 and math.copysign(1.0, got.value.imag) == 1.0
        assert got == euler_product_eval(form, complex(s, 0), 1000)


def test_product_complex_argument_stays_finite():
    got = euler_product_eval(ProductForm.parts_not_one(), 2 + 5j, 50000)
    assert cmath.isfinite(got.value)
    assert got.est_error < 1e-3


def test_product_rejects_part_one():
    with pytest.raises(InvalidForm):
        ProductForm.subset_parts(lambda n: True)
    with pytest.raises(InvalidForm):
        ProductForm.subset_parts(lambda n: n % 2 == 1)


def test_product_requires_convergence():
    with pytest.raises(DivergenceRegion):
        euler_product_eval(ProductForm.parts_not_one(), 1, 1000)
    with pytest.raises(DivergenceRegion):
        euler_product_eval(ProductForm.distinct_parts(), 0.9 + 2j, 1000)


def test_product_counts_admitted_factors():
    form = ProductForm.subset_parts(lambda n: n % 3 == 0)
    got = euler_product_eval(form, 2, 30)
    assert got.terms_used == 10
    assert euler_product_eval(form, 2, 1000).terms_used == 333


def test_subset_predicate_receives_plain_ints():
    # A predicate that admits only Python ints would admit nothing if it
    # were handed numpy scalars.
    strict = euler_product_eval(
        ProductForm.subset_parts(lambda n: type(n) is int and n % 2 == 0), 2, 1000)
    plain = euler_product_eval(ProductForm.subset_parts(lambda n: n % 2 == 0), 2, 1000)
    assert strict.terms_used == 500
    assert strict == plain


def test_subset_predicate_truthy_returns_are_honoured():
    want = euler_product_eval(ProductForm.subset_parts(lambda n: n % 3 == 0), 2, 1000)
    for admits in (lambda n: n if n % 3 == 0 else 0,
                   lambda n: "yes" if n % 3 == 0 else "",
                   lambda n: [n] if n % 3 == 0 else None):
        got = euler_product_eval(ProductForm.subset_parts(admits), 2, 1000)
        assert got == want


# --- EvalResult serialization ----------------------------------------------------

def test_eval_result_json_shape():
    r = EvalResult(1.5 - 2.5j, 1e-12, 42)
    assert r.to_json() == {
        "value": {"re": 1.5, "im": -2.5},
        "est_error": 1e-12,
        "terms_used": 42,
    }
