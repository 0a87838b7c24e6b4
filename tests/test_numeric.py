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

import numpy as np
import pytest

from oracles import (
    em_plan_walk,
    enumerate_partitions_fixed_length,
    subset_euler_product,
    truncation_error_numpy_sum,
)
from pzeta import numeric
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
from pzeta.qseries import faa_di_bruno_check, macmahon_exact_identity, macmahon_lhs, macmahon_rhs
from pzeta.numeric import (
    EvalResult,
    PRECISION_LOSS_THRESHOLD,
    _STIRLING,
    _U,
    _em_factors,
    _em_plan,
    _gamma,
    _kernel_rounding,
    _numpy_part_sums,
    _python_part_sums,
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


# --- the records -------------------------------------------------------------

def test_eval_result_is_a_read_only_record():
    r = EvalResult(1 + 2j, 1e-16, 3)
    assert r == EvalResult(1 + 2j, 1e-16, 3)
    assert r != EvalResult(1 + 2j, 1e-16, 4)
    assert hash(r) == hash(EvalResult(1 + 2j, 1e-16, 3))
    assert repr(r) == "EvalResult(value=(1+2j), est_error=1e-16, terms_used=3)"
    with pytest.raises(AttributeError):
        r.value = 0j
    assert r.to_json() == {"value": {"re": 1.0, "im": 2.0}, "est_error": 1e-16, "terms_used": 3}


def test_product_form_is_a_read_only_record():
    distinct = ProductForm.distinct_parts()
    assert distinct == ProductForm("distinct")
    assert distinct.admits is None
    assert ProductForm.parts_not_one() == ProductForm("not_one", None)
    assert distinct != ProductForm.parts_not_one()
    assert hash(distinct) == hash(ProductForm("distinct"))
    assert repr(distinct) == "ProductForm(kind='distinct', admits=None)"

    def even(n):
        return n % 2 == 0

    subset = ProductForm.subset_parts(even)
    assert (subset.kind, subset.admits) == ("subset", even)
    assert subset == ProductForm("subset", even)
    with pytest.raises(AttributeError):
        distinct.kind = "subset"


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
    # negative s, both overflow inside the functional equation.  From
    # |Im s| ~ 1.14e308 the sine is infinite and the prefactor NaN; from
    # 1.57e308 the phase |Im s| log pi of pi^(s - 1) overflows too (a
    # ZeroDivisionError in CPython); at the last point Gamma's phase does
    # (a ValueError from cmath.rect).
    for s in (-1 + 460j, -201, -1e6 + 1e6j, 0.3 + 1.7e308j, -5 - 1.7e308j,
              -16.2 - 1.49e308j, -3.8e307 + 1.2e308j):
        with pytest.raises(PrecisionLoss):
            riemann_zeta(s)
    for s, k in ((-0.5 + 120j, 4), (0.3 + 1.7e308j, 1), (-5 - 1.7e308j, 1)):
        with pytest.raises(PrecisionLoss):
            partition_zeta_family(s, k)


def test_trivial_zeros_past_the_prefactor_overflow_are_exactly_zero():
    # Gamma(1 - s) overflows from s = -172 on, but sin(pi s / 2) is exactly 0
    # at every negative even integer, every double below -2^53 included.
    # terms_used counts the inner sum's plan, as where the prefactor is
    # formed (s = -170).  Every trivial zero takes the one path, so both
    # parts are +0.0 whether or not the prefactor would overflow.
    zeros = [-2 * n for n in range(1, 201)]
    for s in (-170, -174, -176, -200, -1000, -2.0**60, -1e300, *zeros):
        got = riemann_zeta(s)
        n_cut, depth, _ = _em_plan(complex(1 - s))
        assert got == EvalResult(0j, 0.0, n_cut + depth), s
        assert math.copysign(1, got.value.real) == math.copysign(1, got.value.imag) == 1, s


def test_s_past_the_double_range_is_a_domain_error():
    # |s - 1| overflows although s is finite: a DomainError, not abs()'s
    # raw OverflowError.
    for s in (1.7e308 + 1.7e308j, -1.7e308 + 1.7e308j):
        with pytest.raises(DomainError, match="double range"):
            riemann_zeta(s)
        with pytest.raises(DomainError, match="double range"):
            partition_zeta_family(s, 1)
        with pytest.raises(DomainError, match="j = 2"):
            partition_zeta_family(s, 3)


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


@pytest.mark.parametrize("call", [
    lambda: partition_zeta_family(2, 2.5),
    lambda: direct_sum_truncated(2, 2.5, 10),
    lambda: direct_sum_truncated(2, 2, 10.0),
    lambda: restricted_genfun_coeffs(2, 10, 2.5),
    lambda: restricted_genfun_coeffs(2, 10.0, 2),
    lambda: truncation_error_estimate(2, 2.5, 10),
    lambda: euler_product_eval(ProductForm.parts_not_one(), 2, 10.5),
    lambda: partition_zeta_exact(1.5, 2),
    lambda: partition_zeta_exact(1, 2.0),
    lambda: zeta_even_exact(4.0),
    lambda: bernoulli_numbers(4.5),
    lambda: macmahon_exact_identity(2.5),
    lambda: macmahon_lhs(3, 7.5),
    lambda: macmahon_rhs(3.0, 7),
    lambda: faa_di_bruno_check([1], 2.5),
], ids=["family", "direct_sum_k", "direct_sum_max_part", "genfun_k_max", "genfun_max_part",
        "truncation", "euler_product", "exact_m", "exact_k", "zeta_even",
        "bernoulli", "macmahon_exact", "macmahon_lhs", "macmahon_rhs", "faa_di_bruno"])
def test_non_integer_sizes_are_value_errors(call):
    # One check for every size argument: ValueError, never range's raw
    # TypeError nor a value computed from a fractional size
    # (pole_order_estimate's cases are in test_pole_order_validation).
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_em_factor_table_is_shared_and_exact():
    for depth in range(1, 21):
        table = _em_factors(depth)
        assert isinstance(table, tuple)
        assert _em_factors(depth) is table
        bs = bernoulli_numbers(2 * depth)
        assert table == tuple(
            float(bs[2 * r]) / math.factorial(2 * r) for r in range(depth))


def test_stirling_coefficients_are_exact_bernoulli_quotients():
    bs = bernoulli_numbers(16)
    assert _STIRLING == tuple(float(bs[2 * r] / (2 * r * (2 * r - 1))) for r in range(1, 9))
    assert _STIRLING[:2] == (1 / 12, -1 / 360)


def test_zeta_cutoff_follows_height_and_real_part():
    assert riemann_zeta(0.5 + 1e4j).terms_used < 6000
    # Far right, a handful of terms meets the bound at any height.
    assert riemann_zeta(30 + 1e3j).terms_used < 10
    assert riemann_zeta(120 + 400j).terms_used < 10


# Planner inputs by depth: 1 (stopped early), 2, 4, 8, 9, 80 (forced), and
# far right.
PLAN_DEPTHS = ((40, 1), (12 + 3j, 2), (8 + 20j, 4), (3 + 14j, 8), (0.5 + 14.8j, 9),
               (0.5 + 1e4j, 80), (1e300, 1), (1e300 + 5j, 1))


def test_zeta_plan_meets_its_remainder_bound():
    for s in (2, 0.5 + 14j, 0.7 + 300j, 0.5 + 1e4j, 30 + 1e3j, -0.5 + 3j, *(s for s, _ in PLAN_DEPTHS)):
        s = complex(s)
        n, m, bound = _em_plan(s)
        e = s.real + 2 * m - 1
        log_want = (math.log(4) + math.fsum(math.log(abs(s + j)) for j in range(2 * m))
                    - 2 * m * math.log(2 * math.pi) - math.log(e) - e * math.log(n))
        if bound == 0:  # far right, N^(1 - sigma - 2M) underflows
            assert log_want < -745, s
        else:
            assert math.log(bound) == pytest.approx(log_want, abs=1e-9), s
        assert bound <= 1e-16, s
        assert _zeta_euler_maclaurin(s).est_error >= bound


def test_plan_is_the_walks_plan():
    # _em_plan against em_plan_walk, the walk up from depth 1 without the
    # early stop, as whole (N, M, bound) tuples, on a wide grid and on one
    # near the origin (|s + 2| < 15, where plans run up to depth 9).
    rng = random.Random(2051)
    wide = [complex(rng.uniform(0.5, 40), rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 5))
            for _ in range(1000)]
    near = [complex(rng.uniform(0.5, 13), 0.0 if i % 5 == 0 else rng.uniform(-15, 15))
            for i in range(500)]
    for s in wide + near:
        for a in (1, 2, 65, 1001, 10**6 + 1):
            assert _em_plan(s, a) == em_plan_walk(s, a), (s, a)


def test_every_row_of_the_depth_table_plans_as_the_walk():
    # _em_plan reads each depth's constants from numeric._EM_DEPTHS.  This
    # scan reaches every depth 1..80 at a = 1; at each, every plan is
    # em_plan_walk's, which forms the constants afresh, as a whole tuple.
    by_depth = {}
    for sigma in (0.5, 1, 2, 5):
        for i in range(4001):
            s = complex(sigma, 10 ** (5 * i / 4000))  # |t| log-spaced in [1, 10^5]
            by_depth.setdefault(_em_plan(s)[1], []).append(s)
    assert sorted(by_depth) == list(range(1, 81))
    for depth, points in by_depth.items():
        for s in points:
            for a in (1, 65, 10**6 + 1):
                assert _em_plan(s, a) == em_plan_walk(s, a), (depth, s, a)


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
    # overflows nor loses the value; the mpmath test checks the value.  The
    # other depths of PLAN_DEPTHS sum as planned too.
    for s, depth in PLAN_DEPTHS:
        n, m, _ = _em_plan(complex(s))
        assert m == depth, s
        got = riemann_zeta(s)
        assert got.terms_used == n + m, s
        assert cmath.isfinite(got.value) and got.est_error < 1e-8, s


def test_zeta_far_right_is_one():
    # The planner's Pochhammer factors are logged one at a time, so Re s
    # past 1e77 no longer overflows their product into a huge cutoff.  At
    # 1e200 + 1e200i, 2^-s underflows to 0 and 1 ** -s is exactly 1, so the
    # phase error 2 |t| log N u falls on no term of nonzero modulus, even
    # where that phase error passes the double range (|t| past 1.3e308).
    for s in (1e77, 1e78, 1e300, 1e300 + 5j, 1e200 + 1e200j,
              1.0380732337696617e308 - 1.322369527239617e308j, 1e300 + 1.5e308j):
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


def _mpmath_hurwitz(mpmath, s, a, digits=30):
    # mpmath.zeta(s, a) stops its sum at an absolute tolerance, so it works
    # ``digits`` digits below the value's size.  At complex s and a = 10^6 + 1 it
    # takes seconds; there Hermite's integral (DLMF 25.11.29) with a^-s
    # taken out, well conditioned for |Im s| << a, gives the value at once.
    if s.imag and a > 10**6:
        with mpmath.workdps(digits):
            z, b = mpmath.mpc(s.real, s.imag), mpmath.mpf(a)
            f = lambda x: (mpmath.sin(z * mpmath.atan(x / b))
                           / ((1 + (x / b) ** 2) ** (z / 2) * mpmath.expm1(2 * mpmath.pi * x)))
            # Past x = 12 the integrand is below e^(-2 pi 12) |s| / a.
            return b ** -z * (0.5 + b / (z - 1) + 2 * mpmath.quad(f, [0, 2, 12]))
    size = abs(a ** (1 - s) / (s - 1)) + a ** -s.real
    with mpmath.workdps(digits + max(0, math.ceil(-math.log10(size)))):
        z = mpmath.mpc(s.real, s.imag) if s.imag else mpmath.mpf(s.real)
        return mpmath.zeta(z, a)


def test_shifted_kernel_bounds_the_hurwitz_zeta_against_mpmath():
    # sum_{n>=a} n^-s = zeta(s, a), with the cutoff max(a, planned N).
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2041)
    for a in (1, 2, 65, 10**6 + 1):
        for i in range(30):
            t = 0.0 if i % 4 == 0 else rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 3)
            s = complex(1 + 29 * (1 - rng.random()), t)  # Re s in (1, 30]
            got = _zeta_euler_maclaurin(s, a=a)
            n, m, _ = _em_plan(s, a)
            assert abs(got.value - complex(_mpmath_hurwitz(mpmath, s, a))) <= got.est_error, (s, a)
            assert got.terms_used == n - a + 1 + m


def test_shifted_kernel_at_one_is_the_direct_branch_bit_for_bit():
    rng = random.Random(2043)
    for _ in range(200):
        s = complex(rng.uniform(0.5, 40), rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 4))
        assert _em_plan(s, 1) == _em_plan(s)
        got = _zeta_euler_maclaurin(s, a=1)
        want = riemann_zeta(s)
        assert (got.value, got.est_error, got.terms_used) == tuple(want), s
        assert math.copysign(1, got.value.imag) == math.copysign(1, want.value.imag)


def test_zeta_est_error_is_unchanged_by_the_shift():
    # frozen: riemann_zeta's est_error before the kernel took a start a,
    # when the a = 1 rounding bound was formed inline; _power_rounding
    # rounds its phase share differently.  That share dominates the first
    # and fifth values.
    for s, want in ((0.5 + 1e4j, 1.4991654539253307e-09), (2 + 3j, 9.300088570074688e-15),
                    (0.7 + 300j, 3.389988922042384e-12), (30 + 1e3j, 1.519496917190814e-14),
                    (1.5 + 2e5j, 9.441301501719332e-10), (-0.5 + 3j, 3.307145400857841e-14)):
        assert riemann_zeta(s).est_error == pytest.approx(want, rel=1e-9, abs=0), s


def test_est_error_of_the_other_rounding_model_users_is_frozen():
    # frozen: est_error at complex s of the direct sum, the shifted kernel
    # at a > 1 and the three product kinds, each built on the rounding model
    # of n^-s in numeric._power_rounding; a change to that model shows here.
    distinct, not_one = ProductForm.distinct_parts(), ProductForm.parts_not_one()
    even = ProductForm.subset_parts(lambda n: n % 2 == 0)
    mod3 = ProductForm.subset_parts(lambda n: n % 3 == 2)
    cases = (
        (direct_sum_truncated, (2.5 + 1j, 3, 2000), 1.3413340661504192e-05),
        (direct_sum_truncated, (4 + 1e5j, 2, 1000), 9.065414824219168e-10),
        (direct_sum_truncated, (6 + 40j, 3, 300), 5.352597593557823e-13),
        (_zeta_euler_maclaurin, (3 + 50j, 1.0, 65), 1.3983073092498813e-17),
        (_zeta_euler_maclaurin, (2 + 1e3j, 1.0, 1001), 4.321962746129453e-17),
        (_zeta_euler_maclaurin, (0.6 + 2e3j, 1.0, 65), 4.459374537868416e-11),
        (_zeta_euler_maclaurin, (0.7 + 1e4j, 1.0, 1001), 1.0292671907114657e-10),
        (euler_product_eval, (distinct, 2 + 30j, 10**6), 7.219890741408911e-12),
        (euler_product_eval, (distinct, 1.5 + 2e4j, 5000), 3.365504090626198e-05),
        (euler_product_eval, (not_one, 3 + 1e3j, 20000), 1.4658145010377423e-12),
        (euler_product_eval, (not_one, 2 + 1e6j, 1000), 3.7723399070689738e-06),
        (euler_product_eval, (even, 2 + 5j, 10**4), 2.4892763932894898e-08),
        (euler_product_eval, (mod3, 1.5 - 1e4j, 1000), 0.00013598913815650185),
    )
    for call, args, want in cases:
        assert call(*args).est_error == pytest.approx(want, rel=1e-12, abs=0), (call.__name__, args)


def test_shifted_kernel_cutoff_starts_at_the_shift():
    # Past the planned cutoff no partial term is summed: N = a, only the
    # powers from a on are counted, and the depth is the smallest whose
    # remainder bound at N = a meets 1e-16.
    def log_bound(s, m, n):
        e = s.real + 2 * m - 1
        return (math.log(4) + math.fsum(math.log(abs(s + j)) for j in range(2 * m))
                - 2 * m * math.log(2 * math.pi) - math.log(e) - e * math.log(n))

    # Depths 1, 2, 6, 8, 80, and far right, each with the cutoff at its floor.
    for s in (2 + 0j, 1.1 + 0j, 3 + 50j, 0.6 + 2e5j, 0.6 + 4e5j, 0.6 + 4.925e6j, 1e300 + 0j):
        n, m, bound = _em_plan(s, 10**6 + 1)
        assert n == 10**6 + 1 and bound <= 1e-16
        assert m == min(k for k in range(1, 81) if log_bound(s, k, n) <= math.log(1e-16))
        assert _zeta_euler_maclaurin(s, a=n).terms_used == 1 + m
        assert _em_plan(s, 65)[0] >= 65


def test_gamma_stays_within_its_derived_bound_against_mpmath():
    # _zeta_functional's comment derives Gamma's relative error as under
    # (510 + |y| (3 ell + 6) + x (4 ell + 9)) u, z = x + iy, ell = log |z|.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = random.Random(2031)
    for i in range(300):
        y = rng.uniform(0, 450) if i % 2 else 10 ** rng.uniform(-3, 2.6)
        z = complex(rng.uniform(0.5, 32), rng.choice((-1, 1)) * y)
        ell = math.log(abs(z))
        bound = _U * (510 + abs(z.imag) * (3 * ell + 6) + z.real * (4 * ell + 9))
        want = mpmath.gamma(mpmath.mpc(z.real, z.imag))
        assert abs(_gamma(z) - want) / abs(want) <= bound, z


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


def test_family_names_the_multiple_of_s_that_overflows():
    with pytest.raises(DomainError, match=r"j = 2, s = \(1e\+308\+0j\)"):
        partition_zeta_family(1e308, 3)


def test_family_factor_failures_are_riemann_zetas():
    # F_k fails on its first refused factor zeta(j0 s) with riemann_zeta's
    # own error: the same type and message and, for PrecisionLoss, the same
    # partial.  Seeded left of the critical line, where factors are refused
    # before and after summing and on the reflection prefactor, and at
    # |s| near the double range, where |j s - 1| overflows.
    rng = random.Random(2502)
    points = [(complex(rng.uniform(-3, 0.5), rng.choice((-1, 1)) * 10 ** rng.uniform(-1, 3)),
               rng.randint(2, 20)) for _ in range(300)]
    for _ in range(100):
        k = rng.randint(1, 3)
        re, im = (rng.choice((-1, 1)) * rng.uniform(0.5, 0.99) * 1.79e308 / k for _ in "ri")
        points.append((complex(re, im), k))  # k s finite, |k s| not always
    kinds = set()
    for s, k in points:
        for j0 in range(1, k + 1):
            try:
                riemann_zeta(j0 * s)
            except DomainError as exc:
                want = exc
                break
        else:
            continue
        if (any(math.hypot(s.real - 1 / j, s.imag) < numeric.POLE_EXCLUSION_RADIUS for j in range(1, k + 1))
                or not all(cmath.isfinite(j * s) for j in range(1, k + 1))):
            continue  # the family's own checks refuse first
        with pytest.raises(DomainError) as exc:
            partition_zeta_family(s, k)
        got = exc.value
        assert (type(got), str(got)) == (type(want), str(want)), (s, k, j0)
        assert repr(getattr(got, "partial", None)) == repr(getattr(want, "partial", None)), (s, k, j0)
        kinds.add((type(want).__name__, getattr(want, "partial", None) is None))
    assert kinds == {("PrecisionLoss", True), ("PrecisionLoss", False), ("DomainError", True)}


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
    # From 2^53 on, as for euler_product_eval's max_factor, and far past the
    # double range: a ValueError before any sum or rounding bound is formed.
    for max_part in (2**53, 2**1100):
        with pytest.raises(ValueError, match="2\\^53"):
            direct_sum_truncated(2, 1, max_part)
        with pytest.raises(ValueError, match="2\\^53"):
            truncation_error_estimate(2, 1, max_part)
        with pytest.raises(ValueError, match="2\\^53"):
            restricted_genfun_coeffs(2, max_part, 1)
    # Below 2^53 the bound takes zeta_M from the zeta kernel at any size, with
    # no array of parts: (zeta(2) + 1/M) / M at k = 2.
    for max_part in (2**40, 2**52):
        est = truncation_error_estimate(2, 2, max_part)
        assert math.isfinite(est)
        assert math.isclose(est, (math.pi**2 / 6 + 1 / max_part) / max_part, rel_tol=1e-12)


def test_truncation_estimate_matches_reported_and_shrinks():
    est_small = truncation_error_estimate(2, 3, 100)
    est_big = truncation_error_estimate(2, 3, 10000)
    assert est_big < est_small
    # Reported: the tail bound plus the kernel's rounding share
    # k u (log M + M + 20) (1 + Z1)^k at real s, Z1 = 1 - 1/M at sigma = 2.
    rounding = 3 * 2.0**-53 * (math.log(100) + 100 + 20) * (1 + 0.99) ** 3
    assert math.isclose(direct_sum_truncated(2, 3, 100).est_error, est_small + rounding,
                        rel_tol=1e-12)


@pytest.mark.parametrize("s, k, max_part", [(6, 1, 2000), (8, 1, 1000)])
def test_direct_sum_est_error_covers_rounding_at_large_real_part(s, k, max_part):
    # The tail bound alone (6.3e-18 and 1.4e-22) sits below the rounding of
    # the M sequential additions, 8.1e-15 and 1.3e-15 off zeta_M(s).
    mpmath = pytest.importorskip("mpmath")
    got = direct_sum_truncated(s, k, max_part)
    with mpmath.workdps(30):
        want = mpmath.fsum(mpmath.power(n, -s) for n in range(1, max_part + 1))
    assert abs(got.value - complex(want)) <= got.est_error
    assert truncation_error_estimate(s, k, max_part) < abs(got.value - complex(want))


def test_truncation_estimate_bounds_true_tail():
    for s in (1.05, 1.1, 1.5, 2, 2.5, 1.3 + 5j):
        for k in (1, 2, 3, 4):
            for max_part in (10, 50, 100, 200, 1000):
                got = direct_sum_truncated(s, k, max_part)
                want = partition_zeta_family(s, k).value
                assert abs(got.value - want) <= got.est_error, (s, k, max_part)


@pytest.mark.parametrize("s, k", [(4 + 1e5j, 2), (2 + 1e12j, 1), (4 + 1e12j, 1), (4 + 1e12j, 2)])
def test_direct_sum_rounding_share_covers_the_phases(s, k):
    # Each n^-s is formed with its phase Im(s) log n in double.  At
    # |Im s| = 1e12 that errs by about 1e-4 rad, far past the tail bound at
    # Re s = 4 (3e-10), so the rounding share refuses the result; at 1e5 it
    # stays below the threshold.  Either way est_error less the tail bound
    # must cover the distance to the exact truncated sum (mpmath at 40
    # digits; the z^2 coefficient is (p_1^2 + p_2) / 2, p_j = sum n^-js).
    mpmath = pytest.importorskip("mpmath")
    max_part = 1000
    if s.imag > 1e6:
        with pytest.raises(PrecisionLoss) as info:
            direct_sum_truncated(s, k, max_part)
        got = info.value.partial
    else:
        got = direct_sum_truncated(s, k, max_part)
    with mpmath.workdps(40):
        z = mpmath.mpc(s.real, s.imag)
        p1, p2 = (mpmath.fsum(mpmath.power(n, -j * z) for n in range(1, max_part + 1))
                  for j in (1, 2))
        want = complex(p1 if k == 1 else (p1 * p1 + p2) / 2)
    assert abs(got.value - want) <= got.est_error - truncation_error_estimate(s, k, max_part)


def test_direct_sum_refuses_rounding_noise():
    # At Im s = 1e300 the phases are noise: the value is 0.75 from the
    # truncated sum while the tail bound is 1e-3.
    with pytest.raises(PrecisionLoss) as info:
        direct_sum_truncated(2 + 1e300j, 1, 1000)
    assert info.value.partial.est_error > 1e200


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


def test_genfun_refuses_rounding_noise():
    # At Im s = 1e300 the phases Im(s) log n are noise, so the z^1
    # coefficient comes out 0.75 off; the share that direct_sum_truncated
    # adds to its est_error refuses it here.
    with pytest.raises(PrecisionLoss):
        restricted_genfun_coeffs(2 + 1e300j, 1000, 1)
    # k_max = 0 reads no phase, and Im s = 1e5 stays under the threshold.
    assert restricted_genfun_coeffs(2 + 1e300j, 1000, 0) == [1]
    assert len(restricted_genfun_coeffs(4 + 1e5j, 1000, 2)) == 3


def test_genfun_refuses_an_overflowing_rounding_bound_before_summing(monkeypatch):
    # (1 + Z1)^k overflows near Re s = 1 at k = 400, so the phase share is
    # infinite and the kernel must never run.
    def kernel(*args):
        raise AssertionError("summed before refusing")

    monkeypatch.setattr("pzeta.numeric._bounded_part_sums", kernel)
    with pytest.raises(PrecisionLoss):
        restricted_genfun_coeffs(1.0001 + 1j, 1000, 400)


def test_genfun_rejects_non_finite_s():
    # NaN used to come back as coefficients, 2 + inf i as ZeroDivisionError.
    for s in (math.nan, complex(2, math.inf), complex(math.inf, 0), complex(math.nan, 1)):
        with pytest.raises(DomainError):
            restricted_genfun_coeffs(s, 10, 3)


# --- the two bounded-part kernels ----------------------------------------------------
# _bounded_part_sums runs _python_part_sums while numpy is not loaded and
# _numpy_part_sums otherwise; numpy is always loaded here, so both are
# called directly.

def _kernel_grid(seed, count):
    # Real s, and complex s with |Im s| up to 10^3, Re s in (1, 6].
    rng = random.Random(seed)
    for _ in range(count):
        sigma = 1 + 10 ** rng.uniform(-3, math.log10(5))
        t = 0.0 if rng.random() < 0.4 else rng.choice((-1, 1)) * 10 ** rng.uniform(-1, 3)
        yield complex(sigma, t), round(2000 ** rng.random()), rng.randint(0, 6)


def test_kernels_agree_within_the_rounding_bound():
    for s, max_part, k_max in _kernel_grid(2801, 150):
        pure = _python_part_sums(s, max_part, k_max)
        array = _numpy_part_sums(s, max_part, k_max)
        assert len(pure) == len(array) == k_max + 1
        for t in range(k_max + 1):
            bound = _kernel_rounding(s, t, max_part)[1]
            assert abs(pure[t] - array[t]) <= bound, (s, max_part, t)


def test_python_kernel_matches_literal_enumeration():
    for s in (2, 3, 1.2 + 7j, 2.5 - 300j):
        s = complex(s)
        for max_part in range(1, 13):
            got = _python_part_sums(s, max_part, 4)
            assert got[0] == 1
            for t in range(1, 5):
                want = sum(math.prod(lam) ** -s
                           for lam in enumerate_partitions_fixed_length(t, max_part))
                assert abs(got[t] - want) <= 1e-12 * (1 + abs(want)), (s, max_part, t)


def test_truncation_bound_from_the_zeta_kernel_matches_the_numpy_sum():
    # zeta_M(sigma) as zeta(sigma) - zeta(sigma, M+1) plus both est_errors is
    # never below the term-by-term numpy sum.  Relative to zeta_M + T each
    # real-sigma est_error is about (20 + 10 depth) u, depth <= 7 here, and
    # the power (k - 1) multiplies the gap: under 1e-13 up to k = 5, and
    # (k - 1) 2.5e-14 in all.
    for s, max_part, k in _kernel_grid(2804, 300):
        k = max(k, 1)
        got = truncation_error_estimate(s, k, max_part)
        want = truncation_error_numpy_sum(s, k, max_part)
        assert want <= got <= want * (1 + (k - 1) * 2.5e-14), (s, max_part, k)


# --- pole_order_estimate --------------------------------------------------------------

def test_pole_orders_small_grid(monkeypatch):
    # The pole of the length-k value at s = 1/j has order floor(k/j).  The
    # probes lie at 1/j + d {1/4, 1/2, 1}, d = 0.004 / (j (j + 1)): the two
    # scales share the middle point, so each estimate takes three family
    # evaluations, and at j = 1 they are 1 + {5e-4, 1e-3, 2e-3}.
    calls = []

    def counting(s, k):
        calls.append(s)
        return partition_zeta_family(s, k)

    monkeypatch.setattr(numeric, "partition_zeta_family", counting)
    for k in range(1, 9):
        for j in range(1, k + 1):
            calls.clear()
            assert pole_order_estimate(k, j) == k // j, (k, j)
            d = 0.004 / (j * (j + 1))
            assert sorted(calls) == pytest.approx([1 / j + d / 4, 1 / j + d / 2, 1 / j + d], rel=1e-15, abs=0)
    calls.clear()
    pole_order_estimate(3, 1)
    assert sorted(calls) == [1 + 5e-4, 1 + 1e-3, 1 + 2e-3]


def test_pole_orders_are_floor_k_over_j_or_unstable():
    # Every pair j <= k <= 40 and a seeded sample up to k = 100, against
    # the paper's floor(k/j): an estimate may raise FitUnstable, but never
    # return a wrong order.
    rng = random.Random(2213)
    pairs = [(k, j) for k in range(1, 41) for j in range(1, k + 1)]
    for _ in range(40):
        k = rng.randint(41, 100)
        pairs.append((k, rng.randint(1, k)))
    wrong = []
    for k, j in pairs:
        try:
            got = pole_order_estimate(k, j)
        except FitUnstable:
            continue
        if got != k // j:
            wrong.append((k, j, got))
    assert wrong == []


def test_pole_order_validation():
    with pytest.raises(ValueError):
        pole_order_estimate(0, 1)
    with pytest.raises(ValueError):
        pole_order_estimate(3, 4)
    with pytest.raises(ValueError):
        pole_order_estimate(3, 0)
    # k and j are ints: s = 1/2.5 is no pole, and no partition has 2.5 parts.
    with pytest.raises(ValueError):
        pole_order_estimate(3, 2.5)
    with pytest.raises(ValueError):
        pole_order_estimate(2.5, 1)


def test_family_factors_are_riemann_zeta_calls(monkeypatch):
    # F_k's factors go through the public riemann_zeta, L calls at j s for
    # j = 1..L (L = k except past the stop on Re s > 1), so a wrapper on
    # numeric.riemann_zeta sees every one; a pole probe makes three family
    # evaluations, 3k calls.
    calls = []

    def counting(s):
        calls.append(s)
        return riemann_zeta(s)

    monkeypatch.setattr(numeric, "riemann_zeta", counting)
    for s, k in ((2 + 3j, 5), (-0.7 + 12j, 4), (3.5, 1), (2, 0)):
        calls.clear()
        partition_zeta_family(s, k)
        assert calls == [j * complex(s) for j in range(1, k + 1)], (s, k)
    # Past the stop on Re s > 1 only the L evaluated factors are calls.
    for s, k, length in ((3 + 1j, 60, 18), (1.7 - 3.1j, 40, 36), (30, 5, 1)):
        calls.clear()
        partition_zeta_family(s, k)
        assert calls == [j * complex(s) for j in range(1, length + 1)], (s, k)
    for k, j in ((4, 1), (4, 3), (7, 2)):
        calls.clear()
        pole_order_estimate(k, j)
        assert len(calls) == 3 * k, (k, j)


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
    form = ProductForm.subset_parts(lambda n: np.isin(n, (2, 3)))
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


@pytest.mark.parametrize("s", [2, 1.1, 2 + 5j, 3 - 1j])
def test_builtin_products_match_the_finite_product_times_its_tail(s):
    # The product over n <= N at 40 digits (term by term to n = 200, past
    # that through mpmath's zeta(js, 201) - zeta(js, N + 1)) times the same
    # first-order tail factor, around the head's end K = 64 and far past it.
    # Up to K only the head is summed; at K + 1 the kernel would cost more
    # than the one factor past K, so the loop runs to N; from 10^4 on the
    # tail runs through the kernel.
    mpmath = pytest.importorskip("mpmath")
    s = complex(s)
    for n_max in (numeric._HEAD - 1, numeric._HEAD, numeric._HEAD + 1, 10**4, 10**6):
        top = min(n_max, 200)
        with mpmath.workdps(40):
            z = mpmath.mpc(s.real, s.imag)
            powers = []  # sum_{top<n<=N} n^-js
            while n_max > top and 201 ** (-len(powers) * s.real) > 1e-42:
                js = (len(powers) + 1) * s
                powers.append(_mpmath_hurwitz(mpmath, js, 201, 40) - _mpmath_hurwitz(mpmath, js, n_max + 1, 40))
            tail = n_max ** (1 - z) / (z - 1)
            for form, lo, sign in ((ProductForm.distinct_parts(), 1, 1), (ProductForm.parts_not_one(), 2, -1)):
                log_sum = mpmath.fsum(mpmath.log(1 + sign * mpmath.power(n, -z)) for n in range(lo, top + 1))
                log_sum -= mpmath.fsum((-sign) ** j / j * p for j, p in enumerate(powers, 1))
                want = complex(mpmath.exp(sign * log_sum + tail))
                got = euler_product_eval(form, s, n_max)
                assert abs(got.value - want) <= 1e-13 * abs(want), (form.kind, s, n_max)
                assert got.terms_used == n_max - lo + 1
                if not s.imag:
                    assert got.value.imag == 0.0 and math.copysign(1.0, got.value.imag) == 1.0


def test_kernel_declines_at_its_budget_before_forming_a_power(monkeypatch):
    # Where terms_used would reach the budget the kernel returns None before
    # its rounding model forms the first power a^-sigma; one term more and
    # it sums, as without a budget.
    def no_power(*args):
        raise AssertionError("a power was formed")

    for s, a in ((2 + 0j, 65), (2 + 0j, 10**6 + 1), (3 + 50j, 65), (0.6 + 2e3j, 1), (2 + 1e3j, 1001)):
        want = _zeta_euler_maclaurin(s, 1.0, a)
        with monkeypatch.context() as patch:
            patch.setattr(numeric, "_power_rounding", no_power)
            assert _zeta_euler_maclaurin(s, 1.0, a, want.terms_used) is None, (s, a)
        assert _zeta_euler_maclaurin(s, 1.0, a, want.terms_used + 1) == want, (s, a)


def test_builtin_product_fallback_spends_under_the_factors_it_sums(monkeypatch):
    # Where the kernel declines or refuses, the factors are summed one by one
    # to N, which _phase_rounding(s, N) marks; the kernel sums before that
    # total under the N - 64 factors past the head.  At N = 65, and at
    # 2 + 10^6 i up to N = 10^4, the kernel declines at once; at
    # 1.5 + 2 10^6 i, N = 10^6, it sums some terms and then refuses; there
    # the loop's phase share refuses too, from N = 900 on.
    kernel, phase_rounding = numeric._zeta_euler_maclaurin, numeric._phase_rounding
    summed, tops = [], []

    def counting_kernel(*args):
        got = kernel(*args)
        summed.append(got.terms_used if got else 0)
        return got

    monkeypatch.setattr(numeric, "_zeta_euler_maclaurin", counting_kernel)
    monkeypatch.setattr(numeric, "_phase_rounding", lambda s, top: tops.append(top) or phase_rounding(s, top))
    fallbacks = []
    for s in (2, 1.1, 2 + 30j, 3 + 1e3j, 2 + 1e6j, 1.5 + 2e6j):
        for n_max in (65, 100, 150, 250, 1000, 10**4, 10**6):
            for form in (ProductForm.distinct_parts(), ProductForm.parts_not_one()):
                summed.clear()
                tops.clear()
                try:
                    euler_product_eval(form, s, n_max)
                except PrecisionLoss:
                    assert s == 1.5 + 2e6j
                if n_max in tops:
                    fallbacks.append((s, n_max, sum(summed)))
                    assert sum(summed) < n_max - numeric._HEAD, (form.kind, s, n_max)
    assert {(s, n) for s, n, _ in fallbacks} >= {(2, 65), (2 + 1e6j, 10**4), (1.5 + 2e6j, 10**6)}
    assert max(spent for s, _, spent in fallbacks if s == 1.5 + 2e6j) > 0


def test_builtin_product_plans_each_hurwitz_value_once(monkeypatch):
    # Through the kernel, a 10^6-factor product plans each zeta(js, a) once:
    # one _em_plan per kernel call, two summed calls per j.
    kernel, plan = numeric._zeta_euler_maclaurin, numeric._em_plan
    calls, plans = [], []
    monkeypatch.setattr(numeric, "_zeta_euler_maclaurin", lambda *args: calls.append(kernel(*args)) or calls[-1])
    monkeypatch.setattr(numeric, "_em_plan", lambda *args: plans.append(args) or plan(*args))
    for form in (ProductForm.distinct_parts(), ProductForm.parts_not_one()):
        for s in (2, 1.01, 2 + 1e3j):
            calls.clear()
            plans.clear()
            euler_product_eval(form, s, 10**6)
            assert calls and None not in calls and len(calls) % 2 == 0, (form.kind, s)
            assert len(plans) == len(calls), (form.kind, s)


def test_builtin_product_head_refuses_before_the_kernel(monkeypatch):
    # Where the head's phase share alone passes the threshold, the product
    # refuses naming n <= 64, before any kernel call.  From 2^53 on n no
    # longer converts to a double exactly: every form refuses the size.
    def no_kernel(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(numeric, "_zeta_euler_maclaurin", no_kernel)
    forms = (ProductForm.distinct_parts(), ProductForm.parts_not_one())
    for form in forms:
        with pytest.raises(PrecisionLoss, match="n <= 64 "):
            euler_product_eval(form, 2 + 1e12j, 10**14)
    for form in (*forms, ProductForm.subset_parts(lambda n: n % 2 == 0)):
        with pytest.raises(ValueError, match="2\\^53"):
            euler_product_eval(form, 2, 2**53)


def test_builtin_products_return_wherever_the_array_pass_did():
    # A seeded grid up to |Im s| = 10^5: every input returns a finite value
    # that agrees within est_error with one numpy pass over all the parts.
    rng = random.Random(2047)
    for i in range(80):
        kind, lo, sign = rng.choice((("distinct", 1, 1.0), ("not_one", 2, -1.0)))
        t = 0.0 if i % 4 == 0 else rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 5)
        s = complex(rng.uniform(1.0001, 6), t)
        n_max = int(10 ** rng.uniform(1, 6))
        got = euler_product_eval(ProductForm(kind), s, n_max)
        log_sum = numeric._array_log_sum(s, sign, np.arange(lo, n_max + 1, dtype=np.float64))
        density = len(range(max(lo, n_max // 2 + 1), n_max + 1)) / (n_max - n_max // 2)
        array = cmath.exp(sign * log_sum + density * n_max ** (1 - s) / (s - 1))
        assert cmath.isfinite(got.value) and math.isfinite(got.est_error), (kind, s, n_max)
        assert abs(got.value - array) <= got.est_error, (kind, s, n_max)


@pytest.mark.parametrize("form, lo, step, sign", [
    (ProductForm.distinct_parts(), 1, 1, 1),
    (ProductForm.parts_not_one(), 2, 1, -1),
    (ProductForm.subset_parts(lambda n: n % 3 == 0), 3, 3, -1),
], ids=["distinct", "not_one", "multiples_of_3"])
def test_products_refuse_on_the_rounding_of_their_phases(form, lo, step, sign):
    # The phases Im(s) log n are formed in double, so far up the imaginary
    # axis they are rounding noise: every form refuses before summing once
    # their share of est_error, 4 |Im s| u log N int_1^N x^-sigma, passes
    # 1e-8.  Below that the value is within est_error of the finite product
    # at 60 digits times the same first-order tail factor.
    mpmath = pytest.importorskip("mpmath")
    n_max = 1000
    s = 2 + 1e6j
    parts = range(lo, n_max + 1, step)
    density = sum(1 for n in parts if n > n_max // 2) / (n_max - n_max // 2)
    with mpmath.workdps(60):
        z = mpmath.mpc(s.real, s.imag)
        log_prod = sign * mpmath.fsum(mpmath.log(1 + sign * mpmath.power(n, -z)) for n in parts)
        want = complex(mpmath.exp(log_prod + density * mpmath.power(n_max, 1 - z) / (z - 1)))
    got = euler_product_eval(form, s, n_max)
    assert abs(got.value - want) <= got.est_error
    for s in (2 + 1e12j, 2 + 1e15j):
        with pytest.raises(PrecisionLoss):
            euler_product_eval(form, s, n_max)


def test_builtin_product_est_error_bounds_the_closed_forms():
    # Around the head's end and far past it, up to N = 2^53 - 1.
    closed = ((ProductForm.distinct_parts(), 2, math.sinh(math.pi) / math.pi),
              (ProductForm.parts_not_one(), 2, 2.0),
              (ProductForm.parts_not_one(), 3, 3 * math.pi / math.cosh(math.pi * math.sqrt(3) / 2)))
    for form, s, want in closed:
        for n_max in (2, 3, 63, 64, 65, 1000, 10**6, 10**14, 2**53 - 1):
            got = euler_product_eval(form, s, n_max)
            assert abs(got.value - want) <= got.est_error, (form.kind, s, n_max)


def test_product_past_the_double_range_is_precision_loss():
    # Near s = 1 the tail factor exp(N^(1-s) / (s-1)) passes the double
    # range on either route.
    for form in (ProductForm.distinct_parts(), ProductForm.subset_parts(lambda n: n % 2 == 0)):
        with pytest.raises(PrecisionLoss):
            euler_product_eval(form, 1.0001, 10**6)


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


def test_subset_predicate_is_called_once_on_an_int64_array():
    calls = []

    def admits(n):
        calls.append(n)
        return n % 2 == 0

    form = ProductForm.subset_parts(admits)
    assert len(calls) == 1  # the construction probe on parts 1 and 2
    for max_factor in (1, 1000, 10**5):
        before = len(calls)
        got = euler_product_eval(form, 2, max_factor)
        assert len(calls) == before + 1
        n = calls[-1]
        assert isinstance(n, np.ndarray) and n.dtype == np.int64
        assert np.array_equal(n, np.arange(1, max_factor + 1))
        assert got.terms_used == max_factor // 2


def test_subset_predicate_numeric_masks_are_honoured():
    want = euler_product_eval(ProductForm.subset_parts(lambda n: n % 3 == 0), 2, 1000)
    for admits in (lambda n: np.where(n % 3 == 0, n, 0),
                   lambda n: (n % 3 == 0).astype(np.float64)):
        got = euler_product_eval(ProductForm.subset_parts(admits), 2, 1000)
        assert got == want


@pytest.mark.parametrize("admits", [
    lambda n: n in (2, 3),                     # ValueError: ambiguous truth value
    lambda n: n in frozenset({2, 3}),          # TypeError: unhashable array
    lambda n: type(n) is int and n % 2 == 0,   # a scalar, not a mask
    lambda n: n[1:] % 2 == 0,                  # a mask of the wrong shape
], ids=["tuple", "frozenset", "scalar", "short_mask"])
def test_scalar_only_subset_predicate_is_an_invalid_form(admits):
    with pytest.raises(InvalidForm):
        ProductForm.subset_parts(admits)


def test_subset_mask_shape_is_checked_on_the_full_array():
    # Right shape on the construction probe, wrong on the evaluation.
    form = ProductForm.subset_parts(lambda n: (n % 2 == 0)[:2])
    with pytest.raises(InvalidForm):
        euler_product_eval(form, 2, 1000)


def test_subset_mask_matches_explicitly_listed_parts():
    # The mask path against factors over Python-int parts listed one by
    # one.  The two sides round each factor and the sum differently, each
    # by a few u per factor, so the tolerance is 8 u per admitted part.
    rng = random.Random(1207)
    for trial in range(60):
        max_factor = rng.choice([1, 2, 3, rng.randint(4, 3000)])
        if trial % 2:
            modulus = rng.randint(2, 12)
            residues = rng.sample([r for r in range(modulus) if r != 1],
                                  rng.randint(1, modulus - 1))
            admits = lambda n, m=modulus, r=residues: np.isin(n % m, r)
            parts = [n for n in range(2, max_factor + 1) if n % modulus in residues]
        else:
            allowed = rng.sample(range(2, 80), rng.randint(1, 10))
            admits = lambda n, a=allowed: np.isin(n, a)
            parts = sorted(n for n in allowed if n <= max_factor)
        s = complex(rng.uniform(1.2, 4.0), rng.choice([0.0, rng.uniform(-30, 30)]))
        got = euler_product_eval(ProductForm.subset_parts(admits), s, max_factor)
        want = subset_euler_product(parts, s, max_factor)
        assert got.terms_used == len(parts), (trial, max_factor)
        assert abs(got.value - want) <= 8 * 2**-53 * max(1, len(parts)) * abs(want), (trial, s)


# --- EvalResult serialization ----------------------------------------------------

def test_eval_result_json_shape():
    r = EvalResult(1.5 - 2.5j, 1e-12, 42)
    assert r.to_json() == {
        "value": {"re": 1.5, "im": -2.5},
        "est_error": 1e-12,
        "terms_used": 42,
    }
