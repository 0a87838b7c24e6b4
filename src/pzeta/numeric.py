"""Floating-point analytics on the complex plane.

Riemann zeta through Euler-Maclaurin summation (reflected by the functional
equation on the left half plane), fixed-length partition zeta values from
zeta(s), ..., zeta(ks) by the O(k^2) Newton recurrence, sums over bounded
partitions, restricted Euler products, and pole orders.  On Re s > 1 the
recurrence stops at the shortest length L whose proven tail bound
T(Re s, L) (_family_tail) is at most u, so F_k costs O(min(k, L)^2) there
and its est_error carries T where L < k.  One
Euler-Maclaurin kernel sums n^-s from any start a: a = 1 for zeta, and the
Hurwitz values zeta(js, a) for the tails of the built-in Euler products.

All floating point is double precision.  Every evaluation returns an
EvalResult carrying an absolute error bound (heuristic only for the Euler
products' tail).  Each rounding bound on a sum of powers n^-s rests on one
model, proved once in _power_rounding: a computed n^-s errs by at most
(2 |Im s| log n + 20) u relative, u = 2^-53, as its phase Im(s) log n is
rounded twice.  For zeta est_error is the Euler-Maclaurin remainder bound
plus that rounding bound (on the reflected branch, with Gamma by
Stirling's series and a proven remainder); zeta results whose bound
exceeds PRECISION_LOSS_THRESHOLD are not returned but raised as
PrecisionLoss, with the untrusted value attached when one was computed.
One gate refuses on a rounding share alone: zeta's partial sum, and the
phase share of the generating-function coefficients and the Euler
products, before summing; a direct sum's phase share after, with its
value attached.  Non-finite s raises DomainError on every public entry,
and so does an s for which s log n overflows in the routines that form
n^-s up to a caller's cutoff.

numpy is imported only inside _numpy_part_sums and _subset_parts and
_array_log_sum (a subset form's parts and their one array pass), so
importing the package, the zeta, F_k and pole-order paths, the built-in
Euler products, distinct and not_one, and truncation_error_estimate never
load it.  _bounded_part_sums, the kernel of restricted_genfun_coeffs and
direct_sum_truncated, runs the same recurrence in pure Python while numpy
is not loaded and max_part (k_max + 1) is at most _PURE_KERNEL_CAP, and in
numpy otherwise: so a fresh `pzeta oracle` or `pzeta genfun` at default
sizes never imports it.  The two kernels may differ in the last bits of a
coefficient, and each stays within _kernel_rounding's one bound.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul

from .errors import (
    DivergenceRegion,
    DomainError,
    FitUnstable,
    InvalidForm,
    PoleAt1,
    PoleProximity,
    PrecisionLoss,
    integer_size,
)
from .exact import bernoulli_numbers
from .partitions import complete_homogeneous

#: Half-width of the neighbourhood around a pole treated as "at the pole".
POLE_EXCLUSION_RADIUS = 1e-9
#: A zeta result whose est_error bound exceeds this is refused.
PRECISION_LOSS_THRESHOLD = 1e-8
_PHASE_LOSS = ("rounding of the phases Im(s) log n for n <= {} at s = {} alone exceeds "
               f"{PRECISION_LOSS_THRESHOLD:.0e}")
_SUM_LOSS = f"rounding over N = {{:.3g}} terms at s = {{}} alone exceeds {PRECISION_LOSS_THRESHOLD:.0e}"


class EvalResult(namedtuple("EvalResult", "value est_error terms_used")):
    """A complex value, a bound on its absolute error (heuristic only for
    euler_product_eval's tail), and the number of summation terms consumed
    producing it: a read-only (value, est_error, terms_used) record that
    compares and hashes as that triple."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "est_error": self.est_error,
            "terms_used": self.terms_used,
        }


def _finite(result: EvalResult) -> EvalResult:
    # NaN or infinity never escapes a public operation.
    v = result.value
    if not (math.isfinite(v.real) and math.isfinite(v.imag)) or not math.isfinite(result.est_error):
        raise PrecisionLoss("evaluation produced a non-finite value", partial=result)
    return result


def _finite_arg(s: complex) -> complex:
    if not cmath.isfinite(s := complex(s)):
        raise DomainError(f"s must be finite, got {s}")
    return s


def _convergent_arg(s: complex, n_max: int, sizes_ok: bool, sizes: str) -> complex:
    # The checks of the sums and products over n <= n_max that need
    # Re(s) > 1, in order: s finite, Re(s) > 1, the sizes valid (else a
    # ValueError saying ``sizes``), s log n_max in the double range.  For
    # n^-s = exp(-s log n): where the phase Im(s) log n leaves that range
    # CPython reports cos(inf) as a ZeroDivisionError and numpy returns NaN;
    # where Re(s) log n does, numpy warns of an overflow.
    s = _finite_arg(s)
    if s.real <= 1:
        raise DivergenceRegion(f"requires Re(s) > 1, got {s.real}")
    if not sizes_ok:
        raise ValueError(sizes)
    if not cmath.isfinite(s * math.log(n_max)):
        raise DomainError(f"s log n overflows for n <= {n_max}, s = {s}")
    return s


def _refuse_past(share: float, template: str, n: int, s: complex, partial=None) -> None:
    # The one gate on a rounding share: PrecisionLoss where it alone passes
    # PRECISION_LOSS_THRESHOLD, its message formatted from (n, s) only then.
    if share > PRECISION_LOSS_THRESHOLD:
        raise PrecisionLoss(template.format(n, s), partial=partial)


def _trusted(result: EvalResult) -> EvalResult:
    # Zeta evaluations additionally refuse results whose error bound
    # exceeds the trust threshold.  Truncation-controlled operations
    # (direct sums, Euler products) do not: their est_error is mostly a
    # tail bound the caller steers explicitly via the truncation parameter
    # (direct sums refuse only on their rounding share).
    _finite(result)
    if result.est_error > PRECISION_LOSS_THRESHOLD:
        raise PrecisionLoss(
            f"estimated error {result.est_error:.3e} exceeds {PRECISION_LOSS_THRESHOLD:.0e}",
            partial=result,
        )
    return result


def _sinpi(z: complex) -> complex:
    """sin(pi z) with exact argument reduction on the real part, so integer
    z gives exactly zero (plain cmath.sin(pi*z) leaves an absolute error
    around |z| * 1e-16, which Gamma factors then amplify)."""
    n = round(z.real)
    inner = cmath.sin(math.pi * (z - n))  # z - n is exact for |Re z| < 2^52
    return inner if n % 2 == 0 else -inner


@lru_cache
def _em_factors(count: int) -> tuple[float, ...]:
    # B_{2r} / (2r)! as floats for r = 0..count-1 (index by r); a tuple,
    # because every caller with the same depth shares the cached table.
    bs = bernoulli_numbers(2 * count)
    return tuple(float(bs[2 * r]) / math.factorial(2 * r) for r in range(count))


#: Unit roundoff of a double.
_U = 2.0**-53
#: Absolute target for the Euler-Maclaurin remainder bound.
_LOG_EM_TARGET = math.log(1e-16)
#: Deepest correction depth; float(B_2r) / (2r)! converts while (2r)! < 2^1024.
_MAX_CORRECTIONS = 80
#: Cost of one correction depth in partial-sum terms.  The correction step
#: costs about two terms and the planner's step about three; call times
#: with weights 4 and 8 agree within noise, so the value is not critical.
_CORRECTION_COST = 4
_LOG_2 = math.log(2.0)
_LOG_4 = math.log(4.0)
_LOG_2PI = math.log(2 * math.pi)
_LOG_4PI2 = 2 * _LOG_2PI
_HALF_LOG_2PI = 0.5 * _LOG_2PI
#: _em_plan's constants for each depth M = 1..80: M, then as floats 2M - 1,
#: M log 4 pi^2, the cost 4M of M corrections and the cost 4 (M + 1).
_EM_DEPTHS = tuple((m, float(2 * m - 1), m * _LOG_4PI2, float(_CORRECTION_COST * m),
                    float(_CORRECTION_COST * (m + 1))) for m in range(1, _MAX_CORRECTIONS + 1))
#: Stirling's coefficients B_2r / (2r (2r - 1)), r = 1..8.
_STIRLING = tuple(float(bernoulli_numbers(16)[2 * r] / (2 * r * (2 * r - 1))) for r in range(1, 9))
#: |z| from which the eight terms of _stirling_series are summed.
_STIRLING_RADIUS = 15


def _stirling_series(z: complex) -> complex:
    """sum_{r<=8} c_r z^(1-2r), the series in
    log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2 + series + R; for
    Re z > 0 and |z| >= 15, |R| < 2^9 |B_18| / (18 17 15^17) < 1e-18
    (DLMF 5.11(ii): sec^18(arg(z)/2) <= 2^9 times the first omitted term)."""
    w = 1 / z
    w2 = w * w
    c1, c2, c3, c4, c5, c6, c7, c8 = _STIRLING
    return w * (c1 + w2 * (c2 + w2 * (c3 + w2 * (c4 + w2 * (c5 + w2 * (c6 + w2 * (c7 + w2 * c8)))))))


def _em_plan(s: complex, a: int = 1) -> tuple[int, int, float]:
    """Cutoff N >= a, depth M and the bound on the Euler-Maclaurin remainder
    of sum_{n>=a} n^-s after M corrections (Johansson, arXiv:1309.2877,
    Theorem 1, stated for the Hurwitz zeta function; the bound depends on
    the cutoff N, not on a):

        |R| <= 4 |(s)_2M| / ((2 pi)^2M (sigma + 2M - 1)) * N^(1 - sigma - 2M),

    valid for sigma + 2M > 1, since |B_2M| <= 4 (2M)! / (2 pi)^2M.  Picks
    the cheapest pair whose bound meets 1e-16, at a cost of the powers n^-s
    for a <= n <= N plus 4 per depth: the first depth M whose cost does not
    fall at M + 1, walking the depths up from 1 with one pair of logs
    log |s + 2M - 2| + log |s + 2M - 1| per depth.  The walk stops as soon
    as the cutoff is within 4 of a - 1, since no deeper depth can then cost
    less.  Every caller has sigma >= 1/2, so no Pochhammer factor
    vanishes."""
    sigma, t = s.real, s.imag
    log, hypot, exp = math.log, math.hypot, math.exp
    best, skipped, log_poch = math.inf, float(a - 1), 0.0
    for m, odd, log_scale, corrections, next_corrections in _EM_DEPTHS:
        e = sigma + odd
        # log |(s)_2M|, each new factor logged apart so that neither overflows
        log_poch += log(hypot(e - 1, t)) + log(hypot(e, t))
        log_c = _LOG_4 + log_poch - log_scale - log(e)
        x = (log_c - _LOG_EM_TARGET) / e
        n = exp(x if x < 700.0 else 700.0)
        cost = (n if n > skipped else skipped) + corrections
        if cost >= best:
            break
        best, depth, pick_c, pick_e, pick_n = cost, m, log_c, e, n
        # cost(M + 1) >= skipped + 4 (M + 1), in floating point too.
        if cost <= skipped + next_corrections:
            break
    n = max(2, a, math.ceil(pick_n))
    log_bound = pick_c - pick_e * math.log(n)
    return n, depth, math.exp(log_bound) if log_bound < 709.0 else math.inf


def _power_rounding(s: complex, a: int, n_cut: int, log_n: float) -> tuple[float, float, float]:
    """The rounding model of n^-s, for the terms a <= n <= N = n_cut given
    log_n = log N: (2 |t| log N, Z, P), t = Im(s), with

        Z = a^-sigma + Z1 >= sum n^-sigma,  Z1 = int_a^N x^-sigma dx,
        P = 2 |t| (log N Z1 + log a a^-sigma) >= sum 2 |t| log n n^-sigma.
    """
    # CPython forms n^-s as n^-sigma (cos, sin)(t log n), and numpy its
    # phase as s.imag * log(n): two roundings in t log n, so each n^-s has a
    # relative error of at most (2 |t| log n + 20) u; 20 covers pow,
    # cos/sin, the products and the repeated squaring CPython uses for
    # integer s <= 100.  The first term is the n = a one; each later one is
    # at most int_(n-1)^n x^-sigma, so they sum to at most
    # Z1 = a a^-sigma expm1((1 - sigma) log(N/a)) / (1 - sigma) (log(N/a) at
    # sigma = 1) with phases 2 |t| log n <= 2 |t| log N.  At a = 1 the n = 1
    # term is exactly 1 + 0j and log a is exactly 0, so P falls on Z1
    # alone; |t| multiplies last, so P overflows only where it is infinite.
    sigma, head = s.real, a ** -s.real
    log_ratio = math.log(n_cut / a)
    x = (1 - sigma) * log_ratio
    z1 = a * head * math.expm1(min(x, 700.0)) / (1 - sigma) if x else log_ratio
    t = abs(s.imag)
    return t * (2 * log_n), head + z1, t * (2 * (log_n * z1 + math.log(a) * head))


def _em_partial_rounding(s: complex, a: int, n_cut: int) -> tuple[float, float]:
    """(2 |t| log N, the rounding bound in units of u of the partial sum of
    n^-s over a <= n < N = n_cut) from _power_rounding: (21 + N - a) Z + P,
    the model's 20 on each term and the N - a additions from 0j, each
    erring by at most |S_k| <= Z.  Far right N = 2 and Z1 is about
    1 / (sigma - 1), so P passes 1e-8 / u only from |t| ~ 6e7 sigma."""
    phase, z, p = _power_rounding(s, a, n_cut, math.log(n_cut))
    return phase, (21 + n_cut - a) * z + p


def _zeta_euler_maclaurin(s: complex, scale: float = 1.0, a: int = 1) -> EvalResult:
    # Direct branch: sum_{n>=a} n^-s as the partial sum over a <= n < N plus
    # the integral, half-term and M Bernoulli corrections, with (N, M) from
    # _em_plan(s, a).  est_error is the remainder bound plus a rounding
    # bound.  The caller multiplies the result by a factor of modulus
    # ``scale``.
    n_cut, depth, bound = _em_plan(s, a)
    # Rounding, in units of u: the partial sum's share from
    # _em_partial_rounding, refused before summing where it alone is too
    # large.  The integral and half-term carry the model's error of N^-s,
    # 2 |t| log N + 20, plus a few roundings; correction r adds at most 9r
    # more in w and its Bernoulli factor, and summing M corrections M more.
    phase, summed = _em_partial_rounding(s, a, n_cut)
    _refuse_past(scale * (_U * summed), _SUM_LOSS, n_cut, s)
    # Added left to right from 0j, the order _em_partial_rounding bounds.
    partial = sum(map(pow, range(a, n_cut), repeat(-s)), 0j)
    x = n_cut ** (-s)
    tail = n_cut * x / (s - 1) + 0.5 * x
    factors = _em_factors(depth + 1)
    # w = (s)_{2r-1} N^(1-s-2r), the correction without its Bernoulli
    # factor; each step multiplies by (s+2r-1)(s+2r)/N^2, so no depth can
    # overflow where the bound is small.
    w = s * x / n_cut
    inv_n2 = 1.0 / (n_cut * n_cut)
    corr = 0j
    size = 0.0  # sum of |corrections|
    for r in range(1, depth + 1):
        term = factors[r] * w
        corr += term
        size += abs(term)
        w *= (s + (2 * r - 1)) * (s + 2 * r) * inv_n2
    value = partial + tail + corr
    mags = abs(x) * (n_cut / abs(s - 1) + 0.5) + size
    # Where N^-s underflows, mags is 0 and so is its share, even where the
    # phase 2 |t| log N is infinite (inf * 0 would make the bound NaN).
    share = (phase + 20 + 10 * depth) * mags if mags else 0.0
    rounding = _U * (summed + share)
    return EvalResult(value, bound + rounding, n_cut - a + 1 + depth)


def _gamma(z: complex) -> complex:
    """Gamma(z) for Re(z) >= 1/2, by Stirling's series (_stirling_series)
    after shifting to |z| >= 15."""
    p = 1.0  # Gamma(z) = Gamma(z + m) / (z (z + 1) ... (z + m - 1))
    while abs(z) < _STIRLING_RADIUS:
        p *= z
        z += 1
    series = _stirling_series(z)
    x, y, log_z = z.real, z.imag, cmath.log(z)
    # Each part as large as |z| log |z| is rounded once before the last sum.
    re = ((x - 0.5) * log_z.real - (x - _HALF_LOG_2PI - series.real)) - y * log_z.imag
    im = y * log_z.real + ((x - 0.5) * log_z.imag + series.imag - y)
    return cmath.rect(math.exp(re), im) / p


def _zeta_functional(s: complex) -> EvalResult:
    # Reflected branch: zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s).
    if abs(s) < 1e-6:
        # At s = 0 the sin zero meets the zeta(1-s) pole; use the Taylor
        # expansion zeta(s) = -1/2 - log(2 pi) s / 2 + O(s^2) instead.
        value = -0.5 - _HALF_LOG_2PI * s
        return EvalResult(value, 2.0 * abs(s) ** 2 + 1e-16, 0)
    if s.imag == 0 and _sinpi(s / 2) == 0:
        # A trivial zero s = -2n: the sine is exactly 0, so zeta is too,
        # however far Gamma(1 - s) overflows.  terms_used counts the plan of
        # the inner sum that the zero spares.
        n_cut, depth, _ = _em_plan(1 - s)
        return EvalResult(0j, 0.0, n_cut + depth)
    try:
        prefactor = 2**s * math.pi ** (s - 1) * _sinpi(s / 2) * _gamma(1 - s)
    except (OverflowError, ValueError, ZeroDivisionError):
        # Where |t| log pi passes the double range, pi^(s - 1) meets cos(inf),
        # which CPython reports as a ZeroDivisionError (see _convergent_arg);
        # where Gamma's phase does, cmath.rect raises a ValueError.
        prefactor = math.nan
    if not cmath.isfinite(prefactor):
        # Where pi |t| / 2 does, sin(pi s / 2) is infinite without an
        # OverflowError, and its product with Gamma(1 - s) = 0 is NaN.
        raise PrecisionLoss(f"the reflection prefactor overflows at s = {s}")
    inner = _zeta_euler_maclaurin(1 - s, abs(prefactor))
    value = prefactor * inner.value
    # Relative error beyond inner's, in units of u, each operation (libm's
    # too) erring by at most u.  Gamma at z = 1 - s = x + iy, ell = log |z|
    # >= log 15: log |z| and theta = arg z err by ell + 1 and |theta|, so the
    # exponent errs by |y| (3 ell + 1) + 3 |y theta| + 5 (x - 1/2) |theta| +
    # (x - 1/2)(4 ell - 1) + 2x + 4 <= |y| (3 ell + 6) + x (4 ell + 9), and
    # the series, R and the exp add 4.  For |z| < 15 that is under 397 at the
    # shifted z (|z| < 16), plus 14 products (sqrt 5 each), the division (6)
    # and (1 + 2 + 4 + 8) |psi| < 48 where Re z + 1 rounds passing 1, 2, 4, 8,
    # so Gamma errs by under 510 + |y| (3 ell + 6) + x (4 ell + 9).  Rounding
    # 1 - s moves Gamma by (1 - sigma) |psi| < 50 + (1 - sigma)(ell + 1).  The
    # phases of 2^s, pi^(s-1) and sin err by 6.83 |t| (sin's by 1.35 u |w cot w|
    # <= 1.35 u (1 + 1.32 |Im w|)), their moduli by 1.5 (1 - sigma) + 25, and
    # the four products by 9.
    ell = math.log(abs(1 - s))
    rel = _U * (600 + abs(s.imag) * (3 * ell + 13) + (1 - s.real) * (5 * ell + 12))
    est = abs(prefactor) * inner.est_error + abs(value) * rel
    return EvalResult(value, est, inner.terms_used)


def _distance_to_one(s: complex) -> float:
    # |s - 1| without abs()'s raw OverflowError past the double range.
    distance = math.hypot(s.real - 1, s.imag)
    if distance == math.inf:
        raise DomainError(f"|s - 1| passes the double range at s = {s}")
    return distance


def riemann_zeta(s: complex) -> EvalResult:
    """Riemann zeta on the complex plane; the pole at s = 1 is excluded.

    Re(s) >= 1/2 is summed directly by Euler-Maclaurin: N - 1 terms, the
    integral and half-term, and M Bernoulli corrections, with (N, M) the
    cheapest pair whose remainder bound
    4 |(s)_2M| N^(1-Re s-2M) / ((2 pi)^2M (Re s + 2M - 1)) is at most
    1e-16.  Re(s) < 1/2 reflects through the functional equation.

    est_error is the remainder bound plus a rounding bound, which grows
    like |Im s| log N u (u = 2^-53); the reflected branch scales it by the
    prefactor and adds the prefactor's rounding, Gamma's included.  A bound past
    PRECISION_LOSS_THRESHOLD raises PrecisionLoss: on the critical line
    from about |Im s| = 3 10^4, and before any term is summed once the
    partial sum's share of the rounding bound alone passes it.  Non-finite
    s, or an s whose |s - 1| passes the double range, raises DomainError.
    partition_zeta_family takes each of its factors zeta(j s) from here.
    """
    s = _finite_arg(s)
    if _distance_to_one(s) < POLE_EXCLUSION_RADIUS:
        raise PoleAt1(f"s = {s} lies within {POLE_EXCLUSION_RADIUS} of the pole at s = 1")
    if s.real >= 0.5:
        return _trusted(_zeta_euler_maclaurin(s))
    return _trusted(_zeta_functional(s))


def _family_tail(sigma: float, n: int) -> float:
    """T(sigma, n) = 2^(-sigma (n+1)) C(sigma), an upper bound on the sum
    over i > n of |G_i(s)| at sigma = Re s > 1, padded for its own
    rounding, with C(sigma) = exp(r (1 + 3/(sigma-1)) / (1-r)) / (1 - 2^-sigma)
    and r = (2/3)^sigma."""
    # Removing the parts equal to 1 from a length-i partition leaves one
    # into parts >= 2 of the same norm, so F_k = sum_{i<=k} G_i, G_i the
    # sum of N(lambda)^-s over the partitions into exactly i parts >= 2, and
    # |F_k - F_n| <= sum_{i>n} g_i for k >= n, g_i >= |G_i(s)| the same sum
    # at real sigma.  Split off the parts equal to 2:
    #     sum_i g_i x^i = (1 - x 2^-sigma)^-1 prod_{m>=3} (1 - x m^-sigma)^-1
    #                   = sum_a (x 2^-sigma)^a sum_b H_b x^b,  H_b >= 0.
    # For i = a + b > n, a runs from max(0, n+1-b), and for b > n the
    # whole geometric sum 1 / (1 - 2^-sigma) is at most 2^(sigma (b-n-1))
    # times itself, so sum_{i>n} g_i <= 2^(-sigma (n+1)) / (1 - 2^-sigma)
    # sum_b H_b 2^(sigma b): Rankin's trick at x = 2^sigma on the m >= 3
    # product.  Its factors have y_m = (2/m)^sigma <= r, where
    # -log(1 - y) <= y / (1 - r), and sum_{m>=3} y_m <= 2^sigma (3^-sigma +
    # int_3^inf x^-sigma dx) = r (1 + 3/(sigma-1)), so the product is at
    # most exp(r (1 + 3/(sigma-1)) / (1 - r)).
    #
    # Rounding.  The exponent is A - B, A = a + c with a = r (1 +
    # 3/(sigma-1)) / (1-r) and c = -log1p(-2^-sigma), B = sigma (n+1) log 2.
    # Each step errs by at most u: r by (sigma + 1) u relative (2/3
    # rounded, then pow), 1 / (1 - r) by 2 (sigma + 1) u more (r <= 2/3)
    # plus 2 u, so a by (3 sigma + 10) u a in all; c by 3 u c (the slope of
    # log1p(-y) is at most 2 on y <= 1/2), B by 3 u B, and the two
    # additions by u (A + B) each.  The factors 1 + 4 u (sigma + 4) on A
    # and 1 - 8 u on B cover those (3 sigma + 12) u A + 5 u B and their own
    # roundings, and the last factor 1 + 4 u covers exp's and its own.
    r = (2 / 3) ** sigma
    lead = r * (1 + 3 / (sigma - 1)) / (1 - r) - math.log1p(-(2.0**-sigma))
    exponent = lead * (1 + 4 * _U * (sigma + 4)) - sigma * _LOG_2 * (n + 1) * (1 - 8 * _U)
    try:
        return math.exp(exponent) * (1 + 4 * _U)
    except OverflowError:  # near sigma = 1, at small n: T is far above u
        return math.inf


def _family_length(sigma: float, k: int) -> tuple[int, float]:
    """(L, the tail bound to add) for F_k at Re s = sigma: on sigma > 1 the
    shortest L = min(k, max(n, 1)) whose _family_tail(sigma, n) is at most
    u, with T(sigma, L) where L < k; (k, 0.0) where there is no such n < k
    or sigma <= 1."""
    # T(sigma, n) > 2^(-sigma (n+1)), so T(sigma, n) <= u = 2^-53 needs
    # n + 1 > 53 / sigma; the walk starts one below that bound, for its
    # rounding.
    if sigma <= 1:
        return k, 0.0
    for n in range(max(1, int(53 / sigma) - 1), k):
        tail = _family_tail(sigma, n)
        if tail <= _U:
            return n, tail
    return k, 0.0


def partition_zeta_family(s: complex, k: int) -> EvalResult:
    """Fixed-length partition zeta value: the sum of N(lambda)^(-s) over all
    partitions of length k, continued to the complex plane through

        sum over lambda of k of
        zeta(s)^{m_1} zeta(2s)^{m_2} ... zeta(ks)^{m_k} / (N(lambda) m_1!...m_k!).

    computed as h_k(zeta(s), ..., zeta(ks)) by complete_homogeneous.  With
    a_j = |zeta(js)|, e_j its est_error and A the same recurrence on the a_j,
    est_error is D_k, D_n = (1/n) sum_j [(a_j + e_j) D_{n-j} + e_j A_{n-j}]
    + (n + 2) u A_n: the zeta errors propagated as through the partition sum,
    plus the rounding of step n (u = 2.5e-16 >= sqrt(5) 2^-53 per complex
    product).  terms_used is the zeta terms plus k(k+1)/2 recurrence products.

    On Re s > 1 the recurrence stops early: every F_k with k >= n lies
    within T(Re s, n) of F_n, the tail bound proven in _family_tail.  With
    L = min(k, max(n, 1)) for the least n whose T is at most 2^-53, F_k is
    returned as h_L on the factors zeta(s), ..., zeta(Ls) only, with
    est_error D_L + T(Re s, L) where L < k and terms_used counting those L
    factors and L(L+1)/2 products; the result is the same for every k > L
    (L = 36 at Re s = 1.7, 18 at 3).  Elsewhere L = k.

    k = 0 returns exactly 1.  Rejects s within POLE_EXCLUSION_RADIUS of any
    pole s = 1/j, 1 <= j <= k, with PoleProximity naming the offending j,
    and a finite s whose multiple j s, or its distance to 1, overflows with
    DomainError, for every j <= k.  Each factor is riemann_zeta(j s), so it
    fails as that call does; a factor j > L is never evaluated, so its
    refusal does not refuse F_k.  A non-integer k raises ValueError.
    """
    k = integer_size("k", k)
    s = _finite_arg(s)
    if k < 0:
        raise ValueError("k must be >= 0")
    x, y = s.real, s.imag
    for j in range(1, k + 1):
        # |s - 1/j| without abs()'s OverflowError; riemann_zeta refuses an
        # s past the double range.
        if math.hypot(x - 1 / j, y) < POLE_EXCLUSION_RADIUS:
            raise PoleProximity(j)
        if not cmath.isfinite(j * s):
            raise DomainError(f"j s overflows at j = {j}, s = {s}")
    length, tail = _family_length(x, k)
    zetas = [riemann_zeta(j * s) for j in range(1, length + 1)]
    for j in range(length + 1, k + 1):
        _distance_to_one(j * s)  # the first check riemann_zeta(j s) would make
    value = complete_homogeneous([z.value for z in zetas], 1 + 0j)[length]
    a = [abs(z.value) for z in zetas]
    e = [z.est_error for z in zetas]
    A = complete_homogeneous(a, 1.0)
    # The sum over j of (a_j + e_j) D_{n-j} + e_j A_{n-j}, j = 1..n, on
    # D_{n-1}, ..., D_0 kept newest first, term by term as the plain loop.
    c = list(map(add, a, e))
    d, past = 0.0, []
    for n in range(1, length + 1):
        past.insert(0, d)
        acc = sum(map(add, map(mul, c, past), map(mul, e, A[n - 1::-1])))
        d = acc / n + (n + 2) * 2.5e-16 * A[n]
    terms = sum(z.terms_used for z in zetas) + length * (length + 1) // 2
    return _finite(EvalResult(value, d + tail, terms))


#: Size cap of _bounded_part_sums's pure-Python kernel.  At the cap its
#: passes take about 8-12 ms, the powers n^-s the larger share, against the
#: ~130 ms that importing numpy costs a fresh process (2 shared CPUs,
#: Python 3.11.7).
_PURE_KERNEL_CAP = 10**5


def _bounded_part_sums(s: complex, max_part: int, k_max: int) -> list[complex]:
    # f_t(n) = f_t(n-1) + n^-s f_(t-1)(n): one cumulative sum per t, added
    # left to right from n = 1 by either kernel.  numpy's runs wherever
    # numpy is already loaded, so a process that has paid for its import
    # keeps the faster passes.
    if sys.modules.get("numpy") is None and max_part * (k_max + 1) <= _PURE_KERNEL_CAP:
        return _python_part_sums(s, max_part, k_max)
    return _numpy_part_sums(s, max_part, k_max)


def _python_part_sums(s: complex, max_part: int, k_max: int) -> list[complex]:
    w = list(map(pow, range(1, max_part + 1), repeat(-s)))
    f = repeat(1.0)
    out = [1 + 0j]
    for _ in range(k_max):
        f = list(accumulate(map(mul, w, f)))
        out.append(f[-1])
    return out


def _numpy_part_sums(s: complex, max_part: int, k_max: int) -> list[complex]:
    import numpy as np

    w = np.arange(1, max_part + 1, dtype=np.float64) ** (-s)
    f = np.ones(max_part, dtype=np.complex128)
    out = [1 + 0j]
    for _ in range(k_max):
        f = np.cumsum(w * f)
        out.append(complex(f[-1]))
    return out


def _kernel_rounding(s: complex, k: int, max_part: int) -> tuple[float, float]:
    """Rounding bound of _bounded_part_sums's z^k coefficient, as (the share
    of the phases Im(s) log n, the whole bound)."""
    # With (2 |t| log M, Z, _) from _power_rounding over 1 <= n <= M, every
    # exact |f_t(n)| is at most h_t(1, ..., M^-sigma) <= Z^t.  In units of
    # u, per pass and relative to that bound: the model's phase share is at
    # most 2 |t| log M; numpy's modulus exp(-sigma log n) errs by
    # 2 sigma log n, which weighted by n^-sigma averages under log M (under
    # 2.3 from sigma = 2 on; checked numerically for M <= 10^7), and
    # CPython's, from pow(n, -sigma) or repeated squaring, by a few u, within
    # the model's 20, which covers the rest with the product w f; either
    # kernel's sequential sum adds u |partial sum| per step (componentwise,
    # so in modulus too), under M in all.  The k passes add up: phase share
    # 2 k u |t| log M Z^k, whole bound k u ((2 |t| + 1) log M + M + 20) Z^k,
    # one bound for both kernels, whose coefficients may differ in the last
    # bits.
    log_m = math.log(max_part)
    top, z, _ = _power_rounding(s, 1, max_part, log_m)
    try:
        growth = k * _U * z ** k
    except OverflowError:
        growth = math.inf
    phase = top * growth if s.imag else 0.0
    return phase, phase + (log_m + max_part + 20) * growth


def restricted_genfun_coeffs(s: complex, max_part: int, k_max: int) -> list[complex]:
    """Coefficients of z^0..z^k_max in prod_{n<=max_part} 1/(1 - z n^(-s)).

    The z^k coefficient is f_k(max_part), the sum of N(lambda)^(-s) over the
    partitions with exactly k parts, all <= max_part.  The recurrence
    f_t(n) = f_t(n-1) + n^-s f_(t-1)(n) is one cumulative sum per t, so the
    cost is k_max * max_part operations; no zeta or partition-sum formula
    enters, so it stays an independent oracle, pinned against explicit
    enumeration in the tests.  The coefficients stay within the rounding
    bound direct_sum_truncated reports.  Requires Re(s) > 1,
    1 <= max_part < 2^53 (as euler_product_eval's max_factor) and
    k_max >= 0; non-finite s, or s log max_part past the double range,
    raises DomainError.  Where the rounding of the phases Im(s) log n alone
    could move the z^k_max coefficient by more than
    PRECISION_LOSS_THRESHOLD (the share direct_sum_truncated adds to its
    est_error), raises PrecisionLoss before summing.
    """
    max_part, k_max = integer_size("max_part", max_part), integer_size("k_max", k_max)
    s = _convergent_arg(s, max_part, 1 <= max_part < 2**53 and k_max >= 0,
                        "max_part must be >= 1 and below 2^53, and k_max >= 0")
    _refuse_past(_kernel_rounding(s, k_max, max_part)[0], _PHASE_LOSS, max_part, s)
    return _bounded_part_sums(s, max_part, k_max)


def direct_sum_truncated(s: complex, k: int, max_part: int) -> EvalResult:
    """Direct sum of N(lambda)^(-s) over the partitions with exactly k parts,
    all parts <= max_part: the z^k coefficient of restricted_genfun_coeffs.
    Requires Re(s) > 1, k >= 1 and 1 <= max_part < 2^53.

    est_error is truncation_error_estimate(s, k, max_part), an upper bound
    on the distance to the full length-k sum, plus the rounding of the
    kernel, k u ((2 |Im s| + 1) log M + M + 20) Z^k, Z >= zeta_M(sigma) from
    the module's one rounding model of n^-s, within which the coefficient
    stays.  Its share 2 k u |Im s| log M Z^k comes from the phases
    Im(s) log n; when that share passes PRECISION_LOSS_THRESHOLD,
    PrecisionLoss is raised with the untrusted result attached.
    """
    est = truncation_error_estimate(s, k, max_part)
    s = complex(s)
    phase, rounding = _kernel_rounding(s, k, max_part)
    value = _bounded_part_sums(s, max_part, k)[k]
    result = EvalResult(value, est + rounding, k * max_part)
    _refuse_past(phase, _PHASE_LOSS, max_part, s, result)
    return _finite(result)


def truncation_error_estimate(s: complex, k: int, max_part: int) -> float:
    """Upper bound (zeta_M(sigma) + T)^(k-1) T on the terms
    direct_sum_truncated(s, k, M) leaves out, sigma = Re(s): an omitted
    partition's largest part exceeds M, and T = M^(1-sigma)/(sigma-1) bounds
    those; the other parts add at most zeta(sigma) <= zeta_M(sigma) + T each,
    zeta_M the sum of n^-sigma to M.  zeta_M(sigma) is
    zeta(sigma) - zeta(sigma, M+1) from the Euler-Maclaurin kernel, plus
    both est_errors, so it stays an upper bound at a cost independent of M.
    Requires k >= 1 and 1 <= M < 2^53.  Infinite past the double range;
    DomainError where s log M overflows."""
    k, max_part = integer_size("k", k), integer_size("max_part", max_part)
    s = _convergent_arg(s, max_part, k >= 1 and 1 <= max_part < 2**53,
                        "k must be >= 1, and max_part >= 1 and below 2^53")
    sigma = s.real
    whole, beyond = (_zeta_euler_maclaurin(complex(sigma), 1.0, a) for a in (1, max_part + 1))
    partial = (whole.value - beyond.value).real + whole.est_error + beyond.est_error
    tail = max_part ** (1 - sigma) / (sigma - 1)
    try:
        return (partial + tail) ** (k - 1) * tail
    except OverflowError:
        return math.inf


def pole_order_estimate(k: int, j: int) -> int:
    """Estimated order of the pole of the length-k value at s = 1/j, for
    ints 1 <= j <= k (ValueError otherwise).

    The growth exponent log2 |f(1/j + eps) / f(1/j + 2 eps)| at eps = d/4
    and d/2 (three evaluations), d = 0.004 rho with rho = 1/(j (j + 1)) the
    distance to the next pole, must round to the same integer at both
    scales, or FitUnstable is raised.  Only zeta(js) = 1/(j eps) + gamma +
    O(eps) is singular there, so with p = floor(k/j), r = k - j p and H_n
    the weight-n sum over parts other than j,
    f = (j^2 eps)^-p H_r / p! (1 + a eps + O(eps^2)) with
    a = p j (gamma + j H_(r+j) / H_r) + (log H_r)', and each estimate errs
    by a eps / log 2 + O(eps^2).  zeta((j+1)s) in H_(r+j) has its pole rho
    to the left, so |a| rho <= 0.46 k for j <= k <= 100: at eps <= d/2 the
    error is under 0.0014 k, 0.14 at k = 100, within the 1/2 allowed.
    """
    k, j = integer_size("k", k), integer_size("j", j)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= j <= k:
        raise ValueError("j must satisfy 1 <= j <= k")
    pole, rho = 1.0 / j, 1.0 / (j * (j + 1))
    f = [partition_zeta_family(pole + c * rho, k).value for c in (0.001, 0.002, 0.004)]
    estimates = [math.log(abs(f[i + 1] / f[i])) / math.log(0.5) for i in (1, 0)]
    rounded = [round(e) for e in estimates]
    if rounded[0] != rounded[1]:
        raise FitUnstable(f"two-scale pole-order estimates disagree at s = 1/{j}: {estimates}")
    return rounded[0]


class ProductForm(namedtuple("ProductForm", "kind admits", defaults=(None,))):
    """Which part values a restricted Euler product runs over: a read-only
    (kind, admits) record that compares and hashes as that pair.

    kind "subset": factor 1/(1 - n^-s) for every n admitted by the
    predicate.  It is called once per evaluation, with the int64 array
    n = 1..max_factor, and returns a mask of the same shape whose truthy
    (nonzero) entries admit their parts, e.g. ``lambda n: n % 2 == 0``;
    1 must not be admitted, or the product diverges;
    kind "not_one": every n >= 2;
    kind "distinct": factor (1 + n^-s) for every n >= 1, the product over
    partitions with pairwise distinct parts.
    """

    __slots__ = ()

    @classmethod
    def subset_parts(cls, admits: Callable) -> "ProductForm":
        if 1 in _subset_parts(admits, 2):
            raise InvalidForm("part 1 must not be admitted: its factor 1/(1-1^-s) diverges")
        return cls("subset", admits)

    @classmethod
    def parts_not_one(cls) -> "ProductForm":
        return cls("not_one")

    @classmethod
    def distinct_parts(cls) -> "ProductForm":
        return cls("distinct")


def _subset_parts(admits: Callable, max_factor: int):
    # The parts n <= max_factor the predicate's mask over n = 1..max_factor
    # admits, as float64.  A predicate written for one int at a time raises
    # TypeError or ValueError on n, or returns a scalar.
    import numpy as np

    n = np.arange(1, max_factor + 1, dtype=np.int64)
    try:
        mask = np.asarray(admits(n)).astype(bool, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidForm(f"the subset predicate must map int64 parts to a mask: {exc}") from None
    if mask.shape != n.shape:
        raise InvalidForm(f"the subset predicate gave shape {mask.shape} for {n.shape} parts")
    # The float64 parts in one allocation, made once the mask is freed:
    # at 10^6 parts that keeps the peak RSS 4 MB lower.
    parts = np.flatnonzero(mask)
    del mask
    return parts + 1.0


def _phase_rounding(s: complex, top: int) -> float:
    """Bound on how far rounding the phases Im(s) log n moves the sum of
    log(1 -+ n^-s) over any parts 2 <= n <= top: 2 u P over 1 <= n <= top
    (_power_rounding), as |1 -+ n^-s| >= 1/2 from n = 2 on; the model's 20 u
    is within the 1e-13 allowed for rounding.  0 at real s; PrecisionLoss
    where it passes PRECISION_LOSS_THRESHOLD."""
    share = 2 * _U * _power_rounding(s, 1, top, math.log(top))[2]
    _refuse_past(share, _PHASE_LOSS, top, s)
    return share


#: Parts of a built-in product whose factors are always taken one at a
#: time, ahead of its tail.
_HEAD = 64


def _builtin_log_sum(s: complex, lo: int, sign: float, max_factor: int):
    """(sum_{lo<=n<=N} log(1 + sign n^-s), a bound on its error beyond
    1e-13) for N = max_factor, factor by factor up to K: K = _HEAD where
    the tail through the shifted zeta kernel is planned to cost less than
    the N - _HEAD factors it replaces, with its rounding share within
    PRECISION_LOSS_THRESHOLD, else K = N.  Refuses before summing where
    _phase_rounding(s, K) does."""
    # For |y| < 1, log(1 + y) = -sum_j (-y)^j / j, so the tail K < n <= N,
    # y = sign n^-s, is -sum_j (-sign)^j / j P_j with
    # P_j = zeta(js, K+1) - zeta(js, N+1) = sum_{K<n<=N} n^-js.  With
    # |P_j| <= b_j = (K+1)^(-j sigma) (1 + (K+1) / (j sigma - 1)) and
    # b_(j+1) < b_j / 65, the terms from the first j with b_j / j <= u on
    # sum to under 2 b_j / j: an error of u in the log is one of u relative
    # in the product, far below the 1e-13 allowed for rounding.
    top = min(max_factor, _HEAD)
    cost, share, j = top, 0.0, 1
    while max_factor > top:
        js = j * s.real
        b = (_HEAD + 1) ** -js * (1 + (_HEAD + 1) / (js - 1))
        if b <= j * _U:
            break
        z = j * s
        for a in (_HEAD + 1, max_factor + 1):
            n_cut, depth, _ = _em_plan(z, a)
            cost += n_cut - a + 1 + _CORRECTION_COST * depth
            share += _em_partial_rounding(z, a, n_cut)[1] / j
        if cost >= max_factor or _U * share > PRECISION_LOSS_THRESHOLD:
            top = max_factor
        else:
            j += 1
    # The tail's terms j = 1 .. j - 1, each priced above.
    tail = range(1, j) if max_factor > top else ()
    err = 2 * b / j if max_factor > top else 0.0
    err += _phase_rounding(s, top)
    sigma, t = s.real, s.imag
    if t:
        re = im = 0.0
        for n in range(lo, top + 1):
            x = sign * n ** -s
            re += math.log1p(x.real * (2 + x.real) + x.imag * x.imag)
            im += math.atan2(x.imag, 1 + x.real)
        log_sum = complex(0.5 * re, im)
    else:
        log_sum = 0.0
        for n in range(lo, top + 1):
            log_sum += math.log1p(sign * n ** -sigma)
    for i in tail:
        upper, lower = (_zeta_euler_maclaurin(i * s, 1 / i, a) for a in (_HEAD + 1, max_factor + 1))
        p = upper.value - lower.value
        log_sum += -((-sign) ** i) / i * (p if t else p.real)
        err += (upper.est_error + lower.est_error) / i
    return log_sum, err


def _array_log_sum(s: complex, sign: float, parts):
    """sum log(1 + sign n^-s) over the float64 array of parts n, in one
    numpy pass that overwrites the array at real s."""
    import numpy as np

    if s.imag == 0:
        x = np.power(parts, -s.real, out=parts)
        x *= sign
        return float(np.sum(np.log1p(x, out=x)))
    mod, phase = sign * parts ** -s.real, s.imag * np.log(parts)
    re, im = mod * np.cos(phase), -mod * np.sin(phase)
    return complex(0.5 * float(np.sum(np.log1p(re * (2 + re) + im * im))),
                   float(np.sum(np.arctan2(im, 1 + re))))


def euler_product_eval(form: ProductForm, s: complex, max_factor: int) -> EvalResult:
    """Evaluate a restricted Euler product over parts up to max_factor.

    With sign = +1 for distinct parts and -1 otherwise, the log of the
    product is sign * sum log(1 + x), x = sign * n^-s, over the admitted
    parts n <= N = max_factor; at complex s each log is formed as
    log|1 + x| = log1p(re (2 + re) + im^2) / 2 and
    arg(1 + x) = atan2(im, 1 + re), both accurate at every |x|.

    The built-in forms take every n from 1 (distinct) or 2 (not_one) and
    never import numpy: their factors are summed one by one in pure Python
    up to n = 64, and their tail 64 < n <= N as
    -sum_j (-sign)^j / j [zeta(js, 65) - zeta(js, N+1)] from the shifted
    Euler-Maclaurin kernel, j up to the first whose bound is below u; or,
    where the kernel is planned to cost more than the N - 64 factors or its
    rounding share passes PRECISION_LOSS_THRESHOLD, one by one up to N.

    A subset form's parts are those admitted by the mask of one predicate
    call on n = 1..max_factor, summed by one numpy pass over them as
    float64 (at real s, one np.log1p in place on the parts array).

    The tail correction is the admitted density over the top W = max_factor -
    max_factor // 2 parts times max_factor^(1-s)/(s-1).  Requires Re(s) > 1
    and 1 <= max_factor < 2^53, from where n no longer converts to a double
    exactly (ValueError); a predicate whose result is not a mask of n's
    shape raises InvalidForm; where the phases' rounding share below passes
    PRECISION_LOSS_THRESHOLD, PrecisionLoss is raised before summing.

    est_error (heuristic for an arbitrary predicate) is |value| times the
    next-order tail terms, the density's uncertainty 1/W times the tail
    integral, and 1e-13 for rounding plus the phases' share
    4 |Im s| u log K int_1^K x^-sigma dx, K the last part summed one by one
    (N for a subset), and on the kernel route the kernel's own bounds over
    j and the omitted j.  The value is real at real s.
    """
    max_factor = integer_size("max_factor", max_factor)
    s = _convergent_arg(s, max_factor, 1 <= max_factor < 2**53,
                        "max_factor must be >= 1 and below 2^53")
    sigma = s.real
    sign = 1.0 if form.kind == "distinct" else -1.0
    if form.kind == "subset":
        err = _phase_rounding(s, max_factor)
        parts = _subset_parts(form.admits, max_factor)
        count = len(parts)
        in_window = count - int(parts.searchsorted(max_factor // 2 + 1))
        log_sum = _array_log_sum(s, sign, parts)
    elif form.kind in ("distinct", "not_one"):
        lo = 1 if form.kind == "distinct" else 2
        count, in_window = max_factor - lo + 1, max_factor - max(max_factor // 2, lo - 1)
        log_sum, err = _builtin_log_sum(s, lo, sign, max_factor)
    else:
        raise ValueError(f"unknown product form kind {form.kind!r}")
    window = max_factor - max_factor // 2
    density = in_window / window
    try:
        value = cmath.exp(sign * log_sum + density * max_factor ** (1 - s) / (s - 1))
    except OverflowError:
        raise PrecisionLoss(f"the product passes the double range at s = {s}") from None
    est = abs(value) * (
        density * (sigma * max_factor ** (-sigma)
                   + max_factor ** (1 - 2 * sigma) / (2 * sigma - 1))
        + max_factor ** (1 - sigma) / ((sigma - 1) * window) + 1e-13 + err
    )
    return _finite(EvalResult(value, est, count))
