"""Floating-point analytics on the complex plane.

Riemann zeta through Euler-Maclaurin summation (reflected by the functional
equation on the left half plane), fixed-length partition zeta values from
zeta(s), ..., zeta(ks) by the O(k^2) Newton recurrence, sums over bounded
partitions, restricted Euler products, and pole orders.

All floating point is double precision.  Every evaluation returns an
EvalResult carrying an absolute error bound (heuristic only for the Euler
products' tail; euler_product_eval describes their real float64 kernel).
For zeta it is the Euler-Maclaurin remainder bound plus
a derived rounding bound (and, on the reflected branch, the Gamma
factor's error); zeta results whose bound exceeds
PRECISION_LOSS_THRESHOLD are not returned but raised as PrecisionLoss,
with the untrusted value attached when one was computed (a bound whose
rounding share alone is too large refuses before summing).  Non-finite s
raises DomainError on every public entry, and so does an s for which
s log n overflows in the routines that form n^-s up to a caller's cutoff.

numpy is imported only inside restricted_genfun_coeffs,
truncation_error_estimate and euler_product_eval, so importing the package
and the zeta, F_k and pole-order paths never load it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import (
    DivergenceRegion,
    DomainError,
    FitUnstable,
    InvalidForm,
    PoleAt1,
    PoleProximity,
    PrecisionLoss,
)
from .exact import bernoulli_numbers
from .partitions import complete_homogeneous

#: Half-width of the neighbourhood around a pole treated as "at the pole".
POLE_EXCLUSION_RADIUS = 1e-9
#: A zeta result whose est_error bound exceeds this is refused.
PRECISION_LOSS_THRESHOLD = 1e-8


@dataclass(frozen=True)
class EvalResult:
    """A complex value, a bound on its absolute error (heuristic only for
    euler_product_eval's tail), and the number of summation terms consumed
    producing it."""

    value: complex
    est_error: float
    terms_used: int

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


def _check_exponent(s: complex, n_max: int) -> None:
    # n^-s = exp(-s log n).  Where the phase Im(s) log n leaves the double
    # range CPython reports cos(inf) as a ZeroDivisionError and numpy returns
    # NaN; where Re(s) log n does, numpy warns of an overflow.
    if not cmath.isfinite(s * math.log(n_max)):
        raise DomainError(f"s log n overflows for n <= {n_max}, s = {s}")


def _trusted(result: EvalResult) -> EvalResult:
    # Zeta evaluations additionally refuse results whose error bound
    # exceeds the trust threshold.  Truncation-controlled operations
    # (direct sums, Euler products) do not: their est_error is a tail bound
    # the caller steers explicitly via the truncation parameter.
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
    x, y = z.real, z.imag
    n = round(x)
    r = x - n  # exact for |x| < 2^52
    inner = cmath.sin(math.pi * complex(r, y))
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
_LOG_4 = math.log(4.0)
_LOG_4PI2 = 2 * math.log(2 * math.pi)


def _em_plan(s: complex) -> tuple[int, int, float]:
    """Cutoff N, depth M and the bound on the Euler-Maclaurin remainder
    after M corrections (Johansson, arXiv:1309.2877, Theorem 1):

        |R| <= 4 |(s)_2M| / ((2 pi)^2M (sigma + 2M - 1)) * N^(1 - sigma - 2M),

    valid for sigma + 2M > 1, since |B_2M| <= 4 (2M)! / (2 pi)^2M.  Picks
    the cheapest pair (cost N + 4M) whose bound meets 1e-16.  Depths are
    scanned upwards and the scan stops once the cost starts rising.  Every
    caller has sigma >= 1/2, so no Pochhammer factor vanishes."""
    sigma, t = s.real, s.imag
    best = math.inf
    log_poch = 0.0  # log |(s)_2M|
    for m in range(1, _MAX_CORRECTIONS + 1):
        e = sigma + (2 * m - 1)
        # log |s + 2M - 2| + log |s + 2M - 1|, apart so that neither overflows
        log_poch += math.log(math.hypot(e - 1, t)) + math.log(math.hypot(e, t))
        log_c = _LOG_4 + log_poch - m * _LOG_4PI2 - math.log(e)
        n = math.exp(min((log_c - _LOG_EM_TARGET) / e, 700.0))
        cost = n + _CORRECTION_COST * m
        if cost >= best:
            break
        best, pick = cost, (m, log_c, e, n)
    m, log_c, e, n = pick
    n = max(2, math.ceil(n))
    log_bound = log_c - e * math.log(n)
    return n, m, math.exp(log_bound) if log_bound < 709.0 else math.inf


def _zeta_euler_maclaurin(s: complex, scale: float = 1.0) -> EvalResult:
    # Direct branch: partial sum to N-1 plus the integral, half-term and M
    # Bernoulli corrections, with (N, M) from _em_plan.  est_error is the
    # remainder bound plus a rounding bound.  The caller multiplies the
    # result by a factor of modulus ``scale``.
    n_cut, depth, bound = _em_plan(s)
    # Rounding, in units of u.  CPython forms n^-s as n^-sigma (cos, sin)
    # (t log n), two roundings in the phase, so n^-s carries a relative
    # error of at most 2 |t| log n + c; c = 20 covers pow, cos/sin, the
    # products and the repeated squaring CPython uses for integer s <= 100.
    # Adding to the partial sum errs by at most |S_k| <= Z per term, with
    # Z = sum_{n<N} n^-sigma <= 1 + Z1, Z1 = int_1^N x^-sigma, and
    # log n <= log N.  The n = 1 term 1 ** -s is exactly 1 + 0j, and adding
    # it to 0j is exact, so the phase share 2 |t| log n only falls on
    # sum_{2<=n<N} n^-sigma <= Z1: the partial sum errs by at most
    # u ((20 + N) Z + 2 |t| log N Z1).  Far right N = 2 and Z1 is about
    # 1 / (sigma - 1), so that share passes 1e-8 only from |t| ~ 6e7 sigma.
    # The integral and half-term carry the error of N^-s plus a few
    # roundings; correction r adds at most 9r more in w and its Bernoulli
    # factor, and summing M corrections M more.
    sigma = s.real
    log_n = math.log(n_cut)
    a = (1 - sigma) * log_n
    z1 = math.expm1(min(a, 700.0)) / (1 - sigma) if a else log_n
    phase = 2 * abs(s.imag) * log_n
    summed = (20 + n_cut) * (1 + z1) + phase * z1
    if scale * (_U * summed) > PRECISION_LOSS_THRESHOLD:
        # The partial sum's share of the rounding bound alone is too large:
        # refuse before summing.
        raise PrecisionLoss(f"rounding over N = {n_cut:.3g} terms at s = {s} alone "
                            f"exceeds {PRECISION_LOSS_THRESHOLD:.0e}")
    partial = 0j
    for n in range(1, n_cut):
        partial += n ** (-s)
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
    rounding = _U * (summed + (phase + 20 + 10 * depth) * mags)
    return EvalResult(value, bound + rounding, n_cut + depth)


# zeta'(0) = -log(2 pi) / 2, for the expansion of the reflected branch at 0.
_ZETA_PRIME_AT_0 = -0.9189385332046727


def _zeta_functional(s: complex) -> EvalResult:
    # Reflected branch: zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s).
    if abs(s) < 1e-6:
        # At s = 0 the sin zero meets the zeta(1-s) pole; use the Taylor
        # expansion zeta(s) = -1/2 + zeta'(0) s + O(s^2) instead.
        value = -0.5 + _ZETA_PRIME_AT_0 * s
        return EvalResult(value, 2.0 * abs(s) ** 2 + 1e-16, 0)
    try:
        prefactor = 2**s * math.pi ** (s - 1) * _sinpi(s / 2) * _gamma_lanczos(1 - s)
    except OverflowError:
        raise PrecisionLoss(f"the reflection prefactor overflows at s = {s}") from None
    # Multiplied, not divided: the prefactor is exactly 0 at the trivial zeros.
    inner = _zeta_euler_maclaurin(1 - s, abs(prefactor))
    value = prefactor * inner.value
    # Relative error of the value beyond inner's: the Lanczos formula is
    # within 1712 u of Gamma on Re z >= 1/2 (its limit as |Im z| grows,
    # checked against mpmath), and rounding adds, in units of u, about
    # 9 |t| in the phases of 2^s, pi^(s-1), sin and Gamma's exponential,
    # 2 |1-s| log |1-s+7.5| in Gamma's power, 3.5 (|s| + 1) in the moduli,
    # and under 70 for the Lanczos sum and the products.
    rel = _U * (1800 + (abs(s) + 1) * (20 + 2 * math.log(abs(s) + 2)))
    est = abs(prefactor) * inner.est_error + abs(value) * rel
    return EvalResult(value, est, inner.terms_used)


_LANCZOS_G = 7
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _gamma_lanczos(z: complex) -> complex:
    """Complex gamma function for Re(z) >= 1/2, Lanczos approximation (g=7,
    9 coefficients).  Its only caller passes 1 - s with Re(s) < 1/2."""
    z = z - 1
    x = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def riemann_zeta(s: complex) -> EvalResult:
    """Riemann zeta on the complex plane; the pole at s = 1 is excluded.

    Re(s) >= 1/2 is summed directly by Euler-Maclaurin: N - 1 terms, the
    integral and half-term, and M Bernoulli corrections, with (N, M) the
    cheapest pair whose remainder bound
    4 |(s)_2M| N^(1-Re s-2M) / ((2 pi)^2M (Re s + 2M - 1)) is at most
    1e-16.  Re(s) < 1/2 reflects through the functional equation.

    est_error is the remainder bound plus a rounding bound, which grows
    like |Im s| log N u (u = 2^-53); the reflected branch scales it by the
    prefactor and adds the Gamma approximation's error.  A bound past
    PRECISION_LOSS_THRESHOLD raises PrecisionLoss: on the critical line
    from about |Im s| = 3 10^4, and before any term is summed once the
    partial sum's share of the rounding bound alone passes it.  Non-finite
    s raises DomainError.
    """
    s = _finite_arg(s)
    if abs(s - 1) < POLE_EXCLUSION_RADIUS:
        raise PoleAt1(f"s = {s} lies within {POLE_EXCLUSION_RADIUS} of the pole at s = 1")
    if s.real >= 0.5:
        return _trusted(_zeta_euler_maclaurin(s))
    return _trusted(_zeta_functional(s))


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

    k = 0 returns exactly 1.  Rejects s within POLE_EXCLUSION_RADIUS of any
    pole s = 1/j, 1 <= j <= k, with PoleProximity naming the offending j.
    """
    s = _finite_arg(s)
    if k < 0:
        raise ValueError("k must be >= 0")
    for j in range(1, k + 1):
        if abs(s - 1 / j) < POLE_EXCLUSION_RADIUS:
            raise PoleProximity(j)
    zetas = [riemann_zeta(j * s) for j in range(1, k + 1)]
    value = complete_homogeneous([z.value for z in zetas], 1 + 0j)[k]
    a = [abs(z.value) for z in zetas]
    e = [z.est_error for z in zetas]
    A = complete_homogeneous(a, 1.0)
    D = [0.0]
    for n in range(1, k + 1):
        acc = sum((a[j - 1] + e[j - 1]) * D[n - j] + e[j - 1] * A[n - j] for j in range(1, n + 1))
        D.append(acc / n + (n + 2) * 2.5e-16 * A[n])
    terms = sum(z.terms_used for z in zetas) + k * (k + 1) // 2
    return _finite(EvalResult(value, D[k], terms))


def restricted_genfun_coeffs(s: complex, max_part: int, k_max: int) -> list[complex]:
    """Coefficients of z^0..z^k_max in prod_{n<=max_part} 1/(1 - z n^(-s)).

    The z^k coefficient is f_k(max_part), the sum of N(lambda)^(-s) over the
    partitions with exactly k parts, all <= max_part.  The recurrence
    f_t(n) = f_t(n-1) + n^-s f_(t-1)(n) is one cumulative sum per t, so the
    cost is k_max * max_part operations; no zeta or partition-sum formula
    enters, so it stays an independent oracle, pinned against explicit
    enumeration in the tests.  Requires Re(s) > 1; non-finite s, or
    s log max_part past the double range, raises DomainError.
    """
    import numpy as np

    s = _finite_arg(s)
    if s.real <= 1:
        raise DivergenceRegion(f"requires Re(s) > 1, got {s.real}")
    if max_part < 1:
        raise ValueError("max_part must be >= 1")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    _check_exponent(s, max_part)
    w = np.arange(1, max_part + 1, dtype=np.float64) ** (-s)
    f = np.ones(max_part, dtype=np.complex128)
    out = [1 + 0j]
    for _ in range(k_max):
        f = np.cumsum(w * f)
        out.append(complex(f[-1]))
    return out


def direct_sum_truncated(s: complex, k: int, max_part: int) -> EvalResult:
    """Direct sum of N(lambda)^(-s) over the partitions with exactly k parts,
    all parts <= max_part: the z^k coefficient of restricted_genfun_coeffs.
    Requires Re(s) > 1.

    est_error is truncation_error_estimate(s, k, max_part), an upper bound
    on the distance to the full length-k sum.
    """
    est = truncation_error_estimate(s, k, max_part)
    value = restricted_genfun_coeffs(s, max_part, k)[k]
    return _finite(EvalResult(value, est, k * max_part))


def truncation_error_estimate(s: complex, k: int, max_part: int) -> float:
    """Upper bound (zeta_M(sigma) + T)^(k-1) T on the terms
    direct_sum_truncated(s, k, M) leaves out, sigma = Re(s): an omitted
    partition's largest part exceeds M, and T = M^(1-sigma)/(sigma-1) bounds
    those; the other parts add at most zeta(sigma) <= zeta_M(sigma) + T each,
    zeta_M the sum of n^-sigma to M.  Infinite past the double range;
    DomainError where s log M overflows."""
    import numpy as np

    s = _finite_arg(s)
    sigma = s.real
    if sigma <= 1:
        raise DivergenceRegion(f"direct sum requires Re(s) > 1, got {sigma}")
    if k < 1 or max_part < 1:
        raise ValueError("k and max_part must be >= 1")
    _check_exponent(s, max_part)
    n = np.arange(1, max_part + 1, dtype=np.float64)
    tail = max_part ** (1 - sigma) / (sigma - 1)
    try:
        return (float(np.sum(n ** (-sigma))) + tail) ** (k - 1) * tail
    except OverflowError:
        return math.inf


_PROBE_SCALES = (1e-3, 5e-4)


def pole_order_estimate(k: int, j: int) -> int:
    """Estimated order of the pole of the length-k value at s = 1/j.

    Probes the real axis just right of the pole at two scales: the growth
    exponent comes from log2 |f(1/j + eps) / f(1/j + 2 eps)|, and the two
    scales must round to the same integer, otherwise FitUnstable is raised.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= j <= k:
        raise ValueError("j must satisfy 1 <= j <= k")
    pole = 1.0 / j

    def probe(eps: float) -> float:
        far = partition_zeta_family(pole + 2 * eps, k).value
        near = partition_zeta_family(pole + eps, k).value
        return math.log(abs(far / near)) / math.log(0.5)

    estimates = [probe(eps) for eps in _PROBE_SCALES]
    rounded = [round(e) for e in estimates]
    if rounded[0] != rounded[1]:
        raise FitUnstable(
            f"two-scale pole-order estimates disagree at s = 1/{j}: {estimates}")
    return rounded[0]


@dataclass(frozen=True)
class ProductForm:
    """Which part values a restricted Euler product runs over.

    kind "subset": factor 1/(1 - n^-s) for every n admitted by the
    predicate, which is called with each int n and may return any truthy
    value (1 must not be admitted, or the product diverges);
    kind "not_one": every n >= 2;
    kind "distinct": factor (1 + n^-s) for every n >= 1, the product over
    partitions with pairwise distinct parts.
    """

    kind: str
    admits: Callable[[int], bool] | None = None

    @classmethod
    def subset_parts(cls, admits: Callable[[int], bool]) -> "ProductForm":
        if admits(1):
            raise InvalidForm("part 1 must not be admitted: its factor 1/(1-1^-s) diverges")
        return cls("subset", admits)

    @classmethod
    def parts_not_one(cls) -> "ProductForm":
        return cls("not_one")

    @classmethod
    def distinct_parts(cls) -> "ProductForm":
        return cls("distinct")


def euler_product_eval(form: ProductForm, s: complex, max_factor: int) -> EvalResult:
    """Evaluate a restricted Euler product over parts up to max_factor.

    One array pass over the admitted parts, built as float64 (for a subset
    form, from the predicate called once per int): with sign = +1 for
    distinct parts and -1 otherwise, the log of the product is
    sign * sum log(1 + x), x = sign * n^-s.  Real s takes one np.log1p;
    complex s takes log|1 + x| = log1p(re (2 + re) + im^2) / 2 and
    arg(1 + x) = atan2(im, 1 + re), both accurate at every |x|.  The tail
    correction is the admitted density over the top W = max_factor -
    max_factor // 2 parts times max_factor^(1-s)/(s-1).  Requires Re(s) > 1.

    est_error (heuristic for an arbitrary predicate) is |value| times the
    next-order tail terms, the density's uncertainty 1/W times the tail
    integral, and 1e-13 for rounding.  The value is real at real s.
    """
    import numpy as np

    s = _finite_arg(s)
    sigma = s.real
    if sigma <= 1:
        raise DivergenceRegion(f"the product requires Re(s) > 1, got {sigma}")
    if max_factor < 1:
        raise ValueError("max_factor must be >= 1")
    _check_exponent(s, max_factor)
    if form.kind == "subset":
        parts = np.fromiter(filter(form.admits, range(1, max_factor + 1)), dtype=np.float64)
    elif form.kind in ("distinct", "not_one"):
        parts = np.arange(1 if form.kind == "distinct" else 2, max_factor + 1, dtype=np.float64)
    else:
        raise ValueError(f"unknown product form kind {form.kind!r}")
    window = max_factor - max_factor // 2
    density = (len(parts) - int(np.searchsorted(parts, max_factor // 2 + 1))) / window
    sign = 1.0 if form.kind == "distinct" else -1.0
    if s.imag == 0:
        x = sign * parts ** -sigma
        log_sum = float(np.sum(np.log1p(x, out=x)))
    else:
        mod, phase = sign * parts ** -sigma, s.imag * np.log(parts)
        re, im = mod * np.cos(phase), -mod * np.sin(phase)
        log_sum = complex(0.5 * float(np.sum(np.log1p(re * (2 + re) + im * im))),
                          float(np.sum(np.arctan2(im, 1 + re))))
    value = cmath.exp(sign * log_sum + density * max_factor ** (1 - s) / (s - 1))
    est = abs(value) * (
        density * (sigma * max_factor ** (-sigma)
                   + max_factor ** (1 - 2 * sigma) / (2 * sigma - 1))
        + max_factor ** (1 - sigma) / ((sigma - 1) * window) + 1e-13
    )
    return _finite(EvalResult(value, est, len(parts)))
