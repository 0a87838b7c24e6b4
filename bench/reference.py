"""Independent references for the benchmark, and the checker that uses them.

Nothing here imports pzeta.  Every value is rebuilt from mpmath 1.3 and the
standard library by a route the package does not take:

  * F_k(s) from the power-sum recurrence k F_k = sum_j zeta(js) F_{k-j}
    (Macdonald, Symmetric Functions, I.2), at 30 significant digits;
  * exact F_k(2m) as a Fraction times pi^(2mk), through the same recurrence
    over zeta(2mj) = (-1)^(mj+1) B_{2mj} (2 pi)^(2mj) / (2 (2mj)!), with the
    Bernoulli numbers taken from mpmath.bernfrac;
  * the counts p(n, k) of partitions of n into exactly k parts from
    p(n, k) = p(n-1, k-1) + p(n-k, k);
  * truncated sums over partitions with exactly k parts, all <= M, as the
    complete homogeneous polynomial h_k(1^-s, ..., M^-s) from its power sums;
  * the Euler-product closed forms pi/2, sinh(pi)/pi and 3 pi/cosh(pi sqrt3/2);
  * the pole order floor(k/j).

Run as ``python3 bench/reference.py check CASES.json RESULTS.json`` it reads
the cases a benchmark run recorded and writes one verdict per case.
References are never cached: each run recomputes them from its cases, which
the seed alone determines.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

import mpmath

DPS = 30
#: Agreement demanded of double-precision values: |v - ref| <= NUMERIC_TOL * max(1, |ref|).
NUMERIC_TOL = 1e-9
#: Agreement demanded of truncated sums and generating-function coefficients (relative).
TRUNCATED_TOL = 1e-10


def _mpc(s) -> mpmath.mpc:
    # Cases carry complex numbers as [re, im]; the tests pass mpmath numbers.
    return mpmath.mpc(*s) if isinstance(s, (list, tuple)) else mpmath.mpc(s)


def power_sum_recurrence(p: list, k: int) -> list:
    """h_0..h_k from power sums p[1..k] (p[0] unused) by n h_n = sum_j p_j h_{n-j}."""
    h = [p[0] * 0 + 1]
    for n in range(1, k + 1):
        h.append(sum(p[j] * h[n - j] for j in range(1, n + 1)) / n)
    return h


def fk(s, k: int) -> mpmath.mpc:
    """F_k(s) at DPS digits; F_1 is the Riemann zeta function."""
    with mpmath.workdps(DPS):
        s = _mpc(s)
        p = [mpmath.mpf(0)] + [mpmath.zeta(j * s) for j in range(1, k + 1)]
        return power_sum_recurrence(p, k)[k]


@lru_cache(maxsize=None)
def zeta_even_coeff(two_n: int) -> Fraction:
    """zeta(2n) / pi^(2n) as an exact rational."""
    n = two_n // 2
    num, den = mpmath.bernfrac(two_n)
    return Fraction((-1) ** (n + 1) * 2 ** two_n * num, 2 * math.factorial(two_n) * den)


def fk_exact(m: int, k: int) -> tuple[Fraction, int]:
    """F_k(2m) = coeff * pi^exponent, exactly."""
    p = [Fraction(0)] + [zeta_even_coeff(2 * m * j) for j in range(1, k + 1)]
    return power_sum_recurrence(p, k)[k], 2 * m * k


def partitions_exactly_k(k: int, order: int) -> list[int]:
    """[p(0, k), ..., p(order, k)]: partitions of n into exactly k parts."""
    table = [[0] * (k + 1) for _ in range(order + 1)]
    table[0][0] = 1
    for n in range(1, order + 1):
        for parts in range(1, min(n, k) + 1):
            table[n][parts] = table[n - 1][parts - 1] + table[n - parts][parts]
    return [row[k] for row in table]


def truncated_sums(s, max_part: int, k_max: int) -> list:
    """Sums of N(lambda)^-s over partitions with exactly k parts, all parts
    <= max_part, for k = 0..k_max."""
    with mpmath.workdps(DPS):
        x = [mpmath.power(n, -_mpc(s)) for n in range(1, max_part + 1)]
        p = [mpmath.mpf(0)]
        powers = list(x)
        for _ in range(k_max):
            p.append(mpmath.fsum(powers))
            powers = [a * b for a, b in zip(powers, x)]
        return power_sum_recurrence(p, k_max)


def euler_closed_form(form: str, s: float) -> mpmath.mpf:
    """Infinite restricted Euler products with a known closed form."""
    with mpmath.workdps(DPS):
        pi = mpmath.pi
        table = {
            ("even", 2): pi / 2,
            ("distinct", 2): mpmath.sinh(pi) / pi,
            ("not-one", 2): mpmath.mpf(2),
            ("not-one", 3): 3 * pi / mpmath.cosh(pi * mpmath.sqrt(3) / 2),
        }
        return +table[(form, int(s))]


def euler_tolerance(closed: float, s: float, max_factor: int) -> float:
    # The product's first-order tail correction leaves an error of order
    # max_factor^-s; 10x that, plus double rounding, is the stated tolerance.
    return abs(closed) * (10 * max_factor ** (-s) + 1e-10)


def pole_order(k: int, j: int) -> int:
    return k // j


# ---------------------------------------------------------------- checker


def _numeric(value, ref, bound: float, est_error: float | None = None) -> dict:
    """Verdict for one double-precision value against its reference."""
    err = float(abs(_mpc(value) - ref))
    verdict = {"ok": err <= bound, "err": err}
    if est_error is not None:
        verdict["violation"] = err > est_error
    return verdict


def _merge(verdicts: list[dict]) -> dict:
    out = {"ok": all(v["ok"] for v in verdicts),
           "violations": sum(1 for v in verdicts if v.get("violation"))}
    errs = [v["err"] for v in verdicts if "err" in v]
    if errs:
        out["err"] = max(errs)
    return out


def _check_truncated(s, max_part: int, k_max: int, coeffs: list, direct: dict) -> dict:
    """Generating-function coefficients and truncated direct sums (k -> result)."""
    refs = truncated_sums(s, max_part, k_max)
    verdicts = [_numeric(c, ref, TRUNCATED_TOL * float(abs(ref))) for c, ref in zip(coeffs, refs)]
    for k, res in direct.items():
        v = _numeric(res["value"], refs[k], TRUNCATED_TOL * float(abs(refs[k])))
        # A truncated sum's est_error bounds its distance to the full F_k(s).
        v["violation"] = float(abs(_mpc(res["value"]) - fk(s, k))) > res["est_error"]
        verdicts.append(v)
    return _merge(verdicts)


def check_library(case: dict, out) -> dict:
    kind = case["kind"]
    if kind in ("zeta", "fk"):
        ref = fk(case["s"], case.get("k", 1))
        return _merge([_numeric(out["value"], ref, NUMERIC_TOL * max(1.0, float(abs(ref))), out["est_error"])])
    if kind == "exact":
        coeff, exponent = fk_exact(case["m"], case["k"])
        return {"ok": Fraction(out["coeff"]) == coeff and out["pi_power"] == exponent}
    if kind in ("macmahon_exact", "faa"):
        return {"ok": out is True}
    if kind == "macmahon_series":
        counts = partitions_exactly_k(case["k"], case["order"])
        lhs = [Fraction(c) for c in out["lhs"]]
        rhs = [Fraction(c) for c in out["rhs"]]
        return {"ok": out["equal"] is True and lhs == counts and rhs == counts}
    if kind == "euler":
        s = case["s"][0]
        closed = euler_closed_form(case["form"], s)
        bound = euler_tolerance(float(closed), s, case["max_factor"])
        return _merge([_numeric(out["value"], closed, bound, out["est_error"])])
    if kind == "genfun":
        return _check_truncated(case["s"], case["max_part"], case["k_max"], out["coeffs"],
                                dict(enumerate(out["direct"], start=1)))
    if kind == "poles":
        return {"ok": out == [pole_order(case["k"], j) for j in range(1, case["k"] + 1)]}
    raise ValueError(f"unknown case kind {kind!r}")


def check_cli(case: dict, stdout: str) -> dict:
    """Checks one subcommand's JSON document, through the library checks
    wherever the document carries the same result."""
    doc = json.loads(stdout)
    sub = case["sub"]
    if "value" in doc:
        result = {"value": [doc["value"]["re"], doc["value"]["im"]], "est_error": doc["est_error"]}
    if sub == "eval":
        return check_library({**case, "kind": "fk"}, result)
    if sub == "exact":
        return check_library({**case, "kind": "exact"}, doc)
    if sub == "euler-product":
        return check_library({**case, "kind": "euler"}, result)
    if sub == "oracle":
        return _check_truncated(case["s"], case["max_part"], case["k"], [], {case["k"]: result})
    if sub == "genfun":
        coeffs = [[c["re"], c["im"]] for c in doc["coeffs"]]
        return _check_truncated(case["s"], case["max_part"], case["k_max"], coeffs, {})
    if sub == "poles":
        orders = [{"estimated": pole_order(case["k"], j), "expected": pole_order(case["k"], j), "j": j}
                  for j in range(1, case["k"] + 1)]
        return {"ok": doc == {"k": case["k"], "orders": orders}}
    if sub in ("macmahon", "faadibruno"):
        return {"ok": doc.get("verified") is True}
    raise ValueError(f"unknown subcommand {sub!r}")


def check(record: dict) -> dict:
    """Verdict for one recorded case: ``ok`` (outputs agree with the
    references), ``violations`` (returned est_error smaller than the actual
    error) and ``err`` (largest absolute error), where they apply.

    A case the program refused gets no ``ok``; when it attached its
    untrusted value, ``partial_rel_err`` says how far that was from the truth.
    """
    case, out, status = record["case"], record["output"], record["status"]
    if status != "ok":
        if out is None or case["kind"] == "cli":
            return {}
        ref = fk(case["s"], case.get("k", 1))
        return {"partial_rel_err": float(abs(_mpc(out["value"]) - ref) / abs(ref))}
    if case["kind"] == "cli":
        return check_cli(case, out["stdout"])
    return check_library(case, out)


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] != "check":
        print("usage: reference.py check CASES.json RESULTS.json", file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        records = json.load(fh)
    verdicts = [check(r) for r in records]
    with open(argv[2], "w") as fh:
        json.dump(verdicts, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
