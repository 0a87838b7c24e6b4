"""The four workloads: what one round of cases is, and how a case runs.

A round is a fixed list of case slots.  The seed and the round number fill
each slot with fresh inputs, so every round does the same kind of work and
no numeric input repeats within a run.  Inputs that are bare integers
(MacMahon's k, pole orders, exact (m, k)) have too few values not to repeat.

Library workloads call the package in this process through module
attributes (``pz.numeric.riemann_zeta``), so the traced run's wrappers see
every call.  ``cli-oneshot`` starts one ``python -m pzeta`` process per case.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

#: Numeric-library thread pools are pinned to one thread in every process.
THREAD_VARS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _height(rng: random.Random, lo: float, hi: float) -> float:
    """A signed height with log10 |t| uniform on [lo, hi)."""
    return rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(lo, hi)


def _complex_arg(s: list[float]) -> str:
    re, im = s
    return f"{re!r}{'+' if im >= 0 else ''}{im!r}i"  # pass as --s=..., since it may start with "-"


def _rationals(rng: random.Random, n: int) -> list[str]:
    return [str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
            for _ in range(n)]


# ------------------------------------------------------------ rounds


def high_k_round(seed: int, r: int) -> list[dict]:
    """Exact F_k(2m) for k = 28, 30, 34 and numeric F_k(s) for k = 25..40.

    The exact slots take m = 1, 2, 3 in a rotation that does not depend on
    the seed, so a run's exact cases cost the same whichever seed is used.
    Five cases cost less than F_35 and five more, so the median case is the
    middle one of the three F_35 cases."""
    rng = _rng("high-k", seed, r)
    cases = [{"kind": "exact", "m": 1 + (r + i) % 3, "k": k} for i, k in enumerate((28, 30, 34))]
    for k, slots in ((25, 3), (30, 2), (35, 3), (40, 2)):
        for _ in range(slots):
            t = _height(rng, 0, 1)
            cases.append({"kind": "fk", "k": k, "s": [rng.uniform(0.6, 3.0), t]})
    return cases


FAULT_SLOTS = 2


def plane_round(seed: int, r: int) -> list[dict]:
    """Zeta and F_k (k <= 4) over the plane, one case per height stratum.

    The last FAULT_SLOTS cases sit far left (Re s in [-30, -10], |Im s| in
    [100, 400]) and are drawn without the seed: there the absolute trust
    threshold refuses every value, accurate or not."""
    rng = _rng("plane", seed, r)
    cases = []
    for lo, hi in ((1.5, 6.0), (0.5, 1.0)):  # right half-plane, critical strip
        for stratum in range(8):
            t = _height(rng, stratum / 2, (stratum + 1) / 2)
            cases.append({"kind": "zeta", "s": [rng.uniform(lo, hi), t]})
    for stratum in range(4):  # left slice, below the height where Gamma overflows
        t = _height(rng, stratum * 0.65, (stratum + 1) * 0.65)
        cases.append({"kind": "zeta", "s": [rng.uniform(-1.0, 0.5), t]})
    for k in (2, 3, 4):
        top = math.log10(1e4 / k)
        for lo, hi in ((0.0, 2.0), (2.0, top)):
            cases.append({"kind": "fk", "k": k, "s": [rng.uniform(0.6, 3.0), _height(rng, lo, hi)]})
        cases.append({"kind": "fk", "k": k, "s": [rng.uniform(-0.5, 0.5), rng.uniform(-50, 50)]})
    fault = _rng("plane-fault", r)
    for _ in range(FAULT_SLOTS):
        t = fault.choice((-1.0, 1.0)) * fault.uniform(100, 400)
        cases.append({"kind": "zeta", "s": [fault.uniform(-30.0, -10.0), t], "fault": True})
    return cases


EULER_FORMS = (("even", 2.0), ("distinct", 2.0), ("not-one", 3.0))


def identities_round(seed: int, r: int) -> list[dict]:
    """The paper's machine checks, each with inputs drawn afresh.

    Four cases cost less than a Faa di Bruno check and five cost more, so
    the median case is one of the three Faa di Bruno checks: pure-Python
    ``Fraction`` work, which the host-speed probe tracks.  The numpy Euler
    products do not follow the probe as closely.  The MacMahon series order
    cycles through 30..37 whatever the seed."""
    rng = _rng("identities", seed, r)
    cases = [
        {"kind": "macmahon_exact", "k": 10},
        {"kind": "macmahon_series", "k": 10, "order": 30 + r % 8},
    ]
    for _ in range(3):
        cases.append({"kind": "faa", "order": 16, "coeffs": _rationals(rng, 16)})
    for form, s in EULER_FORMS:
        cases.append({"kind": "euler", "form": form, "s": [s, 0.0],
                      "max_factor": 10**6 + rng.randrange(1000)})
    for _ in range(2):
        cases.append({"kind": "genfun", "s": [rng.uniform(1.5, 4.0), rng.uniform(-20, 20)],
                      "max_part": 1000 + rng.randrange(1000), "k_max": 5})
    cases.append({"kind": "poles", "k": 5})
    cases.append({"kind": "poles", "k": 6})
    return cases


def cli_round(seed: int, r: int) -> list[dict]:
    """Every subcommand once, at sizes where process start dominates."""
    rng = _rng("cli-oneshot", seed, r)
    s_eval = [rng.uniform(0.6, 3.0), _height(rng, 0, 1.5)]
    s_oracle = [rng.uniform(2.0, 4.0), rng.uniform(-10, 10)]
    s_genfun = [rng.uniform(1.5, 4.0), rng.uniform(-10, 10)]
    form, s_euler = EULER_FORMS[rng.randrange(3)]
    k_eval, m, k_exact = rng.randint(2, 4), rng.randint(1, 3), rng.randint(4, 10)
    k_oracle, k_mac = rng.randint(1, 3), rng.randint(4, 6)
    max_part, max_factor, genfun_part = rng.randint(200, 1000), rng.randint(2000, 20000), rng.randint(100, 400)
    coeffs = _rationals(rng, 10)
    cases = [
        {"sub": "eval", "s": s_eval, "k": k_eval,
         "argv": ["eval", "--s=" + _complex_arg(s_eval), "--k", str(k_eval)]},
        {"sub": "exact", "m": m, "k": k_exact,
         "argv": ["exact", "--m", str(m), "--k", str(k_exact)]},
        {"sub": "oracle", "s": s_oracle, "k": k_oracle, "max_part": max_part,
         "argv": ["oracle", "--s=" + _complex_arg(s_oracle), "--k", str(k_oracle), "--max-part", str(max_part)]},
        {"sub": "poles", "k": 3, "argv": ["poles", "--k", "3"]},
        {"sub": "macmahon", "k": k_mac, "argv": ["macmahon", "--k", str(k_mac)]},
        {"sub": "faadibruno", "argv": ["faadibruno", "--order", "10", "--coeffs=" + ",".join(coeffs)]},
        {"sub": "euler-product", "form": form, "s": [s_euler, 0.0], "max_factor": max_factor,
         "argv": ["euler-product", "--form", form, "--s", repr(s_euler), "--max-factor", str(max_factor)]},
        {"sub": "genfun", "s": s_genfun, "max_part": genfun_part, "k_max": 4,
         "argv": ["genfun", "--s=" + _complex_arg(s_genfun), "--max-part", str(genfun_part), "--k-max", "4"]},
    ]
    for case in cases:
        case["kind"] = "cli"
    return cases


# ------------------------------------------------------------ execution


def result_json(res) -> dict:
    return {"value": [res.value.real, res.value.imag], "est_error": res.est_error,
            "terms_used": res.terms_used}


def run_library_case(pz, case: dict):
    """Run one case against the imported package; returns the raw results."""
    kind = case["kind"]
    if kind == "zeta":
        return pz.numeric.riemann_zeta(complex(*case["s"]))
    if kind == "fk":
        return pz.numeric.partition_zeta_family(complex(*case["s"]), case["k"])
    if kind == "exact":
        return pz.exact.partition_zeta_exact(case["m"], case["k"])
    if kind == "macmahon_exact":
        return pz.qseries.macmahon_exact_identity(case["k"])
    if kind == "macmahon_series":
        lhs = pz.qseries.macmahon_lhs(case["k"], case["order"])
        rhs = pz.qseries.macmahon_rhs(case["k"], case["order"])
        return lhs, rhs, lhs == rhs
    if kind == "faa":
        return pz.qseries.faa_di_bruno_check([Fraction(c) for c in case["coeffs"]], case["order"])
    if kind == "euler":
        form = {
            "even": lambda: pz.numeric.ProductForm.subset_parts(lambda n: n % 2 == 0),
            "distinct": pz.numeric.ProductForm.distinct_parts,
            "not-one": pz.numeric.ProductForm.parts_not_one,
        }[case["form"]]()
        return pz.numeric.euler_product_eval(form, case["s"][0], case["max_factor"])
    if kind == "genfun":
        s = complex(*case["s"])
        coeffs = pz.qseries.restricted_genfun_coeffs(s, case["max_part"], case["k_max"])
        direct = [pz.numeric.direct_sum_truncated(s, k, case["max_part"])
                  for k in range(1, case["k_max"] + 1)]
        return coeffs, direct
    if kind == "poles":
        return [pz.numeric.pole_order_estimate(case["k"], j) for j in range(1, case["k"] + 1)]
    raise ValueError(f"unknown case kind {kind!r}")


def library_output(case: dict, raw):
    """JSON form of a library case's results; floats keep every bit."""
    kind = case["kind"]
    if kind in ("zeta", "fk", "euler"):
        return result_json(raw)
    if kind == "exact":
        return raw.to_json()
    if kind == "macmahon_series":
        lhs, rhs, equal = raw
        return {"lhs": [str(c) for c in lhs.coeffs], "rhs": [str(c) for c in rhs.coeffs], "equal": equal}
    if kind == "genfun":
        coeffs, direct = raw
        return {"coeffs": [[c.real, c.imag] for c in coeffs], "direct": [result_json(d) for d in direct]}
    return raw


def library_property(case: dict, out) -> bool:
    """Checks that need no reference, made on every case of a run."""
    kind = case["kind"]
    if kind in ("macmahon_exact", "faa"):
        return out is True
    if kind == "macmahon_series":
        return out["equal"] is True
    if kind == "poles":
        return out == [case["k"] // j for j in range(1, case["k"] + 1)]
    return True


def run_cli_case(argv: list[str], env: dict, cwd: str, prefix=(sys.executable, "-m", "pzeta")) -> dict:
    proc = subprocess.run([*prefix, *argv], env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    return {"code": proc.returncode, "stdout": proc.stdout.strip(), "stderr": proc.stderr}


def cli_property(case: dict, out: dict) -> bool:
    if out["code"] != 0:
        return False
    try:
        doc = json.loads(out["stdout"])
    except ValueError:
        return False
    return "error" not in doc and doc.get("verified", True) is True


#: name -> (round maker, warm-up code run after ``import pzeta``, rounds in a traced run)
WORKLOADS = {
    "high-k": (high_k_round,
               "pzeta.partition_zeta_exact(2, 12); pzeta.partition_zeta_family(1.3+2.1j, 12)", 1),
    "plane": (plane_round,
              "pzeta.riemann_zeta(0.7+30j); pzeta.riemann_zeta(-0.5+10j); "
              "pzeta.partition_zeta_family(1.2+5j, 3)", 12),
    "identities": (identities_round,
                   "pzeta.macmahon_exact_identity(5); pzeta.faa_di_bruno_check([1, 2], 6); "
                   "pzeta.euler_product_eval(pzeta.ProductForm.distinct_parts(), 2, 1000); "
                   "pzeta.pole_order_estimate(3, 1)", 3),
    "cli-oneshot": (cli_round, None, 2),
}

#: The CLI workload's warm-up: one small subcommand in a fresh process.
CLI_WARMUP = ["exact", "--m", "1", "--k", "2"]
