"""Command line interface: argument parsing, pinned JSON bytes, round-trip
stability, exit codes, and the text renderer."""

import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pzeta import cli, numeric
from pzeta.exact import partition_zeta_exact


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


# --- argument parsing helpers ---------------------------------------------------

def test_parse_complex_forms():
    assert cli.parse_complex_arg("2") == 2
    assert cli.parse_complex_arg("-2.5") == -2.5
    assert cli.parse_complex_arg("2.5+1i") == 2.5 + 1j
    assert cli.parse_complex_arg("3I") == 3j
    assert cli.parse_complex_arg("0.5+14.134725j") == 0.5 + 14.134725j
    assert cli.parse_complex_arg(" 1 - 2i ") == 1 - 2j
    assert cli.parse_complex_arg("−2") == -2  # unicode minus


def test_parse_complex_rejects_garbage():
    import argparse

    for text in ("two", "nan", "1+nani", "1e400"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_complex_arg(text)


def test_parse_rational_csv():
    assert cli.parse_rational_csv("1,1/2,-3/5") == [
        Fraction(1), Fraction(1, 2), Fraction(-3, 5)]
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_rational_csv("1/0")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_rational_csv("a,b")


# --- pinned JSON bytes ------------------------------------------------------------

def test_exact_m1_k2_pinned_bytes(capsys):
    code, out = run_cli(capsys, "exact", "--m", "1", "--k", "2")
    assert code == 0
    assert out == '{"coeff":"7/360","pi_power":4}\n'


def test_exact_pinned_bytes_digest(capsys):
    # One sha256 over the output of every exact --m M --k K, M <= 3, K <= 40.
    digest = hashlib.sha256()
    for m in (1, 2, 3):
        for k in range(41):
            code, out = run_cli(capsys, "exact", "--m", str(m), "--k", str(k))
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == "49c24f50d6ff82ca76543509fa7eb3629cfffb4cf043cc1f93dd573afd5e8ce8"


def test_exact_past_the_int_digit_limit(capsys):
    # (40, 22)'s denominator has 4,445 digits, past the 4,300 that str(int)
    # and int(str) accept by default.  Seeded pairs with k <= 25 and
    # 2mk <= 1800 reuse most of its Bernoulli numbers; some pass the limit
    # and some stay below it.
    rng = random.Random(4301)
    pairs = [(40, 22)]
    for _ in range(6):
        k = rng.randint(1, 25)
        pairs.append((900 // k - rng.randint(0, 900 // k // 10), k))
    limit = sys.get_int_max_str_digits()
    past = 0
    for m, k in pairs:
        assert 2 * m * k <= 1800
        code, out = run_cli(capsys, "exact", "--m", str(m), "--k", str(k))
        assert code == 0, (m, k)
        doc = json.loads(out)
        past += len(doc["coeff"].partition("/")[2]) > limit
        sys.set_int_max_str_digits(0)
        try:
            coeff = Fraction(doc["coeff"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert coeff == partition_zeta_exact(m, k).coeff, (m, k)
        assert doc["pi_power"] == 2 * m * k
    assert past >= 3


def test_macmahon_k2_pinned_bytes(capsys):
    code, out = run_cli(capsys, "macmahon", "--k", "2")
    assert code == 0
    assert out == '{"identity":"macmahon","k":2,"verified":true}\n'


def test_json_round_trip_is_byte_identical(capsys):
    cases = [
        ("exact", "--m", "2", "--k", "3"),
        ("eval", "--s", "2.5+1i", "--k", "2"),
        ("oracle", "--s", "3", "--k", "2", "--max-part", "50"),
        ("macmahon", "--k", "3", "--mode", "series"),
        ("faadibruno", "--order", "6"),
        ("poles", "--k", "3"),
        ("genfun", "--s", "2", "--max-part", "10", "--k-max", "3"),
        ("euler-product", "--form", "not-one", "--s", "2", "--max-factor", "1000"),
    ]
    for argv in cases:
        _, out = run_cli(capsys, *argv)
        reserialized = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
        assert out == reserialized + "\n", argv


# --- numeric payloads ------------------------------------------------------------

def test_eval_k0_value_is_one(capsys):
    code, out = run_cli(capsys, "eval", "--s", "2", "--k", "0")
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == {"re": 1.0, "im": 0.0}
    assert doc["est_error"] == 0.0


def test_eval_matches_library(capsys):
    from pzeta.numeric import partition_zeta_family

    code, out = run_cli(capsys, "eval", "--s", "2", "--k", "2")
    doc = json.loads(out)
    want = partition_zeta_family(2, 2)
    assert code == 0
    assert doc["value"]["re"] == want.value.real
    assert doc["value"]["im"] == want.value.imag


def test_eval_far_right_is_one(capsys):
    for argv in (("--s", "1e300", "--k", "3"), ("--s=1e200+1e200i", "--k", "1"),
                 ("--s=1e308+1e308i", "--k", "1")):
        code, out = run_cli(capsys, "eval", *argv)
        assert code == 0, out
        assert json.loads(out)["value"] == {"re": 1.0, "im": 0.0}


def test_eval_near_re_s_one_at_large_k(capsys):
    from pzeta.numeric import partition_zeta_family

    code, out = run_cli(capsys, "eval", "--s=1.005+2i", "--k", "60")
    assert code == 0, out
    want = partition_zeta_family(1.005 + 2j, 60)
    assert json.loads(out)["value"] == {"re": want.value.real, "im": want.value.imag}


def test_oracle_payload(capsys):
    code, out = run_cli(capsys, "oracle", "--s", "2", "--k", "2", "--max-part", "2")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["value"]["re"] - (1 + 1 / 4 + 1 / 16)) < 1e-15
    assert doc["terms_used"] == 4


def test_oracle_refuses_rounding_noise(capsys):
    # At Im s = 1e300 every phase Im(s) log n is rounding noise.
    code, out = run_cli(capsys, "oracle", "--s=2+1e300i", "--k", "1", "--max-part", "1000")
    assert code == 1
    assert json.loads(out)["error"] == "PrecisionLoss"


def test_genfun_refuses_rounding_noise(capsys):
    code, out = run_cli(capsys, "genfun", "--s=2+1e300i", "--max-part", "1000", "--k-max", "1")
    assert code == 1
    assert json.loads(out)["error"] == "PrecisionLoss"


def test_poles_payload(capsys):
    code, out = run_cli(capsys, "poles", "--k", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc["k"] == 4
    assert doc["orders"] == [
        {"estimated": 4, "expected": 4, "j": 1},
        {"estimated": 2, "expected": 2, "j": 2},
        {"estimated": 1, "expected": 1, "j": 3},
        {"estimated": 1, "expected": 1, "j": 4},
    ]


def test_macmahon_series_mode_payload(capsys):
    code, out = run_cli(capsys, "macmahon", "--k", "4", "--mode", "series", "--order", "20")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"identity": "macmahon", "k": 4, "order": 20, "verified": True}


def test_faadibruno_custom_coeffs(capsys):
    code, out = run_cli(capsys, "faadibruno", "--order", "5", "--coeffs", "1,1/2,1/3")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"identity": "faadibruno", "order": 5, "verified": True}


@pytest.mark.parametrize("check, failing, argv, doc", [
    ("faa_di_bruno_check", False, ["faadibruno", "--order", "5"],
     {"identity": "faadibruno", "order": 5, "verified": False}),
    ("macmahon_exact_identity", False, ["macmahon", "--k", "3"],
     {"identity": "macmahon", "k": 3, "verified": False}),
    ("macmahon_rhs", None, ["macmahon", "--k", "3", "--mode", "series"],
     {"identity": "macmahon", "k": 3, "order": 16, "verified": False}),
], ids=["faadibruno", "macmahon", "macmahon-series"])
def test_failed_verification_exits_1_with_its_document(capsys, monkeypatch, check, failing, argv, doc):
    # One exit-code rule in main: 1 exactly where the document says
    # "verified": false.  The series mode compares macmahon_lhs with
    # macmahon_rhs, so a right side of None fails it.
    monkeypatch.setattr(cli.qseries, check, lambda *args: failing)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert captured.err == ""


def test_euler_product_subset(capsys):
    code, out = run_cli(
        capsys, "euler-product", "--form", "subset", "--s", "2",
        "--max-factor", "100", "--subset", "2,3")
    doc = json.loads(out)
    assert code == 0
    assert doc["form"] == "subset"
    assert abs(doc["value"]["re"] - 1.5) < 1e-12
    assert doc["terms_used"] == 2


def test_genfun_payload(capsys):
    code, out = run_cli(capsys, "genfun", "--s", "2", "--max-part", "2", "--k-max", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["coeffs"][0] == {"re": 1.0, "im": 0.0}
    assert abs(doc["coeffs"][2]["re"] - 21 / 16) < 1e-15


# --- exit codes and error payloads --------------------------------------------------

def test_pole_at_one_reports_domain_error(capsys):
    # s = 1 with k = 1 trips the family's own j = 1 proximity check.
    code, out = run_cli(capsys, "eval", "--s", "1", "--k", "1")
    doc = json.loads(out)
    assert code == 1
    assert doc["error"] == "PoleProximity"


def test_pole_proximity_reports_domain_error(capsys):
    code, out = run_cli(capsys, "eval", "--s", "0.5", "--k", "2")
    doc = json.loads(out)
    assert code == 1
    assert doc["error"] == "PoleProximity"
    assert "2" in doc["detail"]


def test_divergence_reports_domain_error(capsys):
    code, out = run_cli(capsys, "oracle", "--s", "1", "--k", "2")
    doc = json.loads(out)
    assert code == 1
    assert doc["error"] == "DivergenceRegion"


def test_reflection_overflow_reports_domain_error(capsys):
    # Gamma(1 - s) overflows at s = -201, where zeta is not 0, and at
    # 0.3 + 1.7e308i the phase |Im s| log pi of pi^(s - 1) does.
    for s in ("--s=-201", "--s=0.3+1.7e308i"):
        code, out = run_cli(capsys, "eval", s, "--k", "1")
        doc = json.loads(out)
        assert code == 1
        assert doc["error"] == "PrecisionLoss", s


def test_overflowing_multiple_of_s_reports_domain_error(capsys):
    # s is finite, but 2 s is not: the error names j and the user's s.
    code, out = run_cli(capsys, "eval", "--s=1e308", "--k", "3")
    doc = json.loads(out)
    assert code == 1
    assert doc == {"detail": "j s overflows at j = 2, s = (1e+308+0j)", "error": "DomainError"}


def test_s_past_the_double_range_reports_domain_error(capsys):
    code, out = run_cli(capsys, "eval", "--s=1.7e308+1.7e308i", "--k", "1")
    assert code == 1
    assert json.loads(out) == {"detail": "|s - 1| passes the double range at s = (1.7e+308+1.7e+308j)",
                               "error": "DomainError"}


def test_value_error_reports_exit_1(capsys):
    code, out = run_cli(capsys, "exact", "--m", "0", "--k", "2")
    doc = json.loads(out)
    assert code == 1
    assert doc["error"] == "ValueError"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--s", "2"])  # missing --k
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--s", "2", "--k", "2", "--unknown-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["euler-product", "--form", "subset", "--s", "2"])  # no --subset
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["euler-product", "--form", "distinct", "--s", "2", "--subset", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["euler-product", "--form", "subset", "--s", "2", "--subset", "2,x"])
    assert exc.value.code == 2
    assert "cannot parse integer list" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["faadibruno", "--order", "1", "--coeffs", "1,2,3"])
    assert exc.value.code == 2
    capsys.readouterr()
    for mode in (["--mode", "exact"], []):
        with pytest.raises(SystemExit) as exc:
            cli.main(["macmahon", "--k", "4", *mode, "--order", "30"])
        assert exc.value.code == 2
        assert "--order only applies to --mode series" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--s", "nan", "--k", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


# 10^14 float64 entries are 728 TiB, past the address space, so numpy refuses
# the array at once without committing any memory.  The even form still
# builds its parts as an array; the built-in forms no longer do.
@pytest.mark.parametrize("argv", [
    ["oracle", "--s", "3", "--k", "2", "--max-part", str(10**14)],
    ["genfun", "--s", "3", "--max-part", str(10**14)],
    ["euler-product", "--form", "even", "--s", "2", "--max-factor", str(10**14)],
], ids=["oracle", "genfun", "euler-product"])
def test_impossible_size_reports_memory_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "MemoryError"
    assert capsys.readouterr().err == ""


def test_not_one_at_10_to_14_factors_returns_its_closed_form(capsys):
    # prod_{n>=2} 1/(1 - n^-2) = 2: the tail past n = 64 is summed through
    # zeta(2j, 65) - zeta(2j, 10^14 + 1), with no array of parts.
    code, out = run_cli(capsys, "euler-product", "--form", "not-one", "--s", "2",
                        "--max-factor", str(10**14))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"]["re"] - 2) <= doc["est_error"]
    assert doc["value"]["im"] == 0.0
    assert doc["terms_used"] == 10**14 - 1


def test_no_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


# --- text format --------------------------------------------------------------------

def test_text_format_renders_aligned_rows(capsys):
    code, out = run_cli(capsys, "exact", "--m", "1", "--k", "2", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines == ["coeff     7/360", "pi_power  4"]


def test_text_format_booleans_lowercase(capsys):
    _, out = run_cli(capsys, "macmahon", "--k", "2", "--format", "text")
    assert "verified" in out and "true" in out


def test_text_format_float_and_list_rows(capsys):
    # Floats print as repr, so a row reads back as the JSON number.
    _, doc = run_cli(capsys, "eval", "--s", "2", "--k", "1")
    doc = json.loads(doc)
    _, out = run_cli(capsys, "eval", "--s", "2", "--k", "1", "--format", "text")
    assert dict(line.split() for line in out.splitlines()) == {
        "est_error": repr(doc["est_error"]),
        "terms_used": str(doc["terms_used"]),
        "value.im": "0.0",
        "value.re": repr(doc["value"]["re"]),
    }
    _, out = run_cli(capsys, "genfun", "--s", "2", "--max-part", "2", "--k-max", "2",
                     "--format", "text")
    assert out.splitlines() == [
        "coeffs[0].im  0.0", "coeffs[0].re  1.0", "coeffs[1].im  0.0", "coeffs[1].re  1.25",
        "coeffs[2].im  0.0", "coeffs[2].re  1.3125", "k_max         2", "max_part      2"]


def test_format_flag_works_before_subcommand(capsys):
    code, out = run_cli(capsys, "--format", "text", "exact", "--m", "1", "--k", "1")
    assert code == 0
    assert "pi_power  2" in out


# --- module entry point ----------------------------------------------------------------

def test_python_dash_m_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "pzeta", "exact", "--m", "1", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"coeff":"7/360","pi_power":4}\n'


# --- numpy and dataclasses stay off the import path -------------------------------------
# Only the bounded-part kernel (restricted_genfun_coeffs, direct_sum_truncated)
# once numpy is loaded or --max-part times (k + 1) passes 10^5,
# euler_product_eval's array pass over a subset's parts and
# ProductForm.subset_parts import numpy, so of the subcommands only the even
# and subset forms of euler-product, and oracle and genfun above that size,
# load it.  Below it oracle and genfun sum in pure Python, and
# truncation_error_estimate takes zeta_M from the zeta kernel.  The
# distinct and not-one forms never load it, at any s: they sum their
# factors in pure Python and their tail, where that pays, through the zeta
# kernel.  The records are namedtuples, so nothing loads dataclasses.  Each
# check runs in a fresh interpreter, where nothing else has imported either.

def run_python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def test_import_does_not_load_numpy():
    proc = run_python("import pzeta, sys\n"
                      "assert 'numpy' not in sys.modules\n"
                      "assert 'dataclasses' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["eval", "--s", "2.5+1i", "--k", "3"],
    ["exact", "--m", "1", "--k", "2"],
    ["poles", "--k", "3"],
    ["macmahon", "--k", "4"],
    ["faadibruno", "--order", "6"],
    ["euler-product", "--form", "not-one", "--s", "3", "--max-factor", "20000"],
    ["euler-product", "--form", "distinct", "--s", "2"],
    ["euler-product", "--form", "distinct", "--s=2+1000000i", "--max-factor", "1000"],
    ["oracle", "--s=2.5+3i", "--k", "3"],
    ["oracle", "--s", "3", "--k", "2", "--max-part", "33333"],
    ["genfun", "--s=1.8-7i", "--max-part", "400", "--k-max", "4"],
    ["genfun", "--s", "2"],
], ids=lambda argv: argv[0])
def test_subcommand_does_not_load_numpy(argv):
    proc = run_python(
        "import sys\n"
        "from pzeta import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'dataclasses' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)


@pytest.mark.parametrize("argv, key", [
    (["oracle", "--s", "2", "--k", "2", "--max-part", "10"], "value"),
    (["euler-product", "--form", "even", "--s", "2", "--max-factor", "100"], "value"),
    (["genfun", "--s", "2", "--max-part", "5", "--k-max", "3"], "coeffs"),
], ids=["oracle", "euler-product", "genfun"])
def test_array_subcommands_still_run(argv, key):
    proc = subprocess.run(
        [sys.executable, "-m", "pzeta", *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert key in json.loads(proc.stdout)


def test_oracle_above_the_pure_kernel_cap_loads_numpy():
    # --max-part 33334 at k = 2 sums 3 passes of 33334 terms, past 10^5.
    proc = run_python(
        "import sys\n"
        "from pzeta import cli\n"
        "assert cli.main(['oracle', '--s', '3', '--k', '2', '--max-part', '33334']) == 0\n"
        "assert 'numpy' in sys.modules\n")
    assert proc.returncode == 0, proc.stderr
    assert "value" in json.loads(proc.stdout)


def _run_without_numpy(argv):
    return run_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from pzeta import cli\n"
        f"sys.exit(cli.main({argv!r}))\n")


@pytest.mark.parametrize("argv", [
    ["oracle", "--s", "3", "--k", "2", "--max-part", "33334"],
    ["euler-product", "--form", "even", "--s", "2", "--max-factor", "100"],
    ["euler-product", "--form", "subset", "--subset", "2,3", "--s", "2"],
    ["genfun", "--s", "3", "--max-part", "20001", "--k-max", "4"],
], ids=["oracle", "euler-product", "euler-product-subset", "genfun"])
def test_array_subcommands_without_numpy_report_json_error(argv):
    # With numpy unimportable, the even and subset forms, and oracle and
    # genfun past --max-part (k + 1) = 10^5, end in the usual JSON error
    # document and exit 1, not in a traceback.
    proc = _run_without_numpy(argv)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["error"] == "ModuleNotFoundError"
    assert "numpy" in doc["detail"]


@pytest.mark.parametrize("max_part", [5, 33333], ids=["small", "at-cap"])
def test_oracle_without_numpy_prints_its_document(max_part):
    # Up to --max-part (k + 1) = 10^5 the sums run in pure Python; the value
    # is the library's, from numpy's kernel here, within the reported bound.
    proc = _run_without_numpy(["oracle", "--s", "3", "--k", "2", "--max-part", str(max_part)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    want = numeric.direct_sum_truncated(3, 2, max_part)
    assert doc["terms_used"] == want.terms_used == 2 * max_part
    assert abs(complex(doc["value"]["re"], doc["value"]["im"]) - want.value) <= doc["est_error"]


@pytest.mark.parametrize("max_part", [5, 20000], ids=["small", "at-cap"])
def test_genfun_without_numpy_prints_its_document(max_part):
    proc = _run_without_numpy(["genfun", "--s", "3", "--max-part", str(max_part), "--k-max", "4"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    want = numeric.restricted_genfun_coeffs(3, max_part, 4)
    assert len(doc["coeffs"]) == len(want) == 5
    for c, w in zip(doc["coeffs"], want):
        assert abs(complex(c["re"], c["im"]) - w) <= 1e-13 * abs(w)
