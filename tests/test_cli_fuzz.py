"""Property test of the command line over drawn argv.

Every subcommand, whatever its arguments, must end in exit 0 or 1 with
exactly one JSON document on stdout, or in exit 2 with a usage error on
stderr.  No argv may end in a traceback or a warning.  Sizes are bounded so
that each example stays cheap; the components of s range over all finite
doubles.
"""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from pzeta import cli  # noqa: E402

DOUBLES = st.floats(allow_nan=False, allow_infinity=False)
S = st.tuples(DOUBLES, DOUBLES).map(lambda z: [f"--s={z[0]!r}{z[1]:+}i"])


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def required(flag, values):
    return values.map(lambda v: [f"{flag}={v}"])


def option(flag, values):
    # The flag with a drawn value, or nothing (argparse then uses its default).
    return st.one_of(st.just([]), required(flag, values))


def csv(elements):
    return st.lists(elements, max_size=6).map(lambda xs: ",".join(map(str, xs)))


K = required("--k", ints(-1, 6))

SUBCOMMANDS = {
    "eval": [S, K],
    "exact": [required("--m", ints(-1, 12)), K],
    "oracle": [S, K, option("--max-part", ints(-1, 300))],
    "poles": [K],
    "macmahon": [K, option("--mode", st.sampled_from(["exact", "series"])),
                 option("--order", ints(-1, 14))],
    "faadibruno": [required("--order", ints(-1, 14)),
                   option("--coeffs", csv(st.fractions(-50, 50, max_denominator=20)))],
    "euler-product": [required("--form", st.sampled_from(["even", "distinct", "not-one", "subset"])),
                      S, required("--max-factor", ints(-1, 5000)),
                      option("--subset", csv(st.integers(-2, 40)))],
    "genfun": [S, option("--max-part", ints(-1, 300)), option("--k-max", ints(-1, 6))],
}

# argv that once ended in a traceback, tried before the drawn ones: the
# reflected branch raised a ZeroDivisionError from pi^(s - 1), or from the
# inner sum's n^-s after a NaN prefactor.
EXAMPLES = {"eval": [["eval", f"--s={s}", "--k=1"] for s in ("0.3+1.7e308i", "-16.2-1.49e308i")]}


def argv_for(command):
    parts = [st.sampled_from([[], ["--format", "json"]])] + SUBCOMMANDS[command]
    return st.tuples(*parts).map(lambda groups: [command] + [a for g in groups for a in g])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Sizes from 2^53, where n no longer converts to a double exactly, to far past
# the double range, at an s where the sums converge and with every other
# argument valid: the size alone decides, and it is refused before any sum.
CONVERGENT_S = st.tuples(st.floats(min_value=1, exclude_min=True, allow_infinity=False),
                         DOUBLES).map(lambda z: [f"--s={z[0]!r}{z[1]:+}i"])
HUGE = ints(2**53, 2**2000)
FORMS = st.one_of(st.sampled_from([["--form=even"], ["--form=distinct"], ["--form=not-one"]]),
                  csv(st.integers(2, 40)).filter(bool).map(lambda xs: ["--form=subset", f"--subset={xs}"]))
HUGE_SIZES = {
    "oracle": [CONVERGENT_S, required("--k", ints(1, 6)), required("--max-part", HUGE)],
    "genfun": [CONVERGENT_S, required("--max-part", HUGE), option("--k-max", ints(0, 6))],
    "euler-product": [FORMS, CONVERGENT_S, required("--max-factor", HUGE)],
}


@pytest.mark.parametrize("command", sorted(HUGE_SIZES))
def test_size_past_2_53_is_a_value_error_document(command):
    @settings(derandomize=True, deadline=None, max_examples=50, database=None)
    @given(st.tuples(*HUGE_SIZES[command]))
    def check(groups):
        argv = [command] + [a for g in groups for a in g]
        code, out, err = run(argv)
        assert (code, err) == (1, ""), (argv, code, err)
        doc = json.loads(out)
        assert doc["error"] == "ValueError" and "below 2^53" in doc["detail"], (argv, doc)

    check()


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_cli_argv_ends_in_json_or_usage_error(command):
    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(argv_for(command))
    def check(argv):
        code, out, err = run(argv)
        if code == 2:
            assert out == "" and "error:" in err, argv
            return
        assert code in (0, 1), (argv, code)
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == out, argv
        assert (code == 1) == ("error" in doc or doc.get("verified") is False), (argv, doc)

    for argv in EXAMPLES.get(command, ()):
        check = example(argv)(check)
    check()
