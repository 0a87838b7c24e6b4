"""Command line interface.

Subcommands evaluate the fixed-length partition zeta function exactly and
numerically, run the truncated direct-sum oracle, probe pole orders, verify
the q-series identities, and evaluate restricted Euler products.

Output is a single JSON document per invocation (keys sorted, compact
separators, so re-serializing a parsed document is byte-identical), or
aligned text with --format text.  Exit codes: 0 success, 1 domain error or
failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from fractions import Fraction

from . import exact, numeric, qseries
from .errors import DomainError


class _UsageError(Exception):
    """Bad parameter combination detected after argparse; exits 2."""


def parse_complex_arg(text: str) -> complex:
    """Parse finite "a+bi" style complex literals: "2", "-2", "2.5+1i", "3i"."""
    t = (
        text.strip()
        .replace(" ", "")
        .replace("−", "-")  # unicode minus
        .replace("I", "i")
        .replace("i", "j")
    )
    try:
        z = complex(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from None
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"complex number must be finite, got {text!r}")
    return z


def parse_rational_csv(text: str) -> list[Fraction]:
    """Parse a comma-separated list of rationals like "1,1/2,-3/5"."""
    try:
        return [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse rational list {text!r}") from None


def parse_int_csv(text: str) -> list[int]:
    try:
        return [int(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse integer list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("json", "text"),
        default=argparse.SUPPRESS,
        help="output format (default: json)",
    )

    parser = argparse.ArgumentParser(
        prog="pzeta",
        description="Partition zeta functions summed over fixed-length partitions.",
        parents=[fmt],
    )
    # The --format action object is shared by every parser through the fmt
    # parent, so its default must stay SUPPRESS (set_defaults here would
    # mutate the shared action and let subparsers clobber a root-level
    # --format); main() falls back to "json" when the flag never appeared.
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "eval",
        parents=[fmt],
        help="numeric length-k partition zeta value at complex s",
    )
    p.add_argument("--s", type=parse_complex_arg, required=True, help='complex point, e.g. "2.5+1i"')
    p.add_argument("--k", type=int, required=True, help="partition length, k >= 0")

    p = sub.add_parser(
        "exact",
        parents=[fmt],
        help="exact length-k value at s = 2m as a rational multiple of a pi power",
    )
    p.add_argument("--m", type=int, required=True, help="half the even argument, m >= 1")
    p.add_argument("--k", type=int, required=True, help="partition length, k >= 0")

    p = sub.add_parser(
        "oracle",
        parents=[fmt],
        help="truncated direct sum over partitions with exactly k bounded parts",
    )
    p.add_argument("--s", type=parse_complex_arg, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-part", type=int, default=1000, help="largest part admitted (default 1000)")

    p = sub.add_parser(
        "poles",
        parents=[fmt],
        help="estimate the pole order at every s = 1/j, 1 <= j <= k",
    )
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser(
        "macmahon",
        parents=[fmt],
        help="verify the partial-fraction decomposition of the length-k generating function",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "series"), default="exact")
    p.add_argument("--order", type=int, default=None, help="series order (default 2k+10)")

    p = sub.add_parser(
        "faadibruno",
        parents=[fmt],
        help="verify the exponential partition identity at the given order",
    )
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--coeffs",
        type=parse_rational_csv,
        default=None,
        help='comma-separated rationals a_1,a_2,... (default a_j = 1/j)',
    )

    p = sub.add_parser(
        "euler-product",
        parents=[fmt],
        help="restricted Euler product over admitted parts",
    )
    p.add_argument("--form", choices=("even", "distinct", "not-one", "subset"), required=True)
    p.add_argument("--s", type=parse_complex_arg, required=True)
    p.add_argument("--max-factor", type=int, default=1000000)
    p.add_argument("--subset", type=parse_int_csv, default=None,
                   help="admitted parts for --form subset, e.g. 2,3,5")

    p = sub.add_parser(
        "genfun",
        parents=[fmt],
        help="z-expansion coefficients of the bounded-part generating product",
    )
    p.add_argument("--s", type=parse_complex_arg, required=True)
    p.add_argument("--max-part", type=int, default=1000)
    p.add_argument("--k-max", type=int, default=5)

    return parser


def _cmd_eval(args) -> tuple[dict, int]:
    return numeric.partition_zeta_family(args.s, args.k).to_json(), 0


def _cmd_exact(args) -> tuple[dict, int]:
    return exact.partition_zeta_exact(args.m, args.k).to_json(), 0


def _cmd_oracle(args) -> tuple[dict, int]:
    return numeric.direct_sum_truncated(args.s, args.k, args.max_part).to_json(), 0


def _cmd_poles(args) -> tuple[dict, int]:
    if args.k < 1:
        raise _UsageError("--k must be >= 1")
    orders = []
    for j in range(1, args.k + 1):
        est = numeric.pole_order_estimate(args.k, j)
        orders.append({"estimated": est, "expected": args.k // j, "j": j})
    return {"k": args.k, "orders": orders}, 0


def _cmd_macmahon(args) -> tuple[dict, int]:
    if args.k < 1:
        raise _UsageError("--k must be >= 1")
    if args.mode == "exact":
        ok = qseries.macmahon_exact_identity(args.k)
        payload = {"identity": "macmahon", "k": args.k, "verified": ok}
    else:
        order = args.order if args.order is not None else 2 * args.k + 10
        ok = qseries.macmahon_lhs(args.k, order) == qseries.macmahon_rhs(args.k, order)
        payload = {"identity": "macmahon", "k": args.k, "order": order, "verified": ok}
    return payload, 0 if ok else 1


def _cmd_faadibruno(args) -> tuple[dict, int]:
    if args.order < 0:
        raise _UsageError("--order must be >= 0")
    if args.coeffs is None:
        coeffs = [Fraction(1, j) for j in range(1, args.order + 1)]
    else:
        if len(args.coeffs) > args.order:
            raise _UsageError("--coeffs supplies more coefficients than --order")
        coeffs = args.coeffs
    ok = qseries.faa_di_bruno_check(coeffs, args.order)
    return {"identity": "faadibruno", "order": args.order, "verified": ok}, 0 if ok else 1


def _cmd_euler_product(args) -> tuple[dict, int]:
    if args.form == "subset":
        if not args.subset:
            raise _UsageError("--form subset requires --subset with at least one part")
        allowed = frozenset(args.subset)
        form = numeric.ProductForm.subset_parts(lambda n: n in allowed)
    else:
        if args.subset is not None:
            raise _UsageError("--subset only applies to --form subset")
        if args.form == "even":
            form = numeric.ProductForm.subset_parts(lambda n: n % 2 == 0)
        elif args.form == "distinct":
            form = numeric.ProductForm.distinct_parts()
        else:
            form = numeric.ProductForm.parts_not_one()
    res = numeric.euler_product_eval(form, args.s, args.max_factor)
    payload = {"form": args.form}
    payload.update(res.to_json())
    return payload, 0


def _cmd_genfun(args) -> tuple[dict, int]:
    coeffs = numeric.restricted_genfun_coeffs(args.s, args.max_part, args.k_max)
    payload = {
        "k_max": args.k_max,
        "max_part": args.max_part,
        "coeffs": [{"re": c.real, "im": c.imag} for c in coeffs],
    }
    return payload, 0


_HANDLERS = {
    "eval": _cmd_eval,
    "exact": _cmd_exact,
    "oracle": _cmd_oracle,
    "poles": _cmd_poles,
    "macmahon": _cmd_macmahon,
    "faadibruno": _cmd_faadibruno,
    "euler-product": _cmd_euler_product,
    "genfun": _cmd_genfun,
}


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, rows)
    elif isinstance(value, bool):
        rows.append((prefix, "true" if value else "false"))
    elif isinstance(value, float):
        rows.append((prefix, repr(value)))
    else:
        rows.append((prefix, str(value)))


def render_text(payload: dict) -> str:
    """Aligned key/value table of the flattened payload."""
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key.ljust(width)}  {val}" for key, val in rows)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(render_text(payload))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "json")
    handler = _HANDLERS[args.command]
    try:
        payload, code = handler(args)
    except _UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (DomainError, ModuleNotFoundError) as exc:
        # ModuleNotFoundError: oracle, euler-product and genfun need numpy.
        _emit({"error": type(exc).__name__, "detail": str(exc)}, fmt)
        return 1
    except ValueError as exc:
        _emit({"error": "ValueError", "detail": str(exc)}, fmt)
        return 1
    _emit(payload, fmt)
    return code


def main_entry() -> None:
    sys.exit(main())
