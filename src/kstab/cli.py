"""Command-line front end.

Every computation is exposed with JSON output (rationals as "p/q"
strings).  Exit codes: 0 success, 2 input error, 3 resource or
stabilization limit.
"""

import argparse
import json
import sys

from .arrangements import arrangement_from_json, lct_braid, lct_central
from .errors import (
    GridTooShortError,
    InconclusiveError,
    InputError,
    SizeError,
)
from .flags import donaldson_futaki, flag_from_json
from .gamma import gamma_at_k, gamma_report_json
from .monomials import ideal_from_json, summation_check
from .rationals import rat, rat_str
from .verification import run_all

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _read_json_file(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, non-UTF-8 bytes, oversized integers
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _emit(payload, fmt):
    if fmt == "text":
        for line in _render_text(payload):
            print(line)
    else:
        print(json.dumps(payload))


def _render_text(payload, prefix=""):
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                yield f"{prefix}{key}:"
                yield from _render_text(value, prefix + "  ")
            else:
                yield f"{prefix}{key}: {value}"
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, list) and not any(
                isinstance(v, (dict, list)) for v in value
            ):
                yield f"{prefix}- [{', '.join(map(str, value))}]"
            elif isinstance(value, (dict, list)):
                yield from _render_text(value, prefix + "  ")
            else:
                yield f"{prefix}- {value}"
    else:
        yield f"{prefix}{payload}"


def cmd_lct_braid(args):
    cert = lct_braid(args.g)
    _emit(cert.to_json(), args.format)
    return EXIT_OK


def cmd_lct_arrangement(args):
    arr = arrangement_from_json(_read_json_file(args.file))
    cert = lct_central(arr)
    _emit(cert.to_json(), args.format)
    return EXIT_OK


def cmd_gamma(args):
    if args.k is None and args.k_max is None:
        raise InputError("pass --k or --k-max")
    if args.k is not None:
        sample = gamma_at_k(args.k)
        _emit(sample.to_json(), args.format)
    else:
        _emit(gamma_report_json(args.k_max), args.format)
    return EXIT_OK


def cmd_df(args):
    flag = flag_from_json(_read_json_file(args.flag))
    _emit(donaldson_futaki(flag, rat(args.s)).to_json(), args.format)
    return EXIT_OK


def cmd_check_summation(args):
    data = _read_json_file(args.file)
    if not isinstance(data, dict):
        raise InputError("summation JSON must be an object")
    for field in ("a0", "parts", "c"):
        if field not in data:
            raise InputError(f"summation JSON missing field '{field}'")
    if not isinstance(data["parts"], list):
        raise InputError("field 'parts' must be a list")
    a0 = ideal_from_json(data["a0"])
    parts = [ideal_from_json(p) for p in data["parts"]]
    result = summation_check(
        a0,
        rat(data.get("c0", 0)),
        parts,
        rat(data["c"]),
        denom_bound=data.get("denom_bound", 24),
    )
    _emit(
        {
            "equal": result.equal,
            "witness_denominator": result.witness_denominator,
            "lhs": result.lhs.to_json(),
            "rhs": result.rhs.to_json(),
        },
        args.format,
    )
    return EXIT_OK


def cmd_verify(args):
    results = []
    all_pass = True
    for cid, ok, detail, seconds in run_all(quick=args.quick, seed=args.seed):
        # timings go to stderr so the stdout scorecard stays
        # byte-identical across runs with the same seed
        print(f"{cid}: {'PASS' if ok else 'FAIL'} ({seconds:.2f}s)", file=sys.stderr)
        results.append({"id": cid, "pass": ok, "detail": detail})
        all_pass = all_pass and ok
    scorecard = {
        "seed": args.seed,
        "quick": args.quick,
        "criteria": results,
        "all_pass": all_pass,
    }
    _emit(scorecard, args.format)
    return EXIT_OK if all_pass else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kstab",
        description=(
            "Exact-rational toolkit: arrangement lct, Gibbs-type stability "
            "of the projective line, monomial multiplier ideals, and "
            "Donaldson-Futaki invariants of flag configurations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("json", "text"), default="json",
            help="output rendering (default: json)",
        )

    p = sub.add_parser("lct-braid", help="lct of the braid arrangement")
    p.add_argument("--g", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_lct_braid)

    p = sub.add_parser("lct-arrangement", help="lct of an arrangement file")
    p.add_argument("--file", required=True, help="arrangement JSON ('-' for stdin)")
    add_format(p)
    p.set_defaults(func=cmd_lct_arrangement)

    p = sub.add_parser("gamma-p1", help="Gibbs-type stability samples for P^1")
    p.add_argument("--k", type=int)
    p.add_argument("--k-max", type=int, dest="k_max")
    add_format(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("df", help="Donaldson-Futaki invariant of a flag file")
    p.add_argument("--flag", required=True, help="flag JSON ('-' for stdin)")
    p.add_argument("--s", default="1", help="blowup scale s as 'p/q'")
    add_format(p)
    p.set_defaults(func=cmd_df)

    p = sub.add_parser("check-summation", help="splitting identity checker")
    p.add_argument("--file", required=True, help="instance JSON ('-' for stdin)")
    add_format(p)
    p.set_defaults(func=cmd_check_summation)

    p = sub.add_parser("verify", help="run every verification suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--quick", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SizeError, GridTooShortError, InconclusiveError) as exc:
        print(f"limit reached: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
