"""Command-line front end.

Every computation is exposed with JSON output (rationals as "p/q"
strings).  Each subcommand returns its payload; main renders it and
picks the exit code: 0 success, 1 a failing verify criterion, 2 input
error, 3 resource or stabilization limit, 141 (128 + SIGPIPE) a reader
that closed stdout before the output was written.  A reader that closed
stderr changes neither the exit code nor stdout: the messages meant for
it are dropped.
"""

import argparse
import json
import os
import sys

from .arrangements import arrangement_from_json, lct_braid, lct_central
from .errors import InconclusiveError, InputError, SizeError
from .flags import donaldson_futaki, flag_from_json
from .gamma import gamma_at_k, gamma_report_json
from .monomials import summation_check, summation_from_json
from .rationals import rat
from .verification import run_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_PIPE = 141


def _unique_keys(pairs):
    """An object's dict; a key it repeats would silently drop a value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def _read_json_file(path):
    try:
        if path == "-":
            return json.load(sys.stdin, object_pairs_hook=_unique_keys)
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # bad JSON, non-UTF-8 bytes, oversized integers, repeated keys, nesting
    # past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _to_devnull(stream):
    """Point the stream's file descriptor at os.devnull, so that what it
    still buffers, and the flush at exit, cannot raise again."""
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, stream.fileno())
    finally:
        os.close(null)


def _note(line):
    """Write a line to stderr, which a closed reader may have left."""
    try:
        print(line, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _render_text(payload, prefix=""):
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                yield f"{prefix}{key}:"
                yield from _render_text(value, prefix + "  ")
            else:
                yield f"{prefix}{key}: {value}"
    else:
        for value in payload:
            if isinstance(value, list) and not any(
                isinstance(v, (dict, list)) for v in value
            ):
                yield f"{prefix}- [{', '.join(map(str, value))}]"
            elif isinstance(value, (dict, list)):
                yield from _render_text(value, prefix + "  ")
            else:
                yield f"{prefix}- {value}"


def cmd_lct_braid(args):
    return lct_braid(args.g).to_json()


def cmd_lct_arrangement(args):
    return lct_central(arrangement_from_json(_read_json_file(args.file))).to_json()


def cmd_gamma(args):
    if (args.k is None) == (args.k_max is None):
        raise InputError("pass one of --k and --k-max")
    if args.k is not None:
        return gamma_at_k(args.k).to_json()
    return gamma_report_json(args.k_max)


def cmd_df(args):
    flag = flag_from_json(_read_json_file(args.flag))
    return donaldson_futaki(flag, rat(args.s)).to_json()


def cmd_check_summation(args):
    return summation_check(**summation_from_json(_read_json_file(args.file))).to_json()


def cmd_verify(args):
    results = []
    for cid, ok, detail, seconds in run_all(quick=args.quick, seed=args.seed):
        # timings go to stderr so the stdout scorecard stays
        # byte-identical across runs with the same seed
        _note(f"{cid}: {'PASS' if ok else 'FAIL'} ({seconds:.2f}s)")
        results.append({"id": cid, "pass": ok, "detail": detail})
    return {
        "seed": args.seed,
        "quick": args.quick,
        "criteria": results,
        "all_pass": all(r["pass"] for r in results),
    }


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

    p = sub.add_parser("lct-braid", help="lct of the braid arrangement")
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=cmd_lct_braid)

    p = sub.add_parser("lct-arrangement", help="lct of an arrangement file")
    p.add_argument("--file", required=True, help="arrangement JSON ('-' for stdin)")
    p.set_defaults(func=cmd_lct_arrangement)

    p = sub.add_parser("gamma-p1", help="Gibbs-type stability samples for P^1")
    p.add_argument("--k", type=int)
    p.add_argument("--k-max", type=int, dest="k_max")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("df", help="Donaldson-Futaki invariant of a flag file")
    p.add_argument("--flag", required=True, help="flag JSON ('-' for stdin)")
    p.add_argument("--s", default="1", help="blowup scale s as 'p/q'")
    p.set_defaults(func=cmd_df)

    p = sub.add_parser("check-summation", help="splitting identity checker")
    p.add_argument("--file", required=True, help="instance JSON ('-' for stdin)")
    p.set_defaults(func=cmd_check_summation)

    p = sub.add_parser("verify", help="run every verification suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument(
            "--format", choices=("json", "text"), default="json",
            help="output rendering (default: json)",
        )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except InputError as exc:
        _note(f"input error: {exc}")
        return EXIT_INPUT
    except (SizeError, InconclusiveError) as exc:
        _note(f"limit reached: {exc}")
        return EXIT_LIMIT
    try:
        if args.format == "text":
            for line in _render_text(payload):
                print(line)
        else:
            print(json.dumps(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        return EXIT_PIPE
    # only a verify scorecard with a failing criterion exits 1
    return EXIT_FAIL if payload.get("all_pass") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
