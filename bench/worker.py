"""One round of one workload in a fresh, single-threaded interpreter.

Reads a job from stdin: {"src", "items", "trace", "trace_path"}.
Imports kstab from the checkout's src/, builds and validates the
kstab inputs (that is setup), then times every item by this
thread's CPU time with the reference kernel run beside it.  Writes
one JSON document to stdout: per-item seconds and kernel seconds,
setup seconds, peak RSS, serialised outputs and, when traced,
per-layer metrics.

Exit codes: 0 on success, 3 when kstab cannot be imported from src/.
"""

import gc
import json
import os
import resource
import statistics
import sys
from fractions import Fraction

from kernel import clock, kernel
from tracer import Tracer, layer_metrics

KERNEL_CALLS = 3


def kernel_seconds():
    """Median of a few kernel calls with the collector paused."""
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_CALLS):
            t0 = clock()
            kernel()
            times.append(clock() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def peak_rss_mb():
    """High-water RSS of this process image.

    VmHWM belongs to the memory map made at exec; getrusage's ru_maxrss
    also keeps the parent's high-water mark from before the exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_kstab(src):
    sys.path.insert(0, src)
    try:
        import kstab
        from kstab import arrangements, flags, monomials, verification
    except ImportError as exc:
        print(f"cannot import kstab from {src}: {exc}", file=sys.stderr)
        sys.exit(3)
    here = os.path.realpath(kstab.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        print(f"kstab was imported from {here}, not from {src}", file=sys.stderr)
        sys.exit(3)
    return {
        "arrangements": arrangements,
        "flags": flags,
        "monomials": monomials,
        "verification": verification,
    }


def build(mods, item):
    """A zero-argument callable for the item; attributes are looked up
    at call time so a traced run sees the wrapped functions."""
    arr, mono, fl, ver = (
        mods["arrangements"], mods["monomials"], mods["flags"], mods["verification"]
    )
    call, args = item["call"], item["args"]
    if call == "lct_central":
        a = arr.CentralArrangement(args["n"], args["forms"])
        return lambda: arr.lct_central(a)
    if call == "lct_braid":
        g = args["g"]
        return lambda: arr.lct_braid(g)
    if call == "lct_braid_generic":
        a = arr.braid_arrangement(args["g"])
        return lambda: arr.lct_central(a)
    if call == "multiplier_ideal":
        n = args["n"]
        prod = mono.WeightedIdealProduct([
            (mono.MonomialIdeal(n, [tuple(g) for g in f["gens"]]), Fraction(f["c"]))
            for f in args["factors"]
        ])
        return lambda: mono.multiplier_ideal(prod)
    if call == "lct_monomial":
        ideal = mono.MonomialIdeal(args["n"], [tuple(g) for g in args["factor"]["gens"]])
        return lambda: mono.lct_monomial(ideal)
    if call == "summation_check":
        n = args["n"]

        def ideal(gens):
            return mono.MonomialIdeal(n, [tuple(g) for g in gens])

        a0 = ideal(args["a0"]["gens"])
        parts = [ideal(p) for p in args["parts"]]
        c0, c, bound = Fraction(args["c0"]), Fraction(args["c"]), args["denom_bound"]
        return lambda: mono.summation_check(a0, c0, parts, c, denom_bound=bound)
    if call == "df_with_escalation":
        flag = fl.FlagIdealP1(args["divisors"])
        s = Fraction(args["s"])
        return lambda: ver.df_with_escalation(flag, s)
    raise ValueError(f"unknown call {call!r}")


def _q(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def serialise(call, out):
    if call in ("lct_central", "lct_braid", "lct_braid_generic"):
        return {
            "lct": _q(out.value),
            "minimizers": [
                [f.rank, f.count, sorted(f.member_indices)] for f in out.minimizers
            ],
        }
    if call == "multiplier_ideal":
        return {"gens": sorted(list(g) for g in out.generators)}
    if call == "lct_monomial":
        return {"lct": _q(out)}
    if call == "summation_check":
        return {
            "equal": out.equal,
            "lhs": sorted(list(g) for g in out.lhs.generators),
            "rhs": sorted(list(g) for g in out.rhs.generators),
        }
    if call == "df_with_escalation":
        return {
            "base": out.k_grid.base,
            "grid": [[k, _q(w)] for k, w in out.k_grid.entries],
            "w_poly": [_q(c) for c in out.w_poly.coeffs],
            "DF0": _q(out.DF0),
        }
    raise ValueError(f"unknown call {call!r}")


def main():
    job = json.load(sys.stdin)
    t0 = clock()
    mods = load_kstab(job["src"])
    calls = [build(mods, item) for item in job["items"]]
    setup_s = clock() - t0

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install(mods)

    outputs, errors, item_s, kernel_s = [], [], [], [kernel_seconds()]
    for i, fn in enumerate(calls):
        if tracer:
            tracer.begin_item(i)
        t_start = clock()
        try:
            out, err = fn(), None
        except Exception as exc:  # a failed item is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        item_s.append(clock() - t_start)
        if tracer:
            tracer.end_item()
        outputs.append(out)
        errors.append(err)
        kernel_s.append(kernel_seconds())
    peak_rss = peak_rss_mb()

    # each item's ref unit: mean of the kernel runs just before and after it
    unit = [(kernel_s[i] + kernel_s[i + 1]) / 2 for i in range(len(calls))]
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "item_s": item_s,
        "unit_s": unit,
        "outputs": [
            {"error": err} if err else serialise(item["call"], out)
            for item, out, err in zip(job["items"], outputs, errors)
        ],
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, unit)
        tracer.write(job["trace_path"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
