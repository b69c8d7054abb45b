"""Compare each worker output with the oracles in oracles.py.

check(item, output) returns None when the output is right and a
one-line reason otherwise.  Pair checks (Skoda, divisor factoring)
relate two items' outputs and run once all items are in.
"""

from fractions import Fraction

import oracles

# refinement points past this k*s are not counted; the item then fails
MAX_ORACLE_PARTS = 1500


class Checker:
    def __init__(self):
        self._weights = {}
        self._seen = {}

    def check(self, item, output):
        """Cached per (item, output): rounds repeat identical outputs."""
        key = (id(item), repr(output))
        if key not in self._seen:
            if "error" in output:
                self._seen[key] = output["error"]
            else:
                self._seen[key] = getattr(self, "_" + item["call"])(item["args"], item, output)
        return self._seen[key]

    # -- lattice ------------------------------------------------------

    @staticmethod
    def _compare_lct(value, mins, output):
        got_mins = sorted(tuple([r, c, tuple(m)]) for r, c, m in output["minimizers"])
        if Fraction(output["lct"]) != value:
            return f"lct {output['lct']} != {value}"
        if got_mins != [tuple(x) for x in mins]:
            return "minimisers differ from the oracle's"
        return None

    def _lct_central(self, args, item, output):
        value, mins = oracles.lattice_lct(args["forms"], args["n"])
        return self._compare_lct(value, mins, output)

    def _lct_braid(self, args, item, output):
        return self._compare_lct(*oracles.braid_lct(args["g"]), output)

    _lct_braid_generic = _lct_braid

    # -- monomials ----------------------------------------------------

    def _multiplier_ideal(self, args, item, output):
        n, factors = args["n"], args["factors"]
        expected = oracles.howald_generators(n, factors)
        got = [tuple(g) for g in output["gens"]]
        if got != expected:
            return f"J = {got[:4]}... but Howald gives {expected[:4]}..."
        if len(factors) == 1:
            unit = got == [(0,) * n]
            below = Fraction(factors[0]["c"]) < oracles.howald_lct(n, factors[0])
            if unit != below:
                return "J(a^c) is the unit ideal but c >= lct, or the reverse"
        return None

    def _lct_monomial(self, args, item, output):
        expected = oracles.howald_lct(args["n"], args["factor"])
        if Fraction(output["lct"]) != expected:
            return f"lct {output['lct']} != {expected}"
        return None

    def _summation_check(self, args, item, output):
        if not output["equal"] or output["lhs"] != output["rhs"]:
            return "summation formula reported unequal"
        # the sum of the parts has the largest part's Newton polyhedron
        factors = [
            dict(args["a0"], c=args["c0"]),
            dict(args["largest_part"], c=args["c"]),
        ]
        if [tuple(g) for g in output["lhs"]] != oracles.howald_generators(args["n"], factors):
            return "left side differs from Howald's closed form"
        return None

    # -- flags ------------------------------------------------------------

    def _df_with_escalation(self, args, item, output):
        s = Fraction(args["s"])
        key = (repr(args["divisors"]), s)
        if key not in self._weights:
            self._weights[key] = oracles.FlagWeights(args["divisors"], s)
        weights = self._weights[key]
        for k, w in output["grid"]:
            if Fraction(w) != weights.weight(k):
                return f"w({k}) = {w}, counted {weights.weight(k)}"
            if Fraction(w) > 0:
                return f"w({k}) = {w} > 0"
        coeffs = [Fraction(c) for c in output["w_poly"]] + [Fraction(0)] * 3
        df0 = 4 * (coeffs[2] - 2 * coeffs[1])
        if Fraction(output["DF0"]) != df0:
            return f"DF0 {output['DF0']} != 4 (w2 - 2 w1) = {df0}"
        base = output["base"]
        for mult in (10, 12):
            k = base * mult
            if k * s > MAX_ORACLE_PARTS:
                return f"grid base {base} too large to refine"
            if oracles.poly_value(coeffs, k) != weights.weight(k):
                return f"w_poly misses the counted weight at k = {k}"
        if "fat_point" in item:
            expected = oracles.fat_point_df0(item["fat_point"])
            if df0 != expected:
                return f"fat point m = {item['fat_point']}: DF0 {df0} != {expected}"
        return None


def pair_failures(items, outputs):
    """Indices of items whose pair relation fails (Skoda, factoring)."""
    groups = {}
    for i, item in enumerate(items):
        if "pair" in item:
            tag, role = item["pair"]
            groups.setdefault(tag, [None, None])[role] = i
    bad = set()
    for tag, (i, j) in groups.items():
        oi, oj = outputs[i], outputs[j]
        if "error" in oi or "error" in oj:
            continue  # already counted as failed
        factors_i = items[i]["args"]["factors"]
        if tag.startswith("skoda"):
            # item i is a^c, item j is a^(c-1): J(a^c) = a J(a^(c-1))
            gens = oracles.minimalize(factors_i[0]["gens"])
        else:
            # item i is x^d a^c, item j is a^c: J(x^d a^c) = x^d J(a^c)
            gens = [tuple(factors_i[0]["d"])]
        expected = oracles.ideal_product(gens, [tuple(g) for g in oj["gens"]])
        if [tuple(g) for g in oi["gens"]] != expected:
            bad.update((i, j))
    return bad
