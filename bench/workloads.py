"""Seeded workload inputs, as plain JSON-able item lists.

Each item is {"call", "args"} plus optional tags; call names the kstab
entry point the worker invokes.  Only this module and oracles.py decide
inputs; the worker receives the finished list.  Nothing here imports
kstab, so the same seed gives the same items on every commit.

How the seed enters: a fixed catalogue is drawn once from a
seed-independent generator, and the seed picks an isomorphic copy of
it.  Lattice coordinates are permuted and sign-flipped, monomial
variables are permuted, the points of a flag are renamed, and every
workload but df is reordered.  Costs of arrangements, products, sweeps
and flags vary by orders of magnitude from draw to draw, so fresh draws
per seed move the batch and its percentiles by more than any bound
worth having; an isomorphic copy keeps the cost profile while seeds
differ in their coordinates.
"""

import math
import random
from fractions import Fraction

from oracles import (
    ChainPowers,
    FlagWeights,
    howald_generators,
    minimalize,
    poly_value,
    quadratic_through,
    third_differences_vanish,
)


def _q(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _shuffled(rng, items):
    rng.shuffle(items)
    return items


def _renamed(vector, perm):
    return [vector[i] for i in perm]


# ---------------------------------------------------------------------------
# lattice: linalg + arrangements


def _arrangement(rng, n, m, lo, hi):
    """m projectively distinct primitive integer forms in dimension n."""
    seen = set()
    forms = []
    while len(forms) < m:
        v = [rng.randint(lo, hi) for _ in range(n)]
        lead = next((x for x in v if x), 0)
        if lead == 0:
            continue
        g = 0
        for x in v:
            g = math.gcd(g, x)
        key = tuple(x // (g if lead > 0 else -g) for x in v)
        if key in seen:
            continue
        seen.add(key)
        forms.append(list(key))
    return forms


# (n, m) strata: each once with coefficients in [-5, 5] (near-generic)
# and once in {-1, 0, 1} (degenerate)
LATTICE_STRATA = (
    [(3, m) for m in range(6, 12)] * 4 + [(3, 12)] * 2
    + [(4, m) for m in (6, 7, 8)] * 2 + [(5, 6), (5, 7)]
)
BRAID_FAST_G = tuple(range(6, 30)) + (33, 36, 40)
BRAID_GENERIC_G = (4, 4, 4, 5, 5, 6)


def lattice_catalogue():
    rng = random.Random("lattice:catalogue")
    return [
        (n, _arrangement(rng, n, m, lo, hi))
        for n, m in LATTICE_STRATA
        for lo, hi in ((-5, 5), (-1, 1))
    ]


def lattice(seed):
    """The catalogue's arrangements under a seeded change of
    coordinates (a permutation and sign flips per dimension), then the
    braid items."""
    rng = random.Random(f"lattice:{seed}")
    moves = {
        n: (rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)])
        for n in (3, 4, 5)
    }
    items = []
    for n, forms in lattice_catalogue():
        perm, signs = moves[n]
        forms = [[x * sign for x, sign in zip(_renamed(f, perm), signs)] for f in forms]
        items.append({"call": "lct_central", "args": {"n": n, "forms": forms}})
    for g in BRAID_FAST_G:
        items.append({"call": "lct_braid", "args": {"g": g}})
    for g in BRAID_GENERIC_G:
        items.append({"call": "lct_braid_generic", "args": {"g": g}})
    return _shuffled(rng, items)


# ---------------------------------------------------------------------------
# multiplier: cold box scans of monomials


def _diag_factor(rng, a, t, extra):
    """Generators whose Newton polyhedron is t * P(x_1^a_1, ...)."""
    n = len(a)
    gens = [[t * a[i] if j == i else 0 for j in range(n)] for i in range(n)]
    while extra:
        v = [rng.randint(0, t * a[i]) for i in range(n)]
        if sum(Fraction(v[i], a[i]) for i in range(n)) >= t:
            gens.append(v)
            extra -= 1
    return {"kind": "diag", "a": list(a), "t": t, "gens": gens}


def _mono_factor(rng, n):
    while True:
        d = [rng.randint(0, 2) for _ in range(n)]
        if any(d):
            return {"kind": "mono", "d": d, "gens": [d]}


def _rand_c(rng):
    return Fraction(rng.randint(1, 12), rng.randint(1, 4))


def _renamed_factor(f, perm):
    out = dict(f, gens=[_renamed(g, perm) for g in f["gens"]])
    for key in ("a", "d"):
        if key in f:
            out[key] = _renamed(f[key], perm)
    return out


def box_points(n, factors):
    """Points in the scan box: prod_j (sum_i c_i max_gen_ij + 2)."""
    total = 1
    for j in range(n):
        bound = sum(Fraction(f["c"]) * max(g[j] for g in f["gens"]) for f in factors)
        total *= int(bound) + 2
    return total


def product_key(factors):
    """Canonical key of a product: its factors' generator sets and weights."""
    return tuple(
        sorted(
            (tuple(minimalize(f["gens"])), Fraction(f["c"]))
            for f in factors
        )
    )


def weighted_points(factors):
    """Undominated sums of one weighted generator per factor."""
    n = len(factors[0]["gens"][0])
    points = {(Fraction(0),) * n}
    for f in factors:
        c = Fraction(f["c"])
        sums = {tuple(x + c * g for x, g in zip(p, gen)) for p in points for gen in f["gens"]}
        points = set(minimalize(sums))
    return points


def hull_candidates(n, points):
    """Candidate normals kstab's hull enumeration tries."""
    p = len(points)
    return sum(math.comb(p, d) * math.comb(n, n - d) for d in range(1, n + 1))


# microseconds per hull candidate normal, by arity (fitted on a 2-CPU
# host with Python 3.11; only the ranking of draws depends on them)
HULL_US = {1: 30, 2: 37, 3: 28, 4: 56}


def scan_cost(n, factors):
    """Estimated microseconds of one multiplier_ideal call: each box
    point is tested against the generators found so far, and each hull
    candidate normal costs a few small determinants."""
    gens = len(howald_generators(n, factors))
    hull = HULL_US[n] * hull_candidates(n, weighted_points(factors))
    return box_points(n, factors) * (5 + 0.4 * gens) + hull


def closest(draws, cost, target):
    """The draw whose cost is nearest the target on a log scale."""
    return min(draws, key=lambda d: abs(math.log(cost(d) / target)))


# every (arity, factor count) stratum gets one product per target cost
MULT_STRATA = [(n, nf) for n in (2, 3, 4) for nf in (1, 2, 3)]
MULT_TARGETS = (4e3, 7e3, 1e4, 1.4e4, 1.9e4, 2.5e4, 3.3e4, 4.5e4)  # microseconds
MULT_PAIRS = 8  # Skoda pairs and divisor-factoring pairs, each
PAIR_TARGET = 8e3
# lct_monomial shapes: (arity, extra generators), -1 for a monomial;
# the hull over n + extra points sets the cost
MULT_LCT_SHAPES = [(n, extra) for n in (2, 3, 4) for extra in (-1, 0, 1, 2, 3)][:14]
BOX_RANGE = (100, 12000)
MAX_HULL_CANDIDATES = 1500
MULT_DRAWS = 8


def multiplier_catalogue():
    """Products of monomials and diagonal-type factors sharing one a.
    Each (arity, factor count) stratum gets one product per target in
    MULT_TARGETS, the nearest by scan_cost of MULT_DRAWS draws."""
    rng = random.Random("multiplier:catalogue")
    items = []
    keys = set()

    def add(n, factors, pair=None):
        keys.add(product_key(factors))
        factors = [dict(f, c=_q(f["c"])) for f in factors]
        item = {"call": "multiplier_ideal", "args": {"n": n, "factors": factors}}
        if pair:
            item["pair"] = pair
        items.append(item)

    def add_pair(tag, n, whole, part):
        """Two products related by a law; role 0 is whole, 1 is part."""
        ka, kb = product_key(whole), product_key(part)
        if ka in keys or kb in keys or ka == kb:
            return False
        add(n, whole, [tag, 0])
        add(n, part, [tag, 1])
        return True

    def random_product(n, nf):
        a = [rng.randint(1, 4) for _ in range(n)]
        while True:
            factors = []
            for _ in range(nf):
                if rng.random() < 0.3:
                    f = _mono_factor(rng, n)
                else:
                    f = _diag_factor(rng, a, rng.randint(1, 2), rng.randint(0, 2))
                f["c"] = _rand_c(rng)
                factors.append(f)
            if (
                BOX_RANGE[0] <= box_points(n, factors) <= BOX_RANGE[1]
                and product_key(factors) not in keys
                and hull_candidates(n, weighted_points(factors)) <= MAX_HULL_CANDIDATES
            ):
                return factors

    for n, nf in MULT_STRATA:
        for target in MULT_TARGETS:
            draws = [random_product(n, nf) for _ in range(MULT_DRAWS)]
            add(n, closest(draws, lambda f: scan_cost(n, f), target))

    def skoda():
        # J(a^c) = a J(a^(c-1)) for c >= n
        n = rng.randint(2, 3)
        a = [rng.randint(1, 3) for _ in range(n)]
        f = _diag_factor(rng, a, 1, rng.randint(0, 1))
        c = Fraction(rng.randint(2 * n, 2 * n + 4), 2)
        return n, [dict(f, c=c)], [dict(f, c=c - 1)]

    def factoring():
        # J(x^d a^c) = x^d J(a^c)
        n = rng.randint(2, 4)
        a = [rng.randint(1, 4) for _ in range(n)]
        f = _diag_factor(rng, a, 1, rng.randint(0, 2))
        f["c"] = _rand_c(rng)
        d = _mono_factor(rng, n)
        d["c"] = Fraction(1)
        return n, [d, f], [f]

    for law in (skoda, factoring):
        pair = 0
        while pair < MULT_PAIRS:
            draws = [law() for _ in range(MULT_DRAWS)]
            n, whole, part = closest(draws, lambda d: scan_cost(d[0], d[1]), PAIR_TARGET)
            if add_pair(f"{law.__name__}-{pair}", n, whole, part):
                pair += 1
    for n, extra in MULT_LCT_SHAPES:
        if extra < 0:
            f = _mono_factor(rng, n)
        else:
            a = [rng.randint(1, 5) for _ in range(n)]
            f = _diag_factor(rng, a, rng.randint(1, 3), extra)
        items.append({"call": "lct_monomial", "args": {"n": n, "factor": f}})
    return items


def multiplier(seed):
    rng = random.Random(f"multiplier:{seed}")
    perms = {n: rng.sample(range(n), n) for n in (2, 3, 4)}
    items = []
    for item in multiplier_catalogue():
        args = dict(item["args"])
        perm = perms[args["n"]]
        if "factors" in args:
            args["factors"] = [_renamed_factor(f, perm) for f in args["factors"]]
        else:
            args["factor"] = _renamed_factor(args["factor"], perm)
        items.append(dict(item, args=args))
    return _shuffled(rng, items)


# ---------------------------------------------------------------------------
# summation: many small products sharing sub-products


SUMMATION_C = ("1/2", "1", "3/2", "2")
SUMMATION_C0 = ("0", "1/2", "1", "3/2")
# (arity, summands, c), five of each; arity 4 only with c <= 1, where a
# single sweep stays within a few hundred hull enumerations
SUMMATION_STRATA = (
    [(n, l, c) for n in (2, 3) for l in (2, 3) for c in SUMMATION_C]
    + [(4, l, c) for l in (2, 3) for c in ("1/2", "1")]
) * 5


def _inside(rng, a, t):
    """A random exponent vector in t * P(x_1^a_1, ...)."""
    while True:
        v = [rng.randint(0, t * ai) for ai in a]
        if sum(Fraction(x, ai) for x, ai in zip(v, a)) >= t:
            return v


def summation_catalogue():
    """One summand has Newton polyhedron t * P(x^a); the others lie
    inside it.  So the sum of the summands has that polyhedron, the
    left side has a Howald closed form, and the split that puts all of
    c on that summand already gives the whole right side at the first
    denominator.  So the sweep's stopping rule, which stops once two
    consecutive denominators agree, cannot stop early here; on general
    instances it can (J(x^(1/2) (x, y)) is the unit ideal, but the sweep
    gives (x, y) at D = 1 and D = 2 and stops before D = 4)."""
    rng = random.Random("summation:catalogue")
    items = []
    for n, l, c in SUMMATION_STRATA:
        a = [rng.randint(1, 2) for _ in range(n)]
        t = 1 if n + l >= 7 else rng.randint(1, 2)
        main = _diag_factor(rng, a, t, rng.randint(0, 1))
        parts = [main["gens"]] + [
            [_inside(rng, a, t) for _ in range(rng.randint(1, 2))]
            for _ in range(l - 1)
        ]
        rng.shuffle(parts)
        a0 = (
            {"kind": "mono", "d": [0] * n, "gens": [[0] * n]}
            if rng.random() < 0.4 else _mono_factor(rng, n)
        )
        items.append({
            "call": "summation_check",
            "args": {
                "n": n,
                "a0": a0,
                "c0": rng.choice(SUMMATION_C0),
                "parts": parts,
                "largest_part": main,
                "c": c,
                "denom_bound": 24,
            },
        })
    return items


def summation(seed):
    rng = random.Random(f"summation:{seed}")
    perms = {n: rng.sample(range(n), n) for n in (2, 3, 4)}
    items = []
    for item in summation_catalogue():
        args = dict(item["args"])
        perm = perms[args["n"]]
        args["a0"] = _renamed_factor(args["a0"], perm)
        args["largest_part"] = _renamed_factor(args["largest_part"], perm)
        args["parts"] = [[_renamed(g, perm) for g in p] for p in args["parts"]]
        items.append(dict(item, args=args))
    return _shuffled(rng, items)


# ---------------------------------------------------------------------------
# df: flags, min-plus and fits


# kstab's blind escalation order; the input filter below replays it
ESCALATION_BASES = tuple(range(1, 31)) + (36, 40, 42, 48, 60)
GRID_MULTIPLIERS = (2, 3, 4, 5, 6, 8)
REFINE_MULTIPLIERS = (10, 12)
MAX_PARTS = 144  # largest k*s a kept flag may need, checks included
DF_S = ("1", "1/2", "2/3", "3/2")
# (M, s, points), three of each
DF_STRATA = [(M, s, pts) for M in (1, 2, 3, 4) for s in DF_S for pts in (1, 2, 3)] * 3
FAT_POINTS = tuple(range(2, 17))
# stabilized_fit accepts these on a grid that mixes residue classes of
# the quasi-polynomial weight (m = 7 gives DF0 = 46/9 at base 3, not 48/7)
FAULTY_FAT_POINTS = (7, 9, 11, 13, 15, 16)
# pinned by value: accepted on a grid that mixes residue classes
PINNED_FLAGS = (
    [{"p": 1, "q": 2, "r": 2}, {"p": 2, "q": 2, "r": 3}],
    [{"p": 2}, {"p": 3, "r": 2}, {"p": 4, "r": 4}],
)
LABELS = ("p", "q", "r")
DF_RETRIES = 200
# every k*s the replay can ask for: grid and refinement points of the
# bases within MAX_PARTS, for each s in DF_S
REPLAY_PARTS = {
    int(k * Fraction(s))
    for s in DF_S
    for base in ESCALATION_BASES
    if base * Fraction(s).numerator * REFINE_MULTIPLIERS[-1] <= MAX_PARTS
    for k in (base * Fraction(s).denominator * m for m in GRID_MULTIPLIERS + REFINE_MULTIPLIERS)
}


def sound_escalation(divisors, s, powers):
    """Replay the blind escalation on counted weights: the first base
    whose six-point grid passes the third-difference test must also
    reproduce the counted weight at REFINE_MULTIPLIERS times the base.
    A flag that needs k*s beyond MAX_PARTS is not sound."""
    s = Fraction(s)
    weights = FlagWeights(divisors, s, powers)
    for base in ESCALATION_BASES:
        k0 = base * s.denominator
        if k0 * REFINE_MULTIPLIERS[-1] * s > MAX_PARTS:
            return False
        grid = [(k0 * m, weights.weight(k0 * m)) for m in GRID_MULTIPLIERS]
        if third_differences_vanish(grid[-5:-1]) and third_differences_vanish(grid[-4:]):
            coeffs = quadratic_through(grid[-3:])
            return all(
                poly_value(coeffs, k0 * m) == weights.weight(k0 * m)
                for m in REFINE_MULTIPLIERS
            )
    return False


def random_flag(rng, m, npoints):
    points = rng.sample(LABELS, npoints)
    chains = {}
    for label in points:
        level, chain = 0, []
        for _ in range(m):
            level = min(6, level + rng.randint(0, 2))
            chain.append(level)
        chains[label] = chain
    return [{lab: chains[lab][j] for lab in points if chains[lab][j]} for j in range(m)]


def df_catalogue():
    """One sound flag per DF_STRATA slot, a repeat allowed only when a
    small stratum has no new sound flag in DF_RETRIES draws."""
    rng = random.Random("df:catalogue")
    powers = ChainPowers(REPLAY_PARTS)
    seen, flags = set(), []
    for M, s, npoints in DF_STRATA:
        fallback = None
        for _ in range(DF_RETRIES):
            divisors = random_flag(rng, M, npoints)
            # flags that fool the grid test fail only on some draws, so
            # they are left out; the fixed items keep the fault in view
            if not divisors[-1] or not sound_escalation(divisors, s, powers):
                continue
            fallback = divisors
            if repr(divisors) + s not in seen:
                break
        seen.add(repr(fallback) + s)
        flags.append((fallback, s))
    return flags


def df(seed):
    """The catalogue with its points renamed by seeded names,
    then the fat points m = 2..16 and the pinned flags.  Items keep this
    order: kstab's min-plus cache makes a flag's cost depend on the
    flags before it."""
    rng = random.Random(f"df:{seed}")
    names = [f"{letter}{i}" for letter in "pqrstuvw" for i in range(10)]
    rename = dict(zip(LABELS, rng.sample(names, len(LABELS))))
    items = [
        {
            "call": "df_with_escalation",
            "args": {"divisors": [{rename[k]: v for k, v in d.items()} for d in divisors], "s": s},
        }
        for divisors, s in df_catalogue()
    ]
    for m in FAT_POINTS:
        items.append({
            "call": "df_with_escalation",
            "args": {"divisors": [{"p": m}], "s": "1"},
            "fat_point": m,
            "known_fault": m in FAULTY_FAT_POINTS,
        })
    for divisors in PINNED_FLAGS:
        items.append({
            "call": "df_with_escalation",
            "args": {"divisors": divisors, "s": "1"},
            "known_fault": True,
        })
    return items


WORKLOADS = {
    "lattice": lattice,
    "multiplier": multiplier,
    "summation": summation,
    "df": df,
}
