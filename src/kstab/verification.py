"""End-to-end verification suites with one auditable expected-value table.

Every expected value asserted here is annotated with its provenance:
"closed form" entries were re-derived by brute-force dimension
counting (see the test suite), "known value" entries are classical
identities, and "property" entries are laws checked on seeded random
corpora.  The `verify` CLI command and the acceptance tests both run
these suites.
The seeded corpora live here, each on its own string-seeded
random.Random stream: flags, summation instances, and the
multiplier-ideal laws (law_checks).  So do the oracles that only the
criteria and the tests call: the composition enumeration of the
min-plus power (brute_force_tilde_degrees), and the Veronese
determinant expanded by the Leibniz formula, which C04 compares with
the Vandermonde product; both are {exponent tuple: int} dicts.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from .arrangements import (
    braid_arrangement,
    diagonal_discrepancy,
    lct_braid,
    lct_central,
)
from .errors import SizeError
from .flags import FlagIdealP1, UniPoly, donaldson_futaki, tilde_divisors
from .gamma import SEMISTABLE_NOT_STABLE, gamma_at_k, gamma_report
from .monomials import (
    MonomialIdeal,
    lct_monomial,
    multiplier_ideal,
    summation_check,
)
from .rationals import integer, rat_str

MAX_K_SYMBOLIC = 3
MAX_DET_SIZE = 2 * MAX_K_SYMBOLIC + 1

# Expected Donaldson-Futaki values for the fat-point families.
# provenance: closed forms re-derived by brute-force composition
# enumeration and direct dimension counts (tests/test_flags.py).
FAT_POINT_EXPECTED = [
    # (flag divisors, s, expected w_poly or None, expected DF0)
    ([{"p": 1}], 1, UniPoly([0, Fraction(-1, 2), Fraction(-1, 2)]), Fraction(2)),
    ([{"p": 2}], 1, UniPoly([0, -1, -1]), Fraction(4)),
    ([{"p": 3}], 1, None, Fraction(16, 3)),
    ([{"p": 4}], 1, None, Fraction(6)),
    ([{"p": 5}], 1, None, Fraction(32, 5)),
    ([{"p": 1}], 2, UniPoly([0, -1, -2]), Fraction(0)),
    ([{}, {"p": 1}], 1, UniPoly([0, Fraction(-1, 2), Fraction(-1, 2)]), Fraction(2)),
]

# bench/worker.py calls the DF path by this name
df_with_escalation = donaldson_futaki


def random_flag_corpus(seed, count, max_m=3, max_points=3, max_mult=4):
    """Seeded corpus of valid flags (s = 1 throughout)."""
    rng = random.Random(f"flags:{seed}")
    labels = ["p", "q", "r"][:max_points]
    corpus = []
    while len(corpus) < count:
        m = rng.randint(1, max_m)
        points = rng.sample(labels, rng.randint(1, len(labels)))
        chains = {}
        for label in points:
            chain = []
            level = 0
            for _ in range(m):
                level = min(max_mult, level + rng.randint(0, 2))
                chain.append(level)
            chains[label] = chain
        divisors = [
            {label: chains[label][j] for label in points} for j in range(m)
        ]
        if all(v == 0 for v in divisors[-1].values()):
            continue
        corpus.append(FlagIdealP1(divisors))
    return corpus


def brute_force_tilde_degrees(flag, ks):
    """Composition-enumeration oracle for the power-ideal divisors."""
    labels = flag.points()
    costs = {
        label: [0] + [d.at(label) for d in flag.divisors] for label in labels
    }
    length = flag.M * ks + 1
    best = {label: [None] * length for label in labels}
    for combo in product(range(flag.M + 1), repeat=ks):
        j = sum(combo)
        for label in labels:
            total = sum(costs[label][t] for t in combo)
            if best[label][j] is None or total < best[label][j]:
                best[label][j] = total
    return [
        sum(best[label][j] for label in labels) for j in range(length)
    ]


def vandermonde_product(nvars):
    """prod_{i<j} (u_i - u_j), expanded as {exponent tuple: int}.

    Multiplied out one binomial at a time; capped at MAX_DET_SIZE
    variables.
    """
    if integer("nvars", nvars) > MAX_DET_SIZE:
        raise SizeError(f"Vandermonde product capped at {MAX_DET_SIZE} variables")
    poly = {(0,) * nvars: 1}
    for i, j in combinations(range(nvars), 2):
        expanded = Counter()
        for expo, c in poly.items():
            for index, coeff in ((i, c), (j, -c)):
                bumped = list(expo)
                bumped[index] += 1
                expanded[tuple(bumped)] += coeff
        poly = {expo: c for expo, c in expanded.items() if c}
    return poly


def veronese_determinant(k):
    """Chart equation of the degree-k determinantal divisor.

    Determinant of the (2k+1)x(2k+1) matrix with rows
    (1, u_i, ..., u_i^(2k)), as {exponent tuple: int}.  Every entry is
    a monomial, so by the Leibniz formula the permutation p contributes
    sign(p) * u_0^p(0) ... u_2k^p(2k), and no two permutations share a
    monomial.  C04 (check_vandermonde) compares it with the
    Vandermonde product.
    """
    if integer("k", k, least=0) > MAX_K_SYMBOLIC:
        raise SizeError(
            f"symbolic determinant capped at k = {MAX_K_SYMBOLIC} "
            f"(matrix size {MAX_DET_SIZE})"
        )
    return {
        p: (-1) ** sum(a > b for a, b in combinations(p, 2))
        for p in permutations(range(2 * k + 1))
    }


# ---------------------------------------------------------------------------
# the criteria


def check_braid_lct(quick=False, **_):
    g_exact = range(2, 7 if quick else 10)
    g_cross = range(2, 6 if quick else 8)
    for g in g_exact:
        cert = lct_braid(g)
        if cert.value != Fraction(2, g):  # known value: 2/g
            return False, f"lct_braid({g}) = {rat_str(cert.value)} != 2/{g}"
    for g in g_cross:
        fast = lct_braid(g)
        generic = lct_central(braid_arrangement(g))
        if fast.value != generic.value or fast.minimizers != generic.minimizers:
            return False, f"braid/matrix certificates disagree at g = {g}"
    return True, f"2/g for g in {list(g_exact)}; cross-checked g in {list(g_cross)}"


def check_discrepancy(quick=False, **_):
    for g in range(2, 10):
        val = diagonal_discrepancy(g, Fraction(2, g))
        if val != -1:  # closed form: g - 2 - (2/g) g(g-1)/2 = -1
            return False, f"discrepancy at g = {g} is {rat_str(val)}"
    return True, "g - 2 - c*g(g-1)/2 = -1 at c = 2/g for g = 2..9"


def check_gamma(quick=False, **_):
    k_max = 3 if quick else 4
    for k in range(1, k_max + 1):
        sample = gamma_at_k(k)
        if sample.gamma_k != Fraction(2 * k, 2 * k + 1):  # known value
            return False, f"gamma sample at k = {k} is {rat_str(sample.gamma_k)}"
    report = gamma_report(k_max)
    if report["gamma"] != 1 or report["verdict"].kind != SEMISTABLE_NOT_STABLE:
        return False, "limit or verdict wrong"
    return True, f"2k/(2k+1) for k = 1..{k_max}; gamma = 1, {SEMISTABLE_NOT_STABLE}"


def check_vandermonde(quick=False, **_):
    ks = (1,) if quick else (1, 2)
    for k in ks:
        det = veronese_determinant(k)
        prod_poly = vandermonde_product(2 * k + 1)
        negated = {expo: -c for expo, c in prod_poly.items()}
        if det != prod_poly and det != negated:  # classical identity
            return False, f"determinant mismatch at k = {k}"
    return True, f"determinant = +-prod(u_i - u_j) for k = {', '.join(map(str, ks))}"


def check_df_closed_forms(quick=False, **_):
    for divisors, s, w_expected, df0_expected in FAT_POINT_EXPECTED:
        flag = FlagIdealP1(divisors)
        report = donaldson_futaki(flag, s)
        if w_expected is not None and report.w_poly != w_expected:
            return False, f"w(k) mismatch for {divisors}, s={s}"
        if report.DF0 != df0_expected:
            return (
                False,
                f"DF0 for {divisors}, s={s}: {rat_str(report.DF0)} "
                f"!= {rat_str(df0_expected)}",
            )
    return True, f"{len(FAT_POINT_EXPECTED)} fat-point families match closed forms"


@lru_cache(maxsize=8)
def _df_corpus_reports(seed, quick):
    """The DF corpus C06 and C08 share, with its reports at s = 1."""
    corpus = random_flag_corpus(seed, 20 if quick else 100)
    return corpus, [donaldson_futaki(f, 1) for f in corpus]


def check_weight_sign_and_fit(quick=False, seed=42, **_):
    corpus, reports = _df_corpus_reports(seed, quick)
    for idx, report in enumerate(reports):
        for k, w in report.k_grid.entries:
            if w > 0:
                return False, f"positive weight at flag #{idx}, k = {k}"
            if k >= report.onset_k and report.w_poly(k) != w:
                return False, f"w_poly misses w({k}) at flag #{idx}"
    return True, f"w <= 0 and degree <= 2 fit on {len(corpus)} flags"


def check_min_plus_oracle(quick=False, seed=42, **_):
    corpus = random_flag_corpus(
        seed, 12 if quick else 33, max_points=2, max_mult=3
    )
    checked = 0
    for idx, flag in enumerate(corpus):
        for ks in range(1, 3 if quick else 7):
            family = tilde_divisors(flag, ks)
            got = [d.degree for d in family.divisors]
            expected = brute_force_tilde_degrees(flag, ks)
            if got != expected:
                return False, f"min-plus mismatch at flag #{idx}, ks = {ks}"
            checked += 1
    return True, f"min-plus power = brute force on {checked} instances"


def check_df_nonnegative(quick=False, seed=42, **_):
    # consistency probe, not a theorem test: semiampleness of the
    # polarization is never verified, so a violation is surfaced as
    # a counterexample artifact for investigation rather than
    # silently tolerated
    corpus, reports = _df_corpus_reports(seed, quick)
    for idx, (flag, report) in enumerate(zip(corpus, reports)):
        if report.DF0 < 0:
            artifact = {
                "flag": flag.to_json(),
                "DF0": rat_str(report.DF0),
                "semiampleness_checked": False,
            }
            return False, f"negative DF0 counterexample: {artifact}"
    return True, f"DF0 >= 0 across {len(corpus)} flags (semiampleness unchecked)"


def _random_summation_instances(seed, count):
    rng = random.Random(f"summation:{seed}")
    c_choices = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        l = rng.randint(1, 3)

        def rand_ideal():
            gens = [
                tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 2))
            ]
            return MonomialIdeal(n, gens)

        a0 = rand_ideal() if rng.random() < 0.5 else MonomialIdeal.unit(n)
        c0 = Fraction(rng.randint(0, 2), rng.randint(1, 2))
        parts = [rand_ideal() for _ in range(l)]
        c = rng.choice(c_choices)
        out.append((a0, c0, parts, c))
    return out


def check_summation(quick=False, seed=42, **_):
    instances = _random_summation_instances(seed, 8 if quick else 25)
    for idx, (a0, c0, parts, c) in enumerate(instances):
        result = summation_check(a0, c0, parts, c)
        if not result.equal:
            return False, (
                f"splitting identity failed at instance #{idx}: "
                f"lhs {result.lhs.to_json()} rhs {result.rhs.to_json()}"
            )
    return True, f"splitting identity on {len(instances)} instances"


def _random_ideal(rng, arity):
    """A seeded proper ideal: 1..4 generators with exponents <= 3."""
    while True:
        count = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(arity)) for _ in range(count)]
        ideal = MonomialIdeal(arity, gens)
        if not ideal.is_unit():
            return ideal


def _random_exponent(rng):
    q = rng.randint(1, 6)
    return Fraction(rng.randint(0, 2 * q), q)


def _embed(ideal, arity, offset):
    pad = (0,) * (arity - offset - ideal.arity)
    return MonomialIdeal(arity, [(0,) * offset + g + pad for g in ideal.generators])


def law_checks(seed, count):
    """Exercise the divisor-factoring, monotonicity, and product laws.

    Returns a per-law report with pass/fail and the first
    counterexample instance, if any.
    """
    report = {}

    def run(name, one_case):
        rng = random.Random(f"{seed}:{name}")
        cases = [one_case(rng) for _ in range(count)]
        failures = [instance for instance, ok in cases if not ok]
        report[name] = {"pass": not failures, "counterexamples": failures[:3]}

    def divisor_factoring(rng):
        arity = rng.randint(1, 3)
        a = _random_ideal(rng, arity)
        c = _random_exponent(rng)
        d = tuple(rng.randint(0, 2) for _ in range(arity))
        principal = MonomialIdeal.principal(d)
        lhs = multiplier_ideal([(principal, Fraction(1)), (a, c)])
        rhs = principal * multiplier_ideal([(a, c)])
        instance = {"a": a.to_json(), "c": rat_str(c), "d": list(d)}
        return instance, lhs == rhs

    def monotonicity(rng):
        arity = rng.randint(1, 3)
        b = _random_ideal(rng, arity)
        a = b * _random_ideal(rng, arity)
        c = _random_exponent(rng)
        inner = multiplier_ideal([(a, c)])
        outer = multiplier_ideal([(b, c)])
        instance = {"a": a.to_json(), "b": b.to_json(), "c": rat_str(c)}
        return instance, inner.issubset(outer)

    def block_product(rng):
        n1 = rng.randint(1, 2)
        n2 = rng.randint(1, 2)
        arity = n1 + n2
        a = _random_ideal(rng, n1)
        b = _random_ideal(rng, n2)
        c1 = _random_exponent(rng)
        c2 = _random_exponent(rng)
        ea, eb = _embed(a, arity, 0), _embed(b, arity, n1)
        lhs = multiplier_ideal([(ea, c1), (eb, c2)])
        rhs = _embed(multiplier_ideal([(a, c1)]), arity, 0) * _embed(
            multiplier_ideal([(b, c2)]), arity, n1
        )
        instance = {
            "a": a.to_json(),
            "b": b.to_json(),
            "c": rat_str(c1),
            "c_prime": rat_str(c2),
        }
        return instance, lhs == rhs

    run("divisor_factoring", divisor_factoring)
    run("monotonicity", monotonicity)
    run("block_product", block_product)
    return report


def check_multiplier_laws(quick=False, seed=42, **_):
    count = 10 if quick else 50
    report = law_checks(seed, count)
    for law, outcome in report.items():
        if not outcome["pass"]:
            return False, f"law {law} failed: {outcome['counterexamples'][:1]}"
    # spot values (known): I((x,y)^2) = (x,y), lct(x^2, y^3) = 5/6
    square = multiplier_ideal(
        [(MonomialIdeal(2, [(1, 0), (0, 1)]), Fraction(2))]
    )
    if square != MonomialIdeal(2, [(1, 0), (0, 1)]):
        return False, "I((x,y)^2) != (x,y)"
    cusp = lct_monomial(MonomialIdeal(2, [(2, 0), (0, 3)]))
    if cusp != Fraction(5, 6):
        return False, f"lct(x^2, y^3) = {rat_str(cusp)} != 5/6"
    return True, f"3 laws x {count} instances, plus spot values"


CRITERIA = [
    ("C01-braid-lct", check_braid_lct),
    ("C02-diagonal-discrepancy", check_discrepancy),
    ("C03-gamma-p1", check_gamma),
    ("C04-vandermonde", check_vandermonde),
    ("C05-df-closed-forms", check_df_closed_forms),
    ("C06-weight-sign-polynomiality", check_weight_sign_and_fit),
    ("C07-min-plus-oracle", check_min_plus_oracle),
    ("C08-df-nonnegative-probe", check_df_nonnegative),
    ("C09-summation-formula", check_summation),
    ("C10-multiplier-laws", check_multiplier_laws),
]


def run_all(quick=False, seed=42):
    """Run every criterion in turn, yielding (id, ok, detail, seconds)."""
    for cid, fn in CRITERIA:
        start = time.monotonic()
        ok, detail = fn(quick=quick, seed=seed)
        yield cid, ok, detail, time.monotonic() - start
