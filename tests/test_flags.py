"""Flag-ideal configurations on P^1: weights and DF invariants.

The fat-point closed forms asserted here are re-derived from scratch
by the brute-force composition oracle below before being compared
with the fast min-plus path and the fitted polynomials.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from kstab import (
    DFReport,
    FlagIdealP1,
    GridTooShortError,
    InputError,
    PointDivisor,
    SizeError,
    UniPoly,
    donaldson_futaki,
    tilde_divisors,
    weight,
)
from kstab import flags
from kstab.flags import MAX_KS, _Sweep, flag_from_json
from kstab.polynomials import SampleGrid, df_coefficient, stabilized_fit
from kstab.verification import (
    ESCALATION_BASES,
    df_with_escalation,
    random_flag_corpus,
)

F = Fraction

POINT = FlagIdealP1([{"p": 1}])


def brute_tilde_degree(flag, ks, j):
    """deg of the j-th power-ideal divisor by raw composition search.

    The ideal sum over compositions takes a pointwise minimum of
    divisors, so every point minimizes over its own composition.
    """
    labels = flag.points()
    costs = {
        label: [0] + [d.at(label) for d in flag.divisors] for label in labels
    }
    best = {label: None for label in labels}
    for combo in product(range(flag.M + 1), repeat=ks):
        if sum(combo) != j:
            continue
        for label in labels:
            total = sum(costs[label][t] for t in combo)
            if best[label] is None or total < best[label]:
                best[label] = total
    return sum(best.values())


def brute_weight(flag, k, ks):
    """w(k) from first principles: truncated dimension counts."""
    n_sections = 2 * k + 1
    m = sum(
        max(0, n_sections - brute_tilde_degree(flag, ks, j))
        for j in range(1, flag.M * ks + 1)
    )
    return m - n_sections * flag.M * ks


# ---------------------------------------------------------------------------
# construction and validation


def test_point_divisor_drops_zeros():
    d = PointDivisor({"p": 2, "q": 0})
    assert d.multiplicities == (("p", 2),)
    assert d.degree == 2 and d.at("q") == 0
    with pytest.raises(InputError):
        PointDivisor({"p": -1})


def test_flag_must_be_increasing():
    FlagIdealP1([{"p": 1}, {"p": 1, "q": 2}])  # fine
    with pytest.raises(InputError):
        FlagIdealP1([{"p": 2}, {"p": 1}])


def test_trivial_flag_rejected():
    with pytest.raises(InputError, match="blowup is isomorphism"):
        FlagIdealP1([{}])
    with pytest.raises(InputError):
        FlagIdealP1([])


def test_flag_json():
    flag = flag_from_json(
        {"M": 2, "points": ["p", "q"], "divisors": [{"p": 0, "q": 1}, {"p": 1, "q": 1}]}
    )
    assert flag.M == 2 and flag.points() == ["p", "q"]
    with pytest.raises(InputError):
        flag_from_json({"M": 3, "divisors": [{"p": 1}]})
    with pytest.raises(InputError):
        flag_from_json({"divisors": "nope"})


# ---------------------------------------------------------------------------
# the power-ideal divisors


def test_tilde_single_point_chain():
    family = tilde_divisors(POINT, 4)
    assert [d.degree for d in family.divisors] == [0, 1, 2, 3, 4]


def test_tilde_deferred_point():
    # M=2, D_1 = 0, D_2 = p: cheap unit steps absorb j up to ks
    flag = FlagIdealP1([{}, {"p": 1}])
    family = tilde_divisors(flag, 3)
    assert [d.degree for d in family.divisors] == [0, 0, 0, 0, 1, 2, 3]


def test_tilde_matches_brute_force():
    rng = random.Random("tilde")
    corpus = random_flag_corpus("tilde-tests", 10, max_points=2, max_mult=3)
    for flag in corpus:
        ks = rng.randint(1, 4)
        family = tilde_divisors(flag, ks)
        for j, d in enumerate(family.divisors):
            assert d.degree == brute_tilde_degree(flag, ks, j)


def test_tilde_endpoint_identities():
    for flag in random_flag_corpus("endpoints", 15):
        ks = 3
        family = tilde_divisors(flag, ks)
        assert family.divisors[0].is_zero()
        assert family.divisors[1] == flag.divisors[0]
        last = family.divisors[-1]
        for label in flag.points():
            assert last.at(label) == ks * flag.divisors[-1].at(label)
        degs = [d.degree for d in family.divisors]
        assert degs == sorted(degs)
    with pytest.raises(InputError):
        tilde_divisors(POINT, 0)


# ---------------------------------------------------------------------------
# weights


def test_weight_closed_forms_rederived():
    # single reduced point: w = -(k^2+k)/2
    for k in range(1, 7):
        assert weight(POINT, k, 1) == F(-(k * k + k), 2)
        assert brute_weight(POINT, k, k) == F(-(k * k + k), 2)
    # doubled point: w = -k^2 - k
    fat2 = FlagIdealP1([{"p": 2}])
    for k in range(1, 7):
        assert weight(fat2, k, 1) == -k * k - k
        assert brute_weight(fat2, k, k) == -k * k - k


@pytest.mark.parametrize("a", [2, 3, 4, 5])
def test_fat_point_dimension_count(a):
    # m = 2k^2/a + 2k/a - k whenever a | 2k and a >= 2 (for a = 1 the
    # index range ends at k before the dimensions reach zero), checked
    # against the composition oracle and the fast path
    flag = FlagIdealP1([{"p": a}])
    for k in [a, 2 * a]:
        m_expected = F(2 * k * k, a) + F(2 * k, a) - k
        w_fast = weight(flag, k, 1)
        assert w_fast == brute_weight(flag, k, k)
        assert w_fast == m_expected - (2 * k + 1) * k


def test_weight_matches_brute_force_on_corpus():
    for flag in random_flag_corpus("weights", 8, max_points=2, max_mult=3):
        for k in (1, 2, 3):
            assert weight(flag, k, 1) == brute_weight(flag, k, k)
            assert weight(flag, k, 1) <= 0


def test_one_sweep_matches_brute_force():
    # one _Sweep answers every query: increasing, out of order, repeated
    for flag in random_flag_corpus("sweep", 6, max_points=2, max_mult=3):
        for ks in ([1, 2, 4, 5], [5, 2, 5, 1]):
            sweep = _Sweep(flag, 1)
            assert [sweep.weight(k) for k in ks] == [
                brute_weight(flag, k, k) for k in ks
            ]
        for ks in ([2, 6], [6, 2, 6]):
            sweep = _Sweep(flag, F(1, 2))
            assert [sweep.weight(k) for k in ks] == [
                brute_weight(flag, k, k // 2) for k in ks
            ]


def test_weight_input_contracts():
    with pytest.raises(InputError):
        weight(POINT, 0, 1)
    with pytest.raises(InputError):
        weight(POINT, 3, F(1, 2))  # k*s not an integer
    # k = 4, s = 1/2: ks = 2, m = 8 + 7, w = 15 - 9*2
    assert weight(POINT, 4, F(1, 2)) == -3


@pytest.mark.parametrize("call,args,kwargs", [
    (weight, (POINT, 2.0, 1), {}),
    (weight, (POINT, "3", 1), {}),
    (weight, (POINT, True, 1), {}),
    (donaldson_futaki, (POINT, 1), {"k_base": "2"}),
    (donaldson_futaki, (POINT, 1), {"k_base": True}),
    (tilde_divisors, (POINT, 2.5), {}),
    (tilde_divisors, (POINT, True), {}),
], ids=["k-float", "k-str", "k-bool", "base-str", "base-bool", "ks-float", "ks-bool"])
def test_counts_must_be_integers(call, args, kwargs):
    with pytest.raises(InputError, match="must be an integer >= 1"):
        call(*args, **kwargs)


def test_tilde_size_cap(monkeypatch):
    assert len(tilde_divisors(POINT, MAX_KS).divisors) == MAX_KS + 1

    def no_step(costs, rows):
        raise AssertionError("a part step was taken past the cap")

    monkeypatch.setattr(flags, "_minplus_step", no_step)
    for ks in (MAX_KS + 1, 10**9):
        with pytest.raises(SizeError, match=f"got {ks}"):
            tilde_divisors(POINT, ks)


def test_weight_size_cap():
    # reduced point: w(k) = -(k^2 + k)/2 at s = 1
    assert weight(POINT, MAX_KS, 1) == -(MAX_KS**2 + MAX_KS) // 2
    with pytest.raises(SizeError):
        weight(POINT, MAX_KS + 1, 1)
    with pytest.raises(SizeError):
        weight(POINT, MAX_KS, 2)


def test_scaling_identity_chain_vs_exponent():
    # (I + (t))^a expands to the chain D_j = j*p, so the chain flag at
    # s = 1 and the reduced point at s = a weigh identically
    for a in (2, 3):
        chain = FlagIdealP1([{"p": j} for j in range(1, a + 1)])
        for k in range(1, 7):
            assert weight(chain, k, 1) == weight(POINT, k, a)


# ---------------------------------------------------------------------------
# Donaldson-Futaki reports


def test_df_reduced_point():
    report = donaldson_futaki(POINT, 1)
    assert report.w_poly == UniPoly([0, F(-1, 2), F(-1, 2)])
    assert report.DF == F(1, 2)
    assert report.DF0 == 2
    assert report.inferred_Lbar_sq == -1
    assert report.onset_k == 2
    assert report.semiampleness_checked is False


def test_df_report_json():
    data = donaldson_futaki(POINT, 1).to_json()
    assert data["w_poly"] == ["0", "-1/2", "-1/2"]
    assert data["DF"] == "1/2"
    assert data["DF0"] == "2"
    assert data["N_poly"] == ["1", "2"]
    assert data["s"] == "1"
    assert data["semiampleness_checked"] is False
    assert data["k_grid"][0] == {"k": 2, "w": "-3"}


def test_df_seshadri_boundary():
    # s = 2 is the deformation-to-the-normal-cone boundary: DF = 0
    report = donaldson_futaki(POINT, 2)
    assert report.w_poly == UniPoly([0, -1, -2])
    assert report.DF0 == 0


@pytest.mark.parametrize("a,df0", [(2, F(4)), (3, F(16, 3)), (4, F(6)), (5, F(32, 5))])
def test_df_fat_point_family(a, df0):
    report = donaldson_futaki(FlagIdealP1([{"p": a}]), 1, k_base=a)
    assert report.DF0 == df0
    assert report.DF0 == 4 * (2 - F(2, a))


def test_df_deferred_point_matches_reduced_case():
    report = donaldson_futaki(FlagIdealP1([{}, {"p": 1}]), 1)
    assert report.w_poly == UniPoly([0, F(-1, 2), F(-1, 2)])
    assert report.DF0 == 2


def test_df_quasi_period_nine_flag():
    # second differences of w cycle with period 9 for this flag, so
    # the default grid mixes residue classes and must fail loudly;
    # on the 9-divisible grid w = -(32k^2 + 26k)/9 exactly
    flag = FlagIdealP1([{"p": 2, "q": 2, "r": 2}, {"p": 4, "q": 2, "r": 3}])
    with pytest.raises(GridTooShortError):
        donaldson_futaki(flag, 1)
    report = donaldson_futaki(flag, 1, k_base=9)
    assert report.w_poly == UniPoly([0, F(-26, 9), F(-32, 9)])
    assert report.DF0 == 4 * (F(-32, 9) + F(52, 9))
    escalated = df_with_escalation(flag, 1)
    assert escalated.w_poly == report.w_poly


def test_df_input_contracts():
    with pytest.raises(InputError):
        donaldson_futaki(POINT, 0)
    with pytest.raises(InputError):
        donaldson_futaki(POINT, "-1/2")
    with pytest.raises(InputError):
        donaldson_futaki(POINT, 1, k_base=0)


def test_df_fractional_s_uses_divisible_grid():
    report = donaldson_futaki(POINT, F(1, 2))
    assert all(k % 2 == 0 for k in report.k_grid.ks())
    assert isinstance(report, DFReport)


# Flags #18 and #58 of random_flag_corpus(42, 100), the corpus C06 and
# C08 read.  At base 3 the six-point grid passes the divided-difference
# test by coincidence (DF0 = 44/9 and 38/9), but the fit misses the
# counted weight at 10 times the base; the escalation goes on to a base
# whose fit reproduces every multiple of it up to k*s = 480.
SEED42_REFINED = {
    "seed42-18": (18, [{"p": 1, "q": 2, "r": 2}, {"p": 2, "q": 2, "r": 3}], 7, F(64, 7)),
    "seed42-58": (58, [{"p": 2}, {"p": 3, "r": 2}, {"p": 4, "r": 4}], 5, F(36, 5)),
}


@pytest.mark.parametrize("index,divisors,base,df0", SEED42_REFINED.values(),
                         ids=SEED42_REFINED.keys())
def test_df_refinement_rejects_coincidental_fit(index, divisors, base, df0):
    flag = FlagIdealP1(divisors)
    assert random_flag_corpus(42, 100)[index] == flag
    with pytest.raises(GridTooShortError):
        donaldson_futaki(flag, 1, k_base=3)
    report = df_with_escalation(flag, 1)
    assert report.k_grid.base == base
    assert report.DF0 == df0


# provenance (closed form): for a fat point of multiplicity m >= 2 at
# s = 1, deg tilde_D_j = m*j, so with k = m*a, min(2k+1, m*j) is m*j for
# j <= 2a and 2k+1 beyond; summing, w(k) = (2/m - 2)(k^2 + k) on
# multiples of m, hence DF0 = 4 (w2 - 2 w1) = 8 - 8/m.
@pytest.mark.parametrize("m", [
    pytest.param(m, marks=pytest.mark.xfail(
        strict=True,
        reason="(2k+1) mod m is linear in k/base up to 13x, 15x, 17x the "
        "accepted base 5, 6, 7, so the refinement check at 10x and 12x "
        "passes a wrong fit; needs the quasi-period derived from the flag",
    )) if m in (11, 13, 15) else m
    for m in range(2, 17)
])
def test_df_fat_point_escalation(m):
    flag = FlagIdealP1([{"p": m}])
    for k in (m, 2 * m, 3 * m):
        assert weight(flag, k, 1) == (F(2, m) - 2) * (k * k + k)
    assert df_with_escalation(flag, 1).DF0 == 8 - F(8, m)


# ---------------------------------------------------------------------------
# the band step and the bounded read against their full forms


_INF = 1 << 62


def _oracle_minplus_power(costs, counts):
    """Min-plus powers from zero parts, rows yielded at each count."""
    rows, done = [[0] for _ in costs], 0
    for n in counts:
        for _ in range(done, n):
            rows = [
                list(map(min, *(
                    [_INF] * t + [x + ct for x in row] + [_INF] * (len(cost) - 1 - t)
                    for t, ct in enumerate(cost)
                )))
                for row, cost in zip(rows, costs)
            ]
        done = n
        yield rows


def random_costs(rng, m):
    """One point's costs on a valid flag: 0, then nondecreasing, often
    with flat runs and a zero prefix (the point absent from D_1)."""
    cost = [0]
    for _ in range(m):
        cost.append(cost[-1] + rng.choice((0, 0, 1, 2, 5)))
    return cost


def test_band_step_matches_the_full_convolution():
    rng = random.Random("band")
    for m in range(1, 7):
        fixed = [[0] * m + [3], [0] + [2] * m, [0, 1] + [5] * (m - 1)]
        for costs in [[c] for c in fixed] + [
            [random_costs(rng, m) for _ in range(rng.randint(1, 3))] for _ in range(8)
        ]:
            rows = [[0] for _ in costs]
            for n, full in enumerate(_oracle_minplus_power(costs, range(1, 61)), 1):
                rows = flags._minplus_step(costs, rows)
                assert rows == full, (costs, n)


def test_weight_read_stops_at_the_crossing():
    # N runs past the last column sum, where deg never reaches N
    rng = random.Random("read")
    for points in (1, 1, 2, 3):
        m = rng.randint(1, 4)
        costs = [random_costs(rng, m) for _ in range(points)]
        for rows in _oracle_minplus_power(costs, (1, 2, 5, 12)):
            top = max(map(sum, zip(*rows)))
            for N in range(1, top + 3):
                assert flags._total_weight(rows, N) == -sum(
                    min(N, sum(col)) for col in zip(*rows)
                ), (costs, N)


# ---------------------------------------------------------------------------
# one sweep per escalation against a fresh sweep per base


def _oracle_weights(flag, s, ks):
    """w(k) for the increasing k in ks, every count checked first."""
    counts = []
    for k in ks:
        n = k * s
        if n.denominator != 1 or n < 1:
            raise InputError(f"k*s must be a positive integer (got {n})")
        if n > MAX_KS:
            raise SizeError(f"k*s capped at {MAX_KS} (got {n})")
        counts.append(int(n))
    costs = [[0] + [d.at(label) for d in flag.divisors] for label in flag.points()]
    for k, rows in zip(ks, _oracle_minplus_power(costs, counts)):
        N = 2 * k + 1
        yield -sum(min(N, sum(column)) for column in zip(*rows))


def oracle_df(flag, s, k_base):
    """One grid base fitted from its own sweep, started at zero parts."""
    k0 = k_base * s.denominator
    multipliers = flags.DEFAULT_MULTIPLIERS + flags.REFINE_MULTIPLIERS
    weights = _oracle_weights(flag, s, [k0 * m for m in multipliers])
    grid = SampleGrid(
        [(k0 * m, F(next(weights))) for m in flags.DEFAULT_MULTIPLIERS], base=k0
    )
    w_poly, onset = stabilized_fit(grid, 2)
    for m, w in zip(flags.REFINE_MULTIPLIERS, weights):
        if w_poly(k0 * m) != w:
            raise GridTooShortError(f"refinement misses w({k0 * m})", largest_k=k0 * m)
    df = df_coefficient(w_poly, flags.N_POLY, 1)
    return DFReport(
        s=s, k_grid=grid, w_poly=w_poly, N_poly=flags.N_POLY, DF=df, DF0=4 * df,
        inferred_Lbar_sq=2 * w_poly.coeff(2), onset_k=onset,
    )


def oracle_escalation(flag, s):
    last = None
    for base in ESCALATION_BASES:
        try:
            return oracle_df(flag, s, base)
        except GridTooShortError as exc:
            last = exc
    raise last


def outcome(run, *args):
    try:
        return run(*args).to_json()
    except (GridTooShortError, SizeError) as exc:
        return type(exc).__name__, str(exc)


ORACLE_CASES = [
    (f"corpus-{i}-s{s}", flag, F(s))
    for i, flag in enumerate(random_flag_corpus("df-oracle", 12))
    for s in ("1", "1/2", "2/3", "3/2")
] + [(f"fat-{m}", FlagIdealP1([{"p": m}]), F(1)) for m in range(2, 17)] + [
    # no base up to 13 fits, and base 14 needs k*s = 504 > MAX_KS
    ("size-limit", FlagIdealP1([{"p": 2, "q": 1, "r": 1}, {"p": 3, "q": 3, "r": 1},
                                {"p": 3, "q": 5, "r": 2}]), F(3, 2)),
    # every base up to 40 fails to stabilize
    ("grid-limit", FlagIdealP1([{"p": 1, "q": 1, "r": 2}, {"p": 1, "q": 3, "r": 2},
                                {"p": 3, "q": 4, "r": 2}]), F(1, 2)),
]


@pytest.mark.parametrize("flag,s", [c[1:] for c in ORACLE_CASES],
                         ids=[c[0] for c in ORACLE_CASES])
def test_shared_sweep_matches_a_fresh_sweep_per_base(flag, s):
    # fat points 11, 13 and 15 included: wrong, but wrong the same way
    assert outcome(df_with_escalation, flag, s) == outcome(oracle_escalation, flag, s)


def count_steps(monkeypatch):
    steps = []
    step = flags._minplus_step

    def counted(costs, rows):
        steps.append(1)
        return step(costs, rows)

    monkeypatch.setattr(flags, "_minplus_step", counted)
    return steps


def test_escalation_takes_each_part_step_once(monkeypatch):
    # fat point 16 rejects bases 1..7 before base 8 fits; each base
    # asks for parts the sweep already holds or extends it
    steps = count_steps(monkeypatch)
    report = df_with_escalation(FlagIdealP1([{"p": 16}]), 1)
    largest = report.k_grid.base * max(flags.REFINE_MULTIPLIERS)
    assert report.k_grid.base > 1
    assert len(steps) == largest


def test_every_sample_is_capped_before_the_sweep(monkeypatch):
    # base 41: the grid reaches k*s = 328 < MAX_KS, the refinement 492
    steps = count_steps(monkeypatch)
    with pytest.raises(SizeError, match="got 492"):
        donaldson_futaki(POINT, 1, k_base=41)
    assert steps == []
