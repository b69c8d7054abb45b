"""Flag-ideal configurations on P^1: weights and DF invariants.

The fat-point closed forms asserted here are re-derived from scratch
by the brute-force composition oracle below before being compared
with the fast min-plus path and the DF reports.  A blind degree-2
fit of the counted weights (interpolate, stabilized_fit), with DF
taken by the bilinear definition (df_coefficient), is kept below as
the reference the escalation is compared against.
"""

import json
import random
import sys
import threading
import time
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product
from pathlib import Path

import pytest

from kstab import (
    DFReport,
    FlagIdealP1,
    GridTooShortError,
    InputError,
    PointDivisor,
    SampleGrid,
    SizeError,
    UniPoly,
    donaldson_futaki,
    rat_str,
    tilde_divisors,
    weight,
)
from kstab import flags
from kstab.cli import main
from kstab.flags import (
    ESCALATION_BASES,
    MAX_KS,
    MAX_M,
    MAX_POINTS,
    MAX_S_DIGITS,
    _closed_form,
    _fit,
    _point_costs,
    _Sweep,
    flag_from_json,
)
from kstab.verification import random_flag_corpus

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
    with pytest.raises(InputError, match="repeats"):
        PointDivisor({1: 2, "1": 3})  # both labels are "1"


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
    for flag in [flag] + random_flag_corpus("json", 5):
        assert flag_from_json(flag.to_json()) == flag


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


def test_weight_checks_s_as_df_does():
    # a 5,000-digit part of s once ran into Python's int-to-string limit
    # as a bare ValueError
    for s in (F(1, 10**5000), F(10**5000)):
        with pytest.raises(SizeError, match=f"of s capped at {MAX_S_DIGITS} digits"):
            weight(POINT, 3, s)
    with pytest.raises(InputError, match="s must be a positive rational"):
        weight(POINT, 3, -1)


@pytest.mark.parametrize("call,args", [
    (weight, (POINT, 2.0, 1)),
    (weight, (POINT, "3", 1)),
    (weight, (POINT, True, 1)),
    (tilde_divisors, (POINT, 2.5)),
    (tilde_divisors, (POINT, True)),
], ids=["k-float", "k-str", "k-bool", "ks-float", "ks-bool"])
def test_counts_must_be_integers(call, args):
    with pytest.raises(InputError, match="must be an integer >= 1"):
        call(*args)


def test_tilde_size_cap(monkeypatch):
    assert len(tilde_divisors(POINT, MAX_KS).divisors) == MAX_KS + 1

    def no_step(cost, row):
        raise AssertionError("a part step was taken past the cap")

    monkeypatch.setattr(flags, "_minplus_step", no_step)
    for ks in (MAX_KS + 1, 10**9):
        with pytest.raises(SizeError, match=f"got {ks}"):
            tilde_divisors(POINT, ks)


def test_point_count_cap(monkeypatch):
    # MAX_POINTS reduced points are read; one more is refused before a part step
    at_cap = FlagIdealP1([{f"p{i}": 1 for i in range(MAX_POINTS)}])
    assert tilde_divisors(at_cap, 1).divisors[1].degree == MAX_POINTS
    flag = FlagIdealP1([{f"p{i}": 1 for i in range(MAX_POINTS + 1)}])

    def no_step(cost, row):
        raise AssertionError("a part step was taken past the cap")

    monkeypatch.setattr(flags, "_minplus_step", no_step)
    for call in (tilde_divisors, weight, donaldson_futaki):
        args = (flag, 1) if call is not weight else (flag, 1, 1)
        with pytest.raises(SizeError, match=f"points capped at {MAX_POINTS}"):
            call(*args)


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


def closed_form(costs, s):
    """_closed_form on the points of these costs, built outside the cache."""
    return _closed_form([flags._Point(tuple(cost)) for cost in costs], s)


def pinned(flag, s, base):
    """The report at one grid base, against the closed form's w2 and w1."""
    s = F(s)
    return _fit(_Sweep(flag, s), base, *closed_form(_point_costs(flag), s))


@pytest.mark.parametrize("a,df0", [(2, F(4)), (3, F(16, 3)), (4, F(6)), (5, F(32, 5))])
def test_df_fat_point_family(a, df0):
    flag = FlagIdealP1([{"p": a}])
    report = pinned(flag, 1, a)
    assert report.DF0 == df0
    assert report.DF0 == 4 * (2 - F(2, a))
    assert report.to_json() == oracle_df(flag, F(1), a).to_json()


def test_df_deferred_point_matches_reduced_case():
    report = donaldson_futaki(FlagIdealP1([{}, {"p": 1}]), 1)
    assert report.w_poly == UniPoly([0, F(-1, 2), F(-1, 2)])
    assert report.DF0 == 2


def test_df_quasi_period_nine_flag():
    # second differences of w cycle with period 9 for this flag, so
    # the base-1 grid mixes residue classes and must fail loudly;
    # on the 9-divisible grid w = -(32k^2 + 26k)/9 exactly
    flag = FlagIdealP1([{"p": 2, "q": 2, "r": 2}, {"p": 4, "q": 2, "r": 3}])
    for fit in (pinned, oracle_df):
        with pytest.raises(GridTooShortError):
            fit(flag, F(1), 1)
    report = pinned(flag, 1, 9)
    assert report.w_poly == UniPoly([0, F(-26, 9), F(-32, 9)])
    assert report.DF0 == 4 * (F(-32, 9) + F(52, 9))
    assert report.to_json() == oracle_df(flag, F(1), 9).to_json()
    escalated = donaldson_futaki(flag, 1)
    assert escalated.w_poly == report.w_poly


def test_df_input_contracts():
    with pytest.raises(InputError):
        donaldson_futaki(POINT, 0)
    with pytest.raises(InputError):
        donaldson_futaki(POINT, "-1/2")


def test_df_fractional_s_uses_divisible_grid():
    report = donaldson_futaki(POINT, F(1, 2))
    assert all(k % 2 == 0 for k in report.k_grid.ks())
    assert isinstance(report, DFReport)
    # the grid's ks are strictly increasing multiples of its base
    ks, base = report.k_grid.ks(), report.k_grid.base
    assert all(k % base == 0 for k in ks) and ks == sorted(set(ks))


# Flags #18 and #58 of random_flag_corpus(42, 100), the corpus C06 and
# C08 read.  At base 3 the six-point grid passes the blind fit's
# divided-difference test by coincidence (DF0 = 44/9 and 38/9), and only
# its refinement at 10 times the base rejects it; against the closed
# form the grid itself fails.  The escalation goes on to a base that
# reproduces every multiple of it up to k*s = 480.
SEED42_REFINED = {
    "seed42-18": (18, [{"p": 1, "q": 2, "r": 2}, {"p": 2, "q": 2, "r": 3}], 7, F(64, 7)),
    "seed42-58": (58, [{"p": 2}, {"p": 3, "r": 2}, {"p": 4, "r": 4}], 5, F(36, 5)),
}


@pytest.mark.parametrize("index,divisors,base,df0", SEED42_REFINED.values(),
                         ids=SEED42_REFINED.keys())
def test_df_refinement_rejects_coincidental_fit(index, divisors, base, df0):
    flag = FlagIdealP1(divisors)
    assert random_flag_corpus(42, 100)[index] == flag
    with pytest.raises(GridTooShortError, match="refinement misses w"):
        oracle_df(flag, F(1), 3)
    with pytest.raises(GridTooShortError, match="no stabilization"):
        pinned(flag, 1, 3)
    report = donaldson_futaki(flag, 1)
    assert report.k_grid.base == base
    assert report.DF0 == df0


# provenance (closed form): for a fat point of multiplicity m >= 2 at
# s = 1, deg tilde_D_j = m*j, so with k = m*a, min(2k+1, m*j) is m*j for
# j <= 2a and 2k+1 beyond; summing, w(k) = (2/m - 2)(k^2 + k) on
# multiples of m, hence DF0 = 4 (w2 - 2 w1) = 8 - 8/m, and the grid at
# base m confirms it for every m <= 40 (12 m <= MAX_KS).  Escalation
# needs a base that m divides, or m/2 for even m, and for odd m >= 31
# ESCALATION_BASES holds none, so it exits with GridTooShortError.
@pytest.mark.parametrize("m", range(2, 41))
def test_df_fat_point_escalation(m):
    flag = FlagIdealP1([{"p": m}])
    for k in (m, 2 * m, 3 * m):
        assert weight(flag, k, 1) == (F(2, m) - 2) * (k * k + k)
    report = pinned(flag, 1, m)
    assert report.DF0 == 8 - F(8, m)
    assert report.to_json() == oracle_df(flag, F(1), m).to_json()
    if m % 2 and m > 30:
        with pytest.raises(GridTooShortError, match="no stabilization"):
            donaldson_futaki(flag, 1)
    else:
        assert donaldson_futaki(flag, 1).DF0 == 8 - F(8, m)


def test_closed_form_fat_points():
    # D^(u) = m u, E = 0 and u* = 2/m: w2 = w1 = 2/m - 2
    for m in range(2, 61):
        costs = _point_costs(FlagIdealP1([{"p": m}]))
        assert closed_form(costs, F(1)) == (F(2, m) - 2, F(2, m) - 2), m


# ---------------------------------------------------------------------------
# the integer closed form against its Fraction reference


def reference_closed_form(costs, s):
    """(w2, w1) summed in Fractions, one unit interval at a time."""
    M = len(costs[0]) - 1
    dhat = [F(0)] * (M + 1)  # D^ at the integers
    ebar = [F(0)] * M  # E on each unit interval
    for cost in costs:
        hull = flags._lower_hull(cost)
        for a, b in zip(hull, hull[1:]):
            mean = F(flags._mean_excess(cost, a, b), (b - a) ** 2)
            for t in range(a + 1, b + 1):
                dhat[t] += cost[a] + F((cost[b] - cost[a]) * (t - a), b - a)
                ebar[t - 1] += mean
    area = excess = ustar = F(0)
    for t in range(M):
        y0, y1 = s * dhat[t], s * dhat[t + 1]
        # the share of [t, t + 1] where s D^ <= 2, a prefix as D^ rises
        tau = 1 if y1 <= 2 else 0 if y0 >= 2 else (2 - y0) / (y1 - y0)
        area += tau * (2 * y0 + tau * (y1 - y0)) / 2 + (1 - tau) * 2
        excess += tau * ebar[t]
        ustar += tau
    return -s * area, -s * (excess + min(dhat[M], 2 / s) / 2 + M - ustar)


def closed_form_cases(name):
    """(costs, s) of one case set."""
    if name == "small-flags":
        for flag in small_flags():
            for s in SMALL_FLAG_DF0:
                yield _point_costs(flag), F(s)
    elif name == "seeded":
        # M <= 16 on up to 8 points, den(s) from 1 to 6
        rng = random.Random("closed-form-int")
        for _ in range(150):
            m = rng.randint(1, 16)
            costs = [stretch_costs(rng, m) for _ in range(rng.randint(1, 8))]
            if not any(c[-1] for c in costs):
                costs[0][-1] = 1
            for den in range(1, 7):
                yield costs, F(rng.randint(1, 12), den)
    else:
        for m in range(2, 60):
            for s in ("1", "1/2", "2/3", "3/2", "5/6"):
                yield [[0, m]], F(s)


@pytest.mark.parametrize("name,count", [
    ("small-flags", 762 * 6), ("seeded", 150 * 6), ("fat-points", 58 * 5)
])
def test_closed_form_matches_the_fraction_reference(name, count):
    cases = list(closed_form_cases(name))
    assert len(cases) == count
    for costs, s in cases:
        assert closed_form(costs, s) == reference_closed_form(costs, s), (costs, s)


# With a point of multiplicity >= 25 in D_1, every count min(2k+1, deg_j)
# saturates on the base-1 grid (k <= 12), where w = -M (2k^2 + k) fits
# exactly: the blind fit accepts it with DF0 = 0.
SATURATED = {
    "p25-q1": ([{"p": 25, "q": 1}], 13, F(100, 13)),
    "p30-p40q2": ([{"p": 30}, {"p": 40, "q": 2}], 20, F(58, 5)),
}


@pytest.mark.parametrize("divisors,base,df0", SATURATED.values(), ids=SATURATED.keys())
def test_df_saturated_base_grid(divisors, base, df0):
    flag = FlagIdealP1(divisors)
    assert oracle_df(flag, F(1), 1).DF0 == 0
    report = donaldson_futaki(flag, 1)
    assert (report.k_grid.base, report.DF0) == (base, df0)


def test_flag_length_cap():
    longest = FlagIdealP1([{"p": 1}] * MAX_M)
    assert weight(longest, 1, 1) == brute_weight(longest, 1, 1)
    too_long = FlagIdealP1([{"p": 1}] * (MAX_M + 1))
    for call, args in [
        (donaldson_futaki, (too_long, 1)),
        (weight, (too_long, 1, 1)),
        (tilde_divisors, (too_long, 1)),
    ]:
        with pytest.raises(SizeError, match=rf"capped at {MAX_M} \(got {MAX_M + 1}\)"):
            call(*args)


# ---------------------------------------------------------------------------
# the part step and the bounded read against their full forms


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


def step_all(costs, rows):
    """One more part at every point."""
    return [flags._minplus_step(cost, row) for cost, row in zip(costs, rows)]


def random_costs(rng, m):
    """One point's costs on a valid flag: 0, then nondecreasing, often
    with flat runs and a zero prefix (the point absent from D_1)."""
    cost = [0]
    for _ in range(m):
        cost.append(cost[-1] + rng.choice((0, 0, 1, 2, 5)))
    return cost


def test_step_matches_the_oracle_convolution():
    rng = random.Random("band")
    for m in range(1, 7):
        fixed = [[0] * m + [3], [0] + [2] * m, [0, 1] + [5] * (m - 1)]
        for costs in [[c] for c in fixed] + [
            [random_costs(rng, m) for _ in range(rng.randint(1, 3))] for _ in range(8)
        ]:
            rows = [[0] for _ in costs]
            for n, full in enumerate(_oracle_minplus_power(costs, range(1, 61)), 1):
                rows = step_all(costs, rows)
                assert rows == full, (costs, n)


def test_weight_read_stops_at_the_crossing():
    # N runs past the last column sum, where deg never reaches N; the rows
    # are read whole, then each cut as _stretch cuts it, at or past its
    # first entry >= N, so that they differ in length
    rng = random.Random("read")
    for points in (1, 1, 2, 3):
        m = rng.randint(1, 4)
        costs = [random_costs(rng, m) for _ in range(points)]
        for rows in _oracle_minplus_power(costs, (1, 2, 5, 12)):
            top = max(map(sum, zip(*rows)))
            for N in range(1, top + 3):
                expected = -sum(min(N, sum(col)) for col in zip(*rows))
                cut = [
                    row[:rng.randint(min(bisect_left(row, N) + 1, len(row)), len(row))]
                    for row in rows
                ]
                for read in (rows, cut):
                    assert flags._total_weight(read, N, len(rows[0])) == expected, (
                        costs, N, read
                    )


# ---------------------------------------------------------------------------
# the stretch against the stepped sweep


def stretch_costs(rng, m):
    """One point's costs with envelope segments up to length m: random
    steps, a jump to a plateau (one segment [0, m]), or a bumpy line."""
    shape = rng.randrange(3)
    if shape == 0:
        return random_costs(rng, m)
    if shape == 1:
        top = rng.randint(1, 9)
        return [0] + [top] * (m - 1) + [top + rng.randint(0, 3)]
    slope = rng.randint(1, 3)
    line = [slope * t + (rng.randint(0, 3) if 0 < t < m else 0) for t in range(m + 1)]
    return list(accumulate(line, max))


def stretch_corpus(seed, count):
    """Seeded flags of length 1..16 on 1..3 points, with their costs."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 16)
        costs = [stretch_costs(rng, m) for _ in range(rng.randint(1, 3))]
        if not any(c[-1] for c in costs):
            costs[0][-1] = 1
        yield FlagIdealP1(
            [{f"p{i}": c[t] for i, c in enumerate(costs)} for t in range(1, m + 1)]
        ), costs


def stepped_weights(costs, s, bound):
    """k -> w(k) for every k with k*s <= bound, stepping every part."""
    rows, weights = [[0] for _ in costs], {}
    for n in range(1, bound + 1):
        rows = step_all(costs, rows)
        k = n / s
        if k.denominator == 1:
            N = 2 * int(k) + 1
            weights[int(k)] = -sum(min(N, sum(col)) for col in zip(*rows))
    return weights


STRETCH_BOUND = 60


def test_stretch_matches_the_stepped_sweep():
    # every k up to k*s = 60, asked in increasing, random and repeated
    # order; every flag certifies by 40 parts, so the weights past that
    # are read off the stretch
    rng = random.Random("orders")
    for i, (flag, costs) in enumerate(stretch_corpus("stretch", 14)):
        s = F(1) if i % 2 else F(2, 3)
        expected = stepped_weights(costs, s, STRETCH_BOUND)
        ks = sorted(expected)
        shuffled = rng.sample(ks, len(ks))
        for order in (ks, shuffled, shuffled + rng.sample(ks, len(ks))):
            sweep = _Sweep(flag, s)
            assert [sweep.weight(k) for k in order] == [expected[k] for k in order], (
                costs, s
            )
            assert all(certified_at(point) <= 40 for point in sweep.points), costs


def certified_at(point):
    """n0, the part count of a certified point's last kept row."""
    assert point.cuts is not None
    return len(point.rows) - 1


def test_certificate_checks_each_condition():
    # at each point, a row that breaks (C) or (P) alone, or that is too
    # short for (S), does not certify; the row the point certified does
    flag = FlagIdealP1([{"p": 1, "q": 2}, {"p": 3, "q": 2}, {"p": 4, "q": 5}])
    sweep = _Sweep(flag, 1)
    sweep.weight(MAX_KS)
    for point in sweep.points:
        row, cuts, segments = point.rows[-1], point.cuts, point.segments
        assert certified_at(point) > 0

        def insert_one(row):
            return flags._stretch(row, cuts, 1, _INF)

        assert flags._certify(segments, row, insert_one(row)) == cuts
        stepped = insert_one(row)
        stepped[-1] += 1
        assert flags._certify(segments, row, stepped) is None
        moved = list(row)
        moved[cuts[0][0] - 1] += 1  # inside the first window of (P)
        assert flags._certify(segments, moved, insert_one(moved)) is None
        short = list(point.cost)  # the row at one part
        stepped = flags._minplus_step(point.cost, short)
        assert flags._certify(segments, short, stepped) is None


def outside_run(row, cut):
    """The cut moved to one entry past the left end of its periodic run."""
    q, L, rise = cut
    while q > L and row[q - 1] == row[q - 1 - L] + rise:
        q -= 1
    return (q - 1, L, rise) if q > L else None


def lift_one_period(row, cut):
    """Each inserted period lifting what follows by one period too many."""
    q, L, rise = cut
    return (q, L, 2 * rise) if rise else None


@pytest.mark.parametrize("mutate", [outside_run, lift_one_period])
def test_stretch_mutations_fail_the_certificate_and_the_oracle(monkeypatch, mutate):
    # each point reads its rows off cuts mutated after they certified:
    # (C) rejects every mutated cut, and the stepped sweep sees wrong weights
    certify = flags._certify
    caught = []

    def mutated(segments, row, stepped):
        cuts = certify(segments, row, stepped)
        for i, cut in enumerate(cuts or ()):
            bad = mutate(row, cut)
            if bad:
                cuts[i] = bad
                caught.append(flags._stretch(row, cuts, 1, _INF) != stepped)
                return cuts
        return cuts

    monkeypatch.setattr(flags, "_certify", mutated)
    wrong = 0
    for flag, costs in stretch_corpus("mutations", 10):
        expected = stepped_weights(costs, F(1), STRETCH_BOUND)
        sweep = _Sweep(flag, 1)
        wrong += {k: sweep.weight(k) for k in expected} != expected
    assert len(caught) >= 9 and all(caught)
    # the others mutate only entries past every crossing with N = 2k + 1
    assert wrong >= 8


def test_df_outputs_without_the_certificate(monkeypatch, capsys):
    # rows that never certify are stepped at every part
    monkeypatch.setattr(flags, "_certify", lambda segments, row, stepped: None)
    data = Path(__file__).parent / "data" / "df"
    for name, by_s in [
        item for table in ("expected.json", "expected_walk.json")
        for item in json.loads((data / table).read_text()).items()
    ]:
        for s, by_format in by_s.items():
            for fmt, expected in by_format.items():
                code = main(["df", "--flag", str(data / name), "--s", s, "--format", fmt])
                out = capsys.readouterr()
                got = {"exit": code, "stdout": out.out, "stderr": out.err}
                assert got == expected, (name, s, fmt)


def cap_size_flag():
    """A seeded flag of length 16 on 8 points, mostly flat steps."""
    rng = random.Random("cap-5")
    cur, divisors = [0] * 8, []
    for _ in range(16):
        cur = [c + rng.choice((0,) * 10 + (1, 2)) for c in cur]
        divisors.append({f"p{i}": c for i, c in enumerate(cur)})
    return FlagIdealP1(divisors)


def test_cap_size_flag_takes_few_part_steps(monkeypatch):
    # a sweep without the certificate takes 276 part steps of all 8 rows
    # to k*s = 276 (base 23); each point steps each part once, until it
    # certifies (182 row steps in all, where the points stepped jointly
    # took 280)
    steps = count_steps(monkeypatch)
    flag = cap_size_flag()
    assert (flag.M, len(flag.points())) == (16, 8)
    grid = [(46, -58370), (69, -130679), (92, -231738), (115, -361547),
            (138, -520106), (184, -923474)]
    assert donaldson_futaki(flag, 1).to_json() == {
        "s": "1",
        "k_grid": [{"k": k, "w": str(w)} for k, w in grid],
        "w_poly": ["-2", "-434/23", "-625/23"],
        "N_poly": ["1", "2"],
        "DF": "243/23",
        "DF0": "972/23",
        "inferred_Lbar_sq": "-1250/23",
        "onset_k": 46,
        "semiampleness_checked": False,
    }
    assert len(steps) == len(set(steps)) <= 200


def test_tilde_rows_match_the_stepped_sweep():
    # every ks <= 60 on seeded flags of length up to 16, each certified
    # by 40 parts, so most rows are read off the stretch (one sweep
    # asked in increasing order reads them as a fresh one does); the
    # divisors tilde_divisors builds from them are checked at a few ks
    for flag, _ in stretch_corpus("tilde-stretch", 12):
        costs, labels = _point_costs(flag), flag.points()
        sweep = _Sweep(flag, 1)
        rows = [[0] for _ in costs]
        for ks in range(1, STRETCH_BOUND + 1):
            rows = step_all(costs, rows)
            assert [point.row(ks) for point in sweep.points] == rows, (costs, ks)
            if ks in (1, 7, 41, STRETCH_BOUND):
                assert tilde_divisors(flag, ks) == flags.TildeFamily(ks, tuple(
                    PointDivisor(dict(zip(labels, col))) for col in zip(*rows)
                )), (costs, ks)
        assert all(certified_at(point) <= 40 for point in sweep.points), costs


@pytest.mark.parametrize("linear", [False, True], ids=["seeded", "linear"])
def test_tilde_at_the_caps_takes_few_part_steps(monkeypatch, linear):
    # a sweep without the certificate takes all 480 part steps of the 8
    # rows; on the linear flag D_t(p_i) = (31 + 2i) t every split of j
    # costs (31 + 2i) j at p_i; row steps: 182 seeded, 40 linear
    steps = count_steps(monkeypatch)
    flag = FlagIdealP1([
        {f"p{i}": (31 + 2 * i) * t for i in range(8)} for t in range(1, 17)
    ]) if linear else cap_size_flag()
    family = tilde_divisors(flag, MAX_KS)
    assert len(steps) == len(set(steps)) <= 200
    assert len(family.divisors) == 16 * MAX_KS + 1
    assert family.divisors[1] == flag.divisors[0]
    assert family.divisors[-1] == PointDivisor(
        {label: MAX_KS * flag.divisors[-1].at(label) for label in flag.points()}
    )
    degrees = [d.degree for d in family.divisors]
    assert degrees == sorted(degrees)
    if linear:
        assert all(d == PointDivisor({f"p{i}": (31 + 2 * i) * j for i in range(8)})
                   for j, d in enumerate(family.divisors))


# ---------------------------------------------------------------------------
# the reference: the blind fit, escalated with a fresh sweep per base


def df_coefficient(w, N, n):
    """Coefficient of k^(n+1) k'^n in w(k) k' N(k') - w(k') k N(k)."""
    if n < 0:
        raise InputError("dimension n must be >= 0")
    if w.degree > n + 1:
        raise InputError(f"deg w = {w.degree} exceeds n+1 = {n + 1}")
    if N.degree != n:
        raise InputError(f"deg N = {N.degree}, expected exactly n = {n}")
    # k^(n+1) k'^n comes from w[n+1] k^(n+1) * k' N[n-1] k'^(n-1) in
    # the first term and from w[n] k'^n * k N[n] k^n in the second
    return w.coeff(n + 1) * N.coeff(n - 1) - w.coeff(n) * N.coeff(n)


def interpolate(samples):
    """Unique polynomial of degree < #samples through all samples.

    Newton divided differences, expanded to monomial coefficients;
    exact at every step.
    """
    entries = sorted(samples)
    xs = [F(k) for k, _ in entries]
    if len(set(xs)) != len(xs):
        raise InputError("duplicate k values in sample grid")
    if len(xs) < 2:
        raise InputError("interpolation needs at least 2 samples")
    table = [F(v) for _, v in entries]
    coeffs, basis = [F(0)] * len(xs), [F(1)]
    for order in range(len(xs)):
        if order:
            table = [
                (table[i + 1] - table[i]) / (xs[i + order] - xs[i])
                for i in range(len(table) - 1)
            ]
            basis = [F(0)] + basis  # times (k - xs[order - 1])
            for i in range(order):
                basis[i] -= xs[order - 1] * basis[i + 1]
        for i, c in enumerate(basis):
            coeffs[i] += table[0] * c
    return UniPoly(coeffs)


def stabilized_fit(samples, degree_bound):
    """Fit a degree <= degree_bound polynomial to the tail of a grid.

    The fit interpolates the last degree_bound+1 samples and is
    accepted only if it also reproduces the two samples before them.
    Returns (poly, onset_k) where onset_k is the smallest grid k from
    which the fit agrees with every later sample.
    """
    entries = samples.entries if isinstance(samples, SampleGrid) else sorted(samples)
    if degree_bound < 0:
        raise InputError("degree bound must be >= 0")
    if len(entries) < degree_bound + 3:
        raise InputError(
            f"need at least {degree_bound + 3} samples for degree bound {degree_bound}"
        )
    tail = entries[-(degree_bound + 1):]
    # interpolate needs two samples; a constant fit is the last sample
    poly = interpolate(tail) if degree_bound else UniPoly([tail[0][1]])
    onset = entries[-1][0]
    for k, v in reversed(entries):
        if poly(k) != v:
            break
        onset = k
    # Same test as vanishing (d+1)-th differences on the last two windows
    # of d+2 samples: the last window's vanish iff poly passes its first
    # sample; poly then fits all but the first of the one before, likewise.
    if onset > entries[-(degree_bound + 3)][0]:
        raise GridTooShortError(
            f"no stabilization within the grid (largest k tried: {entries[-1][0]})"
        )
    return poly, onset


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


def oracle_df(flag, s, base, weigh=None):
    """One grid base blindly fitted, with every weight drawn before the
    fit: from weigh(k), or else from its own sweep from zero parts."""
    k0 = base * s.denominator
    multipliers = flags.DEFAULT_MULTIPLIERS + flags.REFINE_MULTIPLIERS
    ks = [k0 * m for m in multipliers]
    weights = iter([weigh(k) for k in ks] if weigh else _oracle_weights(flag, s, ks))
    grid = SampleGrid(
        tuple((k0 * m, F(next(weights))) for m in flags.DEFAULT_MULTIPLIERS), base=k0
    )
    w_poly, onset = stabilized_fit(grid, 2)
    for m, w in zip(flags.REFINE_MULTIPLIERS, weights):
        if w_poly(k0 * m) != w:
            raise GridTooShortError(f"refinement misses w({k0 * m})")
    df = df_coefficient(w_poly, flags.N_POLY, 1)
    return DFReport(
        s=s, k_grid=grid, w_poly=w_poly, N_poly=flags.N_POLY, DF=df, DF0=4 * df,
        inferred_Lbar_sq=2 * w_poly.coeff(2), onset_k=onset,
    )


def oracle_escalation(flag, s, weigh=None):
    last = None
    for base in ESCALATION_BASES:
        try:
            return oracle_df(flag, s, base, weigh)
        except GridTooShortError as exc:
            last = exc
    raise last


def outcome(run, *args):
    try:
        return run(*args).to_json()
    except (GridTooShortError, SizeError) as exc:
        return type(exc).__name__, str(exc)


def assert_matches_reference(flag, s, weigh=None):
    """The escalation equals the reference wherever the reference's fit
    has the closed form's w2 and w1, errors included.  Elsewhere the
    reference took a coincidental fit, and the escalation must report
    the closed form's coefficients or raise.  True iff they are equal."""
    w2, w1 = closed_form(_point_costs(flag), s)
    closed = [rat_str(w1), rat_str(w2)]
    expected = outcome(oracle_escalation, flag, s, weigh)
    got = outcome(donaldson_futaki, flag, s)
    if isinstance(expected, tuple) or expected["w_poly"][1:] == closed:
        assert got == expected, (flag, s)
        return True
    assert isinstance(got, tuple) or got["w_poly"][1:] == closed, (flag, s)
    return False


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
    # fat points 11, 13 and 15: the reference's fit is coincidental
    assert_matches_reference(flag, s)


def test_escalation_matches_the_reference_on_a_sample():
    # 25 seeded flags of length up to 4, each at four values of s; the
    # reference reads the sweep, which the cases above check
    equal = 0
    for flag in random_flag_corpus("closed-form", 25, max_m=4):
        for s in map(F, ("1", "1/2", "2/3", "3/2")):
            equal += assert_matches_reference(flag, s, _Sweep(flag, s).weight)
    assert equal == 100



def small_flags():
    """Every flag with M <= 3 on one point or an unordered pair of points,
    multiplicities <= 4 and a nonzero last divisor."""
    for m in (1, 2, 3):
        chains = [c for c in combinations_with_replacement(range(5), m) if c[-1]]
        for i, p in enumerate(chains):
            yield FlagIdealP1([{"p": a} for a in p])
            for q in chains[i:]:
                yield FlagIdealP1([{"p": a, "q": b} for a, b in zip(p, q)])


# s -> (least DF0 over small_flags(), how many flags reach DF0 = 0)
SMALL_FLAG_DF0 = {
    "1/2": (F(3, 2), 0), "1": (0, 22), "3/2": (0, 22),
    "2": (0, 141), "3": (0, 145), "5": (0, 183),
}


def test_df0_is_nonnegative_on_every_small_flag():
    # the paper's DF >= 0 over a whole family, 762 flags at six s, by
    # the closed form; every 20th flag also through the escalation,
    # which either exits on a limit (once, at s = 3/2) or reports the same DF0
    family = list(small_flags())
    assert len(family) == 762
    found = {s: (None, 0) for s in SMALL_FLAG_DF0}
    confirmed = 0
    for i, flag in enumerate(family):
        costs = _point_costs(flag)
        for s, (least, zeros) in found.items():
            w2, w1 = closed_form(costs, F(s))
            df0 = 4 * (w2 - 2 * w1)
            assert df0 >= 0, (
                f"counterexample: DF0 = {rat_str(df0)} at s = {s} "
                f"for {flag.to_json()}"
            )
            found[s] = (df0 if least is None else min(least, df0), zeros + (df0 == 0))
            if i % 20:
                continue
            try:
                report = donaldson_futaki(flag, F(s))
            except (GridTooShortError, SizeError):
                continue
            assert report.DF0 == df0, (flag, s)
            assert report.DF == df_coefficient(report.w_poly, flags.N_POLY, 1)
            confirmed += 1
    assert found == SMALL_FLAG_DF0
    assert confirmed == 233

def count_steps(monkeypatch):
    """(cost, n) at each _minplus_step call: the point's costs and the
    part count of the row it steps."""
    steps = []
    step = flags._minplus_step

    def counted(cost, row):
        steps.append((tuple(cost), (len(row) - 1) // (len(cost) - 1)))
        return step(cost, row)

    monkeypatch.setattr(flags, "_minplus_step", counted)
    return steps


def spy_certify(monkeypatch):
    """Whether each _certify call passed."""
    passed = []
    certify = flags._certify

    def spied(segments, row, stepped):
        cuts = certify(segments, row, stepped)
        passed.append(cuts is not None)
        return cuts

    monkeypatch.setattr(flags, "_certify", spied)
    return passed


def test_escalation_takes_each_part_step_once(monkeypatch):
    # fat point 16 rejects bases 1..7 before base 8 fits; the sweep steps
    # parts 0, 1, 2, ... once each and stops at the step that certifies
    steps = count_steps(monkeypatch)
    passed = spy_certify(monkeypatch)
    report = donaldson_futaki(FlagIdealP1([{"p": 16}]), 1)
    assert report.k_grid.base > 1
    assert steps == [((0, 16), n) for n in range(len(steps))]
    assert passed == [False] * (len(steps) - 1) + [True]
    assert len(steps) < report.k_grid.base * max(flags.REFINE_MULTIPLIERS)


# ---------------------------------------------------------------------------
# the points shared across flags, s and calls


SHARED = (0, 1, 3, 4)  # the costs of q in FIRST and of a in SECOND
FIRST = FlagIdealP1([{"p": 1, "q": 1}, {"p": 2, "q": 3}, {"p": 2, "q": 4}])
SECOND = FlagIdealP1([{"a": 1, "z": 2}, {"a": 3, "z": 2}, {"a": 4, "z": 5}])


def test_a_common_point_steps_once(monkeypatch):
    # the shared point is the second of FIRST and the first of SECOND,
    # under other labels; each flag at s = 1 and 2/3 reads it
    steps = count_steps(monkeypatch)
    calls = [(flag, s) for flag in (FIRST, SECOND) for s in (F(1), F(2, 3))]
    reports = [donaldson_futaki(flag, s).to_json() for flag, s in calls]
    assert len(steps) == len(set(steps))
    shared = [n for cost, n in steps if cost == SHARED]
    assert shared == list(range(len(shared))) and shared
    assert flags._point.cache_info().currsize == 3
    # the same reports from a cold cache, each call alone
    for (flag, s), report in zip(calls, reports):
        flags._point.cache_clear()
        assert donaldson_futaki(flag, s).to_json() == report, (flag, s)


def test_equal_points_of_one_flag_step_once(monkeypatch):
    steps = count_steps(monkeypatch)
    flag = FlagIdealP1([{"p": 1, "q": 1, "r": 1}, {"p": 3, "q": 3, "r": 3}])
    assert donaldson_futaki(flag, 1).DF0 == F(16, 3)
    assert {cost for cost, _ in steps} == {(0, 1, 3)}
    assert [n for _, n in steps] == list(range(len(steps)))
    assert flags._point.cache_info().currsize == 1
    assert [weight(flag, k, 1) for k in (1, 2, 3)] == [
        brute_weight(flag, k, k) for k in (1, 2, 3)
    ]


def test_the_point_key_is_the_cost_tuple():
    # labels, the other points and s do not enter the key
    first, second = _Sweep(FIRST, 1), _Sweep(SECOND, F(2, 3))
    assert first.points[1] is second.points[0]
    assert first.points[1].cost == SHARED
    assert first.points[0] is not second.points[1]
    assert _Sweep(FlagIdealP1([{"x": 1}, {"x": 3}, {"x": 4}]), 5).points == [
        first.points[1]
    ]
    assert flags._point.cache_info().currsize == 3


def test_the_point_cache_is_bounded(monkeypatch):
    assert flags._point.cache_info().maxsize == flags.POINT_CACHE
    assert 0 < flags.POINT_CACHE < 10**4
    # the same cache, rebuilt with a bound of 3: the least recent point
    # goes, and a flag that reads it again steps it again
    monkeypatch.setattr(flags, "_point", lru_cache(maxsize=3)(flags._Point))
    for m in range(1, 9):
        flag = FlagIdealP1([{"p": m}])
        assert weight(flag, 4, 1) == brute_weight(flag, 4, 4)
        assert flags._point.cache_info().currsize <= 3
    steps = count_steps(monkeypatch)
    weight(FlagIdealP1([{"p": 8}]), 4, 1)
    assert steps == []
    weight(FlagIdealP1([{"p": 1}]), 4, 1)
    assert steps and {cost for cost, _ in steps} == {(0, 1)}


def test_rows_handed_out_are_never_mutated():
    flag = cap_size_flag()
    first = tilde_divisors(flag, 40)
    kept = [list(map(list, point.rows)) for point in _Sweep(flag, 1).points]
    donaldson_futaki(flag, 1)
    for k in (3, 30, 300, 3):
        weight(flag, k, F(2, 3))
    for ks in (1, 7, 40, 100):
        tilde_divisors(flag, ks)
    assert tilde_divisors(flag, 40) == first
    assert [point.rows for point in _Sweep(flag, 1).points] == kept


def test_the_largest_measured_point_entry():
    # every envelope segment of length 1 at M = 16: (S) at the first cut
    # needs n0 >= 2 (M + 1) = 34, and the point keeps its rows up to n0,
    # M n + 1 entries at n parts (the _Point docstring)
    point = flags._point(tuple(t * t for t in range(17)))
    point.row(MAX_KS)
    assert [L for _, _, L, _ in point.segments] == [1] * 16
    assert certified_at(point) == 34
    assert sum(map(len, point.rows)) == sum(16 * n + 1 for n in range(35)) == 9555


THREADED_FLAG = FlagIdealP1([{"p": 1, "q": 2}, {"p": 3, "q": 3}, {"p": 7, "q": 4},
                             {"p": 9, "q": 8}])


def read_in_threads(ks):
    """Each of 4 threads' weights of THREADED_FLAG at ks, from a cold
    cache, or the exception it raised."""
    flags._point.cache_clear()
    results = [None] * 4

    def read(i):
        try:
            results[i] = [weight(THREADED_FLAG, k, 1) for k in ks]
        except Exception as error:  # reported by the caller's comparison
            results[i] = error

    started = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    for thread in started:
        thread.start()
    for thread in started:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in started)
    return results


@pytest.mark.parametrize("preempt", ["slow-step", "switch-interval"])
def test_threads_sharing_cold_points_read_right_weights(monkeypatch, preempt):
    # four threads ask the same cold points for ever longer
    # rows while another thread is mid-step, under a slowed step or a
    # short switch interval; every thread must read what one thread reads
    ks = range(1, 40)
    expected = [weight(THREADED_FLAG, k, 1) for k in ks]
    if preempt == "slow-step":
        step = flags._minplus_step

        def slow(cost, row):
            time.sleep(0.0005)
            return step(cost, row)

        monkeypatch.setattr(flags, "_minplus_step", slow)
        assert read_in_threads(ks) == [expected] * 4
    else:
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            wrong = sum(read_in_threads(ks) != [expected] * 4 for _ in range(100))
        finally:
            sys.setswitchinterval(interval)
        assert wrong == 0


def spy_weights(monkeypatch):
    """The k of each _Sweep.weight call."""
    asked = []
    weigh = _Sweep.weight

    def spied(self, k):
        asked.append(k)
        return weigh(self, k)

    monkeypatch.setattr(_Sweep, "weight", spied)
    return asked


def test_a_rejected_base_stops_at_its_first_miss(monkeypatch):
    # fat point 7 at base 1: the residual at k = 4 differs from the one
    # at k = 3, so the base samples nothing more and never k = 2; the
    # message still names the grid's largest k
    asked = spy_weights(monkeypatch)
    flag = FlagIdealP1([{"p": 7}])
    with pytest.raises(GridTooShortError) as info:
        pinned(flag, 1, 1)
    assert str(info.value) == "no stabilization within the grid (largest k tried: 8)"
    assert asked == [3, 4]
    # an accepted base samples k0 * 3 .. k0 * 12, then k0 * 2 for onset_k
    asked.clear()
    assert pinned(flag, 1, 7).onset_k == 14
    assert asked[:8] == [21, 28, 35, 42, 56, 70, 84, 14]


def test_refinement_miss_message():
    # a count one above the closed form's at k0 * 10 alone
    sweep = _Sweep(POINT, 1)
    weigh = sweep.weight
    sweep.weight = lambda k: weigh(k) + (k == 10)
    with pytest.raises(GridTooShortError) as info:
        _fit(sweep, 1, *_closed_form(sweep.points, sweep.s))
    assert str(info.value) == "refinement misses w(10)"


def test_denominator_cap_comes_before_any_sample(monkeypatch):
    asked = spy_weights(monkeypatch)
    with pytest.raises(SizeError) as info:
        donaldson_futaki(POINT, F(1, 10**MAX_S_DIGITS))
    assert str(info.value) == f"denominator of s capped at {MAX_S_DIGITS} digits"
    assert asked == []
    report = donaldson_futaki(POINT, F(1, 10**MAX_S_DIGITS - 1))
    assert report.w_poly == UniPoly([0, -report.s / 2, -report.s**2 / 2])
    assert json.dumps(report.to_json())


def test_every_sample_is_capped_before_the_sweep(monkeypatch):
    # base 41: the grid reaches k*s = 328 < MAX_KS, the refinement 492
    steps = count_steps(monkeypatch)
    with pytest.raises(SizeError, match="got 492"):
        pinned(POINT, 1, 41)
    assert steps == []
