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
from kstab.flags import MAX_KS, flag_from_json
from kstab.verification import df_with_escalation, random_flag_corpus

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


def test_weight_input_contracts():
    with pytest.raises(InputError):
        weight(POINT, 0, 1)
    with pytest.raises(InputError):
        weight(POINT, 3, F(1, 2))  # k*s not an integer
    # k = 4, s = 1/2: ks = 2, m = 8 + 7, w = 15 - 9*2
    assert weight(POINT, 4, F(1, 2)) == -3


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
    with pytest.raises(InputError):
        donaldson_futaki(POINT, 1, multipliers=(2, 3, 4))


def test_df_fractional_s_uses_divisible_grid():
    report = donaldson_futaki(POINT, F(1, 2))
    assert all(k % 2 == 0 for k in report.k_grid.ks())
    assert isinstance(report, DFReport)
