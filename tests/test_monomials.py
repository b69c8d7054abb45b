"""Monomial multiplier ideals: polyhedra, laws, summation formula."""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest

from kstab import (
    InputError,
    MonomialIdeal,
    SizeError,
    law_checks,
    lct_monomial,
    multiplier_ideal,
    newton_polyhedron,
    summation_check,
)
from kstab import monomials
from kstab.errors import InconclusiveError
from kstab.monomials import _support_normals, hull_inequalities, ideal_from_json

F = Fraction

XY = MonomialIdeal(2, [(1, 0), (0, 1)])


def contains(ideal, v):
    return any(all(a >= b for a, b in zip(v, g)) for g in ideal.generators)


# ---------------------------------------------------------------------------
# the ideal type


def test_generators_are_minimalized():
    a = MonomialIdeal(2, [(1, 0), (2, 0), (1, 1), (0, 2)])
    assert a.generators == frozenset({(1, 0), (0, 2)})


def test_unit_and_membership():
    unit = MonomialIdeal.unit(3)
    assert unit.is_unit()
    assert contains(unit, (0, 0, 0))
    assert not contains(XY, (0, 0))
    assert contains(XY, (0, 5))


def test_sum_product_power():
    x2 = MonomialIdeal.principal((2, 0))
    y3 = MonomialIdeal.principal((0, 3))
    assert x2 + y3 == MonomialIdeal(2, [(2, 0), (0, 3)])
    assert x2 * y3 == MonomialIdeal.principal((2, 3))


def test_ideal_input_contracts():
    with pytest.raises(InputError):
        MonomialIdeal(2, [])
    with pytest.raises(InputError):
        MonomialIdeal(2, [(1, 0, 0)])
    with pytest.raises(InputError):
        MonomialIdeal(2, [(-1, 0)])
    with pytest.raises(InputError):
        ideal_from_json({"n": 2})


def test_json_round_trip():
    a = MonomialIdeal(2, [(2, 0), (0, 3)])
    assert ideal_from_json(a.to_json()) == a


# ---------------------------------------------------------------------------
# Newton polyhedra


def test_polyhedron_of_maximal_ideal():
    poly = newton_polyhedron(XY)
    assert set(poly.inequalities) == {
        ((1, 0), F(0)),
        ((0, 1), F(0)),
        ((1, 1), F(1)),
    }


def test_polyhedron_of_cusp():
    poly = newton_polyhedron(MonomialIdeal(2, [(2, 0), (0, 3)]))
    assert set(poly.inequalities) == {
        ((1, 0), F(0)),
        ((0, 1), F(0)),
        ((3, 2), F(6)),
    }


def test_polyhedron_of_unit_ideal_is_orthant():
    poly = newton_polyhedron(MonomialIdeal.unit(2))
    assert set(poly.inequalities) == {((1, 0), F(0)), ((0, 1), F(0))}


def test_polyhedron_arity_cap():
    with pytest.raises(SizeError):
        newton_polyhedron(MonomialIdeal.unit(5))


def test_polyhedron_valid_and_tight_on_generators():
    rng = random.Random("newton")
    for _ in range(15):
        n = rng.randint(1, 3)
        a = MonomialIdeal(
            n,
            [
                tuple(rng.randint(0, 4) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ],
        )
        poly = newton_polyhedron(a)
        gens = a.sorted_generators()
        for normal, offset in poly.inequalities:
            values = [sum(c * g for c, g in zip(normal, gen)) for gen in gens]
            assert all(v >= offset for v in values)
            # every facet is supported: tight on a generator or a bound
            assert offset == 0 or min(values) == offset


def _det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


def reference_hull(points, n):
    """Facets of conv(points) + orthant with positive offset, by full search.

    After dropping dominated points, every way to span a hyperplane in
    Z^n by differences of d points and n - d coordinate rays gives a
    candidate normal (an n x n cofactor expansion); the nonnegative
    ones valid on every point with positive offset are the facets.
    """
    pts = sorted(
        {
            p
            for p in points
            if not any(q != p and all(x <= y for x, y in zip(q, p)) for q in points)
        }
    )
    candidates = set()
    for d in range(1, n + 1):
        for base, *rest in combinations(pts, d):
            diffs = [tuple(a - b for a, b in zip(p, base)) for p in rest]
            for rays in combinations(range(n), n - d):
                dirs = diffs + [tuple(int(j == i) for j in range(n)) for i in rays]
                normal = tuple(
                    (-1) ** i * _det([v[:i] + v[i + 1:] for v in dirs])
                    for i in range(n)
                )
                if all(x <= 0 for x in normal):
                    normal = tuple(-x for x in normal)
                offset = sum(a * b for a, b in zip(normal, base))
                if any(x < 0 for x in normal) or offset <= 0:
                    continue
                g = math.gcd(*normal)
                candidates.add((tuple(x // g for x in normal), offset // g))
    return tuple(
        (normal, offset)
        for normal, offset in sorted(candidates)
        if all(sum(a * b for a, b in zip(normal, p)) >= offset for p in pts)
    )


def test_projected_kernel_matches_full_search():
    rng = random.Random("projected-kernel")
    for i in range(600):
        n = 1 + i % 4
        points = [
            tuple(rng.randint(0, 6) for _ in range(n))
            for _ in range(rng.randint(1, 8))
        ]
        assert hull_inequalities(points, n) == reference_hull(points, n), points


# ---------------------------------------------------------------------------
# multiplier ideals


def test_multiplier_spot_values():
    assert multiplier_ideal([(XY, F(2))]) == XY
    assert multiplier_ideal([(XY, F(3, 2))]).is_unit()
    assert multiplier_ideal([(MonomialIdeal.unit(2), F(5))]).is_unit()


def test_multiplier_of_principal_monomial_is_floor():
    # for a monomial divisor the multiplier ideal is the rounded-down
    # multiple: exponent_i = floor(c * a_i)
    rng = random.Random("principal")
    for _ in range(20):
        n = rng.randint(1, 3)
        a = tuple(rng.randint(0, 3) for _ in range(n))
        c = F(rng.randint(1, 12), rng.randint(1, 6))
        expected = tuple(
            (c * ai).numerator // (c * ai).denominator for ai in a
        )
        got = multiplier_ideal([(MonomialIdeal.principal(a), c)])
        assert got == MonomialIdeal(n, [expected])


def test_multiplier_monotone_in_exponent():
    rng = random.Random("mono-c")
    for _ in range(10):
        n = rng.randint(1, 3)
        a = MonomialIdeal(
            n,
            [
                tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            ],
        )
        c = F(rng.randint(0, 8), rng.randint(1, 4))
        step = F(rng.randint(1, 6), rng.randint(1, 4))
        bigger = multiplier_ideal([(a, c + step)])
        smaller = multiplier_ideal([(a, c)])
        assert bigger.issubset(smaller)


def weighted_points(factors, scale):
    """The sums of one generator per factor, each times c * scale.

    Their hull plus the orthant is scale times the weighted sum of the
    factors' Newton polyhedra: the per-product facet path.
    """
    weighted = [[(c * scale, g) for g in a.generators] for a, c in factors]
    return [
        tuple(int(sum(w * g[j] for w, g in combo)) for j in range(len(combo[0][1])))
        for combo in product(*weighted)
    ]


def box_scan(factors):
    """Reference multiplier ideal: scan the whole corner box in order.

    Every point of the box (see multiplier_ideal's docstring) that no
    member found so far divides is tested against every facet of P in
    Fraction arithmetic, with the facets of scale * P divided back.
    """
    n = factors[0][0].arity
    factors = [(a, c) for a, c in factors if c > 0]
    if not factors:
        return MonomialIdeal.unit(n)
    scale = math.lcm(*(c.denominator for _, c in factors))
    facets = [
        (a, F(b, scale)) for a, b in reference_hull(weighted_points(factors, scale), n)
    ]
    corner = [
        int(sum(c * max(g[j] for g in a.generators) for a, c in factors)) + 1
        for j in range(n)
    ]
    box = product(*(range(x + 1) for x in corner))
    members = []
    for v in sorted(box, key=lambda v: (sum(v), v)):
        if any(all(a >= b for a, b in zip(v, m)) for m in members):
            continue  # member, but dominated: never a minimal generator
        z = tuple(x + 1 for x in v)
        if all(sum(a * b for a, b in zip(nu, z)) > offset for nu, offset in facets):
            members.append(v)
    return MonomialIdeal(n, members)


def random_product(rng, n):
    """1-3 factors of 1-3 generators with weights p/q, p <= 2q <= 12."""
    max_exp = {1: 6, 2: 4, 3: 3, 4: 2}[n]
    factors = []
    for _ in range(rng.randint(1, 3)):
        gens = [
            tuple(rng.randint(0, max_exp) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        ]
        q = rng.randint(1, 6)
        factors.append((MonomialIdeal(n, gens), F(rng.randint(0, 2 * q), q)))
    return factors


def test_staircase_matches_box_scan():
    rng = random.Random("staircase")
    for i in range(300):
        factors = random_product(rng, 1 + i % 4)
        assert multiplier_ideal(factors) == box_scan(factors), factors


def test_support_normals_give_every_weighted_facet():
    # the unit-weight normals of the support set, with offsets from the
    # support function, are exactly the facets of the weighted-point hull
    rng = random.Random("support-normals")
    zero_weights = 0
    for i in range(300):
        n = 1 + i % 4
        factors = random_product(rng, n)
        live = [(a, c) for a, c in factors if c]
        zero_weights += len(live) < len(factors)
        if not live:
            continue
        scale = math.lcm(*(c.denominator for _, c in live))
        supports = tuple(sorted({tuple(sorted(a.generators)) for a, _ in live}))
        support = tuple(
            (
                normal,
                sum(
                    int(c * scale)
                    * min(sum(x * y for x, y in zip(normal, g)) for g in a.generators)
                    for a, c in live
                ),
            )
            for normal in _support_normals(supports, n)
        )
        expected = reference_hull(weighted_points(live, scale), n)
        assert sorted(support) == list(expected), factors
    assert zero_weights > 0


def test_multiplier_cache_ignores_factor_order():
    monomials._multiplier.cache_clear()
    a = MonomialIdeal(2, [(2, 0), (0, 1)])
    b = MonomialIdeal(2, [(1, 0), (0, 2)])
    first = multiplier_ideal([(a, F(1)), (b, F(1))])
    second = multiplier_ideal([(b, F(1)), (a, F(1))])
    assert monomials._multiplier.cache_info().currsize == 1
    assert second is first


def test_caches_stay_within_their_bound(monkeypatch):
    # the module's caches, rebuilt with a bound of 5 around the same functions
    for name in ("_multiplier", "_support_normals"):
        cached = getattr(monomials, name)
        assert cached.cache_info().maxsize == monomials.CACHE_BOUND
        monkeypatch.setattr(monomials, name, lru_cache(maxsize=5)(cached.__wrapped__))
    results = []
    for e in range(1, 13):  # twelve products on twelve support sets
        results.append(multiplier_ideal([(MonomialIdeal(2, [(e, 0), (0, 1)]), F(1))]))
        assert monomials._multiplier.cache_info().currsize <= 5
        assert monomials._support_normals.cache_info().currsize <= 5
    newest = multiplier_ideal([(MonomialIdeal(2, [(12, 0), (0, 1)]), F(1))])
    oldest = multiplier_ideal([(MonomialIdeal(2, [(1, 0), (0, 1)]), F(1))])
    assert newest is results[-1]
    assert oldest == results[0] and oldest is not results[0]


def test_multiplier_output_is_upward_closed():
    rng = random.Random("closed")
    for _ in range(10):
        a = MonomialIdeal(
            2, [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(2)]
        )
        ideal = multiplier_ideal([(a, F(rng.randint(1, 5), 2))])
        for g in ideal.generators:
            assert contains(ideal, (g[0] + 1, g[1]))
            assert contains(ideal, (g[0], g[1] + 1))


# ---------------------------------------------------------------------------
# lct


def test_lct_spot_values():
    assert lct_monomial(XY) == 2
    assert lct_monomial(MonomialIdeal(2, [(2, 0), (0, 3)])) == F(5, 6)
    assert lct_monomial(MonomialIdeal.principal((1,))) == 1


def test_lct_of_unit_ideal_is_an_error():
    with pytest.raises(InputError):
        lct_monomial(MonomialIdeal.unit(2))


def test_lct_is_the_triviality_threshold():
    rng = random.Random("lct-bound")
    for _ in range(12):
        n = rng.randint(1, 3)
        while True:
            a = MonomialIdeal(
                n,
                [
                    tuple(rng.randint(0, 3) for _ in range(n))
                    for _ in range(rng.randint(1, 3))
                ],
            )
            if not a.is_unit():
                break
        c = lct_monomial(a)
        assert multiplier_ideal([(a, c - F(1, 12))]).is_unit()
        assert not multiplier_ideal([(a, c + F(1, 12))]).is_unit()


# ---------------------------------------------------------------------------
# the summation formula


def test_summation_maximal_ideal_square():
    result = summation_check(
        MonomialIdeal.unit(2), 0, [MonomialIdeal.principal((1, 0)),
                                   MonomialIdeal.principal((0, 1))], 2
    )
    assert result.equal
    assert result.lhs == XY
    assert result.rhs == XY
    # integer splittings alone give I(x^2) + I(xy) + I(y^2) = (x,y)^2,
    # strictly smaller than (x,y); half-integer splittings such as
    # (3/2, 1/2) are needed, so stabilization happens at D = 2
    assert result.witness_denominator == 2


def test_summation_zero_exponent():
    result = summation_check(
        MonomialIdeal.unit(2), 0, [XY, XY], 0
    )
    assert result.equal
    assert result.lhs.is_unit() and result.rhs.is_unit()


def test_summation_with_principal_prefactor():
    result = summation_check(
        MonomialIdeal.principal((1, 0)),
        1,
        [MonomialIdeal.principal((1, 0)), MonomialIdeal.principal((0, 2))],
        1,
    )
    assert result.equal


def test_summation_does_not_stop_on_a_stalled_refinement():
    # D = 1 and D = 2 both give (x, y); the split (1/4, 3/4) at D = 4
    # reaches the unit ideal, which is J(x^(1/2) (x, y))
    result = summation_check(
        MonomialIdeal.principal((1, 0)),
        F(1, 2),
        [MonomialIdeal.principal((1, 0)), MonomialIdeal.principal((0, 1))],
        1,
    )
    assert result.equal
    assert result.lhs.is_unit()
    assert result.witness_denominator == 4


def test_summation_inconclusive_is_distinct_from_false():
    with pytest.raises(InconclusiveError):
        summation_check(MonomialIdeal.unit(2), 0, [XY, XY], 1, denom_bound=1)


def test_summation_input_contracts():
    with pytest.raises(InputError):
        summation_check(MonomialIdeal.unit(2), 0, [], 1)
    with pytest.raises(InputError):
        summation_check(MonomialIdeal.unit(3), 0, [XY], 1)


# ---------------------------------------------------------------------------
# the law corpus


def test_law_checks_pass_on_seeded_corpus():
    report = law_checks(seed=42, count=20)
    assert set(report) == {"divisor_factoring", "monotonicity", "block_product"}
    for outcome in report.values():
        assert outcome["pass"], outcome["counterexamples"]


def test_divisor_factoring_hand_instance():
    # I(x * (x,y)^2) = x * I((x,y)^2) = x * (x,y)
    x = MonomialIdeal.principal((1, 0))
    lhs = multiplier_ideal([(x, F(1)), (XY, F(2))])
    assert lhs == x * XY


def test_monotonicity_hand_instance():
    inner = multiplier_ideal([(MonomialIdeal(2, [(2, 0), (0, 2)]), F(2))])
    outer = multiplier_ideal([(XY, F(2))])
    assert inner.issubset(outer)
