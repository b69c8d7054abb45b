"""Monomial multiplier ideals: polyhedra, laws, summation formula."""

import math
import random
from fractions import Fraction
from itertools import product

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
from kstab.errors import InconclusiveError
from kstab.monomials import _multiplier_cache, hull_inequalities, ideal_from_json

F = Fraction

XY = MonomialIdeal(2, [(1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# the ideal type


def test_generators_are_minimalized():
    a = MonomialIdeal(2, [(1, 0), (2, 0), (1, 1), (0, 2)])
    assert a.generators == frozenset({(1, 0), (0, 2)})


def test_unit_and_membership():
    unit = MonomialIdeal.unit(3)
    assert unit.is_unit()
    assert unit.contains_vector((0, 0, 0))
    assert not XY.contains_vector((0, 0))
    assert XY.contains_vector((0, 5))


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
    weighted = [[(c * scale, g) for g in a.generators] for a, c in factors]
    points = [
        tuple(int(sum(w * g[j] for w, g in combo)) for j in range(n))
        for combo in product(*weighted)
    ]
    facets = [(a, F(b, scale)) for a, b in hull_inequalities(points, n)]
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


def test_staircase_matches_box_scan():
    rng = random.Random("staircase")
    max_exp = {1: 6, 2: 4, 3: 3, 4: 2}
    for i in range(300):
        n = 1 + i % 4
        factors = []
        for _ in range(rng.randint(1, 3)):
            gens = [
                tuple(rng.randint(0, max_exp[n]) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            ]
            q = rng.randint(1, 6)
            factors.append((MonomialIdeal(n, gens), F(rng.randint(0, 2 * q), q)))
        assert multiplier_ideal(factors) == box_scan(factors), factors


def test_multiplier_cache_ignores_factor_order():
    a = MonomialIdeal(2, [(2, 0), (0, 1)])
    b = MonomialIdeal(2, [(1, 0), (0, 2)])
    before = len(_multiplier_cache)
    first = multiplier_ideal([(a, F(1)), (b, F(1))])
    second = multiplier_ideal([(b, F(1)), (a, F(1))])
    assert len(_multiplier_cache) - before == 1
    assert second is first


def test_multiplier_output_is_upward_closed():
    rng = random.Random("closed")
    for _ in range(10):
        a = MonomialIdeal(
            2, [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(2)]
        )
        ideal = multiplier_ideal([(a, F(rng.randint(1, 5), 2))])
        for g in ideal.generators:
            assert ideal.contains_vector((g[0] + 1, g[1]))
            assert ideal.contains_vector((g[0], g[1] + 1))


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
