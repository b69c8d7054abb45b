"""Monomial multiplier ideals: polyhedra, laws, summation formula."""

import json
import math
import pathlib
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
from kstab import monomials, verification
from kstab.errors import InconclusiveError
from kstab.monomials import (
    WeightedIdealProduct,
    _support_normals,
    hull_inequalities,
    ideal_from_json,
    summation_from_json,
)

F = Fraction

XY = MonomialIdeal(2, [(1, 0), (0, 1)])


def contains(ideal, v):
    return any(all(a >= b for a, b in zip(v, g)) for g in ideal.generators)


def assert_canonical(ideal):
    """generators is the sorted tuple of the minimal exponent vectors."""
    gens = ideal.generators
    assert type(gens) is tuple and list(gens) == sorted(set(gens)), gens
    assert not any(
        g != h and all(a <= b for a, b in zip(g, h)) for g in gens for h in gens
    ), gens


# ---------------------------------------------------------------------------
# the ideal type


def test_generators_are_minimalized():
    a = MonomialIdeal(2, [(1, 0), (2, 0), (1, 1), (0, 2)])
    assert a.generators == ((0, 2), (1, 0))
    rng = random.Random("canonical")
    for i in range(200):
        n = 1 + i % 4
        (b, c), (d, _) = random_product(rng, n)[0], random_product(rng, n)[0]
        for ideal in (b, b + d, b * d, multiplier_ideal([(b, c), (d, F(1, 2))])):
            assert_canonical(ideal)
            assert_canonical(ideal_from_json(ideal.to_json()))


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


def test_generator_cap_bounds_an_ideal_document(monkeypatch):
    # the 1,024 generators (i, 1023 - i) are read; one more listed
    # generator, even a dominated one, is refused before the ideal is built
    assert monomials.MAX_GENERATORS == 1_024
    gens = [[i, 1023 - i] for i in range(1024)]
    assert len(ideal_from_json({"n": 2, "generators": gens}).generators) == 1024

    def no_ideal(*args):
        raise AssertionError("ideal built past the generator cap")

    monkeypatch.setattr(monomials, "MonomialIdeal", no_ideal)
    with pytest.raises(SizeError) as info:
        ideal_from_json({"n": 2, "generators": gens + [[1024, 0]]})
    assert str(info.value) == "ideal documents capped at 1024 generators (got 1025)"


TYPED_ERRORS = {
    "sum-of-two-arities": (
        lambda: XY + MonomialIdeal.unit(3), InputError, "arity mismatch"
    ),
    "product-of-two-arities": (
        lambda: XY * MonomialIdeal.unit(3), InputError, "arity mismatch"
    ),
    "negative-exponent": (
        lambda: WeightedIdealProduct([(XY, -1)]), InputError, "exponents must be >= 0"
    ),
    "factors-of-two-arities": (
        lambda: WeightedIdealProduct([(XY, 1), (MonomialIdeal.unit(3), 1)]),
        InputError,
        "all factors must share one arity",
    ),
    "arity-of-an-empty-product": (
        lambda: WeightedIdealProduct([]).arity, InputError, "empty product has no arity"
    ),
    "hull-of-no-points": (
        lambda: hull_inequalities([], 2), InputError, "hull needs at least one point"
    ),
    "multiplier-of-no-factors": (
        lambda: multiplier_ideal([]), InputError, "product needs at least one factor"
    ),
    "multiplier-past-the-arity-cap": (
        lambda: multiplier_ideal([(MonomialIdeal.principal((1,) * 5), 1)]),
        SizeError,
        "multiplier ideals capped at arity 4",
    ),
}


@pytest.mark.parametrize("case", sorted(TYPED_ERRORS))
def test_typed_errors_name_what_they_refuse(case):
    call, error, message = TYPED_ERRORS[case]
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


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


def degree_monomials(n, d):
    return [g for g in product(range(d + 1), repeat=n) if sum(g) == d]


def test_degree_six_monomials_in_four_variables():
    # the 84 monomials of degree 6 in 4 variables, whose hull the candidate
    # enumeration refused (C(84, 4) normals on the full free set): the
    # Newton polyhedron is the simplex x_1 + .. + x_4 >= 6, lct is 4/6,
    # and J(m^6) = m^3 (Howald)
    ideal = MonomialIdeal(4, degree_monomials(4, 6))
    assert newton_polyhedron(ideal).inequalities == coordinate_bounds(4) + (
        ((1, 1, 1, 1), 6),
    )
    assert lct_monomial(ideal) == F(2, 3)
    cube = multiplier_ideal([(ideal, 1)])
    assert cube == MonomialIdeal(4, degree_monomials(4, 3))
    assert len(cube.generators) == 20
    # a principal factor translates the sum: x_1 m^3 at weight 1
    x = MonomialIdeal.principal((1, 0, 0, 0))
    assert multiplier_ideal([(ideal, 1), (x, 1)]) == cube * x


def test_hull_ray_cap(monkeypatch):
    # rays (a, -b) start from (0, 2) as (0, 0, 1), (1, 0, 0), (0, 1, -2);
    # inserting (1, 1) keeps 4: (0, 0, 1), (1, 0, 0), (0, 1, -1), (1, 1, -2);
    # inserting (2, 0) keeps 4: (0, 1, 0) takes the place of (0, 1, -1).
    # At a cap of 4 the hull answers; at 3 the first step is refused.
    points = [(0, 2), (1, 1), (2, 0)]
    monkeypatch.setattr(monomials, "MAX_HULL_RAYS", 4)
    assert hull_inequalities(points, 2) == (((1, 1), 2),)
    monkeypatch.setattr(monomials, "MAX_HULL_RAYS", 3)
    with pytest.raises(SizeError) as info:
        hull_inequalities(points, 2)
    assert str(info.value) == "hull capped at 3 rays (a step kept 4)"


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
        gens = a.generators
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


def hull_part_of_reference(points, n):
    """reference_hull's facets whose normals have two or more nonzero
    entries, the ones hull_inequalities lists.  The rest are checked
    here: they are exactly (e_i, min_p p_i) for each positive minimum."""
    reference = reference_hull(points, n)
    hull = tuple(f for f in reference if f[0].count(0) < n - 1)
    coordinate = {
        (tuple(int(j == i) for j in range(n)), m)
        for i, m in enumerate(map(min, zip(*points)))
        if m > 0
    }
    assert set(reference) - set(hull) == coordinate, points
    return hull


def test_projected_kernel_matches_full_search():
    rng = random.Random("projected-kernel")
    for i in range(600):
        n = 1 + i % 4
        points = [
            tuple(rng.randint(0, 6) for _ in range(n))
            for _ in range(rng.randint(1, 8))
        ]
        assert hull_inequalities(points, n) == hull_part_of_reference(points, n), points


def diagonal_sum(rng, n):
    """A Minkowski sum of one or two diag-type sets, translated or not, cut
    to at most 10 points.  A diag-type set is the points t * a_i * e_i and
    up to two points inside their box, so the sum has points on the axes
    and points tight on one facet together, and dominated ones."""
    points = [tuple(rng.randint(0, 2) for _ in range(n))]
    for _ in range(rng.randint(1, 2)):
        t, a = rng.randint(1, 3), [rng.randint(1, 4) for _ in range(n)]
        part = [tuple(t * a[j] * (j == i) for j in range(n)) for i in range(n)]
        part += [
            tuple(rng.randint(0, t * x) for x in a) for _ in range(rng.randint(0, 2))
        ]
        points = [tuple(map(sum, zip(p, q))) for p in points for q in part]
    rng.shuffle(points)
    return points[:10]


def test_hull_matches_full_search_on_diagonal_sums():
    rng = random.Random("diagonal-sums")
    for i in range(300):
        n = 2 + i % 3
        points = diagonal_sum(rng, n)
        assert hull_inequalities(points, n) == hull_part_of_reference(points, n), points


def test_hull_of_points_on_the_axes():
    # the one facet past the coordinate ones is x/2 + y + z + w >= 1
    points = [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert hull_inequalities(points, 4) == (((1, 2, 2, 2), 2),)


def test_hull_alone_drops_the_dominated_sums(monkeypatch):
    # _support_normals minimalizes only the partial sums it extends and
    # hands the whole sum to the hull, where the dominated (3, 3) cuts no
    # ray: no _minimalize call takes a point set that an earlier one returned
    returned, again = [], []

    def spy(gens):
        gens = tuple(gens)
        if set(gens) in returned:
            again.append(gens)
        out = minimalize(gens)
        returned.append(set(out))
        return out

    factors = [
        (MonomialIdeal(2, [(3, 0), (1, 1), (0, 2)]), F(1)),
        (MonomialIdeal(2, [(2, 0), (0, 3)]), F(1, 2)),
    ]
    expected = box_scan(factors)
    minimalize = monomials._minimalize
    for name in ("_multiplier", "_support_normals", "_minima"):  # cold caches
        fresh = lru_cache(maxsize=None)(getattr(monomials, name).__wrapped__)
        monkeypatch.setattr(monomials, name, fresh)
    monkeypatch.setattr(monomials, "_minimalize", spy)
    assert multiplier_ideal(factors) == expected
    assert again == []


def coordinate_bounds(n):
    return tuple((tuple(int(j == i) for j in range(n)), 0) for i in range(n))


def test_newton_polyhedron_matches_full_search():
    # the n bounds, then every facet of positive offset in sorted order;
    # lct is the least sum(normal) / offset over those facets
    rng = random.Random("newton-full-search")
    ideals = [MonomialIdeal.unit(n) for n in range(1, 5)]
    for i in range(240):
        n = 1 + i % 4
        kind = i // 4 % 3
        if kind == 0:  # principal, some exponents 0
            gens = [tuple(rng.randint(0, 3) for _ in range(n))]
        elif kind == 1:  # on the coordinate axes, maybe with one more
            gens = [
                tuple(rng.randint(1, 6) * (j == k) for j in range(n))
                for k in rng.sample(range(n), rng.randint(1, n))
            ]
            gens += [tuple(rng.randint(0, 4) for _ in range(n))][: rng.randint(0, 1)]
        else:
            gens = [
                tuple(rng.randint(0, 6) for _ in range(n))
                for _ in range(rng.randint(1, 7))
            ]
        ideals.append(MonomialIdeal(n, gens))
    for a in ideals:
        n = a.arity
        reference = reference_hull(a.generators, n)
        assert newton_polyhedron(a).inequalities == coordinate_bounds(n) + reference, a
        if not a.is_unit():
            assert lct_monomial(a) == min(F(sum(c), b) for c, b in reference), a
    assert sum(len(a.generators) == 1 and not a.is_unit() for a in ideals) > 50


def test_newton_polyhedron_and_lct_read_the_multiplier_engine(monkeypatch):
    # after multiplier_ideal, the Newton polyhedron and lct of its ideal are
    # cache hits on the engine: no hull is enumerated and no miss is added
    a = MonomialIdeal(3, [(2, 0, 1), (0, 3, 0), (1, 1, 2)])
    multiplier_ideal([(a, F(5, 3))])
    caches = (monomials._support_normals, monomials._minima)
    before = [cache.cache_info() for cache in caches]

    def no_hull(points, n):
        raise AssertionError("hull enumerated again")

    monkeypatch.setattr(monomials, "hull_inequalities", no_hull)
    poly = newton_polyhedron(a)
    assert lct_monomial(a) == F(8, 9)  # (4, 3, 1) . x >= 9
    for cache, info in zip(caches, before):
        assert cache.cache_info().misses == info.misses
        assert cache.cache_info().hits == info.hits + 2
    monkeypatch.undo()
    assert poly.inequalities == coordinate_bounds(3) + reference_hull(a.generators, 3)
    # a principal ideal reads the supports (): one engine entry, which the
    # principal product's multiplier ideal then hits
    x = MonomialIdeal.principal((1, 0, 2))
    monomials._support_normals.cache_clear()
    assert newton_polyhedron(x).inequalities == coordinate_bounds(3) + (
        ((0, 0, 1), 2),
        ((1, 0, 0), 1),
    )
    assert monomials._support_normals.cache_info().currsize == 1
    multiplier_ideal([(x, F(1, 2))])
    assert monomials._support_normals.cache_info().misses == 1


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


# Products whose sweep meets each way a line can start or end.  A line
# fixes every prefix entry but the last, x; by the box-safety argument
# its first admitted entry lo is at most the box's top unless a flat
# facet with a_x = 0 fails on the whole line.
EDGE_PRODUCTS = {
    # arity 1: no prefix entries, one generator (floor(15/2 + 2/3),)
    "arity-1": [(MonomialIdeal(1, [(3,)]), F(5, 2)), (MonomialIdeal(1, [(2,)]), F(1, 3))],
    # J(y^4 (x, y)^2) = y^4 (x, y): h falls from 5 to 4 at x = 1, where
    # the facet y >= 4 (a_x = 0) holds it to the end of the line
    "held-line": [(MonomialIdeal.principal((0, 3)), F(4, 3)), (XY, F(2))],
    "held-lines-3": [
        (MonomialIdeal.principal((0, 0, 2)), F(3, 2)),
        (MonomialIdeal(3, [(2, 0, 1), (0, 3, 0)]), F(5, 3)),
    ],
    # every generator has v_1 >= 1; the facet v_1 >= 1 has a_x = 0 on
    # the lines, which run along v_2, and rules out those with v_1 = 0
    "no-prefix-admitted-3": [
        (MonomialIdeal(3, [(1, 0, 2), (2, 1, 0)]), F(3, 2)),
        (MonomialIdeal(3, [(0, 1, 1), (0, 0, 3)]), F(1, 2)),
    ],
    # lines ruled out next to lines held at h > 0, read by the
    # minimality check across them
    "no-prefix-admitted-4": [
        (MonomialIdeal.principal((1, 0, 1, 3)), F(2)),
        (MonomialIdeal(4, [(0, 2, 0, 1), (1, 1, 2, 0)]), F(3, 2)),
    ],
}


def test_staircase_matches_box_scan():
    rng = random.Random("staircase")
    products = [random_product(rng, 1 + i % 4) for i in range(300)]
    for factors in list(EDGE_PRODUCTS.values()) + products:
        got = multiplier_ideal(factors)
        assert got == box_scan(factors), factors
        assert_canonical(got)
        # the sweep's members are kept as they come, never minimalized
        assert got.generators == monomials._minimalize(got.generators), factors


def test_scan_cap_bounds_the_box():
    # (x^a, y)^2 has corner 2a + 1 on x, so a = 24,999 gives exactly
    # MAX_SCAN_PREFIXES prefixes, and J((x^a, y)^2) = (x^a, y); one more
    # factor x moves the corner by one
    assert monomials.MAX_SCAN_PREFIXES == 50_000
    ideal = MonomialIdeal(2, [(24_999, 0), (0, 1)])
    assert multiplier_ideal([(ideal, F(2))]) == ideal
    x = MonomialIdeal.principal((1, 0))
    with pytest.raises(SizeError) as info:
        multiplier_ideal([(ideal, F(2)), (x, F(1))])
    assert str(info.value) == (
        "multiplier-ideal scan capped at 50000 prefixes (this product needs 50001)"
    )


def test_scan_cap_message_past_printable_counts():
    # 10**5000 + 2 prefixes: past Python's 4,300-digit int-to-string
    # limit, so the message gives the count's length, not the count
    huge = MonomialIdeal(2, [(10**5000, 0), (0, 1)])
    with pytest.raises(SizeError) as info:
        multiplier_ideal([(huge, F(1))])
    assert str(info.value) == (
        "multiplier-ideal scan capped at 50000 prefixes "
        "(this product needs a count of more than 100 digits)"
    )


def test_height_cap_bounds_the_box():
    # J(x^m) = (x^m) has box height m + 1, as has J(x y^m) = (x y^m) on
    # its last side: m = 10**100 - 2 is the largest under the cap
    assert monomials.MAX_HEIGHT_DIGITS == 100
    m = 10**100 - 2
    for gen in [(m,), (1, m)]:
        ideal = MonomialIdeal.principal(gen)
        assert multiplier_ideal([(ideal, F(1))]) == ideal
        with pytest.raises(SizeError) as info:
            multiplier_ideal([(MonomialIdeal.principal(gen[:-1] + (m + 1,)), F(1))])
        assert str(info.value) == "multiplier-ideal box height capped at 100 digits"


def test_support_normals_give_every_weighted_facet():
    # the normals of the non-principal supports, with offsets from the
    # support function over every factor, are exactly the facets of the
    # weighted-point hull where the offset is positive, and coordinate
    # normals where it is 0
    rng = random.Random("support-normals")
    zero_weights = principal = 0
    for i in range(300):
        n = 1 + i % 4
        factors = random_product(rng, n)
        live = [(a, c) for a, c in factors if c]
        zero_weights += len(live) < len(factors)
        if not live:
            continue
        scale = math.lcm(*(c.denominator for _, c in live))
        supports = tuple(
            sorted({a.generators for a, _ in live if len(a.generators) > 1})
        )
        principal += len(supports) < len(live)
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
        assert sorted(f for f in support if f[1] > 0) == list(expected), factors
        assert all(
            sorted(normal) == [0] * (n - 1) + [1] for normal, b in support if b == 0
        ), factors
    assert zero_weights > 0 and principal > 0


def test_principal_factors_share_the_support_normals():
    # a principal factor, the unit ideal among them, translates the sum:
    # every product of one non-principal ideal with principal factors
    # takes its normals from one cache entry
    monomials._multiplier.cache_clear()
    monomials._support_normals.cache_clear()
    a = MonomialIdeal(3, [(2, 0, 1), (0, 3, 0), (1, 1, 2)])
    principals = [
        (MonomialIdeal.unit(3), F(3)),
        (MonomialIdeal.principal((1, 0, 2)), F(3, 2)),
        (MonomialIdeal.principal((0, 2, 0)), F(1, 3)),
        (MonomialIdeal.principal((4, 1, 1)), F(2)),
    ]
    products = [[(a, F(5, 3))]] + [[(a, F(5, 3)), p] for p in principals]
    products.append([(a, F(1, 2))] + principals[1:3])
    for factors in products:
        assert multiplier_ideal(factors) == box_scan(factors), factors
    assert monomials._support_normals.cache_info().currsize == 1


def test_multiplier_cache_ignores_factor_order():
    monomials._multiplier.cache_clear()
    a = MonomialIdeal(2, [(2, 0), (0, 1)])
    b = MonomialIdeal(2, [(1, 0), (0, 2)])
    first = multiplier_ideal([(a, F(1)), (b, F(1))])
    second = multiplier_ideal([(b, F(1)), (a, F(1))])
    assert monomials._multiplier.cache_info().currsize == 1
    assert second is first


def test_repeated_ideal_at_two_weights_ignores_factor_order():
    # the key's two factors tie on their generators; (1, 2) sorts before
    # (1, 3) as a numerator-denominator pair, 1/3 before 1/2 as a Fraction
    monomials._multiplier.cache_clear()
    a = MonomialIdeal(2, [(3, 0), (1, 1), (0, 2)])
    first = multiplier_ideal([(a, F(1, 2)), (a, F(1, 3))])
    second = multiplier_ideal([(a, F(1, 3)), (a, F(1, 2))])
    assert monomials._multiplier.cache_info().currsize == 1
    assert second is first
    # c * P + c' * P = (c + c') * P
    assert first == multiplier_ideal([(a, F(5, 6))])
    assert first == box_scan([(a, F(1, 2)), (a, F(1, 3))])


def test_caches_stay_within_their_bound(monkeypatch):
    # the module's caches, rebuilt with a bound of 5 around the same functions
    for name in ("_multiplier", "_support_normals", "_minima"):
        cached = getattr(monomials, name)
        assert cached.cache_info().maxsize == monomials.CACHE_BOUND
        monkeypatch.setattr(monomials, name, lru_cache(maxsize=5)(cached.__wrapped__))
    results = []
    for e in range(1, 13):  # twelve products on twelve support sets
        results.append(multiplier_ideal([(MonomialIdeal(2, [(e, 0), (0, 1)]), F(1))]))
        assert monomials._multiplier.cache_info().currsize <= 5
        assert monomials._support_normals.cache_info().currsize <= 5
        assert monomials._minima.cache_info().currsize <= 5
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

SUMMATION_DATA = pathlib.Path(__file__).parent / "data" / "summation"


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


def reference_summation(a0, c0, parts, c, denom_bound=24):
    """(equal, witness_denominator, lhs, rhs) of summation_check, with
    every splitting at every D swept through multiplier_ideal; None
    where the sweep reaches denom_bound.  It accepts only once RHS(2D)
    confirms RHS(D) = LHS, so where it answers it also shows that
    accepting at the first equal refinement changes no answer."""
    arity = a0.arity
    total = MonomialIdeal(arity, [g for p in parts for g in p.generators])
    lhs = multiplier_ideal([(a0, c0), (total, c)])
    D, prev, prev_D = c.denominator, None, None
    while D <= denom_bound:
        units = c.numerator * D // c.denominator
        gens = []
        for split in product(range(units + 1), repeat=len(parts)):
            if sum(split) == units:
                factors = [(a0, c0)] + [(p, F(m, D)) for p, m in zip(parts, split)]
                gens.extend(multiplier_ideal(factors).generators)
        cur = MonomialIdeal(arity, gens)
        if not cur.issubset(lhs):
            return False, D, lhs, cur
        if cur == prev == lhs:
            return True, prev_D, lhs, cur
        prev, prev_D = cur, D
        D *= 2
    return None


def spy_on_the_engine_entry(monkeypatch):
    """The list the engine key of every _product_multiplier call goes to:
    its sorted (generators, numerator, denominator) factors.  The LHS,
    through multiplier_ideal, and every splitting enter the engine there."""
    calls, real = [], monomials._product_multiplier

    def spy(factors, n):
        calls.append(sorted(factors))
        return real(factors, n)

    monkeypatch.setattr(monomials, "_product_multiplier", spy)
    return calls


def test_summation_matches_the_reference_sweep(monkeypatch):
    # against the reference, which confirms each answer at 2D, on the
    # verify corpus, on the hand case that stalls at D = 1 and 2, and on
    # one-part, c0 = 0, c = 0 and principal-part cases.  Every RHS(D)
    # lies in the LHS, so RHS(D) = LHS is proven equality and the sweep
    # stops there: no part weight, nor the LHS's c on the sum, has a
    # denominator beyond the witness, and an instance equal at its first
    # D sweeps nothing at 2D.  a0's weight, when positive, is in every key
    calls = spy_on_the_engine_entry(monkeypatch)
    x, y = MonomialIdeal.principal((1, 0)), MonomialIdeal.principal((0, 1))
    z3 = MonomialIdeal.principal((0, 0, 1))
    instances = verification._random_summation_instances(7, 40)
    instances += [
        (x, F(1, 2), [x, y], F(1)),
        (x, F(1, 2), [MonomialIdeal(2, [(2, 0), (0, 3)])], F(3, 2)),  # one part
        (XY, F(0), [MonomialIdeal(2, [(3, 0), (1, 1)]), y], F(3, 2)),  # c0 = 0
        (XY, F(0), [XY, x], F(0)),  # no factor of positive weight: the unit
        (z3, F(1), [MonomialIdeal.principal(e) for e in [(2, 0, 0), (0, 3, 0),
                                                         (1, 1, 1)]], F(1)),
    ]
    witnesses, first = set(), 0
    for a0, c0, parts, c in instances:
        calls.clear()
        result = summation_check(a0, c0, parts, c)
        D = result.witness_denominator
        assert calls
        for key in calls:
            if c0:
                key.remove((a0.generators, c0.numerator, c0.denominator))
            assert all(D % den == 0 for _, _, den in key), (a0, c0, parts, c)
        got = (result.equal, D, result.lhs, result.rhs)
        assert got == reference_summation(a0, c0, parts, c), (a0, c0, parts, c)
        witnesses.add(D)
        first += D == c.denominator
    assert {1, 2, 4} <= witnesses and first > 20


def test_summation_computes_each_distinct_product_once(monkeypatch):
    # a splitting at 2D whose entries are all even is the product of one
    # at D, weights in lowest terms, so over the C09 corpus every product
    # summation_check asks for more than once is a _multiplier cache hit
    products = spy_on_the_engine_entry(monkeypatch)
    monomials._multiplier.cache_clear()
    for a0, c0, parts, c in verification._random_summation_instances(42, 25):
        summation_check(a0, c0, parts, c)
    products = [tuple(key) for key in products]
    assert len(products) > len(set(products))
    assert monomials._multiplier.cache_info().misses == len(set(products))


def test_summation_stops_at_its_first_equal_refinement(monkeypatch):
    # unit = J((x, y)^1) = J((x, y)^1 (x, y)^0) at D = 1, which has 2
    # splittings of c = 1 between two parts; nothing of D = 2 is read,
    # neither its 3 splittings against MAX_SPLITS nor denom_bound
    unit = MonomialIdeal.unit(2)
    calls = spy_on_the_engine_entry(monkeypatch)
    monkeypatch.setattr(monomials, "MAX_SPLITS", 2)
    for bound in (1, 24):
        calls.clear()
        result = summation_check(unit, 0, [XY, XY], 1, denom_bound=bound)
        assert (result.equal, result.witness_denominator) == (True, 1)
        assert result.lhs == result.rhs == unit
        # the LHS, (x, y)^1 on the sum, then D = 1 only: (0, 1) and (1, 0)
        # each put weight 1 on one copy of (x, y)
        assert calls == [[(XY.generators, 1, 1)]] * 3
    monkeypatch.setattr(monomials, "MAX_SPLITS", 1)
    with pytest.raises(SizeError) as info:
        summation_check(unit, 0, [XY, XY], 1)
    assert str(info.value) == "more than 1 splittings at denominator 1"


def test_summation_rebuilds_no_ideal_it_already_has(monkeypatch):
    # the engine emits a multiplier ideal's minimal generators sorted, so
    # a lone splitting's ideal is RHS(D) as it stands: _minimalize never
    # sees its generators.  RHS(D), the parts' sum and the sum that tests
    # RHS(D) in the LHS are built from valid ideals, so with two or three
    # parts no MonomialIdeal.__init__ checks their generators again
    x = MonomialIdeal.principal((1, 0))
    part = MonomialIdeal(2, [(4, 0), (1, 2), (0, 5)])
    seen, minimalize = [], monomials._minimalize

    def spy(gens):
        gens = list(gens)
        seen.append(set(gens))
        return minimalize(gens)

    monkeypatch.setattr(monomials, "_minimalize", spy)
    result = summation_check(x, F(1, 2), [part], F(5, 2))
    assert (result.equal, result.witness_denominator) == (True, 2)
    assert len(result.rhs.generators) == 8  # J(x^(1/2) part^(5/2))
    assert seen and set(result.rhs.generators) not in seen
    monkeypatch.undo()

    z3 = MonomialIdeal.principal((0, 0, 1))
    instances = [
        (x, F(1, 2), [x, MonomialIdeal.principal((0, 1))], F(1)),  # witness 4
        (XY, F(0), [MonomialIdeal(2, [(3, 0), (1, 1)]), x], F(3, 2)),
        (z3, F(1), [MonomialIdeal(3, [(2, 0, 0), (0, 1, 1)]), z3,
                    MonomialIdeal.principal((0, 3, 0))], F(1)),
    ]
    answers = [summation_check(*instance) for instance in instances]
    assert {r.witness_denominator for r in answers} == {1, 2, 4}

    def no_init(self, *args):
        raise AssertionError("MonomialIdeal.__init__ checked valid generators again")

    monomials._multiplier.cache_clear()
    monkeypatch.setattr(MonomialIdeal, "__init__", no_init)
    assert [summation_check(*instance) for instance in instances] == answers


def test_summation_answers_the_same_under_every_bound_past_its_witness():
    # each checked-in instance that answers gives its answer under every
    # denom_bound from its witness to 24, and none under a smaller one
    expected = json.loads((SUMMATION_DATA / "expected.json").read_text())
    witnesses = set()
    for name in sorted(expected):
        if expected[name]["json"]["exit"]:
            continue
        args = summation_from_json(json.loads((SUMMATION_DATA / name).read_text()))
        args.pop("denom_bound", None)
        answer = json.loads(expected[name]["json"]["stdout"])
        witness = answer["witness_denominator"]
        witnesses.add(witness)
        for bound in range(witness, 25):
            result = summation_check(**args, denom_bound=bound)
            assert (result.equal, result.witness_denominator) == (
                answer["equal"], witness
            ), (name, bound)
        for bound in range(1, witness):
            with pytest.raises(InconclusiveError):
                summation_check(**args, denom_bound=bound)
    assert witnesses == {1, 2, 4}


# An exact oracle for the summation formula over all real splittings
# lambda >= 0, sum lambda_i = c.  By Howald, x^v is in
# J(a0^c0 prod a_i^lambda_i) iff v + 1 is interior to
# P_lambda = c0 P(a0) + sum lambda_i P(a_i): <a, v + 1> > h_lambda(a) =
# c0 h_0(a) + sum lambda_i h_i(a) for every facet normal a of P_lambda,
# where h_i(a) = min_{g in a_i} <a, g>.  Each summand's normal fan is
# refined by that of the sum, so every facet normal of P_lambda, with
# some lambda_i = 0 too, is one of the unit-weight sum of all the
# ideals, and any a >= 0 gives a valid inequality.  So x^v is in the
# real-splitting RHS iff a strict linear system in lambda is feasible,
# which Fourier-Motzkin elimination decides over Fractions (Schrijver,
# Theory of Linear and Integer Programming, 12.2).  The oracle shares
# only the theorem with production: no grid, no multiplier_ideal, and
# the normals come from reference_hull.


def fourier_motzkin(rows, k):
    """Whether some x in R^k meets every row (coeffs, bound, strict),
    read <coeffs, x> < bound if strict, else <= bound.

    Each step drops the last variable: a row where its coefficient is
    positive, scaled to 1, plus one where it is negative, scaled to -1,
    gives a row without it, strict when either is; with the rows that
    lack it, these cut out the projection exactly.  Rows are scaled so
    that their largest coefficient is 1 in size, and of rows with the
    same coefficients only the tightest is kept.
    """
    while True:
        tightest = {}
        for coeffs, bound, strict in rows:
            top = max(map(abs, coeffs), default=0)
            if not top:
                if bound < 0 or (strict and bound == 0):
                    return False
                continue
            coeffs, bound = tuple(x / top for x in coeffs), bound / top
            old = tightest.get(coeffs)
            if old is None or (bound, not strict) < (old[0], not old[1]):
                tightest[coeffs] = (bound, strict)
        if not k:
            return True
        k -= 1
        rows = [(p[:k], bp, sp) for p, (bp, sp) in tightest.items() if not p[k]]
        pos = [(p, bp, sp) for p, (bp, sp) in tightest.items() if p[k] > 0]
        neg = [(q, bq, sq) for q, (bq, sq) in tightest.items() if q[k] < 0]
        rows += [
            (
                tuple(x / p[k] - y / q[k] for x, y in zip(p[:k], q)),
                bp / p[k] - bq / q[k],
                sp or sq,
            )
            for p, bp, sp in pos
            for q, bq, sq in neg
        ]


class RealSplittingRHS:
    """The sum over all real splittings of c among the parts, by
    membership: x^v in rhs iff the system in lambda_1..lambda_{l-1}
    (lambda_l = c - the others) is feasible."""

    def __init__(self, a0, c0, parts, c):
        n = a0.arity
        ideals = [a0, *parts]
        points = [
            tuple(map(sum, zip(*combo)))
            for combo in product(*(a.generators for a in ideals))
        ]
        normals = {a for a, _ in reference_hull(points, n)}
        normals |= {tuple(int(j == i) for j in range(n)) for i in range(n)}

        def h(ideal, a):
            return min(sum(x * y for x, y in zip(a, g)) for g in ideal.generators)

        *rest, last = parts
        # a, then c0 h_0(a) + c h_l(a) and h_i(a) - h_l(a) for i < l
        self.facets = [
            (a, F(c0) * h(a0, a) + F(c) * h(last, a),
             tuple(F(h(p, a) - h(last, a)) for p in rest))
            for a in sorted(normals)
        ]
        k = self.k = len(rest)
        # lambda_i >= 0 for i < l, and lambda_l >= 0: their sum <= c
        self.simplex = [
            (tuple(F(-int(j == i)) for j in range(k)), F(0), False) for i in range(k)
        ] + [((F(1),) * k, F(c), False)]

    def __contains__(self, v):
        rows = [
            (diffs, sum(x * (y + 1) for x, y in zip(a, v)) - fixed, True)
            for a, fixed, diffs in self.facets
        ]
        return fourier_motzkin(rows + self.simplex, self.k)


def test_fourier_motzkin_tracks_strict_rows():
    one, zero = F(1), F(0)
    # x <= 1 and x >= 1 meet at x = 1; x < 1 and x >= 1 do not
    assert fourier_motzkin([((one,), one, False), ((-one,), -one, False)], 1)
    assert not fourier_motzkin([((one,), one, True), ((-one,), -one, False)], 1)
    # x, y > 0 with x + y < 1 is open but not empty; x + y <= 0 empties it
    rows = [((-one, zero), zero, True), ((zero, -one), zero, True)]
    assert fourier_motzkin(rows + [((one, one), one, True)], 2)
    assert not fourier_motzkin(rows + [((one, one), zero, False)], 2)


def test_real_splitting_rhs_of_one_part_is_its_multiplier_ideal():
    # one part takes all of c: the oracle is J(a0^c0 a1^c), point by point
    rng = random.Random("one-part-oracle")
    for i in range(40):
        n = 1 + i % 3
        (a0, c0), (a1, c) = random_product(rng, n)[0], random_product(rng, n)[0]
        rhs = RealSplittingRHS(a0, c0, [a1], c)
        ideal = multiplier_ideal([(a0, c0), (a1, c)])
        for v in product(range(6), repeat=n):
            assert (v in rhs) == contains(ideal, v), (a0, c0, a1, c, v)


def seeded_summation_instances(rng, count):
    """Arity 1-4 over 1-4 parts, sized so that reference_hull stays small:
    at most 3 generators an ideal (2 in arity 4), exponents as in
    random_product."""
    out = []
    for i in range(count):
        n = 1 + i % 4
        top, most = {1: 6, 2: 4, 3: 3, 4: 2}[n], 3 if n < 4 else 2

        def ideal():
            return MonomialIdeal(n, [
                tuple(rng.randint(0, top) for _ in range(n))
                for _ in range(rng.randint(1, most))
            ])

        a0 = ideal() if rng.random() < 0.5 else MonomialIdeal.unit(n)
        parts = [ideal() for _ in range(rng.randint(1, 4))]
        c0 = F(rng.randint(0, 2), rng.randint(1, 2))
        out.append((a0, c0, parts, rng.choice([F(1, 2), F(1), F(3, 2), F(2)])))
    return out


def test_summation_answers_agree_with_the_real_splitting_rhs():
    # the formula's RHS over all real splittings equals the LHS, so the
    # grid RHS and each equal LHS lie in it, and a monomial one step
    # below an LHS generator, outside the LHS, lies outside it
    instances = verification._random_summation_instances(7, 40)
    instances += seeded_summation_instances(random.Random("real-splittings"), 200)
    # past_hull_cap.json is left out: the oracle's full-search normals on
    # its 84 points would take C(84, 4) determinants.  Its answer, x_1 m^3,
    # is Howald's (test_degree_six_monomials_in_four_variables).
    expected = json.loads((SUMMATION_DATA / "expected.json").read_text())
    for name in sorted(expected):
        if expected[name]["json"]["exit"] == 0 and name != "past_hull_cap.json":
            doc = json.loads((SUMMATION_DATA / name).read_text())
            args = summation_from_json(doc)
            instances.append((args["a0"], args["c0"], args["parts"], args["c"]))
    answered = checks = 0
    for a0, c0, parts, c in instances:
        try:
            result = summation_check(a0, c0, parts, c)
        except (InconclusiveError, SizeError):
            continue
        answered += 1
        assert result.equal, (a0, c0, parts, c)
        rhs = RealSplittingRHS(a0, c0, parts, c)
        for g in result.rhs.generators + result.lhs.generators:
            checks += 1
            assert g in rhs, (a0, c0, parts, c, g)
        for g in result.lhs.generators:
            for j in range(len(g)):
                w = g[:j] + (g[j] - 1,) + g[j + 1:]
                if g[j] and not contains(result.lhs, w):
                    checks += 1
                    assert w not in rhs, (a0, c0, parts, c, w)
    assert answered > 230 and checks > 1500


def test_summed_parts_are_capped_before_their_sum_is_built(monkeypatch):
    # at the cap the check runs; one generator past it, the parts are
    # refused before MonomialIdeal builds their sum
    monkeypatch.setattr(monomials, "MAX_GENERATORS", 3)
    unit = MonomialIdeal.unit(2)
    parts = [XY, MonomialIdeal.principal((1, 1))]
    assert summation_check(unit, 0, parts, 1).equal
    parts.append(MonomialIdeal.principal((2, 0)))

    def no_ideal(*args):
        raise AssertionError("summed parts built past the generator cap")

    monkeypatch.setattr(monomials, "MonomialIdeal", no_ideal)
    with pytest.raises(SizeError) as info:
        summation_check(unit, 0, parts, 1)
    assert str(info.value) == "summed parts capped at 3 generators (got 4)"


def test_summation_reader_caps_the_listed_parts_before_building_any(monkeypatch):
    # the parts' listed generators are summed as an ideal document's
    # are counted, repeats included, before a0 or any part is built
    monkeypatch.setattr(monomials, "MAX_GENERATORS", 3)
    doc = {
        "a0": {"n": 2, "generators": [[0, 0]]},
        "parts": [{"n": 2, "generators": [[1, 0], [0, 1]]},
                  {"n": 2, "generators": [[1, 1]]}],
        "c": 1,
    }
    assert summation_check(**summation_from_json(doc)).equal
    doc["parts"][1]["generators"].append([1, 1])

    def no_ideal(*args):
        raise AssertionError("ideal built past the summed generator cap")

    monkeypatch.setattr(monomials, "MonomialIdeal", no_ideal)
    with pytest.raises(SizeError) as info:
        summation_from_json(doc)
    assert str(info.value) == "summed parts capped at 3 generators (got 4)"


def test_summation_inconclusive_is_distinct_from_false():
    # RHS(1) = RHS(2) = (x, y) lies strictly inside the unit LHS, which
    # RHS(4) reaches: up to 2 the sweep proves neither answer
    x, y = MonomialIdeal.principal((1, 0)), MonomialIdeal.principal((0, 1))
    with pytest.raises(InconclusiveError) as info:
        summation_check(x, F(1, 2), [x, y], 1, denom_bound=2)
    assert str(info.value) == (
        "splitting sum did not stabilize with denominators up to 2"
    )


def test_summation_input_contracts():
    with pytest.raises(InputError):
        summation_check(MonomialIdeal.unit(2), 0, [], 1)
    with pytest.raises(InputError):
        summation_check(MonomialIdeal.unit(3), 0, [XY], 1)


def test_compositions_are_stars_and_bars_in_lexicographic_order():
    # the order matters: the first split past the scan cap names its size
    def recursive(total, parts):
        if parts == 1:
            return [(total,)]
        return [
            (first,) + rest
            for first in range(total + 1)
            for rest in recursive(total - first, parts - 1)
        ]

    for total, parts in product(range(12), range(1, 6)):
        assert list(monomials._compositions(total, parts)) == recursive(total, parts)


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
