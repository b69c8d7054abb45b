"""Monomial ideals, Newton polyhedra, and monomial multiplier ideals.

Multiplier ideals of monomial data have a purely combinatorial
description: a monomial x^v belongs to the multiplier ideal of
a_1^{c_1}...a_l^{c_l} exactly when v + (1,..,1) lies in the interior
of the weighted Minkowski sum of the Newton polyhedra.  Scaled by
the lcm of the weight denominators, that test runs in integers, one
closed-form staircase step per prefix of a bounded box.  That makes
this module an exact, independent oracle for the multiplier-ideal
laws used elsewhere, including the summation formula over rational
exponent splittings.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import InconclusiveError, InputError, SizeError
from .rationals import rat, rat_str

MAX_ARITY = 4
MAX_SCAN_PREFIXES = 50_000  # box prefixes one multiplier_ideal call may scan


def _minimalize(gens):
    """Drop generators dominated componentwise by another generator.

    A generator h <= g precedes g lexicographically, so g is checked
    only against the generators kept before it, which all have
    h[0] <= g[0]; of those sharing a middle part h[1:-1], the one
    with the least last exponent decides.
    """
    least, out = {}, []  # least: middle part -> least last exponent kept
    for g in sorted(set(gens)):
        mid, last = g[1:-1], g[-1]
        if any(
            t <= last and all(a <= b for a, b in zip(m, mid))
            for m, t in least.items()
        ):
            continue
        out.append(g)
        least[mid] = min(least.get(mid, last), last)
    return frozenset(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal by its minimal set of exponent vectors."""

    arity: int
    generators: frozenset

    def __init__(self, arity, generators):
        if type(arity) is not int or arity < 1:
            raise InputError("arity must be an integer >= 1")
        gens = set()
        for g in generators:
            g = tuple(g)
            if len(g) != arity:
                raise InputError("generator arity mismatch")
            if any(type(e) is not int or e < 0 for e in g):
                raise InputError("exponents must be nonnegative integers")
            gens.add(g)
        if not gens:
            raise InputError("ideal needs at least one generator (unit = origin)")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "generators", _minimalize(gens))

    @classmethod
    def unit(cls, arity):
        return cls(arity, [(0,) * arity])

    @classmethod
    def principal(cls, exponents):
        return cls(len(tuple(exponents)), [tuple(exponents)])

    def is_unit(self):
        return (0,) * self.arity in self.generators

    def contains_vector(self, v):
        return any(all(a >= b for a, b in zip(v, g)) for g in self.generators)

    def issubset(self, other):
        return self + other == other

    def __add__(self, other):
        if self.arity != other.arity:
            raise InputError("arity mismatch")
        return MonomialIdeal(self.arity, self.generators | other.generators)

    def __mul__(self, other):
        if self.arity != other.arity:
            raise InputError("arity mismatch")
        gens = {
            tuple(a + b for a, b in zip(g, h))
            for g in self.generators
            for h in other.generators
        }
        return MonomialIdeal(self.arity, gens)

    def max_generator(self):
        return tuple(
            max(g[j] for g in self.generators) for j in range(self.arity)
        )

    def sorted_generators(self):
        return sorted(self.generators)

    def to_json(self):
        return {"n": self.arity, "generators": [list(g) for g in self.sorted_generators()]}


def ideal_from_json(data):
    if not isinstance(data, dict):
        raise InputError("ideal JSON must be an object")
    for field in ("n", "generators"):
        if field not in data:
            raise InputError(f"ideal JSON missing field '{field}'")
    gens = data["generators"]
    if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
        raise InputError("field 'generators' must be a list of exponent lists")
    return MonomialIdeal(data["n"], [tuple(g) for g in gens])


@dataclass(frozen=True)
class WeightedIdealProduct:
    """Formal product a_1^{c_1} ... a_l^{c_l} with rational c_i >= 0."""

    factors: tuple

    def __init__(self, factors):
        norm = []
        arity = None
        for ideal, c in factors:
            c = rat(c)
            if c < 0:
                raise InputError("exponents must be >= 0")
            if arity is None:
                arity = ideal.arity
            elif ideal.arity != arity:
                raise InputError("all factors must share one arity")
            norm.append((ideal, c))
        object.__setattr__(self, "factors", tuple(norm))

    @property
    def arity(self):
        if not self.factors:
            raise InputError("empty product has no arity")
        return self.factors[0][0].arity

    def to_json(self):
        return {
            "factors": [
                {"ideal": ideal.to_json(), "c": rat_str(c)}
                for ideal, c in self.factors
            ]
        }


@dataclass(frozen=True)
class NewtonPolyhedron:
    """H-representation of conv(generators) + nonnegative orthant.

    Each inequality is (normal, offset) meaning <normal, x> >= offset,
    with integer normals >= 0.  Coordinate bounds x_i >= 0 are always
    listed; every other inequality is tight on some generator.
    """

    source: MonomialIdeal
    inequalities: tuple


def _small_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[i] for i in range(n) if i != j] for r in rows[1:]]
        term = rows[0][j] * _small_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _cross_normal(directions, n):
    """Integer vector orthogonal to n-1 direction vectors in Z^n."""
    normal = []
    for i in range(n):
        minor = [[d[j] for j in range(n) if j != i] for d in directions]
        c = _small_det(minor)
        normal.append(c if i % 2 == 0 else -c)
    return tuple(normal)


def hull_inequalities(points, n):
    """Facets of conv(points) + orthant with positive offset.

    Points are integer vectors; each facet is a primitive integer pair
    (normal, offset) meaning <normal, x> >= offset.  Candidate normals
    come from all ways to span a hyperplane by point differences and
    coordinate rays; each surviving candidate must be componentwise
    nonnegative and valid on every point.  Coordinate bounds x_i >= 0
    are not included here.
    """
    if not points:
        raise InputError("hull needs at least one point")
    # dominated points are interior to q + orthant
    pts = sorted(_minimalize(points))

    candidates = set()
    for d in range(1, n + 1):
        for subset in combinations(pts, d):
            base = subset[0]
            diffs = [tuple(a - b for a, b in zip(p, base)) for p in subset[1:]]
            for rays in combinations(range(n), n - d):
                dirs = diffs + [
                    tuple(1 if j == i else 0 for j in range(n)) for i in rays
                ]
                normal = _cross_normal(dirs, n)
                if all(x <= 0 for x in normal):
                    normal = tuple(-x for x in normal)
                if not any(normal) or any(x < 0 for x in normal):
                    continue
                offset = sum(a * b for a, b in zip(normal, base))
                if offset <= 0:
                    continue
                g = math.gcd(offset, *normal)
                candidates.add((tuple(x // g for x in normal), offset // g))
    return tuple(
        (normal, offset)
        for normal, offset in sorted(candidates)
        if all(sum(a * b for a, b in zip(normal, p)) >= offset for p in pts)
    )


def newton_polyhedron(ideal):
    """Exact H-representation of the Newton polyhedron of an ideal."""
    n = ideal.arity
    if n > MAX_ARITY:
        raise SizeError(f"Newton polyhedra capped at arity {MAX_ARITY}")
    coordinate = tuple(
        (tuple(1 if j == i else 0 for j in range(n)), 0) for i in range(n)
    )
    facets = hull_inequalities(ideal.sorted_generators(), n)
    return NewtonPolyhedron(source=ideal, inequalities=coordinate + facets)


def _weighted_points(factors, scale):
    """Sums of one weighted generator per factor, scaled to integers.

    scale clears every weight's denominator; conv of the points
    sum_i (c_i * scale) * g_i plus the orthant is scale times the
    weighted Minkowski sum of the factors' Newton polyhedra.
    """
    points = {(0,) * factors[0][0].arity}
    for ideal, c in factors:
        w = c.numerator * (scale // c.denominator)
        # dominated combinations never support a facet
        points = _minimalize(
            tuple(x + w * g for x, g in zip(p, gen))
            for p in points
            for gen in ideal.generators
        )
    return sorted(points)


_multiplier_cache = {}


def multiplier_ideal(prod):
    """Multiplier ideal of a weighted product of monomial ideals.

    Membership: x^v is in the ideal iff v + (1,..,1) is interior to
    the weighted sum P of the Newton polyhedra, i.e. satisfies every
    H-inequality strictly (P is full-dimensional, so topological
    interior is exactly strict inequality).  With the facets of
    scale * P as primitive integer pairs (a, b), the condition
    <a, v + 1> > b / scale reads <a, v> >= T in integers, where
    T = b // scale + 1 - sum(a).

    The scan box is safe: let corner_j = sum_i c_i * maxgen_{i,j} + 1.
    If v is a member with v_j >= corner_j, write the point
    z = v + (1,..,1) as a convex combination of weighted generator
    sums plus a nonnegative vector r; the combination contributes at
    most corner_j - 1 + 1 to coordinate j, so r_j >= 1 and z - e_j
    still lies in P -- interiority survives because the same slack
    exists on a neighborhood.  Hence v - e_j is a member too, so no
    minimal generator leaves the box, and membership beyond it
    follows by monotonicity.

    The staircase: a prefix v' = (v_1..v_{n-1}) of the box is
    admitted when it meets every facet with a_n = 0; its least member
    (v', t) then has t = h(v') = max(0, ceil((T - <a', v'>) / a_n))
    over the facets with a_n > 0.  Normals are nonnegative, so
    admitted prefixes are closed upward and h falls as v' grows.  A
    minimal generator (v', t) has t = h(v'), and (v' - e_j, h(v')) is
    a member iff v' - e_j is admitted with the same h; so (v', h(v'))
    is a minimal generator iff no admitted v' - e_j has that h.
    """
    if not isinstance(prod, WeightedIdealProduct):
        prod = WeightedIdealProduct(prod)
    factors = [(ideal, c) for ideal, c in prod.factors if c]
    if not factors:
        if not prod.factors:
            raise InputError("product needs at least one factor")
        return MonomialIdeal.unit(prod.arity)
    n = factors[0][0].arity
    if n > MAX_ARITY:
        raise SizeError(f"multiplier ideals capped at arity {MAX_ARITY}")

    # frozensets are only partially ordered, so sort their contents
    key = tuple(
        sorted(
            (ideal.arity, tuple(sorted(ideal.generators)), c)
            for ideal, c in factors
        )
    )
    cached = _multiplier_cache.get(key)
    if cached is not None:
        return cached

    scale = math.lcm(*(c.denominator for _, c in factors))
    weights = [c.numerator * (scale // c.denominator) for _, c in factors]
    corner = [
        sum(w * m for w, m in zip(weights, col)) // scale + 1
        for col in zip(*(ideal.max_generator() for ideal, _ in factors))
    ]
    prefixes = math.prod(c + 1 for c in corner[:-1])
    if prefixes > MAX_SCAN_PREFIXES:
        raise SizeError(
            f"multiplier-ideal scan capped at {MAX_SCAN_PREFIXES} prefixes "
            f"(this product needs {prefixes})"
        )

    flat, last = [], []
    for a, b in hull_inequalities(_weighted_points(factors, scale), n):
        t = b // scale + 1 - sum(a)
        (last if a[-1] else flat).append((a[:-1], a[-1], t))

    height = {}  # admitted prefix -> least last exponent of a member
    members = []
    for v in product(*(range(c + 1) for c in corner[:-1])):
        if any(sum(x * y for x, y in zip(a, v)) < t for a, _, t in flat):
            continue
        h = max(
            [0] + [-((sum(x * y for x, y in zip(a, v)) - t) // an) for a, an, t in last]
        )
        height[v] = h
        if not any(
            height.get(v[:j] + (v[j] - 1,) + v[j + 1:]) == h
            for j in range(n - 1)
            if v[j]
        ):
            members.append(v + (h,))
    if not members:
        raise AssertionError("multiplier ideal of a finite product is nonzero")
    result = MonomialIdeal(n, members)
    _multiplier_cache[key] = result
    return result


def lct_monomial(ideal):
    """Largest c with (1,..,1) in c * P(ideal), by ratio minimization."""
    if ideal.is_unit():
        raise InputError("lct undefined/infinite for the unit ideal")
    ratios = [
        Fraction(sum(normal), offset)
        for normal, offset in newton_polyhedron(ideal).inequalities
        if offset > 0
    ]
    if not ratios:
        raise AssertionError("proper ideal must have a separating facet")
    return min(ratios)


@dataclass(frozen=True)
class SummationResult:
    equal: bool
    witness_denominator: int
    lhs: MonomialIdeal
    rhs: MonomialIdeal


def summation_check(a0, c0, parts, c, denom_bound=24):
    """Check the splitting identity for multiplier ideals of a sum.

    LHS is the multiplier ideal of a0^{c0} * (sum parts)^c.  RHS is
    the ideal sum over all splittings c = c_1 + .. + c_l with
    denominators dividing D.  The RHS grows with grid refinement and
    can stay put for a while before growing again, so agreement of
    two refinements alone proves nothing.  The sweep accepts once two
    consecutive refinements D, 2D agree and match the LHS; the first
    of them is the witness.  A monomial of the RHS outside the LHS
    is a proven mismatch at that D.  Hitting denom_bound otherwise
    raises InconclusiveError, which is distinct from a mismatch.
    """
    c0, c = rat(c0), rat(c)
    if type(denom_bound) is not int or denom_bound < 1:
        raise InputError("denom_bound must be an integer >= 1")
    if not parts:
        raise InputError("need at least one summand ideal")
    arity = parts[0].arity
    if a0.arity != arity or any(p.arity != arity for p in parts):
        raise InputError("all ideals must share one arity")

    total = MonomialIdeal(arity, [g for p in parts for g in p.generators])
    lhs = multiplier_ideal([(a0, c0), (total, c)])

    def rhs_at(D):
        gens = set()
        # D is a multiple of c's denominator: c splits into c * D parts of 1/D
        for split in _compositions(c.numerator * D // c.denominator, len(parts)):
            factors = [(a0, c0)] + [
                (p, Fraction(m, D)) for p, m in zip(parts, split)
            ]
            gens |= multiplier_ideal(factors).generators
        return MonomialIdeal(arity, gens)

    base = c.denominator
    D = base
    prev = prev_D = None
    while D <= denom_bound:
        cur = rhs_at(D)
        if not cur.issubset(lhs):
            return SummationResult(
                equal=False, witness_denominator=D, lhs=lhs, rhs=cur
            )
        if cur == prev == lhs:
            return SummationResult(
                equal=True, witness_denominator=prev_D, lhs=lhs, rhs=cur
            )
        prev, prev_D = cur, D
        D *= 2
    raise InconclusiveError(
        f"splitting sum did not stabilize with denominators up to {denom_bound}"
    )


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# law checks on seeded random corpora


def _random_ideal(rng, arity, max_gens=4, max_exp=3, allow_unit=False):
    while True:
        count = rng.randint(1, max_gens)
        gens = [
            tuple(rng.randint(0, max_exp) for _ in range(arity))
            for _ in range(count)
        ]
        ideal = MonomialIdeal(arity, gens)
        if allow_unit or not ideal.is_unit():
            return ideal


def _random_exponent(rng):
    q = rng.randint(1, 6)
    p = rng.randint(0, 2 * q)
    return Fraction(p, q)


def _embed(ideal, arity, offset):
    gens = [
        (0,) * offset + g + (0,) * (arity - offset - ideal.arity)
        for g in ideal.generators
    ]
    return MonomialIdeal(arity, gens)


def law_checks(seed, count):
    """Exercise the divisor-factoring, monotonicity, and product laws.

    Returns a per-law report with pass/fail and the first
    counterexample instance, if any.
    """
    import random

    report = {}

    def run(name, one_case):
        rng = random.Random(f"{seed}:{name}")
        failures = []
        for i in range(count):
            instance, ok = one_case(rng)
            if not ok:
                failures.append(instance)
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
        a = b * _random_ideal(rng, arity, allow_unit=False)
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
