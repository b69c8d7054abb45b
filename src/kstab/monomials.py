"""Monomial ideals, Newton polyhedra, and monomial multiplier ideals.

Multiplier ideals of monomial data have a purely combinatorial
description: a monomial x^v belongs to the multiplier ideal of
a_1^{c_1}...a_l^{c_l} exactly when v + (1,..,1) lies in the interior
of the weighted Minkowski sum of the Newton polyhedra.  The facet
normals of that sum depend only on which ideals carry a positive
weight, so they are computed once per support set.  Scaled by the
lcm of the weight denominators, the test runs in integers, one
closed-form staircase step per prefix of a bounded box.  That makes
this module an exact, independent oracle for the multiplier-ideal
laws used elsewhere, including the summation formula over rational
exponent splittings.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, product

from .errors import InconclusiveError, InputError, SizeError
from .rationals import rat, rat_str

MAX_ARITY = 4
MAX_SCAN_PREFIXES = 50_000  # box prefixes one multiplier_ideal call may scan
MAX_SPLITS = 5_000  # splittings (products) one summation refinement may build


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


def _cross(vectors):
    """Integer vector orthogonal to d - 1 vectors in Z^d.

    Entry i is (-1)^i times the minor without column i, so that
    det([r] + vectors) = <r, _cross(vectors)> for every row r.
    """
    d = len(vectors) + 1
    if d == 1:
        return (1,)
    if d == 2:
        ((u, v),) = vectors
        return (v, -u)
    if d == 3:
        (a, b, c), (x, y, z) = vectors
        return (b * z - c * y, c * x - a * z, a * y - b * x)
    minors = [[v[:i] + v[i + 1:] for v in vectors] for i in range(d)]
    return tuple(
        (-1) ** i * sum(x * y for x, y in zip(m[0], _cross(m[1:])))
        for i, m in enumerate(minors)
    )


def hull_inequalities(points, n):
    """Facets of conv(points) + orthant with positive offset.

    Points are integer vectors; each facet is a primitive integer pair
    (normal, offset) meaning <normal, x> >= offset.  Coordinate bounds
    x_i >= 0 are not included here.

    Such a facet's normal a is >= 0; let F = supp(a).  The facet holds
    the rays e_i for i outside F, so its points projected onto the
    coordinates F span a hyperplane there, and each is a minimal
    projection: one dominated by another would sit strictly below the
    facet, as every a_i with i in F is positive.  So for each free set
    F the candidates are the |F|-dimensional cross products of the
    differences of |F| distinct minimal projections, kept when every
    entry is nonzero with one sign.  A candidate is a facet when its
    |F| points attain the least value of <a, .> over all the points,
    and that value is positive.
    """
    if not points:
        raise InputError("hull needs at least one point")
    facets = set()
    for d in range(1, n + 1):
        for free in combinations(range(n), d):
            proj = sorted(_minimalize(tuple(p[i] for i in free) for p in points))
            low = {}  # candidate normal on F -> least value over the points
            for base, *rest in combinations(proj, d):
                normal = _cross([tuple(a - b for a, b in zip(p, base)) for p in rest])
                if not (all(x > 0 for x in normal) or all(x < 0 for x in normal)):
                    continue
                g = math.gcd(*normal) if normal[0] > 0 else -math.gcd(*normal)
                normal = tuple(x // g for x in normal)
                b = low.get(normal)
                if b is None:
                    b = low[normal] = min(
                        sum(x * y for x, y in zip(normal, p)) for p in proj
                    )
                if b > 0 and sum(x * y for x, y in zip(normal, base)) == b:
                    lift = dict(zip(free, normal))
                    facets.add((tuple(lift.get(i, 0) for i in range(n)), b))
    return tuple(sorted(facets))


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


CACHE_BOUND = 4096  # entries each module cache keeps; the least recent go first


@lru_cache(maxsize=CACHE_BOUND)
def _support_normals(supports, n):
    """Facet normals shared by every sum sum_i c_i * P(a_i) with all c_i > 0.

    supports are the distinct sorted generator tuples of the a_i.  In
    a direction a >= 0 the face of sum_i c_i * P_i is sum_i c_i * F_i(a),
    where F_i(a) is the face of P_i on which <a, .> is least.  Its
    direction space sum_i lin F_i(a) is the same for every c_i > 0, so
    whether it is a facet does not depend on the c_i; nor does the
    sign of its offset sum_i c_i * min_{g in a_i} <a, g>, which is
    positive iff some minimum is.  So the primitive normals of the
    facets with positive offset are those of the unit-weight sum, the
    hull of the sums of one generator per ideal.  (A repeated ideal
    adds nothing, as c * P + c' * P = (c + c') * P for convex P.)
    """
    points = {(0,) * n}
    for gens in supports:
        # dominated sums never support a facet
        points = _minimalize(
            tuple(x + y for x, y in zip(p, g)) for p in points for g in gens
        )
    return tuple(a for a, _ in hull_inequalities(sorted(points), n))


def multiplier_ideal(prod):
    """Multiplier ideal of a weighted product of monomial ideals.

    Membership: x^v is in the ideal iff v + (1,..,1) is interior to
    the weighted sum P of the Newton polyhedra, i.e. satisfies every
    H-inequality strictly (P is full-dimensional, so topological
    interior is exactly strict inequality).  The facets of scale * P
    are primitive integer pairs (a, b): the normals a depend only on
    the support set (_support_normals), and b is the support function
    sum_i w_i * min_{g in a_i} <a, g> with w_i = c_i * scale.  The
    condition <a, v + 1> > b / scale reads <a, v> >= T in integers,
    where T = b // scale + 1 - sum(a).

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
    return _multiplier(
        tuple(sorted((tuple(sorted(ideal.generators)), c) for ideal, c in factors)), n
    )


@lru_cache(maxsize=CACHE_BOUND)
def _multiplier(key, n):
    """multiplier_ideal of the product key: sorted (generators, weight) pairs."""
    scale = math.lcm(*(c.denominator for _, c in key))
    weights = [c.numerator * (scale // c.denominator) for _, c in key]
    corner = [
        sum(w * m for w, m in zip(weights, col)) // scale + 1
        for col in zip(*(map(max, zip(*gens)) for gens, _ in key))
    ]
    prefixes = math.prod(c + 1 for c in corner[:-1])
    if prefixes > MAX_SCAN_PREFIXES:
        raise SizeError(
            f"multiplier-ideal scan capped at {MAX_SCAN_PREFIXES} prefixes "
            f"(this product needs {prefixes})"
        )

    flat, last = [], []
    for a in _support_normals(tuple(sorted({gens for gens, _ in key})), n):
        b = sum(
            w * min(sum(x * y for x, y in zip(a, g)) for g in gens)
            for w, (gens, _) in zip(weights, key)
        )
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
    return MonomialIdeal(n, members)


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
        units = c.numerator * D // c.denominator
        if math.comb(units + len(parts) - 1, len(parts) - 1) > MAX_SPLITS:
            raise SizeError(f"more than {MAX_SPLITS} splittings at denominator {D}")
        for split in _compositions(units, len(parts)):
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
