"""Monomial ideals, Newton polyhedra, and monomial multiplier ideals.

Multiplier ideals of monomial data have a purely combinatorial
description: a monomial x^v belongs to the multiplier ideal of
a_1^{c_1}...a_l^{c_l} exactly when v + (1,..,1) lies in the interior of
the weighted Minkowski sum of the Newton polyhedra.  A principal factor
only translates that sum, so its facet normals depend only on which
ideals with two or more generators carry a positive weight, and they are
computed once per such support set, by a double-description hull in
integers that lists every facet, as is each ideal's least value on
them; a facet offset is then an integer sum.  Newton polyhedra and lct
read the same cache: a Newton polyhedron is its generators' hull.  Scaled
by the lcm of the weight denominators, the test runs in integers, swept
line by line through a bounded box: along each line the least last
exponent of a member is a falling step function, read in closed form
from one drop to the next, and the sweep emits the minimal generators
already sorted.  That makes this module an exact,
independent oracle for multiplier ideals, including the summation
formula over rational exponent splittings, where the first refinement of
the splitting grid whose sum equals the left side is the witness: every
refinement is checked to lie in the left side, so equality there is
proven, and a further refinement could only rebuild the same ideal.  A
summand whose Newton polyhedron lies inside another's is left out of the
splittings: by convexity, moving its weight onto the other only grows the
weighted sum of polyhedra, so it adds nothing to any refinement.  The
seeded law corpus that exercises it is verification.law_checks.
An ideal's generators are the sorted tuple of its minimal exponent vectors.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, product
from operator import add, mul

from .errors import InconclusiveError, InputError, SizeError
from .rationals import fields, integer, primitive, rat

MAX_ARITY = 4
MAX_SCAN_PREFIXES = 50_000  # box prefixes one multiplier_ideal call may scan
# digits of the box's last side, the height no prefix cap counts, and of a
# printed prefix count: Python prints no int past 4,300 digits, and 100
# digits is the cap flags.MAX_S_DIGITS puts on s
MAX_HEIGHT_DIGITS = 100
HEIGHT_LIMIT = 10**MAX_HEIGHT_DIGITS  # the least number of more digits
MAX_SPLITS = 5_000  # splittings (products) one summation refinement may build
MAX_HULL_RAYS = 4_096  # rays one hull may keep after a step
MAX_SUM_POINTS = 131_072  # sums one step of a Minkowski sum may build
# generators one ideal document may list, checked before _minimalize,
# which is quadratic in them, and before any hull is built
MAX_GENERATORS = 1_024


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
    return tuple(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal by the sorted tuple of its minimal exponent vectors."""

    arity: int
    generators: tuple

    def __init__(self, arity, generators):
        integer("arity", arity)
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
    def _minimal(cls, arity, generators):
        """The ideal of a tuple of generators already minimal and sorted."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "arity", arity)
        object.__setattr__(ideal, "generators", generators)
        return ideal

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
        gens = _minimalize(self.generators + other.generators)
        return MonomialIdeal._minimal(self.arity, gens)

    def __mul__(self, other):
        if self.arity != other.arity:
            raise InputError("arity mismatch")
        gens = _minimalize(
            tuple(map(add, g, h)) for g in self.generators for h in other.generators
        )
        return MonomialIdeal._minimal(self.arity, gens)

    def to_json(self):
        return {"n": self.arity, "generators": [list(g) for g in self.generators]}


def _ideal_fields(data):
    """(n, generators) of an ideal document, its shape and its listed
    generators checked before any ideal is built from them."""
    n, gens = fields(data, "ideal", "n", "generators")
    if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
        raise InputError("field 'generators' must be a list of exponent lists")
    if len(gens) > MAX_GENERATORS:
        raise SizeError(
            f"ideal documents capped at {MAX_GENERATORS} generators (got {len(gens)})"
        )
    return n, [tuple(g) for g in gens]


def ideal_from_json(data):
    return MonomialIdeal(*_ideal_fields(data))


def _cap_summed_parts(count):
    if count > MAX_GENERATORS:
        raise SizeError(
            f"summed parts capped at {MAX_GENERATORS} generators (got {count})"
        )


def summation_from_json(data):
    """summation_check's keyword arguments from an instance document;
    denom_bound is passed only when the document sets it.  The parts'
    listed generators are summed and capped before any ideal is built."""
    a0, parts, c = fields(data, "summation", "a0", "parts", "c")
    if not isinstance(parts, list):
        raise InputError("field 'parts' must be a list")
    a0 = _ideal_fields(a0)
    parts = [_ideal_fields(p) for p in parts]
    _cap_summed_parts(sum(len(gens) for _, gens in parts))
    args = dict(a0=MonomialIdeal(*a0), parts=[MonomialIdeal(*p) for p in parts],
                c0=rat(data.get("c0", 0)), c=rat(c))
    if "denom_bound" in data:
        args["denom_bound"] = data["denom_bound"]
    return args


@dataclass(frozen=True)
class WeightedIdealProduct:
    """Formal product a_1^{c_1} ... a_l^{c_l} with rational c_i >= 0."""

    factors: tuple

    def __init__(self, factors):
        norm = []
        arity = None
        for ideal, c in factors:
            c = rat(c)
            if c.numerator < 0:
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


@dataclass(frozen=True)
class NewtonPolyhedron:
    """H-representation of conv(generators) + nonnegative orthant.

    Each inequality is a facet (normal, offset), sorted, meaning
    <normal, x> >= offset, with a primitive integer normal >= 0 and an
    offset >= 0, tight on some generator.  Each facet is listed once:
    x_i >= min_g g_i is the facet with normal e_i.
    """

    source: MonomialIdeal
    inequalities: tuple


def hull_inequalities(points, n):
    """Every facet of conv(points) + orthant, sorted.

    Points are integer vectors; each facet is a primitive integer pair
    (normal, offset), offset >= 0, meaning <normal, x> >= offset, the
    coordinate facets (e_i, min_p p_i) among them.  The facets are found
    by the double description method (T. S. Motzkin, H. Raiffa,
    G. L. Thompson and R. M. Thrall, 1953; K. Fukuda and A. Prodon,
    1996), in integers.
    - Homogenization.  Q = conv(points) + R^n_+ is the section at height
      1 of the cone C spanned by the generators (p, 1), one per point,
      and (e_i, 0).  <a, x> >= b holds on Q iff y = (a, -b) lies in
      C* = {y : <g, y> >= 0 for every generator g}, which asks a >= 0
      and <a, p> >= b for every point p.  C* is pointed, as the
      generators span R^(n+1).
    - Extreme rays are facets.  The facets of C are the facets of Q,
      homogenized, and C's face at infinity R^n_+ x {0}.  They are the
      extreme rays of C*: (a, -b) for each facet of Q, and (0, 1).  A
      facet of Q is tight on a point, so gcd(a) divides b, and the
      primitive ray is (primitive normal, -offset).
    - Start.  The generators (e_i, 0) and (p, 1), p the first point in
      sorted order, are independent, so their cone C*_0 is simplicial:
      its rays are the cofactor rays, each tight on every generator but
      one.  These are (0, 1), tight on every (e_i, 0), and (e_i, -p_i),
      tight on (p, 1) and every (e_j, 0), j != i.
    - Insertion.  Adding a generator g cuts C*_k by <g, y> >= 0.  The
      extreme rays of the cut cone are the old rays with <g, r> >= 0
      and, for each adjacent pair r+, r- with <g, r+> > 0 > <g, r->,
      the ray <g, r+> r- - <g, r-> r+ of the 2-face cone(r+, r-) on
      which <g, .> = 0.  A new extreme ray lies on a 2-face of C*_k
      that <g, .> = 0 crosses, and that face has one ray on each side,
      so each new ray is made once.
    - Adjacency.  The least face of C*_k holding two extreme rays is
      cut out by Z, the generators tight on both; they are adjacent iff
      it is 2-dimensional, that is iff no third extreme ray is tight on
      all of Z, as a face of dimension 3 or more has three extreme rays
      or more.  A 2-face is tight on generators of rank n - 1, so
      |Z| >= n - 1 is checked first.  Distinct extreme rays are tight
      on distinct sets, each cutting out its own ray, so tight sets are
      kept as bitmasks, and a third ray is one whose mask is neither.
      An old ray with <g, r> = 0 gains g's bit.
    The other points are inserted in sorted order, a repeated one once.
    A point dominated by another comes after it in that order, so it
    cuts no ray off: it only adds its bit where it is tight.  More than
    MAX_HULL_RAYS rays after a step raise SizeError.  Every extreme ray
    but (0, 1) is a facet returned; its offset is >= 0, as the points are.
    """
    if not points:
        raise InputError("hull needs at least one point")
    least, *rest = sorted(set(map(tuple, points)))
    every = (1 << n) - 1  # bit i < n: (e_i, 0); bit n + k: the k-th point
    rays = [((0,) * n + (1,), every)]
    for i in range(n):
        ray = tuple(int(j == i) for j in range(n)) + (-least[i],)
        rays.append((ray, (every ^ 1 << i) | 1 << n))
    for k, p in enumerate(rest, n + 1):
        g, bit = p + (1,), 1 << k
        above, below, kept = [], [], []
        for y, t in rays:
            v = sum(map(mul, g, y))
            if v > 0:
                above.append((v, y, t))
                kept.append((y, t))
            elif v < 0:
                below.append((v, y, t))
            else:
                kept.append((y, t | bit))
        tights = [t for _, t in rays]
        for v, y, t in above:
            for w, x, s in below:
                z = t & s
                if z.bit_count() >= n - 1 and not any(
                    u & z == z and u != t and u != s for u in tights
                ):
                    ray = [v * b - w * a for a, b in zip(y, x)]  # v x - w y
                    kept.append((primitive(ray), z | bit))
        rays = kept
        if len(rays) > MAX_HULL_RAYS:
            raise SizeError(
                f"hull capped at {MAX_HULL_RAYS} rays (a step kept {len(rays)})"
            )
    return tuple(sorted((y[:n], -y[n]) for y, _ in rays if any(y[:n])))


def newton_polyhedron(ideal):
    """Exact H-representation of the Newton polyhedron of an ideal, read
    from the cached engine: each sorted normal of _support_normals with
    its _minima offset, which is the facet's, as a facet is tight on a
    generator.  So it is hull_inequalities(generators), and for a
    principal x^d, whose supports are (), the facets (e_i, d_i)."""
    n = ideal.arity
    if n > MAX_ARITY:
        raise SizeError(f"Newton polyhedra capped at arity {MAX_ARITY}")
    gens = ideal.generators
    supports = (gens,) if len(gens) > 1 else ()
    facets = zip(_support_normals(supports, n), _minima(gens, supports, n))
    return NewtonPolyhedron(source=ideal, inequalities=tuple(facets))


CACHE_BOUND = 4096  # entries each module cache keeps; the least recent go first


@lru_cache(maxsize=CACHE_BOUND)
def _support_normals(supports, n):
    """Facet normals of every sum sum_i c_i * P(a_i) + sum_j c_j * P(x^d_j)
    with all c_i, c_j > 0: the normals of hull_inequalities, sorted.

    supports are the distinct generator tuples of the non-principal
    a_i (two or more generators each), sorted.
    - A principal factor translates the sum.  P(x^d) = d + R^n_+, so
      adding c * P(x^d) moves the sum by c * d: its facet normals stay,
      and only their offsets move, which multiplier_ideal's support
      function reads off every factor.
    - The weights do not matter.  In a direction a >= 0 the face of
      sum_i c_i * P_i is sum_i c_i * F_i(a), where F_i(a) is the face
      of P_i on which <a, .> is least.  Its direction space
      sum_i lin F_i(a) is the same for every c_i > 0, so whether it is
      a facet does not depend on the c_i, and the normals are those of
      the unit-weight sum, the hull of the sums of one generator per
      ideal.  (A repeated ideal adds nothing, as c * P + c' * P =
      (c + c') * P for convex P.)
    - A dominated partial sum adds only dominated sums, which cut no ray
      of the hull, so only the partial sums that are extended are
      minimalized.  A step that would build more than MAX_SUM_POINTS
      sums, minimal partial sums times generators, raises SizeError
      before it builds them.
    """
    points = [(0,) * n]
    for gens in supports:
        points = _minimalize(points)
        if len(points) * len(gens) > MAX_SUM_POINTS:
            raise SizeError(
                f"Minkowski sums capped at {MAX_SUM_POINTS} points "
                f"(a step needs {len(points) * len(gens)})"
            )
        points = [tuple(map(add, p, g)) for p in points for g in gens]
    return tuple(a for a, _ in hull_inequalities(points, n))


def multiplier_ideal(prod):
    """Multiplier ideal of a weighted product of monomial ideals.

    Membership: x^v is in the ideal iff v + (1,..,1) is interior to
    the weighted sum P of the Newton polyhedra, i.e. satisfies every
    H-inequality strictly (P is full-dimensional, so topological
    interior is exactly strict inequality).  The facets of scale * P
    are primitive integer pairs (a, b): the normals a depend only on
    the support set of the non-principal factors (_support_normals),
    and b is the support function sum_i w_i * min_{g in a_i} <a, g>
    over every factor, with w_i = c_i * scale; each min is read from
    _minima, cached per ideal and support set.  The condition
    <a, v + 1> > b / scale reads <a, v> >= T in integers, where
    T = b // scale + 1 - sum(a); a facet with T <= 0 holds on the whole
    orthant, as a >= 0, and is dropped.

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
    admitted when it meets every flat facet (a_n = 0); its least
    member (v', t) then has t = h(v') = max(0, ceil((T - <a', v'>) / a_n))
    over the height facets (a_n > 0).  Normals are nonnegative, so
    admitted prefixes are closed upward and h falls as v' grows.  A
    minimal generator (v', t) has t = h(v'), and (v' - e_j, h(v')) is
    a member iff v' - e_j is admitted with the same h; so (v', h(v'))
    is a minimal generator iff no admitted v' - e_j has that h.

    The sweep reads the staircase one line at a time.  A line fixes
    u = (v_1..v_{n-2}) and runs x = v_{n-1} from 0 to the box's top;
    on it each facet reads a_x * x >= r or ceil((r - a_x * x) / a_n),
    with r = T - <a_u, u>.
    - Start.  A flat facet holds from x = ceil(r / a_x) on if a_x > 0,
      and on all or none of the line if a_x = 0.  So the admitted
      entries are lo..top, lo = max(0, ceil(r / a_x)) over the flat
      facets with a_x > 0, and none if a flat facet with a_x = 0 has
      r > 0.
    - End.  A height facet with a_x = 0 gives the same ceil(r / a_n)
      all along the line; the largest of these and 0 is a floor f that
      h never goes below.  As h falls, once h = f it stays f to the
      end of the line: h = 0 when no such facet is above 0, else a
      facet with a_x = 0 holds h.
    - Steps.  From x with h = h(x) > f, h(x') <= h - 1 iff every height
      facet has a_x * x' >= r - (h - 1) * a_n.  Those with a_x = 0 do,
      as f <= h - 1, so the next drop is at
      x' = max ceil((r - (h - 1) * a_n) / a_x) over the facets with
      a_x > 0.  It lies past x: a facet attaining h > f has a_x > 0
      and r - a_x * x > (h - 1) * a_n.  So h is constant on [x, x'),
      and the line is its steps (x, h(x)), from lo until h = f or x'
      passes top.
    - Minimal generators.  Off the steps, v' - e_{n-1} is admitted
      with the same h, so only step points can be minimal.  A step
      point is minimal iff no admitted v' - e_j, j <= n - 2, has its h.
      That point lies on line u - e_j, swept before u: it is admitted
      iff x is at or past the line's first step, and then its h is
      that of the last step at or before x, found by bisection, since
      the line's next drop lies past x.
    In arity 1 there are no prefix entries: the one generator is (h(),).
    """
    if not isinstance(prod, WeightedIdealProduct):
        prod = WeightedIdealProduct(prod)
    if not prod.factors:
        raise InputError("product needs at least one factor")
    factors = [(a.generators, c.numerator, c.denominator) for a, c in prod.factors if c]
    return _product_multiplier(factors, prod.arity)


def _product_multiplier(factors, n):
    """The multiplier ideal, in arity n, of the factors (generators,
    numerator, denominator), each weight positive and in lowest terms:
    the unit ideal when there is none, else the cached engine's, keyed by
    the sorted factors.  multiplier_ideal and summation_check's
    splittings both reach _multiplier through here, so they share its
    cache entries."""
    if not factors:
        return MonomialIdeal.unit(n)
    if n > MAX_ARITY:
        raise SizeError(f"multiplier ideals capped at arity {MAX_ARITY}")
    return _multiplier(tuple(sorted(factors)), n)


@lru_cache(maxsize=CACHE_BOUND)
def _minima(gens, supports, n):
    """min <a, g> over gens for each normal a of _support_normals(supports, n)."""
    return tuple(
        min(sum(map(mul, a, g)) for g in gens)
        for a in _support_normals(supports, n)
    )


@lru_cache(maxsize=CACHE_BOUND)
def _multiplier(key, n):
    """multiplier_ideal of the product key: sorted (generators, numerator,
    denominator) triples, one per factor of positive weight.

    The sweep emits only step points that pass the minimality test
    proved in multiplier_ideal, with u in product order and x rising
    along each line, so members is already the sorted tuple of minimal
    generators and the result is built from it as it is.
    """
    scale = math.lcm(*(d for _, _, d in key))
    weights = [p * (scale // d) for _, p, d in key]
    corner = [
        sum(w * m for w, m in zip(weights, col)) // scale + 1
        for col in zip(*(map(max, zip(*gens)) for gens, _, _ in key))
    ]
    prefixes = math.prod(c + 1 for c in corner[:-1])
    if prefixes > MAX_SCAN_PREFIXES:
        if prefixes >= HEIGHT_LIMIT:
            prefixes = f"a count of more than {MAX_HEIGHT_DIGITS} digits"
        raise SizeError(
            f"multiplier-ideal scan capped at {MAX_SCAN_PREFIXES} prefixes "
            f"(this product needs {prefixes})"
        )
    if corner[-1] >= HEIGHT_LIMIT:
        raise SizeError(
            f"multiplier-ideal box height capped at {MAX_HEIGHT_DIGITS} digits"
        )

    facets = []
    supports = tuple(sorted({gens for gens, _, _ in key if len(gens) > 1}))
    minima = [_minima(gens, supports, n) for gens, _, _ in key]
    for a, *mins in zip(_support_normals(supports, n), *minima):
        b = sum(w * m for w, m in zip(weights, mins))
        t = b // scale + 1 - sum(a)
        if t > 0:  # else <a, v> >= t holds on the whole orthant
            facets.append((a[:-1], a[-1], t))

    if n == 1:  # no prefix entries, and a_1 > 0: the one generator is (h(),)
        h = max([0] + [-(-t // an) for _, an, t in facets])
        return MonomialIdeal._minimal(1, ((h,),))

    top = corner[-2]
    lines = {}  # line u -> (xs, hs): the entries x where h steps, and h there
    members = []
    for u in product(*(range(c + 1) for c in corner[:-2])):
        xs, hs = lines[u] = [], []
        lo, floor, moving = 0, 0, []
        for a, an, t in facets:
            r = t - sum(map(mul, a, u))  # map stops before a_x
            ax = a[-1]
            if an and ax:
                moving.append((ax, an, r))
            elif an:
                floor = max(floor, -(-r // an))
            elif ax:
                lo = max(lo, -(-r // ax))
            elif r > 0:
                lo = top + 1  # a flat facet fails on the whole line
        x = lo
        while x <= top:
            h = max([floor] + [-((ax * x - r) // an) for ax, an, r in moving])
            xs.append(x)
            hs.append(h)
            if not any(
                _height_at(lines[u[:j] + (u[j] - 1,) + u[j + 1:]], x) == h
                for j in range(n - 2)
                if u[j]
            ):
                members.append(u + (x, h))
            if h == floor:
                break
            x = max(-(((h - 1) * an - r) // ax) for ax, an, r in moving)
    if not members:
        raise AssertionError("multiplier ideal of a finite product is nonzero")
    return MonomialIdeal._minimal(n, tuple(members))


def _height_at(line, x):
    """h at entry x of a swept line, or None where x is not admitted."""
    xs, hs = line
    i = bisect_right(xs, x)
    return hs[i - 1] if i else None


def lct_monomial(ideal):
    """Largest c with (1,..,1) in c * P(ideal), by ratio minimization over
    the facets of newton_polyhedron, which reads the cached engine."""
    if ideal.is_unit():
        raise InputError("lct undefined/infinite for the unit ideal")
    inequalities = newton_polyhedron(ideal).inequalities
    ratios = [Fraction(sum(a), b) for a, b in inequalities if b > 0]
    if not ratios:
        raise AssertionError("proper ideal must have a separating facet")
    return min(ratios)


@dataclass(frozen=True)
class SummationResult:
    equal: bool
    witness_denominator: int
    lhs: MonomialIdeal
    rhs: MonomialIdeal

    def to_json(self):
        return {
            "equal": self.equal,
            "witness_denominator": self.witness_denominator,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
        }


def summation_check(a0, c0, parts, c, denom_bound=24):
    """Check the splitting identity for multiplier ideals of a sum.

    LHS is the multiplier ideal of a0^{c0} * (sum parts)^c.  RHS(D) is
    the ideal sum over all splittings c = c_1 + .. + c_l with
    denominators dividing D, for D = den(c), 2 den(c), 4 den(c), ..
    up to denom_bound.  The RHS grows with grid refinement and can
    stay put for a while before growing again, so agreement of two
    refinements alone proves nothing.  The proof of equality is this:
    - That RHS(D) lies in the LHS is checked at every D; a monomial
      of RHS(D) outside the LHS is a proven mismatch at that D.
    - So RHS(D) = LHS is equality, and the first such D is the
      witness: the sweep returns there.
    A sweep that reaches no such D up to denom_bound raises
    InconclusiveError, which is distinct from a mismatch.
    - A part whose Newton polyhedron lies inside another part's is
      dropped from the splittings (of equal ones the first is kept), as
      it adds nothing to RHS(D).  If P(b_i) lies inside P(b_j), then
      w_i P(b_i) + w_j P(b_j) lies inside (w_i + w_j) P(b_j), as
      P(b_j) is convex, so moving i's weight onto j only grows the
      weighted sum, and so its multiplier ideal; the moved weight's
      denominator still divides D.  A chain of such moves ends at a
      kept part, so the kept parts' splittings give the same RHS(D) at
      every D.  The LHS still takes the sum of every part.  With c = 0
      no splitting weights a part, and nothing is dropped; if a part's
      hull is past a cap, every part is swept, as it would be unpruned.
    A D whose C(c * D + l - 1, l - 1) splittings, l the kept parts, pass
    MAX_SPLITS raises SizeError before any of them is swept.
    - The LHS goes through multiplier_ideal, which checks the weights.
      Each splitting then goes straight to the engine, keyed as
      multiplier_ideal keys it: the weight m / D of a part is the pair
      (m, D) divided by their gcd, so a splitting at 2D whose entries
      are all even is one at D, and its multiplier ideal a cache hit.
    - RHS(D) is the minimalized union of the splittings' generators.
      Where there is one splitting (one part, or c = 0) its multiplier
      ideal is RHS(D) as it stands: the engine emits the minimal
      generators sorted, so minimalizing them again would change
      nothing, at a cost quadratic in them.  The parts' sum, and every
      ideal sum and product, is built from generators of valid ideals,
      so none is checked again.
    The parts together may have at most MAX_GENERATORS generators,
    checked before their sum is built.
    """
    c0, c = rat(c0), rat(c)
    integer("denom_bound", denom_bound)
    if not parts:
        raise InputError("need at least one summand ideal")
    arity = parts[0].arity
    if a0.arity != arity or any(p.arity != arity for p in parts):
        raise InputError("all ideals must share one arity")
    _cap_summed_parts(sum(len(p.generators) for p in parts))

    total = MonomialIdeal._minimal(
        arity, _minimalize(g for p in parts for g in p.generators)
    )
    lhs = multiplier_ideal([(a0, c0), (total, c)])
    if c and len(parts) > 1:
        try:
            parts = _kept_parts(parts)
        except SizeError:  # a part's hull is past a cap: sweep every part
            pass
    base = [(a0.generators, c0.numerator, c0.denominator)] if c0 else []
    D = c.denominator
    while D <= denom_bound:
        # D is a multiple of c's denominator: c splits into c * D parts of 1/D
        units = c.numerator * D // c.denominator
        if math.comb(units + len(parts) - 1, len(parts) - 1) > MAX_SPLITS:
            raise SizeError(f"more than {MAX_SPLITS} splittings at denominator {D}")
        splits = []
        for split in _compositions(units, len(parts)):
            factors = list(base)
            for p, m in zip(parts, split):
                if m:  # the weight m / D in lowest terms
                    d = math.gcd(m, D)
                    factors.append((p.generators, m // d, D // d))
            splits.append(_product_multiplier(factors, arity))
        if len(splits) == 1:  # one kept part, or c = 0: minimal and sorted already
            rhs = splits[0]
        else:
            gens = _minimalize(g for s in splits for g in s.generators)
            rhs = MonomialIdeal._minimal(arity, gens)
        if rhs == lhs or not rhs.issubset(lhs):
            return SummationResult(
                equal=rhs == lhs, witness_denominator=D, lhs=lhs, rhs=rhs
            )
        D *= 2
    raise InconclusiveError(
        f"splitting sum did not stabilize with denominators up to {denom_bound}"
    )


def _kept_parts(parts):
    """The parts whose Newton polyhedron lies inside no other part's, the
    first of equal ones kept, in their order.  P(b_i) lies inside P(b_j)
    iff every generator of b_i meets every facet of newton_polyhedron(b_j),
    the coordinate facets among them."""
    facets = [newton_polyhedron(p).inequalities for p in parts]

    def inside(i, j):
        return all(
            sum(map(mul, a, g)) >= b for a, b in facets[j] for g in parts[i].generators
        )

    return [
        p for i, p in enumerate(parts)
        if not any(
            j != i and inside(i, j) and (j < i or not inside(j, i))
            for j in range(len(parts))
        )
    ]


def _compositions(total, parts):
    """Every way to write total as parts ordered nonnegative integers,
    in lexicographic order: the parts - 1 bars among total + parts - 1
    places of stars and bars, the bars' positions taken in order."""
    places = total + parts - 1
    for bars in combinations(range(places), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (places,)))
