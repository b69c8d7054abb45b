"""Monomial ideals, Newton polyhedra, and monomial multiplier ideals.

Multiplier ideals of monomial data have a purely combinatorial
description: a monomial x^v belongs to the multiplier ideal of
a_1^{c_1}...a_l^{c_l} exactly when v + (1,..,1) lies in the interior
of the weighted Minkowski sum of the Newton polyhedra.  A principal
factor only translates that sum, so its facet normals depend only on
which ideals with two or more generators carry a positive weight, and
they are computed once per such support set, as is each ideal's
least value on them; a facet offset is then an integer sum.  Scaled
by the lcm of the weight denominators, the test runs in integers,
swept line by line through a bounded box: along each line the least
last exponent of a member is a falling step function, read in closed
form from one drop to the next, and the sweep emits the minimal
generators already sorted.  That makes this module an exact,
independent oracle for multiplier ideals, including the summation
formula over rational exponent splittings, where each refinement of
the splitting grid sweeps only the splittings it adds, and the first
refinement whose sum equals the left side is the witness: every
refinement is checked to lie in the left side, so equality there is
proven, and a further refinement could only rebuild the same ideal.
The seeded law corpus that exercises it is verification.law_checks.
An ideal's generators are the sorted tuple of its minimal exponent vectors.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, product

from .errors import InconclusiveError, InputError, SizeError
from .rationals import fields, integer, primitive, rat

MAX_ARITY = 4
MAX_SCAN_PREFIXES = 50_000  # box prefixes one multiplier_ideal call may scan
# digits of the box's last side, the height no prefix cap counts: a
# generator past Python's 4,300-digit int-to-string limit cannot be
# printed, and 100 digits is the cap flags.MAX_S_DIGITS puts on s
MAX_HEIGHT_DIGITS = 100
MAX_SPLITS = 5_000  # splittings (products) one summation refinement may build
MAX_HULL_CANDIDATES = 2 ** 16  # candidate normals one hull enumeration may try
# generators one ideal document may list, checked before _minimalize,
# which is quadratic in them, and before any hull projection is taken
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
        return MonomialIdeal(self.arity, self.generators + other.generators)

    def __mul__(self, other):
        if self.arity != other.arity:
            raise InputError("arity mismatch")
        gens = {
            tuple(a + b for a, b in zip(g, h))
            for g in self.generators
            for h in other.generators
        }
        return MonomialIdeal(self.arity, gens)

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
    and that value is positive.  The candidates number
    sum_F C(|proj_F|, |F|); more than MAX_HULL_CANDIDATES of them
    raise SizeError before any is tried.
    """
    if not points:
        raise InputError("hull needs at least one point")
    projections = [
        (free, _minimalize(tuple(p[i] for i in free) for p in points))
        for d in range(1, n + 1)
        for free in combinations(range(n), d)
    ]
    candidates = sum(math.comb(len(proj), len(free)) for free, proj in projections)
    if candidates > MAX_HULL_CANDIDATES:
        raise SizeError(
            f"hull enumeration capped at {MAX_HULL_CANDIDATES} candidate normals "
            f"(these points need {candidates})"
        )
    facets = set()
    for free, proj in projections:
        low = {}  # candidate normal on F -> least value over the points
        for base, *rest in combinations(proj, len(free)):
            normal = _cross([tuple(a - b for a, b in zip(p, base)) for p in rest])
            if not (all(x > 0 for x in normal) or all(x < 0 for x in normal)):
                continue
            normal = primitive(normal)
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
    facets = hull_inequalities(ideal.generators, n)
    return NewtonPolyhedron(source=ideal, inequalities=coordinate + facets)


CACHE_BOUND = 4096  # entries each module cache keeps; the least recent go first


@lru_cache(maxsize=CACHE_BOUND)
def _support_normals(supports, n):
    """Facet normals of every sum sum_i c_i * P(a_i) + sum_j c_j * P(x^d_j)
    with all c_i, c_j > 0: the coordinate normals e_1..e_n, then the
    hull normals with two or more nonzero entries.

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
    - Each e_i is a facet normal of every conv(Q) + R^n_+: the face on
      which x_i is least holds a point p and the rays p + R_+ e_j,
      j != i, so it has dimension n - 1.
    - A facet normal a >= 0 with support F, |F| >= 2, has a positive
      offset: were it 0, its face would lie in {x >= 0 : x_F = 0}, of
      dimension n - |F| < n - 1.  hull_inequalities lists every facet
      with positive offset, so its normals with two or more nonzero
      entries, with the e_i, are every facet normal of the sum,
      wherever a translation puts it.
    The hull cap counts the same candidates as on the sum with its
    principal factors: a sum with one point translates every
    projection, and its minimal projections with it.
    """
    points = {(0,) * n}
    for gens in supports:
        # dominated sums never support a facet
        points = _minimalize(
            tuple(x + y for x, y in zip(p, g)) for p in points for g in gens
        )
    coordinate = tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
    return coordinate + tuple(
        a for a, _ in hull_inequalities(points, n) if a.count(0) < n - 1
    )


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
    factors = [(ideal, c) for ideal, c in prod.factors if c]
    if not factors:
        if not prod.factors:
            raise InputError("product needs at least one factor")
        return MonomialIdeal.unit(prod.arity)
    n = factors[0][0].arity
    if n > MAX_ARITY:
        raise SizeError(f"multiplier ideals capped at arity {MAX_ARITY}")
    key = sorted((ideal.generators, c.numerator, c.denominator) for ideal, c in factors)
    return _multiplier(tuple(key), n)


@lru_cache(maxsize=CACHE_BOUND)
def _minima(gens, supports, n):
    """min <a, g> over gens for each normal a of _support_normals(supports, n)."""
    return tuple(
        min(sum(x * y for x, y in zip(a, g)) for g in gens)
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
        raise SizeError(
            f"multiplier-ideal scan capped at {MAX_SCAN_PREFIXES} prefixes "
            f"(this product needs {prefixes})"
        )
    if corner[-1] >= 10**MAX_HEIGHT_DIGITS:
        raise SizeError(
            f"multiplier-ideal box height capped at {MAX_HEIGHT_DIGITS} digits"
        )

    flat, last = [], []
    supports = tuple(sorted({gens for gens, _, _ in key if len(gens) > 1}))
    minima = [_minima(gens, supports, n) for gens, _, _ in key]
    for a, *mins in zip(_support_normals(supports, n), *minima):
        b = sum(w * m for w, m in zip(weights, mins))
        t = b // scale + 1 - sum(a)
        if t > 0:  # else <a, v> >= t holds on the whole orthant
            (last if a[-1] else flat).append((a[:-1], a[-1], t))

    if n == 1:  # no prefix entries: the one generator is (h(),)
        h = max([0] + [-(-t // an) for _, an, t in last])
        return MonomialIdeal._minimal(1, ((h,),))

    top = corner[-2]
    lines = {}  # line u -> (xs, hs): the entries x where h steps, and h there
    members = []
    for u in product(*(range(c + 1) for c in corner[:-2])):
        xs, hs = lines[u] = [], []
        lo, floor, moving = 0, 0, []
        for a, an, t in flat + last:
            r = t - sum(x * y for x, y in zip(a, u))  # zip stops before a_x
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
      witness.  The sweep returns there without building RHS(2D): it
      holds RHS(D), and it lies in the LHS by the easy inclusion of
      the formula, so it could only be the same ideal again.
    The witness is returned only where the refinement 2D is within the
    sweep's limits, read without sweeping it: 2D <= denom_bound, and
    its C(c * 2D + l - 1, l - 1) splittings within MAX_SPLITS.  So the
    sweep stops where it did when it built RHS(2D) to confirm: past
    denom_bound it raises InconclusiveError, which is distinct from a
    mismatch, and past MAX_SPLITS, SizeError.

    Only the new splittings of a refinement are swept.  A splitting m
    of c * 2D units whose entries are all even has c_i = m_i / (2D) =
    (m_i / 2) / D, so it is the splitting m / 2 at D, with the same
    product and the same ideal; and every splitting at D arises so.
    Hence the RHS at 2D is the RHS at D plus the ideals of the
    splittings with an odd entry.  MAX_SPLITS still counts every
    splitting at each D, so the cap trips at the same D as a full
    sweep would.  The parts together may have at most MAX_GENERATORS
    generators, checked before their sum is built.
    """
    c0, c = rat(c0), rat(c)
    integer("denom_bound", denom_bound)
    if not parts:
        raise InputError("need at least one summand ideal")
    arity = parts[0].arity
    if a0.arity != arity or any(p.arity != arity for p in parts):
        raise InputError("all ideals must share one arity")
    _cap_summed_parts(sum(len(p.generators) for p in parts))

    total = MonomialIdeal(arity, [g for p in parts for g in p.generators])
    lhs = multiplier_ideal([(a0, c0), (total, c)])

    def units_at(D):
        """c * D, the units of 1/D that c splits into; SizeError when
        their splittings among the parts pass MAX_SPLITS."""
        # D is a multiple of c's denominator: c splits into c * D parts of 1/D
        units = c.numerator * D // c.denominator
        if math.comb(units + len(parts) - 1, len(parts) - 1) > MAX_SPLITS:
            raise SizeError(f"more than {MAX_SPLITS} splittings at denominator {D}")
        return units

    def rhs_at(D, prev):
        """The RHS at D, given prev, the RHS at D / 2 (None at the first D)."""
        gens = [] if prev is None else list(prev.generators)
        for split in _compositions(units_at(D), len(parts)):
            if prev is not None and not any(m % 2 for m in split):
                continue  # the splitting split / 2 at D / 2
            factors = [(a0, c0)] + [
                (p, Fraction(m, D)) for p, m in zip(parts, split)
            ]
            gens.extend(multiplier_ideal(factors).generators)
        return MonomialIdeal(arity, gens)

    D = c.denominator
    prev = None
    while D <= denom_bound:
        cur = rhs_at(D, prev)
        if not cur.issubset(lhs):
            return SummationResult(
                equal=False, witness_denominator=D, lhs=lhs, rhs=cur
            )
        if cur == lhs and 2 * D <= denom_bound:
            units_at(2 * D)  # past MAX_SPLITS, raise as building RHS(2D) would
            return SummationResult(
                equal=True, witness_denominator=D, lhs=lhs, rhs=cur
            )
        prev = cur
        D *= 2
    raise InconclusiveError(
        f"splitting sum did not stabilize with denominators up to {denom_bound}"
    )


def _compositions(total, parts):
    """Every way to write total as parts ordered nonnegative integers,
    in lexicographic order: the parts - 1 bars among total + parts - 1
    places of stars and bars, the bars' positions taken in order."""
    places = total + parts - 1
    for bars in combinations(range(places), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (places,)))
