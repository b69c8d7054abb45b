"""Flag-ideal test configurations on the projective line.

A flag of ideals on P^1 is a pointwise-increasing chain of effective
divisors.  Raising the associated ideal on the product with the
affine line to the power ks gives a filtration whose dimension count
is the total weight w(k).  The Donaldson-Futaki invariant needs only
the k^2 and k coefficients of w, which come in closed form from the
lower convex envelopes of the flag's multiplicities, and DF = w2 - 2 w1
is read straight off them.  The counted weights confirm them at the
first grid base 1, 2, 3, ... that reproduces them, a walk that the
part-count cap MAX_KS ends, and fill the report's own types: the
SampleGrid of (k, w(k)) and the UniPoly w_poly with its constant
term.  One short min-plus sweep per point cost, kept in a bounded
process-wide cache (_Point), serves every flag, s and k that reads the
point, and the power-ideal divisors too: a part step is one (min,+)
convolution of the row with the point's costs, and a point stops once
its row certifies its own stretch.  Everything here is exact, and the
escalation runs on integers over an exact common denominator: the
closed form sums the envelopes scaled by the lcm of their segment
lengths, and a grid base compares integer residuals over the
denominator of (w2, w1), stopping at its first miss.  Fractions are
built only on the one interval where s D^ crosses 2, for (w2, w1), and
for the report of the accepted base.
"""

import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, pairwise
from math import lcm
from operator import add

from .errors import InputError, SizeError
from .rationals import fields, integer, rat, rat_str

DEFAULT_MULTIPLIERS = (2, 3, 4, 5, 6, 8)
# an accepted base must leave the same residual at these multiples of it
REFINE_MULTIPLIERS = (10, 12)
# cap on the part count (k*s for weight, ks for tilde_divisors); it also
# ends the escalation walk, at base 41 for s = 1 (refinement 12 gives 492)
MAX_KS = 480
# cap on the flag length M: each part step and the envelope shortest
# paths grow with M, and escalation may walk up to 40 bases
MAX_M = 16
# cap on the number of points: every part step and weight read walks
# each point's row
MAX_POINTS = 8
# cap on a multiplicity: a min-plus row entry prices at most MAX_KS + 1
# parts, and an excess path (_mean_excess) fewer than M parts, each at
# most M times the largest multiplicity, M <= MAX_M; so every real
# cost stays below _INF while (MAX_KS + 1) * MAX_MULTIPLICITY < 2^62
MAX_MULTIPLICITY = 10**15
# cap on the digits of num(s) and den(s): the grid's k grow with den(s),
# w2 with den(s)^2 and the part counts in the k*s message with num(s),
# and each must convert to a string, which Python limits to 4300 digits
# by default (640 at the least)
MAX_S_DIGITS = 100
POINT_CACHE = 256  # cap on the points kept stepped (_Point)

_INF = 1 << 62  # sentinel for unreachable min-plus states; exact arithmetic only


@dataclass(frozen=True)
class PointDivisor:
    """Effective divisor on P^1: point label -> multiplicity."""

    multiplicities: tuple  # sorted (label, mult) pairs, zeros dropped

    def __init__(self, multiplicities):
        items = {}
        for label, mult in dict(multiplicities).items():
            if type(mult) is not int or mult < 0:
                raise InputError("multiplicities must be nonnegative integers")
            if str(label) in items:
                raise InputError(f"point label {str(label)!r} repeats")
            items[str(label)] = mult
        object.__setattr__(self, "multiplicities", tuple(
            sorted((label, mult) for label, mult in items.items() if mult > 0)
        ))

    @property
    def degree(self):
        return sum(m for _, m in self.multiplicities)

    def at(self, label):
        return dict(self.multiplicities).get(label, 0)

    def is_zero(self):
        return not self.multiplicities

    def to_json(self):
        return {label: mult for label, mult in self.multiplicities}


@dataclass(frozen=True)
class FlagIdealP1:
    """The chain D_1 <= ... <= D_M of divisors encoding a flag of ideals."""

    M: int
    divisors: tuple

    def __init__(self, divisors):
        divisors = tuple(
            d if isinstance(d, PointDivisor) else PointDivisor(d)
            for d in divisors
        )
        if not divisors:
            raise InputError("flag needs at least one divisor")
        object.__setattr__(self, "M", len(divisors))
        object.__setattr__(self, "divisors", divisors)
        validate_flag(self)

    def points(self):
        return sorted({label for d in self.divisors for label, _ in d.multiplicities})

    def to_json(self):
        return {
            "M": self.M,
            "points": self.points(),
            "divisors": [d.to_json() for d in self.divisors],
        }


def _cost_table(flag):
    """[0, D_1(p), ..., D_M(p)] for each point p, each divisor read once."""
    columns = [dict(d.multiplicities) for d in flag.divisors]
    return [[0] + [col.get(label, 0) for col in columns] for label in flag.points()]


def validate_flag(flag):
    """Reject non-increasing chains and the trivial configuration."""
    for row in _cost_table(flag):
        if any(a > b for a, b in zip(row, row[1:])):
            raise InputError("divisors must be pointwise increasing along the flag")
    if flag.divisors[-1].is_zero():
        raise InputError("trivial configuration (blowup is isomorphism)")


def flag_from_json(data):
    (divisors,) = fields(data, "flag", "divisors")
    if not isinstance(divisors, list) or not all(
        isinstance(d, dict) for d in divisors
    ):
        raise InputError("field 'divisors' must be a list of objects")
    if "M" in data:
        if type(data["M"]) is not int:
            raise InputError("field 'M' must be an integer")
        if data["M"] != len(divisors):
            raise InputError("field 'M' disagrees with the divisor list length")
    return FlagIdealP1([PointDivisor(d) for d in divisors])


@dataclass(frozen=True)
class TildeFamily:
    """Divisors of the ks-th power ideal, indexed 0 .. M*ks."""

    ks: int
    divisors: tuple


def _point_costs(flag):
    """costs[p][t]: the price at point p of a part of size t (0 for t = 0).

    Every computation on the flag's multiplicities reads them here, so
    this is where the flag length is capped at MAX_M, the number of
    points at MAX_POINTS and each multiplicity, the last of its
    nondecreasing row, at MAX_MULTIPLICITY.
    """
    if flag.M > MAX_M:
        raise SizeError(f"flag length M capped at {MAX_M} (got {flag.M})")
    costs = _cost_table(flag)
    if len(costs) > MAX_POINTS:
        raise SizeError(f"flag points capped at {MAX_POINTS} (got {len(costs)})")
    if any(cost[-1] > MAX_MULTIPLICITY for cost in costs):
        raise SizeError(f"flag multiplicities capped at {MAX_MULTIPLICITY}")
    return costs


def _minplus_step(cost, row):
    """One more part at one point: if entry j of row is the cheapest way
    to write j as n parts in 0..M priced by cost (cost[0] = 0), the
    returned row, min_t row[j - t] + cost[t], holds the same for n + 1."""
    pad = [_INF] * (len(cost) - 1)
    # cost[0] = 0: the zero part's term is the row itself
    return list(map(min, row + pad, *(
        pad[:t] + [x + c for x in row] + pad[t:] for t, c in enumerate(cost[1:], 1)
    )))


class _Point:
    """One point's min-plus rows, shared by every flag, s and call.

    The row at n parts depends on the costs (0, D_1(p), ..., D_M(p)) alone,
    not on the label, the other points or s.  Rows are stepped in place,
    each part once and under the point's lock, until _certify passes the
    row R at n0 parts; a row at n > n0 parts is R stretched by n - n0
    periods, built up to its first entry >= cap.  Rows handed out are shared
    and never mutated.  _point keeps the POINT_CACHE points read last, keyed
    on the cost tuple, each with its rows up to n0, M n + 1 entries at n
    parts: 9,555 at the most measured (M = 16, every envelope segment of
    length 1, n0 = 34), and MAX_KS + 1 rows if it never certified.
    """

    def __init__(self, cost):
        self.cost = cost
        self.segments = _envelope(cost)
        self.rows = [[0]]  # up to the certified R, the last once cuts is set
        self.cuts = None
        self._lock = threading.Lock()

    def row(self, n, cap=_INF):
        if self.cuts is None and len(self.rows) <= n:
            with self._lock:
                while self.cuts is None and len(self.rows) <= n:
                    stepped = _minplus_step(self.cost, self.rows[-1])
                    self.cuts = _certify(self.segments, self.rows[-1], stepped)
                    if self.cuts is None:
                        self.rows.append(stepped)
        if n < len(self.rows):
            return self.rows[n]
        return _stretch(self.rows[-1], self.cuts, n - len(self.rows) + 1, cap)


_point = lru_cache(maxsize=POINT_CACHE)(_Point)


def tilde_divisors(flag, ks):
    """Divisors of the power-ideal summands, via min-plus convolution.

    On a smooth curve a sum of divisorial ideals is the ideal of the
    pointwise minimum and a product adds divisors, so each point can
    be treated independently: the j-th divisor takes, at p, the
    cheapest split of j into at most ks parts weighted by the flag
    multiplicities at p, each point's row its _Point's.  ks above
    MAX_KS raises SizeError.
    """
    if integer("ks", ks) > MAX_KS:
        raise SizeError(f"ks capped at {MAX_KS} (got {ks})")
    labels, rows = flag.points(), [p.row(ks) for p in _Sweep(flag, 1).points]
    divisors = tuple(PointDivisor(dict(zip(labels, col))) for col in zip(*rows))
    return TildeFamily(ks=ks, divisors=divisors)


def _parts(k, s):
    """The part count n = k*s behind w(k), checked against MAX_KS; s > 0
    is checked where the _Sweep is built."""
    n, rest = divmod(integer("k", k) * s.numerator, s.denominator)
    if rest:
        raise InputError(f"k*s must be a positive integer (got {rat_str(k * s)})")
    return _capped(n)


def _capped(n):
    if n > MAX_KS:
        raise SizeError(f"k*s capped at {MAX_KS} (got {n})")
    return n


class _Sweep:
    """Total weights w(k) of one flag at one s, read off its points' rows.

    dim F_j = h^0(P^1, O(2k)(-tilde_D_j)) = max(0, N - deg_j) with
    N = 2k + 1, and w = sum_{j=1..M*ks} dim F_j - N*M*ks, so
    w(k) = -sum_{j=1..M*ks} min(N, deg_j) with deg_j the sum of the
    per-point min-plus rows at j after ks parts (row[0] = 0 adds
    nothing), each row its _Point's; each w(k) is kept.

    Each row is nondecreasing in j: the costs of a valid flag are, so
    lowering one nonzero part of an optimum for j + 1 gives n parts
    summing to j that cost no more.  Hence deg_j is nondecreasing and
    the terms min(N, deg_j) are deg_j below the first j with
    deg_j >= N and N from there on (see _total_weight).

    s is checked here, after the flag's caps: it must be positive, and
    its numerator and denominator are capped at MAX_S_DIGITS digits.
    """

    def __init__(self, flag, s):
        self.s = rat(s)
        costs = _point_costs(flag)
        if self.s <= 0:
            raise InputError("s must be a positive rational")
        for part in ("denominator", "numerator"):
            if getattr(self.s, part) >= 10**MAX_S_DIGITS:
                raise SizeError(f"{part} of s capped at {MAX_S_DIGITS} digits")
        self.points = [_point(tuple(cost)) for cost in costs]
        self._M, self._w = flag.M, {}

    def weight(self, k):
        if k not in self._w:
            n, N = _parts(k, self.s), 2 * k + 1
            rows = [point.row(n, N) for point in self.points]
            self._w[k] = _total_weight(rows, N, self._M * n + 1)
        return self._w[k]


def _certify(segments, row, stepped):
    """A point's cuts (q, L, rise) if its row certifies its stretch.

    row is the point's min-plus row R at n parts, stepped the one at
    n + 1, and segments the point's envelope (_envelope).  Each envelope
    segment [a, b] of the point's costs c (L = b - a, rise = c(b) - c(a))
    gets the cut q = n a + floor(n L / 2), and I_d(R)
    (_stretch) copies R[q - L:q] d times before R[q:] at every cut,
    each copy and all after it lifted by rise more.  The row passes if
    at every cut (S) q - M - L >= q', the previous cut or 0, and
    (P) R[y] = R[y - L] + rise for y in [q - M, q), and (C) stepped =
    I_1(R).  Then the row at n + d parts is I_d(R) for every d >= 0.

    Proof.  step(X)[j] = min_t X[j - t] + c(t), t = 0..M, with entries
    outside a row infinite.
    1. step(I_d(R)) = I_d(step(R)).  Let I(X)[x] = X[x] for x < q and
       X[x - L] + rise for x >= q insert one period.  For j < q the
       step reads only entries left of q.  For j >= q it reads j - t >=
       q - M, where I(R)[j - t] = R[j - t - L] + rise by definition or
       by (P), so step(I(R))[j] = step(R)[j - L] + rise = I(step(R))[j].
       I(R) equals R left of q, so (P) holds for the next insertion, at
       the same or an earlier cut.
    2. I_d(I_1(R)) = I_{d+1}(R), the outer I_d cutting at the same
       numbers q.  By (S), I_1(R) holds R[q - a - L:q] shifted by a
       (the length of the earlier segments, a <= M) under one lift, so
       by (P) it is periodic on [q, q + a).  A period inserted anywhere
       in a periodic run gives the same row: cutting at q is cutting at
       q + a, next to the period I_1 inserted.
    By (C) the row at n + 1 is I_1(R); if the one at n + d is I_d(R),
    the one at n + d + 1 is step(I_d(R)) = I_d(step(R)) = I_d(I_1(R)) =
    I_{d+1}(R).  No onset needs proving: the row checks itself.
    """
    M = segments[-1][1]  # every envelope ends at t = M
    n = (len(row) - 1) // M
    cuts, last = [], 0
    for a, _, L, rise in segments:
        q = n * a + n * L // 2
        if q - M - L < last or any(row[y] != row[y - L] + rise
                                   for y in range(q - M, q)):
            return None
        cuts.append((q, L, rise))
        last = q
    return cuts if _stretch(row, cuts, 1, _INF) == stepped else None


def _stretch(row, cuts, d, cap):
    """row with d periods inserted at every cut (see _certify), built
    only up to its first entry >= cap, as the row is nondecreasing."""
    out, lift, start = [], 0, 0
    for q, L, rise in cuts:
        out += [x + lift for x in row[start:q]]
        if out[-1] >= cap:
            return out
        period = row[q - L:q]
        copies = d if rise == 0 else min(d, -((lift + period[0] - cap) // rise))
        out += [x + lift + t * rise for t in range(1, copies + 1) for x in period]
        lift, start = lift + d * rise, q
        if out[-1] >= cap:
            return out
    return out + [x + lift for x in row[start:]]


def _total_weight(rows, N, size):
    """-sum_j min(N, deg_j), j < size, deg the column sum of nondecreasing rows.

    Costs are nonnegative, so deg_j >= rows[p][j] for every point.  Each
    row is whole or ends at or past its first entry >= N (_stretch), so
    deg reaches N within the shortest row, if at all: the sum stops there.
    """
    deg = rows[0]
    for row in rows[1:]:
        deg = list(map(add, deg, row))
    cross = bisect_left(deg, N)
    return -(sum(deg[:cross]) + N * (size - cross))


def weight(flag, k, s):
    """Total weight w(k) from the filtration dimension count."""
    return _Sweep(flag, s).weight(k)


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial over Q; coeffs[i] is the coefficient of k^i."""

    coeffs: tuple

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __call__(self, x):
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coeff_strings(self):
        return [rat_str(c) for c in self.coeffs]


N_POLY = UniPoly([1, 2])  # section count of O(2k) on P^1: N_k = 2k + 1


@dataclass(frozen=True)
class SampleGrid:
    """The counted weights (k, w(k)) of a report, at multiples k of base.

    _fit builds it at strictly increasing k = base * DEFAULT_MULTIPLIERS;
    that is how "sufficiently divisible k" enters the report.
    """

    entries: tuple
    base: int = 1

    def ks(self):
        return [k for k, _ in self.entries]


@dataclass(frozen=True)
class DFReport:
    s: Fraction
    k_grid: SampleGrid
    w_poly: UniPoly
    N_poly: UniPoly
    DF: Fraction
    DF0: Fraction
    inferred_Lbar_sq: Fraction
    onset_k: int
    semiampleness_checked: bool = False

    def to_json(self):
        return {
            "s": rat_str(self.s),
            "k_grid": [
                {"k": k, "w": rat_str(v)} for k, v in self.k_grid.entries
            ],
            "w_poly": self.w_poly.coeff_strings(),
            "N_poly": self.N_poly.coeff_strings(),
            "DF": rat_str(self.DF),
            "DF0": rat_str(self.DF0),
            "inferred_Lbar_sq": rat_str(self.inferred_Lbar_sq),
            "onset_k": self.onset_k,
            "semiampleness_checked": self.semiampleness_checked,
        }


def donaldson_futaki(flag, s):
    """Donaldson-Futaki invariant of the flag configuration.

    DF is the coefficient of k^2 k' in w(k) k' N(k') - w(k') k N(k),
    N(k) = 2k + 1: that is w2 - 2 w1, both from _closed_form.  DF0
    carries the curve normalization 2*(2!)^2 / deg(-K) = 4, and the
    inferred (Lbar^2) is 2 w2.  The report's grid and constant term
    come from the first base 1, 2, 3, ... whose counted weights confirm
    w2 and w1 (see _fit), every base reading one _Sweep.  Semiampleness
    of the polarization is not checked; the report says so.

    The walk ends.  Base b samples up to k = 12 b den(s), whose part
    count is 12 b num(s), and _fit raises SizeError before any sample
    once that passes MAX_KS = 480, that is once b num(s) > 40.  So
    base floor(40 / num(s)) + 1 raises if no earlier base was accepted.
    """
    sweep = _Sweep(flag, s)
    w2, w1 = _closed_form(sweep.points, sweep.s)
    for base in count(1):
        report = _fit(sweep, base, w2, w1)
        if report is not None:
            return report


def _fit(sweep, base, w2, w1):
    """The DF report at one grid base, reading w from a shared sweep.

    Over q = lcm(den w2, den w1), w2 = p2/q and w1 = p1/q, the residual
    w(k) - w2 k^2 - w1 k is r(k)/q with the integer r(k) = q w(k) -
    (p2 k + p1) k.  With k0 = base * den(s), the base is accepted iff r
    is one value c at k0 * 3, 4, 5, 6, 8 and at k0 * REFINE_MULTIPLIERS
    (kept out of the report).  They are sampled in that order and a
    rejected base stops at its first miss and returns None.  Only an
    accepted base samples k0 * 2: onset_k is k0 * 2 if r is c there
    too, else k0 * 3.  Its report has w at k0 * DEFAULT_MULTIPLIERS and
    w_poly = c/q + w1 k + w2 k^2.  Every sample point is checked against
    MAX_KS before the sweep takes a step.
    """
    s = sweep.s
    k0 = base * s.denominator
    for m in DEFAULT_MULTIPLIERS + REFINE_MULTIPLIERS:
        _capped(base * m * s.numerator)  # k0 m s, the sample's part count
    q = lcm(w2.denominator, w1.denominator)
    p2, p1 = w2.numerator * (q // w2.denominator), w1.numerator * (q // w1.denominator)

    def residual(m):
        k = k0 * m
        return q * sweep.weight(k) - (p2 * k + p1) * k

    onset, first, *rest = DEFAULT_MULTIPLIERS + REFINE_MULTIPLIERS
    c = residual(first)
    if any(residual(m) != c for m in rest):
        return None
    grid = SampleGrid(
        tuple((k0 * m, Fraction(sweep.weight(k0 * m))) for m in DEFAULT_MULTIPLIERS),
        base=k0,
    )
    df = w2 - 2 * w1
    return DFReport(
        s=s,
        k_grid=grid,
        w_poly=UniPoly([Fraction(c, q), w1, w2]),
        N_poly=N_POLY,
        DF=df,
        DF0=4 * df,
        inferred_Lbar_sq=2 * w2,
        onset_k=k0 * (onset if residual(onset) == c else first),
    )


def _closed_form(points, s):
    """(w2, w1): the k^2 and k coefficients of w(k), from the envelopes.

    At a point, c(t) = point.cost[t] for parts t = 0..M, and c^ is the
    lower convex envelope of the points (t, c(t)), with integer
    vertices, 0 among them, and segments point.segments (_envelope).
    D^ = sum_p c^ is convex, nondecreasing and linear between
    integers; u* is the least u in [0, M] with s D^(u) >= 2, or M.
    On a segment [a, b] of c^, L = b - a, with line l, the excess
    x(t) = c(t) - l(t) is >= 0 (c >= c^ >= l) and 0 at a and b.
    e(rho), rho in Z/L, is the least total excess of parts whose
    offsets t - a sum to rho mod L: a shortest path on L nodes, of at
    most L - 1 parts (_mean_excess).  E(u) sums over the points the
    mean of e on the segment holding u.  Then

        w2 = -s int_0^M min(2, s D^(u)) du,
        w1 = -s (int_0^u* E(u) du + D^(u*)/2 + M - u*).

    Both are summed on integers: Q D^ and Q^2 E at the integers, Q the
    lcm of the envelope segment lengths L, and with s = num/den the
    unit intervals where num Q D^ <= 2 den Q throughout, a prefix, as
    one trapezoid.  Fractions enter only on the one interval where s D^
    crosses 2, and in the returned pair.

    Proof.  With n = ks and N = 2k + 1, w(k) = -sum_{j=1..Mn}
    min(N, deg_j), deg_j summing the least price P(j) of n parts
    summing to j over the points (see _Sweep); O(1) is bounded in k.
    1. If j/n is in [a, b], n parts summing to j have
       sum_i l(t_i) = n c^(j/n), so P(j) = n c^(j/n) + X(j), X(j) the
       least excess of such parts; their offsets sum to r = j - na, so
       X(j) >= e(r).  Padding e(r)'s path (offset sum R, |R| < LM)
       with parts a and b gives n parts summing to j once
       na + LM <= j <= nb - 2LM, where X(j) = e(r mod L).  Always
       X(j) <= max x: r // L parts b, one a + r % L, the rest a.
    2. h(u) = min(N, n D^(u)) is linear between the integers, where
       j = nu is integral, but for its one crossing with N, so the
       trapezoid rule gives sum_j h(j/n) = n int_0^M h + h(M)/2 + O(1).
       As n D^ = k s D^, n int_0^M min(2k, n D^) = k^2 s int_0^M
       min(2, s D^).  If n D^ reaches N, it does within 1/(n D^'(u*))
       of u*, with the left slope D^'(u*) >= D^(u*)/u* > 0; so 2k -> N
       adds n (M - u*) + O(1), and h(M)/2 = n D^(u*)/2 + O(1).
    3. deg_j = n D^(j/n) + X, X the sum of the points' X(j), bounded
       by step 1.  min(N, deg_j) - h(j/n) is X where n D^(j/n) + X <= N
       and 0 where n D^(j/n) >= N; by the slope in 2, O(1) many j are
       neither, so the excess adds sum_{j < nu*} X + O(1).  By 1, X
       runs through the L-periodic e on each segment but near its ends,
       and a period sums to L times its mean: n int_0^u* E du + O(1).
    Hence w(k) = w2 k^2 + w1 k + O(1): wherever w is a polynomial on a
    progression of k, its k^2 and k coefficients are w2 and w1.  A fat
    point of multiplicity m >= 2 at s = 1 has D^(u) = m u, E = 0 and
    u* = 2/m, so w2 = w1 = 2/m - 2 and DF0 = 4 (w2 - 2 w1) = 8 - 8/m.
    """
    M = len(points[0].cost) - 1
    Q = lcm(*(L for point in points for _, _, L, _ in point.segments))
    dhat = [0] * (M + 1)  # Q D^ at the integers
    ebar = [0] * M  # Q^2 E on each unit interval
    for point in points:
        for a, b, L, rise in point.segments:
            unit = Q // L
            excess = _mean_excess(point.cost, a, b) * unit * unit
            for t in range(a + 1, b + 1):
                dhat[t] += Q * point.cost[a] + rise * unit * (t - a)
                ebar[t - 1] += excess
    # s D^ = num (Q D^) / R, so s D^ <= 2 iff num (Q D^) <= 2 R; the unit
    # intervals where it holds throughout are a prefix, as D^ rises
    num, den = s.numerator, s.denominator
    R = den * Q
    full = 0
    while full < M and num * dhat[full + 1] <= 2 * R:
        full += 1
    # the trapezoid rule is exact on them: 2 R int_0^full s D^
    trapezoid = num * (sum(dhat[:full]) + sum(dhat[1:full + 1]))
    area = Fraction(trapezoid, 2 * R) + 2 * (M - full)
    excess, ustar = Fraction(sum(ebar[:full]), Q * Q), Fraction(full)
    y0 = num * dhat[full]
    if full < M and y0 < 2 * R:
        # s D^ crosses 2 at full + tau: min(2, s D^) has area
        # 2 - tau (2 - s D^(full)) / 2 on this interval
        tau = Fraction(2 * R - y0, num * dhat[full + 1] - y0)
        area -= tau * (2 * R - y0) / (2 * R)
        excess += tau * Fraction(ebar[full], Q * Q)
        ustar += tau
    # min(D^(M), 2/s) / 2: D^(M) where s D^ <= 2 on all of [0, M]
    half = Fraction(dhat[M], 2 * Q) if full == M else Fraction(den, num)
    return -s * area, -s * (excess + half + M - ustar)


def _envelope(cost):
    """The segments (a, b, L, rise) of the lower convex envelope of
    (t, cost[t]): L = b - a and rise = cost[b] - cost[a]."""
    return [(a, b, b - a, cost[b] - cost[a]) for a, b in pairwise(_lower_hull(cost))]


def _lower_hull(cost):
    """The vertices t of the lower convex envelope of (t, cost[t])."""
    hull = []
    for t, c in enumerate(cost):
        # drop the last vertex b while it is on or above the chord a -> t
        while len(hull) > 1 and (cost[hull[-1]] - cost[hull[-2]]) * (
            t - hull[-2]
        ) >= (c - cost[hull[-2]]) * (hull[-1] - hull[-2]):
            hull.pop()
        hull.append(t)
    return hull


def _mean_excess(cost, a, b):
    """L^2 times the mean of e over Z/L on the envelope segment [a, b],
    L = b - a: the sum over Z/L of L e, an integer.

    Excesses times L are integers.  Round i of relaxation settles the
    paths of i parts; part a + 1 (offset 1) reaches every residue.
    """
    L, rise = b - a, cost[b] - cost[a]
    parts = [
        ((t - a) % L, L * (c - cost[a]) - rise * (t - a)) for t, c in enumerate(cost)
    ]
    dist = [0] + [_INF] * (L - 1)
    for _ in range(L - 1):
        dist = [
            min(dist[v], *(dist[(v - d) % L] + x for d, x in parts)) for v in range(L)
        ]
    return sum(dist)
