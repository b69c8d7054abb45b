"""Flag-ideal test configurations on the projective line.

A flag of ideals on P^1 is a pointwise-increasing chain of effective
divisors.  Raising the associated ideal on the product with the
affine line to the power ks produces a filtration whose dimension
count gives the total weight w(k); the Donaldson-Futaki invariant is
then read off the degree-2 weight polynomial.  The ks-th power is
built one part at a time, so one forward min-plus sweep per (flag, s)
serves every k a call samples: each grid base an escalation tries and
its refinement check.  Each part step convolves only the band of a
row that a new part can still change, and w(k) sums the rows only
below the point where their total reaches N = 2k + 1.  Everything
here runs on exact integers and rationals.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import GridTooShortError, InputError, SizeError
from .polynomials import SampleGrid, UniPoly, df_coefficient, stabilized_fit
from .rationals import rat, rat_str

DEFAULT_MULTIPLIERS = (2, 3, 4, 5, 6, 8)
# an accepted fit must also reproduce w at these multiples of the base
REFINE_MULTIPLIERS = (10, 12)
# cap on the part count (k*s for weight, ks for tilde_divisors): escalation
# at s = 1 reaches base 40 times refinement 12
MAX_KS = 480

_INF = 1 << 62  # sentinel for unreachable min-plus states; exact arithmetic only

N_POLY = UniPoly([1, 2])  # section count of O(2k) on P^1: N_k = 2k + 1


@dataclass(frozen=True)
class PointDivisor:
    """Effective divisor on P^1: point label -> multiplicity."""

    multiplicities: tuple  # sorted (label, mult) pairs, zeros dropped

    def __init__(self, multiplicities):
        items = []
        for label, mult in dict(multiplicities).items():
            if type(mult) is not int or mult < 0:
                raise InputError("multiplicities must be nonnegative integers")
            if mult > 0:
                items.append((str(label), mult))
        object.__setattr__(self, "multiplicities", tuple(sorted(items)))

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
        labels = set()
        for d in self.divisors:
            labels.update(label for label, _ in d.multiplicities)
        return sorted(labels)

    def to_json(self):
        return {
            "M": self.M,
            "points": self.points(),
            "divisors": [d.to_json() for d in self.divisors],
        }


def validate_flag(flag):
    """Reject non-increasing chains and the trivial configuration."""
    prev = None
    labels = flag.points()
    for d in flag.divisors:
        if prev is not None:
            for label in labels:
                if d.at(label) < prev.at(label):
                    raise InputError(
                        "divisors must be pointwise increasing along the flag"
                    )
        prev = d
    if flag.divisors[-1].is_zero():
        raise InputError("trivial configuration (blowup is isomorphism)")


def flag_from_json(data):
    if not isinstance(data, dict):
        raise InputError("flag JSON must be an object")
    if "divisors" not in data:
        raise InputError("flag JSON missing field 'divisors'")
    divisors = data["divisors"]
    if not isinstance(divisors, list) or not all(
        isinstance(d, dict) for d in divisors
    ):
        raise InputError("field 'divisors' must be a list of objects")
    if "M" in data and data["M"] != len(divisors):
        raise InputError("field 'M' disagrees with the divisor list length")
    return FlagIdealP1([PointDivisor(d) for d in divisors])


@dataclass(frozen=True)
class TildeFamily:
    """Divisors of the ks-th power ideal, indexed 0 .. M*ks."""

    ks: int
    divisors: tuple


def _point_costs(flag):
    """costs[p][t]: the price at point p of a part of size t (0 for t = 0)."""
    return [[0] + [d.at(label) for d in flag.divisors] for label in flag.points()]


def _minplus_step(costs, rows):
    """One more part at every point, by (min,+) convolution with its costs.

    If entry j of rows[p] is the cheapest way to write j as n parts in
    0..M priced by costs[p] (costs[p][0] = 0), the returned rows hold
    the same for n + 1; n is read off the row length M*n + 1.  Two
    pigeonhole arguments settle all but a band of the new row:

    - j <= n: n + 1 parts summing to j include a zero part, which
      costs nothing, so the entry is row[j] unchanged.
    - j >= (M - 1)*n + M: the deficits M - t of the n + 1 parts sum to
      M*(n + 1) - j <= n, so some part is M and the entry is
      row[j - M] + costs[M].

    Only j in [n + 1, (M - 1)*n + M) takes the minimum over every part
    size, reading row[n + 1 - M : (M - 1)*n + M]; the band is
    (M - 2)*n + O(M) wide, empty or one entry for M <= 2.
    """
    stepped = []
    for row, cost in zip(rows, costs):
        m = len(cost) - 1
        n = (len(row) - 1) // m
        lo, hi = n + 1, max(n + 1, (m - 1) * n + m)
        # while n < m - 1 the band reads past both ends of the row
        pad = max(0, m - 1 - n)
        wide = [_INF] * pad + row + [_INF] * pad if pad else row
        # costs[0] = 0: the zero part's term is the slice itself
        band = map(min, wide[pad + lo:pad + hi], *(
            [x + ct for x in wide[pad + lo - t:pad + hi - t]]
            for t, ct in enumerate(cost[1:], 1)
        ))
        stepped.append(row[:lo] + list(band) + [x + cost[m] for x in row[hi - m:]])
    return stepped


def _positive_int(name, value):
    """value if it is an int >= 1; bools are rejected, as in PointDivisor."""
    if type(value) is not int or value < 1:
        raise InputError(f"{name} must be an integer >= 1")
    return value


def tilde_divisors(flag, ks):
    """Divisors of the power-ideal summands, via min-plus convolution.

    On a smooth curve a sum of divisorial ideals is the ideal of the
    pointwise minimum and a product adds divisors, so each point can
    be treated independently: the j-th divisor takes, at p, the
    cheapest split of j into at most ks parts weighted by the flag
    multiplicities at p.  ks above MAX_KS raises SizeError.
    """
    if _positive_int("ks", ks) > MAX_KS:
        raise SizeError(f"ks capped at {MAX_KS} (got {ks})")
    costs = _point_costs(flag)
    rows = [[0] for _ in costs]
    for _ in range(ks):
        rows = _minplus_step(costs, rows)
    labels = flag.points()
    divisors = tuple(PointDivisor(dict(zip(labels, col))) for col in zip(*rows))
    return TildeFamily(ks=ks, divisors=divisors)


def _parts(k, s):
    """The part count n = k*s behind w(k), checked against MAX_KS."""
    n, rest = divmod(_positive_int("k", k) * s.numerator, s.denominator)
    if rest or n < 1:
        raise InputError(f"k*s must be a positive integer (got {rat_str(k * s)})")
    if n > MAX_KS:
        raise SizeError(f"k*s capped at {MAX_KS} (got {n})")
    return n


class _Sweep:
    """Total weights w(k) of one flag at one s, from one forward sweep.

    dim F_j = h^0(P^1, O(2k)(-tilde_D_j)) = max(0, N - deg_j) with
    N = 2k + 1, and w = sum_{j=1..M*ks} dim F_j - N*M*ks, so
    w(k) = -sum_{j=1..M*ks} min(N, deg_j) with deg_j the sum of the
    per-point min-plus rows at j after ks parts (row[0] = 0 adds
    nothing).  The rows only ever gain parts: passing n = k*s records
    w(k) for every integral k on the way, so a later query at a
    smaller k is a lookup and a larger one resumes from the last row.

    Each row is nondecreasing in j: the costs of a valid flag are, so
    lowering one nonzero part of an optimum for j + 1 gives n parts
    summing to j that cost no more.  Hence deg_j is nondecreasing and
    the terms min(N, deg_j) are deg_j below the first j with
    deg_j >= N and N from there on (see _total_weight).
    """

    def __init__(self, flag, s):
        self.s = rat(s)
        self._costs = _point_costs(flag)
        self._rows = [[0] for _ in self._costs]
        self._n = 0
        self._w = {}

    def weight(self, k):
        n = _parts(k, self.s)
        if n > self._n:
            self._advance(n)
        return self._w[k]

    def _advance(self, n):
        num, den = self.s.numerator, self.s.denominator
        costs, rows = self._costs, self._rows
        for parts in range(self._n + 1, n + 1):
            rows = _minplus_step(costs, rows)
            if parts % num == 0:
                k = parts // num * den
                self._w[k] = _total_weight(rows, 2 * k + 1)
        self._rows, self._n = rows, n


def _total_weight(rows, N):
    """-sum_j min(N, deg_j), deg the column sum of nondecreasing rows.

    Costs are nonnegative, so deg_j >= rows[p][j] for every point and
    deg reaches N no later than the first row to reach it: the rows
    are added only up to there.
    """
    cut = min(bisect_left(row, N) for row in rows)
    deg = rows[0][:cut]
    for row in rows[1:]:
        deg = list(map(add, deg, row))
    cross = bisect_left(deg, N)
    return -(sum(deg[:cross]) + N * (len(rows[0]) - cross))


def weight(flag, k, s):
    """Total weight w(k) from the filtration dimension count."""
    return _Sweep(flag, s).weight(k)


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


def donaldson_futaki(flag, s, k_base=1):
    """Donaldson-Futaki invariant of the flag configuration.

    Samples w at k = k0 * DEFAULT_MULTIPLIERS, k0 = k_base * den(s),
    fits a degree <= 2 polynomial with stabilization detection, and
    raises GridTooShortError unless the fit also reproduces w at
    k0 * REFINE_MULTIPLIERS (same sweep, kept out of the report).  DF
    is the bilinear coefficient against N_k = 2k + 1, DF0 carries the
    curve normalization 2*(2!)^2 / deg(-K) = 4, and the leading
    coefficient doubles as the inferred (Lbar^2).  Semiampleness of
    the polarization is not checked; the report says so explicitly.
    """
    return _fit(_Sweep(flag, s), k_base)


def _fit(sweep, k_base):
    """donaldson_futaki at one grid base, reading w from a shared sweep.

    Every sample point, refinement included, is checked against
    MAX_KS before the sweep takes a step.
    """
    s = sweep.s
    if s <= 0:
        raise InputError("s must be a positive rational")
    k0 = _positive_int("k_base", k_base) * s.denominator
    for m in DEFAULT_MULTIPLIERS + REFINE_MULTIPLIERS:
        _parts(k0 * m, s)
    grid = SampleGrid(
        [(k0 * m, Fraction(sweep.weight(k0 * m))) for m in DEFAULT_MULTIPLIERS],
        base=k0,
    )
    w_poly, onset = stabilized_fit(grid, 2)
    for m in REFINE_MULTIPLIERS:
        if w_poly(k0 * m) != sweep.weight(k0 * m):
            raise GridTooShortError(f"refinement misses w({k0 * m})", largest_k=k0 * m)
    df = df_coefficient(w_poly, N_POLY, 1)
    return DFReport(
        s=s,
        k_grid=grid,
        w_poly=w_poly,
        N_poly=N_POLY,
        DF=df,
        DF0=4 * df,
        inferred_Lbar_sq=2 * w_poly.coeff(2),
        onset_k=onset,
    )
