"""Flag-ideal test configurations on the projective line.

A flag of ideals on P^1 is a pointwise-increasing chain of effective
divisors.  Raising the associated ideal on the product with the
affine line to the power ks produces a filtration whose dimension
count gives the total weight w(k); the Donaldson-Futaki invariant is
then read off the degree-2 weight polynomial.  Everything here runs
on exact integers and rationals.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, SizeError
from .polynomials import SampleGrid, UniPoly, df_coefficient, stabilized_fit
from .rationals import rat, rat_str

DEFAULT_MULTIPLIERS = (2, 3, 4, 5, 6, 8)
# weight's cap on k*s: blind escalation at s = 1 reaches base 60 times multiplier 8
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


def _minplus_power(cost, ks):
    """ks-fold (min,+) convolution power of a cost vector.

    cost[t] is the price of a part of size t (cost[0] = 0); the
    result at j is the cheapest way to write j as a sum of ks parts
    of sizes 0..M.
    """
    m = len(cost) - 1
    cur = [0]
    for _ in range(ks):
        rows = []
        pad_total = m
        for t, ct in enumerate(cost):
            rows.append(
                [_INF] * t + [x + ct for x in cur] + [_INF] * (pad_total - t)
            )
        cur = list(map(min, *rows))
    return cur


_tilde_cache = {}


def tilde_divisors(flag, ks):
    """Divisors of the power-ideal summands, via min-plus convolution.

    On a smooth curve a sum of divisorial ideals is the ideal of the
    pointwise minimum and a product adds divisors, so each point can
    be treated independently: the j-th divisor takes, at p, the
    cheapest split of j into at most ks parts weighted by the flag
    multiplicities at p.
    """
    if ks < 1:
        raise InputError("ks must be >= 1")
    labels = flag.points()
    per_point = {}
    for label in labels:
        cost = tuple(d.at(label) for d in flag.divisors)
        key = ((0,) + cost, ks)
        if key not in _tilde_cache:
            _tilde_cache[key] = _minplus_power([0] + list(cost), ks)
        per_point[label] = _tilde_cache[key]
    length = flag.M * ks + 1
    divisors = []
    for j in range(length):
        divisors.append(
            PointDivisor({label: per_point[label][j] for label in labels})
        )
    return TildeFamily(ks=ks, divisors=tuple(divisors))


def weight(flag, k, s):
    """Total weight w(k) from the filtration dimension count.

    dim F_j = h^0(P^1, O(2k)(-tilde_D_j)) = max(0, 2k + 1 - deg),
    m = sum of the dims for j = 1 .. M*ks, and w = m - N*M*ks.
    """
    s = rat(s)
    if k < 1:
        raise InputError("k must be >= 1")
    ks = k * s
    if ks.denominator != 1 or ks < 1:
        raise InputError(f"k*s must be a positive integer (got {rat_str(ks)})")
    if ks > MAX_KS:
        raise SizeError(f"k*s capped at {MAX_KS} (got {ks})")
    ks = int(ks)
    family = tilde_divisors(flag, ks)
    N = 2 * k + 1
    m = sum(
        max(0, N - d.degree) for d in family.divisors[1:]
    )
    return m - N * flag.M * ks


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


def donaldson_futaki(flag, s, k_base=1, multipliers=DEFAULT_MULTIPLIERS):
    """Donaldson-Futaki invariant of the flag configuration.

    Samples w on the grid k = k_base * den(s) * multipliers, fits a
    degree <= 2 polynomial with stabilization detection, and extracts
    DF as the bilinear coefficient against N_k = 2k + 1.  DF0 carries
    the curve normalization 2*(2!)^2 / deg(-K) = 4, and the leading
    coefficient doubles as the inferred top self-intersection of the
    polarization.  Semiampleness of the polarization is not checked;
    the report says so explicitly.
    """
    s = rat(s)
    if s <= 0:
        raise InputError("s must be a positive rational")
    if k_base < 1:
        raise InputError("k_base must be >= 1")
    if len(multipliers) < 5:
        raise InputError("grid needs at least 5 points")
    k0 = k_base * s.denominator
    ks = sorted(k0 * m for m in set(multipliers))
    grid = SampleGrid([(k, Fraction(weight(flag, k, s))) for k in ks], base=k0)
    w_poly, onset = stabilized_fit(grid, 2)
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
