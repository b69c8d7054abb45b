"""Log-canonical thresholds of central hyperplane arrangements.

The lct at the origin of a reduced central arrangement is the
minimum of rank/count over the intersection lattice (Mustata,
"Multiplier ideals of hyperplane arrangements", Trans. AMS 2006).
One exact engine, _closed_ranks, enumerates that lattice for any
arrangement, in integer arithmetic, as a map from each flat's closed
member set to its rank; a flat one rank below the whole arrangement
is closed without residuals, since its only cover is the top, and its
one join is counted where the flat is found.  intersection_lattice
builds the sorted Flats from that map; lct_central reads it in place,
takes the minimum by cross-multiplying integers and builds Flats only
for the minimizers.  Braid arrangements need no enumeration: their
lct is the closed form 2/g, proved in lct_braid.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .errors import InputError, SizeError
from .rationals import fields, integer, primitive, rat, rat_str

MAX_CANDIDATES = 2 ** 20
MAX_BRAID_G = 1000


@dataclass(frozen=True)
class LinearForm:
    """A nonzero linear form as its primitive integer row.

    Denominators are cleared and the entries divided by their gcd,
    with the first nonzero entry positive, so proportional forms are
    equal.
    """

    coefficients: tuple

    def __init__(self, coefficients):
        coeffs = [rat(c) for c in coefficients]
        if not any(coeffs):
            raise InputError("the zero form does not define a hyperplane")
        scale = lcm(*(c.denominator for c in coeffs))
        row = primitive([c.numerator * (scale // c.denominator) for c in coeffs])
        object.__setattr__(self, "coefficients", row)

    @property
    def dim(self):
        return len(self.coefficients)


@dataclass(frozen=True)
class CentralArrangement:
    """A reduced set of hyperplanes through the origin."""

    ambient_dim: int
    forms: tuple

    def __init__(self, ambient_dim, forms):
        integer("ambient dimension", ambient_dim)
        norm = tuple(
            f if isinstance(f, LinearForm) else LinearForm(f) for f in forms
        )
        if not norm:
            raise InputError("arrangement needs at least one hyperplane")
        for f in norm:
            if f.dim != ambient_dim:
                raise InputError("form length does not match ambient dimension")
        if len(set(norm)) != len(norm):
            raise InputError("duplicate hyperplanes: arrangement must be reduced")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "forms", norm)


@dataclass(frozen=True)
class Flat:
    """An intersection subspace with its lattice statistics.

    member_indices is the maximal set of hyperplanes containing the
    flat, as the sorted tuple of their indices; rank is its
    codimension, count the number of members.
    """

    member_indices: tuple
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "member_indices", tuple(sorted(self.member_indices)))
        if self.rank < 1 or not self.member_indices:
            raise InputError("flat must have rank >= 1 and count >= 1")

    @property
    def count(self):
        return len(self.member_indices)

    def to_json(self):
        return {
            "rank": self.rank,
            "count": self.count,
            "hyperplanes": list(self.member_indices),
        }


@dataclass(frozen=True)
class LctCertificate:
    value: Fraction
    minimizers: tuple

    def to_json(self):
        return {
            "lct": rat_str(self.value),
            "minimizers": [f.to_json() for f in self.minimizers],
        }


def intersection_lattice(arr):
    """All flats of the arrangement, ambient space excluded, sorted by
    rank, then count, then members: the flats of _closed_ranks(arr).
    """
    return _sorted_flats(_closed_ranks(arr).items())


def _sorted_flats(pairs):
    """Flats of (member set, rank) pairs, sorted by rank, then count,
    then members."""
    flats = [Flat(member_indices=members, rank=rk) for members, rk in pairs]
    flats.sort(key=lambda f: (f.rank, f.count, f.member_indices))
    return flats


def _closed_ranks(arr):
    """The map {closed member set: rank} of every flat, ambient space
    excluded.

    Closure by joins, with each flat keyed by its closed member set.
    Every form is read as its primitive integer row,
    LinearForm.coefficients, so the lattice is built in integers.  A
    flat carries the residual of each non-member form: a nonzero
    multiple of the form minus an element of the flat's span, zero on
    the pivot column of every join so far, primitive and with a
    positive leading entry.  Two non-members give the same join
    exactly when their residuals are proportional, hence equal, so the
    non-members fall into classes, one per covering flat, and a
    hyperplane absorbed by an earlier join from the same flat is never
    joined again.  Joining the class of r reduces every other residual
    s by one fraction-free step, r[p] * s - s[p] * r at r's first
    nonzero column p, divided by its gcd; none of these vanish, since
    only the class of r joins.  Every join counts as one candidate;
    more than MAX_CANDIDATES of them raise SizeError, checked after
    each flat's classes are joined.

    The penultimate rank needs no residuals.  Let R be the rank of the
    whole arrangement, the dimension of the span V of all the forms,
    and X a flat other than the top.  X has rank R - 1 exactly when its
    non-members form one class.  If X has rank R - 1, V / span(X) is
    one-dimensional, so the join of X with any non-member f is spanned
    by span(X) and f, which is V: every non-member gives the same
    join, the top, which holds every form.  Conversely, if every
    non-member gives the same join, that join holds every form, so it
    is the top, and it covers X.  So R is learnt, with no separate
    elimination, at the first flat whose residuals fall into one
    class, and from then on a flat of rank R - 1 is not kept to be
    joined: its one join, to the top, is counted as one examined
    candidate where the flat is found.  The flat that taught R is kept
    with its one class, so its join records the top.  The count of
    candidates, and with it where MAX_CANDIDATES trips, is that of the
    full residual enumeration.  R is the rank of the top, not
    ambient_dim: a non-essential arrangement has R < ambient_dim.
    """
    ambient = {}
    for i, f in enumerate(arr.forms):
        ambient.setdefault(f.coefficients, []).append(i)

    ranks = {}
    top = None  # R, the rank of the top, once a flat has one class
    stack = [(frozenset(), 0, ambient)]
    examined = 0
    while stack:
        members, rank, classes = stack.pop()
        examined += len(classes)
        for r, joined in classes.items():
            closed = members.union(joined)
            if closed in ranks:
                continue
            ranks[closed] = rank + 1
            if rank + 1 == top:
                continue  # the top: no non-members
            if rank + 2 == top:
                examined += 1  # a penultimate flat's one join, to the top
                continue
            for p, lead in enumerate(r):
                if lead:
                    break
            residuals = {}
            for s, others in classes.items():
                if s == r:
                    continue
                if s[p]:
                    s = primitive([lead * x - s[p] * y for x, y in zip(s, r)])
                residuals.setdefault(s, []).extend(others)
            if len(residuals) == 1:
                top = rank + 2
            stack.append((closed, rank + 1, residuals))
        if examined > MAX_CANDIDATES:
            raise SizeError(
                f"intersection lattice exceeds {MAX_CANDIDATES} "
                "candidate subspaces"
            )
    return ranks


def lct_central(arr):
    """Minimum of rank/count over all flats, with all minimizers.

    The minimum is read off the (member set, rank) pairs of
    _closed_ranks by cross-multiplying integers, and Flats are built
    only for the minimizers, sorted as intersection_lattice sorts
    them.  A reduced arrangement always has a (1, 1) flat, so the
    minimum never exceeds 1; starting from 1/1 keeps that cap as a
    hard guarantee.
    """
    ranks = _closed_ranks(arr)
    rank, count = 1, 1
    for members, r in ranks.items():
        if r * count < rank * len(members):
            rank, count = r, len(members)
    minimizers = _sorted_flats(
        (members, r) for members, r in ranks.items() if r * count == rank * len(members)
    )
    return LctCertificate(value=Fraction(rank, count), minimizers=tuple(minimizers))


# ---------------------------------------------------------------------------
# braid arrangements and the closed form


def braid_pairs(g):
    """The hyperplane index order used for braid arrangements."""
    return list(combinations(range(g), 2))


def braid_arrangement(g):
    """The arrangement of u_i - u_j = 0 over all pairs i < j."""
    integer("g", g, least=2)
    forms = []
    for i, j in braid_pairs(g):
        coeffs = [Fraction(0)] * g
        coeffs[i] = Fraction(1)
        coeffs[j] = Fraction(-1)
        forms.append(LinearForm(coeffs))
    return CentralArrangement(g, forms)


def lct_braid(g):
    """lct of the braid arrangement on g variables: 2/g, in closed form.

    The flats of the braid arrangement are the set partitions of
    {0..g-1} into blocks b_1, .., b_m (not all singletons), with
    rank sum(b_i - 1) and count sum(b_i (b_i - 1) / 2).  Each
    non-singleton block alone has ratio (b_i - 1) / (b_i (b_i - 1) / 2)
    = 2 / b_i, and the ratio of the partition is the mediant of these
    (singletons add 0 to both sums), so it is at least the smallest
    of them, 2 / max b_i, which is at least 2/g.  The first bound is
    tight only when all non-singleton blocks have the size max b_i,
    the second only when that size is g; together, only for the
    single block {0..g-1}.  So the lct is 2/g and its unique
    minimizer is the full diagonal, with all C(g, 2) hyperplanes and
    rank g - 1.  g is capped at MAX_BRAID_G, since the certificate
    lists every hyperplane.
    """
    value = lct_braid_value(g)
    diagonal = Flat(member_indices=range(comb(g, 2)), rank=g - 1)
    return LctCertificate(value=value, minimizers=(diagonal,))


def lct_braid_value(g):
    """lct_braid(g).value, with its checks on g, without the certificate."""
    if integer("g", g, least=2) > MAX_BRAID_G:
        raise SizeError(f"lct_braid capped at g = {MAX_BRAID_G}")
    return Fraction(2, g)


def diagonal_discrepancy(g, c):
    """Discrepancy of the small-diagonal blowup: g - 2 - c*g*(g-1)/2."""
    integer("g", g, least=2)
    c = rat(c)
    if c < 0:
        raise InputError("coefficient must be >= 0")
    return Fraction(g - 2) - c * Fraction(g * (g - 1), 2)


# ---------------------------------------------------------------------------
# JSON wire format


def arrangement_from_json(data):
    n, forms = fields(data, "arrangement", "n", "forms")
    if type(n) is not int:
        raise InputError("field 'n' must be an integer")
    if not isinstance(forms, list) or not all(isinstance(r, list) for r in forms):
        raise InputError("field 'forms' must be a list of coefficient lists")
    return CentralArrangement(n, [[rat(c) for c in row] for row in forms])
