"""Correctness oracles for the benchmark, written apart from kstab.

Nothing here imports kstab.  Every answer is exact (int or Fraction)
and depends only on the workload inputs, so the runner computes it
once per invocation and compares each round's outputs against it.

- Lattice: fraction-free rank and the flats reached from independent
  r-subsets of the forms; lct = min(1, n/m) for generic arrangements
  and 2/g with the full diagonal as the only minimiser for braid.
- Multiplier: Howald's description for products whose factors are
  monomials or have Newton polyhedron t * P(x_1^a_1, ..., x_n^a_n).
- DF: the total weight w(k) by an exact dimension count, with the
  power-ideal divisors from an incremental min-plus recursion.
"""

import math
from fractions import Fraction
from itertools import combinations


# ---------------------------------------------------------------------------
# lattice


def _primitive(row):
    g = 0
    for x in row:
        g = math.gcd(g, x)
    if g == 0:
        return None
    lead = next(x for x in row if x)
    if lead < 0:
        g = -g
    return tuple(x // g for x in row)


def _reduce(row, echelon):
    """Fraction-free reduction of an integer row against echelon rows.

    echelon is a list of (pivot, row) pairs with distinct pivots.  The
    result is zero exactly when row lies in their span.
    """
    row = list(row)
    for piv, e in echelon:
        c = row[piv]
        if c:
            p = e[piv]
            row = [p * x - c * y for x, y in zip(row, e)]
    return row


def _with_row(echelon, row):
    """Echelon extended by row, or None when row is dependent."""
    red = _reduce(row, echelon)
    prim = _primitive(red)
    if prim is None:
        return None
    piv = next(j for j, x in enumerate(prim) if x)
    return echelon + [(piv, prim)]


def rank(rows):
    """Rank of a list of integer rows by fraction-free elimination."""
    echelon = []
    for row in rows:
        ext = _with_row(echelon, row)
        if ext is not None:
            echelon = ext
    return len(echelon)


def integer_form(coefficients):
    """Primitive integer row proportional to a rational form."""
    den = 1
    for c in coefficients:
        den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
    return _primitive([int(Fraction(c) * den) for c in coefficients])


def lattice_flats(forms):
    """All flats as {frozenset(member indices): rank}.

    Every flat of rank r is the closure of some independent r-subset
    of the forms; the subsets are walked depth first so each echelon
    extends its parent's by one row.
    """
    rows = [integer_form(f) for f in forms]
    m = len(rows)
    flats = {}

    def walk(start, echelon):
        for i in range(start, m):
            ext = _with_row(echelon, rows[i])
            if ext is None:
                continue
            members = frozenset(
                j for j in range(m) if not any(_reduce(rows[j], ext))
            )
            flats[members] = len(ext)
            walk(i + 1, ext)

    walk(0, [])
    return flats


def is_generic(forms, n):
    """Every subset of at most n forms is independent."""
    rows = [integer_form(f) for f in forms]
    size = min(n, len(rows))
    return all(rank(list(s)) == size for s in combinations(rows, size))


def lattice_lct(forms, n):
    """(lct, minimisers) with minimisers as sorted (rank, count, members)."""
    flats = lattice_flats(forms)
    value = min(Fraction(r, len(mem)) for mem, r in flats.items())
    value = min(value, Fraction(1))
    mins = sorted(
        (r, len(mem), tuple(sorted(mem)))
        for mem, r in flats.items()
        if Fraction(r, len(mem)) == value
    )
    if is_generic(forms, n):
        expected = min(Fraction(1), Fraction(n, len(forms)))
        if value != expected:
            raise AssertionError(
                f"lattice oracle disagrees with min(1, n/m) = {expected}"
            )
    return value, mins


def braid_lct(g):
    """2/g, minimised only by the full diagonal (all C(g,2) pairs)."""
    pairs = g * (g - 1) // 2
    return Fraction(2, g), [(g - 1, pairs, tuple(range(pairs)))]


# ---------------------------------------------------------------------------
# monomial multiplier ideals (Howald)


def minimalize(vectors):
    """Minimal elements of a set of exponent vectors."""
    vs = sorted(set(map(tuple, vectors)))
    out = []
    for v in vs:
        if not any(w != v and all(a >= b for a, b in zip(v, w)) for w in vs):
            out.append(v)
    return out


def ideal_product(gens_a, gens_b):
    return minimalize(
        tuple(x + y for x, y in zip(g, h)) for g in gens_a for h in gens_b
    )


def product_shape(n, factors):
    """Reduce a product to (shift, C, a) for Howald's test.

    factors are dicts {"kind": "mono", "d": [...], "c": q} for x^d, or
    {"kind": "diag", "a": [...], "t": t, "c": q} for an ideal whose
    Newton polyhedron is t * P(x_1^a_1, ..., x_n^a_n).  Monomials
    translate the polyhedron by c*d; diagonal factors sharing one a
    scale it by sum(c*t).
    """
    shift = [Fraction(0)] * n
    scale = Fraction(0)
    a = None
    for f in factors:
        c = Fraction(f["c"])
        if f["kind"] == "mono":
            shift = [s + c * d for s, d in zip(shift, f["d"])]
        else:
            if a is not None and list(f["a"]) != a:
                raise ValueError("diagonal factors must share one a")
            a = list(f["a"])
            scale += c * f["t"]
    return shift, scale, a


def howald_member(v, shift, scale, a):
    """x^v is in the multiplier ideal iff y = v + 1 - shift is interior."""
    y = [x + 1 - s for x, s in zip(v, shift)]
    if any(t <= 0 for t in y):
        return False
    if scale == 0:
        return True
    return sum(Fraction(t) / ai for t, ai in zip(y, a)) > scale


def howald_generators(n, factors):
    """Minimal generators of J(prod), one staircase step per prefix.

    For a prefix (v_1..v_{n-1}) the least admissible v_n is explicit;
    it never grows when a prefix coordinate grows, so a candidate is
    minimal iff lowering any prefix coordinate raises v_n.  Howald's
    inequality sum (v_i + 1 - shift_i) / a_i > C is cleared of
    denominators: with D = lcm of the shift and C denominators,
    A = lcm(a) and w_i = A / a_i it reads
    sum (D (v_i + 1) - D shift_i) w_i > C D A.
    """
    shift, scale, a = product_shape(n, factors)
    lo = [math.floor(s) for s in shift]
    if scale == 0:
        return [tuple(lo)]
    hi = [lo[i] + math.ceil(scale * a[i]) + 1 for i in range(n)]
    D = scale.denominator
    for s in shift:
        D = D * s.denominator // math.gcd(D, s.denominator)
    A = 1
    for ai in a:
        A = A * ai // math.gcd(A, ai)
    w = [A // ai for ai in a]
    S = [int(s * D) for s in shift]
    target = int(scale * D * A)
    # contribution of prefix coordinate i at value x
    contrib = [
        {x: (D * (x + 1) - S[i]) * w[i] for x in range(lo[i], hi[i] + 1)}
        for i in range(n - 1)
    ]
    wn, Sn = w[-1], S[-1]

    def prefixes(i):
        if i == n - 1:
            yield (), 0
            return
        for x in range(lo[i], hi[i] + 1):
            cx = contrib[i][x]
            for rest, total in prefixes(i + 1):
                yield (x,) + rest, cx + total

    table = {
        p: (Sn * wn + max(0, target - total)) // (D * wn)
        for p, total in prefixes(0)
    }
    out = []
    for p, top in table.items():
        if all(
            p[i] == lo[i] or table[p[:i] + (p[i] - 1,) + p[i + 1:]] > top
            for i in range(n - 1)
        ):
            out.append(p + (top,))
    return sorted(out)


def howald_lct(n, factor):
    """lct of one factor: sum(1/a_i)/t for diagonal type, 1/max(d) for x^d."""
    if factor["kind"] == "mono":
        return Fraction(1, max(factor["d"]))
    return sum(Fraction(1, ai) for ai in factor["a"]) / factor["t"]


# ---------------------------------------------------------------------------
# Donaldson-Futaki weights


def _minplus_step(cost, row):
    """One more part: min over the part size u of row[j - u] + cost[u]."""
    inf = 1 << 62
    m = len(cost) - 1
    shifted = [
        [inf] * u + [x + cu for x in row] + [inf] * (m - u)
        for u, cu in enumerate(cost)
    ]
    return list(map(min, *shifted))


class ChainPowers:
    """Min-plus powers of cost chains, shared by many flags.

    The j-th power-ideal divisor at a point is the cheapest way to write
    j as ks parts of sizes 0..M priced by the flag's multiplicities
    there, so it depends only on that point's chain.  Each chain is
    swept once, part by part, and its rows are kept at the ks in keep.
    """

    def __init__(self, keep):
        self.keep = keep
        self._sweeps = {}  # chain -> (ks, row, {kept ks: row})

    def row(self, cost, ks):
        t, row, kept = self._sweeps.get(cost, (0, [0], {}))
        if ks in kept:
            return kept[ks]
        if t > ks:
            t, row = 0, [0]
        while t < ks:
            row, t = _minplus_step(cost, row), t + 1
            if t in self.keep:
                kept[t] = row
        self._sweeps[cost] = (t, row, kept)
        return row


class FlagWeights:
    """w(k) of one flag on P^1 by an exact dimension count.

    dim F_j = max(0, 2k + 1 - deg D_j) where deg D_j sums the points'
    min-plus rows, and w(k) = sum_{j=1..M ks} dim F_j - (2k + 1) M ks.
    """

    def __init__(self, divisors, s, powers=None):
        self.M = len(divisors)
        self.s = Fraction(s)
        labels = sorted({lab for d in divisors for lab in d})
        self._costs = [
            (0,) + tuple(d.get(lab, 0) for d in divisors) for lab in labels
        ]
        # asked for in increasing k, a private sweep never restarts
        self._powers = powers if powers is not None else ChainPowers(set())
        self._w = {}

    def weight(self, k):
        if k not in self._w:
            ks = k * self.s
            if ks.denominator != 1 or ks < 1:
                raise ValueError("k*s must be a positive integer")
            ks = int(ks)
            n_sections = 2 * k + 1
            degree = map(sum, zip(*(self._powers.row(c, ks) for c in self._costs)))
            next(degree)  # j = 0
            dims = sum(max(0, n_sections - d) for d in degree)
            self._w[k] = dims - n_sections * self.M * ks
        return self._w[k]


def third_differences_vanish(points):
    """Divided differences of order 3 of four (k, w) points are zero."""
    xs = [Fraction(k) for k, _ in points]
    table = [Fraction(w) for _, w in points]
    for order in range(1, 4):
        table = [
            (table[i + 1] - table[i]) / (xs[i + order] - xs[i])
            for i in range(len(table) - 1)
        ]
    return table[0] == 0


def quadratic_through(points):
    """Coefficients (c0, c1, c2) of the quadratic through three points."""
    (x0, y0), (x1, y1), (x2, y2) = [(Fraction(k), Fraction(w)) for k, w in points]
    d01 = (y1 - y0) / (x1 - x0)
    d12 = (y2 - y1) / (x2 - x1)
    c2 = (d12 - d01) / (x2 - x0)
    c1 = d01 - c2 * (x0 + x1)
    c0 = y0 - c1 * x0 - c2 * x0 * x0
    return c0, c1, c2


def poly_value(coeffs, k):
    return sum(Fraction(c) * k ** i for i, c in enumerate(coeffs))


def fat_point_df0(m):
    """DF0 = 8 - 8/m for the fat point of multiplicity m >= 2.

    For k divisible by m, dim F_j = max(0, 2k + 1 - m j) for j <= k, so
    w(k) = (2/m - 2)(k^2 + k) and DF0 = 4 (w_2 - 2 w_1) = 8 - 8/m.
    """
    return 8 - Fraction(8, m)
