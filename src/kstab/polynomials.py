"""Exact polynomial arithmetic.

UniPoly is a dense univariate polynomial over Q (lowest degree
first), MultiPoly a sparse multivariate one keyed by exponent
vectors.  SampleGrid holds the exact weight samples a DF report
carries, df_coefficient is the bilinear coefficient extraction that
defines the Donaldson-Futaki invariant, and det_symbolic expands the
Veronese determinants.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, SizeError
from .rationals import rat, rat_str

MAX_DET_SIZE = 7


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial; coeffs[i] is the coefficient of k^i."""

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
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __call__(self, x):
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coeff_strings(self):
        return [rat_str(c) for c in self.coeffs]


@dataclass(frozen=True)
class SampleGrid:
    """Exact samples (k, value) with strictly increasing k.

    All k must be multiples of the declared base divisibility; that
    is how "sufficiently divisible k" enters the data model.
    """

    entries: tuple
    base: int = 1

    def __init__(self, entries, base=1):
        if base < 1:
            raise InputError("base divisibility must be >= 1")
        norm = []
        last = None
        for k, v in entries:
            if not isinstance(k, int) or k < 0:
                raise InputError(f"grid point {k!r} is not a nonnegative integer")
            if k % base != 0:
                raise InputError(f"grid point {k} is not a multiple of base {base}")
            if last is not None and k <= last:
                raise InputError("grid k values must be strictly increasing")
            last = k
            norm.append((k, rat(v)))
        object.__setattr__(self, "entries", tuple(norm))
        object.__setattr__(self, "base", base)

    def ks(self):
        return [k for k, _ in self.entries]


def df_coefficient(w, N, n):
    """Coefficient of k^(n+1) k'^n in w(k) k' N(k') - w(k') k N(k)."""
    if n < 0:
        raise InputError("dimension n must be >= 0")
    if w.degree > n + 1:
        raise InputError(f"deg w = {w.degree} exceeds n+1 = {n + 1}")
    if N.degree != n:
        raise InputError(f"deg N = {N.degree}, expected exactly n = {n}")
    # k^(n+1) k'^n comes from w[n+1] k^(n+1) * k' N[n-1] k'^(n-1) in
    # the first term and from w[n] k'^n * k N[n] k^n in the second
    return w.coeff(n + 1) * N.coeff(n - 1) - w.coeff(n) * N.coeff(n)


class MultiPoly:
    """Sparse multivariate polynomial: exponent vector -> coefficient."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        self.arity = arity
        clean = {}
        for expo, c in (terms or {}).items():
            c = rat(c)
            if c == 0:
                continue
            if len(expo) != arity:
                raise InputError("exponent vector arity mismatch")
            clean[tuple(expo)] = c
        self.terms = clean

    @classmethod
    def constant(cls, value, arity):
        return cls(arity, {(0,) * arity: rat(value)})

    @classmethod
    def variable(cls, index, arity):
        expo = [0] * arity
        expo[index] = 1
        return cls(arity, {tuple(expo): Fraction(1)})

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), Fraction(0))

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.arity != other.arity:
            raise InputError("arity mismatch")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(self.arity, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.arity, terms)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly(arity={self.arity}, terms={len(self.terms)})"


def det_symbolic(matrix):
    """Exact determinant of a square matrix of MultiPoly entries.

    Division-free expansion by dynamic programming over column
    subsets; capped at 7x7, which covers every Veronese check the
    package performs.
    """
    size = len(matrix)
    if size == 0 or any(len(row) != size for row in matrix):
        raise InputError("determinant needs a square, nonempty matrix")
    if size > MAX_DET_SIZE:
        raise SizeError(f"determinant capped at {MAX_DET_SIZE}x{MAX_DET_SIZE}")
    arity = matrix[0][0].arity
    for row in matrix:
        for entry in row:
            if entry.arity != arity:
                raise InputError("inconsistent arity in matrix entries")

    # minors[mask] = det of rows 0..popcount(mask)-1, columns in mask
    minors = {0: MultiPoly.constant(1, arity)}
    for r in range(size):
        nxt = {}
        for mask, minor in minors.items():
            for c in range(size):
                bit = 1 << c
                if mask & bit:
                    continue
                below = bin(mask & (bit - 1)).count("1")
                term = minor * matrix[r][c]
                if (r + below) % 2:
                    term = -term
                key = mask | bit
                nxt[key] = nxt[key] + term if key in nxt else term
        minors = nxt
    return minors[(1 << size) - 1]
