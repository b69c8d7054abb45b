"""Gibbs-type stability of the projective line.

For each k the anticanonical determinantal divisor on (P^1)^(2k+1)
is, in the affine chart, the Vandermonde product over 2k+1
variables.  Its lct at the total-degeneracy point therefore reduces
to the braid arrangement, whose lct is the closed form 2/(2k+1)
(arrangements.lct_braid).  The samples are the sequence 2k/(2k+1),
whose limit decides the stability verdict.

The Veronese check expands that determinant over sparse exact
polynomials (MultiPoly, det_symbolic) against the Vandermonde product.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arrangements import MAX_BRAID_G, lct_braid
from .errors import InputError, SizeError
from .rationals import rat, rat_str

MAX_K_SYMBOLIC = 3
MAX_DET_SIZE = 2 * MAX_K_SYMBOLIC + 1

STABLE = "stable"
SEMISTABLE_NOT_STABLE = "semistable_not_stable"
NOT_SEMISTABLE = "not_semistable"


@dataclass(frozen=True)
class GammaSample:
    k: int
    N: int
    gamma_k: Fraction

    def to_json(self):
        return {"k": self.k, "N": self.N, "gamma_k": rat_str(self.gamma_k)}


@dataclass(frozen=True)
class Verdict:
    kind: str
    gamma: Fraction


def classify(gamma):
    """Stability verdict from the gamma invariant."""
    gamma = rat(gamma)
    if gamma > 1:
        return Verdict(STABLE, gamma)
    if gamma == 1:
        return Verdict(SEMISTABLE_NOT_STABLE, gamma)
    return Verdict(NOT_SEMISTABLE, gamma)


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


def det_symbolic(matrix):
    """Exact determinant of a square matrix of MultiPoly entries.

    Division-free expansion by dynamic programming over column
    subsets; capped at MAX_DET_SIZE, the matrix size of
    veronese_determinant(MAX_K_SYMBOLIC).
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


def vandermonde_product(nvars):
    """prod_{i<j} (u_i - u_j), expanded."""
    poly = MultiPoly.constant(1, nvars)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            ui = MultiPoly.variable(i, nvars)
            uj = MultiPoly.variable(j, nvars)
            poly = poly * (ui - uj)
    return poly


def veronese_determinant(k):
    """Chart equation of the degree-k determinantal divisor.

    Determinant of the (2k+1)x(2k+1) matrix with rows
    (1, u_i, ..., u_i^(2k)); checked against the expanded
    Vandermonde product up to global sign before returning.
    """
    if k < 0:
        raise InputError("k must be >= 0")
    if k > MAX_K_SYMBOLIC:
        raise SizeError(
            f"symbolic determinant capped at k = {MAX_K_SYMBOLIC} "
            f"(matrix size {MAX_DET_SIZE})"
        )
    nvars = 2 * k + 1
    matrix = []
    for i in range(nvars):
        u = MultiPoly.variable(i, nvars)
        row = [MultiPoly.constant(1, nvars)]
        for _ in range(2 * k):
            row.append(row[-1] * u)
        matrix.append(row)
    det = det_symbolic(matrix)
    product = vandermonde_product(nvars)
    if det != product and det != -product:
        raise AssertionError("determinant does not match the Vandermonde product")
    return det


def gamma_at_k(k):
    """lct of the scaled divisor around the diagonal, at level k.

    The chart model near total degeneracy is the braid arrangement
    on N = 2k+1 variables; the divisor carries coefficient 1/k, so
    the sample value is k times the braid lct.  lct_braid's cap on
    N bounds k at 499.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    nvars = 2 * k + 1
    value = k * lct_braid(nvars).value
    sample = GammaSample(k=k, N=nvars, gamma_k=value)
    if sample.gamma_k != Fraction(2 * k, 2 * k + 1):
        raise AssertionError("gamma sample deviates from 2k/(2k+1)")
    return sample


def gamma_report(k_max):
    """Samples up to k_max plus the certified limit and verdict.

    The sample sequence 2k/(2k+1) is strictly increasing with limit
    1, so the invariant is 1 exactly, independent of where the
    sampling is truncated.  The last sample needs lct_braid at
    g = 2 * k_max + 1, so k_max past its cap fails before any sample.
    """
    if k_max < 1:
        raise InputError("k_max must be >= 1")
    if 2 * k_max + 1 > MAX_BRAID_G:
        raise SizeError(f"lct_braid capped at g = {MAX_BRAID_G}")
    samples = [gamma_at_k(k) for k in range(1, k_max + 1)]
    gamma = Fraction(1)
    return {
        "samples": samples,
        "gamma": gamma,
        "verdict": classify(gamma),
    }


def gamma_report_json(k_max):
    report = gamma_report(k_max)
    return {
        "samples": [s.to_json() for s in report["samples"]],
        "gamma": rat_str(report["gamma"]),
        "verdict": report["verdict"].kind,
    }
