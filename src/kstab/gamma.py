"""Gibbs-type stability of the projective line.

For each k the anticanonical determinantal divisor on (P^1)^(2k+1)
is, in the affine chart, the Vandermonde product over 2k+1
variables.  Its lct at the total-degeneracy point therefore reduces
to the braid arrangement, whose lct is the closed form 2/(2k+1)
(arrangements.lct_braid).  The samples are the sequence 2k/(2k+1),
whose limit decides the stability verdict.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arrangements import lct_braid
from .errors import InputError, SizeError
from .polynomials import MultiPoly, det_symbolic
from .rationals import rat, rat_str

MAX_K_SYMBOLIC = 3
MAX_K_LCT = 6

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
            f"(matrix size {2 * MAX_K_SYMBOLIC + 1})"
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
    the sample value is k times the braid lct.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if k > MAX_K_LCT:
        raise InputError(f"k capped at {MAX_K_LCT} for lct sampling")
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
    sampling is truncated.
    """
    if k_max < 1:
        raise InputError("k_max must be >= 1")
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
