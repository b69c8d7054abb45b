"""Gibbs-type stability of the projective line: gamma(P^1) = 1.

For each k the anticanonical determinantal divisor on (P^1)^(2k+1)
is, in the affine chart, the Vandermonde product over 2k+1
variables.  Its lct at the total-degeneracy point therefore reduces
to the braid arrangement, whose lct is the closed form 2/(2k+1)
(arrangements.lct_braid).  The samples are the sequence 2k/(2k+1),
whose limit decides the stability verdict.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arrangements import lct_braid_value
from .rationals import integer, rat, rat_str

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


def gamma_at_k(k):
    """lct of the scaled divisor around the diagonal, at level k.

    The chart model near total degeneracy is the braid arrangement
    on N = 2k+1 variables; the divisor carries coefficient 1/k, so
    the sample value is k times the braid lct, read without building
    its certificate.  lct_braid's cap on N bounds k at 499.  C03
    (verification.check_gamma) compares the samples with 2k/(2k+1).
    """
    nvars = 2 * integer("k", k) + 1
    return GammaSample(k=k, N=nvars, gamma_k=k * lct_braid_value(nvars))


def gamma_report(k_max):
    """Samples up to k_max plus the certified limit and verdict.

    The sample sequence 2k/(2k+1) is strictly increasing with limit
    1, so the invariant is 1 exactly, independent of where the
    sampling is truncated.  The last sample needs lct_braid at
    g = 2 * k_max + 1, so k_max past its cap fails before any sample.
    """
    lct_braid_value(2 * integer("k_max", k_max) + 1)
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
