"""Exact-rational stability toolkit for the projective line.

Public surface: central hyperplane arrangement lct with
certificates, the Gibbs-type gamma invariant of P^1, monomial
multiplier ideals as a testing oracle, Donaldson-Futaki invariants of
flag-ideal configurations, whose reports carry their weights as
SampleGrid and UniPoly, and the verification oracles: the Veronese
determinant and the Vandermonde product, expanded exactly as
{exponent tuple: int} dicts, and the multiplier laws.
"""

from types import ModuleType as _ModuleType

from .arrangements import (
    CentralArrangement,
    Flat,
    LctCertificate,
    LinearForm,
    braid_arrangement,
    diagonal_discrepancy,
    intersection_lattice,
    lct_braid,
    lct_central,
)
from .errors import InconclusiveError, InputError, KstabError, SizeError
from .flags import (
    DFReport,
    FlagIdealP1,
    PointDivisor,
    SampleGrid,
    TildeFamily,
    UniPoly,
    donaldson_futaki,
    tilde_divisors,
    validate_flag,
    weight,
)
from .gamma import GammaSample, Verdict, classify, gamma_at_k, gamma_report
from .monomials import (
    MonomialIdeal,
    NewtonPolyhedron,
    SummationResult,
    WeightedIdealProduct,
    lct_monomial,
    multiplier_ideal,
    newton_polyhedron,
    summation_check,
)
from .rationals import rat, rat_str
from .verification import law_checks, vandermonde_product, veronese_determinant

__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _ModuleType)))
__version__ = "0.1.0"
