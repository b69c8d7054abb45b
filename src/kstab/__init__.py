"""Exact-rational stability toolkit for the projective line.

Public surface: central hyperplane arrangement lct with
certificates, the Gibbs-type gamma invariant of P^1 with its exact
Veronese determinants (MultiPoly, det_symbolic), monomial multiplier
ideals as a testing oracle, and Donaldson-Futaki invariants of
flag-ideal configurations, whose reports carry their weights as
SampleGrid and UniPoly.
"""

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
from .errors import (
    GridTooShortError,
    InconclusiveError,
    InputError,
    KstabError,
    SizeError,
)
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
from .gamma import (
    GammaSample,
    MultiPoly,
    Verdict,
    classify,
    det_symbolic,
    gamma_at_k,
    gamma_report,
    vandermonde_product,
    veronese_determinant,
)
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
from .verification import law_checks

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
