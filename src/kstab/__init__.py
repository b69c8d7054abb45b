"""Exact-rational stability toolkit for the projective line.

Public surface: exact polynomials and determinants, central
hyperplane arrangement lct with certificates, the Gibbs-type gamma
invariant of P^1, monomial multiplier ideals as a testing oracle,
and Donaldson-Futaki invariants of flag-ideal configurations.
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
    TildeFamily,
    donaldson_futaki,
    tilde_divisors,
    validate_flag,
    weight,
)
from .gamma import (
    GammaSample,
    Verdict,
    classify,
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
    law_checks,
    lct_monomial,
    multiplier_ideal,
    newton_polyhedron,
    summation_check,
)
from .polynomials import (
    MultiPoly,
    SampleGrid,
    UniPoly,
    det_symbolic,
    df_coefficient,
)
from .rationals import rat, rat_str

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
