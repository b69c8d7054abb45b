"""Exception hierarchy shared across the package.

Exit-code mapping in the CLI: InputError -> 2, and exit 3 for a limit:
SizeError (a hard cap, among them the k*s cap that ends the DF base
walk) or InconclusiveError (the summation sweep's denominator bound).
"""


class KstabError(Exception):
    """Base class for all package errors."""


class InputError(KstabError, ValueError):
    """Malformed or out-of-contract input."""


class SizeError(KstabError):
    """Input exceeds a hard size cap (lattice blow-up, matrix size, arity)."""


class InconclusiveError(KstabError):
    """A sweep hit its bound without stabilizing; distinct from a failure."""
