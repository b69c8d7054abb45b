"""Exception hierarchy shared across the package.

Exit-code mapping in the CLI: InputError -> 2, the resource/limit
errors (SizeError, GridTooShortError, InconclusiveError) -> 3.
"""


class KstabError(Exception):
    """Base class for all package errors."""


class InputError(KstabError, ValueError):
    """Malformed or out-of-contract input."""


class SizeError(KstabError):
    """Input exceeds a hard size cap (lattice blow-up, matrix size, arity)."""


class GridTooShortError(KstabError):
    """No grid base reproduced the counted weights within the caps."""


class InconclusiveError(KstabError):
    """A sweep hit its bound without stabilizing; distinct from a failure."""
