"""Exact rationals and their wire format.

Every rational in JSON output is the string "p/q" (or just "p" when
q = 1), with the sign on the numerator.  fractions.Fraction already
keeps gcd(|p|, q) = 1 and q > 0, which is exactly the invariant we
need, so we use it directly instead of a bespoke class.  A rational
direction (a hyperplane, a facet normal) is kept as primitive(row).
rat caps a string's decimal exponent at MAX_EXPONENT, fields is the
one shape check of every JSON input document, and integer the one
check of a count or size argument.
"""

from fractions import Fraction
from math import gcd

from .errors import InputError, SizeError

# Python's default int-to-string digit limit: Fraction's time to build
# 10**e grows about quadratically in e
MAX_EXPONENT = 4_300


def rat(value) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            _, e, exponent = text.lower().partition("e")
            # int() also reads a leading space, which Fraction rejects
            if e and not exponent[:1].isspace() and abs(int(exponent)) > MAX_EXPONENT:
                raise SizeError(
                    f"decimal exponent capped at {MAX_EXPONENT} (got {exponent})"
                )
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        raise InputError("floating point is banned; pass 'p/q' strings")
    raise InputError(f"not a rational: {value!r}")


def rat_str(value) -> str:
    """Serialize a rational as 'p/q', or 'p' when the denominator is 1."""
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def primitive(row):
    """A nonzero integer row divided by the gcd of its entries, with
    its first nonzero entry made positive, as a tuple.

    The row must be nonzero, and no caller passes a zero row:
    LinearForm rejects the zero form, a lattice residual is nonzero
    (arrangements._closed_ranks), and the hull passes a combination of
    two independent rays with positive weights, which is nonzero.
    """
    divisor = gcd(*row)
    for lead in row:
        if lead:
            break
    if lead < 0:
        divisor = -divisor
    if divisor == 1:
        return tuple(row)
    return tuple([x // divisor for x in row])


def integer(name, value, least=1):
    """value if it is an int >= least; bools, floats and strings are not."""
    if type(value) is not int or value < least:
        raise InputError(f"{name} must be an integer >= {least}")
    return value


def fields(data, what, *names):
    """The values of the named fields of a JSON object, checked in order."""
    if not isinstance(data, dict):
        raise InputError(f"{what} JSON must be an object")
    for name in names:
        if name not in data:
            raise InputError(f"{what} JSON missing field '{name}'")
    return [data[name] for name in names]
