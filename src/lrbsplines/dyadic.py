"""Exact dyadic rational coordinates.

Every knot and meshline coordinate in this package is a dyadic rational
``n / 2**e``.  Refinement only ever bisects knot spans, so the dyadics are
closed under all operations we need.  A dyadic with ``|n| < 2**53`` and
``0 <= e <= 48`` is exactly an IEEE double, so a coordinate *is* a float:
:class:`DyadicCoord` subclasses ``float``, and equality, ordering and
hashing are float's own -- exact, with no tolerance anywhere in the mesh
layer -- and numerical code reads knots and bounds directly.

Sums, differences and midpoints of two coordinates are computed in
integer arithmetic and stay coordinates.  A result, or a constructed
value, outside that range raises ``ValueError`` instead of rounding.
Arithmetic with anything else is plain float arithmetic.

Coordinates equal the plain numbers of the same value, with the same
hash: ``dyadic(3, 1) == 1.5``.  ``numerator``/``exponent`` are in lowest
terms (the numerator is odd or the exponent is zero), and zero is
always ``+0.0``.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

__all__ = ["DyadicCoord", "dyadic", "midpoint"]

#: Largest denominator exponent of a coordinate.  Every finite float is
#: dyadic, but a denominator beyond this is almost certainly rounding
#: noise (e.g. ``0.3``) rather than an intended coordinate.
_MAX_EXPONENT = 48
#: Numerators fit in the 53 bits of a double's significand.
_NUMERATOR_BITS = 53


class DyadicCoord(float):
    """A dyadic rational ``numerator / 2**exponent``, held as the float of
    exactly that value."""

    __slots__ = ()

    def __new__(cls, numerator: int, exponent: int = 0) -> "DyadicCoord":
        if numerator == 0:
            exponent = 0
        elif exponent < 0:
            if numerator.bit_length() - exponent <= _NUMERATOR_BITS:
                numerator <<= -exponent
                exponent = 0
        else:
            shift = min((numerator & -numerator).bit_length() - 1, exponent)
            numerator >>= shift
            exponent -= shift
        if not 0 <= exponent <= _MAX_EXPONENT or numerator.bit_length() > _NUMERATOR_BITS:
            raise ValueError(
                f"{numerator}/2^{exponent} is not an exact coordinate: the "
                f"numerator must satisfy |n| < 2**{_NUMERATOR_BITS} and the "
                f"exponent 0 <= e <= {_MAX_EXPONENT}"
            )
        return float.__new__(cls, numerator / (1 << exponent))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self.pair())

    # -- conversions ---------------------------------------------------

    @classmethod
    def from_float(cls, value: float) -> "DyadicCoord":
        """Convert a float exactly; reject non-finite values and rounding
        noise such as ``0.3`` (denominator 2**54) by the range check."""
        if not math.isfinite(value):
            raise ValueError(f"coordinate must be finite, got {value!r}")
        num, den = float(value).as_integer_ratio()
        return cls(num, den.bit_length() - 1)

    @property
    def numerator(self) -> int:
        return self.as_integer_ratio()[0]

    @property
    def exponent(self) -> int:
        return self.as_integer_ratio()[1].bit_length() - 1

    @property
    def fraction(self) -> Fraction:
        return Fraction(*self.as_integer_ratio())

    def pair(self) -> list[int]:
        """JSON form ``[numerator, exponent]``."""
        num, den = self.as_integer_ratio()
        return [num, den.bit_length() - 1]

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DyadicCoord):
            return float.__add__(self, other)
        a, b, e = _common(self, other)
        return DyadicCoord(a + b, e)

    def __sub__(self, other):
        if not isinstance(other, DyadicCoord):
            return float.__sub__(self, other)
        a, b, e = _common(self, other)
        return DyadicCoord(a - b, e)

    def __neg__(self) -> "DyadicCoord":
        # 0.0 - x rather than -x, so that the negated zero is +0.0
        return float.__new__(DyadicCoord, 0.0 - self)

    def __str__(self) -> str:
        num, exp = self.pair()
        return str(num) if exp == 0 else f"{num}/2^{exp}"

    def __repr__(self) -> str:
        return "dyadic({}, {})".format(*self.pair())


def _common(a, b) -> tuple[int, int, int]:
    """Numerators of ``a`` and ``b`` over their common denominator
    ``2**e``, and ``e``."""
    na, da = a.as_integer_ratio()
    nb, db = b.as_integer_ratio()
    d = max(da, db)
    return na * (d // da), nb * (d // db), d.bit_length() - 1


def _integer(value, name: str) -> int:
    """``value`` as an ``int``: an integer other than a bool, or an
    integral float.  Raises ``ValueError`` for a float with a fractional
    part and ``TypeError`` for anything else, naming ``name``."""
    if type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    error = ValueError if isinstance(value, float) else TypeError
    raise error(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def dyadic(value, exponent: int | None = None) -> DyadicCoord:
    """Coerce a value to :class:`DyadicCoord`.

    Accepts an existing coordinate, an integer, an exactly dyadic float,
    a ``Fraction`` with power-of-two denominator, a ``(numerator,
    exponent)`` pair, or two arguments ``dyadic(num, exp)``.  A numerator
    or exponent must be an integer or an integral float; a bool is
    neither a coordinate nor a numerator.
    """
    if exponent is not None:
        return DyadicCoord(_integer(value, "numerator"), _integer(exponent, "exponent"))
    if isinstance(value, DyadicCoord):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(value, int):
        return DyadicCoord(value, 0)
    if isinstance(value, float):
        return DyadicCoord.from_float(value)
    if isinstance(value, Fraction):
        den = value.denominator
        if den & (den - 1):
            raise ValueError(f"{value} is not dyadic (denominator {den})")
        return DyadicCoord(value.numerator, den.bit_length() - 1)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return DyadicCoord(_integer(value[0], "numerator"), _integer(value[1], "exponent"))
    raise TypeError(f"cannot interpret {value!r} as a dyadic coordinate")


def midpoint(a: DyadicCoord, b: DyadicCoord) -> DyadicCoord:
    """Exact midpoint ``(a + b) / 2``."""
    na, nb, e = _common(a, b)
    return DyadicCoord(na + nb, e + 1)
