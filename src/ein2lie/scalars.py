"""Scalar arithmetic shared by all tensor computations.

Every tensor entry is an exact rational (`fractions.Fraction`, ints
included) or a float.  Exact values survive arithmetic unrounded.  In
approx mode one float input promotes a computation to float, as meant
for points irrational by construction (square-root branch points); exact
mode reads a float as its dyadic rational and computes exactly.

Equality is context dependent: exact values compare with ``==``, floats
compare against a tolerance.  `Mode` packages that decision, and every
operation that decides a point or a table takes one from its caller.
"""

from __future__ import annotations

import math
from fractions import Fraction

Scalar = Fraction | float

DEFAULT_TOLERANCE = 1e-9

EXACT = "exact"
APPROX = "approx"


def as_scalar(value) -> Scalar:
    """Normalize a number: exact rational where possible, float otherwise.

    ints become Fractions; strings parse exactly
    ("3", "-5/2", "0.25"); finite floats stay floats, and nan or an
    infinity raises ValueError.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {value!r}")
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q", integer, or decimal text into an exact rational.

    Decimals with an exponent are exact too ("1.5e-3" is 3/2000); any
    other text, "inf" and "nan" included, raises ValueError.
    """
    stripped = text.strip()
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def format_scalar(value: Scalar) -> str:
    """Render exact values as "p" or "p/q", floats with 17 significant digits."""
    if is_exact(value):  # ints and Fractions both carry numerator and denominator
        n, d = value.numerator, value.denominator
        return str(n) if d == 1 else f"{n}/{d}"
    return format(float(value), ".17g")


class _Value:
    """Equality, hash and repr of the fields named in `_fields`, as a frozen dataclass has them.

    Cached properties and other attributes take no part.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Mode(_Value):
    """Equality context: exact rational tests, or |x| <= tolerance tests."""

    _fields = ("kind", "tolerance")

    def __init__(self, kind: str = EXACT, tolerance: float = 0.0):
        if kind not in (EXACT, APPROX):
            raise ValueError(f"unknown mode {kind!r}")
        if kind == APPROX and not tolerance > 0:
            raise ValueError("approx mode requires tolerance > 0")
        if kind == EXACT and tolerance != 0:
            raise ValueError("exact mode admits no tolerance")
        self.kind, self.tolerance = kind, tolerance

    @classmethod
    def exact(cls) -> "Mode":
        return cls(EXACT)

    @classmethod
    def approx(cls, tolerance: float = DEFAULT_TOLERANCE) -> "Mode":
        return cls(APPROX, float(tolerance))

    @property
    def is_exact(self) -> bool:
        return self.kind == EXACT

    def is_zero(self, value: Scalar) -> bool:
        if self.kind == EXACT:
            return value == 0
        return abs(value) <= self.tolerance

    def is_nonzero(self, value: Scalar) -> bool:
        # Strict inequalities in approx mode read |x| > tolerance: points
        # within tolerance of a constraint surface are deliberately rejected.
        return not self.is_zero(value)
