"""Exact nonnegative rational values extended with infinity.

Every distance in this package is an :class:`ExtRat`: a fraction p/q kept in
lowest terms with p >= 0, q >= 1, or the distinguished infinite value ``INF``.
There is no floating point anywhere; addition saturates at infinity and the
order is total with ``INF`` on top.
"""

from __future__ import annotations

import re
from itertools import chain
from math import gcd, lcm

_RAT_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


class ExtRat:
    """A nonnegative rational in lowest terms, or infinity (encoded as 1/0)."""

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: int, denominator: int = 1):
        if isinstance(numerator, bool) or not isinstance(numerator, int):
            raise TypeError(f"numerator must be an int, got {numerator!r}")
        if isinstance(denominator, bool) or not isinstance(denominator, int):
            raise TypeError(f"denominator must be an int, got {denominator!r}")
        if denominator == 0:
            raise ZeroDivisionError("denominator must be nonzero; use INF for infinity")
        if denominator < 0 or numerator < 0:
            raise ValueError(f"value must be nonnegative: {numerator}/{denominator}")
        g = gcd(numerator, denominator)
        object.__setattr__(self, "_num", numerator // g)
        object.__setattr__(self, "_den", denominator // g)

    @classmethod
    def _raw(cls, num: int, den: int) -> "ExtRat":
        # Internal: trusted already-reduced pair; bypasses argument checks.
        self = object.__new__(cls)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        return self

    @classmethod
    def parse(cls, text: str) -> "ExtRat":
        """Parse ``"inf"``, ``"p"`` or ``"p/q"`` (nonnegative, q > 0)."""
        if not isinstance(text, str):
            raise TypeError(f"expected a string, got {text!r}")
        if text == "inf":
            return INF
        m = _RAT_RE.match(text)
        if not m:
            raise ValueError(f"not a rational literal: {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return cls(num, den)

    @property
    def numerator(self) -> int:
        return self._num

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def is_infinite(self) -> bool:
        return self._den == 0

    @property
    def is_zero(self) -> bool:
        return self._num == 0 and self._den != 0

    def __setattr__(self, name, value):
        raise AttributeError("ExtRat is immutable")

    def __reduce__(self):
        return (_restore, (self._num, self._den))

    def __str__(self) -> str:
        if self._den == 0:
            return "inf"
        if self._den == 1:
            return str(self._num)
        return f"{self._num}/{self._den}"

    def __repr__(self) -> str:
        return f"ExtRat({str(self)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __lt__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        # Cross-multiplication covers INF = 1/0 uniformly.
        return self._num * other._den < other._num * self._den

    def __le__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return self._num * other._den <= other._num * self._den

    def __gt__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return other.__lt__(self)

    def __ge__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return other.__le__(self)

    def __add__(self, other: "ExtRat") -> "ExtRat":
        if not isinstance(other, ExtRat):
            return NotImplemented
        if self._den == 0 or other._den == 0:
            return INF
        num = self._num * other._den + other._num * self._den
        den = self._den * other._den
        g = gcd(num, den)
        return ExtRat._raw(num // g, den // g)

    def __mul__(self, k: int) -> "ExtRat":
        """Scale by a positive integer (used for doubled tolerances)."""
        if isinstance(k, bool) or not isinstance(k, int):
            return NotImplemented
        if k <= 0:
            raise ValueError("scaling factor must be a positive integer")
        if self._den == 0:
            return INF
        num = self._num * k
        g = gcd(num, self._den)
        return ExtRat._raw(num // g, self._den // g)

    __rmul__ = __mul__


def _restore(num: int, den: int) -> "ExtRat":
    return ExtRat._raw(num, den)


ZERO = ExtRat(0)
INF = ExtRat._raw(1, 0)


def integer_matrix(dist) -> tuple[list[list[int]], int, int]:
    """Exact integer image of an ExtRat matrix: ``(rows, scale, inf)``.

    Finite entries are scaled by the lcm of their denominators, so order and
    sums carry over exactly.  INF becomes ``inf``, one more than the sum of
    every finite entry: above any sum of finite entries, while a sum with an
    ``inf`` term is at least ``inf``.
    """
    dens = {x._den for row in dist for x in row}
    scale = lcm(*(dens - {0}))  # INF is 1/0 and takes no part in the scale
    rows = [[x._num * (scale // x._den) if x._den else None for x in row] for row in dist]
    inf = 1 + sum(filter(None, chain.from_iterable(rows)))
    if 0 in dens:
        rows = [[inf if v is None else v for v in row] for row in rows]
    return rows, scale, inf


def rat(value) -> ExtRat:
    """Coerce an int, string literal, or ExtRat to an ExtRat."""
    if isinstance(value, ExtRat):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a distance")
    if isinstance(value, int):
        return ExtRat(value)
    if isinstance(value, str):
        return ExtRat.parse(value)
    raise TypeError(f"cannot interpret {value!r} as an extended rational")
