"""Exact arithmetic for the characteristic functions of weight matrices.

Every coefficient of those functions is a *binary form*: a homogeneous
polynomial of one fixed degree ``d`` in ``x`` and ``y`` (each factor
``x*z^w + y`` has degree 1, so a row of ``n`` factors has degree ``n``).
A form is stored densely as a tuple of ``d + 1`` integers whose entry
``k`` is the coefficient of ``x^(d-k) * y^k``; the tuple ``(c,)`` of
degree 0 is the integer ``c``.  :class:`Form` wraps such a tuple as a
printable value.

A :class:`LaurentRational` is a polynomial in ``z`` with form coefficients
(sparse in ``z``: a dict from z-degree to coefficient tuple) over a
denominator kept as a *factored* multiset of terms ``(z^a - 1)`` with
``a > 0`` (:class:`DenomFactors`).  Exponents of ``z`` are never
negative, and denominators are never expanded except on request.

:class:`ZSparse`, a packed integer kept sparse in ``z``, carries all
polynomial arithmetic: ``rigidity`` builds wide residuals and every series
on it, and :meth:`DenomFactors.expand` multiplies out on it.

The ``evaluate`` methods are on no program path (every exact point value
comes from ``rigidity.point_value``); they serve the tests as a reference.

All values are immutable after construction and all operations are pure,
so any number of workers may share them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

Coeffs = Tuple[int, ...]
ZPoly = Dict[int, Coeffs]
Rational = int | Fraction


class PoleAtSamplePoint(ZeroDivisionError):
    """Raised when an evaluation point hits a root of some ``z^a - 1``."""


def _q(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _form_value(coeffs: Coeffs, x0: Fraction, y0: Fraction) -> Fraction:
    d = len(coeffs) - 1
    return sum((c * x0 ** (d - k) * y0**k for k, c in enumerate(coeffs) if c), Fraction(0))


def digit_count(value: int) -> int:
    """Number of decimal digits of ``|value|``, without converting it."""
    value = abs(value)
    count = int(value.bit_length() * 0.30102999566398120) + 1
    return count - 1 if count > 1 and 10 ** (count - 1) > value else count


def _format_int(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # beyond the interpreter's int-to-str digit limit
        return f"{'-' if value < 0 else ''}<{digit_count(value)} digits>"


def format_rational(value: Fraction) -> str:
    """``str(value)``, except that a numerator or denominator too long to
    convert to text is shown as its digit count, e.g. ``<30104 digits>``."""
    if value.denominator == 1:
        return _format_int(value.numerator)
    return f"{_format_int(value.numerator)}/{_format_int(value.denominator)}"


class Form:
    """A binary form ``sum_k coeffs[k] * x^(d-k) * y^k`` of degree ``d``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        self.coeffs: Coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def is_constant(self) -> bool:
        return self.degree == 0 or self.is_zero()

    def constant_value(self) -> int:
        """The integer value of a constant form."""
        if not self.is_constant():
            raise ValueError(f"not a constant form: {self}")
        return sum(self.coeffs)

    def evaluate(self, x0: Rational, y0: Rational) -> Fraction:
        return _form_value(self.coeffs, _q(x0), _q(y0))

    def __str__(self) -> str:
        # graded lexicographic order, x before y
        d = self.degree
        pieces = []
        for k, coeff in enumerate(self.coeffs):
            if not coeff:
                continue
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in (("x", d - k), ("y", k)) if e
            )
            mag = abs(coeff)
            body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
            if pieces:
                pieces.append((" - " if coeff < 0 else " + ") + body)
            else:
                pieces.append(("-" if coeff < 0 else "") + body)
        return "".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"Form({self})"


class ZSparse:
    """The integer ``sum_e terms[e] * 2^(e*step)`` as a dict from z-degree
    ``e`` to a nonzero int, with every key above ``cap`` dropped.

    ``v << s`` moves each key up by ``s // step`` and shifts each value by
    ``s % step`` bits.  With no cap, every operation agrees with the same
    one on the plain int.  With one, the result is the uncapped one's terms
    up to ``cap``, since truncating modulo ``z^(cap+1)`` is a ring map.
    """

    __slots__ = ("terms", "step", "cap")

    def __init__(self, terms: Mapping[int, int], step: int, cap: float = math.inf):
        self.terms = {e: c for e, c in terms.items() if c and e <= cap}
        self.step, self.cap = step, cap

    def _like(self, terms: Dict[int, int]) -> "ZSparse":
        out = object.__new__(ZSparse)
        out.terms, out.step, out.cap = terms, self.step, self.cap
        return out

    def __lshift__(self, s: int) -> "ZSparse":
        shift, bits = divmod(s, self.step)
        top = self.cap - shift
        return self._like({e + shift: c << bits for e, c in self.terms.items() if e <= top})

    def __add__(self, other: "ZSparse", sign: int = 1) -> "ZSparse":
        out = self.terms.copy()
        for e, c in other.terms.items():
            if total := out.get(e, 0) + sign * c:
                out[e] = total
            else:
                del out[e]
        return self._like(out)

    def __sub__(self, other: "ZSparse") -> "ZSparse":
        return self.__add__(other, -1)

    def __neg__(self) -> "ZSparse":
        return self._like({e: -c for e, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)


class DenomFactors:
    """Multiset of denominator factors ``(z^a - 1)``, keyed by ``a > 0``."""

    __slots__ = ("_mult",)

    def __init__(self, mult: Mapping[int, int] | None = None):
        clean: Dict[int, int] = {}
        if mult:
            for a, m in mult.items():
                if a <= 0:
                    raise ValueError(f"denominator factor exponent must be positive, got {a}")
                if m < 0:
                    raise ValueError(f"multiplicity must be nonnegative, got {m}")
                if m:
                    clean[a] = m
        self._mult = clean

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenomFactors):
            return NotImplemented
        return self._mult == other._mult

    def expand(self) -> Dict[int, int]:
        """The product of all factors as an integer polynomial in ``z``,
        a dict from z-degree to nonzero coefficient."""
        poly = ZSparse({0: 1}, 1)
        for a, m in self._mult.items():
            for _ in range(m):
                poly = (poly << a) - poly
        return poly.terms

    def evaluate(self, z0: Rational) -> Fraction:
        z0 = _q(z0)
        total = Fraction(1)
        for a, m in self._mult.items():
            base = z0**a - 1
            if base == 0:
                raise PoleAtSamplePoint(f"z0 = {z0} is a root of z^{a} - 1")
            total *= base**m
        return total

    def __str__(self) -> str:
        if not self._mult:
            return "1"
        pieces = []
        for a, m in sorted(self._mult.items()):
            base = "(z - 1)" if a == 1 else f"(z^{a} - 1)"
            pieces.append(base if m == 1 else f"{base}^{m}")
        return "*".join(pieces)

    def __repr__(self) -> str:
        return f"DenomFactors({self})"


class LaurentRational:
    """A polynomial in ``z`` with form coefficients over a factored
    denominator.

    ``num`` maps each z-degree to the coefficient tuple of a binary form;
    all-zero coefficients are dropped.  The value is never reduced to
    lowest terms: ``rigidity._series`` sums rows over the per-factor
    maximum multiplicity, and the constancy decision downstream never needs
    the reduced form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Mapping[int, Sequence[int]], den: DenomFactors | None = None):
        self.num: ZPoly = {k: tuple(c) for k, c in num.items() if any(c)}
        self.den = den if den is not None else DenomFactors()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def evaluate(self, z0: Rational, x0: Rational = 1, y0: Rational = 1) -> Fraction:
        """Exact rational value at ``(z0, x0, y0)``.

        ``z0`` must not be a root of any denominator factor (any
        ``|z0| >= 2`` is always safe).
        """
        z0, x0, y0 = _q(z0), _q(x0), _q(y0)
        top = sum((_form_value(c, x0, y0) * z0**k for k, c in self.num.items()), Fraction(0))
        return top / self.den.evaluate(z0)

    def __str__(self) -> str:
        pieces = []
        for k in sorted(self.num, reverse=True):
            c = Form(self.num[k])
            pieces.append(f"({c})" if k == 0 else f"({c})*z" if k == 1 else f"({c})*z^{k}")
        return f"({' + '.join(pieces) or '0'}) / ({self.den})"

    def __repr__(self) -> str:
        return f"LaurentRational({self})"

