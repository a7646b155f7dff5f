"""A weight matrix's function at a point, straight from its definition, in
``Fraction`` arithmetic: an oracle that shares no code with rigidpow.

Row ``(weights, sign)`` contributes ``sign * prod_w (x z^w + y) / (z^w - 1)``
(a negative ``w`` raises ``z`` to a negative power), and its forced
constant, the limit of that term as ``z`` grows, is
``sign * x^(#w > 0) * (-y)^(#w < 0)``.  ``z`` may be any rational that is
not a root of unity.
"""

from fractions import Fraction


def row_value(weights, sign, z, x, y):
    value = Fraction(sign)
    for w in weights:
        zw = Fraction(z) ** w
        value *= (x * zw + y) / (zw - 1)
    return value


def row_constant(weights, sign, x, y):
    value = sign
    for w in weights:
        value *= x if w > 0 else -y
    return value


def function_value(rows, z, x, y):
    """The sum of the row values of ``(weights, sign)`` pairs ``rows``."""
    return sum((row_value(ws, s, z, x, y) for ws, s in rows), Fraction(0))


def forced_constant(rows, x, y):
    return sum(row_constant(ws, s, x, y) for ws, s in rows)
