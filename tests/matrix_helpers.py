"""Matrix transformations and values that only the tests use."""

from fractions import Fraction

from rigidpow.rigidity import Row, WeightMatrix, _folded, point_value


def wm(*rows):
    """The weight matrix of ``rows``, each a ``(weights, sign)`` pair."""
    return WeightMatrix(tuple(Row(tuple(ws), s) for ws, s in rows))


def signs_negated(matrix):
    """``matrix`` with every row sign flipped: its global sign reversal."""
    return WeightMatrix(tuple(Row(r.weights, -r.sign) for r in matrix.rows))


def fold_signs(row):
    """``row`` with every negative weight made positive and each flip
    folded into the row sign; its ``x = y = 1`` term is unchanged."""
    weights, sign = _folded(*row)
    return Row(tuple(weights), sign)


def normalize_signs(matrix):
    """Flip every negative weight positive, folding each flip into the row
    sign (see ``fold_signs``).  The ``x = y = 1`` function is unchanged by
    this transformation."""
    return WeightMatrix(tuple(map(fold_signs, matrix.rows)))


def negated(matrix):
    """``matrix`` with every weight negated and every row sign kept."""
    return WeightMatrix(tuple(Row(tuple(-w for w in r.weights), r.sign) for r in matrix.rows))


def value_at(matrix, z0, x0=1, y0=1):
    """The function's exact value at integers ``(z0, x0, y0)``, ``|z0| >= 2``,
    from ``rigidity.point_value``; at ``x0 = y0 = 1`` it is the
    L-function's."""
    top, bottom, _ = point_value(matrix.rows, z0, x0, y0)
    return Fraction(top, bottom)
