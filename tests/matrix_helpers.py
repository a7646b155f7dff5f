"""Matrix transformations that only the tests use."""

from rigidpow.rigidity import Row, WeightMatrix, _folded


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
