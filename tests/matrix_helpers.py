"""Matrix transformations that only the tests use."""

from rigidpow.rigidity import Row, WeightMatrix, fold_signs


def signs_negated(matrix):
    """``matrix`` with every row sign flipped: its global sign reversal."""
    return WeightMatrix(tuple(Row(r.weights, -r.sign) for r in matrix.rows))


def normalize_signs(matrix):
    """Flip every negative weight positive, folding each flip into the row
    sign (see ``fold_signs``).  The ``x = y = 1`` function is unchanged by
    this transformation."""
    return WeightMatrix(tuple(map(fold_signs, matrix.rows)))
