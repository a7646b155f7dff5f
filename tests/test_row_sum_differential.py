"""The merge-tree sum of ``rigidity._row_sum`` against the row by row sum
of ``core_oracle.row_sum``, bit for bit.

A spy stands in for ``_row_sum`` while the decision and the series run.
On every call it runs both sums on the same arguments and asserts that
they are the same residual: the same int on the int carrier, and the same
terms, step and cap on a ``ZSparse``.  So the residual is compared, not
only the verdict read from it.  ``_PACKED_BITS`` at its own value puts the
decision on the int carrier for these matrices, and at 0 on the capped
``ZSparse``, so the spy sees every cap its doubling loop visits; the
series sums on an uncapped ``ZSparse``.  Cancelling matrices go to
``_packed_decide`` directly, since the public decisions certify them
first.
"""

import math
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings

from rigidpow import rigidity
from rigidpow.algebra import ZSparse
from rigidpow.rigidity import (
    WITNESS_XY_VALUES,
    Row,
    WeightMatrix,
    _candidate,
    _packed_decide,
    l_series,
    quasilinear,
    t_series,
)
from core_oracle import matrices, matrix_of, row_sum

MERGE = rigidity._row_sum


def residual(value):
    """A residual as a comparable value: the int itself, or a ZSparse's
    terms, step and cap."""
    if type(value) is int:
        return value
    assert type(value) is ZSparse
    return value.terms, value.step, value.cap


def spied_calls(run):
    """The cap, or ``"int"``, and whether the residual is nonzero, of each
    ``_row_sum`` call that ``run()`` makes, each checked against the
    oracle."""
    calls = []

    def spy(rows, needs, ystep, zstep, total):
        got = MERGE(rows, needs, ystep, zstep, total)
        assert residual(got) == residual(row_sum(rows, needs, ystep, zstep, total))
        calls.append((getattr(got, "cap", "int"), bool(got)))
        return got

    with patch.object(rigidity, "_row_sum", spy):
        run()
    return calls


def assert_merge_is_row_by_row(matrix):
    """Both sums agree on every call of the decision on both carriers and
    of the series, in T and L mode."""
    for degree, series, grid in ((matrix.n, t_series, WITNESS_XY_VALUES),
                                 (0, l_series, ((1, 1),))):
        candidate = _candidate(matrix, degree)
        [(carrier, _)] = spied_calls(lambda: _packed_decide(matrix, degree, candidate, grid))
        assert carrier == "int"
        with patch.object(rigidity, "_PACKED_BITS", 0):
            calls = spied_calls(lambda: _packed_decide(matrix, degree, candidate, grid))
        # the doubling loop: from the smallest factor exponent, doubled
        # until the residual is nonzero or the cap reaches deg D
        _, den, *_ = rigidity._layout(matrix, degree)
        top = sum(a * k for a, k in den.items())
        *before, (cap, nonzero) = calls
        assert [c for c, _ in calls] == [min(den) << i for i in range(len(calls))]
        assert all(c < top and not nz for c, nz in before) and (nonzero or cap >= top)
        [(cap, _)] = spied_calls(lambda: series(matrix))
        assert cap == math.inf


def random_rows(rng, m, n, bound):
    values = [w for w in range(-bound, bound + 1) if w]
    return [Row(tuple(rng.choice(values) for _ in range(n)), rng.choice((1, -1)))
            for _ in range(m)]


def tall(rng):
    """Random matrices of 12 to 32 rows."""
    return WeightMatrix(tuple(random_rows(rng, rng.randint(12, 32), rng.randint(1, 4), 12)))


def difference(rng):
    """Difference matrices of random seeds, n up to 13, some with every
    row sign negated."""
    n = rng.randint(2, 13)
    matrix = quasilinear(rng.sample(range(-20, 21), n + 1))
    sign = rng.choice((1, -1))
    return WeightMatrix(tuple(Row(r.weights, sign) for r in matrix.rows))


def progression(rng):
    """Difference matrices of arithmetic progressions, n up to 13: many
    weights repeat, within a row and across rows."""
    n, step = rng.randint(2, 13), rng.randint(1, 3)
    start = rng.randint(-5, 5)
    return quasilinear(range(start, start + step * (n + 1), step))


def cancelling(rng):
    """Rows that cancel in pairs: each row beside a copy of it with its
    weights permuted and its sign flipped."""
    rows = []
    for r in random_rows(rng, rng.randint(1, 8), rng.randint(1, 5), 9):
        twin = list(r.weights)
        rng.shuffle(twin)
        rows += [r, Row(tuple(twin), -r.sign)]
    rng.shuffle(rows)
    return WeightMatrix(tuple(rows))


def near_cancelling(rng):
    """A cancelling matrix with one weight moved by one."""
    rows = list(cancelling(rng).rows)
    i = rng.randrange(len(rows))
    weights = list(rows[i].weights)
    j = rng.randrange(len(weights))
    weights[j] += 1 if weights[j] != -1 else 2
    rows[i] = Row(tuple(weights), rows[i].sign)
    return WeightMatrix(tuple(rows))


CLASSES = [tall, difference, progression, cancelling, near_cancelling]


@pytest.mark.parametrize("family", CLASSES, ids=lambda f: f.__name__)
def test_merge_sum_is_the_row_by_row_sum(family):
    rng = random.Random(f"row-sum/{family.__name__}")
    for _ in range(8):
        assert_merge_is_row_by_row(family(rng))


@pytest.mark.parametrize("n", [11, 13])
def test_merge_sum_on_the_unit_progression(n):
    """The seeds 0..n: every weight 1..n, the longest runs of repeats."""
    assert_merge_is_row_by_row(quasilinear(range(n + 1)))


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_merge_sum_on_oracle_matrices(rows):
    assert_merge_is_row_by_row(matrix_of(rows))
