"""The sample-point pre-filter kernel against the symbolic series."""

import random
from array import array

import pytest

from rigidpow.prefilter import L_POINTS, T_POINTS, filter_chunk, sample_points, select_filter
from rigidpow.rigidity import Row, WeightMatrix, candidate_constant, t_series


def random_batch(rng, m, n, bound, count):
    weights, signs = array("q"), array("q")
    values = [v for v in range(-bound, bound + 1) if v]
    for _ in range(count):
        for _ in range(m):
            signs.append(rng.choice((1, -1)))
            for _ in range(n):
                weights.append(rng.choice(values))
    return weights, signs


def oracle_mask(weights, signs, m, n, count, points):
    """Independent check via the symbolic series and Fraction arithmetic."""
    out = bytearray(count)
    npts = len(points) // 3
    for c in range(count):
        rows = []
        for i in range(m):
            ws = tuple(weights[c * m * n + i * n + j] for j in range(n))
            rows.append(Row(ws, signs[c * m + i]))
        matrix = WeightMatrix(tuple(rows))
        series = t_series(matrix)
        constant = candidate_constant(matrix)
        ok = 1
        for p in range(npts):
            z0, x0, y0 = points[3 * p], points[3 * p + 1], points[3 * p + 2]
            if series.evaluate(z0, x0, y0) != constant.evaluate(x0, y0):
                ok = 0
                break
        out[c] = ok
    return out


def test_sample_points():
    assert sample_points("T") == T_POINTS
    assert sample_points("L") == L_POINTS
    with pytest.raises(ValueError):
        sample_points("Q")


def test_pure_kernel_matches_symbolic_oracle():
    rng = random.Random(21)
    m, n, bound, count = 2, 2, 4, 200
    weights, signs = random_batch(rng, m, n, bound, count)
    points = array("q", T_POINTS)
    got = bytearray(count)
    filter_chunk(weights, signs, m, n, count, points, got)
    assert got == oracle_mask(weights, signs, m, n, count, T_POINTS)


def test_select_filter_returns_the_kernel():
    for m, n, bound in ((2, 2, 3), (6, 6, 40)):
        assert select_filter(m, n, bound, T_POINTS) == (filter_chunk, "pure")


def test_kernels_accept_rigid_matrices():
    # soundness from the other side: known-constant functions always pass
    from rigidpow.rigidity import quasilinear
    from rigidpow.search import canonical_form

    for seed in ((0, 1), (0, 1, 2), (3, 5, 8, 11)):
        matrix = quasilinear(seed)
        m, n = matrix.m, matrix.n
        weights = array("q", [w for row in matrix.rows for w in row.weights])
        signs = array("q", [row.sign for row in matrix.rows])
        for mode in ("T", "L"):
            points = array("q", sample_points(mode))
            out = bytearray(1)
            filter_chunk(weights, signs, m, n, 1, points, out)
            assert out[0] == 1

    # and the canonical L image passes the L points as well
    matrix = canonical_form(quasilinear((0, 2, 5)), "L")
    weights = array("q", [w for row in matrix.rows for w in row.weights])
    signs = array("q", [row.sign for row in matrix.rows])
    out = bytearray(1)
    filter_chunk(weights, signs, matrix.m, matrix.n, 1, array("q", L_POINTS), out)
    assert out[0] == 1
