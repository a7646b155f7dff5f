"""Weight matrices, series construction, and the rigidity decision."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow.algebra import DenomFactors, Form
from rigidpow.rigidity import (
    DuplicateEntries,
    Row,
    WeightMatrix,
    ZeroWeight,
    candidate_constant,
    exact_int,
    is_l_rigid,
    is_rigid,
    l_series,
    pair_partition,
    quasilinear,
    t_series,
)
from exact_values import function_value, row_value
from matrix_helpers import normalize_signs, value_at, wm

def prop_constant(n):
    """sum_{k=0..n} x^(n-k) * (-y)^k, the constant of every difference matrix."""
    return Form((-1) ** k for k in range(n + 1))


# -- construction and validation ----------------------------------------------


def test_matrix_validation():
    with pytest.raises(ZeroWeight):
        wm(([0, 1], 1))
    with pytest.raises(ValueError):
        wm(([1, 2], 1), ([1], 1))
    with pytest.raises(ValueError):
        wm(([1], 2))
    with pytest.raises(ValueError):
        WeightMatrix(())


@pytest.mark.parametrize("rows", [
    (((1.7,), 1), ((-1,), 1)), ((("3",), 1),), (((True,), 1),), (((1,), True),),
    (((1,), 1.0),), (((2.0, 1), -1),),
])
def test_matrix_rejects_non_integer_entries(rows):
    # int() used to truncate: [+: 1.7; +: -1] was read as the rigid
    # [+: 1; +: -1], and '3' and True as weights 3 and 1
    with pytest.raises(ValueError):
        WeightMatrix(tuple(Row(ws, s) for ws, s in rows))


def reference_validation(rows):
    """WeightMatrix's validation as it was before it reused rows: the
    reference for which fault a malformed matrix reports, and how."""
    rows = tuple(Row(tuple(exact_int("weight", w) for w in ws), exact_int("sign", s))
                 for ws, s in rows)
    if not rows:
        raise ValueError("a weight matrix needs at least one row")
    n = len(rows[0].weights)
    if n < 1:
        raise ValueError("a weight matrix needs at least one column")
    for row in rows:
        if len(row.weights) != n:
            raise ValueError("all rows must have the same length")
        if any(w == 0 for w in row.weights):
            raise ZeroWeight("weights must be nonzero")
        if row.sign not in (1, -1):
            raise ValueError(f"row sign must be +1 or -1, got {row.sign}")
    return rows


MALFORMED = [
    # wrong types, in weights and in signs
    [((1, True), 1)], [((1.0, 2), 1)], [(("1", 2), 1)], [("12", 1)], [((1, 2), True)],
    [((1, 2), 1.0)], [((1, 2), "1")], [((2,), 1), ((False,), -1)],
    # wrong shapes and values
    [], [((), 1)], [((), 1), ((1,), 1)], [((1, 0), 1)], [((1, 2), 1), ((3,), -1)],
    [((1, 2), 1), ((3, 4, 5), -1)], [((1, 2), 0)], [((1, 2), 2)], [((1,), -2)],
    # mixed faults, where the order of the checks decides which is reported
    [((1, 2), 1), ((3,), 1), ((1.5, 2), 1)],
    [((1, 2), 1), ((3,), 1), ((1, 2), True)],
    [((0, 2), 2), ((1, 2), 1.0)],
    [((1, 2), 2), ((0, 1), 1)],
    [((0, 1), 2), ((1,), 1)],
    [((1,), 1), ((0, 1, 2), 7)],
    [((True, 0), 1)],
    [((1, 2), 5), ((1, 2), 1), ((0, 2), 1)],
    # not (weights, sign) pairs
    [(5, 1)], [((1, 2),)], [((1, 2), 1, 1)], [7],
]
WELL_FORMED = [
    [((1, 2), 1), ((3, -4), -1)], [([1, 2], 1), (Row((2, 1), -1))], [Row([3], 1)],
    [Row((1, -1), -1), ((-1, 1), 1)],
]


def outcome(build, rows):
    try:
        return build(rows)
    except (ValueError, TypeError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("rows", MALFORMED + WELL_FORMED)
def test_matrix_validation_matches_the_reference(rows):
    got = outcome(lambda rows: WeightMatrix(tuple(rows)).rows, rows)
    want = outcome(reference_validation, rows)
    assert got == want
    if rows in WELL_FORMED:
        assert all(type(row) is Row and type(row.weights) is tuple for row in got)


def test_matrix_keeps_rows_that_are_already_valid():
    rows = (Row((3, -1), 1), Row((1, 3), -1))
    assert all(a is b for a, b in zip(WeightMatrix(rows).rows, rows))


def single_weight(w):
    """The factor ``(x z^w + y) / (z^w - 1)`` as the series of a 1x1 matrix."""
    return t_series(wm(([w], 1)))


def test_single_weight_positive():
    t = single_weight(1)
    assert t.num == {1: (1, 0), 0: (0, 1)}
    assert t.den == DenomFactors({1: 1})


def test_single_weight_negative():
    # (x z^-1 + y)/(z^-1 - 1) = (-x - y z)/(z - 1)
    t = single_weight(-1)
    assert t.num == {1: (0, -1), 0: (-1, 0)}
    assert t.den == DenomFactors({1: 1})
    t2 = single_weight(-2)
    assert t2.num == {2: (0, -1), 0: (-1, 0)}
    assert t2.den == DenomFactors({2: 1})


def test_single_weight_zero():
    with pytest.raises(ZeroWeight):
        single_weight(0)


def test_single_weight_matches_defining_formula():
    # against direct evaluation of (x z^w + y)/(z^w - 1) with exact fractions
    for w in (1, 2, 3, -1, -2, -5):
        t = single_weight(w)
        for z0 in (2, 3, Fraction(5, 2)):
            for x0, y0 in ((1, 1), (2, 3), (0, 1)):
                zw = Fraction(z0) ** w
                assert t.evaluate(z0, x0, y0) == (x0 * zw + y0) / (zw - 1)


# -- series -------------------------------------------------------------------


def test_t_series_two_term_sum():
    series = t_series(wm(([1], 1), ([-1], 1)))
    assert series.den == DenomFactors({1: 1})
    assert series.num == {1: (1, -1), 0: (-1, 1)}


def test_t_series_cancelling_rows():
    series = t_series(wm(([1, 2], 1), ([1, 2], -1)))
    assert series.num == {}


def test_t_series_keeps_the_factors_of_cancelled_rows():
    series = t_series(wm(([1, 3, 3], 1), ([3, 1, 3], -1)))
    assert series.num == {}
    assert series.den == DenomFactors({1: 1, 3: 2})


def test_t_series_difference_matrix_is_constant_function():
    series = t_series(quasilinear([0, 1, 2]))
    for z0 in (2, 3, 5, Fraction(7, 3)):
        for x0, y0 in ((1, 1), (2, 1), (1, 3)):
            # prop_constant(2), x^2 - x*y + y^2
            assert series.evaluate(z0, x0, y0) == x0**2 - x0 * y0 + y0**2


def test_l_series_examples():
    assert l_series(wm(([2], 1), ([2], -1))).num == {}

    series = l_series(quasilinear([0, 1, 2]))
    for z0 in (2, 3, Fraction(1, 2)):
        assert series.evaluate(z0) == 1

    # (z+1)/(z-1) - (z^2+1)/(z^2-1) = 2z/(z^2-1), not constant
    series = l_series(wm(([1], 1), ([2], -1)))
    assert series.den == DenomFactors({1: 1, 2: 1})
    assert series.num == {2: (2,), 1: (-2,)}
    assert series.evaluate(2) == Fraction(4, 3)
    assert series.evaluate(3) != series.evaluate(2)


def test_l_series_cross_multiplies_by_hand():
    # (z + 1)/(z - 1) + (z^2 + 1)/(z^2 - 1) over (z - 1)(z^2 - 1), factored
    # and not reduced: (z + 1)(z^2 - 1) + (z^2 + 1)(z - 1) = 2z^3 - 2
    series = l_series(wm(([1], 1), ([2], 1)))
    assert series.den == DenomFactors({1: 1, 2: 1})
    assert series.num == {3: (2,), 0: (-2,)}


def matrices(max_m=4, max_n=3, bound=4):
    values = [v for v in range(-bound, bound + 1) if v]

    def rows(n):
        row = st.builds(Row, st.tuples(*[st.sampled_from(values)] * n), st.sampled_from((1, -1)))
        return st.lists(row, min_size=1, max_size=max_m)

    return st.integers(1, max_n).flatmap(rows).map(lambda rows: WeightMatrix(tuple(rows)))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_series_is_the_sum_of_its_rows(matrix):
    t, l = t_series(matrix), l_series(matrix)
    for z0 in (2, 3, -2, Fraction(3, 2)):
        for x0, y0 in ((1, 1), (2, 1), (1, 3), (0, 1), (-1, 2)):
            assert t.evaluate(z0, x0, y0) == sum(row_value(*r, z0, x0, y0) for r in matrix.rows)
        assert l.evaluate(z0) == sum(row_value(*r, z0, 1, 1) for r in matrix.rows)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_series_denominator_is_the_per_factor_maximum(matrix):
    den = Counter()
    for r in matrix.rows:
        den |= Counter(map(abs, r.weights))
    assert t_series(matrix).den == l_series(matrix).den == DenomFactors(den)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_series_does_not_depend_on_row_order(matrix, data):
    permuted = WeightMatrix(tuple(data.draw(st.permutations(matrix.rows))))
    assert t_series(permuted) == t_series(matrix)
    assert l_series(permuted) == l_series(matrix)


# -- candidate constants ------------------------------------------------------


def test_candidate_constant_difference_matrix():
    assert candidate_constant(quasilinear([0, 1, 2])) == prop_constant(2)


def test_candidate_constant_six_sphere_pattern():
    a, b = 2, 3
    matrix = wm(([a, b, -(a + b)], 1), ([-a, -b, a + b], 1))
    assert candidate_constant(matrix) == Form((0, -1, 1, 0))  # -x^2*y + x*y^2


def test_candidate_constant_cancelling_rows():
    assert candidate_constant(wm(([1, 2], 1), ([1, 2], -1))).is_zero()


# -- rigidity decisions -------------------------------------------------------


def test_difference_matrices_are_rigid():
    for seed in ([0, 1, 2], [5, -3, 7], [-4, 0, 9]):
        verdict = is_rigid(quasilinear(seed))
        assert verdict.rigid
        assert verdict.constant == prop_constant(2)


def test_not_rigid_witness():
    verdict = is_rigid(wm(([1], 1), ([2], -1)))
    assert not verdict.rigid
    w = verdict.witness
    # residual numerator is (x+y)z^2 - (x+y)z; lowest degree 1
    assert w.residual_degree == 1
    assert w.residual_coefficient == Form((-1, -1))
    assert w.point == (2, 1, 1)
    assert w.value_at_point == Fraction(4, 3)
    assert w.expected_at_point == 0


def test_cancelling_rows_rigid_zero():
    verdict = is_rigid(wm(([3, 5], 1), ([3, 5], -1)))
    assert verdict.rigid
    assert verdict.constant.is_zero()


def test_l_rigidity():
    verdict = is_l_rigid(quasilinear([0, 1, 2]))
    assert verdict.rigid
    assert verdict.constant.constant_value() == 1
    assert not is_l_rigid(wm(([1], 1), ([2], -1))).rigid


def test_rigid_constant_always_matches_candidate():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        matrix = wm(
            *(
                ([rng.choice([w for w in range(-4, 5) if w]) for _ in range(n)],
                 rng.choice((1, -1)))
                for _ in range(m)
            )
        )
        verdict = is_rigid(matrix)
        if verdict.rigid:
            assert verdict.constant == candidate_constant(matrix)


# -- sign normalization and parity --------------------------------------------


def test_normalize_signs():
    assert normalize_signs(wm(([-3], 1))) == wm(([3], -1))
    assert normalize_signs(wm(([1, -2, -5], -1))) == wm(([1, 2, 5], -1))
    matrix = wm(([1, 2], 1), ([3, 4], -1))
    assert normalize_signs(matrix) == matrix


def test_normalize_signs_preserves_l_series_values():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        matrix = wm(
            *(
                ([rng.choice([w for w in range(-5, 6) if w]) for _ in range(n)],
                 rng.choice((1, -1)))
                for _ in range(rng.randint(1, 3))
            )
        )
        normalized = normalize_signs(matrix)
        for z0 in (2, 3, 5):
            assert value_at(matrix, z0) == value_at(normalized, z0)
        z0 = Fraction(2, 3)
        assert function_value(matrix.rows, z0, 1, 1) == function_value(normalized.rows, z0, 1, 1)


def parity_check(matrix, constant):
    """Structural parity constraint on a matrix whose x=y=1 function is the
    given constant: odd ``n`` forces constant 0 and even ``m``; even ``n``
    forces constant = m (mod 2)."""
    m, n = matrix.m, matrix.n
    if n % 2 == 1:
        return constant == 0 and m % 2 == 0
    return (constant - m) % 2 == 0


def test_parity_check():
    assert parity_check(wm(([1], 1), ([1], -1)), 0)          # n odd, L=0, m even
    assert parity_check(quasilinear([0, 1, 2]), 1)           # n even, 1 ≡ 3 (mod 2)
    assert not parity_check(wm(([1], 1), ([1], -1)), 1)      # n odd with L = 1


# -- difference matrices ------------------------------------------------------


def test_quasilinear_construction():
    assert quasilinear([0, 1]) == wm(([-1], 1), ([1], 1))
    assert quasilinear([0, 1, 2]) == wm(([-1, -2], 1), ([1, -1], 1), ([2, 1], 1))
    assert quasilinear([0, 2, 5]) == wm(([-2, -5], 1), ([2, -3], 1), ([5, 3], 1))


def test_quasilinear_rejects_duplicates():
    with pytest.raises(DuplicateEntries):
        quasilinear([0, 1, 1])


@pytest.mark.parametrize("seed", [[0, 1.5, 2], [0, True, 2], [0, "1", 2], [0.0, 1]])
def test_quasilinear_rejects_non_integer_seeds(seed):
    # [0, 1.5, 2] used to give the difference matrix of (0, 1, 2)
    with pytest.raises(ValueError):
        quasilinear(seed)


# -- pair partition -----------------------------------------------------------


def assert_valid_pairing(matrix, pairs):
    used = set()
    for (i, j), (k, l) in pairs:
        assert i != k
        assert matrix.rows[i].weights[j] == matrix.rows[k].weights[l]
        assert (i, j) not in used and (k, l) not in used
        used.add((i, j))
        used.add((k, l))
    assert len(used) == matrix.m * matrix.n


def test_pair_partition_identical_rows():
    matrix = wm(([1, 2], 1), ([1, 2], 1))
    pairs = pair_partition(matrix)
    assert pairs is not None
    assert_valid_pairing(matrix, pairs)


def test_pair_partition_single_row_hoards_a_value():
    assert pair_partition(wm(([1, 1], 1), ([2, 2], 1))) is None


def test_pair_partition_normalized_difference_matrix():
    matrix = normalize_signs(quasilinear([0, 1, 2]))
    pairs = pair_partition(matrix)
    assert pairs is not None
    assert_valid_pairing(matrix, pairs)


@settings(max_examples=300, deadline=None)
@given(matrices(max_m=6, bound=2).filter(lambda m: any(w < 0 for r in m.rows for w in r.weights)))
def test_pair_partition_pairs_on_absolute_values(matrix):
    normalized = normalize_signs(matrix)
    pairs = pair_partition(matrix)
    assert pairs == pair_partition(normalized)
    if pairs is not None:
        assert_valid_pairing(normalized, pairs)


def test_pair_partition_three_way_spread():
    # value 1 occurs twice in row 0, once in rows 1 and 2: counts (2,1,1)
    matrix = wm(([1, 1], 1), ([1, 3], 1), ([1, 3], 1))
    pairs = pair_partition(matrix)
    assert pairs is not None
    assert_valid_pairing(matrix, pairs)


def test_pair_partition_pairs_exactly_when_the_counts_allow():
    # a value can be paired across rows iff its count is even and no row
    # holds more than half of it
    rng = random.Random(9)
    for _ in range(20_000):
        m, n, top = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        matrix = wm(*(([rng.randint(1, top) for _ in range(n)], 1) for _ in range(m)))
        per_row = [Counter(row.weights) for row in matrix.rows]
        total = sum(per_row, Counter())
        pairable = all(v % 2 == 0 and all(c[w] <= v // 2 for c in per_row)
                       for w, v in total.items())
        pairs = pair_partition(matrix)
        assert (pairs is not None) == pairable, matrix
        if pairs is not None:
            assert_valid_pairing(matrix, pairs)


def half_rotation(matrix):
    """The pairing ``pair_partition`` documents, built the plain way: for
    each ``|w|`` in increasing order, its occurrences in row order, the
    ``t``-th paired with the ``(t + half)``-th; None if any pair shares a
    row or a count is odd."""
    positions = {}
    for i, row in enumerate(matrix.rows):
        for j, w in enumerate(row.weights):
            positions.setdefault(abs(w), []).append((i, j))
    pairs = []
    for value in sorted(positions):
        occurrences = positions[value]
        half = len(occurrences) // 2
        matched = list(zip(occurrences[:half], occurrences[half:]))
        if len(occurrences) % 2 or any(i == k for (i, _), (k, _) in matched):
            return None
        pairs += matched
    return pairs


@settings(max_examples=300, deadline=None)
@given(matrices(max_m=6, bound=2))
def test_pair_partition_returns_the_documented_pairs(matrix):
    assert pair_partition(matrix) == half_rotation(matrix)


# -- structural function identities -------------------------------------------


def test_scaling_preserves_rigidity_verdict():
    matrix = quasilinear([0, 1, 3])
    scaled = WeightMatrix(
        tuple(Row(tuple(2 * w for w in r.weights), r.sign) for r in matrix.rows)
    )
    v1, v2 = is_rigid(matrix), is_rigid(scaled)
    assert v1.rigid and v2.rigid and v1.constant == v2.constant
