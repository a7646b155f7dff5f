"""Residue-formula Chern numbers, screens, classification, and the
two-fixed-point family identities."""

import random
from fractions import Fraction

import pytest

from rigidpow import bott
from rigidpow.algebra import ZSparse
from rigidpow.bott import (
    MAX_SCREEN_N,
    WrongFixedPointCount,
    chern_number,
    classify_two_fixed_points,
    is_boundary_candidate,
    kosniowski_bound,
    realizability_screen,
)
from rigidpow.rigidity import Row, WeightMatrix, quasilinear
from matrix_helpers import value_at, wm
from screen_oracle import elementary_symmetric, exponent_tuples, weighted_degree

# -- elementary symmetric functions -------------------------------------------


def test_elementary_symmetric_basics():
    assert elementary_symmetric(1, (1, 2, 3)) == 6
    assert elementary_symmetric(2, (1, 2, 3)) == 11
    assert elementary_symmetric(3, (1, 2, 3)) == 6
    assert elementary_symmetric(0, (9, 9)) == 1
    assert elementary_symmetric(0, ()) == 1
    assert elementary_symmetric(3, (1, 1, -2)) == -2


def test_elementary_symmetric_out_of_range():
    with pytest.raises(IndexError):
        elementary_symmetric(3, (1, 2))


def test_elementary_symmetric_against_brute_force():
    from itertools import combinations

    rng = random.Random(1)
    for _ in range(20):
        values = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        for k in range(len(values) + 1):
            expected = 1 if k == 0 else sum(
                _product(combo) for combo in combinations(values, k)
            )
            assert elementary_symmetric(k, values) == expected


def _product(values):
    result = 1
    for v in values:
        result *= v
    return result


# -- exponent tuples ----------------------------------------------------------


def test_exponent_tuples_enumeration():
    tuples = list(exponent_tuples(2, 2))
    assert set(tuples) == {(0, 0), (1, 0), (2, 0), (0, 1)}
    assert all(weighted_degree(r) <= 2 for r in tuples)
    # count of tuples with weighted degree exactly n = partition count p(n)
    for n, partitions in ((1, 1), (2, 2), (3, 3), (4, 5), (5, 7)):
        exact = [r for r in exponent_tuples(n, n) if weighted_degree(r) == n]
        assert len(exact) == partitions


# -- Chern numbers ------------------------------------------------------------


def test_two_sphere_top_chern_number():
    matrix = wm(([1], 1), ([-1], 1))
    assert chern_number(matrix, (1,)) == 2


def test_six_sphere_top_chern_number():
    matrix = wm(([1, 1, -2], 1), ([-1, -1, 2], 1))
    assert chern_number(matrix, (0, 0, 1)) == 2


def test_cancelling_rows_give_zero_chern_numbers():
    matrix = wm(([1, 2], 1), ([1, 2], -1))
    for r in exponent_tuples(2, 2):
        assert chern_number(matrix, r) == 0


def test_chern_number_validates_exponents():
    matrix = wm(([1, 2], 1))
    with pytest.raises(ValueError):
        chern_number(matrix, (1,))
    with pytest.raises(ValueError):
        chern_number(matrix, (-1, 0))


@pytest.mark.parametrize("r", [(0, 1.9), (0, True), (0, "1"), (1.0, 0)])
def test_chern_number_rejects_non_integer_exponents(r):
    # (0, 1.9) used to be computed as (0, 1)
    with pytest.raises(ValueError):
        chern_number(quasilinear([0, 1, 2]), r)


def test_chern_number_permutation_invariance():
    rng = random.Random(2)
    for _ in range(15):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [
            Row(tuple(rng.choice([w for w in range(-4, 5) if w]) for _ in range(n)),
                rng.choice((1, -1)))
            for _ in range(m)
        ]
        matrix = WeightMatrix(tuple(rows))
        shuffled = list(rows)
        rng.shuffle(shuffled)
        shuffled = [Row(tuple(rng.sample(r.weights, n)), r.sign) for r in shuffled]
        permuted = WeightMatrix(tuple(shuffled))
        for r in exponent_tuples(n, n):
            assert chern_number(matrix, r) == chern_number(permuted, r)


def test_difference_matrix_low_degree_vanishing_and_integrality():
    rng = random.Random(3)
    for _ in range(12):
        n = rng.randint(1, 4)
        seed = rng.sample(range(-5, 6), n + 1)
        matrix = quasilinear(seed)
        for r in exponent_tuples(n, n):
            value = chern_number(matrix, r)
            if weighted_degree(r) < n:
                assert value == 0
            else:
                assert value.denominator == 1  # projective-space Chern numbers


# -- screens ------------------------------------------------------------------


def test_single_fixed_point_is_flagged():
    violations = realizability_screen(wm(([1, 2], 1)))
    assert violations
    by_exponents = {v.exponents: v.value for v in violations}
    assert by_exponents[(0, 0)] == Fraction(1, 2)


def test_two_sphere_passes_screen():
    assert realizability_screen(wm(([1], 1), ([-1], 1))) == []


def test_difference_matrix_passes_screen():
    assert realizability_screen(quasilinear([0, 1, 2])) == []


def test_boundary_candidates():
    assert is_boundary_candidate(wm(([1, 2], 1), ([1, 2], -1)))
    assert not is_boundary_candidate(wm(([1], 1), ([-1], 1)))
    assert not is_boundary_candidate(wm(([1, 1, -2], 1), ([-1, -1, 2], 1)))


def test_screens_refuse_more_columns_than_they_can_walk(monkeypatch):
    def no_sigmas(values):
        raise AssertionError("a sigma was computed")

    # the refusal comes before any sigma is computed
    monkeypatch.setattr(bott, "_sigmas", no_sigmas)
    wide = wm((list(range(1, MAX_SCREEN_N + 2)), 1), (list(range(1, MAX_SCREEN_N + 2)), -1))
    for screen in (bott.screen, realizability_screen, is_boundary_candidate):
        with pytest.raises(ValueError, match=f"at most {MAX_SCREEN_N} columns, got n = 61"):
            screen(wide)


# -- classification -----------------------------------------------------------


def test_classify_families():
    assert classify_two_fixed_points(wm(([1, 2, -3], 1), ([-1, -2, 3], 1))).kind == "S3"
    assert classify_two_fixed_points(wm(([5], 1), ([-5], 1))).kind == "L1"
    assert classify_two_fixed_points(wm(([1, 2], 1), ([1, 2], -1))).kind == "Z"
    # global sign reversal stays in the same family
    assert classify_two_fixed_points(wm(([5], -1), ([-5], -1))).kind == "L1"
    assert classify_two_fixed_points(wm(([1, 2, -3], -1), ([-1, -2, 3], -1))).kind == "S3"


def test_classify_rejects_near_misses():
    label = classify_two_fixed_points(wm(([1], 1), ([2], -1)))
    assert label.kind == "unclassified"
    assert "not rigid" in label.reason
    # negated rows but sign pattern of the cancelling family: no match
    assert classify_two_fixed_points(wm(([1, 2, -3], 1), ([-1, -2, 3], -1))).kind == "unclassified"
    # equal multisets need opposite signs to be the cancelling family
    assert classify_two_fixed_points(wm(([1, -1], 1), ([-1, 1], 1))).kind == "unclassified"
    assert classify_two_fixed_points(wm(([1, -1], 1), ([-1, 1], -1))).kind == "Z"
    # mirror rows with equal signs but n = 2: no family matches
    assert classify_two_fixed_points(wm(([1, -2], 1), ([-1, 2], 1))).kind == "unclassified"


def test_classify_needs_two_rows():
    with pytest.raises(WrongFixedPointCount):
        classify_two_fixed_points(wm(([1], 1)))


def test_kosniowski_bound():
    assert kosniowski_bound(1) == 1
    assert kosniowski_bound(3) == 2
    assert kosniowski_bound(7) == 4
    with pytest.raises(ValueError):
        kosniowski_bound(0)


# -- two-point family identities ----------------------------------------------
# Instances of the classification identities, checked with exact arithmetic.


def test_mirror_pair_constant_identity():
    # rows (a, -b1, -b2) and its negation with a = b1 + b2, signs +, +:
    # the function is identically x*y^2 - x^2*y
    for b1, b2 in ((1, 2), (2, 3), (1, 1)):
        a = b1 + b2
        matrix = wm(([a, -b1, -b2], 1), ([-a, b1, b2], 1))
        for z0 in (2, 3):
            for x0, y0 in ((1, 1), (2, 1), (1, 3)):
                assert value_at(matrix, z0, x0, y0) == x0 * y0**2 - x0**2 * y0


def test_mirror_pair_specialized_point_identity():
    # substituting x = -z^a, y = 1 collapses the function to
    # (-1)^n (z^a + z^(2a)) with n = 3 sign normalizations
    for b1, b2 in ((1, 2), (2, 3)):
        a = b1 + b2
        matrix = wm(([a, -b1, -b2], 1), ([-a, b1, b2], 1))
        for z0 in (2, 3):
            assert value_at(matrix, z0, -(z0**a), 1) == -(z0**a + z0 ** (2 * a))


def test_collapsed_product_identity():
    # (z^a + 1)(z^(a-b1) - 1)(z^(a-b2) - 1) == (z^a + 1)(z^b1 - 1)(z^b2 - 1)
    # exactly when a = b1 + b2: the factored form the mirror family
    # collapses to, and the constraint that pins the family down.
    for b1, b2 in ((1, 2), (2, 5), (3, 3)):
        for a in (b1 + b2, b1 + b2 + 1):
            lhs = times_factors({a: 1, 0: 1}, a - b1, a - b2)
            rhs = times_factors({a: 1, 0: 1}, b1, b2)
            assert (lhs == rhs) == (a == b1 + b2)


def test_three_row_collapsed_identity():
    # (z^a2 + 1)(z^(a1+b1) - 1) / ((z^a2 - 1)(z^a1 - 1)(z^b1 - 1))
    #   == (z^(c1+c2) + 1) / ((z^c1 - 1)(z^c2 - 1))
    # when a1 + b1 = c1 + c2 = a2 and {a1, b1} = {c1, c2}: cross-multiplied.
    for a1, b1 in ((1, 2), (2, 3), (1, 4)):
        a2 = a1 + b1
        c1, c2 = a1, b1
        lhs_num = times_factors({a2: 1, 0: 1}, a1 + b1)
        lhs_den = times_factors({0: 1}, a2, a1, b1)
        rhs_num = {c1 + c2: 1, 0: 1}
        rhs_den = times_factors({0: 1}, c1, c2)
        assert poly_mul(lhs_num, rhs_den) == poly_mul(rhs_num, lhs_den)


def times_factors(poly, *exponents):
    """The integer polynomial ``poly`` in z, ``{degree: coefficient}``,
    times ``(z^a - 1)`` for each ``a`` in ``exponents``."""
    v = ZSparse(poly, 1)
    for a in exponents:
        v = (v << a) - v
    return v.terms


def poly_mul(p, q):
    """Product of integer polynomials in z given as {degree: coefficient}."""
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return {k: c for k, c in out.items() if c}
