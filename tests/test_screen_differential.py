"""The one-walk screens against the per-tuple screens they replaced.

On random matrices and on matrices whose rows cancel in pairs, the walk
must give the same violations, in the same order and with the same values,
and the same boundary flag, as summing every exponent tuple on its own.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow.bott import is_boundary_candidate, realizability_screen, screen
from rigidpow.rigidity import Row, WeightMatrix

import screen_oracle

WEIGHTS = st.integers(-12, 12).filter(bool)


@st.composite
def random_matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    return WeightMatrix(tuple(
        Row(tuple(draw(st.lists(WEIGHTS, min_size=n, max_size=n))), draw(st.sampled_from((1, -1))))
        for _ in range(m)))


@st.composite
def cancelling_matrices(draw):
    """Pairs of a ``+`` and a ``-`` row over the same weights, in any order
    within each row, and perhaps one row more."""
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
        rows += [Row(tuple(weights), 1), Row(tuple(draw(st.permutations(weights))), -1)]
    if draw(st.booleans()):
        rows.append(Row(tuple(draw(st.lists(WEIGHTS, min_size=n, max_size=n))), 1))
    return WeightMatrix(tuple(draw(st.permutations(rows))))


def assert_walk_matches_the_oracle(matrix):
    violations = screen_oracle.realizability_screen(matrix)
    boundary = screen_oracle.is_boundary_candidate(matrix)
    assert screen(matrix) == (violations, boundary)
    assert realizability_screen(matrix) == violations
    assert is_boundary_candidate(matrix) == boundary


@settings(max_examples=300, deadline=None)
@given(random_matrices())
def test_walk_matches_the_oracle_on_random_matrices(matrix):
    assert_walk_matches_the_oracle(matrix)


@settings(max_examples=100, deadline=None)
@given(cancelling_matrices())
def test_walk_matches_the_oracle_on_cancelling_pairs(matrix):
    assert_walk_matches_the_oracle(matrix)
