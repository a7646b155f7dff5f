"""``quasilinearity_test`` against its definition by matrices.

The oracle below recovers a seed the way the function is defined: for each
candidate seed read off the first row, it builds the validated difference
matrix ``quasilinear(seed)`` and compares canonical forms, in T mode up to
row and column permutation and in L mode also up to sign folding and
global negation.  The program compares canonical row tuples instead and
builds no matrix; both must return the same seed, or both None, on
difference matrices (permuted, with flipped weights or signs, negated) and
on near-misses of the same shape.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow.rigidity import Row, WeightMatrix, quasilinear
from rigidpow.search import canonical_form, quasilinearity_test
from matrix_helpers import signs_negated


def oracle(matrix, mode):
    first = matrix.rows[0].weights
    if mode == "T":
        sign_choices = [tuple(1 for _ in first)]
        targets = {canonical_form(matrix, "T")}
    else:
        sign_choices = list(product((1, -1), repeat=len(first)))
        targets = {canonical_form(matrix, "L"),
                   canonical_form(signs_negated(matrix), "L")}
    for sigma in sign_choices:
        seed = (0, *(-s * w for s, w in zip(sigma, first)))
        if len(set(seed)) != len(seed):
            continue
        if canonical_form(quasilinear(seed), mode) in targets:
            return seed
    return None


def shuffled(draw, matrix):
    """``matrix`` with its rows and the columns of every row permuted."""
    rows = [Row(tuple(draw(st.permutations(r.weights))), r.sign) for r in matrix.rows]
    return WeightMatrix(tuple(draw(st.permutations(rows))))


@st.composite
def difference_matrices(draw):
    n = draw(st.integers(1, 4))
    seed = draw(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1, unique=True))
    return shuffled(draw, quasilinear(seed))


@st.composite
def flipped_matrices(draw):
    """A difference matrix with weights negated, either each flip folded
    into its row sign (a change the L-function cannot see) or weights and
    row signs flipped freely; then, half the time, every sign negated."""
    matrix = draw(difference_matrices())
    fold = draw(st.booleans())
    rows = []
    for weights, sign in matrix.rows:
        weights = list(weights)
        for j in range(len(weights)):
            if draw(st.booleans()):
                weights[j] = -weights[j]
                if fold or draw(st.booleans()):
                    sign = -sign
        if not fold and draw(st.booleans()):
            sign = -sign
        rows.append(Row(tuple(weights), sign))
    matrix = WeightMatrix(tuple(rows))
    return signs_negated(matrix) if draw(st.booleans()) else matrix


@st.composite
def near_misses(draw):
    """``m = n + 1`` rows that are mostly not a difference matrix: one entry
    of a difference matrix moved, or rows drawn freely."""
    matrix = draw(difference_matrices())
    n = matrix.n
    if draw(st.booleans()):
        rows = [list(weights) for weights, _ in matrix.rows]
        i, j = draw(st.integers(0, n)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.integers(-12, 12).filter(bool))
        signs = [1] * (n + 1)
    else:
        entry = st.integers(-6, 6).filter(bool)
        rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n + 1)]
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n + 1, max_size=n + 1))
    return shuffled(draw, WeightMatrix(tuple(Row(tuple(w), s) for w, s in zip(rows, signs))))


@settings(max_examples=300, deadline=None)
@given(st.one_of(difference_matrices(), flipped_matrices(), near_misses()),
       st.sampled_from("TL"))
def test_seed_recovery_matches_its_definition(matrix, mode):
    assert quasilinearity_test(matrix, mode) == oracle(matrix, mode)


@settings(max_examples=100, deadline=None)
@given(difference_matrices())
def test_difference_matrices_recover_a_seed_in_both_modes(matrix):
    for mode in "TL":
        seed = quasilinearity_test(matrix, mode)
        assert seed is not None
        assert canonical_form(quasilinear(seed), mode) == canonical_form(matrix, mode)
