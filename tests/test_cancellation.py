"""The cancellation certificate inside ``is_rigid`` and ``is_l_rigid``
against the packed identity it goes before and against the independent
oracle of ``core_oracle``.

Every comparison is of the whole ``RigidityVerdict``.  ``_cancels`` is
asserted too, so that each family is known to take the branch it is
meant to test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow import search
from rigidpow.rigidity import (
    WITNESS_XY_VALUES,
    Row,
    WeightMatrix,
    _cancels,
    _candidate,
    _packed_decide,
    is_l_rigid,
    is_rigid,
)
from core_oracle import oracle_l, oracle_t

# decide, degree of the candidate, witness grid, oracle, sign folding
MODES = {
    "T": (is_rigid, lambda matrix: matrix.n, WITNESS_XY_VALUES, oracle_t, False),
    "L": (is_l_rigid, lambda matrix: 0, ((1, 1),), oracle_l, True),
}


def certified(matrix, mode):
    return _cancels(matrix.rows, MODES[mode][4])


def assert_agrees(matrix, mode):
    """The decision equals the packed identity's verdict in full, and the
    oracle's rigidity and constant."""
    decide, degree, grid, oracle, _ = MODES[mode]
    degree = degree(matrix)
    verdict = decide(matrix)
    assert verdict == _packed_decide(matrix, degree, _candidate(matrix, degree), grid)
    rigid, constant = oracle([(r.weights, r.sign) for r in matrix.rows])
    assert verdict.rigid == rigid
    if rigid:
        coeffs = verdict.constant.coeffs
        assert (coeffs if mode == "T" else coeffs[0]) == constant


WEIGHTS = st.integers(-9, 9).filter(bool)


@st.composite
def paired(draw, fold=False, miss=None):
    """Rows in ``+``/``-`` pairs, the second row of each pair a permutation
    of the first, shuffled together.  With ``fold`` each twin also has
    random weights negated and its sign set so that the pair cancels only
    after L mode's sign folding.  ``miss`` plants a near miss: one pair
    with equal signs ("same-sign"), one twin with a weight changed
    ("one-weight"), or an extra row that makes ``m`` odd ("odd")."""
    n = draw(st.integers(1, 4))
    pairs = draw(st.integers(1, 3))
    rows = []
    for p in range(pairs):
        ws = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
        sign = draw(st.sampled_from((1, -1)))
        twin = draw(st.permutations(ws))
        twin_sign = -sign
        if fold:
            flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            twin = [-w if f else w for w, f in zip(twin, flips)]
            twin_sign *= (-1) ** sum(flips)
        if p == 0 and miss == "same-sign":
            twin_sign = -twin_sign
        if p == 0 and miss == "one-weight":
            j = draw(st.integers(0, n - 1))
            twin[j] = draw(WEIGHTS.filter(lambda w, old=twin[j]: w != old))
        rows += [Row(tuple(ws), sign), Row(tuple(twin), twin_sign)]
    if miss == "odd":
        rows.append(Row(tuple(draw(st.lists(WEIGHTS, min_size=n, max_size=n))),
                        draw(st.sampled_from((1, -1)))))
    return WeightMatrix(tuple(draw(st.permutations(rows))))


@settings(max_examples=150, deadline=None)
@given(paired())
def test_cancelling_pairs_are_certified_in_both_modes(matrix):
    for mode in MODES:
        assert certified(matrix, mode)
        assert_agrees(matrix, mode)


@settings(max_examples=150, deadline=None)
@given(paired(fold=True))
def test_pairs_that_cancel_after_sign_folding_are_certified_in_l_mode(matrix):
    assert certified(matrix, "L")
    for mode in MODES:
        assert_agrees(matrix, mode)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("same-sign", "one-weight", "odd")).flatmap(
    lambda miss: st.booleans().flatmap(lambda fold: paired(fold, miss))))
def test_near_misses_are_not_certified(matrix):
    for mode in MODES:
        assert not certified(matrix, mode)
        assert_agrees(matrix, mode)


# The specs of the benchmark's sweep workload (SWEEP_SPECS in
# perfbench/run.py), each with its survivors and how many of them cancel
# in pairs.
SWEEP_SPECS = {
    ("L", 2, 1, 6): (6, 6), ("L", 4, 1, 6): (21, 21),
    ("T", 2, 1, 5): (20, 10), ("T", 2, 2, 5): (55, 55), ("T", 2, 3, 5): (232, 220),
    ("L", 3, 2, 8): (32, 0), ("T", 3, 2, 6): (120, 0), ("L", 4, 2, 5): (128, 120),
}


def test_every_survivor_of_the_benchmark_sweeps(monkeypatch):
    for (mode, m, n, bound), (survivors, cancelling) in SWEEP_SPECS.items():
        seen = []
        name = "is_rigid" if mode == "T" else "is_l_rigid"
        monkeypatch.setattr(search, name, lambda matrix: seen.append(matrix) or MODES[mode][0](matrix))
        spec = search.SearchSpec(m, n, bound, mode)
        [result] = search._run_shards(spec, [0], 1, spec.enum_budget, spec.check_budget)
        assert len(seen) == survivors
        assert sum(certified(matrix, mode) for matrix in seen) == cancelling
        for matrix in seen:
            assert_agrees(matrix, mode)
        assert [matrix for matrix, _ in result.found] == seen
