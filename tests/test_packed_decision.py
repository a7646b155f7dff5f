"""The packed constancy decision on its two carriers against each other
and against the independent oracle of ``test_core_oracle``, and the exact
point evaluator behind every witness point against the definition's
``Fraction`` values (``exact_values``).

The residual is one Kronecker-substituted int when it fits in
``_PACKED_BITS`` bits and a ``ZSparse`` dict from z-degree to packed int
otherwise; patching ``_PACKED_BITS`` to 0 forces the dict on any matrix.
The two carriers must agree on rigidity, constant and the witness's
residual degree and coefficient.  A witness point is given only on the
int carrier: it must be the first grid point where the function's value
differs from its forced constant, and the dict carrier gives none.
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import prod
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow import rigidity
from rigidpow.algebra import ZSparse
from rigidpow.rigidity import (
    WITNESS_XY_VALUES,
    WITNESS_Z_VALUES,
    Row,
    WeightMatrix,
    Witness,
    _candidate,
    _packed_decide,
    is_l_rigid,
    is_rigid,
    point_value,
    quasilinear,
)
from exact_values import forced_constant, function_value
from test_core_oracle import matrices as oracle_matrices
from test_core_oracle import matrix_of, oracle_l, oracle_t

L_GRID = ((1, 1),)


def sparse(matrix, degree, grid=WITNESS_XY_VALUES):
    """The decision on the dict carrier, forced whatever the width."""
    with patch.object(rigidity, "_PACKED_BITS", 0):
        return _packed_decide(matrix, degree, _candidate(matrix, degree), grid)


def packed(matrix, degree, grid):
    """The decision on the int carrier, for a matrix that fits in it."""
    assert packed_bits(matrix, degree) <= rigidity._PACKED_BITS, "expected one int"
    return _packed_decide(matrix, degree, _candidate(matrix, degree), grid)


def packed_bits(matrix, degree):
    """Width of the packed residual as the docstring of _packed_decide
    defines it: B * (d + 1) bits per z-degree, over deg D + 1 z-degrees."""
    den = Counter()
    for row in matrix.rows:
        den |= Counter(map(abs, row.weights))
    digit = sum(den.values()) + matrix.m.bit_length() + 2
    return digit * (degree + 1) * (sum(a * k for a, k in den.items()) + 1)


def reference_point(matrix, grid):
    """The first grid point where the function's value differs from its
    forced constant, as ``(point, value, expected)``; all None if none
    does.  The L grid is the one point ``x = y = 1``, where the two modes
    agree."""
    for z0 in WITNESS_Z_VALUES:
        for x0, y0 in grid:
            value = function_value(matrix.rows, z0, x0, y0)
            expected = forced_constant(matrix.rows, x0, y0)
            if value != expected:
                return (z0, x0, y0), value, expected
    return None, None, None


def assert_same_decision(matrix, degree, grid):
    """The two carriers agree on everything but the witness point, which
    only the int carrier gives; returns the int carrier's verdict."""
    p, s = packed(matrix, degree, grid), sparse(matrix, degree)
    assert (p.rigid, p.constant) == (s.rigid, s.constant)
    if p.rigid:
        assert p.witness is None and s.witness is None
        return p
    pw, sw = p.witness, s.witness
    assert (pw.residual_degree, pw.residual_coefficient) == (
        sw.residual_degree, sw.residual_coefficient)
    assert (sw.point, sw.value_at_point, sw.expected_at_point) == (None, None, None)
    assert (pw.point, pw.value_at_point, pw.expected_at_point) == reference_point(matrix, grid)
    return p


def assert_agrees(matrix):
    """The two carriers agree, in T and L mode, the public decisions return
    the int carrier's verdict, and both agree with the oracle."""
    rows = [(r.weights, r.sign) for r in matrix.rows]
    t = assert_same_decision(matrix, matrix.n, WITNESS_XY_VALUES)
    assert is_rigid(matrix) == t
    rigid, coeffs = oracle_t(rows)
    assert t.rigid == rigid
    if rigid:
        assert t.constant.coeffs == coeffs
    l = assert_same_decision(matrix, 0, L_GRID)
    assert is_l_rigid(matrix) == l
    rigid, c = oracle_l(rows)
    assert l.rigid == rigid
    if rigid:
        assert l.constant.constant_value() == c


def weights(bound):
    return st.integers(-bound, bound).filter(bool)


@st.composite
def random_matrices(draw, values=weights(12), max_m=6, max_n=5):
    n = draw(st.integers(1, max_n))
    row = st.builds(Row, st.tuples(*[values] * n), st.sampled_from((1, -1)))
    return WeightMatrix(tuple(draw(st.lists(row, min_size=1, max_size=max_m))))


@st.composite
def planted_cancellations(draw):
    """Random rows plus row pairs that cancel exactly (same weights in any
    order, opposite signs), sometimes with one weight of a pair changed."""
    matrix = draw(random_matrices(max_m=3))
    rows = list(matrix.rows)
    for _ in range(draw(st.integers(1, 2))):
        ws = draw(st.lists(weights(12), min_size=matrix.n, max_size=matrix.n))
        sign = draw(st.sampled_from((1, -1)))
        twin = list(draw(st.permutations(ws)))
        if draw(st.booleans()):
            twin[draw(st.integers(0, matrix.n - 1))] = draw(weights(12))
        rows += [Row(tuple(ws), sign), Row(tuple(twin), -sign)]
    return WeightMatrix(tuple(draw(st.permutations(rows))))


@settings(max_examples=150, deadline=None)
@given(oracle_matrices())
def test_packed_matches_sparse_on_oracle_matrices(rows):
    assert_agrees(matrix_of(rows))


@settings(max_examples=150, deadline=None)
@given(random_matrices())
def test_packed_matches_sparse_on_random_matrices(matrix):
    assert_agrees(matrix)


@settings(max_examples=100, deadline=None)
@given(planted_cancellations())
def test_packed_matches_sparse_on_planted_cancellations(matrix):
    assert_agrees(matrix)


@settings(max_examples=60, deadline=None)
@given(random_matrices(values=st.sampled_from((61, -61, 122, -122, 1, -2)), max_m=4, max_n=3))
def test_packed_matches_sparse_at_weights_61_and_122(matrix):
    assert_agrees(matrix)


@settings(max_examples=150, deadline=None)
@given(random_matrices(values=weights(7), max_m=4, max_n=3),
       st.integers(-4, 4), st.integers(-4, 4))
def test_point_value_is_the_series_value(matrix, x0, y0):
    for z0 in (-3, -2, 2, 3, 5):
        top, bottom, constant = point_value(matrix.rows, z0, x0, y0)
        assert Fraction(top, bottom) == function_value(matrix.rows, z0, x0, y0)
        assert constant == forced_constant(matrix.rows, x0, y0)


def unit_weight_matrices():
    """Columns of weight +-1 only: the residual is built from powers of
    (z - 1) and (z + 1), whose binomial coefficients come nearest the
    bound 2^(B-1) of _packed_decide."""
    for n in range(1, 9):
        for signs in ((1,), (1, 1, 1), (1, -1), (1, -1, 1)):
            for negatives in range(n + 1):
                rows = []
                for i, sign in enumerate(signs):
                    k = (negatives + i) % (n + 1)  # row i has k weights -1
                    rows.append(Row((-1,) * k + (1,) * (n - k), sign))
                yield WeightMatrix(tuple(rows))


def residual_coefficients(matrix, degree, den):
    """Every coefficient of the decision's residual ``numerator - candidate
    * D``, which is ``D`` times the function minus its forced constant,
    with ``D`` the product of ``(z^a - 1)^den[a]``.  They are read off one
    exact value of it, at ``x = 1``, ``y = 2^s`` and ``z = 2^(s(d+1))`` (at
    ``x = y = 1`` and ``z = 2^s`` for ``d = 0``), as balanced
    base-``2^s`` digits.  ``s`` is twice the decision's digit ``B``, and
    no coefficient reaches ``2^(s-1)``: the residual's L1 norm is below
    ``2^(B-1)`` by the argument of ``_packed_decide``."""
    s = 2 * (sum(den.values()) + matrix.m.bit_length() + 2)
    y, z = (1 << s, 1 << s * (degree + 1)) if degree else (1, 1 << s)
    excess = function_value(matrix.rows, z, 1, y) - forced_constant(matrix.rows, 1, y)
    residual = prod((z**a - 1) ** k for a, k in den.items()) * excess
    assert residual.denominator == 1
    residual, half = residual.numerator, 1 << (s - 1)
    while residual:
        digit = (residual + half) % (2 * half) - half
        yield digit
        residual = (residual - digit) >> s


def test_unit_weight_columns_stay_within_the_digit_bound():
    nearest = 0.0
    for matrix in unit_weight_matrices():
        assert_agrees(matrix)
        den = Counter()
        for row in matrix.rows:
            den |= Counter(map(abs, row.weights))
        half = 2 ** (sum(den.values()) + matrix.m.bit_length() + 1)
        for degree in (0, matrix.n):
            largest = max(map(abs, residual_coefficients(matrix, degree, den)), default=0)
            assert largest < half
            nearest = max(nearest, largest / half)
    # the family reaches within a factor of three of the bound
    assert nearest > 1 / 3


def widest_packed(family, degree):
    """The largest w for which family(w) still packs, by bisection."""
    lo, hi = 2, 2
    while packed_bits(family(hi), degree) <= rigidity._PACKED_BITS:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if packed_bits(family(mid), degree) <= rigidity._PACKED_BITS:
            lo = mid
        else:
            hi = mid
    return lo


def cancelling(w):
    return WeightMatrix((Row((w, 3), 1), Row((3, w), -1)))


def difference(w):
    return quasilinear([0, 1, w])


def not_rigid(w):
    return WeightMatrix((Row((w, 1), 1), Row((1, w - 1), -1)))


def mirror(w):
    """``+: w`` and ``+: -w``: rigid with constant ``x - y``.  Its rows
    cancel only after the sign folding of L mode."""
    return WeightMatrix((Row((w,), 1), Row((-w,), 1)))


DEGREE = {"T": lambda matrix: matrix.n, "L": lambda matrix: 0}

# (family, mode) whose rows cancel in pairs, so that the cancellation
# certificate decides them before any identity is built.
CERTIFIED = {(cancelling, "T"), (cancelling, "L"), (mirror, "L")}


def without_point(verdict):
    w = verdict.witness
    if w is None:
        return verdict
    return replace(verdict, witness=Witness(w.residual_degree, w.residual_coefficient))


@pytest.mark.parametrize("family", [cancelling, difference, not_rigid, mirror])
@pytest.mark.parametrize("mode", ["T", "L"])
def test_width_limit_just_below_and_just_above(family, mode):
    """On both sides of the limit the decision answers, as the forced dict
    carrier does; only the int carrier, below the limit, adds a witness
    point.  The grid is the one point (x, y) = (1, 1): at z0 = 2 with
    weights near a million, each grid point costs a gcd of integers with
    hundreds of thousands of digits."""
    degree = DEGREE[mode](family(2))
    w = widest_packed(family, degree)
    below, above = family(w), family(w + 1)
    assert packed_bits(below, degree) <= rigidity._PACKED_BITS < packed_bits(above, degree)
    for matrix in below, above:
        verdict = _packed_decide(matrix, degree, _candidate(matrix, degree), L_GRID)
        assert without_point(verdict) == sparse(matrix, degree, L_GRID)
        if not verdict.rigid:
            assert (verdict.witness.point is not None) == (matrix is below)


@pytest.mark.parametrize("family", [cancelling, difference, mirror])
@pytest.mark.parametrize("mode", ["T", "L"])
def test_above_the_width_limit_the_dict_carrier_decides(family, mode, monkeypatch):
    """Above the width limit the public decision builds its residual on
    the dict carrier, except for a matrix the certificate decides first:
    its verdict is still the dict carrier's, and no ZSparse is built."""
    decide = is_rigid if mode == "T" else is_l_rigid
    degree = DEGREE[mode](family(2))
    w = widest_packed(family, degree)
    below, above = family(w), family(w + 1)
    expected = sparse(below, degree), sparse(above, degree)
    built = []
    monkeypatch.setattr(rigidity, "ZSparse", lambda *args: built.append(args) or ZSparse(*args))
    assert decide(below) == expected[0]
    assert built == []
    assert decide(above) == expected[1]
    assert bool(built) == ((family, mode) not in CERTIFIED)
