"""The symbolic core against an independent exact oracle.

The oracle never builds a polynomial.  It clears the denominators of
``sum_i s_i prod_j (x z^w_ij + y) / (z^w_ij - 1) - c`` (``c`` the forced
constant) at integer ``(x, y)``, which gives an integer polynomial ``P(z)``
whose absolute coefficient sum is at most ``bound`` below, and evaluates it
once at a power of two ``z0 > 2 * bound``, where ``P(z0) = 0`` only if ``P``
is zero.  Every coefficient of ``P`` is a binary form of degree ``n``, so
``n + 1`` values of ``x`` at ``y = 1`` decide the identity for all
``(x, y)``; the ``x = y = 1`` specialization needs one.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow import rigidity
from rigidpow.rigidity import Row, WeightMatrix, is_l_rigid, is_rigid, quasilinear


def forced_coeffs(rows, n):
    """Coefficient k of x^(n-k) y^k in sum_i s_i x^(#w > 0) (-y)^(#w < 0)."""
    coeffs = [0] * (n + 1)
    for ws, s in rows:
        neg = sum(1 for w in ws if w < 0)
        coeffs[neg] += s * (-1) ** neg
    return coeffs


def identity_holds(rows, x, y, c):
    m, n = len(rows), len(rows[0][0])
    bound = m * (abs(x) + abs(y)) ** n * 2 ** (n * (m - 1)) + abs(c) * 2 ** (n * m)
    z0 = 1 << (bound.bit_length() + 1)
    total_num, total_den = 0, 1
    for ws, s in rows:
        num, den = s, 1
        for w in ws:
            p = z0 ** abs(w)
            num *= x * p + y if w > 0 else -(x + y * p)
            den *= p - 1
        total_num = total_num * den + num * total_den
        total_den *= den
    return total_num == c * total_den


def oracle_t(rows):
    n = len(rows[0][0])
    coeffs = forced_coeffs(rows, n)
    rigid = all(
        identity_holds(rows, x, 1, sum(c * x ** (n - k) for k, c in enumerate(coeffs)))
        for x in range(1, n + 2)
    )
    return rigid, tuple(coeffs)


def oracle_l(rows):
    c = sum(forced_coeffs(rows, len(rows[0][0])))
    return identity_holds(rows, 1, 1, c), c


WEIGHTS = st.integers(-8, 8).filter(bool)


@st.composite
def matrices(draw):
    """Random matrices (mostly not rigid) mixed with rigid families and
    their near misses, so that both branches of the decision are taken."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "difference", "mirror", "cancel"]))
    if kind == "random":
        m = draw(st.integers(1, 4))
        rows = [(draw(st.lists(WEIGHTS, min_size=n, max_size=n)), draw(st.sampled_from((1, -1))))
                for _ in range(m)]
    elif kind == "difference":
        seed = draw(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1, unique=True))
        rows = [(list(r.weights), r.sign) for r in quasilinear(seed).rows]
    else:
        ws = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
        other = [-w for w in ws] if kind == "mirror" else list(ws)
        sign = (-1) ** (n + 1) if kind == "mirror" else -1
        rows = [(ws, 1), (other, sign)]
    if draw(st.booleans()):  # perturb one weight
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))
        rows[i][0][j] = draw(WEIGHTS)
    return [(tuple(ws), s) for ws, s in rows]


def matrix_of(rows):
    return WeightMatrix(tuple(Row(ws, s) for ws, s in rows))


# Each property runs on both carriers of the residual: one int, and the
# dict from z-degree to packed int that a width limit of 0 forces.
CARRIER_LIMITS = (rigidity._PACKED_BITS, 0)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_is_rigid_matches_oracle(rows):
    rigid, coeffs = oracle_t(rows)
    for limit in CARRIER_LIMITS:
        with patch.object(rigidity, "_PACKED_BITS", limit):
            verdict = is_rigid(matrix_of(rows))
        assert verdict.rigid == rigid
        if rigid:
            assert verdict.constant.coeffs == coeffs
        else:
            assert not verdict.witness.residual_coefficient.is_zero()


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_is_l_rigid_matches_oracle(rows):
    rigid, c = oracle_l(rows)
    for limit in CARRIER_LIMITS:
        with patch.object(rigidity, "_PACKED_BITS", limit):
            verdict = is_l_rigid(matrix_of(rows))
        assert verdict.rigid == rigid
        if rigid:
            assert verdict.constant.constant_value() == c
        else:
            assert not verdict.witness.residual_coefficient.is_zero()
