"""The symbolic core against the independent exact oracles of
``core_oracle``, on both carriers of the residual."""

from unittest.mock import patch

from hypothesis import given, settings

from rigidpow import rigidity
from rigidpow.rigidity import is_l_rigid, is_rigid
from core_oracle import matrices, matrix_of, oracle_l, oracle_t


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
