"""Exact arithmetic layer: binary forms, polynomials in z with form
coefficients, factored-denominator bookkeeping, and evaluation.  Sums of
series are built and tested with the rows they come from, in
``test_rigidity``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow.algebra import DenomFactors, Form, LaurentRational, PoleAtSamplePoint, mul_factor

X = (1, 0)
Y = (0, 1)
ONE = (1,)


def forms(degree=2):
    return st.tuples(*[st.integers(-5, 5)] * (degree + 1))


def z_polys(degree=2):
    return st.dictionaries(st.integers(0, 3), forms(degree), max_size=3)


# -- Form ---------------------------------------------------------------------


def test_str_uses_graded_lex_order():
    assert str(Form((1, -1, 1))) == "x^2 - x*y + y^2"
    assert str(Form((0, 0))) == "0"
    assert str(Form((2, -3))) == "2*x - 3*y"
    assert str(Form((0, -1, 1, 0))) == "-x^2*y + x*y^2"
    assert str(Form((-3,))) == "-3"
    assert str(Form((0, 0, 0, 0, -1))) == "-y^4"


def test_constant_value():
    assert Form((7,)).constant_value() == 7
    assert Form((0, 0, 0)).constant_value() == 0
    assert Form((0, 0)).is_constant() and not Form((1, 0)).is_constant()
    with pytest.raises(ValueError):
        Form(X).constant_value()


def test_form_equality_and_evaluation():
    assert Form([1, 2]) == Form((1, 2)) and Form((1, 2)) != Form((2, 1))
    assert Form((0, 0)).is_zero() and not Form((0, 1)).is_zero()
    # x^2 - x*y + y^2 at (2, 3)
    assert Form((1, -1, 1)).evaluate(2, 3) == 4 - 6 + 9
    assert Form((5,)).evaluate(Fraction(1, 2), 7) == 5
    assert Form((0, 1)).evaluate(0, 0) == 0


def test_equal_forms_hash_equally():
    assert hash(Form([1, -1, 1])) == hash(Form((1, -1, 1)))
    assert len({Form((1, 2)), Form([1, 2]), Form((2, 1)), Form((0, 0)), Form((0,))}) == 4


# -- polynomials in z ---------------------------------------------------------


def test_mul_factor_on_one():
    assert mul_factor({0: ONE}, 2) == {2: ONE, 0: (-1,)}


def test_difference_of_squares():
    # (z + 1)(z - 1) = z^2 - 1: the z^1 terms cancel and are dropped
    assert mul_factor({1: ONE, 0: ONE}, 1) == {2: ONE, 0: (-1,)}


def test_mul_factor_expands_by_hand():
    # (x*z + y)(z - 1) = x*z^2 + (y - x)*z - y
    assert mul_factor({1: X, 0: Y}, 1) == {2: X, 1: (-1, 1), 0: (0, -1)}


@settings(max_examples=40)
@given(z_polys(), st.integers(1, 4), st.sampled_from([2, 3, -2, Fraction(1, 2)]))
def test_mul_factor_matches_pointwise_product(p, a, z0):
    lhs = LaurentRational(mul_factor(LaurentRational(p).num, a)).evaluate(z0, 2, 3)
    rhs = LaurentRational(p).evaluate(z0, 2, 3) * (Fraction(z0) ** a - 1)
    assert lhs == rhs


# -- DenomFactors -------------------------------------------------------------


def test_empty_denominator_is_one():
    assert DenomFactors().expand() == {0: 1}
    assert DenomFactors({2: 0}) == DenomFactors() and str(DenomFactors()) == "1"


def test_denominator_rejects_bad_factors():
    with pytest.raises(ValueError):
        DenomFactors({0: 1})
    with pytest.raises(ValueError):
        DenomFactors({2: -1})


def test_denominator_expand():
    # (z - 1)(z^2 - 1) = z^3 - z^2 - z + 1
    assert DenomFactors({1: 1, 2: 1}).expand() == {3: 1, 2: -1, 1: -1, 0: 1}
    # (z - 1)^2 (z^2 - 1) = z^4 - 2z^3 + 2z - 1: the z^2 terms cancel
    assert DenomFactors({1: 2, 2: 1}).expand() == {4: 1, 3: -2, 1: 2, 0: -1}


# -- LaurentRational ----------------------------------------------------------


def term_over(num_terms, den_factors):
    return LaurentRational(num_terms, DenomFactors(den_factors))


def test_normalization_drops_zero_coefficients():
    r = term_over({1: (0, 0), 0: [0, 2]}, {1: 1})
    assert r.num == {0: (0, 2)}
    assert LaurentRational(r.num, r.den) == r  # normalizing twice = normalizing once


def test_rational_eval_simple():
    # (z + 1)/(z - 1) at z = 2
    r = term_over({1: ONE, 0: ONE}, {1: 1})
    assert r.evaluate(2) == 3
    # (x*z + y)/(z - 1) at (2, 1, 1) and (2, 3, 5)
    r2 = term_over({1: X, 0: Y}, {1: 1})
    assert r2.evaluate(2, 1, 1) == 3
    assert r2.evaluate(2, 3, 5) == 11
    # no exponent is negative, so z = 0 is an ordinary point
    assert r2.evaluate(0, 3, 5) == -5
    assert str(term_over({}, {})) == "(0) / (1)"


def test_rational_eval_errors():
    r = term_over({0: ONE}, {2: 1})
    with pytest.raises(PoleAtSamplePoint):
        r.evaluate(1)
    with pytest.raises(PoleAtSamplePoint):
        r.evaluate(-1)  # (-1)^2 - 1 = 0
