"""Exact arithmetic layer: binary forms, polynomials in z with form
coefficients, factored-denominator bookkeeping, and evaluation."""

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


def denominators():
    return st.dictionaries(st.integers(1, 3), st.integers(0, 2), max_size=2).map(DenomFactors)


def rationals(degree=2):
    return st.builds(LaurentRational, z_polys(degree), denominators())


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


def test_denominator_lcm_is_per_factor_max():
    d1 = DenomFactors({1: 2, 2: 1})
    d2 = DenomFactors({1: 1, 3: 1})
    assert d1.lcm(d2) == DenomFactors({1: 2, 2: 1, 3: 1})
    assert d1 * d2 == DenomFactors({1: 3, 2: 1, 3: 1})


def test_multiplicative_identity():
    d = DenomFactors({2: 3})
    assert d * DenomFactors.empty() == d
    assert DenomFactors.empty().expand() == {0: 1}


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


def test_additive_inverse_cancels():
    r = term_over({2: X, 0: Y}, {1: 1})
    total = r + term_over({2: (-1, 0), 0: (0, -1)}, {1: 1})
    assert total.num == {}
    assert total.den == r.den


def test_rational_add_same_denominator():
    # (x*z + y)/(z - 1) + (-x - y*z)/(z - 1): numerators just add
    r1 = term_over({1: X, 0: Y}, {1: 1})
    r2 = term_over({1: (0, -1), 0: (-1, 0)}, {1: 1})
    total = r1 + r2
    assert total.den == DenomFactors({1: 1})
    assert total.num == {1: (1, -1), 0: (-1, 1)}
    # the function is identically x - y
    for z0 in (2, 3, 5):
        assert total.evaluate(z0, 4, 7) == 4 - 7


def test_rational_add_cancellation():
    r = term_over({2: X, 0: Y}, {1: 1, 3: 2})
    negated = term_over({2: (-1, 0), 0: (0, -1)}, {1: 1, 3: 2})
    total = r + negated
    assert total.num == {}
    assert total.den == r.den


def test_rational_add_cross_multiplication_oracle():
    # 1/(z-1) + 1/(z^2-1): factored bookkeeping keeps both factors, so the
    # sum is (z^2 - 1 + z - 1) / ((z - 1)(z^2 - 1)).
    r1 = term_over({0: ONE}, {1: 1})
    r2 = term_over({0: ONE}, {2: 1})
    out = r1 + r2
    assert out.den == DenomFactors({1: 1, 2: 1})
    assert out.num == {2: ONE, 1: ONE, 0: (-2,)}
    assert str(out) == "((1)*z^2 + (1)*z + (-2)) / ((z - 1)*(z^2 - 1))"


@settings(max_examples=40)
@given(rationals(), rationals(), rationals())
def test_laurent_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)


@settings(max_examples=30)
@given(st.lists(rationals(), min_size=2, max_size=4))
def test_rational_add_agrees_with_pointwise_sum(rationals_):
    total = rationals_[0]
    for r in rationals_[1:]:
        total = total + r
    for z0 in (2, 3, -2, 5, Fraction(3, 2)):
        for x0, y0 in ((1, 1), (2, 1), (0, 3)):
            expected = sum(r.evaluate(z0, x0, y0) for r in rationals_)
            assert total.evaluate(z0, x0, y0) == expected


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
