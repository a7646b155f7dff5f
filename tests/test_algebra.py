"""Exact arithmetic layer: binary forms, the packed integer kept sparse in
z, polynomials in z with form coefficients, factored-denominator
bookkeeping, and evaluation.  Sums of
series are built and tested with the rows they come from, in
``test_rigidity``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow.algebra import DenomFactors, Form, LaurentRational, ZSparse

X = (1, 0)
Y = (0, 1)
ONE = (1,)


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


def test_form_equality():
    assert Form([1, 2]) == Form((1, 2)) and Form((1, 2)) != Form((2, 1))
    assert Form((0, 0)).is_zero() and not Form((0, 1)).is_zero()


def test_equal_forms_hash_equally():
    assert hash(Form([1, -1, 1])) == hash(Form((1, -1, 1)))
    assert len({Form((1, 2)), Form([1, 2]), Form((2, 1)), Form((0, 0)), Form((0,))}) == 4


# -- ZSparse: a packed integer kept sparse in z ------------------------------


def value(v):
    """The plain int that a ZSparse stands for."""
    return sum(c << (e * v.step) for e, c in v.terms.items())


def digit_terms(step):
    """Terms whose values are balanced base-2^step digits, as the packed
    forms of the decision are: such a sum is zero only when every term is."""
    half = 1 << (step - 1)
    return st.dictionaries(st.integers(0, 6), st.integers(1 - half, half - 1), max_size=5)


@st.composite
def zsparse_pairs(draw):
    step = draw(st.integers(1, 9))
    return ZSparse(draw(digit_terms(step)), step), ZSparse(draw(digit_terms(step)), step)


def test_factor_times_one():
    one = ZSparse({0: 1}, 1)
    assert ((one << 2) - one).terms == {2: 1, 0: -1}


def test_difference_of_squares():
    # (z + 1)(z - 1) = z^2 - 1: the z^1 terms cancel and are dropped
    v = ZSparse({1: 1, 0: 1}, 1)
    assert ((v << 1) - v).terms == {2: 1, 0: -1}


def test_factor_expands_packed_forms_by_hand():
    # (x*z + y)(z - 1) = x*z^2 + (y - x)*z - y, with x = 1 and y = 2^4 in
    # each z-digit of 8 bits
    v = ZSparse({1: 1, 0: 1 << 4}, 8)
    assert ((v << 8) - v).terms == {2: 1, 1: (1 << 4) - 1, 0: -(1 << 4)}


@settings(max_examples=200)
@given(zsparse_pairs(), st.integers(0, 40))
def test_zsparse_operations_match_the_plain_int(pair, s):
    u, v = pair
    assert value(u << s) == value(u) << s
    assert value(u + v) == value(u) + value(v)
    assert value(u - v) == value(u) - value(v)
    assert value(-u) == -value(u)
    assert bool(u) == bool(value(u))
    assert not (u - u) and not (u + -u)
    assert 0 not in (u + v).terms.values() and 0 not in (u - v).terms.values()


def shift_chain(u, v, shifts):
    for s in shifts:
        u, v = (u << s) - v, -(v << s) + u
    return u


@settings(max_examples=200)
@given(zsparse_pairs(), st.lists(st.integers(0, 20), min_size=1, max_size=4), st.integers(0, 12))
def test_zsparse_cap_truncates_modulo_a_power_of_z(pair, shifts, cap):
    # Dropping every key above the cap is a ring map, so the capped
    # result of any chain of shifts and sums is the uncapped result's low
    # terms.
    u, v = pair
    full = shift_chain(u, v, shifts)
    capped = shift_chain(ZSparse(u.terms, u.step, cap), ZSparse(v.terms, v.step, cap), shifts)
    assert capped.terms == {e: c for e, c in full.terms.items() if e <= cap}


# -- DenomFactors -------------------------------------------------------------


def test_empty_denominator_is_one():
    assert DenomFactors().expand() == {0: 1}
    assert DenomFactors().evaluate(3) == 1


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


def test_rational_eval_errors():
    r = term_over({0: ONE}, {2: 1})
    with pytest.raises(ZeroDivisionError):
        r.evaluate(1)
    with pytest.raises(ZeroDivisionError):
        r.evaluate(-1)  # (-1)^2 - 1 = 0
