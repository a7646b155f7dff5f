"""The realizability and boundary screens as they were before they walked
the exponent tree once, kept as an oracle: every exponent tuple is listed
on its own and its residue sum computed from scratch.

``exponent_tuples`` lists the tuples of weighted degree at most a bound in
lexicographic order, ``chern_value`` sums one tuple's residues over the
rows' common denominator, and ``realizability_screen`` and
``is_boundary_candidate`` are the two screens built on them.
"""

import math
from fractions import Fraction

from rigidpow.bott import Violation


def sigmas(values):
    """``(sigma_0, .., sigma_len)`` of the given integers: the coefficients
    of ``prod (1 + v*t)``."""
    coeffs = [1] + [0] * len(values)
    for i, v in enumerate(values, start=1):
        for d in range(i, 0, -1):
            coeffs[d] += coeffs[d - 1] * v
    return tuple(coeffs)


def elementary_symmetric(k, values):
    """sigma_k of the given integers; sigma_0 is 1."""
    if k < 0 or k > len(values):
        raise IndexError(f"sigma_{k} undefined for {len(values)} values")
    return sigmas(values)[k]


def weighted_degree(r):
    return sum((k + 1) * rk for k, rk in enumerate(r))


def exponent_tuples(n, max_degree):
    """All tuples ``(r_1, .., r_n)`` with weighted degree at most
    ``max_degree``, in lexicographic order."""

    def rec(k, remaining, prefix):
        if k > n:
            yield prefix
            return
        for rk in range(remaining // k + 1):
            yield from rec(k + 1, remaining - k * rk, prefix + (rk,))

    yield from rec(1, max_degree, ())


def residues(matrix):
    """Each row's ``(sigma_0, .., sigma_n)`` with the integer that puts its
    residue over the rows' common denominator, and that denominator."""
    dens = [row.sign * math.prod(row.weights) for row in matrix.rows]
    common = math.lcm(*dens)
    return [(sigmas(row.weights), common // den) for row, den in zip(matrix.rows, dens)], common


def chern_value(matrix_residues, r):
    rows, common = matrix_residues
    total = 0
    for sigma, cofactor in rows:
        numerator = cofactor
        for k, rk in enumerate(r, start=1):
            if rk:
                numerator *= sigma[k] ** rk
        total += numerator
    return Fraction(total, common)


def realizability_screen(matrix):
    n = matrix.n
    matrix_residues = residues(matrix)
    violations = []
    for r in exponent_tuples(n, n - 1):
        value = chern_value(matrix_residues, r)
        if value != 0:
            violations.append(Violation(r, value))
    return violations


def is_boundary_candidate(matrix):
    n = matrix.n
    matrix_residues = residues(matrix)
    return all(
        chern_value(matrix_residues, r) == 0
        for r in exponent_tuples(n, n)
        if weighted_degree(r) == n
    )
