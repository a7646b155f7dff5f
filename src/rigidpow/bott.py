"""Chern numbers of fixed-point weight data via the Bott residue formula,
plus the realizability and boundary screens built on them.

For a weight matrix with rows ``(w_i1, .., w_in)`` and signs ``e_i``, the
Chern number attached to an exponent tuple ``r = (r_1, .., r_n)`` is the
exact rational

    sum_i  sigma_1(row_i)^r_1 * .. * sigma_n(row_i)^r_n / (e_i * prod_j w_ij)

where ``sigma_k`` is the k-th elementary symmetric function.  For weight
data realized by a closed unitary circle manifold this value is an integer
when the weighted degree ``r_1 + 2 r_2 + .. + n r_n`` equals ``n`` and zero
when it is smaller; arbitrary matrices need not satisfy either, which is
exactly what the screens report.

Both screens come from one walk of the exponent tuples of weighted degree
at most ``n`` (see :func:`screen`): each row's product of sigma powers is
carried down the walk, so each step costs one multiplication per row, and a
``Fraction`` is built only for a nonzero low-degree sum.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .rigidity import WeightMatrix, exact_int, is_rigid

ChernExponents = Tuple[int, ...]

# The most columns the realizability and boundary screens take.  They walk
# every exponent tuple of weighted degree at most n, sum_{k <= n} p(k) of
# them: 177970 at n = 40 and 5.67 million at n = 60, so past 60 a screen
# cannot finish.
MAX_SCREEN_N = 60


class WrongFixedPointCount(ValueError):
    """The two-fixed-point classifier needs exactly two rows."""


class ClassLabel(NamedTuple):
    """Outcome of the two-fixed-point classification.

    ``kind`` is one of ``"Z"`` (cancelling duplicate rows), ``"L1"`` (the
    2-sphere pattern ``a, -a``), ``"S3"`` (the 6-sphere pattern
    ``(a, b, -(a+b))`` and its negation) or ``"unclassified"``, in which
    case ``reason`` summarizes the rigidity verdict.
    """

    kind: str
    reason: Optional[str] = None


class Violation(NamedTuple):
    exponents: ChernExponents
    value: Fraction


def _sigmas(values: Sequence[int]) -> Tuple[int, ...]:
    """``(sigma_0, .., sigma_len)`` of the given integers: the coefficients
    of ``prod (1 + v*t)``."""
    coeffs = [1] + [0] * len(values)
    for i, v in enumerate(values, start=1):
        for d in range(i, 0, -1):
            coeffs[d] += coeffs[d - 1] * v
    return tuple(coeffs)


_Residues = Tuple[List[Tuple[Tuple[int, ...], int]], int]


def _residues(matrix: WeightMatrix) -> _Residues:
    """Each row's ``(sigma_0, .., sigma_n)`` with the integer that puts its
    residue over the rows' common denominator, and that denominator."""
    dens = [row.sign * math.prod(row.weights) for row in matrix.rows]
    common = math.lcm(*dens)
    return [(_sigmas(row.weights), common // den) for row, den in zip(matrix.rows, dens)], common


def chern_number(matrix: WeightMatrix, r: Sequence[int]) -> Fraction:
    """Exact value of the fixed-point residue sum for exponents ``r``.

    ``r`` must have one entry per column.  Integrality is reported, never
    enforced: the caller decides what a non-integer means.
    """
    r = tuple(exact_int("exponent", v) for v in r)
    if len(r) != matrix.n:
        raise ValueError(f"need {matrix.n} exponents, got {len(r)}")
    if any(v < 0 for v in r):
        raise ValueError("exponents must be nonnegative")
    rows, common = _residues(matrix)
    total = 0
    for sigma, cofactor in rows:
        for k, rk in enumerate(r, start=1):
            if rk:
                cofactor *= sigma[k] ** rk
        total += cofactor
    return Fraction(total, common)


def screen(matrix: WeightMatrix) -> Tuple[List[Violation], bool]:
    """:func:`realizability_screen` and :func:`is_boundary_candidate` of
    ``matrix`` from one walk of its exponent tuples.

    The walk picks ``r_1``, then ``r_2``, .., each in increasing order, so
    it meets every tuple of weighted degree at most ``n`` in lexicographic
    order.  It carries each row's cofactor times its sigma powers chosen so
    far, so a step that raises ``r_k`` by one multiplies each row's product
    by its ``sigma_k``, and once ``k`` exceeds the degree left every later
    exponent is 0 and the products sum to the tuple's numerator.  Only a
    nonzero sum becomes a ``Fraction``, and only below the top degree.  A
    matrix of more than ``MAX_SCREEN_N`` columns raises ``ValueError``
    before any sigma is computed.
    """
    n = matrix.n
    if n > MAX_SCREEN_N:
        raise ValueError(f"the realizability and boundary screens take at most "
                         f"{MAX_SCREEN_N} columns, got n = {n}")
    rows, common = _residues(matrix)
    columns = list(zip(*(sigma for sigma, _ in rows)))  # columns[k]: each row's sigma_k
    violations, boundary = [], True

    def walk(k: int, left: int, prefix: ChernExponents, products: List[int]) -> None:
        nonlocal boundary
        if left < k:
            total = sum(products)
            if total and left:
                violations.append(Violation(prefix + (0,) * (n + 1 - k), Fraction(total, common)))
            elif total:
                boundary = False
            return
        walk(k + 1, left, prefix + (0,), products)
        column = columns[k]
        for rk in range(1, left // k + 1):
            products = list(map(operator.mul, products, column))
            walk(k + 1, left - k * rk, prefix + (rk,), products)

    walk(1, n, (), [cofactor for _, cofactor in rows])
    return violations, boundary


def realizability_screen(matrix: WeightMatrix) -> List[Violation]:
    """Low-degree residue sums that fail to vanish.

    Every exponent tuple of weighted degree strictly below ``n`` (including
    the empty product, degree 0) must give zero for weight data coming from
    a closed unitary circle manifold; any nonzero value returned here rules
    the matrix out, in lexicographic order of the exponents.  A matrix of
    more than ``MAX_SCREEN_N`` columns raises ``ValueError``.
    """
    return screen(matrix)[0]


def is_boundary_candidate(matrix: WeightMatrix) -> bool:
    """True when every top-degree residue sum vanishes.

    Stably complex manifolds are cobordant exactly when all their Chern
    numbers agree, so all-zero top numbers mark the data of a boundary.  A
    matrix of more than ``MAX_SCREEN_N`` columns raises ``ValueError``.
    """
    return screen(matrix)[1]


def kosniowski_bound(n: int) -> int:
    """Conjectured minimum fixed-point count for non-bounding data: floor(n/2) + 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return n // 2 + 1


def _sorted_row(row) -> Tuple[int, ...]:
    return tuple(sorted(row.weights, reverse=True))


def classify_two_fixed_points(matrix: WeightMatrix) -> ClassLabel:
    """Match a two-row matrix against the three rigid two-point families.

    The families are syntactic patterns on canonically ordered rows, so
    patterns are checked first; rigidity is computed only to explain an
    unclassified matrix.
    """
    if matrix.m != 2:
        raise WrongFixedPointCount(f"classifier needs m = 2, got m = {matrix.m}")
    row1, row2 = matrix.rows
    w1, w2 = _sorted_row(row1), _sorted_row(row2)
    if w1 == w2 and row1.sign == -row2.sign:
        return ClassLabel("Z")
    if row1.sign == row2.sign:
        if matrix.n == 1 and w1[0] == -w2[0]:
            return ClassLabel("L1")
        if matrix.n == 3 and w1 == tuple(sorted((-w for w in w2), reverse=True)):
            for cand in (w1, w2):
                positives = sorted(w for w in cand if w > 0)
                negatives = [w for w in cand if w < 0]
                if len(positives) == 2 and len(negatives) == 1 and -negatives[0] == sum(positives):
                    return ClassLabel("S3")
    return ClassLabel("unclassified", reason=is_rigid(matrix).describe())
