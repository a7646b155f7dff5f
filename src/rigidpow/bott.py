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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .rigidity import WeightMatrix, exact_int, is_rigid

ChernExponents = Tuple[int, ...]


class WrongFixedPointCount(ValueError):
    """The two-fixed-point classifier needs exactly two rows."""


@dataclass(frozen=True)
class ClassLabel:
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


def elementary_symmetric(k: int, values: Sequence[int]) -> int:
    """sigma_k of the given integers; sigma_0 is 1."""
    if k < 0 or k > len(values):
        raise IndexError(f"sigma_{k} undefined for {len(values)} values")
    # coefficients of prod (1 + v*t) up to degree k
    coeffs = [0] * (k + 1)
    coeffs[0] = 1
    for v in values:
        for d in range(min(k, len(coeffs) - 1), 0, -1):
            coeffs[d] += coeffs[d - 1] * v
    return coeffs[k]


def weighted_degree(r: Sequence[int]) -> int:
    return sum((k + 1) * rk for k, rk in enumerate(r))


def exponent_tuples(n: int, max_degree: int) -> Iterator[ChernExponents]:
    """All tuples ``(r_1, .., r_n)`` with weighted degree at most ``max_degree``,
    in lexicographic order."""

    def rec(k: int, remaining: int, prefix: Tuple[int, ...]) -> Iterator[ChernExponents]:
        if k > n:
            yield prefix
            return
        for rk in range(remaining // k + 1):
            yield from rec(k + 1, remaining - k * rk, prefix + (rk,))

    yield from rec(1, max_degree, ())


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
    total = Fraction(0)
    for row in matrix.rows:
        numerator = 1
        for k, rk in enumerate(r, start=1):
            if rk:
                numerator *= elementary_symmetric(k, row.weights) ** rk
        denominator = row.sign
        for w in row.weights:
            denominator *= w
        total += Fraction(numerator, denominator)
    return total


def realizability_screen(matrix: WeightMatrix) -> List[Violation]:
    """Low-degree residue sums that fail to vanish.

    Every exponent tuple of weighted degree strictly below ``n`` (including
    the empty product, degree 0) must give zero for weight data coming from
    a closed unitary circle manifold; any nonzero value returned here rules
    the matrix out.
    """
    n = matrix.n
    violations = []
    for r in exponent_tuples(n, n - 1):
        value = chern_number(matrix, r)
        if value != 0:
            violations.append(Violation(r, value))
    return violations


def is_boundary_candidate(matrix: WeightMatrix) -> bool:
    """True when every top-degree residue sum vanishes.

    Stably complex manifolds are cobordant exactly when all their Chern
    numbers agree, so all-zero top numbers mark the data of a boundary.
    """
    n = matrix.n
    return all(
        chern_number(matrix, r) == 0
        for r in exponent_tuples(n, n)
        if weighted_degree(r) == n
    )


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
