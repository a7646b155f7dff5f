"""Weight matrices, their characteristic rational functions, and exact
rigidity decisions.

A weight matrix holds ``m`` rows of ``n`` nonzero integer weights together
with a sign per row.  Its T-function is the sum over rows of the sign times
the product over weights ``w`` of ``(x*z^w + y) / (z^w - 1)``; the matrix is
*rigid* when that function does not depend on ``z``.  The L-function is the
same object specialized at ``x = y = 1``.

Constancy is decided by one exact polynomial identity: if the function is
constant, its value is forced (send ``z`` to infinity: each factor tends to
``x`` for a positive weight and ``-y`` for a negative one), so it suffices
to test ``numerator == candidate * expanded_denominator``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .algebra import DenomFactors, Form, LaurentRational, ZPoly, format_rational, mul_factor

# Witness grid for human-readable certificates; the symbolic residual is
# authoritative, the point is best-effort.
WITNESS_Z_VALUES = (2, 3, 5)
WITNESS_XY_VALUES = ((1, 1), (1, 2), (2, 1), (1, 0), (0, 1))


class ZeroWeight(ValueError):
    """A weight entry was zero; every weight must be a nonzero integer."""


class DuplicateEntries(ValueError):
    """Seed entries for a difference matrix must be pairwise distinct."""


def exact_int(name: str, value) -> int:
    """``value`` itself when it is an ``int``; anything else, ``bool`` and
    integral floats included, raises ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class Row(NamedTuple):
    weights: Tuple[int, ...]
    sign: int


@dataclass(frozen=True)
class WeightMatrix:
    """``m`` rows of ``n`` nonzero integer weights, each with a sign ±1.

    Weights and signs must be ``int`` (see :func:`exact_int`)."""

    rows: Tuple[Row, ...]

    def __post_init__(self):
        rows = tuple(Row(tuple(exact_int("weight", w) for w in ws), exact_int("sign", s))
                     for ws, s in self.rows)
        if not rows:
            raise ValueError("a weight matrix needs at least one row")
        n = len(rows[0].weights)
        if n < 1:
            raise ValueError("a weight matrix needs at least one column")
        for row in rows:
            if len(row.weights) != n:
                raise ValueError("all rows must have the same length")
            if any(w == 0 for w in row.weights):
                raise ZeroWeight("weights must be nonzero")
            if row.sign not in (1, -1):
                raise ValueError(f"row sign must be +1 or -1, got {row.sign}")
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0].weights)

    def with_signs_negated(self) -> "WeightMatrix":
        return WeightMatrix(tuple(Row(r.weights, -r.sign) for r in self.rows))

    def __str__(self) -> str:
        body = "; ".join(
            ("+" if row.sign == 1 else "-") + ": " + " ".join(map(str, row.weights))
            for row in self.rows
        )
        return f"[{body}]"


@dataclass(frozen=True)
class Witness:
    """Certificate that a function is not constant.

    The residual coefficient (lowest z-degree of numerator minus candidate
    times denominator) is the primary witness; the sample point is a
    readable cross-check and may be absent when the whole grid happens to
    evaluate to the candidate value.
    """

    residual_degree: int
    residual_coefficient: Form
    point: Optional[Tuple[Fraction, Fraction, Fraction]] = None
    value_at_point: Optional[Fraction] = None
    expected_at_point: Optional[Fraction] = None


@dataclass(frozen=True)
class RigidityVerdict:
    rigid: bool
    constant: Optional[Form] = None
    witness: Optional[Witness] = None

    def describe(self) -> str:
        if self.rigid:
            return f"rigid, constant = {self.constant}"
        w = self.witness
        if w is not None and w.point is not None:
            return (
                f"not rigid; at (z, x, y) = {tuple(map(str, w.point))} the value is "
                f"{format_rational(w.value_at_point)}, "
                f"expected {format_rational(w.expected_at_point)}"
            )
        if w is not None:
            return (
                f"not rigid; residual numerator has nonzero coefficient "
                f"{w.residual_coefficient} at z-degree {w.residual_degree}"
            )
        return "not rigid"


def _row_term(row: Row, degree: int) -> ZPoly:
    """The numerator of ``sign * prod_w (x*z^w + y) / (z^w - 1)`` with
    coefficients of the given form degree: ``n`` for the T-function, 0 for
    its ``x = y = 1`` collapse.  The denominator is
    ``prod_w (z^|w| - 1)``.

    Negative weights are normalized: multiplying numerator and denominator
    of ``(x*z^-a + y) / (z^-a - 1)`` by ``z^a`` gives
    ``-(x + y*z^a) / (z^a - 1)``, so every factor has a positive ``a``.
    Multiplying a form by ``x`` keeps its coefficient tuple and by ``y``
    shifts it one place; in the collapse both are the identity.
    """
    flips = sum(1 for w in row.weights if w < 0)
    num = {0: (row.sign * (-1) ** flips,) + (0,) * degree}
    for w in row.weights:
        a = abs(w)
        out = {}
        for k, c in num.items():
            cy = (0,) + c[:-1] if degree else c
            for e, v in ((k + a, c if w > 0 else cy), (k, cy if w > 0 else c)):
                have = out.get(e)
                out[e] = v if have is None else tuple(map(add, have, v))
        num = out
    return num


def _series(matrix: WeightMatrix, degree: int) -> LaurentRational:
    """Sum of the rows' terms over the per-factor maximum multiplicity of
    their denominators; the numerator is scaled accordingly and never
    reduced.  The sum runs row by row, so each row is scaled only by the
    factors the sum so far already has more of."""
    first, *rest = matrix.rows
    num = _row_term(first, degree)
    den = Counter(map(abs, first.weights))
    for row in rest:
        term = _row_term(row, degree)
        need = Counter(map(abs, row.weights))
        # smallest first: (z^a - 1) lengthens a dense product by a terms,
        # and every later factor multiplies that length
        for a in sorted((need - den).elements()):
            num = mul_factor(num, a)
        for a in sorted((den - need).elements()):
            term = mul_factor(term, a)
        den |= need
        for k, c in term.items():
            have = num.get(k)
            if have is None:
                num[k] = c
            elif any(total := tuple(map(add, have, c))):
                num[k] = total
            else:
                del num[k]
    return LaurentRational(num, DenomFactors(den))


def t_series(matrix: WeightMatrix) -> LaurentRational:
    """Sum over rows of sign times the product of weight factors; every
    coefficient is a form of degree ``n``."""
    return _series(matrix, matrix.n)


def l_series(matrix: WeightMatrix) -> LaurentRational:
    """The T-function specialized at ``x = y = 1`` (signature
    specialization): every coefficient is a form of degree 0, an integer."""
    return _series(matrix, 0)


def _candidate(matrix: WeightMatrix, degree: int) -> Form:
    # Row i contributes sign * x^(#positive weights) * (-y)^(#negative weights),
    # its termwise limit as z grows; x = y = 1 when degree is 0.
    coeffs = [0] * (degree + 1)
    for row in matrix.rows:
        flips = sum(1 for w in row.weights if w < 0)
        coeffs[flips if degree else 0] += row.sign * (-1) ** flips
    return Form(coeffs)


def candidate_constant(matrix: WeightMatrix) -> Form:
    """The forced value of a constant T-function, a form of degree ``n``."""
    return _candidate(matrix, matrix.n)


def _decide(series: LaurentRational, candidate: Form,
            xy_grid: Sequence[Tuple[int, int]]) -> RigidityVerdict:
    """Test ``numerator == candidate * expanded_denominator`` coefficient by
    coefficient, from the lowest z-degree up."""
    expanded = series.den.expand()
    cand = candidate.coeffs
    zero = (0,) * len(cand)
    for k in sorted(series.num.keys() | expanded.keys()):
        d = expanded.get(k, 0)
        coeff = tuple(c - d * v for c, v in zip(series.num.get(k, zero), cand))
        if any(coeff):
            break
    else:
        return RigidityVerdict(rigid=True, constant=candidate)
    point = value = expected = None
    for z0 in WITNESS_Z_VALUES:
        for x0, y0 in xy_grid:
            got = series.evaluate(z0, x0, y0)
            want = candidate.evaluate(x0, y0)
            if got != want:
                point = (Fraction(z0), Fraction(x0), Fraction(y0))
                value, expected = got, want
                break
        if point is not None:
            break
    witness = Witness(k, Form(coeff), point, value, expected)
    return RigidityVerdict(rigid=False, witness=witness)


def is_rigid(matrix: WeightMatrix) -> RigidityVerdict:
    """Decide exactly whether the T-function of ``matrix`` is constant."""
    return _decide(t_series(matrix), candidate_constant(matrix), WITNESS_XY_VALUES)


def is_l_rigid(matrix: WeightMatrix) -> RigidityVerdict:
    """Decide exactly whether the ``x = y = 1`` specialization is constant."""
    return _decide(l_series(matrix), _candidate(matrix, 0), ((1, 1),))


def normalize_signs(matrix: WeightMatrix) -> WeightMatrix:
    """Flip every negative weight positive, folding each flip into the row
    sign.  The ``x = y = 1`` function is unchanged by this transformation."""
    rows = []
    for row in matrix.rows:
        flips = sum(1 for w in row.weights if w < 0)
        rows.append(Row(tuple(abs(w) for w in row.weights), row.sign * (-1) ** flips))
    return WeightMatrix(tuple(rows))


def parity_check(matrix: WeightMatrix, constant: int) -> bool:
    """Structural parity constraint on a matrix whose x=y=1 function is the
    given constant: odd ``n`` forces constant 0 and even ``m``; even ``n``
    forces constant ≡ m (mod 2)."""
    m, n = matrix.m, matrix.n
    if n % 2 == 1:
        return constant == 0 and m % 2 == 0
    return (constant - m) % 2 == 0


def quasilinear(seed: Sequence[int]) -> WeightMatrix:
    """The (n+1) x n difference matrix of n+1 distinct integers.

    Row ``i`` is ``(seed[i] - seed[j])`` over all ``j != i``; all row signs
    are +1.  This is the weight data of a linear circle action on complex
    projective n-space.
    """
    seed = [exact_int("seed entry", v) for v in seed]
    if len(seed) < 2:
        raise ValueError("need at least two seed entries")
    if len(set(seed)) != len(seed):
        raise DuplicateEntries(f"seed entries must be distinct: {seed}")
    rows = []
    for i, ai in enumerate(seed):
        weights = tuple(ai - aj for j, aj in enumerate(seed) if j != i)
        rows.append(Row(weights, 1))
    return WeightMatrix(tuple(rows))


PairList = List[Tuple[Tuple[int, int], Tuple[int, int]]]


def pair_partition(matrix: WeightMatrix) -> Optional[PairList]:
    """Partition all weight entries into cross-row pairs of equal values.

    Requires positive weights (normalize first).  For each value, pairing
    succeeds exactly when its total count is even and no single row holds
    more than half of the occurrences; pairs are drawn greedily from the
    two rows with the most remaining occurrences, which always succeeds
    under that condition and keeps the output deterministic.

    Returns pairs ``((i, j), (k, l))`` of 0-based (row, column) positions
    with ``i != k``, or None when no pairing exists.
    """
    for row in matrix.rows:
        if any(w < 0 for w in row.weights):
            raise ValueError("pair_partition requires positive weights; normalize first")
    positions: dict[int, dict[int, List[int]]] = {}
    for i, row in enumerate(matrix.rows):
        for j, w in enumerate(row.weights):
            positions.setdefault(w, {}).setdefault(i, []).append(j)

    pairs: PairList = []
    for value in sorted(positions):
        per_row = positions[value]
        total = sum(len(cols) for cols in per_row.values())
        if total % 2 != 0 or max(len(cols) for cols in per_row.values()) > total // 2:
            return None
        remaining = {i: list(cols) for i, cols in per_row.items()}
        while any(remaining.values()):
            # two rows with most remaining occurrences, lowest index first
            order = sorted(remaining, key=lambda i: (-len(remaining[i]), i))
            i, k = order[0], order[1]
            j = remaining[i].pop(0)
            l = remaining[k].pop(0)
            pairs.append(((i, j), (k, l)))
    return pairs
