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

:func:`is_rigid` and :func:`is_l_rigid` test that identity by Kronecker
substitution: both sides are evaluated once, at a power of two large enough
that every coefficient keeps its own digit (see :func:`_packed_decide`).
The residual is one int when it fits in ``_PACKED_BITS`` bits, and else a
:class:`~rigidpow.algebra.ZSparse` dict from z-degree to packed int, built
lowest degree first.  Either way it is summed over a merge tree: groups of
rows are brought to their partial common denominators and joined pairwise
(see :func:`_row_sum`).  :func:`t_series` / :func:`l_series` decode the
same sum.  Before either, a matrix whose rows cancel in pairs is certified
rigid with constant 0 (see :func:`is_rigid`).

Every exact value at an integer point comes from :func:`point_value`; a
witness point is given only for a matrix narrow enough to pack.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .algebra import DenomFactors, Form, LaurentRational, ZSparse, format_rational

# Witness grid for human-readable certificates; the symbolic residual is
# authoritative, the point is best-effort and only for int-carried residuals.
WITNESS_Z_VALUES = (2, 3, 5)
WITNESS_XY_VALUES = ((1, 1), (1, 2), (2, 1), (1, 0), (0, 1))

# Widest residual, in bits, that _packed_decide packs into one int (2 MiB);
# a wider one is held sparse in z.
_PACKED_BITS = 1 << 24


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


def _int_row(row) -> Row:
    """``row``, a ``(weights, sign)`` pair, as a ``Row`` with a tuple of
    weights, after :func:`exact_int` has passed every weight and then the
    sign; a ``Row`` that already holds a tuple is returned as it is."""
    weights, sign = row
    if type(weights) is not tuple:
        weights = tuple(weights)
    for w in weights:
        if type(w) is not int:
            exact_int("weight", w)
    if type(sign) is not int:
        exact_int("sign", sign)
    return row if type(row) is Row and row.weights is weights else Row(weights, sign)


class WeightMatrix:
    """``m`` rows of ``n`` nonzero integer weights, each with a sign ±1.

    Weights and signs must be ``int`` (see :func:`exact_int`).  A matrix is
    immutable; two are equal, and hash alike, when their rows are."""

    __slots__ = ("rows",)

    def __init__(self, rows: Tuple[Row, ...]):
        # Every row's types are checked before any shape or value check;
        # that order decides which fault a malformed matrix reports.
        rows = tuple(map(_int_row, rows))
        if not rows:
            raise ValueError("a weight matrix needs at least one row")
        n = len(rows[0].weights)
        if n < 1:
            raise ValueError("a weight matrix needs at least one column")
        for weights, sign in rows:
            if len(weights) != n:
                raise ValueError("all rows must have the same length")
            if 0 in weights:
                raise ZeroWeight("weights must be nonzero")
            if sign not in (1, -1):
                raise ValueError(f"row sign must be +1 or -1, got {sign}")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a WeightMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a WeightMatrix is immutable")

    def __eq__(self, other):
        return self.rows == other.rows if type(other) is WeightMatrix else NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"WeightMatrix(rows={self.rows!r})"

    def __reduce__(self):
        # the slot has no default pickling once __setattr__ refuses it
        return WeightMatrix, (self.rows,)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0].weights)

    def __str__(self) -> str:
        return f"[{'; '.join(map(row_text, self.rows))}]"


def row_text(row: Row) -> str:
    """A row as ``str`` of a matrix shows it: ``"+: 3 1"`` or ``"-: 3 1"``."""
    return ("+" if row.sign == 1 else "-") + ": " + " ".join(map(str, row.weights))


def _valid_matrix(rows: Tuple[Row, ...]) -> WeightMatrix:
    """The :class:`WeightMatrix` of ``rows`` without its checks.

    Precondition, which the caller must guarantee: ``rows`` is a nonempty
    tuple of ``Row`` objects, each holding a tuple of the same number ``n
    >= 1`` of nonzero ``int`` weights and an ``int`` sign ±1; that is, a
    tuple that ``WeightMatrix(rows)`` would accept and store as it is.  The
    rows of :func:`rigidpow.search.row_universe` and of the row list of
    :func:`rigidpow.search.triple_identity_search` are such rows, so a
    candidate drawn from them is valid by construction, and so are the rows
    :func:`rigidpow.cli.parse_matrix_text` has checked.  The result equals
    ``WeightMatrix(rows)``, hashes alike and pickles through
    ``WeightMatrix``, which checks the rows again on loading."""
    matrix = object.__new__(WeightMatrix)
    object.__setattr__(matrix, "rows", rows)
    return matrix


class Witness(NamedTuple):
    """Certificate that a function is not constant.

    The residual coefficient (lowest z-degree of numerator minus candidate
    times denominator) is the primary witness; the sample point is a
    readable cross-check, given only when the residual fits in one int
    (see :func:`_packed_decide`), and absent when the whole grid happens to
    evaluate to the candidate value.
    """

    residual_degree: int
    residual_coefficient: Form
    point: Optional[Tuple[Fraction, Fraction, Fraction]] = None
    value_at_point: Optional[Fraction] = None
    expected_at_point: Optional[Fraction] = None


class RigidityVerdict(NamedTuple):
    rigid: bool
    constant: Optional[Form] = None
    witness: Optional[Witness] = None

    def describe(self) -> str:
        if self.rigid:
            return f"rigid, constant = {self.constant}"
        w = self.witness
        if w is not None and w.point is not None:
            return (
                f"not rigid; at (z, x, y) = ({', '.join(map(str, w.point))}) the value is "
                f"{format_rational(w.value_at_point)}, "
                f"expected {format_rational(w.expected_at_point)}"
            )
        if w is not None:
            return (
                f"not rigid; residual numerator has nonzero coefficient "
                f"{w.residual_coefficient} at z-degree {w.residual_degree}"
            )
        return "not rigid"


def _layout(matrix: WeightMatrix, degree: int):
    """The packing of :func:`_packed_decide` for ``matrix`` at form degree
    ``degree``: each row's factor multiplicities ``needs``, their per-factor
    maximum ``den``, the digit ``B`` and the bit steps of ``y`` and ``z``."""
    needs, den = [], {}
    for weights, _ in matrix.rows:
        needs.append(need := {})
        for a in map(abs, weights):
            need[a] = k = need.get(a, 0) + 1
            if k > den.get(a, 0):
                den[a] = k
    digit = sum(den.values()) + matrix.m.bit_length() + 2
    return needs, den, digit, digit if degree else 0, digit * (degree + 1)


def _row_sum(rows, needs, ystep: int, zstep: int, total):
    """``total`` times ``D`` plus each row term times the factors of ``D``
    it lacks, packed as in :func:`_packed_decide`, on the carrier of
    ``total``: an int or a :class:`ZSparse`.

    ``rows`` holds ``(weights, v)`` pairs, ``v`` the row sign on that
    carrier, and ``needs`` the rows' factor multiplicities, whose
    per-factor maximum is ``D``.  The sum is taken over a merge tree, the
    subproduct tree of Moenck and Borodin: each row's weight product is a
    leaf over its own factors, and ``total``, over none, joins the first
    leaf.  Adjacent nodes are then joined pairwise, level by level.  A join
    multiplies each side by the factors ``z^a - 1`` that the other side
    holds more of, and the sum is over the per-factor maximum of both, so
    the root is over ``D``.  Grouping changes no value: the result is the
    one a row by row sum over ``D`` builds, bit for bit.  But a lacking
    factor is multiplied in once per group of rows that lacks it, at the
    group's width, where the row by row sum multiplies it into every row at
    full width.  Neither ``rows`` nor ``needs`` is changed."""
    values = []
    for weights, v in rows:
        for w in weights:
            v = (v << w * zstep) + (v << ystep) if w > 0 else -v - (v << (ystep - w * zstep))
        values.append(v)
    needs = list(needs)
    for a, k in needs[0].items():
        for _ in range(k):
            total = (total << a * zstep) - total
    values[0] += total
    step, size = 1, len(values)
    while step < size:
        for i in range(0, size - step, 2 * step):
            v, u, vneed, uneed = values[i], values[i + step], needs[i], needs[i + step]
            need = vneed.copy()
            for a, k in uneed.items():
                h = vneed.get(a, 0)
                while h < k:
                    v = (v << a * zstep) - v
                    h += 1
                need[a] = h
            for a, h in vneed.items():
                k = uneed.get(a, 0)
                while k < h:
                    u = (u << a * zstep) - u
                    k += 1
            values[i], needs[i] = v + u, need
        step *= 2
    return values[0]


def _balanced_digits(block: int, digit: int, count: int) -> List[int]:
    """The lowest ``count`` balanced base-``2^digit`` digits of ``block``."""
    half = 1 << (digit - 1)
    coeffs = []
    for _ in range(count):
        c = ((block & (2 * half - 1)) ^ half) - half
        coeffs.append(c)
        block = (block - c) >> digit
    return coeffs


def _series(matrix: WeightMatrix, degree: int) -> LaurentRational:
    """The numerator and denominator that :func:`_packed_decide` compares:
    its row sum without the candidate, on an uncapped :class:`ZSparse`,
    with each z-coefficient decoded into its ``degree + 1`` form
    coefficients."""
    needs, den, digit, ystep, zstep = _layout(matrix, degree)
    rows = [(weights, ZSparse({0: sign}, zstep)) for weights, sign in matrix.rows]
    num = _row_sum(rows, needs, ystep, zstep, ZSparse({}, zstep))
    return LaurentRational(
        {e: _balanced_digits(c, digit, degree + 1) for e, c in num.terms.items()},
        DenomFactors(den))


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
    for weights, sign in matrix.rows:
        flips = sum(map((0).__gt__, weights))
        coeffs[flips if degree else 0] += -sign if flips % 2 else sign
    return Form(coeffs)


def candidate_constant(matrix: WeightMatrix) -> Form:
    """The forced value of a constant T-function, a form of degree ``n``."""
    return _candidate(matrix, matrix.n)


def point_value(rows, z0: int, x0: int, y0: int) -> Tuple[int, int, int]:
    """The function's exact value at integers ``(z0, x0, y0)``, ``|z0| >= 2``,
    as unreduced integers ``top / bottom``, and its forced constant:
    ``(top, bottom, constant)``.  ``rows`` holds ``(weights, sign)`` pairs;
    a weight ``-a`` gives the factor ``-(x + y z^a) / (z^a - 1)`` and the
    constant factor ``-y``, as in :func:`_packed_decide` and :func:`_candidate`.
    At ``x0 = y0 = 1`` these are the L-function's."""
    top, bottom, constant = 0, 1, 0
    for weights, sign in rows:
        num, den, forced = sign, 1, sign
        for w in weights:
            if w > 0:
                p = z0**w
                num, forced = num * (x0 * p + y0), forced * x0
            else:
                p = z0**-w
                num, forced = -num * (x0 + y0 * p), -forced * y0
            den *= p - 1
        top, bottom = top * den + num * bottom, bottom * den
        constant += forced
    return top, bottom, constant


def _witness_point(matrix: WeightMatrix, xy_grid: Sequence[Tuple[int, int]]):
    """The first grid point where the function's value differs from its
    forced constant, as ``(point, value, expected)``; all None if there is
    none.  Only the reported value is reduced to a ``Fraction``."""
    for z0 in WITNESS_Z_VALUES:
        for x0, y0 in xy_grid:
            top, bottom, constant = point_value(matrix.rows, z0, x0, y0)
            if top != constant * bottom:
                point = (Fraction(z0), Fraction(x0), Fraction(y0))
                return point, Fraction(top, bottom), Fraction(constant)
    return None, None, None


def _packed_decide(matrix: WeightMatrix, degree: int, candidate: Form,
                   xy_grid: Sequence[Tuple[int, int]]) -> RigidityVerdict:
    """Test ``numerator == candidate * expanded_denominator`` by evaluating
    both sides once, at ``x = 1``, ``y = 2^B``, ``z = 2^(B(d+1))`` with
    ``d = degree`` (for ``d = 0``, ``y = 1`` and ``z = 2^B``).

    The denominator ``D`` is the product of ``(z^a - 1)^M_a`` over the
    per-factor maximum multiplicities ``M_a``, and row ``i`` adds to the
    numerator ``sign * prod_w (x z^w + y)``, with a factor ``-(x + y z^a)``
    for a weight ``-a``, times the factors of ``D`` it lacks.  Evaluating
    is a ring homomorphism, so each row's weight product is a few shifts
    and adds on one value ``v`` that starts at the row sign (``x z^a + y``
    takes ``v`` to ``(v << a*zstep) + (v << B)``, ``-(x + y z^a)`` to ``-v
    - (v << (a*zstep + B))``), and each factor ``z^a - 1``, in any order,
    takes a value ``v`` to ``(v << a*zstep) - v``.  :func:`_row_sum` adds
    the row terms and ``-candidate * D`` over a merge tree, each group of
    rows over its partial common denominator, into the packed residual
    ``R``, the value of ``numerator - candidate * D``.  The coefficient of
    ``x^(d-k) y^k z^e`` sits in base-``2^B`` digit ``e(d+1) + k``.

    Exactness, with ``K = sum_a M_a`` and ``B = K + bitlen(m) + 2``: each
    ``(x z^a + y)``, ``(x + y z^a)`` or ``(z^a - 1)`` factor has L1 norm 2
    (the sum of the absolute values of its coefficients), and L1 norms are
    submultiplicative.  Every row term times its extra factors is a product
    of ``K`` such factors, and so is ``D``; with ``|candidate|_1 <= m``, the
    residual has L1 norm at most ``2m * 2^K < 2^(B-1)``, which bounds every
    coefficient.  A sum of digits ``r_j 2^(Bj)`` with ``|r_j| < 2^(B-1)`` is
    zero only when every ``r_j`` is, so ``R == 0`` exactly when the
    identity holds.  The residual's lowest z-degree ``k`` and its ``d + 1``
    form coefficients, read as balanced base-``2^B`` digits, are the
    witness.  The merge tree changes none of this: it groups the same
    products differently, so ``R`` is the same polynomial.  Digits are
    read only from ``R``, so a partial sum needs no bound: its carrier, an
    int or a dict of ints, holds it at any size.

    ``R`` is one int when it fits in ``_PACKED_BITS`` bits (``deg D + 1``
    z-degrees of ``zstep`` bits, ``deg D = sum_a a M_a``): the lowest
    nonzero digit ``j`` sets its lowest set bit, in ``[Bj, Bj + B - 1)``,
    which gives ``k``, and a witness point from ``xy_grid`` is added.  A
    wider ``R`` is a :class:`ZSparse` built modulo ``z^(cap+1)``, a ring
    map, so its lowest surviving key is exact; ``cap`` starts at the
    smallest factor exponent and doubles until ``R`` is nonzero or ``cap``
    reaches ``deg D``.  Its lowest key is ``k``, and no point is added.
    The merge tree leaves this exact too: each of its steps, a shift by a
    multiple of ``zstep`` (a power of ``z``), a shift by ``B`` (the scalar
    ``y``), an add or a negation, is a ring operation, so the ring map
    commutes with it, whatever the grouping.
    """
    needs, den, digit, ystep, zstep = _layout(matrix, degree)
    top = sum(a * k for a, k in den.items())
    packed = sum(c << (digit * k) for k, c in enumerate(candidate.coeffs))
    if zstep * (top + 1) <= _PACKED_BITS:
        residual = _row_sum(matrix.rows, needs, ystep, zstep, -packed)
    else:
        cap = min(den)
        while True:
            starts = [(weights, ZSparse({0: sign}, zstep, cap)) for weights, sign in matrix.rows]
            residual = _row_sum(starts, needs, ystep, zstep, ZSparse({0: -packed}, zstep, cap))
            if residual or cap >= top:
                break
            cap *= 2
    if not residual:
        return RigidityVerdict(rigid=True, constant=candidate)
    if type(residual) is int:
        k = ((residual & -residual).bit_length() - 1) // zstep
        block = (residual >> (k * zstep)) & ((1 << zstep) - 1)
        point = _witness_point(matrix, xy_grid)
    else:
        k = min(residual.terms)
        block, point = residual.terms[k], ()
    coeffs = _balanced_digits(block, digit, degree + 1)
    return RigidityVerdict(rigid=False, witness=Witness(k, Form(coeffs), *point))


def _cancels(rows: Sequence[Row], fold: bool) -> bool:
    """Whether every weight multiset of ``rows`` is held by as many ``+``
    rows as ``-`` rows; with ``fold``, after each negative weight has been
    made positive and its sign folded into the row sign (see
    :func:`_folded`).  Rows that pair off like that are even in number,
    so an odd count is turned away before a row is looked at.

    One pass tallies each row's sign under its sorted (and, with ``fold``,
    sign-folded) weights: the rows pair off exactly when every tally is 0.
    This is the only place a sweep looks for cancelling rows, so each
    cancelling survivor is tallied once, by its verdict."""
    if len(rows) % 2:
        return False
    tally = {}
    for weights, sign in rows:
        if fold:
            weights, sign = _folded(weights, sign)
        key = tuple(sorted(weights))
        tally[key] = tally.get(key, 0) + sign
    return not any(tally.values())


def is_rigid(matrix: WeightMatrix) -> RigidityVerdict:
    """Decide exactly whether the T-function of ``matrix`` is constant.

    Cancellation certificate: row ``i`` contributes ``s_i`` times the
    product of its factors ``(x z^w + y) / (z^w - 1)``, which depends on
    the multiset of its weights only, since the product commutes.  When
    every multiset is held by as many ``+`` rows as ``-`` rows (see
    :func:`_cancels`), the rows pair off into a ``+`` and a ``-`` row with
    equal products, each pair contributes zero, and the function is
    identically 0.  It is then constant and its forced value (the
    candidate) is the zero form of degree ``n``, so the verdict, built
    before any candidate, is the one the identity below returns:
    ``RigidityVerdict(rigid=True, constant=candidate)``.  Any other matrix
    builds its candidate and is decided by that identity, by
    :func:`_packed_decide`.
    """
    if _cancels(matrix.rows, fold=False):
        return RigidityVerdict(rigid=True, constant=Form((0,) * (matrix.n + 1)))
    return _packed_decide(matrix, matrix.n, candidate_constant(matrix), WITNESS_XY_VALUES)


def is_l_rigid(matrix: WeightMatrix) -> RigidityVerdict:
    """Decide exactly whether the ``x = y = 1`` specialization is constant.

    The cancellation certificate of :func:`is_rigid` applies after sign
    folding: at ``x = y = 1`` the factor of ``-a`` is ``(z^-a + 1) /
    (z^-a - 1) = -(z^a + 1) / (z^a - 1)``, the negative of the factor of
    ``a``, so a row's term is unchanged when a weight is made positive and
    the row sign flipped.  Rows that cancel in pairs after that fold give the
    function 0, which is the candidate, and the verdict ``rigid`` with the
    zero form of degree 0, built before any candidate.
    """
    if _cancels(matrix.rows, fold=True):
        return RigidityVerdict(rigid=True, constant=Form((0,)))
    return _packed_decide(matrix, 0, _candidate(matrix, 0), ((1, 1),))


def _folded(weights, sign: int):
    """The row ``(weights, sign)`` with every negative weight made positive
    and each flip folded into the row sign, as a plain pair: an iterator
    over the weights' absolute values, and the folded sign.  The row's
    ``x = y = 1`` term is unchanged."""
    for w in weights:
        if w < 0:
            sign = -sign
    return map(abs, weights), sign


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
    """Partition all weight entries into cross-row pairs of equal absolute
    values.

    Signs are ignored, so a matrix pairs exactly as it does with every
    negative weight made positive (see :func:`_folded`).  For each
    absolute value, pairing succeeds exactly when its total count is even
    and no single row holds more than half of the occurrences.  The occurrences are listed in row
    order, so each row's are contiguous, and occurrence ``t`` is paired
    with occurrence ``t + half``: under that condition the two lie in
    different rows, and otherwise some such pair shares a row.  The
    output is deterministic.

    Returns pairs ``((i, j), (k, l))`` of 0-based (row, column) positions
    with ``i != k``, or None when no pairing exists.
    """
    positions: dict[int, List[Tuple[int, int]]] = {}
    for i, (weights, _) in enumerate(matrix.rows):
        for j, w in enumerate(weights):
            positions.setdefault(w if w > 0 else -w, []).append((i, j))

    pairs: PairList = []
    for value in sorted(positions):
        occurrences = positions[value]
        half, odd = divmod(len(occurrences), 2)
        if odd:
            return None
        for cell, other in zip(occurrences, occurrences[half:]):
            if cell[0] == other[0]:
                return None
            pairs.append((cell, other))
    return pairs
