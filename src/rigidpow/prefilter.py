"""Exact sample-point pre-filter for the sweeps.

The filter is a sound rejection test: a matrix whose function is constant
agrees with its forced constant at every valid sample point, so no rigid
matrix is ever rejected.  Survivors still go through the full symbolic
check.  Every candidate is decided exactly, by unbounded Python integers
or by a residue sum that is nonzero.

A candidate's function minus its forced constant is the sum, over its
rows, of each row's value minus that row's constant, and a row's term at a
sample point does not depend on the other rows.  The kernel that
:func:`select_filter` returns therefore reduces each row ``(weights,
sign)`` of its universe to one residue modulo the prime ``_PRIME``: the
row's term at every point, reduced modulo ``_PRIME`` and combined with a
fixed multiplier per point (a Karp-Rabin fingerprint).  Reduction modulo a
prime is a ring map on the rationals whose denominators it does not
divide, so a candidate whose terms sum to zero has residues that sum to
zero.  Deciding a candidate is thus a k-SUM over the row residues.  For
m <= 3 the kernel fixes every row but the last two, walks the
second-to-last row and looks the last one up by the negated residue sum (a
residue join, the 2-SUM step).  For m >= 4 it can also fix every row but
the last three: it tables every pair of rows by its residue sum once and
looks the last two up together for each choice of the third-to-last row
(Horowitz and Sahni, 1974).  Only the rare candidate whose residues do sum
to zero is decided by :func:`matches_constant`.  That function certifies
a candidate whose rows cancel in pairs and evaluates any other from
scratch, in exact integers; it is the oracle the kernel is tested against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from math import comb
from operator import ge, mod, sub
from typing import Callable, Dict, List, Sequence, Tuple

from .rigidity import exact_int, point_value, rows_cancel

# Exact sample points (z, x, y) used by the sweeps, one tuple each.  Any
# |z| >= 2 avoids all denominator roots.
Point = Tuple[int, int, int]
T_POINTS: Tuple[Point, ...] = ((2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1))
L_POINTS: Tuple[Point, ...] = ((2, 1, 1), (3, 1, 1))

# A safe prime P = 2q + 1 with q prime: every z with 1 < z < P - 1 has
# order q or 2q modulo P, so z^w - 1 is invertible modulo P for 0 < w < q.
# (The Mersenne prime 2^61 - 1 is not safe: 2 has order 61 there.)
_PRIME = (1 << 61) - 2373
# Point p of a row's residue is weighted by _BASE**p; any fixed value keeps
# the filter exact, one far from small integers keeps points from cancelling.
_BASE = 0x9E3779B97F4A7C1


def sample_points(mode: str) -> Tuple[Point, ...]:
    if mode == "T":
        return T_POINTS
    if mode == "L":
        return L_POINTS
    raise ValueError(f"mode must be 'T' or 'L', got {mode!r}")


def matches_constant(rows, points) -> bool:
    """Whether one candidate matches its forced constant at every point.

    This is the exact oracle for the kernel :func:`select_filter` returns:
    it evaluates the candidate from scratch with
    :func:`rigidpow.rigidity.point_value`, the evaluator behind every
    witness point too.  ``rows`` is a sequence of ``(weights, sign)``
    rows, with nonzero integer weights and ``sign`` in ±1, and ``points``
    a sequence of ``(z, x, y)`` triples with every ``z >= 2``.  The answer
    is True when the row sum of products of ``(x*z^w + y) / (z^w - 1)``
    equals the sign-count constant at every point, and False at the first
    point where it does not.  Rows that cancel in pairs (see
    :func:`rigidpow.rigidity.rows_cancel`) are 0 at every point with
    constant 0, so they are answered True before any point is evaluated.
    """
    if rows_cancel(rows):
        return True
    for z, x, y in points:
        top, bottom, constant = point_value(rows, z, x, y)
        if top != constant * bottom:
            return False
    return True


def _row_residues(rows: Sequence[Tuple[Tuple[int, ...], int]], n: int, bound: int,
                  points: Sequence[Point]) -> List[int]:
    """Each row's term minus its constant at every ``(z, x, y)`` point of
    ``points``, reduced modulo ``_PRIME``, the ``p``-th point weighted by
    ``_BASE**p``.  A row is a ``(weights, sign)`` pair of ``n`` weights;
    its term is ``sign`` times the product of the weights' factors
    ``(x z^w + y) / (z^w - 1)`` and its constant ``sign`` times the product
    of ``x`` (for ``w > 0``) and ``-y`` (for ``w < 0``).

    The factors are tabled: for each point and each distinct ``|w| = a``
    that occurs in ``rows`` (never every ``a`` up to ``bound``, which may
    be near ``_PRIME / 2``), ``(x z^a + y) / (z^a - 1)`` and its
    negative-weight form ``-(x + y z^a) / (z^a - 1)`` are reduced once, so
    a row costs ``n`` table products per point and no power or inverse.
    A row's constants depend only on its sign and its number ``k`` of
    negative weights; their weighted sum is tabled for each ``k`` that
    occurs, and the rest of a residue, up to its sign, once per weights.

    Each distinct weight is range-checked once: a row is checked weight by
    weight only when it holds a value not seen before, or a weight whose
    type is not ``int`` (``True`` and ``1.0`` equal ``1`` in a set).
    """
    checked, negatives = set(), []
    for weights, sign in rows:
        if len(weights) != n:
            raise ValueError(f"a row needs {n} weights, got {len(weights)}")
        if not checked.issuperset(weights) or not {int}.issuperset(map(type, weights)):
            if not all(1 <= abs(exact_int("weight", w)) <= bound for w in weights):
                raise ValueError(f"row weights must be nonzero with |w| <= {bound}: {weights}")
            checked.update(weights)
        if exact_int("sign", sign) not in (1, -1):
            raise ValueError(f"a row sign must be 1 or -1, got {sign}")
        negatives.append(sum(map((0).__gt__, weights)))
    magnitudes = set(map(abs, checked))
    tables = []
    scale = 1
    for z, x, y in points:
        factor = {}
        for a in magnitudes:
            zp = pow(z, a, _PRIME)
            inverse = pow(zp - 1, -1, _PRIME)
            factor[a] = (x * zp + y) * inverse % _PRIME
            factor[-a] = -(x + y * zp) * inverse % _PRIME
        tables.append((factor, scale, x, y))
        scale = scale * _BASE % _PRIME
    offsets = {k: sum(scale * pow(x, n - k, _PRIME) * pow(-y, k, _PRIME)
                      for _, scale, x, y in tables)
               for k in set(negatives)}
    residues, totals = [], {}
    for (weights, sign), k in zip(rows, negatives):
        key = tuple(weights)
        if (total := totals.get(key)) is None:
            total = -offsets[k]
            for factor, scale, _, _ in tables:
                for w in key:
                    scale = scale * factor[w] % _PRIME
                total += scale
            totals[key] = total
        residues.append(sign * total % _PRIME)
    return residues


def block_size(tails: range, size: int, free: int = 2) -> int:
    """The number of candidates in a kernel block with ``free`` free rows
    over a universe of ``size`` rows: the non-decreasing ``free``-tuples of
    rows below ``size`` whose first row is in ``tails``: those from
    ``tails.start`` on less those from ``tails.stop`` on.  For ``free = 2``
    these are the pairs ``j <= p`` with ``j`` in ``tails``."""
    if not tails:
        return 0
    return comb(size - tails.start + free - 1, free) - comb(size - tails.stop + free - 1, free)


def select_filter(m: int, n: int, bound: int, points: Sequence[Point],
                  rows: Sequence[Tuple[Tuple[int, ...], int]] = ()) -> Tuple[Callable[..., None], str]:
    """The pre-filter kernel for ``m``-row candidates drawn from ``rows``,
    each a ``(weights, sign)`` pair of ``n`` weights with ``|w| <= bound``,
    at ``points``, a sequence of ``(z, x, y)`` tuples, plus its name.

    The kernel is called as ``kernel(heads, tails, m, n, count, points,
    out)`` and decides the first ``count`` candidates of a block whose
    first rows, ``heads``, are fixed indices into ``rows`` and whose last
    ``free = m - len(heads)`` rows are free: two for any ``m``, or three
    for ``m >= 4``.  ``tails`` is a consecutive ``range`` (step 1) of row
    indices, and the block is ``heads + (j, p)`` for ``j`` in ``tails`` and
    ``j <= p < len(rows)``, or with three free rows ``heads + (j, k, p)``
    for ``j`` in ``tails`` and ``j <= k <= p < len(rows)``, in
    lexicographic order (see :func:`block_size`).  So ``tails = range(j0,
    len(rows))`` is a triangle of ``L (L + 1) / 2`` candidates, or a
    tetrahedron of ``L (L + 1) (L + 2) / 6``, with ``L = len(rows) - j0``.
    A sweep with ``m = 1`` has no such block and never calls the kernel.

    ``out`` is the caller's mask: any object with ``len()`` and item
    assignment.  For each survivor, a candidate that
    :func:`matches_constant` accepts, the kernel sets ``out[k]``, ``k``
    its offset in the block, to the candidate itself, the tuple of its
    ``m`` items of ``rows``, in increasing ``k``, and it sets nothing
    else, so the caller never maps an offset back to rows.  Each row's
    residue (see :func:`_row_residues`) is computed once, here, and kept
    in order in ``kernel.residues``, and the rows are indexed by residue.
    A call adds up the fixed rows' residues once; the rows ``j`` of
    ``tails`` whose partner residue (that sum's negation minus ``j``'s
    residue) occurs come out of one lazy ``map`` and ``compress`` chain,
    with no Python code run per row.  With two free rows the partner is one row's
    residue, and for each such ``j`` the positions holding it, cut by
    bisection to the block's ``p`` range, are the only candidates whose
    residues sum to zero (a 2-SUM over the last two rows).  With three it
    is the residue sum of a pair ``k <= p``: the first such call tables
    every pair of ``rows`` by its residue sum, in lexicographic order
    (``len(rows) (len(rows) + 1) / 2`` entries, kept for later calls), a
    row ``j`` counts only if its partner sum has a pair with ``k >= j``,
    and the pairs under that sum, cut by bisection to ``k >= j`` and to
    ``count``, are the only candidates whose residues sum to zero.  Each
    of them is decided by :func:`matches_constant`, so ``out`` receives
    exactly the survivors among the first ``count`` candidates, and a
    residue collision that it rejects leaves ``out`` as it was.  Every
    point needs ``2 <= z < _PRIME - 1`` and ``x, y >= 1``, and ``bound``
    must be below ``(_PRIME - 1) // 2``, so that no ``z^w - 1`` vanishes
    modulo ``_PRIME``.  A point that is not such a tuple or a row that
    breaks the parameters raises ``ValueError`` here, and a call that
    breaks them, or whose ``count`` is negative or above the block size or
    ``len(out)``, raises ``ValueError`` before anything is written to
    ``out``.  With no ``rows`` nothing is computed and the kernel can
    decide no candidate.
    ``perfbench/run.py`` calls this through ``search.select_filter`` and
    wraps the kernel to trace every call.
    """
    if min(exact_int("m", m), exact_int("n", n), exact_int("bound", bound)) < 1:
        raise ValueError("m, n and bound must all be at least 1")
    if bound >= (_PRIME - 1) // 2:
        raise ValueError(f"bound must be below {(_PRIME - 1) // 2}, got {bound}")
    points = tuple(points)
    if not points:
        raise ValueError("points must be a nonempty sequence of (z, x, y) tuples")
    for point in points:
        if (not isinstance(point, tuple) or len(point) != 3
                or not 2 <= exact_int("z", point[0]) < _PRIME - 1
                or min(exact_int("x", point[1]), exact_int("y", point[2])) < 1):
            raise ValueError(f"sample point {point!r} must be a tuple (z, x, y) "
                             f"with 2 <= z < _PRIME - 1 and x, y > 0")
    rows = tuple(rows)
    residues = _row_residues(rows, n, bound, points)
    # Each residue r is a key both as r and as r - _PRIME, so that for a
    # target and a residue in [0, _PRIME) the partner residue target -
    # residue, in (-_PRIME, _PRIME), is a key as it is, with no reduction.
    positions: Dict[int, List[int]] = {}
    for p, residue in enumerate(residues):
        positions.setdefault(residue, []).append(p)
    positions.update({residue - _PRIME: at for residue, at in positions.items()})
    size = len(rows)
    # the pair table, built on the first call with three free rows: for
    # each residue sum modulo _PRIME of rows k <= p, the last rank of its
    # pairs in lexicographic order, and for a sum that several pairs share
    # the increasing list of their ranks (an int takes less memory than a
    # list); and the rank of each pair (k, k)
    last_pair: Dict[int, int] = {}
    shared: Dict[int, List[int]] = {}
    pair_starts: List[int] = []
    shapes = (2, 3) if m >= 4 else (2,)  # the numbers of free rows a call may have

    def residue_join(heads, tails, m_, n_, count, points_, out):
        free = m - len(heads)
        if (m_ != m or n_ != n or free not in shapes
                or type(tails) is not range or tails.step != 1
                or points_ is not points and tuple(points_) != points):
            raise ValueError(f"the kernel needs {m - 2} heads (or {m - 3} for m >= 4), a "
                             f"consecutive range of tails, m = {m}, n = {n} and the points "
                             f"it was built for")
        target = 0
        for h in heads:
            if not 0 <= h < size:
                raise ValueError(f"head {h} is not in range({size})")
            target -= residues[h]
        if tails and (tails.start < 0 or tails.stop > size):
            raise ValueError(f"tails {tails} are not in range({size})")
        block = block_size(tails, size, free)
        if not 0 <= count <= min(block, len(out)):
            raise ValueError(f"count {count} is not in range({min(block, len(out)) + 1})")
        target %= _PRIME
        start = tails.start
        # the rows j whose partner residue occurs, found without a Python
        # frame per row; compress is lazy, so the count cut below stops it
        partners = map(sub, repeat(target), residues[start:tails.stop])
        if free == 2:
            for j in compress(tails, map(positions.__contains__, partners)):
                offset = block_size(range(start, j), size)  # the offset of candidate (j, j)
                if offset >= count:
                    break
                at = positions[target - residues[j]]
                fixed = (*map(rows.__getitem__, heads), rows[j])
                for p in at[bisect_left(at, j):bisect_left(at, j + count - offset)]:
                    if matches_constant(candidate := fixed + (rows[p],), points):
                        out[offset + p - j] = candidate
            return
        if not pair_starts:
            for k, residue in enumerate(residues):
                pair_starts.append(rank := block_size(range(k), size))
                for rank, other in enumerate(residues[k:], rank):
                    if (key := (residue + other) % _PRIME) in last_pair:
                        shared.setdefault(key, [last_pair[key]]).append(rank)
                    last_pair[key] = rank
        # a row j hits only if the partner sum has a pair (k, p) with k >=
        # j, that is, a last rank at or past that of (j, j)
        last_ranks = map(last_pair.get, map(mod, partners, repeat(_PRIME)), repeat(-1))
        for j in compress(tails, map(ge, last_ranks, map(pair_starts.__getitem__, tails))):
            offset = block_size(range(start, j), size, 3)  # the offset of candidate (j, j, j)
            if offset >= count:
                break
            key, first = (target - residues[j]) % _PRIME, pair_starts[j]
            at = shared.get(key) or (last_pair[key],)
            fixed = (*map(rows.__getitem__, heads), rows[j])
            for rank in at[bisect_left(at, first):bisect_left(at, first + count - offset)]:
                k = bisect_right(pair_starts, rank) - 1
                candidate = fixed + (rows[k], rows[k + rank - pair_starts[k]])
                if matches_constant(candidate, points):
                    out[offset + rank - first] = candidate

    residue_join.residues = residues
    return residue_join, "residue-join"
