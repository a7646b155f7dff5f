"""Sample-point residue pre-filter for the sweeps and the triple search.

The filter is a sound rejection test: a matrix whose function is constant
agrees with its forced constant at every valid sample point, so no rigid
matrix is ever rejected.  Every candidate it passes goes through the full
symbolic check, which alone decides it.

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
(Horowitz and Sahni, 1974).  Every row list the filter is handed is in
sign-twin layout: rows ``2t`` and ``2t + 1`` hold the same weights signed
-1 and +1, so their residues are negations.  An m = 3 sweep that its
budget cannot cut is one block of three free rows, the tetrahedron of
every ``j <= k <= p``.  Every triple has two rows of one sign, so the
zero-sum triples are those with two plus rows, found by one lookup per
pair of plus rows, and their twins; the first tetrahedron call tables
them, a 3-SUM over a quarter of the pairs.  The triple search of
:mod:`rigidpow.search` decides all its ``(a, b, c)`` triples, two plus
rows ``a <= b`` and a minus row ``c``, as one block at m = 3, the triple
block, whose first free rows are the plus rows: the kernel walks the same
pairs of plus rows as the tetrahedron's table and keeps, for each, the
minus rows whose residue completes the sum (a 3-SUM taken pair-major).
Every candidate whose residues sum to zero passes, with no exact
re-evaluation: a residue collision, a candidate whose residues sum to zero
though its terms do not, would cost one symbolic check, which rejects it.
None has been seen at the real prime.

The filter is sound exactly when every ``z^a - 1`` it inverts, for the
``z`` of a sample point and a magnitude ``a = |w|`` of its rows, is a unit
modulo ``_PRIME``.  That is enforced in one place, the one inversion per
point and magnitude in :func:`_row_residues`, which raises ``ValueError``
exactly when ``z^a = 1`` modulo ``_PRIME``.  No sweep row is refused there:
every point of ``T_POINTS`` and ``L_POINTS`` has ``2 <= z < _PRIME - 1``,
and the universe cap keeps every ``|w|`` below ``q`` (see
:class:`rigidpow.search.SearchSpec`).  Nothing else is checked: the rows
and kernel calls come from :mod:`rigidpow.search`, which builds them
itself; :func:`select_filter` states what they must be.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from math import comb
from operator import ge, mod, sub
from typing import Callable, Dict, List, Sequence, Tuple

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


def _row_residues(rows: Sequence[Tuple[Tuple[int, ...], int]], n: int,
                  points: Sequence[Point]) -> List[int]:
    """Each row's term minus its constant at every ``(z, x, y)`` point of
    ``points``, reduced modulo ``_PRIME``, the ``p``-th point weighted by
    ``_BASE**p``.  A row is a ``(weights, sign)`` pair of ``n`` weights;
    its term is ``sign`` times the product of the weights' factors
    ``(x z^w + y) / (z^w - 1)`` and its constant ``sign`` times the product
    of ``x`` (for ``w > 0``) and ``-y`` (for ``w < 0``).

    This is where the filter's soundness is enforced: the factors of ``a``
    at a point hold the inverse ``pow(z^a - 1, -1, _PRIME)``, which raises
    ``ValueError`` exactly when ``z^a = 1`` modulo ``_PRIME``, the one case
    in which a factor has no residue.  Nothing else is checked: each
    ``weights`` must be a tuple of ``n`` nonzero ``int`` weights, each
    ``sign`` the ``int`` 1 or -1, each point a tuple of ``int`` values, and
    the rows must be in sign-twin layout: rows ``2t`` and ``2t + 1`` hold
    the same weights signed -1 and +1, so that their residues are
    negations.  The rows of :func:`rigidpow.search.row_universe` and of the
    triple search are such rows by construction.

    The factors are tabled: for each point and each distinct ``|w| = a``
    that occurs in ``rows`` (never every ``a`` up to ``bound``, which may
    be near ``_PRIME / 2``), ``(x z^a + y) / (z^a - 1)`` and its
    negative-weight form ``-(x + y z^a) / (z^a - 1)`` are reduced once, so
    a row costs ``n`` table products per point and no power or inverse.
    A row's constants depend only on its sign and its number ``k`` of
    negative weights; their weighted sum is tabled for each ``k`` that
    occurs, and the rest of a residue, up to its sign, once per weights.
    """
    totals = dict.fromkeys(weights for weights, _ in rows)
    magnitudes = {abs(w) for weights in totals for w in weights}
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
    offsets = {}  # the weighted constants of a + row with k negative weights
    for weights in totals:
        if (k := sum(map((0).__gt__, weights))) not in offsets:
            offsets[k] = sum(scale * pow(x, n - k, _PRIME) * pow(-y, k, _PRIME)
                             for _, scale, x, y in tables)
        total = -offsets[k]
        for factor, scale, _, _ in tables:
            for w in weights:
                scale = scale * factor[w] % _PRIME
            total += scale
        totals[weights] = total
    return [sign * totals[weights] % _PRIME for weights, sign in rows]


def block_size(tails: range, size: int, free: int = 2) -> int:
    """The number of candidates in a kernel block with ``free`` free rows
    over a universe of ``size`` rows: the non-decreasing ``free``-tuples of
    rows below ``size`` whose first row is in ``tails``: those from
    ``tails.start`` on less those from ``tails.stop`` on.  For ``free = 2``
    these are the pairs ``j <= p`` with ``j`` in ``tails``.  Every range
    it is given has ``tails.stop >= tails.start``, so an empty one gives
    0."""
    return comb(size - tails.start + free - 1, free) - comb(size - tails.stop + free - 1, free)


def select_filter(m: int, n: int, bound: int, points: Sequence[Point],
                  rows: Sequence[Tuple[Tuple[int, ...], int]] = ()) -> Tuple[Callable[..., None], str]:
    """The pre-filter kernel for ``m``-row candidates drawn from ``rows``,
    each a ``(weights, sign)`` pair of ``n`` weights with ``|w| <= bound``,
    at ``points``, a sequence of ``(z, x, y)`` tuples, plus its name.

    ``rows`` is in sign-twin layout: rows ``2t`` and ``2t + 1`` hold the
    same weights with the signs -1 and +1, for every ``t``, as in
    :func:`rigidpow.search.row_universe` and the triple search's row list.
    The kernel is called as ``kernel(heads, tails, m, n, count, points,
    out)`` and decides the first ``count`` candidates of a block whose
    first rows, ``heads``, are fixed indices into ``rows`` and whose last
    ``free = m - len(heads)`` rows are free: two for any ``m``, or three
    for ``m >= 3``.  ``tails`` is a consecutive ``range`` (step 1) of row
    indices, and the block is ``heads + (j, p)`` for ``j`` in ``tails`` and
    ``j <= p < len(rows)``, or with three free rows ``heads + (j, k, p)``
    for ``j`` in ``tails`` and ``j <= k <= p < len(rows)``, in
    lexicographic order (see :func:`block_size`).  So ``tails = range(j0,
    len(rows))`` is a triangle of ``L (L + 1) / 2`` candidates, or a
    tetrahedron of ``L (L + 1) (L + 2) / 6``, with ``L = len(rows) - j0``.
    A sweep with ``m = 1``, or in T mode with odd ``m`` and odd ``n``, has
    no rigid candidate and never calls the kernel.
    At ``m = 3`` three free rows, no heads, over plus rows, ``tails =
    range(j0, len(rows), 2)`` with an odd ``j0``, make the triple block:
    ``(j, k, p)`` for ``j <= k`` in ``tails`` and ``p`` any minus row, also
    in lexicographic order: the ``L (L + 1) / 2`` pairs of the ``L =
    len(tails)`` plus rows, each followed by every one of the ``W =
    len(rows) / 2`` minus rows, so the candidate ``(j, k, p)`` has the
    offset ``rank(j, k) W + p / 2``, with ``rank(j, k)`` the number of
    pairs of ``tails`` before ``(j, j)`` plus ``(k - j) / 2``.

    ``out`` is the caller's mask: any object with item assignment.  For
    each survivor, a candidate whose row residues sum to 0 modulo
    ``_PRIME``, the kernel sets ``out[k]``, ``k`` its offset in the block,
    to the candidate itself, the tuple of its ``m`` items of ``rows``, in
    increasing ``k``, and it sets nothing else, so the caller never maps an
    offset back to rows.  Each row's residue (see :func:`_row_residues`)
    is computed once, here, and the rows are indexed by residue.
    A call adds up the fixed rows' residues once; the rows ``j`` of
    ``tails`` whose partner residue (that sum's negation minus ``j``'s
    residue) occurs come out of one lazy ``map`` and ``compress`` chain,
    with no Python code run per row.  With two free rows the partner is one row's
    residue, and for each such ``j`` the positions holding it, cut by
    bisection to the block's ``p`` range, are the only candidates whose
    residues sum to zero (a 2-SUM over the last two rows).  The triple
    block is a 3-SUM taken pair-major: the call walks ``j`` through
    ``tails``, the rows ``k >= j`` of ``tails`` for which ``j``'s partner
    less ``k``'s residue occurs come out of one such chain per ``j``, and
    the even positions holding that residue, cut to ``count``, are the
    minus rows ``p``: one lookup per pair, ``L (L + 1) / 2`` for the
    block's ``L (L + 1) W / 2`` candidates.  The tetrahedron reads
    a table that its first call builds and later calls keep: every
    zero-sum triple ``j <= k <= p`` of ``rows``, by its rank in
    lexicographic order.  A twin's residue is the negation, and every
    triple has two rows of one sign, so the table takes one lookup per pair
    ``a <= b`` of plus rows, ``(U / 2) (U / 2 + 1) / 2`` for ``U =
    len(rows)``, each of them the positions holding the residue that
    completes the sum: a triple whose other row is a minus row, or a plus
    row ``p >= b``, so that a triple of three plus rows is listed once, and
    with it its twin, every row swapped for its twin.  A call's candidates
    are the ranks from that of ``(tails.start, tails.start, tails.start)``
    on, so its hits are one bisected slice of the table.  With three free
    rows and ``m >= 4`` the partner is the residue sum of a pair ``k <=
    p``: the first such call tables every pair of ``rows`` by its residue
    sum, in
    lexicographic order (``len(rows) (len(rows) + 1) / 2`` entries, kept
    for later calls), a row ``j`` counts only if its partner sum has a pair
    with ``k >= j``, and the pairs under that sum, cut by bisection to ``k
    >= j`` and to ``count``, are the only candidates whose residues sum to
    zero.  So
    ``out`` receives exactly the candidates, among the first ``count``,
    whose residues sum to 0 modulo ``_PRIME``; no point is evaluated
    exactly, and a residue collision is left to the caller's symbolic
    check, where it costs one check and is rejected.  With no ``rows``
    nothing is computed and the kernel can decide no candidate.

    The filter is sound when no ``z^|w| - 1`` vanishes modulo ``_PRIME``,
    and :func:`_row_residues` raises ``ValueError`` where one would.
    Nothing else is checked: ``m``, ``n``, the points, the rows and the
    kernel calls come from :mod:`rigidpow.search`, which builds them
    itself.  So each row must be as :func:`_row_residues` states, and each
    call must pass this ``m``, ``n`` and ``points``, ``m - 2`` heads or,
    for ``m >= 3``, ``m - 3``, each in ``range(len(rows))``, ``tails`` a
    ``range`` inside ``range(len(rows))`` with step 1, or step 2 over plus
    rows for the triple block, and ``count`` from 0 to the block's size.
    ``bound`` is not read: ``perfbench/run.py`` calls ``select_filter(m,
    n, b, points)`` to name the kernel, and calls it through
    ``search.select_filter``, wrapping the kernel to trace every call.
    """
    residues = _row_residues(rows, n, points)
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
    # the tetrahedron's table, built on its first call: the rank of each
    # zero-sum triple j <= k <= p among all such triples of the rows in
    # lexicographic order, increasing, and the triple's rows
    triple_ranks: List[int] = []
    triple_rows: List[tuple] = []

    def residue_join(heads, tails, m_, n_, count, points_, out):
        start, stop = tails.start, tails.stop
        # a head-less m = 3 call is the tetrahedron over consecutive tails
        # and the triple block over + rows (step 2)
        if m == 3 and not heads and tails.step == 1:
            if not triple_ranks:
                zero_triples()
            # the block's candidates are the ranks from that of (start,
            # start, start) on, so its first count are one slice
            base = block_size(range(start), size, 3)
            lo, hi = bisect_left(triple_ranks, base), bisect_left(triple_ranks, base + count)
            for rank, found in zip(triple_ranks[lo:hi], triple_rows[lo:hi]):
                out[rank - base] = found
            return
        if m == 3 and not heads:
            # the triple block: each pair j <= k of the + rows of tails whose
            # partner residue occurs, with the - rows p among the positions
            # holding it
            for j, k, at in zero_pairs(tails):
                rank = block_size(range(tails.index(j)), len(tails)) + (k - j) // 2
                offset = rank * (size // 2)
                for p in at[:bisect_left(at, 2 * (count - offset))]:
                    if not p & 1:
                        out[offset + p // 2] = (rows[j], rows[k], rows[p])
            return
        target = -sum(map(residues.__getitem__, heads)) % _PRIME
        # the rows j whose partner residue occurs, found without a Python
        # frame per row; compress is lazy, so the count cut below stops it
        partners = map(sub, repeat(target), residues[start:stop])
        if len(heads) == m - 2:
            for j in compress(tails, map(positions.__contains__, partners)):
                offset = block_size(range(start, j), size)  # the offset of candidate (j, j)
                if offset >= count:
                    break
                at = positions[target - residues[j]]
                fixed = (*map(rows.__getitem__, heads), rows[j])
                for p in at[bisect_left(at, j):bisect_left(at, j + count - offset)]:
                    out[offset + p - j] = fixed + (rows[p],)
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
                out[offset + rank - first] = fixed + (rows[k], rows[k + rank - pair_starts[k]])

    def zero_pairs(firsts):
        # each pair a <= b of the rows of firsts, a range, whose partner
        # residue (the negated sum of theirs) occurs, with the positions
        # holding it, pair-major: for each a the rows b come out of one
        # lazy chain, with no Python frame per row
        step, stop = firsts.step, firsts.stop
        for a in firsts:
            partner = -residues[a] % _PRIME
            found = map(positions.__contains__, map(sub, repeat(partner), residues[a:stop:step]))
            for b in compress(range(a, stop, step), found):
                yield a, b, positions[partner - residues[b]]

    def zero_triples():
        # A twin's residue is the negation, and every triple has two rows of
        # one sign, so the zero-sum triples are those with two + rows a <=
        # b, one lookup per pair, and their twins.  A triple of three +
        # rows is kept once, from its two lowest rows (p >= b).
        triples = []
        for a, b, at in zero_pairs(range(1, size, 2)):
            for p in at:
                if p & 1 and p < b:
                    continue
                triples.append(sorted((a, b, p)))
                triples.append(sorted((a ^ 1, b ^ 1, p ^ 1)))
        triples.sort()
        for j, k, p in triples:
            triple_ranks.append(block_size(range(j), size, 3) + block_size(range(j, k), size)
                                + p - k)
            triple_rows.append((rows[j], rows[k], rows[p]))
        triple_ranks.append(comb(size + 2, 3))  # past every candidate: the table is built

    return residue_join, "residue-join"
