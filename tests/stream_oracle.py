"""The candidate stream that the residue join replaced, kept as an oracle.

``stream_candidates`` yields a shard's canonical candidates one by one, in
canonical order, and ``stream_shard`` and ``stream_triples`` decide them
the way sweeps did before the join: ``matches_constant``, an exact
evaluation at every sample point, on every candidate, in chunks of
``CHUNK``.  ``chunk_mask`` gives its mask, one byte per candidate, and
``join_mask`` the sweep's mask for the same candidates, in the same order,
block by block in any block shape: the kernel's survivors for m > 1 and
all zero for m = 1.  At the real prime the two masks agree.  The kernel
itself only sums residues: a residue collision, which would be a survivor
that ``matches_constant`` rejects, would spend one exact check in a sweep
and be rejected there.  ``block_candidates`` lists the candidates of one
block, and ``hits_mask`` turns the survivors one kernel call hands a
``search._Hits`` into a mask of the same form, checking each survivor's
rows against the block's candidate at its offset.  ``residue_offsets`` is
the kernel's own contract, for a prime small enough that residues
collide: the offsets of the candidates whose row residues sum to 0 modulo
the prime.
"""

from itertools import combinations_with_replacement, islice

from rigidpow.prefilter import block_size, sample_points, select_filter
from rigidpow.rigidity import Row, WeightMatrix, is_l_rigid, point_value
from rigidpow.search import _blocks, _Hits

CHUNK = 1024


def stream_candidates(universe, m, shard_index, shard_count):
    """Canonical candidates whose first row index is ≡ shard_index mod shard_count."""
    for i in range(shard_index, len(universe), shard_count):
        yield from map((universe[i],).__add__,
                       combinations_with_replacement(universe[i:], m - 1))


def matches_constant(rows, points) -> bool:
    """Whether one candidate matches its forced constant at every point.

    This is the exact oracle for the kernel ``select_filter`` returns: it
    evaluates the candidate from scratch with ``rigidity.point_value``,
    the evaluator behind every witness point too.  ``rows`` is a sequence
    of ``(weights, sign)`` rows, with nonzero integer weights and ``sign``
    in ±1, and ``points`` a sequence of ``(z, x, y)`` triples with every
    ``z >= 2``.  The answer is True when the row sum of products of ``(x*z^w
    + y) / (z^w - 1)`` equals the sign-count constant at every point, and
    False at the first point where it does not.  At the real prime the
    kernel's residue hits are exactly these candidates; a residue
    collision would be a hit that this rejects."""
    for z, x, y in points:
        top, bottom, constant = point_value(rows, z, x, y)
        if top != constant * bottom:
            return False
    return True


def chunk_mask(candidates, points):
    return bytearray(matches_constant(rows, points) for rows in candidates)


def block_candidates(heads, tails, m, size):
    """A block's candidates over ``size`` rows as row indices, in block
    order: ``heads`` plus ``m - len(heads)`` free rows, non-decreasing,
    the first of them from ``tails``.  Three free rows at m = 3 over tails
    of step 2, the plus rows of a row list in twin layout (rows ``2t`` and
    ``2t + 1`` one weight list signed -1 and then +1), are the triple
    block instead: two rows ``j <= k`` of ``tails`` and then any minus
    row, an even index."""
    if m == 3 and not heads and tails.step == 2:
        return [(j, k, p) for j in tails for k in range(j, tails.stop, 2)
                for p in range(0, size, 2)]
    return [(*heads, j, *rest) for j in tails
            for rest in combinations_with_replacement(range(j, size), m - len(heads) - 1)]


def block_rows(universe, heads, tails, m):
    """A block's candidates as tuples of rows of ``universe``, in block order."""
    return [tuple(map(universe.__getitem__, indices))
            for indices in block_candidates(heads, tails, m, len(universe))]


def residue_offsets(residues, heads, tails, m, count, prime):
    """The residue oracle for one kernel call: the offsets, among the
    block's first ``count`` candidates, of those whose rows' ``residues``
    (the kernel's, one per row) sum to 0 modulo ``prime``."""
    candidates = block_candidates(heads, tails, m, len(residues))[:count]
    return [k for k, indices in enumerate(candidates)
            if sum(map(residues.__getitem__, indices)) % prime == 0]


def hits_mask(kernel, call, candidates):
    """The survivors of one kernel call as a mask of ``count`` bytes, 1 at
    each survivor's offset.  ``call`` is the kernel's first six arguments,
    ``(heads, tails, m, n, count, points)``, and ``candidates`` the block's
    candidates as rows (see ``block_rows``).  The kernel gets a ``_Hits``;
    its offsets must increase and stay below ``count``, and each
    survivor's rows must be the candidate at its offset."""
    hits = _Hits()
    kernel(*call, hits)
    offsets = [k for k, _ in hits.hits]
    assert all(a < b for a, b in zip(offsets, offsets[1:] + [call[4]])), offsets
    mask = bytearray(call[4])
    for k, rows in hits.hits:
        assert rows == candidates[k], (k, rows)
        mask[k] = 1
    return mask


def join_mask(universe, m, n, bound, mode, shard_index=0, shard_count=1, free=None):
    """The sweep's pre-filter mask over the shard's candidates, in
    canonical order, walked in blocks of ``free`` free rows: the
    residue-join kernel's survivors (see ``hits_mask``), and for m = 1,
    where sweeps count each one-row block without the kernel, all zero.
    ``free`` defaults to the shape of a walk that no enum budget cuts:
    three free rows for m >= 3."""
    if free is None:
        free = 3 if m >= 3 else min(m, 2)
    points = sample_points(mode)
    kernel, name = select_filter(m, n, bound, points, universe)
    assert name == "residue-join"
    mask = bytearray()
    for heads, tails in _blocks(m, len(universe), shard_index, shard_count, free):
        count = block_size(tails, len(universe), free)
        if m == 1:
            mask += bytearray(count)
        else:
            call = (heads, tails, m, n, count, points)
            mask += hits_mask(kernel, call, block_rows(universe, heads, tails, m))
    return mask


def stream_shard(candidates, mask, enum_cap, check_cap, decide):
    """A shard run on the stream: ``candidates`` is the shard's whole stream
    and ``mask`` its pre-filter mask.  Returns ``(found, enumerated,
    rejected, exact_checks, exceeded)``."""
    found, enumerated, rejected, checks = [], 0, 0, 0
    stop = min(enum_cap, len(candidates))
    for start in range(0, stop, CHUNK):
        chunk = range(start, min(start + CHUNK, stop))
        enumerated += len(chunk)
        rejected += sum(not mask[i] for i in chunk)
        for i in chunk:
            if not mask[i]:
                continue
            if checks >= check_cap:
                return found, enumerated, rejected, checks, True
            checks += 1
            verdict = decide(WeightMatrix(candidates[i]))
            if verdict.rigid:
                found.append((candidates[i], verdict.constant))
    return found, enumerated, rejected, checks, len(candidates) > enum_cap


def stream_triples(n, bound):
    """``triple_identity_search`` on the stream of (a, b, c) triples."""
    plus = [Row(v, 1) for v in combinations_with_replacement(range(1, bound + 1), n)]
    minus = [Row(v.weights, -1) for v in plus]
    triples = iter((plus[i], b, c) for i in range(len(plus)) for b in plus[i:] for c in minus)
    solutions = []
    while True:
        chunk = list(islice(triples, CHUNK))
        if not chunk:
            return solutions
        for rows, ok in zip(chunk, chunk_mask(chunk, sample_points("L"))):
            verdict = is_l_rigid(WeightMatrix(rows)) if ok else None
            if verdict and verdict.rigid and verdict.constant.constant_value() == 1:
                solutions.append(tuple(row.weights for row in rows))
