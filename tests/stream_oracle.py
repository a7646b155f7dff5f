"""The exact oracles of the pre-filter kernel, and the candidate stream that
the residue join replaced.

The kernel's contract is a hit list: for one call over a block, the
``(k, rows)`` of the candidates it hands over, ``k`` the offset in the
block, in increasing ``k`` (see ``rigidpow.prefilter.select_filter``).
``exact_hits`` is that list at the real prime: the candidates that
``matches_constant``, an exact evaluation at every sample point, accepts.
The kernel itself only sums residues, so a residue collision, a hit that
``matches_constant`` rejects, would spend one exact check in a sweep and
be rejected there.  ``residue_offsets`` is the contract at a prime small
enough that residues collide: the offsets of the candidates whose row
residues sum to 0 modulo the prime.  ``call`` makes one kernel call, and
``record_kernel_calls`` records every call the searches make.

``stream_candidates`` yields a shard's canonical candidates one by one, in
canonical order, and ``stream_shard`` and ``stream_triples`` decide them
the way sweeps did before the join, with ``matches_constant`` on every
candidate; ``stream_shard`` counts in chunks of ``CHUNK``, as sweeps did.
"""

from itertools import combinations_with_replacement

from rigidpow import search
from rigidpow.prefilter import sample_points
from rigidpow.rigidity import Row, WeightMatrix, is_l_rigid, point_value
from rigidpow.search import _Hits

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


def block_rows(rows, heads, tails, m):
    """A block's candidates as tuples of items of ``rows``, in block order."""
    return [tuple(map(rows.__getitem__, indices))
            for indices in block_candidates(heads, tails, m, len(rows))]


def exact_hits(rows, heads, tails, m, count, points):
    """The exact oracle for one kernel call: the ``(k, rows)`` of the
    candidates, among the block's first ``count``, that
    ``matches_constant`` accepts at ``points``."""
    candidates = block_rows(rows, heads, tails, m)[:count]
    return [(k, found) for k, found in enumerate(candidates) if matches_constant(found, points)]


def residue_offsets(residues, heads, tails, m, count, prime):
    """The residue oracle for one kernel call: the offsets, among the
    block's first ``count`` candidates, of those whose rows' ``residues``
    (the kernel's, one per row) sum to 0 modulo ``prime``."""
    candidates = block_candidates(heads, tails, m, len(residues))[:count]
    return [k for k, indices in enumerate(candidates)
            if sum(map(residues.__getitem__, indices)) % prime == 0]


def call(kernel, heads, tails, m, n, count, points):
    """One kernel call on a fresh ``search._Hits``, returned filled."""
    hits = _Hits()
    kernel(heads, tails, m, n, count, points, hits)
    return hits


def record_kernel_calls(monkeypatch):
    """Every kernel call ``search`` makes from now on, with the rows the
    kernel was built on, its first six arguments and the mask it was
    passed, appended to the returned list after the call."""
    calls = []
    select_filter = search.select_filter

    def recording_select_filter(m, n, bound, points, rows=()):
        kernel, name = select_filter(m, n, bound, points, rows)

        def recording_kernel(*args):
            kernel(*args)
            calls.append((rows, args[:-1], args[-1]))

        return recording_kernel, name

    monkeypatch.setattr(search, "select_filter", recording_select_filter)
    return calls


def stream_shard(candidates, passed, enum_cap, check_cap, decide):
    """A shard run on the stream: ``candidates`` is the shard's whole stream
    and ``passed`` the pre-filter's verdict on each.  Returns ``(found,
    enumerated, rejected, exact_checks, exceeded)``."""
    found, enumerated, rejected, checks = [], 0, 0, 0
    stop = min(enum_cap, len(candidates))
    for start in range(0, stop, CHUNK):
        chunk = range(start, min(start + CHUNK, stop))
        enumerated += len(chunk)
        rejected += sum(not passed[i] for i in chunk)
        for i in chunk:
            if not passed[i]:
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
    points = sample_points("L")
    solutions = []
    for rows in ((plus[i], b, c) for i in range(len(plus)) for b in plus[i:] for c in minus):
        verdict = is_l_rigid(WeightMatrix(rows)) if matches_constant(rows, points) else None
        if verdict and verdict.rigid and verdict.constant.constant_value() == 1:
            solutions.append(tuple(row.weights for row in rows))
    return solutions
