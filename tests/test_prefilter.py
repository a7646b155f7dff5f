"""The sample-point pre-filter kernel against exact values from the
definition."""

import random
from itertools import combinations_with_replacement

import pytest

from rigidpow import prefilter, search
from rigidpow.prefilter import L_POINTS, T_POINTS, block_size, sample_points, select_filter
from rigidpow.rigidity import Row
from rigidpow.search import BudgetExceeded, SearchSpec, _blocks, _Hits, row_universe, sweep
from exact_values import forced_constant, function_value, row_constant, row_value
from stream_oracle import (
    block_rows,
    chunk_mask,
    hits_mask,
    join_mask,
    matches_constant,
    residue_offsets,
    stream_candidates,
)
from test_join_hits import record_kernel_calls


def random_batch(rng, m, n, bound, count):
    """``count`` candidates of ``m`` random ``(weights, sign)`` rows."""
    values = [v for v in range(-bound, bound + 1) if v]
    candidates = []
    for _ in range(count):
        rows = []
        for _ in range(m):
            sign = rng.choice((1, -1))
            rows.append((tuple(rng.choice(values) for _ in range(n)), sign))
        candidates.append(rows)
    return candidates


def oracle_mask(candidates, points):
    """Independent check: the function's value against its forced constant
    at every point, from the definition in Fraction arithmetic."""
    return bytearray(
        all(function_value(rows, z0, x0, y0) == forced_constant(rows, x0, y0)
            for z0, x0, y0 in points)
        for rows in candidates)


def test_sample_points():
    assert sample_points("T") == T_POINTS
    assert sample_points("L") == L_POINTS
    with pytest.raises(ValueError):
        sample_points("Q")


def test_pure_kernel_matches_symbolic_oracle():
    rng = random.Random(21)
    m, n, bound, count = 2, 2, 4, 200
    candidates = random_batch(rng, m, n, bound, count)
    assert chunk_mask(candidates, T_POINTS) == oracle_mask(candidates, T_POINTS)


def both_masks(candidates, m, n, bound, points, free=2):
    """The residue-join kernel's mask (see ``hits_mask``) and the oracle's
    on one block per candidate, over the rows that appear in
    ``candidates``.  The block keeps the candidate's first m - free rows,
    and its ``free`` free rows are every non-decreasing tuple from the
    smallest of the candidate's last ``free`` rows on, so the candidate's
    own rows are in it.  Sweeps decide m = 1 without the kernel, rejecting
    every row, so for m = 1 the first mask is all zero and the second is
    the oracle's over every canonical row."""
    if m == 1:
        rows = row_universe(n, bound, "T")
        return bytearray(len(rows)), chunk_mask([(row,) for row in rows], points)
    rows = sorted({row for candidate in candidates for row in candidate})
    index = {row: i for i, row in enumerate(rows)}
    kernel, name = select_filter(m, n, bound, points, rows)
    assert name == "residue-join"
    got, blocks = bytearray(), []
    for candidate in candidates:
        heads = tuple(index[row] for row in candidate[:m - free])
        tails = range(min(index[row] for row in candidate[m - free:]), len(rows))
        count = block_size(tails, len(rows), free)
        block = block_rows(rows, heads, tails, m)
        assert len(block) == count
        got += hits_mask(kernel, (heads, tails, m, n, count, points), block)
        blocks += block
    return got, chunk_mask(blocks, points)


def canonical_masks(m, n, bound, mode, free=None):
    """The kernel's and the oracle's masks over every canonical candidate
    of the sweep, in canonical order, walked in blocks of ``free`` free
    rows (by default, those of a sweep that no enum budget cuts)."""
    universe = row_universe(n, bound, mode)
    candidates = list(stream_candidates(universe, m, 0, 1))
    got = join_mask(universe, m, n, bound, mode, free=free)
    return got, chunk_mask(candidates, sample_points(mode))


def random_candidates(rng, m, n, bound, count):
    """Unsorted rows of both signs, plus variants built to pass: a candidate
    whose rows cancel in pairs, and rows repeated across candidates so the
    table is read as well as filled."""
    values = [v for v in range(-bound, bound + 1) if v]
    pool = [(tuple(rng.choice(values) for _ in range(n)), rng.choice((1, -1)))
            for _ in range(3 * m)]
    out = []
    for _ in range(count):
        candidate = [rng.choice(pool) for _ in range(m)]
        out.append(candidate)
        for i in range(0, m - 1, 2):
            ws, s = candidate[i]
            candidate = candidate[:i + 1] + [(ws[::-1], -s)] + candidate[i + 2:]
        out.append(candidate)
    return out


@pytest.mark.parametrize("points", [T_POINTS, L_POINTS], ids=["T", "L"])
def test_residue_join_agrees_with_matches_constant_on_a_grid(points):
    rng = random.Random(4)
    passed = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for bound in range(1, 9):
                candidates = random_candidates(rng, m, n, bound, 6)
                for free in [min(m, 2)] + [3] * (m >= 4):
                    got, want = both_masks(candidates, m, n, bound, points, free)
                    assert got == want, (m, n, bound, free)
                    passed += sum(got)
    assert passed > 0


@pytest.mark.parametrize("m, n, bound, mode", [(1, 2, 3, "T"), (2, 2, 3, "L"), (3, 2, 3, "T"),
                                            (4, 1, 4, "L")])
def test_residue_join_decides_the_first_count_candidates_of_a_block(m, n, bound, mode):
    # every cut of a few blocks around the first canonical survivor, with
    # two free rows and, for m >= 3, three: the survivors are the whole
    # block's among the first count candidates, and none is recorded at or
    # past count; m = 1 sweeps skip the kernel, and no one-row candidate
    # passes
    universe = row_universe(n, bound, mode)
    size = len(universe)
    points = sample_points(mode)
    kernel, _ = select_filter(m, n, bound, points, universe)
    blocks = []
    if m == 1:
        assert chunk_mask([(row,) for row in universe], points) == bytes(size)
    else:
        canonical = list(combinations_with_replacement(range(size), m))
        mask = chunk_mask([tuple(map(universe.__getitem__, c)) for c in canonical], points)
        for free in [2] + [3] * (m >= 3):
            *heads, j = canonical[mask.index(1)][:m - free + 1]
            heads = tuple(heads)
            blocks += [(heads, range(j, size)), (heads, range(max(j - 2, 0), j + 1)),
                       (heads, range(0, 1)), (heads, range(j, j + 1))]
    survivors = 0
    for heads, tails in blocks:
        candidates = block_rows(universe, heads, tails, m)
        want = chunk_mask(candidates, points)
        assert len(want) == block_size(tails, size, m - len(heads))
        survivors += sum(want)
        for count in range(len(want) + 1):
            call = (heads, tails, m, n, count, points)
            assert hits_mask(kernel, call, candidates) == want[:count], (heads, tails, count)
    # no single row is constant
    assert (survivors > 0) == (m > 1)


def test_residue_join_decides_a_long_block_cut_anywhere():
    # a 180300-candidate block, cut at a few counts (two of them around
    # 2^16); its head is a row of the rigid difference matrix of seed
    # (0, 1, 2)
    from rigidpow.rigidity import quasilinear
    from rigidpow.search import canonical_form

    universe = row_universe(2, 12, "T")
    size = len(universe)
    heads = (universe.index(canonical_form(quasilinear((0, 1, 2))).rows[0]),)
    kernel, _ = select_filter(3, 2, 12, T_POINTS, universe)
    block = block_size(range(size), size)
    assert block == 180300
    candidates = block_rows(universe, heads, range(size), 3)
    whole = hits_mask(kernel, (heads, range(size), 3, 2, block, T_POINTS), candidates)
    survivors = [k for k, ok in enumerate(whole) if ok]
    assert survivors and all(matches_constant(candidates[k], T_POINTS) for k in survivors)
    for count in ((1 << 16) + 1, 1 << 16, survivors[-1]):
        call = (heads, range(size), 3, 2, count, T_POINTS)
        assert hits_mask(kernel, call, candidates) == whole[:count], count


@pytest.mark.parametrize("m, n, bound, mode", [
    (2, 1, 5, "T"), (2, 2, 3, "T"), (3, 2, 2, "T"), (3, 2, 3, "L"),
    (4, 1, 4, "L"), (2, 3, 2, "T"), (4, 2, 2, "T"), (5, 2, 2, "T"), (5, 2, 3, "L"),
])
def test_residue_join_agrees_with_matches_constant_on_every_canonical_candidate(m, n, bound, mode):
    # m >= 3 in both block shapes: two free rows, and three (the
    # tetrahedron for m = 3, the pair table's for m >= 4)
    for free in [min(m, 2)] + [3] * (m >= 3):
        got, want = canonical_masks(m, n, bound, mode, free)
        assert got == want, free
        assert 0 < sum(got) < len(got)


@pytest.mark.parametrize("m, n, bound", [(2, 1, 130), (1, 1, 500)])
def test_residue_join_agrees_with_matches_constant_at_large_bounds(m, n, bound):
    # these bounds pass w = 61 and w = 122: modulo the Mersenne prime
    # 2^61 - 1, z = 2 has order 61, so z^w - 1 would have no inverse
    got, want = canonical_masks(m, n, bound, "T")
    assert got == want
    # no single row is constant; two rows are when they cancel
    assert (sum(got) > 0) == (m > 1)


@pytest.mark.parametrize("m, n, bound, mode", [(2, 2, 3, "T"), (3, 2, 3, "L"), (4, 1, 4, "L")])
def test_residue_join_hands_over_every_zero_residue_sum_modulo_a_small_prime(monkeypatch, m, n,
                                                                            bound, mode):
    # modulo the safe prime 23 = 2 * 11 + 1 about one candidate in 23
    # collides; the mask holds exactly the candidates whose residues sum to
    # 0 modulo 23, so the exact oracle's survivors and every collision
    monkeypatch.setattr(prefilter, "_PRIME", 23)
    universe = row_universe(n, bound, mode)
    residues = prefilter._row_residues(universe, n, sample_points(mode))
    want = bytearray(sum(map(residues.__getitem__, indices)) % 23 == 0
                     for indices in combinations_with_replacement(range(len(universe)), m))
    for free in [min(m, 2)] + [3] * (m >= 3):
        got, exact = canonical_masks(m, n, bound, mode, free)
        assert got == want
        assert all(map(int.__ge__, got, exact)) and sum(got) > sum(exact)


@pytest.mark.parametrize("m, n, bound, mode", [(2, 2, 3, "T"), (3, 2, 3, "L"), (4, 1, 4, "L")])
def test_a_residue_collision_reaches_the_mask_like_any_hit(monkeypatch, m, n, bound, mode):
    # modulo the safe prime 23 many residue hits are collisions; block by
    # block, the mask receives every candidate whose residues sum to 0
    # modulo 23, in block order, whether the exact oracle accepts it or not
    monkeypatch.setattr(prefilter, "_PRIME", 23)
    universe = row_universe(n, bound, mode)
    points = sample_points(mode)
    kernel, _ = select_filter(m, n, bound, points, universe)
    residues = prefilter._row_residues(universe, n, points)
    collisions = 0
    for free in [min(m, 2)] + [3] * (m >= 3):
        for heads, tails in _blocks(m, len(universe), 0, 1, free):
            count = block_size(tails, len(universe), free)
            hits = _Hits()
            kernel(heads, tails, m, n, count, points, hits)
            candidates = block_rows(universe, heads, tails, m)
            offsets = residue_offsets(residues, heads, tails, m, count, 23)
            assert hits.hits == [(k, candidates[k]) for k in offsets]
            collisions += sum(not matches_constant(rows, points) for _, rows in hits.hits)
    assert collisions > 0


def row_residue(weights, sign, points):
    """One row's residue straight from its definition, with a power and an
    inverse modulo the prime for every weight: the row's term minus its
    constant at every point, the p-th point weighted by _BASE**p."""
    P = prefilter._PRIME
    residue, scale = 0, 1
    for z, x, y in points:
        num, den, const = sign, 1, sign
        for w in weights:
            zp = pow(z, abs(w), P)
            num = num * (x * zp + y if w > 0 else -(x + y * zp)) % P
            den = den * (zp - 1) % P
            const *= x if w > 0 else -y
        residue += scale * (num * pow(den, -1, P) - const)
        scale = scale * prefilter._BASE % P
    return residue % P


def fraction_residue(weights, sign, points):
    P = prefilter._PRIME
    want = 0
    for p, (z, x, y) in enumerate(points):
        term = row_value(weights, sign, z, x, y) - row_constant(weights, sign, x, y)
        want += pow(prefilter._BASE, p, P) * term.numerator * pow(term.denominator, -1, P)
    return want % P


@pytest.mark.parametrize("m, n, bound, mode", [
    (1, 1, 1, "T"), (2, 2, 4, "T"), (4, 3, 3, "T"), (3, 2, 5, "L"), (4, 4, 2, "L"),
])
def test_residue_join_residues_are_exact_row_terms_modulo_the_prime(m, n, bound, mode):
    points = sample_points(mode)
    rows = row_universe(n, bound, "T")
    residues = prefilter._row_residues(rows, n, points)
    assert len(residues) == len(rows)

    for (ws, sign), residue in zip(rows, residues):
        assert residue == row_residue(ws, sign, points)
        assert residue == fraction_residue(ws, sign, points)


@pytest.mark.parametrize("mode, n, bound", [("T", 1, 3), ("T", 2, 4), ("T", 3, 2), ("L", 1, 5),
                                           ("L", 2, 5), ("L", 4, 3)])
def test_row_universe_lists_each_row_after_its_sign_twin(monkeypatch, mode, n, bound):
    # the tetrahedron's table and the triple block rest on this: in every
    # row list the kernel is handed, the sweep's universe and the triple
    # search's list alike, rows 2t and 2t + 1 hold the same weights signed
    # -1 and +1, so the residue of 2t + 1 is the negation of that of 2t
    universe = row_universe(n, bound, mode)
    handed = []

    def recording(m, n_, bound_, points, rows=()):
        handed.append(rows)
        return select_filter(m, n_, bound_, points, rows)

    monkeypatch.setattr(search, "select_filter", recording)
    search.triple_identity_search(n, bound)
    assert len(handed) == 1
    for rows in (universe, *handed):
        residues = prefilter._row_residues(rows, n, sample_points(mode))
        assert len(rows) % 2 == 0 and rows
        for t in range(len(rows) // 2):
            (minus, sign), (plus, twin_sign) = rows[2 * t], rows[2 * t + 1]
            assert minus == plus and (sign, twin_sign) == (-1, 1)
            assert residues[2 * t + 1] == -residues[2 * t] % prefilter._PRIME

    # the kernel checks no row: every row the sweep and the triple search
    # hand it is a Row of n int weights with 1 <= |w| <= bound and an int
    # sign of 1 or -1
    for rows in (universe, *handed):
        assert rows
        for row in rows:
            assert type(row) is Row and len(row.weights) == n
            assert all(type(w) is int and 1 <= abs(w) <= bound for w in row.weights)
            assert type(row.sign) is int and row.sign in (1, -1)
    # nor does the kernel check the bound: the universe cap refuses every
    # bound that could reach the prime's (P - 1) // 2, in both modes
    guard = (prefilter._PRIME - 1) // 2
    for size in (1, 2, 3):
        with pytest.raises(ValueError, match="row universe"):
            SearchSpec(2, size, guard, mode)
        with pytest.raises(ValueError, match="row list"):
            search.check_triple_args(size, guard)


@pytest.mark.parametrize("mode, m, n, bound, shards, enum_budget", [
    ("T", 2, 2, 3, 1, None), ("T", 2, 1, 6, 3, None), ("L", 2, 3, 2, 1, None),
    ("T", 2, 2, 2, 2, 7), ("T", 3, 2, 2, 1, None), ("T", 3, 2, 3, 3, None),
    ("L", 3, 2, 3, 1, 50), ("L", 3, 1, 5, 2, None), ("T", 4, 1, 3, 1, None),
    ("T", 4, 1, 3, 1, 100), ("L", 4, 2, 2, 2, None), ("T", 5, 2, 2, 1, None),
    ("L", 5, 1, 3, 3, 1000),
])
def test_every_kernel_call_of_a_sweep_keeps_the_calling_convention(monkeypatch, mode, m, n,
                                                                   bound, shards, enum_budget):
    # the kernel checks no call: every call a sweep makes, whole, sharded
    # or cut by its enum budget, is a nonempty block of its own universe
    # with m - 2 heads (or m - 3, for m >= 3), ascending heads no later
    # than a consecutive range of tails, and 1 <= count <= the block's
    # size; the calls decide each enumerated candidate once
    calls = record_kernel_calls(monkeypatch)
    budget = {} if enum_budget is None else {"enum_budget": enum_budget}
    spec = SearchSpec(m, n, bound, mode, **budget)
    try:
        stats = sweep(spec, shards=shards).stats
    except BudgetExceeded as exceeded:
        assert enum_budget is not None
        stats = exceeded.report.stats
    universe = row_universe(n, bound, mode)
    size = len(universe)
    assert calls
    for rows, (heads, tails, m_, n_, count, points), out in calls:
        assert rows == universe and (m_, n_, points) == (m, n, sample_points(mode))
        free = m - len(heads)
        assert free in ((2, 3) if m >= 3 else (2,))
        assert list(heads) == sorted(heads) and all(0 <= h < size for h in heads)
        assert type(tails) is range and tails.step == 1 and 0 <= tails.start < tails.stop <= size
        assert not heads or heads[-1] <= tails.start
        assert 1 <= count <= block_size(tails, size, free)
    assert sum(call[4] for _, call, _ in calls) == stats.enumerated


@pytest.mark.parametrize("n, bound", [(1, 5), (2, 4), (3, 3), (2, 6)])
def test_the_triple_search_makes_one_call_of_the_whole_triple_block(monkeypatch, n, bound):
    # the triple search's one call is the triple block of its plus rows,
    # the odd rows of its list, times its minus rows
    calls = record_kernel_calls(monkeypatch)
    search.triple_identity_search(n, bound)
    [(rows, (heads, tails, m, n_, count, points), out)] = calls
    plus = len(rows) // 2
    assert (m, n_, points) == (3, n, L_POINTS)
    assert heads == () and tails == range(1, len(rows), 2) and type(tails) is range
    assert count == block_size(range(plus), plus) * plus > 0
    assert len(block_rows(rows, heads, tails, m)) == count


# The largest |w| below the q of the prime P = 2q + 1: a table over every
# |w| up to it could never be built.
TOP_BOUND = (prefilter._PRIME - 1) // 2 - 1


def test_select_filter_with_no_rows_computes_no_residue():
    kernel, name = select_filter(3, 2, TOP_BOUND, T_POINTS)
    assert (name, prefilter._row_residues((), 2, T_POINTS)) == ("residue-join", [])


def test_select_filter_tables_only_the_weights_that_occur():
    rows = [((TOP_BOUND, -1), 1), ((-TOP_BOUND, 7), -1), ((3, 3), 1)]
    select_filter(2, 2, TOP_BOUND, T_POINTS, rows)
    residues = prefilter._row_residues(rows, 2, T_POINTS)
    assert residues == [row_residue(ws, sign, T_POINTS) for ws, sign in rows]
    assert residues[2] == fraction_residue(*rows[2], T_POINTS)


def test_select_filter_keeps_every_z_power_invertible_modulo_the_prime():
    # by Fermat z^(P - 1) = 1 for every z, so a row with |w| = P - 1 has a
    # factor with no residue, and the one inversion per magnitude refuses
    # it at either point set; every z of the points has order q or 2q, so
    # |w| = q - 1 passes
    P = prefilter._PRIME
    q = (P - 1) // 2
    for points in (T_POINTS, L_POINTS):
        for w in (P - 1, 1 - P):
            with pytest.raises(ValueError, match="not invertible"):
                select_filter(2, 1, 3, points, [((w,), -1), ((w,), 1)])
        select_filter(2, 1, 3, points, [((q - 1,), -1), ((q - 1,), 1)])


def test_the_sample_points_and_the_universe_cap_keep_every_sweep_row_a_unit():
    # every z has order q or 2q modulo P = 2q + 1, and every |w| of a row
    # universe the cap passes is at most half its rows, below q
    P = prefilter._PRIME
    assert all(2 <= z < P - 1 and min(x, y) >= 1 for z, x, y in T_POINTS + L_POINTS)
    assert search.MAX_UNIVERSE_ROWS // 2 < (P - 1) // 2


def is_prime(n):
    """Miller-Rabin on the first 12 prime bases: deterministic below 3.1e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert n < 318665857834031151167461
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_the_prime_is_safe():
    assert [v for v in range(60) if is_prime(v)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(3215031751)  # a strong pseudoprime to bases 2, 3, 5, 7
    assert is_prime(prefilter._PRIME) and is_prime((prefilter._PRIME - 1) // 2)
    assert not is_prime(((1 << 61) - 1 - 1) // 2)  # the Mersenne prime is not safe


def test_kernels_accept_rigid_matrices():
    # soundness from the other side: known-constant functions always pass
    from rigidpow.rigidity import quasilinear
    from rigidpow.search import canonical_form

    for seed in ((0, 1), (0, 1, 2), (3, 5, 8, 11)):
        matrix = quasilinear(seed)
        for mode in ("T", "L"):
            assert matches_constant(matrix.rows, sample_points(mode))

    # and the canonical L image passes the L points as well
    matrix = canonical_form(quasilinear((0, 2, 5)), "L")
    assert matches_constant(matrix.rows, L_POINTS)
