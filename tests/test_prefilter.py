"""The sample-point pre-filter kernel against exact values from the
definition."""

import random
from itertools import combinations_with_replacement

import pytest

from rigidpow import prefilter
from rigidpow.prefilter import (
    L_POINTS,
    T_POINTS,
    block_size,
    matches_constant,
    sample_points,
    select_filter,
)
from rigidpow.search import _blocks, _Hits, row_universe
from exact_values import forced_constant, function_value, row_constant, row_value
from stream_oracle import block_rows, chunk_mask, hits_mask, join_mask, stream_candidates


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
    # two free rows and, for m >= 4, three: the survivors are the whole
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
        for free in [2] + [3] * (m >= 4):
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
    # m >= 4 in both block shapes: the pair table's and the two-free-row one
    for free in [min(m, 2)] + [3] * (m >= 4):
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
def test_residue_join_collisions_are_decided_by_matches_constant(monkeypatch, m, n, bound, mode):
    # modulo the safe prime 23 = 2 * 11 + 1 about one candidate in 23
    # collides; matches_constant, called on every hit, must still give its mask
    monkeypatch.setattr(prefilter, "_PRIME", 23)
    hits = []
    monkeypatch.setattr(prefilter, "matches_constant",
                        lambda *args: hits.append(args) or matches_constant(*args))
    for free in [min(m, 2)] + [3] * (m >= 4):
        hits.clear()
        got, want = canonical_masks(m, n, bound, mode, free)
        assert got == want
        assert len(hits) > sum(got)


@pytest.mark.parametrize("m, n, bound, mode", [(2, 2, 3, "T"), (3, 2, 3, "L"), (4, 1, 4, "L")])
def test_a_residue_collision_that_matches_constant_rejects_records_nothing(monkeypatch, m, n,
                                                                           bound, mode):
    # modulo the safe prime 23 many residue hits are collisions; the mask
    # receives the candidates matches_constant accepts, in the order it
    # decides them, and nothing for those it rejects
    monkeypatch.setattr(prefilter, "_PRIME", 23)
    decided = []

    def recording_matches_constant(rows, points):
        decided.append((rows, matches_constant(rows, points)))
        return decided[-1][1]

    monkeypatch.setattr(prefilter, "matches_constant", recording_matches_constant)
    universe = row_universe(n, bound, mode)
    points = sample_points(mode)
    kernel, _ = select_filter(m, n, bound, points, universe)
    rejected = 0
    for free in [min(m, 2)] + [3] * (m >= 4):
        for heads, tails in _blocks(m, len(universe), 0, 1, free):
            decided.clear()
            hits = _Hits(block_size(tails, len(universe), free))
            kernel(heads, tails, m, n, len(hits), points, hits)
            assert [rows for _, rows in hits.hits] == [rows for rows, ok in decided if ok]
            rejected += sum(not ok for _, ok in decided)
    assert rejected > 0


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
    kernel, _ = select_filter(m, n, bound, points, rows)
    assert len(kernel.residues) == len(rows)

    for (ws, sign), residue in zip(rows, kernel.residues):
        assert residue == row_residue(ws, sign, points)
        assert residue == fraction_residue(ws, sign, points)


# The largest bound select_filter accepts: a table over every |w| up to it
# could never be built.
TOP_BOUND = (prefilter._PRIME - 1) // 2 - 1


def test_select_filter_with_no_rows_computes_no_residue():
    kernel, name = select_filter(3, 2, TOP_BOUND, T_POINTS)
    assert (name, kernel.residues) == ("residue-join", [])


def test_select_filter_tables_only_the_weights_that_occur():
    rows = [((TOP_BOUND, -1), 1), ((-TOP_BOUND, 7), -1), ((3, 3), 1)]
    kernel, _ = select_filter(2, 2, TOP_BOUND, T_POINTS, rows)
    assert kernel.residues == [row_residue(ws, sign, T_POINTS) for ws, sign in rows]
    assert kernel.residues[2] == fraction_residue(*rows[2], T_POINTS)


@pytest.mark.parametrize("bad", [(0, 1), (1, 4), (-4, 1), (1, 2, 3), (1,), (1.5, 1)])
def test_residue_join_rejects_rows_outside_its_parameters(bad):
    m, n, bound = 3, 2, 3
    rows = [((1, -1), 1), ((2, 1), -1), ((1, 1), 1)]
    with pytest.raises(ValueError):
        select_filter(m, n, bound, T_POINTS, rows + [(bad, 1)])
    with pytest.raises(ValueError):
        select_filter(m, n, bound, T_POINTS, rows + [((1, 2), 2)])
    kernel, _ = select_filter(m, n, bound, T_POINTS, rows)
    mask = _Hits(2)
    for heads, tails, m_, count in [
        ((0,), range(1, 3), m + 1, 2),      # another m
        ((0, 1, 2), range(1, 3), m, 2),     # too many heads
        ((), range(1, 3), m, 2),            # too few
        ((3,), range(1, 3), m, 2),          # a head past the rows
        ((-1,), range(1, 3), m, 2),         # a negative head
        ((0, 1), range(1, 3), m, 2),        # m - 1 heads, one free row
        ((0,), range(2, 4), m, 2),          # a tail past the rows
        ((0,), range(-1, 1), m, 2),         # a negative tail
        ((0, 2), range(2, 3), m, 1),        # m - 1 heads, a one-candidate block
        ((0,), range(2, 0, -1), m, 2),      # tails not ascending
        ((0,), range(0, 3, 2), m, 2),       # tails not consecutive
        ((0,), range(2, 3), m, 2),          # count above the block size (1)
        ((0, 1), range(1, 3), m, 0),        # m - 1 heads, no candidate
        ((0,), range(1, 3), m, -1),         # a negative count
        ((0,), [1, 2], m, 2),               # tails not a range
    ]:
        with pytest.raises(ValueError):
            kernel(heads, tails, m_, n, count, T_POINTS, mask)
    with pytest.raises(ValueError):
        kernel((0,), range(1, 3), m, n, 2, L_POINTS, mask)
    assert mask.hits == []
    # the block size the calls above exceed: 3 pairs from row 1
    assert block_size(range(1, 3), 3) == 3


def test_residue_join_rejects_pair_table_calls_outside_its_parameters():
    # m - 3 heads, three free rows: for m = 4 every such call that breaks
    # the kernel's parameters raises before anything is written; the block of tails range(1, 3) holds (1, 1, 1), (1, 1, 2),
    # (1, 2, 2) and (2, 2, 2)
    rows = [((1, -1), 1), ((2, 1), -1), ((1, 1), 1)]
    kernel, _ = select_filter(4, 2, 3, T_POINTS, rows)
    assert block_size(range(1, 3), 3, 3) == 4
    mask = _Hits(5)
    for heads, tails, m_, count in [
        ((), range(1, 3), 4, 4),            # m - 4 heads, four free rows
        ((3,), range(1, 3), 4, 4),          # a head past the rows
        ((-1,), range(1, 3), 4, 4),         # a negative head
        ((0,), range(2, 4), 4, 1),          # a tail past the rows
        ((0,), range(-1, 1), 4, 1),         # a negative tail
        ((0,), range(0, 3, 2), 4, 1),       # tails not consecutive
        ((0,), range(1, 3), 4, 5),          # count above the block size (4)
        ((0,), range(1, 3), 4, -1),         # a negative count
        ((0,), range(1, 3), 5, 4),          # another m
        ((0,), (1, 2), 4, 4),               # tails not a range
    ]:
        with pytest.raises(ValueError):
            kernel(heads, tails, m_, 2, count, T_POINTS, mask)
    with pytest.raises(ValueError):
        kernel((0,), range(1, 3), 4, 2, 4, L_POINTS, mask)
    with pytest.raises(ValueError):
        kernel((0,), range(1, 3), 4, 2, 4, T_POINTS, _Hits(3))  # a short mask
    assert mask.hits == []
    # no m = 3 kernel takes m - 3 heads
    kernel3, _ = select_filter(3, 2, 3, T_POINTS, rows)
    with pytest.raises(ValueError):
        kernel3((), range(1, 3), 3, 2, 4, T_POINTS, mask)
    assert mask.hits == []


GOOD_ROW = ((1, -1), 1)


@pytest.mark.parametrize("rows, message", [
    ([GOOD_ROW, ((1, 0), 1), ((1,), 1)], "row weights must be nonzero with |w| <= 3: (1, 0)"),
    ([GOOD_ROW, ((1,), 1), ((1, 0), 1)], "a row needs 2 weights, got 1"),
    ([GOOD_ROW, ((1, 1, 1), 1)], "a row needs 2 weights, got 3"),
    ([((1, 1), 1), ((True, 1), 1)], "weight must be an integer, got True"),
    ([((1, 1), 1), ((1, 1.0), 1)], "weight must be an integer, got 1.0"),
    ([((1, 1), 1), ((1, "1"), 1)], "weight must be an integer, got '1'"),
    ([((1, 1), 1), ((-4, 1), 1)], "row weights must be nonzero with |w| <= 3: (-4, 1)"),
    ([((4, 1), 2)], "row weights must be nonzero with |w| <= 3: (4, 1)"),
    ([((2, 1), 1), ((2, 1), 2)], "a row sign must be 1 or -1, got 2"),
    ([((2, 1), True)], "sign must be an integer, got True"),
    ([((1, 1), 1), ((1, 1), 1.0)], "sign must be an integer, got 1.0"),
])
def test_row_validation_names_the_first_offending_row(monkeypatch, rows, message):
    # weights already seen are not range-checked again, but a bool or a
    # float equal to one of them still fails, and nothing is computed first
    def no_residue(*args):
        raise AssertionError("a residue was computed")

    monkeypatch.setattr(prefilter, "pow", no_residue, raising=False)
    with pytest.raises(ValueError) as error:
        select_filter(2, 2, 3, T_POINTS, rows)
    assert str(error.value) == message


@pytest.mark.parametrize("points", [
    ((1, 1, 1),), ((2, 0, 1),), ((2, 1, -1),), ((2, 1),), ((2.0, 1, 1),),
    (2, 1, 1),  # the flat layout
])
def test_select_filter_rejects_points_outside_the_guard_bound(points):
    with pytest.raises(ValueError):
        select_filter(2, 2, 3, points)


@pytest.mark.parametrize("m, n, bound", [(0, 1, 1), (1, 1, 0), (True, 1, 1), (2, 1, 3.0)])
def test_select_filter_rejects_bad_parameters(m, n, bound):
    with pytest.raises(ValueError):
        select_filter(m, n, bound, T_POINTS)


def test_select_filter_keeps_every_z_power_invertible_modulo_the_prime():
    # z = P - 1 has order 2, and z^q = 1 for every z of order q
    P = prefilter._PRIME
    q = (P - 1) // 2
    with pytest.raises(ValueError):
        select_filter(2, 1, 3, ((P - 1, 1, 1),))
    with pytest.raises(ValueError):
        select_filter(2, 1, q, T_POINTS)
    select_filter(2, 1, 3, ((P - 2, 1, 1),))
    select_filter(2, 1, q - 1, T_POINTS)


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
