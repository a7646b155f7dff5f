"""The hits-only kernel mask, ``search._Hits``, against the oracle, and
the oracle ``matches_constant`` against exact values from the definition."""

from itertools import combinations_with_replacement

import pytest

import stream_oracle
from rigidpow import prefilter, search
from rigidpow.prefilter import T_POINTS, block_size, sample_points, select_filter
from rigidpow.search import BudgetExceeded, SearchSpec, _Hits, row_universe, sweep
from exact_values import forced_constant, function_value
from stream_oracle import block_rows, chunk_mask, matches_constant, residue_offsets


def record_kernel_calls(monkeypatch):
    """Every kernel call ``search`` makes from now on, with the rows the
    kernel was built on, its first six arguments and the mask it was
    passed, appended to the returned list after the call."""
    calls = []
    select_filter_ = search.select_filter

    def recording_select_filter(m, n, bound, points, rows=()):
        kernel, name = select_filter_(m, n, bound, points, rows)

        def recording_kernel(heads, tails, m, n, count, points, out):
            kernel(heads, tails, m, n, count, points, out)
            calls.append((rows, (heads, tails, m, n, count, points), out))

        return recording_kernel, name

    monkeypatch.setattr(search, "select_filter", recording_select_filter)
    return calls


def assert_hits_match_the_oracle(rows, call, hits):
    """``hits``, a ``_Hits`` the kernel filled on the call ``call`` over
    ``rows``, holds exactly the survivors ``matches_constant`` finds among
    the block's first ``count`` candidates, each as its offset and its
    rows, in increasing order, and counts them as a mask of one byte per
    candidate would."""
    heads, tails, m, _, count, points = call
    candidates = block_rows(rows, heads, tails, m)[:count]
    want = chunk_mask(candidates, points)
    assert type(hits) is _Hits
    assert hits.hits == [(k, candidates[k]) for k, byte in enumerate(want) if byte]
    assert hits.count(1) == want.count(1)
    return len(hits.hits)


@pytest.mark.parametrize("mode, m, n, bound", [
    ("T", 2, 2, 4), ("T", 3, 2, 3), ("T", 4, 1, 3), ("T", 4, 2, 2),
    ("L", 2, 3, 3), ("L", 3, 2, 4), ("L", 4, 2, 3),
])
def test_hits_equal_the_oracle_on_every_sweep_block(monkeypatch, mode, m, n, bound):
    calls = record_kernel_calls(monkeypatch)
    report = sweep(SearchSpec(m, n, bound, mode))
    size = len(row_universe(n, bound, mode))
    assert sum(call[4] for _, call, _ in calls) == report.stats.enumerated
    assert all(call[4] == block_size(call[1], size, m - len(call[0])) for _, call, _ in calls)
    hits = sum(assert_hits_match_the_oracle(*call) for call in calls)
    assert hits == report.stats.exact_checks > 0


@pytest.mark.parametrize("n, bound, solutions", [(3, 4, 0), (2, 6, 9)])
def test_hits_equal_the_oracle_on_every_triple_search_block(monkeypatch, n, bound, solutions):
    # one triple block: every pair a <= b of the plus rows, the odd rows
    # of the twin layout, each followed by every minus row c
    calls = record_kernel_calls(monkeypatch)
    assert len(search.triple_identity_search(n, bound)) == solutions
    plus = len(row_universe(n, bound, "L")) // 2
    [(rows, call, hits)] = calls
    assert call[:5] == ((), range(1, 2 * plus, 2), 3, n, plus * plus * (plus + 1) // 2)
    assert [sign for _, sign in rows] == [-1, 1] * plus
    assert assert_hits_match_the_oracle(rows, call, hits) >= solutions


@pytest.mark.parametrize("specs, candidates, survivors", [
    ([(4, 5), (3, 6)], 263326, 7),  # the benchmark's triple workload
    ([(2, 4)], 550, 4),             # and its tiny size
])
def test_triple_search_makes_one_kernel_call_per_spec(monkeypatch, specs, candidates,
                                                      survivors):
    calls = record_kernel_calls(monkeypatch)
    for n, bound in specs:
        search.triple_identity_search(n, bound)
    assert len(calls) == len(specs)
    assert sum(call[4] for _, call, _ in calls) == candidates
    assert sum(out.count(1) for _, _, out in calls) == survivors


def twin_rows(n, bound):
    """The triple search's row list: each weight list signed -1, then +1."""
    return [(v, sign) for v in combinations_with_replacement(range(1, bound + 1), n)
            for sign in (-1, 1)]


def test_triple_block_hits_equal_the_oracle_at_every_count():
    # n = 2, b = 4: 10 weight lists, each as a minus row and then a plus
    # row; the block of the 10 plus rows holds 55 pairs times 10 minus
    # rows, and its 4 survivors are the solutions
    rows = twin_rows(2, 4)
    points = sample_points("L")
    kernel, _ = select_filter(3, 2, 4, points, rows)
    block = block_rows(rows, (), range(1, 20, 2), 3)
    assert len(block) == 550
    for tails in (range(1, 20, 2), range(7, 20, 2), range(1, 8, 2)):
        for count in range(len(block_rows(rows, (), tails, 3)) + 1):
            hits = _Hits()
            call = ((), tails, 3, 2, count, points)
            kernel(*call, hits)
            found = assert_hits_match_the_oracle(rows, call, hits)
        if tails == range(1, 20, 2):
            assert found == 4


def test_triple_block_hits_are_the_zero_residue_sums_at_a_small_prime(monkeypatch):
    # modulo 23 the residues collide: some pairs j <= k of plus rows have
    # partners among the plus rows, which the block leaves out, as well as
    # among the minus rows
    monkeypatch.setattr(prefilter, "_PRIME", 23)
    rows = twin_rows(2, 4)
    points = sample_points("L")
    kernel, _ = select_filter(3, 2, 4, points, rows)
    residues = prefilter._row_residues(rows, 2, points)
    plus = range(1, 20, 2)
    candidates = block_rows(rows, (), plus, 3)
    survivors = []
    for count in (len(candidates), 300, 0):
        hits = _Hits()
        kernel((), plus, 3, 2, count, points, hits)
        offsets = residue_offsets(residues, (), plus, 3, count, 23)
        assert hits.hits == [(k, candidates[k]) for k in offsets]
        survivors.append(len(offsets))
    assert survivors[0] > survivors[1] > survivors[2] == 0 and survivors[0] > 4
    assert any((residues[j] + residues[k] + residues[p]) % 23 == 0
               for j in plus for k in range(j, 20, 2) for p in plus)


def test_tetrahedron_hits_are_the_zero_residue_sums_at_a_small_prime(monkeypatch):
    # modulo 23 some L rows of n = 2, b = 3 have residue 0, as their twins
    # do, and residues collide: each head-less m = 3 block over the row
    # universe, whole or cut, from row 0 or past it, holds exactly the
    # candidates j <= k <= p whose residues sum to 0 modulo 23
    monkeypatch.setattr(prefilter, "_PRIME", 23)
    universe = row_universe(2, 3, "L")
    size = len(universe)
    points = sample_points("L")
    kernel, _ = select_filter(3, 2, 3, points, universe)
    residues = prefilter._row_residues(universe, 2, points)
    assert 0 in residues
    blocks = [range(size), range(5, size), range(0, 4), range(3, 8)]
    blocks += [range(i, i + 1) for i in range(size)]
    survivors, signs = 0, set()
    for tails in blocks:
        block = block_size(tails, size, 3)
        candidates = block_rows(universe, (), tails, 3)
        assert len(candidates) == block
        for count in sorted({block, block // 2, 1, 0}):
            hits = _Hits()
            kernel((), tails, 3, 2, count, points, hits)
            offsets = residue_offsets(residues, (), tails, 3, count, 23)
            assert hits.hits == [(k, candidates[k]) for k in offsets], (tails, count)
        if tails == range(size):
            survivors = len(offsets)
            signs = {tuple(sorted(sign for _, sign in rows)) for _, rows in hits.hits}
    # hits of all four sign patterns, each found directly or as a twin,
    # and collisions, which the exact oracle rejects
    assert signs == {(-1, -1, -1), (-1, -1, 1), (-1, 1, 1), (1, 1, 1)}
    assert survivors > sum(matches_constant(rows, points) for rows in block_rows(
        universe, (), range(size), 3))
    # over three rows, tails range(1, 3) hold 3 pairs (1, 1), (1, 2) and
    # (2, 2), and 4 triples (1, 1, 1), (1, 1, 2), (1, 2, 2) and (2, 2, 2)
    assert block_size(range(1, 3), 3) == 3 and block_size(range(1, 3), 3, 3) == 4


def test_benchmark_sweep_makes_one_kernel_call_per_unsharded_three_row_spec(monkeypatch):
    # the benchmark's sweep specs: each m = 3 sweep is one call, where its
    # one-head walk made one per row (228 for the two), and the m = 2 and
    # m = 4 sweeps make one per first row; the candidates and survivors are
    # the benchmark's pinned counts
    calls = record_kernel_calls(monkeypatch)
    for mode, m, n, bound in [("L", 2, 1, 6), ("L", 4, 1, 6), ("T", 2, 1, 5), ("T", 2, 2, 5),
                              ("T", 2, 3, 5), ("L", 3, 2, 8), ("T", 3, 2, 6), ("L", 4, 2, 5)]:
        sweep(SearchSpec(m, n, bound, mode))
    assert len(calls) == 48
    assert sum(1 for _, call, _ in calls if call[2] == 3) == 2
    assert sum(call[4] for _, call, _ in calls) == 855478
    assert sum(out.count(1) for _, _, out in calls) == 614


# T m=3 n=2 b=3 (42 rows): the block of head row 2 holds candidates
# 1764..2583 of the sweep, and its hits are at block offsets 263 and 661
CUT_SPEC = (3, 2, 3, "T")
CUT_HEADS, CUT_TAILS, CUT_START, CUT_HITS = (2,), range(2, 42), 1764, [263, 661]


def test_hits_equal_the_oracle_when_the_enum_budget_cuts_a_block(monkeypatch):
    calls = record_kernel_calls(monkeypatch)
    with pytest.raises(BudgetExceeded):
        sweep(SearchSpec(*CUT_SPEC, enum_budget=CUT_START + 400))
    rows, call, hits = calls[-1]
    assert call[:2] == (CUT_HEADS, CUT_TAILS) and call[4] == 400
    assert assert_hits_match_the_oracle(rows, call, hits) == 1
    assert [k for k, _ in hits.hits] == CUT_HITS[:1]


def test_hits_equal_the_oracle_at_every_count_of_a_block():
    universe = row_universe(*CUT_SPEC[1:])
    kernel, _ = select_filter(*CUT_SPEC[:3], T_POINTS, universe)
    block = block_size(CUT_TAILS, len(universe))
    for count in range(block + 1):
        hits = _Hits()
        call = (CUT_HEADS, CUT_TAILS, 3, 2, count, T_POINTS)
        kernel(*call, hits)
        assert_hits_match_the_oracle(universe, call, hits)
        assert [k for k, _ in hits.hits] == [k for k in CUT_HITS if k < count]


# L m=4 n=1 b=4 (8 rows): the pair-table block of head row 0 holds the
# sweep's first 120 candidates
PAIR_SPEC = (4, 1, 4, "L")


def test_pair_table_hits_equal_the_oracle_at_every_count_of_a_block():
    universe = row_universe(*PAIR_SPEC[1:])
    size = len(universe)
    points = sample_points(PAIR_SPEC[3])
    kernel, _ = select_filter(*PAIR_SPEC[:3], points, universe)
    survivors = 0
    for heads, tails in [((0,), range(size)), ((2,), range(2, size)), ((0,), range(3, 5))]:
        block = block_size(tails, size, 3)
        assert len(block_rows(universe, heads, tails, 4)) == block
        for count in range(block + 1):
            hits = _Hits()
            call = (heads, tails, 4, 1, count, points)
            kernel(*call, hits)
            found = assert_hits_match_the_oracle(universe, call, hits)
        survivors += found  # at the last count, the whole block's
    assert survivors > 0


def test_hits_agree_with_the_oracle_on_zero_residues_and_targets(monkeypatch):
    # modulo the safe prime 23 some L rows of n = 2, b = 3 have residue 0;
    # every m = 2 block, and an m = 3 block whose head has residue 0, has
    # target 0, and a survivor whose last row has residue 0 was found by
    # looking up the partner residue 0; the survivors are exactly the
    # candidates whose residues sum to 0 modulo 23
    monkeypatch.setattr(prefilter, "_PRIME", 23)
    universe = row_universe(2, 3, "L")
    size = len(universe)
    points = sample_points("L")
    zero_targets = zero_partners = 0
    for m in (2, 3):
        kernel, _ = select_filter(m, 2, 3, points, universe)
        residues = prefilter._row_residues(universe, 2, points)
        assert 0 in residues
        if m == 2:
            blocks = [((), range(i, i + 1)) for i in range(size)]
        else:
            blocks = [((h,), range(j, size)) for h in range(size) for j in (0, h)]
        for heads, tails in blocks:
            count = block_size(tails, size)
            hits = _Hits()
            call = (heads, tails, m, 2, count, points)
            kernel(*call, hits)
            candidates = block_rows(universe, heads, tails, m)
            offsets = residue_offsets(residues, heads, tails, m, count, 23)
            assert hits.hits == [(k, candidates[k]) for k in offsets]
            if hits.hits and sum(residues[h] for h in heads) % 23 == 0:
                zero_targets += 1
            zero_partners += sum(residues[universe.index(rows[-1])] == 0 for _, rows in hits.hits)
    assert zero_targets > 0 and zero_partners > 0


def test_sweeps_and_the_triple_search_pass_no_byte_mask(monkeypatch):
    calls = record_kernel_calls(monkeypatch)
    sweep(SearchSpec(3, 2, 3, "T"))
    sweep(SearchSpec(2, 2, 3, "L"), shards=2)
    search.triple_identity_search(2, 4)
    assert calls
    assert {type(out) for _, _, out in calls} == {_Hits}


def test_hits_keep_offsets_and_rows_and_count_the_survivors():
    hits = _Hits()
    for k, rows in ((1, ("a", "b")), (4, ("c", "d"))):
        hits[k] = rows
    assert hits.hits == [(1, ("a", "b")), (4, ("c", "d"))]
    assert [hits.count(b) for b in (1, 2, True)] == [2, 0, 2]


NOT_CANCELLING = [
    [((2, 1), 1), ((1, 2), -1)],  # the same multiset in another order
    [((2, 1), 1), ((2, 1), 1)],
    [((2, 1), 1), ((2, 1), -1), ((1, 1), 1)],
]


@pytest.mark.parametrize("rows", NOT_CANCELLING)
def test_matches_constant_evaluates_rows_that_do_not_cancel_as_given(monkeypatch, rows):
    evaluated = []
    point_value = stream_oracle.point_value
    monkeypatch.setattr(stream_oracle, "point_value",
                        lambda *args: evaluated.append(args) or point_value(*args))
    want = all(function_value(rows, z, x, y) == forced_constant(rows, x, y)
               for z, x, y in T_POINTS)
    assert matches_constant(rows, T_POINTS) == want
    assert evaluated
