"""The hits-only kernel mask, ``search._Hits``, against the oracle, and
the cancellation certificate at the head of ``matches_constant``."""

import pytest

from rigidpow import prefilter, search
from rigidpow.prefilter import T_POINTS, block_size, matches_constant, sample_points, select_filter
from rigidpow.search import BudgetExceeded, SearchSpec, _Hits, row_universe, sweep
from exact_values import forced_constant, function_value
from stream_oracle import block_rows, chunk_mask


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
    assert (len(hits), hits.count(1), hits.count(0)) == (count, want.count(1), want.count(0))
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
    calls = record_kernel_calls(monkeypatch)
    assert len(search.triple_identity_search(n, bound)) == solutions
    assert len(calls) == len(row_universe(n, bound, "L")) // 2  # one block per minus row
    hits = sum(assert_hits_match_the_oracle(*call) for call in calls)
    assert hits >= solutions


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
        hits = _Hits(count)
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
            hits = _Hits(count)
            call = (heads, tails, 4, 1, count, points)
            kernel(*call, hits)
            found = assert_hits_match_the_oracle(universe, call, hits)
        survivors += found  # at the last count, the whole block's
    assert survivors > 0


def test_hits_agree_with_the_oracle_on_zero_residues_and_targets(monkeypatch):
    # modulo the safe prime 23 some L rows of n = 2, b = 3 have residue 0;
    # every m = 2 block, and an m = 3 block whose head has residue 0, has
    # target 0, and a survivor whose last row has residue 0 was found by
    # looking up the partner residue 0
    monkeypatch.setattr(prefilter, "_PRIME", 23)
    universe = row_universe(2, 3, "L")
    size = len(universe)
    points = sample_points("L")
    zero_targets = zero_partners = 0
    for m in (2, 3):
        kernel, _ = select_filter(m, 2, 3, points, universe)
        residues = kernel.residues
        assert 0 in residues
        if m == 2:
            blocks = [((), range(i, i + 1)) for i in range(size)]
        else:
            blocks = [((h,), range(j, size)) for h in range(size) for j in (0, h)]
        for heads, tails in blocks:
            hits = _Hits(block_size(tails, size))
            call = (heads, tails, m, 2, len(hits), points)
            kernel(*call, hits)
            assert_hits_match_the_oracle(universe, call, hits)
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
    assert all(len(out) == call[4] for _, call, out in calls)


def test_hits_keep_offsets_and_rows_and_count_the_survivors():
    hits = _Hits(6)
    for k, rows in ((1, ("a", "b")), (4, ("c", "d"))):
        hits[k] = rows
    assert hits.hits == [(1, ("a", "b")), (4, ("c", "d"))]
    assert [hits.count(b) for b in (0, 1, 2, True)] == [4, 2, 0, 2]
    assert len(hits) == 6


CANCELLING = [
    [((2, 1), 1), ((2, 1), -1)],
    [((3, -1), -1), ((1,) * 2, 1), ((3, -1), 1), ((1,) * 2, -1)],
    [([2, 2], 1), ((2, 2), -1), ((5, 1), 1), ((5, 1), -1)],
]
NOT_CANCELLING = [
    [((2, 1), 1), ((1, 2), -1)],  # the same multiset in another order
    [((2, 1), 1), ((2, 1), 1)],
    [((2, 1), 1), ((2, 1), -1), ((1, 1), 1)],
]


@pytest.mark.parametrize("rows", CANCELLING)
def test_matches_constant_certifies_cancelling_rows_without_a_point(monkeypatch, rows):
    def no_point(*args):
        raise AssertionError("a point was evaluated")

    for z, x, y in T_POINTS:
        assert function_value(rows, z, x, y) == forced_constant(rows, x, y) == 0
    monkeypatch.setattr(prefilter, "point_value", no_point)
    assert matches_constant(rows, T_POINTS)


@pytest.mark.parametrize("rows", NOT_CANCELLING)
def test_matches_constant_evaluates_rows_that_do_not_cancel_as_given(monkeypatch, rows):
    evaluated = []
    point_value = prefilter.point_value
    monkeypatch.setattr(prefilter, "point_value",
                        lambda *args: evaluated.append(args) or point_value(*args))
    want = all(function_value(rows, z, x, y) == forced_constant(rows, x, y)
               for z, x, y in T_POINTS)
    assert matches_constant(rows, T_POINTS) == want
    assert evaluated
