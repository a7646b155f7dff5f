"""Sweeps and the triple search on the residue join against the candidate
stream they replaced (``stream_oracle``): the same finds in the same order,
the same counts and the same budget outcome, budgets included."""

import functools
import math

import pytest

from rigidpow import prefilter, search
from rigidpow.prefilter import sample_points
from rigidpow.rigidity import is_l_rigid, is_rigid
from rigidpow.search import BudgetExceeded, SearchSpec, row_universe, sweep, triple_identity_search
from stream_oracle import chunk_mask, stream_candidates, stream_shard, stream_triples
from test_join_hits import record_kernel_calls

SPECS = [
    ("T", 1, 2, 3), ("T", 2, 2, 3), ("T", 2, 2, 4), ("T", 3, 2, 2), ("T", 3, 2, 3),
    ("T", 4, 1, 3), ("T", 5, 2, 2), ("T", 3, 1, 3), ("T", 3, 3, 2), ("T", 5, 1, 2),
    ("L", 1, 2, 4), ("L", 2, 1, 6), ("L", 2, 3, 3), ("L", 3, 2, 4), ("L", 4, 1, 4),
    ("L", 4, 2, 3), ("L", 5, 2, 3),
]
CHECK_BUDGETS = (1, 3, 5, SearchSpec(1, 1, 1).check_budget)


@functools.lru_cache(maxsize=None)
def shard_stream(mode, m, n, bound, shard_index, shard_count):
    universe = row_universe(n, bound, mode)
    candidates = list(stream_candidates(universe, m, shard_index, shard_count))
    return candidates, chunk_mask(candidates, sample_points(mode))


def sweep_outcome(spec, shards):
    try:
        report, exceeded = sweep(spec, shards=shards), False
    except BudgetExceeded as budget:
        report, exceeded = budget.report, True
    stats = report.stats
    finds = [(f.matrix.rows, f.constant) for f in report.found]
    return finds, stats.enumerated, stats.rejected, stats.exact_checks, exceeded


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("mode, m, n, bound", SPECS)
def test_sweep_on_the_join_matches_the_stream(monkeypatch, mode, m, n, bound, shards):
    # a cached verdict is the same verdict, and each find is decided once
    name = "is_rigid" if mode == "T" else "is_l_rigid"
    decide = functools.lru_cache(maxsize=None)(is_rigid if mode == "T" else is_l_rigid)
    monkeypatch.setattr(search, name, decide)
    size = len(row_universe(n, bound, mode))
    total = math.comb(size + m - 1, m)
    streams = [shard_stream(mode, m, n, bound, s, shards) for s in range(shards)]
    assert sum(len(candidates) for candidates, _ in streams) == total
    # no single row is constant, and no T candidate with odd m and odd n is
    # rigid, so only the other sweeps have survivors to spend budgets on,
    # and only they call the kernel
    counted = m == 1 or mode == "T" and m % 2 == n % 2 == 1
    assert any(any(mask) for _, mask in streams) == (not counted)
    calls = record_kernel_calls(monkeypatch)

    enum_budgets = sorted({b for b in (1, 50, 1023, 1024, 1025, total - 1, total) if b >= 1})
    for enum_budget in enum_budgets:
        for check_budget in CHECK_BUDGETS:
            spec = SearchSpec(m, n, bound, mode, enum_budget=enum_budget,
                              check_budget=check_budget)
            enum_cap = max(1, enum_budget // shards)
            check_cap = max(1, check_budget // shards)
            wants = []
            for s, (candidates, mask) in enumerate(streams):
                [got] = search._run_shards(spec, [s], shards, enum_cap, check_cap)
                want = stream_shard(candidates, mask, enum_cap, check_cap, decide)
                case = (enum_budget, check_budget, s)
                assert [(matrix.rows, c) for matrix, c in got.found] == want[0], case
                assert (got.enumerated, got.rejected, got.exact_checks, got.exceeded) \
                    == want[1:], case
                wants.append(want)
            finds = sorted(pair for want in wants for pair in want[0])
            counts = [sum(want[i] for want in wants) for i in (1, 2, 3)]
            exceeded = any(want[4] for want in wants)
            assert sweep_outcome(spec, shards) == (finds, *counts, exceeded)

    report = sweep(SearchSpec(m, n, bound, mode), shards=shards)
    assert report.stats.enumerated == total
    assert bool(calls) == (not counted)


@pytest.mark.parametrize("n, bound", [(1, 5), (2, 4), (3, 4), (2, 6)])
def test_triple_search_on_the_join_matches_the_stream(n, bound):
    assert triple_identity_search(n, bound) == stream_triples(n, bound)


def test_triple_search_builds_its_hits_without_the_matrix_checks(monkeypatch):
    # each kernel hit holds rows of the search's own list, so it is built
    # unchecked, as sweep survivors are
    want = {args: stream_triples(*args) for args in [(2, 4), (3, 6), (4, 4)]}

    def refuse(rows):
        raise AssertionError("a kernel hit was built with the checks")

    monkeypatch.setattr(search, "WeightMatrix", refuse)
    assert {args: triple_identity_search(*args) for args in want} == want


def test_residue_collisions_reach_the_verdict_and_die_there(monkeypatch):
    # modulo the safe prime 23 residues collide, and the kernel hands every
    # collision over as a survivor; each costs one exact check and is
    # rejected there, so the finds, the budget outcome and the enumerated
    # counts are those at the real prime.  An m = 4 sweep runs whole, on
    # the pair table, and one candidate short, on blocks of two free rows.
    checks = []

    def counting(decide):
        return lambda matrix: checks.append(matrix) or decide(matrix)

    monkeypatch.setattr(search, "is_rigid", counting(is_rigid))
    monkeypatch.setattr(search, "is_l_rigid", counting(is_l_rigid))

    def outcomes():
        runs = []
        for mode, m, n, bound in [("T", 2, 2, 4), ("L", 2, 3, 3), ("T", 3, 2, 3),
                                  ("L", 3, 2, 4), ("T", 4, 1, 3), ("L", 4, 2, 3)]:
            total = math.comb(len(row_universe(n, bound, mode)) + m - 1, m)
            for enum_budget in (total, total - 1)[:1 + (m >= 4)]:
                spec = SearchSpec(m, n, bound, mode, enum_budget=enum_budget)
                runs.append(sweep_outcome(spec, 1))
        checks.clear()  # count the triple search's checks only
        return runs, triple_identity_search(2, 6), len(checks)

    real_runs, real_triples, real_checks = outcomes()
    monkeypatch.setattr(prefilter, "_PRIME", 23)
    small_runs, small_triples, small_checks = outcomes()
    assert small_triples == real_triples and len(real_triples) == 9
    assert small_checks > real_checks
    for (finds, enumerated, _, exact_checks, exceeded), small in zip(real_runs, small_runs):
        assert finds and exact_checks == len(finds)
        assert (small[0], small[1], small[4]) == (finds, enumerated, exceeded)
        assert small[3] >= exact_checks
    assert any(small[3] > len(small[0]) for small in small_runs)


@pytest.mark.parametrize("mode, m, n, bound", [
    ("T", 3, 2, 2), ("T", 4, 1, 2), ("L", 3, 2, 3), ("L", 4, 1, 4),
])
def test_every_enum_budget_cuts_like_the_stream(monkeypatch, mode, m, n, bound):
    # every cut of the walk, mid-row, at a row end and at a block end: the
    # survivor offsets of a cut block map back to the stream's candidates
    name = "is_rigid" if mode == "T" else "is_l_rigid"
    decide = functools.lru_cache(maxsize=None)(is_rigid if mode == "T" else is_l_rigid)
    monkeypatch.setattr(search, name, decide)
    total = math.comb(len(row_universe(n, bound, mode)) + m - 1, m)
    for shards in (1, 2):
        streams = [shard_stream(mode, m, n, bound, s, shards) for s in range(shards)]
        assert any(streams[0][1])
        for check_budget in (1, SearchSpec(1, 1, 1).check_budget):
            check_cap = max(1, check_budget // shards)
            for enum_budget in range(1, total + 1):
                spec = SearchSpec(m, n, bound, mode, enum_budget=enum_budget,
                                  check_budget=check_budget)
                enum_cap = max(1, enum_budget // shards)
                got = search._run_shards(spec, range(shards), shards, enum_cap, check_cap)
                for s, (candidates, mask) in enumerate(streams):
                    want = stream_shard(candidates, mask, enum_cap, check_cap, decide)
                    result = got[s]
                    case = (shards, check_budget, enum_budget, s)
                    assert [(matrix.rows, c) for matrix, c in result.found] == want[0], case
                    assert (result.enumerated, result.rejected, result.exact_checks,
                            result.exceeded) == want[1:], case


def test_no_kernel_mask_outgrows_the_enum_budget(monkeypatch):
    # T m=3 n=4 b=8 has 7752 rows, so its first block holds about 3e7
    # candidates; each call's count must fit in what is left of the enum
    # budget
    counts = []
    select_filter = search.select_filter

    def recording_select_filter(*args):
        kernel, name = select_filter(*args)

        def recording_kernel(heads, tails, m, n, count, points, out):
            counts.append(count)
            kernel(heads, tails, m, n, count, points, out)

        return recording_kernel, name

    monkeypatch.setattr(search, "select_filter", recording_select_filter)
    spec = SearchSpec(3, 4, 8, "T", enum_budget=5000)
    assert len(row_universe(spec.n, spec.bound, spec.mode)) == 7752
    with pytest.raises(BudgetExceeded) as budget:
        sweep(spec)
    assert budget.value.report.stats.enumerated == 5000
    assert counts == [5000]


@pytest.mark.parametrize("mode, m, n, bound", [("T", 3, 2, 2), ("L", 3, 2, 3), ("T", 4, 1, 3),
                                            ("L", 4, 2, 3)])
def test_only_a_walk_its_budget_cannot_cut_uses_the_pair_table(monkeypatch, mode, m, n, bound):
    # an enum budget of total candidates leaves the walk whole, read from a
    # table: for m = 3 one tetrahedron, from the table of zero-sum triples,
    # and for m = 4 one pair-table block per first row; one less cuts it,
    # and every block keeps m - 2 heads, the last one left out; both match
    # the stream
    name = "is_rigid" if mode == "T" else "is_l_rigid"
    decide = functools.lru_cache(maxsize=None)(is_rigid if mode == "T" else is_l_rigid)
    monkeypatch.setattr(search, name, decide)
    calls = record_kernel_calls(monkeypatch)
    size = len(row_universe(n, bound, mode))
    total = math.comb(size + m - 1, m)
    candidates, mask = shard_stream(mode, m, n, bound, 0, 1)
    for enum_budget, want_heads, blocks in (
            (total, m - 3, math.comb(size + m - 4, m - 3)),
            (total - 1, m - 2, math.comb(size + m - 3, m - 2) - 1)):
        calls.clear()
        spec = SearchSpec(m, n, bound, mode, enum_budget=enum_budget)
        [got] = search._run_shards(spec, [0], 1, enum_budget, spec.check_budget)
        want = stream_shard(candidates, mask, enum_budget, spec.check_budget, decide)
        assert [(matrix.rows, c) for matrix, c in got.found] == want[0]
        assert (got.enumerated, got.rejected, got.exact_checks, got.exceeded) == want[1:]
        assert [len(args[0]) for _, args, _ in calls] == [want_heads] * blocks


@pytest.mark.parametrize("mode, n, bound", [("T", 2, 3), ("L", 2, 4)])
def test_a_sharded_three_row_walk_makes_one_call_per_first_row(monkeypatch, mode, n, bound):
    # each shard's uncut walk is a tetrahedron cut to one first row per
    # call, and the finds are those of the one-call walk
    calls = record_kernel_calls(monkeypatch)
    whole = sweep(SearchSpec(3, n, bound, mode))
    assert [call[:2] for _, call, _ in calls] == [((), range(len(calls[0][0])))]
    calls.clear()
    sharded = sweep(SearchSpec(3, n, bound, mode), shards=3)
    size = len(row_universe(n, bound, mode))
    assert sorted(call[1].start for _, call, _ in calls) == list(range(size))
    assert all(call[0] == () and len(call[1]) == 1 for _, call, _ in calls)
    assert sharded.found == whole.found and whole.found
    assert sharded.stats[:3] == whole.stats[:3]


def test_a_capped_four_row_sweep_makes_no_pair_table_call(monkeypatch):
    # the default enum budget cuts T m=4 n=4 b=6 (2730 rows), whose pair
    # table would hold 3727815 entries to decide 10^7 candidates
    calls = record_kernel_calls(monkeypatch)
    spec = SearchSpec(4, 4, 6, "T")
    assert len(row_universe(spec.n, spec.bound, spec.mode)) == 2730
    with pytest.raises(BudgetExceeded) as budget:
        sweep(spec)
    assert budget.value.report.stats.enumerated == spec.enum_budget
    assert calls and {len(args[0]) for _, args, _ in calls} == {2}
    # with three shards each shard walk is cut too
    calls.clear()
    with pytest.raises(BudgetExceeded):
        sweep(spec, shards=3)
    assert calls and {len(args[0]) for _, args, _ in calls} == {2}
