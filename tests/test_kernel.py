"""The pre-filter kernel against its exact oracles (``stream_oracle``), one
test per property, each over every block shape in both modes:

1. at the real prime, a call hands over exactly the candidates, among the
   block's first ``count``, that ``matches_constant`` accepts;
2. at a small prime, exactly those whose row residues sum to 0, residue
   collisions included;
3. every call the sweeps and the triple search make keeps the kernel's
   calling convention;
4. sweeps and the triple search on the kernel give what the candidate
   stream gave, budgets included.

The shapes are the kernel's blocks: two free rows with no heads (m = 2)
and with heads (the m = 3, 4 and 5 walks that an enum budget cuts), the
pair table (three free rows, m = 4 and 5), the tetrahedron (three free
rows at m = 3), whole and one first row per call, and the triple block.
"""

import functools
import math
import random
from itertools import combinations_with_replacement

import pytest

from rigidpow import prefilter, search
from rigidpow.prefilter import block_size, sample_points, select_filter
from rigidpow.rigidity import is_l_rigid, is_rigid, quasilinear
from rigidpow.search import (
    BudgetExceeded,
    SearchSpec,
    _blocks,
    _Hits,
    canonical_form,
    row_universe,
    sweep,
    triple_identity_search,
)
from stream_oracle import (
    block_candidates,
    block_rows,
    call,
    exact_hits,
    matches_constant,
    record_kernel_calls,
    residue_offsets,
    stream_candidates,
    stream_shard,
    stream_triples,
)

SHAPES = ["two free", "heads", "pair table", "tetrahedron", "tetrahedron rows", "triple"]
CASES = [pytest.param(shape, mode, id=f"{shape}-{mode}") for shape in SHAPES for mode in "TL"]
EVERY = None  # every count from 0 to the block's size


def walk(mode, m, n, bound, free, shards=1):
    """A sweep's walk in blocks of ``free`` free rows, every shard's, as
    ``(rows, m, n, blocks)`` over the row universe."""
    rows = row_universe(n, bound, mode)
    return rows, m, n, [block for s in range(shards)
                        for block in _blocks(m, len(rows), s, shards, free)]


def on(mode, m, n, bound, blocks):
    """Given blocks over the row universe, as ``walk`` gives them."""
    return row_universe(n, bound, mode), m, n, blocks


def twin_rows(n, bound):
    """The triple search's row list: each weight list signed -1, then +1."""
    return [(v, sign) for v in combinations_with_replacement(range(1, bound + 1), n)
            for sign in (-1, 1)]


@functools.lru_cache(maxsize=None)
def grid():
    """Blocks over row lists that are not a universe: for m = 2-4, n = 1-4
    and b = 1-8, unsorted rows of both signs, with candidates built to
    pass (rows that cancel in pairs) and rows repeated across candidates.
    Each candidate gives a block that holds it, with ``free`` free rows
    from the smallest of its last ``free`` rows on; by shape."""
    rng = random.Random(4)
    blocks = {shape: [] for shape in SHAPES[:3]}
    for m in range(2, 5):
        for n in range(1, 5):
            for bound in range(1, 9):
                values = [v for v in range(-bound, bound + 1) if v]
                pool = [(tuple(rng.choice(values) for _ in range(n)), rng.choice((1, -1)))
                        for _ in range(3 * m)]
                candidates = []
                for _ in range(6):
                    candidate = [rng.choice(pool) for _ in range(m)]
                    candidates.append(candidate)
                    for i in range(0, m - 1, 2):
                        ws, s = candidate[i]
                        candidate = candidate[:i + 1] + [(ws[::-1], -s)] + candidate[i + 2:]
                    candidates.append(candidate)
                rows = sorted({row for candidate in candidates for row in candidate})
                index = {row: i for i, row in enumerate(rows)}
                for free in [2] + [3] * (m >= 4):
                    shape = SHAPES[0] if m == 2 else SHAPES[1 + (free == 3)]
                    blocks[shape].append((rows, m, n, [
                        (tuple(index[row] for row in candidate[:m - free]),
                         range(min(index[row] for row in candidate[m - free:]), len(rows)))
                        for candidate in candidates]))
    return blocks


def cases(shape, mode):
    """The blocks of one shape, ``(rows, m, n, blocks)``: small ones, which
    property 1 cuts at every count and property 2 at a few, and walks that
    property 1 cuts at their first and last survivors, each with more
    counts to cut at.  Modulo 23 some rows of T n=3 b=2 and of L n=2 b=3
    have residue 0, as their twins do; no T candidate with odd m and odd n
    survives, so the blocks of three free rows take T n=2 b=2."""
    n, bound = (2, 3) if mode == "L" else (3, 2) if shape in SHAPES[:3] else (2, 2)
    size = len(row_universe(n, bound, mode))
    whole, cuts = [], []
    if shape == "two free":
        small = [walk(mode, 2, n, bound, 2), walk(mode, 2, n, bound, 2, 3),
                 on(mode, 2, n, bound, [((), range(3, 8))])]
        # b = 130 passes w = 61 and 122: modulo the Mersenne prime 2^61 - 1,
        # z = 2 has order 61, so z^w - 1 would have no inverse
        whole = {"T": [(2, 1, 5), (2, 2, 3), (2, 2, 4), (2, 1, 130)], "L": [(2, 3, 3)]}[mode]
        whole = [walk(mode, m, n_, b, 2) for m, n_, b in whole]
    elif shape == "heads":
        small = [walk(mode, 3, n, bound, 2), walk(mode, 4, 1, 4, 2),
                 on(mode, 3, n, bound, [((1,), range(3, 8))])]
        whole = {"T": [(3, 2, 2), (4, 2, 2), (5, 2, 2)], "L": [(5, 2, 3)]}[mode]
        whole = [walk(mode, m, n_, b, 2) for m, n_, b in whole]
        if mode == "L":  # heads past the first tail as well
            small.append(on("L", 3, 2, 3, [((h,), range(j, size)) for h in range(size)
                                            for j in (0, h)]))
        else:
            # T m=3 n=2 b=3: the block of head row 2 holds the sweep's
            # candidates 1764..2583, with hits at offsets 263 and 661
            small.append(on("T", 3, 2, 3, [((2,), range(2, 42))]))
            # a 180300-candidate block, cut around 2^16; its head is a row
            # of the rigid difference matrix of seed (0, 1, 2)
            universe = row_universe(2, 12, "T")
            head = universe.index(canonical_form(quasilinear((0, 1, 2))).rows[0])
            cuts = [(on("T", 3, 2, 12, [((head,), range(len(universe)))]),
                     (1 << 16, (1 << 16) + 1))]
    elif shape == "pair table":
        small = [walk(mode, 4, 1, 3 if mode == "T" else 4, 3),
                 on(mode, 4, 1, 4, [((0,), range(8)), ((2,), range(2, 8)), ((0,), range(3, 5))])]
        whole = {"T": [(4, 2, 2), (5, 2, 2)], "L": [(5, 2, 3), (4, 2, 3)]}[mode]
        whole = [walk(mode, m, n_, b, 3) for m, n_, b in whole]
    elif shape == "tetrahedron":
        small = [on(mode, 3, n, bound, [((), range(size)), ((), range(5, size)),
                                        ((), range(0, 4)), ((), range(3, 8))])]
        whole = [walk(mode, 3, 2, b, 3) for b in ((2, 3) if mode == "T" else (4,))]
    elif shape == "tetrahedron rows":
        small = [walk(mode, 3, n, bound, 3, 3)]
    else:
        # L: 10 weight lists, each a minus row and then a plus row; the
        # block of the plus rows holds 55 pairs times 10 minus rows
        rows = row_universe(2, 2, "T") if mode == "T" else twin_rows(2, 4)
        tails = [range(1, len(rows), 2), range(7, len(rows), 2), range(1, 8, 2)]
        small = [(rows, 3, n, [((), plus) for plus in tails])]
        if mode == "L":  # the triple search's whole blocks
            whole = [(rows, 3, n, [((), range(1, len(rows), 2))])
                     for n, rows in ((3, twin_rows(3, 4)), (2, twin_rows(2, 6)))]
    whole += grid().get(shape, [])
    return small, [(case, ()) for case in whole] + cuts


@pytest.mark.parametrize("shape, mode", CASES)
def test_hits_are_the_exact_survivors_at_every_count(shape, mode):
    points = sample_points(mode)
    survivors = candidates = 0
    small, whole = cases(shape, mode)
    for (rows, m, n, blocks), counts in [(case, EVERY) for case in small] + whole:
        kernel, _ = select_filter(m, n, 0, points, rows)
        for heads, tails in blocks:
            size = len(block_candidates(heads, tails, m, len(rows)))
            want = exact_hits(rows, heads, tails, m, size, points)
            cuts = range(size + 1) if counts is EVERY else {
                size, *counts, *(k + i for k, _ in want[:1] + want[-1:] for i in (0, 1))}
            for count in cuts:
                hits = call(kernel, heads, tails, m, n, count, points)
                assert hits.hits == [hit for hit in want if hit[0] < count], (heads, tails, count)
                assert hits.count(1) == len(hits.hits)
            survivors, candidates = survivors + len(want), candidates + size
    assert 0 < survivors < candidates


SMALL_PRIME = 23  # safe: 23 = 2 * 11 + 1


@pytest.mark.parametrize("shape, mode", CASES)
def test_hits_are_every_zero_residue_sum_at_a_small_prime(monkeypatch, shape, mode):
    # modulo 23 about one candidate in 23 collides: the hits are exactly
    # the candidates whose residues sum to 0, the exact survivors and every
    # collision, at every cut
    monkeypatch.setattr(prefilter, "_PRIME", SMALL_PRIME)
    points = sample_points(mode)
    collisions = cut = zero_targets = zero_partners = outside = 0
    for rows, m, n, blocks in cases(shape, mode)[0]:
        kernel, _ = select_filter(m, n, 0, points, rows)
        residues = prefilter._row_residues(rows, n, points)
        residue = dict(zip(rows, residues))
        for heads, tails in blocks:
            candidates = block_rows(rows, heads, tails, m)
            size = len(candidates)
            found = []
            for count in sorted({size, size // 2, 1, 0}, reverse=True):
                hits = call(kernel, heads, tails, m, n, count, points)
                offsets = residue_offsets(residues, heads, tails, m, count, SMALL_PRIME)
                assert hits.hits == [(k, candidates[k]) for k in offsets], (heads, tails, count)
                found.append(hits.hits)
            exact = exact_hits(rows, heads, tails, m, size, points)
            assert all(hit in found[0] for hit in exact)
            collisions += len(found[0]) - len(exact)
            cut += len(found[0]) > len(found[1])
            if found[0] and sum(map(residues.__getitem__, heads)) % SMALL_PRIME == 0:
                zero_targets += 1
            zero_partners += sum(residue[found_rows[-1]] == 0 for _, found_rows in found[0])
            if shape == "tetrahedron" and tails == range(len(rows)):
                # every sign pattern, each found directly or as a twin
                signs = {tuple(sorted(sign for _, sign in found_rows))
                         for _, found_rows in found[0]}
                assert signs == {(-1, -1, -1), (-1, -1, 1), (-1, 1, 1), (1, 1, 1)}
            if shape == "triple":
                # pairs of plus rows with partners among the plus rows, which
                # the block leaves out
                outside += sum(sum(map(residues.__getitem__, (j, k, p))) % SMALL_PRIME == 0
                               for j in tails for k in range(j, tails.stop, 2) for p in tails)
    assert collisions > 0 and cut > 0 and (outside > 0) == (shape == "triple")
    if shape in ("two free", "heads"):
        # a target of 0 (no heads, or heads whose residues sum to 0) and a
        # hit found by looking up the partner residue 0
        assert zero_targets > 0 and zero_partners > 0


# Each case runs sweeps, ``(mode, m, n, bound, shards, enum_budget)``, or
# triple searches, ``(n, bound)``, and pins what its calls add up to: the
# number of calls and of head-less m = 3 calls, the candidates, the
# survivors, each call's number of heads, the numbers of free rows, the
# sorted blocks ``(heads, tails.start, tails.stop)``, and the last call's
# heads, tails, count and hit offsets.
CONVENTION = [
    ("two free", [("T", 2, 2, 3, 1, None), ("T", 2, 1, 6, 3, None), ("T", 2, 2, 2, 2, 7),
                  ("L", 2, 3, 2, 1, None)], {}),
    ("heads", [("T", 4, 1, 3, 1, 100), ("L", 3, 2, 3, 1, 50)], {}),
    ("heads-T cut", [("T", 3, 2, 3, 1, 1764 + 400)], {"last": ((2,), range(2, 42), 400, [263])}),
    # T m=3 n=4 b=8 has 7752 rows, so its first block holds about 3e7
    # candidates; each call's count must fit in what is left of the budget
    ("heads-T 5000", [("T", 3, 4, 8, 1, 5000)], {"calls": 1, "candidates": 5000}),
    # the default enum budget cuts T m=4 n=4 b=6 (2730 rows), whose pair
    # table would hold 3727815 entries to decide 10^7 candidates, and so
    # it cuts each of three shards
    ("heads-T capped", [("T", 4, 4, 6, 1, None), ("T", 4, 4, 6, 3, None)],
     {"free": {2}, "candidates": 10**7 + 3 * (10**7 // 3)}),
    ("pair table", [("T", 4, 1, 3, 1, None), ("T", 5, 2, 2, 1, None), ("L", 4, 2, 2, 2, None),
                    ("L", 5, 1, 3, 3, 1000)], {}),
    # an enum budget of all the candidates leaves a walk whole, read from a
    # table: for m = 3 one tetrahedron and for m = 4 one pair-table block
    # per first row; one less cuts it, and every block keeps m - 2 heads
    ("tables only for an uncut walk",
     [("T", 3, 2, 2, 1, None), ("T", 3, 2, 2, 1, 1540), ("T", 3, 2, 2, 1, 1539),
      ("L", 3, 2, 3, 1, 364), ("L", 3, 2, 3, 1, 363), ("T", 4, 1, 3, 1, 1365),
      ("T", 4, 1, 3, 1, 1364), ("L", 4, 2, 3, 1, 1365), ("L", 4, 2, 3, 1, 1364)],
     {"heads": [0, 0] + [1] * 19 + [0] + [1] * 11 + ([1] * 12 + [2] * 77) * 2}),
    ("tetrahedron rows-T", [("T", 3, 2, 3, 3, None)],
     {"blocks": [((), i, i + 1) for i in range(42)]}),
    ("tetrahedron rows-L", [("L", 3, 1, 5, 2, None), ("L", 3, 2, 4, 3, None)],
     {"blocks": sorted(((), i, i + 1) for i in [*range(10), *range(20)])}),
    ("triple-L", [(1, 5), (2, 4), (3, 3), (2, 6), (3, 4)], {}),
    # the benchmark's workloads: each m = 3 sweep is one call, and the m = 2
    # and m = 4 sweeps make one per first row
    ("benchmark sweep", [("L", 2, 1, 6, 1, None), ("L", 4, 1, 6, 1, None),
                         ("T", 2, 1, 5, 1, None), ("T", 2, 2, 5, 1, None),
                         ("T", 2, 3, 5, 1, None), ("L", 3, 2, 8, 1, None),
                         ("T", 3, 2, 6, 1, None), ("L", 4, 2, 5, 1, None)],
     {"calls": 48, "tetrahedra": 2, "candidates": 855478, "survivors": 614}),
    ("benchmark triple", [(4, 5), (3, 6)], {"calls": 2, "candidates": 263326, "survivors": 7}),
    ("benchmark triple tiny", [(2, 4)], {"calls": 1, "candidates": 550, "survivors": 4}),
]


@pytest.mark.parametrize("runs, want", [pytest.param(*case[1:], id=case[0])
                                        for case in CONVENTION])
def test_every_kernel_call_keeps_the_calling_convention(monkeypatch, runs, want):
    # the kernel checks no call: every call a sweep makes, whole, sharded
    # or cut by its enum budget, is a nonempty block of its own universe
    # with m - 2 heads, or m - 3 for m >= 3, ascending heads no later than
    # a consecutive range of tails, and 1 <= count <= the block's size, and
    # the calls decide each enumerated candidate once; the triple search's
    # one call is the triple block of its plus rows, the odd rows of its
    # list, times its minus rows; every mask is a _Hits
    calls = record_kernel_calls(monkeypatch)
    for run in runs:
        made = len(calls)
        if len(run) == 2:
            n, bound = run
            triple_identity_search(n, bound)
            [(rows, (heads, tails, m, n_, count, points), out)] = calls[made:]
            plus = len(rows) // 2
            assert [sign for _, sign in rows] == [-1, 1] * plus
            assert (heads, tails, m, n_, points) == ((), range(1, 2 * plus, 2), 3, n,
                                                    sample_points("L"))
            assert count == block_size(range(plus), plus) * plus == len(
                block_rows(rows, heads, tails, m)) > 0
            continue
        mode, m, n, bound, shards, enum_budget = run
        budget = {} if enum_budget is None else {"enum_budget": enum_budget}
        spec = SearchSpec(m, n, bound, mode, **budget)
        try:
            stats, raised = sweep(spec, shards=shards).stats, False
        except BudgetExceeded as exceeded:
            stats, raised = exceeded.report.stats, True
        universe = row_universe(n, bound, mode)
        size = len(universe)
        assert raised == (stats.enumerated < math.comb(size + m - 1, m))
        assert len(calls) > made
        for rows, (heads, tails, m_, n_, count, points), out in calls[made:]:
            assert rows == universe and (m_, n_, points) == (m, n, sample_points(mode))
            free = m - len(heads)
            assert free in ((2, 3) if m >= 3 else (2,))
            assert list(heads) == sorted(heads) and all(0 <= h < size for h in heads)
            assert type(tails) is range and tails.step == 1 and 0 <= tails.start < tails.stop <= size
            assert not heads or heads[-1] <= tails.start
            assert 1 <= count <= block_size(tails, size, free)
        assert sum(call[4] for _, call, _ in calls[made:]) == stats.enumerated
    assert {type(out) for _, _, out in calls} == {_Hits}
    got = {
        "calls": len(calls),
        "tetrahedra": sum(call[2] == 3 and not call[0] for _, call, _ in calls),
        "candidates": sum(call[4] for _, call, _ in calls),
        "survivors": sum(out.count(1) for _, _, out in calls),
        "heads": [len(call[0]) for _, call, _ in calls],
        "free": {call[2] - len(call[0]) for _, call, _ in calls},
        "blocks": sorted((call[0], call[1].start, call[1].stop) for _, call, _ in calls),
        "last": calls[-1][1][:2] + (calls[-1][1][4], [k for k, _ in calls[-1][2].hits]),
    }
    assert {key: got[key] for key in want} == want


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
    points = sample_points(mode)
    return candidates, [matches_constant(rows, points) for rows in candidates]


def cached_verdicts(monkeypatch, mode):
    # a cached verdict is the same verdict, and each find is decided once
    decide = functools.lru_cache(maxsize=None)(is_rigid if mode == "T" else is_l_rigid)
    monkeypatch.setattr(search, "is_rigid" if mode == "T" else "is_l_rigid", decide)
    return decide


def sweep_outcome(spec, shards):
    try:
        report, exceeded = sweep(spec, shards=shards), False
    except BudgetExceeded as budget:
        report, exceeded = budget.report, True
    stats = report.stats
    finds = [(f.matrix.rows, f.constant) for f in report.found]
    return finds, stats.enumerated, stats.rejected, stats.exact_checks, exceeded


def shard_outcome(result):
    """One shard's result as ``stream_shard`` gives it."""
    return ([(matrix.rows, c) for matrix, c in result.found], result.enumerated,
            result.rejected, result.exact_checks, result.exceeded)


@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("mode, m, n, bound", SPECS)
def test_sweep_on_the_join_matches_the_stream(monkeypatch, mode, m, n, bound, shards):
    decide = cached_verdicts(monkeypatch, mode)
    size = len(row_universe(n, bound, mode))
    total = math.comb(size + m - 1, m)
    streams = [shard_stream(mode, m, n, bound, s, shards) for s in range(shards)]
    assert sum(len(candidates) for candidates, _ in streams) == total
    # no single row is constant, and no T candidate with odd m and odd n is
    # rigid, so only the other sweeps have survivors to spend budgets on,
    # and only they call the kernel
    counted = m == 1 or mode == "T" and m % 2 == n % 2 == 1
    assert any(any(passed) for _, passed in streams) == (not counted)
    calls = record_kernel_calls(monkeypatch)

    enum_budgets = sorted({b for b in (1, 50, 1023, 1024, 1025, total - 1, total) if b >= 1})
    for enum_budget in enum_budgets:
        for check_budget in CHECK_BUDGETS:
            spec = SearchSpec(m, n, bound, mode, enum_budget=enum_budget,
                              check_budget=check_budget)
            enum_cap = max(1, enum_budget // shards)
            check_cap = max(1, check_budget // shards)
            wants = []
            for s, (candidates, passed) in enumerate(streams):
                [got] = search._run_shards(spec, [s], shards, enum_cap, check_cap)
                want = stream_shard(candidates, passed, enum_cap, check_cap, decide)
                assert shard_outcome(got) == want, (enum_budget, check_budget, s)
                wants.append(want)
            finds = sorted(pair for want in wants for pair in want[0])
            counts = [sum(want[i] for want in wants) for i in (1, 2, 3)]
            exceeded = any(want[4] for want in wants)
            assert sweep_outcome(spec, shards) == (finds, *counts, exceeded)

    report = sweep(SearchSpec(m, n, bound, mode), shards=shards)
    assert report.stats.enumerated == total
    assert bool(calls) == (not counted)


@pytest.mark.parametrize("check_budget", [1, SearchSpec(1, 1, 1).check_budget])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("mode, m, n, bound", [
    ("T", 3, 2, 2), ("T", 4, 1, 2), ("L", 3, 2, 3), ("L", 4, 1, 4),
])
def test_every_enum_budget_cuts_like_the_stream(monkeypatch, mode, m, n, bound, shards,
                                                check_budget):
    # every cut of the walk, mid-row, at a row end and at a block end: the
    # survivor offsets of a cut block map back to the stream's candidates
    decide = cached_verdicts(monkeypatch, mode)
    total = math.comb(len(row_universe(n, bound, mode)) + m - 1, m)
    streams = [shard_stream(mode, m, n, bound, s, shards) for s in range(shards)]
    assert any(streams[0][1])
    check_cap = max(1, check_budget // shards)
    for enum_budget in range(1, total + 1):
        spec = SearchSpec(m, n, bound, mode, enum_budget=enum_budget,
                          check_budget=check_budget)
        enum_cap = max(1, enum_budget // shards)
        got = search._run_shards(spec, range(shards), shards, enum_cap, check_cap)
        for s, (candidates, passed) in enumerate(streams):
            want = stream_shard(candidates, passed, enum_cap, check_cap, decide)
            assert shard_outcome(got[s]) == want, (enum_budget, s)


@pytest.mark.parametrize("n, bound", [(1, 5), (2, 4), (3, 4), (2, 6), (3, 6), (4, 4)])
def test_triple_search_on_the_join_matches_the_stream(monkeypatch, n, bound):
    # each kernel hit holds rows of the search's own list, so it is built
    # unchecked, as sweep survivors are
    def refuse(rows):
        raise AssertionError("a kernel hit was built with the checks")

    want = stream_triples(n, bound)
    monkeypatch.setattr(search, "WeightMatrix", refuse)
    assert triple_identity_search(n, bound) == want


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
    monkeypatch.setattr(prefilter, "_PRIME", SMALL_PRIME)
    small_runs, small_triples, small_checks = outcomes()
    assert small_triples == real_triples and len(real_triples) == 9
    assert small_checks > real_checks
    for (finds, enumerated, _, exact_checks, exceeded), small in zip(real_runs, small_runs):
        assert finds and exact_checks == len(finds)
        assert (small[0], small[1], small[4]) == (finds, enumerated, exceeded)
        assert small[3] >= exact_checks
    assert any(small[3] > len(small[0]) for small in small_runs)
