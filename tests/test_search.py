"""Canonical enumeration, sweeps against closed-form families, the
difference-matrix seed test, and the triple identity search."""

import concurrent.futures
import os
import pickle
import random
import time
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow import prefilter, search
from rigidpow.algebra import Form
from rigidpow.bott import ClassLabel
from rigidpow.prefilter import block_size, sample_points
from rigidpow.rigidity import (
    Row,
    WeightMatrix,
    is_l_rigid,
    is_rigid,
    point_value,
    quasilinear,
)
from rigidpow.search import (
    BudgetExceeded,
    Find,
    SearchReport,
    SearchSpec,
    SweepStats,
    WrongShape,
    canonical_form,
    quasilinearity_test,
    row_universe,
    sweep,
    triple_identity_search,
)
from matrix_helpers import signs_negated, wm
from stream_oracle import (
    block_candidates,
    chunk_mask,
    join_mask,
    matches_constant,
    stream_candidates,
)


# -- canonical forms ----------------------------------------------------------


def test_canonical_form_sorts_rows_and_columns():
    matrix = wm(([2, 1], 1), ([1, 1], 1))
    assert canonical_form(matrix) == wm(([1, 1], 1), ([2, 1], 1))


def test_canonical_form_l_mode_flips_signs():
    assert canonical_form(wm(([-3], 1)), "L") == wm(([3], -1))


def test_canonical_form_idempotent():
    rng = random.Random(9)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        matrix = wm(
            *(
                ([rng.choice([w for w in range(-4, 5) if w]) for _ in range(n)],
                 rng.choice((1, -1)))
                for _ in range(m)
            )
        )
        for mode in ("T", "L"):
            once = canonical_form(matrix, mode)
            assert canonical_form(once, mode) == once


def test_equal_canonical_forms_have_equal_series():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(1, 3)
        rows = [
            Row(tuple(rng.choice([w for w in range(-4, 5) if w]) for _ in range(n)),
                rng.choice((1, -1)))
            for _ in range(rng.randint(1, 3))
        ]
        matrix = WeightMatrix(tuple(rows))
        shuffled = list(rows)
        rng.shuffle(shuffled)
        permuted = WeightMatrix(
            tuple(Row(tuple(rng.sample(r.weights, n)), r.sign) for r in shuffled)
        )
        assert canonical_form(matrix) == canonical_form(permuted)


def test_row_universe_is_sorted_and_complete():
    universe = row_universe(2, 2, "L")
    assert universe == sorted(universe, key=lambda r: (r.weights, r.sign))
    assert len(universe) == 6  # 3 weight multisets x 2 signs
    universe_t = row_universe(1, 2, "T")
    assert len(universe_t) == 8  # 4 nonzero values x 2 signs


# -- the block walk --------------------------------------------------------------


def general_blocks(m, size, shard_index, shard_count, free):
    """The block walk in its general form, one combinations_with_replacement
    call per first row whenever there are heads: the reference for
    _blocks."""
    if m == free and shard_count == 1:
        yield (), range(size)
        return
    for i in range(shard_index, size, shard_count):
        if m == free:
            yield (), range(i, i + 1)
            continue
        for rest in combinations_with_replacement(range(i, size), m - free - 1):
            heads = (i, *rest)
            yield heads, range(heads[-1], size)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_blocks_match_the_general_walk(m):
    # min(m, 2) free rows, and three for a pair-table walk with m >= 4
    for free in [min(m, 2)] + [3] * (m >= 4):
        for size, shard_count in product((0, 1, 2, 5, 9), (1, 2, 3, 7)):
            for shard_index in range(shard_count):
                want = list(general_blocks(m, size, shard_index, shard_count, free))
                got = list(search._blocks(m, size, shard_index, shard_count, free))
                assert got == want
                # the blocks, one after another, are the shard's canonical
                # candidates, and block_size counts each block
                walked = []
                for heads, tails in got:
                    assert len(heads) == m - free
                    block = block_candidates(heads, tails, m, size)
                    assert len(block) == block_size(tails, size, free)
                    walked += block
                assert walked == [c for c in combinations_with_replacement(range(size), m)
                                  if c[0] % shard_count == shard_index]


def test_two_row_walk_is_linear_in_the_universe():
    # 31008 rows is the T n=5 b=8 universe; the general walk copies the
    # whole remaining range for every first row, about 10 s on a 2-vCPU VM.
    # Unsharded, the walk is one block; sharded, one block per shard row.
    assert list(search._blocks(2, 31008, 0, 1, 2)) == [((), range(31008))]
    started = time.perf_counter()
    blocks = sum(1 for _ in search._blocks(2, 31008, 1, 2, 2))
    assert blocks == 15504
    assert time.perf_counter() - started < 0.5


def test_three_row_walk_is_linear_in_the_universe():
    # the general walk's one combinations_with_replacement call per first
    # row copies the whole remaining range even for prefixes of length 0:
    # about 10 s for these 31008 rows on a 2-vCPU VM; a four-row pair-table
    # walk has the same one-head blocks
    for m, free in ((3, 2), (4, 3)):
        started = time.perf_counter()
        blocks = sum(1 for _ in search._blocks(m, 31008, 0, 1, free))
        assert blocks == 31008
        assert time.perf_counter() - started < 0.5


# -- sweeps against closed-form families ---------------------------------------


def l1_family(bound):
    """Antipodal single-weight pairs: rows (a), (-a) with equal signs."""
    return {
        canonical_form(wm(([a], e), ([-a], e)))
        for a in range(1, bound + 1)
        for e in (1, -1)
    }


def z_family(n, bound):
    """Identical rows with opposite signs, any nonzero weights."""
    values = [v for v in range(-bound, bound + 1) if v]
    return {
        canonical_form(wm((list(ws), 1), (list(ws), -1)))
        for ws in combinations_with_replacement(values, n)
    }


def s3_family(bound):
    """Rows (a, b, -(a+b)) and its negation with equal signs."""
    family = set()
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            if a + b > bound:
                continue
            for e in (1, -1):
                family.add(
                    canonical_form(wm(([a, b, -(a + b)], e), ([-a, -b, a + b], e)))
                )
    return family


def test_sweep_two_rows_single_column():
    report = sweep(SearchSpec(m=2, n=1, bound=3, mode="T"))
    got = {f.matrix for f in report.found}
    assert got == z_family(1, 3) | l1_family(3)
    assert all(f.label is not None and f.label.kind in ("Z", "L1") for f in report.found)
    assert report.stats.enumerated == 78  # C(13, 2) canonical pairs over 12 rows


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-40, 40).filter(bool), min_size=1, max_size=4),
       st.sampled_from((1, -1)), st.integers(2, 5), st.integers(1, 3), st.integers(1, 3))
def test_no_single_row_matches_its_constant(weights, sign, z, x, y):
    # each factor is larger in size than its constant factor, so m = 1
    # sweeps may reject every candidate without the kernel
    row = (tuple(weights), sign)
    assert matches_constant([row], [(z, x, y)]) is False
    top, bottom, constant = point_value([row], z, x, y)
    assert abs(top) > abs(constant * bottom)


@pytest.mark.parametrize("mode", ["T", "L"])
@pytest.mark.parametrize("n, bound", [(2, 5), (4, 3)])
def test_one_row_sweeps_reject_every_candidate(mode, n, bound):
    stats = sweep(SearchSpec(m=1, n=n, bound=bound, mode=mode), shards=2).stats
    assert stats.enumerated == len(row_universe(n, bound, mode))
    assert (stats.rejected, stats.exact_checks) == (stats.enumerated, 0)


@pytest.mark.parametrize("m, n, bound", [(2, 1, 4), (3, 2, 4), (2, 3, 3), (4, 3, 3), (4, 2, 3)])
def test_t_finds_sign_counts_are_symmetric(m, n, bound):
    # f(1/z; x, y) = (-1)^n f(z; y, x), so a rigid T matrix's constant
    # obeys c(x, y) = (-1)^n c(y, x): N_k = N_(n-k), with N_k the sum of
    # the signs of the rows with k negative weights.  Odd m at odd n skips
    # the kernel on this premise.  A zero constant has every N_k = 0, so
    # each spec has finds with a nonzero one.
    report = sweep(SearchSpec(m, n, bound, "T"))
    assert any(not f.constant.is_zero() for f in report.found)
    for f in report.found:
        counts = [0] * (n + 1)
        for weights, sign in f.matrix.rows:
            counts[sum(w < 0 for w in weights)] += sign
        assert counts == counts[::-1], f.matrix


@pytest.mark.parametrize("m, n, bound", [(2, 1, 6), (4, 1, 5), (2, 3, 3), (4, 3, 2)])
def test_l_finds_at_odd_n_have_constant_zero(m, n, bound):
    # at x = y = 1 the symmetry reads f(1/z) = (-1)^n f(z), so a constant
    # L function at odd n equals its own negation
    report = sweep(SearchSpec(m, n, bound, "L"))
    assert report.found and all(f.constant.is_zero() for f in report.found)


def test_sweep_found_is_sorted_and_unique():
    report = sweep(SearchSpec(m=2, n=2, bound=2, mode="T"))
    keys = [f.matrix.rows for f in report.found]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert {f.matrix for f in report.found} == z_family(2, 2)


def test_finds_and_verdicts_are_hashable():
    report = sweep(SearchSpec(m=3, n=2, bound=3, mode="L"))
    assert report.found and len(set(report.found)) == len(report.found)
    assert hash(is_rigid(quasilinear([0, 1, 2]))) == hash(is_rigid(quasilinear([0, 1, 2])))
    assert len({is_rigid(wm(([1], 1), ([2], -1)))}) == 1  # not rigid: carries a witness


def test_records_round_trip_through_pickle():
    # the pool pickles the spec out and brings back shard results holding
    # (WeightMatrix, Form) pairs
    matrix = quasilinear([0, 1, 2])
    verdict = is_rigid(matrix)
    not_rigid = is_rigid(wm(([1], 1), ([2], -1)))
    assert not_rigid.witness.point is not None
    find = Find(matrix, verdict.constant, ClassLabel("L1"), (0, 1, 2), True, False)
    stats = SweepStats(3, 2, 1, 0.5)
    spec = SearchSpec(m=3, n=2, bound=4, mode="L", check_budget=7)
    report = SearchReport(spec, (find,), stats)
    for record in (matrix, verdict, not_rigid, not_rigid.witness, ClassLabel("S3"),
                   ClassLabel("unclassified", "not rigid"), find, stats):
        copy = pickle.loads(pickle.dumps(record))
        assert (copy, type(copy)) == (record, type(record))
    assert vars(pickle.loads(pickle.dumps(spec))) == vars(spec)
    copy = pickle.loads(pickle.dumps(report))
    assert (copy.found, copy.stats, vars(copy.spec)) == (report.found, stats, vars(spec))
    result = search._ShardResult()
    result.found.append((matrix, verdict.constant))
    result.enumerated, result.rejected, result.exact_checks, result.exceeded = 9, 8, 1, True
    assert vars(pickle.loads(pickle.dumps(result))) == vars(result)


def test_matrices_and_verdicts_compare_and_hash_by_value():
    a, b = quasilinear([0, 1, 2]), wm(([-1, -2], 1), ([1, -1], 1), ([2, 1], 1))
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != wm(([1, -1], 1), ([-1, -2], 1), ([2, 1], 1)) and a != a.rows
    assert is_rigid(a) == is_rigid(b) and hash(is_rigid(a)) == hash(is_rigid(b))
    assert is_rigid(a) != is_rigid(wm(([1], 1), ([2], -1)))


def test_matrices_specs_and_records_refuse_assignment():
    matrix = quasilinear([0, 1, 2])
    verdict = is_rigid(wm(([1], 1), ([2], -1)))
    stats = SweepStats(3, 2, 1, 0.5)
    spec = SearchSpec(m=2, n=1, bound=3)
    find = Find(matrix, is_rigid(matrix).constant, None, None, True, True)
    cases = [(matrix, "rows"), (verdict, "rigid"), (verdict.witness, "point"),
             (ClassLabel("Z"), "kind"), (stats, "enumerated"), (find, "pairable"),
             (SearchReport(spec, (find,), stats), "found"), (spec, "bound")]
    for record, field in cases:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    # no field of a spec can be deleted, and a spec still pickles
    for field in vars(spec):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(spec, field)
    assert vars(pickle.loads(pickle.dumps(spec))) == vars(spec)


def test_spec_budget_defaults_are_class_attributes():
    assert (SearchSpec.check_budget, SearchSpec.enum_budget) == (100_000, 10_000_000)
    spec = SearchSpec(2, 1, 3)
    assert (spec.mode, spec.check_budget, spec.enum_budget) == ("T", 100_000, 10_000_000)


def test_sweep_paired_family_l_mode():
    report = sweep(SearchSpec(m=2, n=1, bound=4, mode="L"))
    expected = {
        canonical_form(wm(([a], 1), ([a], -1)), "L") for a in range(1, 5)
    }
    assert {f.matrix for f in report.found} == expected
    assert all(f.constant.is_zero() for f in report.found)


def test_small_nonzero_anomaly_scan_is_clean():
    # the only nonzero-constant finds with m <= n+1 in these spaces are the
    # difference matrices, which match the m = n+1, |constant| = 1 pattern
    assert sweep(SearchSpec(m=3, n=2, bound=4, mode="L")).small_nonzero_anomalies() == []
    assert sweep(SearchSpec(m=2, n=1, bound=4, mode="L")).small_nonzero_anomalies() == []


def test_sweep_three_rows_quasilinear():
    report = sweep(SearchSpec(m=3, n=2, bound=4, mode="L"))
    assert report.found
    for f in report.found:
        assert f.quasilinear_seed is not None
        assert f.constant.constant_value() in (1, -1)
        assert f.pairable
        assert f.kosniowski_ok
    # completeness: every difference matrix with max weight <= 4 shows up,
    # along with its global sign reversal
    expected = set()
    for t in range(2, 5):
        for s in range(1, t):
            q = quasilinear([0, s, t])
            expected.add(canonical_form(q, "L"))
            expected.add(canonical_form(signs_negated(q), "L"))
    assert {f.matrix for f in report.found} == expected


def test_sweep_shard_invariance():
    spec = SearchSpec(m=2, n=2, bound=3, mode="T")
    baseline = sweep(spec)
    for shards in (2, 3, 7):
        report = sweep(spec, shards=shards)
        assert [f.matrix for f in report.found] == [f.matrix for f in baseline.found]
        assert report.stats.enumerated == baseline.stats.enumerated


def test_sweep_parallel_workers_match_sequential():
    spec = SearchSpec(m=2, n=1, bound=3, mode="T")
    sequential = sweep(spec, shards=2)
    parallel = sweep(spec, shards=2, workers=2)
    assert [f.matrix for f in parallel.found] == [f.matrix for f in sequential.found]


def test_sweep_asks_for_at_most_one_process_per_cpu(monkeypatch):
    # the pool forks all of max_workers at its first submit, so 64 workers
    # for 64 shards used to mean 64 processes whatever the machine
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    # each process builds the row universe once, whatever its shards
    universes = []
    row_universe = search.row_universe

    def counted_row_universe(*args):
        universes.append(args)
        return row_universe(*args)

    # sweep imports the pool class from concurrent.futures when it runs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(search, "row_universe", counted_row_universe)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spec = SearchSpec(m=2, n=2, bound=3, mode="T")
    sequential = sweep(spec)
    universes.clear()
    sweep(spec, shards=3)
    assert len(universes) == 1
    universes.clear()
    report = sweep(spec, shards=64, workers=64)
    assert sizes == [2]
    assert len(universes) == 2
    assert [f.matrix for f in report.found] == [f.matrix for f in sequential.found]
    assert report.stats.enumerated == sequential.stats.enumerated
    # an unknown CPU count runs the shards in this process
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    sweep(spec, shards=64, workers=64)
    assert sizes == [2]


def test_shards_past_the_row_universe_change_nothing_and_cost_nothing():
    # T m=2 n=1 b=2 has U = 8 rows, and shard i holds the candidates whose
    # first row is i modulo the shard count, so a shard from U on holds
    # none; with budgets that cut no shard every count from U on gives the
    # unsharded report, and 10**9 shards, which once built and walked 10**9
    # empty shards, return at once
    spec = SearchSpec(m=2, n=1, bound=2, enum_budget=10**12, check_budget=10**12)
    size = search._universe_rows(spec.n, spec.bound, spec.mode)
    assert size == len(row_universe(spec.n, spec.bound, spec.mode)) == 8
    want = sweep(spec)
    assert want.found
    for shards, workers in [(size, 1), (size + 1, 1), (10**5, 1), (10**9, 1), (10**9, 2)]:
        started = time.perf_counter()
        got = sweep(spec, shards=shards, workers=workers)
        assert time.perf_counter() - started < 1
        assert (got.found, got.stats[:3]) == (want.found, want.stats[:3]), shards


@pytest.mark.parametrize("m, n, bound, mode", [
    (1, 3, 2, "T"), (3, 2, 2, "T"), (4, 1, 3, "T"), (2, 2, 3, "L"), (3, 1, 4, "L"),
])
def test_shards_past_the_row_universe_give_the_unsharded_report(m, n, bound, mode):
    # on every walk, the m = 1 path, the tetrahedron, the headed blocks and
    # L mode, a shard from U on holds no candidate: U, U + 1 and 3 U shards
    # give the unsharded finds and counts when the budgets cut no shard
    spec = SearchSpec(m=m, n=n, bound=bound, mode=mode,
                      enum_budget=10**12, check_budget=10**12)
    size = search._universe_rows(n, bound, mode)
    assert size == len(row_universe(n, bound, mode))
    want = sweep(spec)
    for shards in (size, size + 1, 3 * size):
        got = sweep(spec, shards=shards)
        assert (got.found, got.stats[:3]) == (want.found, want.stats[:3]), shards


def test_sweep_budget_exceeded_carries_partial_report():
    with pytest.raises(BudgetExceeded) as info:
        sweep(SearchSpec(m=2, n=1, bound=6, mode="T", enum_budget=50))
    partial = info.value.report
    assert partial.stats.enumerated == 50
    full_found = {f.matrix for f in sweep(SearchSpec(m=2, n=1, bound=6, mode="T")).found}
    assert {f.matrix for f in partial.found} <= full_found

    with pytest.raises(BudgetExceeded) as info:
        sweep(SearchSpec(m=2, n=1, bound=6, mode="T", check_budget=3))
    assert info.value.report.stats.exact_checks == 3


def test_sweep_validates_spec():
    with pytest.raises(ValueError):
        SearchSpec(m=0, n=1, bound=1)
    with pytest.raises(ValueError):
        SearchSpec(m=1, n=1, bound=1, mode="X")


def test_spec_caps_the_row_universe():
    for mode in ("T", "L"):
        for n, bound in product(range(1, 6), range(1, 7)):
            assert search._universe_rows(n, bound, mode) == len(row_universe(n, bound, mode))
    # n = 1: 4 * bound rows in T mode and 2 * bound in L mode
    cap = search.MAX_UNIVERSE_ROWS
    SearchSpec(m=2, n=1, bound=cap // 4)
    SearchSpec(m=2, n=1, bound=cap // 2, mode="L")
    for n, bound, mode in [(1, cap // 4 + 1, "T"), (1, cap // 2 + 1, "L"), (10**9, 1, "T"),
                           (10**6, 10**9, "T"), (2, 10**9, "L")]:
        with pytest.raises(ValueError, match="row universe"):
            SearchSpec(m=2, n=n, bound=bound, mode=mode)
    # the weight cap, rows times n, passes every universe of n <= 10 that
    # the row cap passes, and refuses few rows of many weights: 6000002
    # rows of 3000000 weights, and 2 rows of 10**9
    assert search.MAX_UNIVERSE_WEIGHTS >= 10 * cap
    assert 10 * search._universe_rows(10, 8, "T") <= search.MAX_UNIVERSE_WEIGHTS
    SearchSpec(m=2, n=10, bound=8)
    assert search._universe_rows(3_000_000, 1, "T") == 6_000_002
    for n, mode in [(3_000_000, "T"), (10**9, "L")]:
        with pytest.raises(ValueError, match="row universe .* weights"):
            SearchSpec(m=2, n=n, bound=1, mode=mode)


@pytest.mark.parametrize("edge", ["T", "L", "triple"])
def test_the_weight_cap_passes_the_largest_n_under_it_and_refuses_the_next(edge):
    # bound 1 gives 2 (n + 1) rows in T mode and 2 rows in L mode and in the
    # triple search's list, far below the row cap; the largest n each edge
    # passes has at most MAX_UNIVERSE_WEIGHTS weights, and n + 1 has more
    cap = search.MAX_UNIVERSE_WEIGHTS
    mode = "T" if edge == "T" else "L"
    n = 7070 if edge == "T" else cap // 2
    weights = [search._universe_rows(k, 1, mode) * k for k in (n, n + 1)]
    assert weights[0] <= cap < weights[1]
    if edge == "triple":
        search.check_triple_args(n, 1)
        with pytest.raises(ValueError, match="has more than .* weights"):
            search.check_triple_args(n + 1, 1)
    else:
        SearchSpec(m=2, n=n, bound=1, mode=mode)
        with pytest.raises(ValueError, match="row universe .* weights"):
            SearchSpec(m=2, n=n + 1, bound=1, mode=mode)


@pytest.mark.parametrize("field, value", [
    ("m", 2.0), ("m", True), ("n", 1.0), ("bound", True), ("bound", 3.5),
    ("enum_budget", 1.5), ("check_budget", 10.0),
])
def test_spec_rejects_non_integers(field, value):
    # a float was truncated or crashed later, and True ran a bound-1 sweep
    fields = dict(m=2, n=1, bound=3)
    fields[field] = value
    with pytest.raises(ValueError):
        SearchSpec(**fields)


@pytest.mark.parametrize("n, bound", [(2, 2.5), (2.0, 3), (True, 3), (2, True)])
def test_triple_search_rejects_non_integers(n, bound):
    with pytest.raises(ValueError):
        triple_identity_search(n, bound)


def test_triple_search_caps_its_row_list_like_an_l_universe():
    # n = 1: 2 * bound rows, the plus and the minus row of each weight
    cap = search.MAX_UNIVERSE_ROWS
    search.check_triple_args(1, cap // 2)
    with pytest.raises(ValueError, match="has more than"):
        search.check_triple_args(1, cap // 2 + 1)
    with pytest.raises(ValueError, match="has more than"):
        triple_identity_search(40, 40)
    # 2 rows of 10**9 weights pass the row cap and not the weight cap
    with pytest.raises(ValueError, match="has more than .* weights"):
        search.check_triple_args(10**9, 1)


@pytest.mark.parametrize("shards, workers", [(2.0, 1), (1, True)])
def test_sweep_rejects_non_integer_shards_and_workers(shards, workers):
    with pytest.raises(ValueError):
        sweep(SearchSpec(m=2, n=1, bound=2), shards=shards, workers=workers)


# -- pre-filter soundness -----------------------------------------------------


def test_prefilter_rejects_are_never_rigid():
    # every candidate the sweep rejected must fail the symbolic check too
    spec = SearchSpec(m=2, n=2, bound=3, mode="T")
    universe = row_universe(spec.n, spec.bound, spec.mode)
    candidates = list(stream_candidates(universe, spec.m, 0, 1))
    mask = join_mask(universe, spec.m, spec.n, spec.bound, spec.mode)
    assert mask == chunk_mask(candidates, sample_points(spec.mode))

    rng = random.Random(12)
    rejected = [rows for rows, ok in zip(candidates, mask) if not ok]
    assert rejected
    sample = rng.sample(rejected, max(len(rejected) // 20, 50))
    for rows in sample:
        assert not is_rigid(WeightMatrix(rows)).rigid


# -- difference-matrix seed recovery -------------------------------------------


def test_seed_recovery_plain_rows():
    matrix = wm(([-1, -2], 1), ([1, -1], 1), ([2, 1], 1))
    assert quasilinearity_test(matrix) == (0, 1, 2)


def test_seed_recovery_rejects_repeats():
    assert quasilinearity_test(wm(([1, 1], 1), ([1, 1], 1), ([1, 1], 1))) is None


def test_seed_recovery_round_trip():
    assert quasilinearity_test(quasilinear([0, 2, 5])) == (0, 2, 5)
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        seed = tuple(rng.sample(range(-8, 9), n + 1))
        found = quasilinearity_test(quasilinear(seed))
        assert found is not None
        # recovered seed regenerates the same matrix up to canonical form
        assert canonical_form(quasilinear(found)) == canonical_form(quasilinear(seed))


def test_seed_recovery_l_mode_handles_sign_symmetries():
    matrix = canonical_form(quasilinear([0, 1, 2]), "L")
    assert quasilinearity_test(matrix, mode="L") is not None
    negated = signs_negated(matrix)
    assert quasilinearity_test(negated, mode="L") is not None
    # T mode is strict: the normalized matrix no longer matches literally
    assert quasilinearity_test(matrix, mode="T") is None


def test_seed_recovery_needs_square_plus_one_shape():
    with pytest.raises(WrongShape):
        quasilinearity_test(wm(([1, 2], 1), ([1, 2], 1)))


def test_seed_recovery_rejects_non_difference_matrices():
    matrix = wm(([1, 2], 1), ([1, 2], 1), ([1, 2], 1))
    assert quasilinearity_test(matrix) is None
    assert quasilinearity_test(matrix, mode="L") is None


# -- triple identity search ---------------------------------------------------


def expected_triples(bound):
    """Solutions derived from difference matrices with max entry <= bound."""
    expected = set()
    for t in range(2, bound + 1):
        for s in range(1, t):
            row_a = tuple(sorted((s, t)))
            row_b = tuple(sorted((t, t - s)))
            row_c = tuple(sorted((s, t - s)))
            first, second = sorted((row_a, row_b))
            expected.add((first, second, row_c))
    return expected


def test_triple_search_matches_difference_matrix_family():
    solutions = triple_identity_search(2, 4)
    assert set(solutions) == expected_triples(4)
    for a, b, c in solutions:
        matrix = wm((a, 1), (b, 1), (c, -1))
        verdict = is_l_rigid(matrix)
        assert verdict.rigid and verdict.constant.constant_value() == 1
        assert quasilinearity_test(matrix, mode="L") is not None


def test_every_rigid_triple_hit_has_the_constant_1(monkeypatch):
    # the search keeps a hit on its verdict alone: three rows cannot cancel
    # in pairs, so a rigid verdict's constant is the candidate, 1 + 1 - 1;
    # modulo the safe prime 23 the kernel also hands over collisions,
    # which are not rigid
    verdicts = []

    def recording(matrix):
        verdicts.append(is_l_rigid(matrix))
        return verdicts[-1]

    monkeypatch.setattr(search, "is_l_rigid", recording)
    specs = [(2, 6), (4, 5), (3, 6), (1, 5)]
    solutions = sum(len(triple_identity_search(n, bound)) for n, bound in specs)
    monkeypatch.setattr(prefilter, "_PRIME", 23)
    assert sum(len(triple_identity_search(n, bound)) for n, bound in specs) == solutions
    rigid = [verdict for verdict in verdicts if verdict.rigid]
    assert len(rigid) == 2 * solutions > 0 and len(verdicts) > len(rigid)
    assert {verdict.constant for verdict in rigid} == {Form((1,))}


def test_triple_search_odd_size_has_no_solutions():
    # parity: the x=y=1 constant of three rows with odd n must be 0, never 1
    assert triple_identity_search(1, 3) == []


def test_triple_search_canonical_ordering():
    for n, bound in [(2, 5), (4, 5)]:
        solutions = triple_identity_search(n, bound)
        assert solutions == sorted(solutions)  # (a, b, c) order
        if n == 4:  # which is not the order of c
            assert sorted(solutions, key=lambda t: t[2]) != solutions
        for a, b, c in solutions:
            assert tuple(sorted(a)) == a and tuple(sorted(b)) == b and tuple(sorted(c)) == c
            assert a <= b
