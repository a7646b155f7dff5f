"""Canonical enumeration, sweeps against closed-form families, the
difference-matrix seed test, and the triple identity search."""

import os
import random
import time
from concurrent.futures import Future
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow import search
from rigidpow.prefilter import block_size, matches_constant, sample_points
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
    SearchSpec,
    WrongShape,
    canonical_form,
    quasilinearity_test,
    row_universe,
    sweep,
    triple_identity_search,
)
from stream_oracle import block_candidates, chunk_mask, join_mask, stream_candidates


def wm(*rows):
    return WeightMatrix(tuple(Row(tuple(ws), s) for ws, s in rows))


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


def general_blocks(m, size, shard_index, shard_count):
    """The block walk in its general form, one combinations_with_replacement
    call per first row for every m > 2: the reference for _blocks."""
    for i in range(shard_index, size, shard_count):
        if m <= 2:
            yield (), range(i, i + 1)
            continue
        for rest in combinations_with_replacement(range(i, size), m - 3):
            heads = (i, *rest)
            yield heads, range(heads[-1], size)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_blocks_match_the_general_walk(m):
    for size in (0, 1, 2, 5, 9):
        for shard_count in (1, 2, 3, 7):
            for shard_index in range(shard_count):
                want = list(general_blocks(m, size, shard_index, shard_count))
                got = list(search._blocks(m, size, shard_index, shard_count))
                assert got == want
                # the blocks, one after another, are the shard's canonical
                # candidates, and block_size counts each kernel block
                walked = []
                for heads, tails in got:
                    block = block_candidates(heads, tails, m, size)
                    assert len(block) == (block_size(tails, size) if m > 1 else 1)
                    walked += block
                assert walked == [c for c in combinations_with_replacement(range(size), m)
                                  if c[0] % shard_count == shard_index]


def test_two_row_walk_is_linear_in_the_universe():
    # 31008 rows is the T n=5 b=8 universe; the general walk copies the
    # whole remaining range for every first row, about 10 s on a 2-vCPU VM
    started = time.perf_counter()
    blocks = sum(1 for _ in search._blocks(2, 31008, 0, 1))
    assert blocks == 31008
    assert time.perf_counter() - started < 0.5


def test_three_row_walk_is_linear_in_the_universe():
    # the general walk's one combinations_with_replacement call per first
    # row copies the whole remaining range even for the m = 3 prefixes of
    # length 0: about 10 s for these 31008 rows on a 2-vCPU VM
    started = time.perf_counter()
    blocks = sum(1 for _ in search._blocks(3, 31008, 0, 1))
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
            expected.add(canonical_form(q.with_signs_negated(), "L"))
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
            future = Future()
            future.set_result(fn(*args))
            return future

    # each process builds the row universe once, whatever its shards
    universes = []
    row_universe = search.row_universe

    def counted_row_universe(*args):
        universes.append(args)
        return row_universe(*args)

    monkeypatch.setattr(search, "ProcessPoolExecutor", InProcessPool)
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
    negated = matrix.with_signs_negated()
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
