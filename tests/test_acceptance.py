"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(visible with ``pytest tests/test_acceptance.py -s``).  Every tolerance is
exact; runtime ceilings are asserted outright.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from rigidpow.algebra import Form
from rigidpow.bott import (
    chern_number,
    classify_two_fixed_points,
    is_boundary_candidate,
    kosniowski_bound,
    realizability_screen,
)
from rigidpow.rigidity import (
    Row,
    WeightMatrix,
    is_rigid,
    quasilinear,
)
from rigidpow.search import (
    SearchSpec,
    canonical_form,
    quasilinearity_test,
    sweep,
    triple_identity_search,
)
from exact_values import function_value
from matrix_helpers import negated, normalize_signs, signs_negated, value_at, wm
from screen_oracle import exponent_tuples
from stream_oracle import block_rows, exact_hits, record_kernel_calls


def conclude(criterion: int, condition: bool, detail: str):
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert condition, f"criterion {criterion}: {detail}"


# -- shared sweeps (criteria 2, 3, 4 feed criterion 7) -------------------------


@pytest.fixture(scope="module")
def paired_family_sweeps():
    started = time.perf_counter()
    reports = {m: sweep(SearchSpec(m=m, n=1, bound=6, mode="L")) for m in (2, 4)}
    return reports, time.perf_counter() - started


@pytest.fixture(scope="module")
def two_point_sweeps():
    started = time.perf_counter()
    reports = {n: sweep(SearchSpec(m=2, n=n, bound=5, mode="T")) for n in (1, 2, 3)}
    return reports, time.perf_counter() - started


@pytest.fixture(scope="module")
def three_point_sweep():
    started = time.perf_counter()
    report = sweep(SearchSpec(m=3, n=2, bound=8, mode="L"))
    return report, time.perf_counter() - started


# -- criterion 1: difference-matrix rigidity -----------------------------------


def test_criterion_1_difference_matrix_rigidity():
    started = time.perf_counter()
    rng = random.Random(20260808)
    for _ in range(50):
        n = rng.randint(1, 6)
        seed = rng.sample(range(-10, 11), n + 1)
        verdict = is_rigid(quasilinear(seed))
        expected = Form((-1) ** k for k in range(n + 1))
        assert verdict.rigid, seed
        assert verdict.constant == expected, seed
    elapsed = time.perf_counter() - started
    conclude(1, elapsed < 60, f"50 seeds up to n=6, exact constants, {elapsed:.2f}s")


# -- criterion 2: paired single-column configurations --------------------------


def paired_family(m, bound):
    family = set()
    if m == 2:
        for a in range(1, bound + 1):
            family.add(canonical_form(wm(([a], 1), ([a], -1)), "L"))
    else:
        for a in range(1, bound + 1):
            for b in range(a, bound + 1):
                family.add(
                    canonical_form(
                        wm(([a], 1), ([a], -1), ([b], 1), ([b], -1)), "L"
                    )
                )
    return family


def test_criterion_2_paired_family(paired_family_sweeps):
    reports, elapsed = paired_family_sweeps
    for m, report in reports.items():
        got = {f.matrix for f in report.found}
        assert got == paired_family(m, 6), f"m={m}"
        assert all(f.constant.is_zero() for f in report.found)
    counts = {m: len(r.found) for m, r in reports.items()}
    conclude(2, elapsed < 60, f"exact set equality, finds {counts}, {elapsed:.2f}s")


# -- criterion 3: two-fixed-point classification --------------------------------


def two_point_family(n, bound):
    values = [v for v in range(-bound, bound + 1) if v]
    family = set()
    for ws in combinations_with_replacement(values, n):
        family.add(canonical_form(wm((list(ws), 1), (list(ws), -1))))
    if n == 1:
        for a in range(1, bound + 1):
            for e in (1, -1):
                family.add(canonical_form(wm(([a], e), ([-a], e))))
    if n == 3:
        for a in range(1, bound + 1):
            for b in range(a, bound + 1):
                if a + b > bound:
                    continue
                for e in (1, -1):
                    family.add(
                        canonical_form(wm(([a, b, -(a + b)], e), ([-a, -b, a + b], e)))
                    )
    return family


def test_criterion_3_two_point_families(two_point_sweeps):
    reports, elapsed = two_point_sweeps
    for n, report in reports.items():
        got = {f.matrix for f in report.found}
        assert got == two_point_family(n, 5), f"n={n}"
        for f in report.found:
            assert f.label is not None and f.label.kind in ("Z", "L1", "S3"), f
            assert classify_two_fixed_points(f.matrix).kind == f.label.kind
    counts = {n: len(r.found) for n, r in reports.items()}
    conclude(3, elapsed < 600, f"exact set equality, finds {counts}, {elapsed:.2f}s")


# -- criterion 4: three fixed points on four-manifolds are quasilinear ----------


def test_criterion_4_three_point_quasilinearity(three_point_sweep):
    report, elapsed = three_point_sweep
    exceptions = [f for f in report.found if f.quasilinear_seed is None]
    for f in report.found:
        assert quasilinearity_test(f.matrix, mode="L") is not None, f
    # completeness: every difference matrix within the bound is found
    expected = set()
    for t in range(2, 9):
        for s in range(1, t):
            q = quasilinear([0, s, t])
            expected.add(canonical_form(q, "L"))
            expected.add(canonical_form(signs_negated(q), "L"))
    assert {f.matrix for f in report.found} == expected
    conclude(
        4,
        not exceptions and elapsed < 900,
        f"{len(report.found)} finds, zero exceptions, {elapsed:.2f}s",
    )


# -- criterion 5: golden Chern numbers and screens ------------------------------


def test_criterion_5_golden_chern_numbers():
    started = time.perf_counter()
    two_sphere = wm(([1], 1), ([-1], 1))
    six_sphere = wm(([1, 1, -2], 1), ([-1, -1, 2], 1))
    assert chern_number(two_sphere, (1,)) == 2
    assert chern_number(six_sphere, (0, 0, 1)) == 2
    assert realizability_screen(wm(([1, 2], 1)))  # single fixed point flagged
    assert is_boundary_candidate(wm(([1, 2], 1), ([1, 2], -1)))
    elapsed = time.perf_counter() - started
    conclude(5, elapsed < 1, f"both golden values exact, screens agree, {elapsed:.3f}s")


# -- criterion 6: low-degree vanishing ------------------------------------------


def test_criterion_6_low_degree_vanishing():
    rng = random.Random(99)
    checked = 0
    for n in range(1, 5):
        # cancelling pairs with arbitrary nonzero weights
        for _ in range(5):
            ws = [rng.choice([w for w in range(-5, 6) if w]) for _ in range(n)]
            matrix = wm((ws, 1), (ws, -1))
            for r in exponent_tuples(n, n - 1):
                assert chern_number(matrix, r) == 0
                checked += 1
        # difference matrices
        for _ in range(5):
            seed = rng.sample(range(-5, 6), n + 1)
            matrix = quasilinear(seed)
            for r in exponent_tuples(n, n - 1):
                assert chern_number(matrix, r) == 0
                checked += 1
    conclude(6, checked > 0, f"{checked} low-degree residue sums all zero")


# -- criterion 7: fixed-point count evidence ------------------------------------


def test_criterion_7_fixed_point_count_evidence(
    paired_family_sweeps, two_point_sweeps, three_point_sweep
):
    reports = list(paired_family_sweeps[0].values())
    reports += list(two_point_sweeps[0].values())
    reports.append(three_point_sweep[0])
    checked = violations = 0
    for report in reports:
        for f in report.found:
            checked += 1
            if not f.constant.is_zero():
                if f.matrix.m < kosniowski_bound(f.matrix.n):
                    violations += 1
                assert f.kosniowski_ok
    conclude(
        7,
        violations == 0,
        f"{checked} finds across all sweeps, {violations} below floor(n/2)+1",
    )


def test_criterion_7_pairing_evidence(
    paired_family_sweeps, two_point_sweeps, three_point_sweep
):
    # companion evidence: every find admits the cross-row equal-value pairing
    reports = list(paired_family_sweeps[0].values())
    reports += list(two_point_sweeps[0].values())
    reports.append(three_point_sweep[0])
    for report in reports:
        for f in report.found:
            assert f.pairable, f
    print("[acceptance] criterion 7 companion: PASS (all finds pairable)")


# -- criterion 8: triple identity search ----------------------------------------


def test_criterion_8_triple_identity_search():
    started = time.perf_counter()
    assert triple_identity_search(3, 6) == []
    solutions = triple_identity_search(2, 4)
    expected = set()
    for t in range(2, 5):
        for s in range(1, t):
            row_a = tuple(sorted((s, t)))
            row_b = tuple(sorted((t, t - s)))
            row_c = tuple(sorted((s, t - s)))
            first, second = sorted((row_a, row_b))
            expected.add((first, second, row_c))
    assert set(solutions) == expected
    for a, b, c in solutions:
        matrix = wm((a, 1), (b, 1), (c, -1))
        assert quasilinearity_test(matrix, mode="L") is not None
    elapsed = time.perf_counter() - started
    conclude(
        8,
        elapsed < 600,
        f"n=3 empty, n=2 gives {len(solutions)} verified solutions, {elapsed:.2f}s",
    )


# -- criterion 9: property suites ------------------------------------------------


def random_matrix(rng, positive=False, max_m=3, max_n=3):
    m, n = rng.randint(1, max_m), rng.randint(1, max_n)
    values = list(range(1, 7)) if positive else [w for w in range(-6, 7) if w]
    return wm(
        *(
            ([rng.choice(values) for _ in range(n)], rng.choice((1, -1)))
            for _ in range(m)
        )
    )


def test_criterion_9_reciprocal_law():
    # L(1/z) = (-1)^n L(z); (1/z)^w = z^(-w), so L(1/z) is the L-function of
    # the weight-negated matrix at z
    rng = random.Random(41)
    for _ in range(100):
        matrix = random_matrix(rng, positive=True)
        sign = (-1) ** matrix.n
        for z0 in range(2, 12):
            assert value_at(negated(matrix), z0) == sign * value_at(matrix, z0)
        # and at a z that is not an integer, 1/z evaluated as it is
        z0 = Fraction(9, 2)
        assert (function_value(matrix.rows, 1 / z0, 1, 1)
                == sign * function_value(matrix.rows, z0, 1, 1))
    print("[acceptance] criterion 9a: PASS (reciprocal law, 100 matrices x 11 points)")


def test_criterion_9_sign_flip_equivalence():
    rng = random.Random(42)
    for _ in range(50):
        matrix = random_matrix(rng)
        i = rng.randrange(matrix.m)
        j = rng.randrange(matrix.n)
        rows_flip_w = [
            Row(
                tuple(-w if (ri == i and rj == j) else w for rj, w in enumerate(r.weights)),
                r.sign,
            )
            for ri, r in enumerate(matrix.rows)
        ]
        rows_flip_s = [
            Row(r.weights, -r.sign if ri == i else r.sign)
            for ri, r in enumerate(matrix.rows)
        ]
        flipped_w = WeightMatrix(tuple(rows_flip_w))
        flipped_s = WeightMatrix(tuple(rows_flip_s))
        for z0 in (2, 3, 5):
            assert value_at(flipped_w, z0) == value_at(flipped_s, z0)
        normalized = normalize_signs(matrix)
        for z0 in (2, 3, 5):
            assert value_at(normalized, z0) == value_at(matrix, z0)
    print("[acceptance] criterion 9b: PASS (weight sign flip == row sign flip)")


def test_criterion_9_scaling_law():
    rng = random.Random(43)
    for _ in range(40):
        matrix = random_matrix(rng)
        lam = rng.randint(2, 4)
        scaled = WeightMatrix(
            tuple(Row(tuple(lam * w for w in r.weights), r.sign) for r in matrix.rows)
        )
        for z0 in (2, 3):
            for x0, y0 in ((1, 1), (2, 1)):
                assert value_at(scaled, z0, x0, y0) == value_at(matrix, z0**lam, x0, y0)
    print("[acceptance] criterion 9c: PASS (scaling law)")


def test_criterion_9_permutation_invariance():
    rng = random.Random(44)
    for _ in range(40):
        matrix = random_matrix(rng)
        rows = list(matrix.rows)
        rng.shuffle(rows)
        permuted = WeightMatrix(
            tuple(Row(tuple(rng.sample(r.weights, len(r.weights))), r.sign) for r in rows)
        )
        for z0 in (2, 3):
            for x0, y0 in ((1, 1), (2, 1)):
                assert value_at(matrix, z0, x0, y0) == value_at(permuted, z0, x0, y0)
    print("[acceptance] criterion 9d: PASS (row/column permutation invariance)")


def test_criterion_9_prefilter_soundness(monkeypatch):
    # the unsharded m = 2 sweep is one kernel call over every candidate
    calls = record_kernel_calls(monkeypatch)
    sweep(SearchSpec(m=2, n=2, bound=4, mode="T"))
    [(universe, (heads, tails, m, n, count, points), out)] = calls
    assert out.hits == exact_hits(universe, heads, tails, m, count, points)
    passed = {k for k, _ in out.hits}
    rejected = [rows for k, rows in enumerate(block_rows(universe, heads, tails, m))
                if k not in passed]
    rng = random.Random(45)
    sample = rng.sample(rejected, max(len(rejected) // 100, 100))
    rigid_rejects = sum(1 for rows in sample if is_rigid(WeightMatrix(rows)).rigid)
    conclude(
        9,
        rigid_rejects == 0,
        f"{len(sample)} sampled rejects out of {len(rejected)}, {rigid_rejects} rigid",
    )


# -- criterion 10: Kosniowski's conjecture in dimension 14 ------------------------


def test_criterion_10_kosniowski_dimension_14():
    # n = 7 weights per fixed point is dimension 14; three fixed points are
    # below kosniowski_bound(7) = 4, so no rigid find may have a nonzero constant
    started = time.perf_counter()
    report = sweep(SearchSpec(m=3, n=7, bound=3, mode="T", enum_budget=10**9))
    elapsed = time.perf_counter() - started
    assert 3 < kosniowski_bound(7)
    assert report.stats.enumerated == 663645840
    assert (report.stats.exact_checks, report.found) == (0, ())
    conclude(
        10,
        not report.violations() and elapsed < 60,
        f"T m=3 n=7 b=3, {report.stats.enumerated} candidates, no violation, {elapsed:.2f}s",
    )
