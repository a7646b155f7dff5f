"""The sample-point pre-filter kernel against the symbolic series."""

import random
from fractions import Fraction

import pytest

from rigidpow import prefilter
from rigidpow.prefilter import (
    L_POINTS,
    T_POINTS,
    filter_chunk,
    row_residue,
    sample_points,
    select_filter,
)
from rigidpow.rigidity import Row, WeightMatrix, candidate_constant, t_series


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
    """Independent check via the symbolic series and Fraction arithmetic."""
    out = bytearray(len(candidates))
    for c, rows in enumerate(candidates):
        matrix = WeightMatrix(tuple(Row(ws, s) for ws, s in rows))
        series = t_series(matrix)
        constant = candidate_constant(matrix)
        ok = 1
        for p in range(0, len(points), 3):
            z0, x0, y0 = points[p], points[p + 1], points[p + 2]
            if series.evaluate(z0, x0, y0) != constant.evaluate(x0, y0):
                ok = 0
                break
        out[c] = ok
    return out


def test_sample_points():
    assert sample_points("T") == T_POINTS
    assert sample_points("L") == L_POINTS
    with pytest.raises(ValueError):
        sample_points("Q")


def test_pure_kernel_matches_symbolic_oracle():
    rng = random.Random(21)
    m, n, bound, count = 2, 2, 4, 200
    candidates = random_batch(rng, m, n, bound, count)
    got = bytearray(count)
    filter_chunk(candidates, T_POINTS, got)
    assert got == oracle_mask(candidates, T_POINTS)


def both_masks(candidates, m, n, bound, points):
    """The row-table kernel's mask, fed one weight tuple and one sign per
    row, and the oracle's mask for the same candidates."""
    rows = [row for candidate in candidates for row in candidate]
    kernel, name = select_filter(m, n, bound, points)
    assert name == "row-table"
    got = bytearray(len(candidates))
    kernel([tuple(ws) for ws, _ in rows], [s for _, s in rows], m, n, len(candidates), points, got)
    want = bytearray(len(candidates))
    filter_chunk(candidates, points, want)
    return got, want


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
def test_row_table_kernel_matches_filter_chunk_on_a_grid(points):
    rng = random.Random(4)
    passed = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for bound in range(1, 9):
                candidates = random_candidates(rng, m, n, bound, 6)
                got, want = both_masks(candidates, m, n, bound, points)
                assert got == want, (m, n, bound)
                passed += sum(got)
    assert passed > 0


@pytest.mark.parametrize("m, n, bound, mode", [
    (2, 1, 5, "T"), (2, 2, 3, "T"), (3, 2, 2, "T"), (3, 2, 3, "L"),
    (4, 1, 4, "L"), (2, 3, 2, "T"), (4, 2, 2, "T"),
])
def test_row_table_kernel_matches_filter_chunk_on_every_canonical_candidate(m, n, bound, mode):
    from rigidpow.search import _shard_rows, row_universe

    candidates = list(_shard_rows(row_universe(n, bound, mode), m, 0, 1))
    got, want = both_masks(candidates, m, n, bound, sample_points(mode))
    assert got == want
    assert 0 < sum(got) < len(got)


@pytest.mark.parametrize("m, n, bound", [(2, 1, 130), (1, 1, 500)])
def test_row_table_kernel_matches_filter_chunk_at_large_bounds(m, n, bound):
    # these bounds pass w = 61 and w = 122: modulo the Mersenne prime
    # 2^61 - 1, z = 2 has order 61, so z^w - 1 would have no inverse
    from rigidpow.search import _shard_rows, row_universe

    candidates = list(_shard_rows(row_universe(n, bound, "T"), m, 0, 1))
    got, want = both_masks(candidates, m, n, bound, T_POINTS)
    assert got == want
    # no single row is constant; two rows are when they cancel
    assert (sum(got) > 0) == (m > 1)


@pytest.mark.parametrize("m, n, bound, mode", [(2, 2, 3, "T"), (3, 2, 3, "L"), (4, 1, 4, "L")])
def test_row_table_residue_collisions_are_decided_by_filter_chunk(monkeypatch, m, n, bound, mode):
    # modulo the safe prime 23 = 2 * 11 + 1 about one candidate in 23
    # collides; filter_chunk, called on every hit, must still give its mask
    from rigidpow.search import _shard_rows, row_universe

    monkeypatch.setattr(prefilter, "_PRIME", 23)
    hits = []
    monkeypatch.setattr(prefilter, "filter_chunk", lambda *args: hits.append(filter_chunk(*args)))
    candidates = list(_shard_rows(row_universe(n, bound, mode), m, 0, 1))
    got, want = both_masks(candidates, m, n, bound, sample_points(mode))
    assert got == want
    assert len(hits) > sum(got)


def exact_row_term(weights, sign, z, x, y):
    value, constant = Fraction(sign), sign
    for w in weights:
        zp = Fraction(z) ** abs(w)
        value *= (x * zp + y) / (zp - 1) if w > 0 else -(x + y * zp) / (zp - 1)
        constant *= x if w > 0 else -y
    return value - constant


@pytest.mark.parametrize("m, n, bound, mode", [
    (1, 1, 1, "T"), (2, 2, 4, "T"), (4, 3, 3, "T"), (3, 2, 5, "L"), (4, 4, 2, "L"),
])
def test_row_table_entries_are_exact_row_terms_modulo_the_prime(m, n, bound, mode):
    from rigidpow.search import row_universe

    points = sample_points(mode)
    kernel, _ = select_filter(m, n, bound, points)
    rows = row_universe(n, bound, "T")
    # every row of the universe, each in its own one-row-repeated candidate
    weights = [r.weights for r in rows for _ in range(m)]
    signs = [r.sign for r in rows for _ in range(m)]
    kernel(weights, signs, m, n, len(rows), points, bytearray(len(rows)))
    assert set(kernel.table) == {(r.weights, r.sign) for r in rows}

    P = prefilter._PRIME
    layout = [points[p:p + 3] for p in range(0, len(points), 3)]
    for (ws, sign), residue in kernel.table.items():
        assert residue == row_residue(ws, sign, n, bound, points)
        want = 0
        for p, (z, x, y) in enumerate(layout):
            term = exact_row_term(ws, sign, z, x, y)
            want += pow(prefilter._BASE, p, P) * term.numerator * pow(term.denominator, -1, P)
        assert residue == want % P


@pytest.mark.parametrize("bad", [(0, 1), (1, 4), (-4, 1), (1, 2, 3), (1,), (1.5, 1)])
def test_row_table_rejects_rows_outside_its_parameters(bad):
    m, n, bound = 2, 2, 3
    kernel, _ = select_filter(m, n, bound, T_POINTS)
    weights, signs = [(1, -1), (2, 1), (1, 1), bad], [1, -1, 1, 1]
    mask = bytearray(b"\x07\x07")
    with pytest.raises(ValueError):
        kernel(weights, signs, m, n, 2, T_POINTS, mask)
    assert mask == b"\x07\x07"
    # nor does a bad row enter the table for a later call to find
    assert bad not in {ws for ws, _ in kernel.table}
    with pytest.raises(ValueError):
        kernel([(1, 1), (1, 2)], [1, 2], m, n, 1, T_POINTS, mask)
    with pytest.raises(ValueError):
        kernel([(1, 1), (1, 2)], [1, -1], m + 1, n, 1, T_POINTS, mask)
    assert mask == b"\x07\x07"


@pytest.mark.parametrize("points", [(1, 1, 1), (2, 0, 1), (2, 1, -1), (2, 1), (2.0, 1, 1)])
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
        select_filter(2, 1, 3, (P - 1, 1, 1))
    with pytest.raises(ValueError):
        select_filter(2, 1, q, T_POINTS)
    select_filter(2, 1, 3, (P - 2, 1, 1))
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
            out = bytearray(1)
            filter_chunk([matrix.rows], sample_points(mode), out)
            assert out[0] == 1

    # and the canonical L image passes the L points as well
    matrix = canonical_form(quasilinear((0, 2, 5)), "L")
    out = bytearray(1)
    filter_chunk([matrix.rows], L_POINTS, out)
    assert out[0] == 1
