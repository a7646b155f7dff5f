"""The pre-filter's parts outside the kernel against exact values from the
definition: the sample points, the safe prime, each row's residue, the
twin layout of every row list the kernel is handed, the hits-only mask,
and the exact oracle ``matches_constant``.  The kernel itself is tested in
``test_kernel.py``."""

import random

import pytest

import stream_oracle
from rigidpow import prefilter, search
from rigidpow.prefilter import L_POINTS, T_POINTS, sample_points, select_filter
from rigidpow.rigidity import Row
from rigidpow.search import SearchSpec, _Hits, row_universe
from exact_values import forced_constant, function_value, row_constant, row_value
from stream_oracle import matches_constant, record_kernel_calls


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


def definition(rows, points):
    """Independent check: the function's value against its forced constant
    at every point, from the definition in Fraction arithmetic."""
    return all(function_value(rows, z, x, y) == forced_constant(rows, x, y) for z, x, y in points)


def test_sample_points():
    assert sample_points("T") == T_POINTS
    assert sample_points("L") == L_POINTS
    with pytest.raises(ValueError):
        sample_points("Q")


def test_matches_constant_agrees_with_the_definition_on_random_rows():
    candidates = random_batch(random.Random(21), 2, 2, 4, 200)
    want = [definition(rows, T_POINTS) for rows in candidates]
    assert [matches_constant(rows, T_POINTS) for rows in candidates] == want


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
    calls = record_kernel_calls(monkeypatch)
    search.triple_identity_search(n, bound)
    [(handed, _, _)] = calls
    for rows in (universe, handed):
        residues = prefilter._row_residues(rows, n, sample_points(mode))
        assert len(rows) % 2 == 0 and rows
        for t in range(len(rows) // 2):
            (minus, sign), (plus, twin_sign) = rows[2 * t], rows[2 * t + 1]
            assert minus == plus and (sign, twin_sign) == (-1, 1)
            assert residues[2 * t + 1] == -residues[2 * t] % prefilter._PRIME

    # the kernel checks no row: every row the sweep and the triple search
    # hand it is a Row of n int weights with 1 <= |w| <= bound and an int
    # sign of 1 or -1
    for rows in (universe, handed):
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


def test_no_row_of_a_universe_matches_its_constant():
    # sweeps of m = 1 call no kernel: no single row is constant, at either
    # point set, up to |w| = 500, past w = 61 and 122, where z = 2 has
    # order 61 modulo the Mersenne prime 2^61 - 1
    for n, bound in [(n, bound) for n in range(1, 5) for bound in range(1, 9)] + [(1, 500)]:
        for points in (T_POINTS, L_POINTS):
            assert not any(matches_constant((row,), points) for row in row_universe(n, bound, "T"))


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
    assert matches_constant(rows, T_POINTS) == definition(rows, T_POINTS)
    assert evaluated
