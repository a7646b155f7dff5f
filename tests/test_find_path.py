"""The per-find path of a sweep, from kernel hit to report line, against
the slower code it stands for.

- Survivors are built by ``rigidity._valid_matrix``, which skips the
  checks of ``WeightMatrix``; each must equal, hash like and pickle like
  ``WeightMatrix(rows)``.
- ``_cancels`` tallies in one loop; it must answer as a ``Counter`` of
  the sorted, sign-folded rows' signs does.
- ``quasilinearity_test`` turns some matrices away before its seed loop;
  on every find of a few sweeps, in both modes, it must return what the
  loop alone returns (``full_quasilinearity``).
- ``cli._find_lines`` splices each find's lines from per-row texts; each
  must equal ``_ENCODER.encode`` of the find's record dict, and the
  f-string with ``str(f.matrix)``, that the report was once built from
  (``record`` and ``line``).  Whole reports, violations and L-mode
  anomalies included, must print and write as they did (``old_stdout``
  and ``old_out``).
"""

import pickle
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow import cli
from rigidpow.algebra import Form
from rigidpow.bott import ClassLabel
from rigidpow.rigidity import (
    Row,
    WeightMatrix,
    _cancels,
    _valid_matrix,
)
from rigidpow.search import (
    Find,
    SearchReport,
    SearchSpec,
    SweepStats,
    quasilinearity_test,
    row_universe,
    sweep,
)
from matrix_helpers import fold_signs

# -- survivors built without checks -------------------------------------------


@pytest.mark.parametrize("mode, m, n, bound", [("T", 2, 2, 3), ("L", 3, 2, 3), ("T", 3, 1, 3)])
def test_valid_matrix_is_the_checked_matrix(mode, m, n, bound):
    universe = row_universe(n, bound, mode)
    for indices in combinations_with_replacement(range(len(universe)), m):
        rows = tuple(universe[i] for i in indices)
        fast, checked = _valid_matrix(rows), WeightMatrix(rows)
        assert type(fast) is WeightMatrix
        assert fast == checked and hash(fast) == hash(checked)
        assert (fast.m, fast.n, str(fast), repr(fast)) == (m, n, str(checked), repr(checked))
        assert pickle.loads(pickle.dumps(fast)) == checked


def test_sweep_survivors_pickle_through_worker_processes():
    spec = SearchSpec(3, 2, 4, "L")
    local = sweep(spec, shards=2)
    pooled = sweep(spec, shards=2, workers=2)
    assert pooled.found == local.found
    assert all(type(f.matrix) is WeightMatrix for f in pooled.found)


# -- the one-loop tally -------------------------------------------------------

ROWS = st.lists(st.tuples(st.lists(st.integers(-3, 3).filter(bool), min_size=2, max_size=2),
                          st.sampled_from((1, -1))), min_size=0, max_size=6)


@settings(max_examples=300, deadline=None)
@given(ROWS)
def test_cancels_is_a_counter_tally_of_the_sorted_folded_rows(rows):
    rows = [Row(tuple(ws), s) for ws, s in rows]
    for fold in (False, True):
        tally = Counter()
        for weights, sign in map(fold_signs, rows) if fold else rows:
            tally[tuple(sorted(weights))] += sign
        expected = len(rows) % 2 == 0 and not any(tally.values())
        assert _cancels(rows, fold) == expected


# -- quasilinearity quick rejects ---------------------------------------------


def canonical(rows, mode):
    if mode == "L":
        rows = map(fold_signs, rows)
    return tuple(sorted(Row(tuple(sorted(r.weights, reverse=True)), r.sign) for r in rows))


def full_quasilinearity(matrix, mode):
    """The seed loop of ``quasilinearity_test`` with no reject before it."""
    targets = {canonical(matrix.rows, mode)}
    if mode == "L":
        targets.add(canonical((Row(w, -s) for w, s in matrix.rows), "L"))
    for sigma in product((1, -1) if mode == "L" else (1,), repeat=matrix.n):
        seed = (0, *(-s * w for s, w in zip(sigma, matrix.rows[0].weights)))
        if len(set(seed)) != len(seed):
            continue
        rows = (Row(tuple(a - b for b in seed if b != a), 1) for a in seed)
        if canonical(rows, mode) in targets:
            return seed
    return None


def quick_reject(matrix, mode):
    """Which quick reject ``matrix`` meets in ``mode``, if any."""
    if mode == "L":
        return None
    if any(sign < 0 for _, sign in matrix.rows):
        return "minus row"
    return "nonzero sum" if sum(w for weights, _ in matrix.rows for w in weights) else None


def quasilinearity_cases():
    """Every find of three sweeps, also with its first row's sign flipped,
    and every 3-row candidate of two small row universes."""
    for mode, m, n, bound in [("T", 3, 2, 6), ("L", 3, 2, 8), ("T", 2, 1, 5)]:
        for f in sweep(SearchSpec(m, n, bound, mode)).found:
            first, *rest = f.matrix.rows
            yield f.matrix
            yield WeightMatrix((Row(first.weights, -first.sign), *rest))
    for mode in "TL":
        yield from map(WeightMatrix, combinations_with_replacement(row_universe(2, 2, mode), 3))


def test_quick_rejects_agree_with_the_full_test():
    seen = Counter()
    for matrix in quasilinearity_cases():
        for mode in "TL":
            expected = full_quasilinearity(matrix, mode)
            assert quasilinearity_test(matrix, mode) == expected
            reject = quick_reject(matrix, mode)
            if reject:
                assert expected is None
            seen[reject or ("seed" if expected else "no seed")] += 1
    assert set(seen) == {"minus row", "nonzero sum", "seed", "no seed"}, seen


# -- templated report lines ---------------------------------------------------


def record(f):
    """A find's ``--out`` record as the report once built it."""
    return {
        "constant": str(f.constant),
        "constant_value": f.constant.constant_value() if f.constant.is_constant() else None,
        "kosniowski_ok": f.kosniowski_ok,
        "label": f.label.kind if f.label is not None else None,
        "pairable": f.pairable,
        "quasilinear": f.quasilinear_seed or None,
        "rows": [r.weights for r in f.matrix.rows],
        "signs": [r.sign for r in f.matrix.rows],
        "type": "find",
    }


def line(f):
    """A find's stdout line as the report once printed it."""
    return f"  {f.tag:<12} constant={str(f.constant):<20} {f.matrix}"


def old_stdout(report):
    """The whole stdout of a sweep as it was once printed."""
    spec, stats = report.spec, report.stats
    lines = [
        f"sweep m={spec.m} n={spec.n} bound={spec.bound} mode={spec.mode}",
        f"enumerated {stats.enumerated}, pre-filter rejected {stats.rejected}, "
        f"exact checks {stats.exact_checks}, found {len(report.found)}, "
        f"wall {stats.wall_time:.2f}s",
    ]
    lines += map(line, report.found)
    violations = report.violations()
    lines.append(f"CONJECTURE VIOLATIONS ({len(violations)}):" if violations
                 else "conjecture violations: none")
    for f in violations:
        flags = []
        if not f.kosniowski_ok:
            flags.append("fixed-point count below floor(n/2)+1 with nonzero constant")
        if not f.pairable:
            flags.append("weights admit no cross-row pairing")
        lines.append(f"  {f.matrix}: " + "; ".join(flags))
    anomalies = report.small_nonzero_anomalies() if spec.mode == "L" else ()
    if anomalies:
        lines.append(f"SMALL-m NONZERO-CONSTANT ANOMALIES ({len(anomalies)}):")
        lines += (f"  {f.matrix}: constant {f.constant}" for f in anomalies)
    return "\n".join(lines) + "\n"


def old_out(report):
    """The whole ``--out`` file of a sweep as it was once written."""
    spec, stats = report.spec, report.stats
    records = [{"bound": spec.bound, "check_budget": spec.check_budget,
                "enum_budget": spec.enum_budget, "m": spec.m, "mode": spec.mode, "n": spec.n,
                "sign_policy": None, "type": "spec"}]
    records += map(record, report.found)
    records.append({"enumerated": stats.enumerated, "exact_checks": stats.exact_checks,
                    "found": len(report.found), "rejected": stats.rejected, "type": "summary"})
    return "".join(cli._ENCODER.encode(r) + "\n" for r in records)


# Sweeps whose finds hold the labels Z and L1 (T m=2 n=1), S3 (T m=2 n=3),
# quasilinear seeds in T and L (m=3 n=2), constants that are non-constant
# forms (T mode) and nonzero integers (L mode).
SPECS = [("T", 2, 1, 5), ("T", 2, 3, 5), ("T", 3, 2, 6), ("L", 3, 2, 8), ("L", 4, 2, 5),
         ("L", 2, 1, 6)]


def made_up(rows, constant, label=None, seed=None, kosniowski_ok=True, pairable=True):
    matrix = WeightMatrix(tuple(Row(w, s) for w, s in rows))
    return Find(matrix, Form(constant), label, seed, kosniowski_ok, pairable)


# No small sweep finds an unclassified label, a violation or an L-mode
# anomaly, so these finds are made up, with their flags set by hand.
UNCLASSIFIED = ClassLabel("unclassified", reason="not rigid")
MADE_UP = {
    "T": (made_up([((2, -1), 1), ((1, 1), -1)], (1, -2, 1), UNCLASSIFIED, pairable=False),
          made_up([((1, 2), 1), ((-3, 1), 1), ((-2, -1), 1)], (0, 0, 5), None, (0, -2, 1),
                  kosniowski_ok=False),
          made_up([((4, 1), 1), ((4, 1), -1)], (0, 0, 0), ClassLabel("Z"))),
    "L": (made_up([((2, 1), 1), ((3, 1), 1)], (3,), UNCLASSIFIED, kosniowski_ok=False,
                  pairable=False),
          made_up([((2, 1), 1), ((1, -1), 1), ((1, 2), -1)], (-1,), None, (0, -1, 1)),
          made_up([((2, 2), 1), ((1, 1), -1), ((3, 3), 1)], (2,))),
}


def reports():
    for mode, m, n, bound in SPECS:
        yield sweep(SearchSpec(m, n, bound, mode))
    for mode, finds in MADE_UP.items():
        yield SearchReport(SearchSpec(3, 2, 4, mode), finds, SweepStats(10, 7, 3, 0.5))


def test_reports_cover_every_kind_of_line():
    finds = [(report.spec.mode, f) for report in reports() for f in report.found]
    assert {f.tag for _, f in finds} >= {"Z", "L1", "S3", "unclassified", "quasilinear", "-"}
    assert {mode for mode, f in finds if f.quasilinear_seed} == {"T", "L"}
    assert any(not f.constant.is_constant() for mode, f in finds if mode == "T")
    assert any(f.constant.is_constant() and not f.constant.is_zero() for _, f in finds)
    assert any(not f.pairable for _, f in finds) and any(not f.kosniowski_ok for _, f in finds)
    anomalies = [report.small_nonzero_anomalies() for report in reports()
                 if report.spec.mode == "L"]
    assert any(anomalies)


def test_find_lines_equal_the_record_dicts_and_matrix_strings():
    for report in reports():
        lines, outs = cli._find_lines(report.found)
        assert lines == [line(f) for f in report.found]
        assert list(outs) == [cli._ENCODER.encode(record(f)) + "\n" for f in report.found]


@pytest.mark.parametrize("out", [False, True])
def test_reports_print_and_write_as_before(out, tmp_path, monkeypatch, capsys):
    path = tmp_path / "out.jsonl"
    for report in reports():
        monkeypatch.setattr(cli, "sweep", lambda spec, **_: report)
        spec = report.spec
        argv = ["search", "--m", str(spec.m), "--n", str(spec.n), "--bound", str(spec.bound),
                "--mode", spec.mode] + (["--out", str(path)] if out else [])
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == old_stdout(report)
        if out:
            assert path.read_text() == old_out(report)

