"""Command-line surface: document parsing, verdict output, exit codes,
and deterministic report files."""

import contextlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow import cli
from rigidpow.algebra import digit_count
from rigidpow.cli import (
    ParseError,
    main,
    parse_matrix_json,
    parse_matrix_text,
    render_matrix,
)
from rigidpow.search import SearchSpec, canonical_form
from matrix_helpers import wm


QUASILINEAR_DOC = "3 2\n+: -1 -2\n+: 1 -1\n+: 2 1\n"
S3_DOC = "2 3\n+: 1 1 -2\n+: -1 -1 2\n"
Z_DOC = "2 2\n+: 1 2\n-: 1 2\n"
SINGLE_DOC = "1 2\n+: 1 2\n"


# -- parsing and rendering ----------------------------------------------------


def test_parse_round_trip():
    matrix = parse_matrix_text(QUASILINEAR_DOC)
    assert matrix == wm(([-1, -2], 1), ([1, -1], 1), ([2, 1], 1))
    assert parse_matrix_text(render_matrix(matrix)) == matrix


def test_parse_accepts_comments_and_signed_tokens():
    doc = "# header\n2 1\n\n+1: 3\n-1: 3\n"
    assert parse_matrix_text(doc) == wm(([3], 1), ([3], -1))


def test_parse_quasilinear_seed_document():
    assert parse_matrix_text("quasilinear: 0 1 2\n") == parse_matrix_text(QUASILINEAR_DOC)
    with pytest.raises(ParseError):
        parse_matrix_text("quasilinear: 0 1 1\n")
    with pytest.raises(ParseError):
        parse_matrix_text("quasilinear: 0 a\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_matrix_text("2 1\n+: 1\n*: 2\n")
    assert info.value.line == 3
    with pytest.raises(ParseError) as info:
        parse_matrix_text("2 1\n+: 1\n+: 0\n")
    assert info.value.line == 3
    with pytest.raises(ParseError) as info:
        parse_matrix_text("nonsense\n")
    assert info.value.line == 1
    with pytest.raises(ParseError):
        parse_matrix_text("2 2\n+: 1 2\n")  # missing a row


def test_cli_round_trip_through_canonical_form(tmp_path):
    matrix = canonical_form(wm(([2, -1], -1), ([1, 1], 1)))
    path = tmp_path / "matrix.txt"
    path.write_text(render_matrix(matrix))
    assert canonical_form(parse_matrix_text(path.read_text())) == matrix


# -- subcommands ---------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_rigid(tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text(QUASILINEAR_DOC)
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert "Rigid, constant = x^2 - x*y + y^2" in out
    assert "(match)" in out


def test_check_quasilinear_seed_document(tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text("quasilinear: 0 1 2\n")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert "Rigid, constant = x^2 - x*y + y^2" in out


def test_check_l_mode(tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text(QUASILINEAR_DOC)
    code, out, _ = run_cli(capsys, "check", str(path), "--mode", "L")
    assert code == 0
    assert "integer value 1" in out


def test_check_not_rigid(tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text("2 1\n+: 1\n-: 2\n")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "NotRigid" in out
    assert "witness" in out


def test_check_malformed_document(tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text("not a matrix\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "line 1" in err


def test_check_json_document(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"rows": [{"sign": 1, "weights": [-1, -2]},
                                         {"sign": 1, "weights": [1, -1]},
                                         {"sign": 1, "weights": [2, 1]}]}))
    code, out, _ = run_cli(capsys, "check", str(path), "--json")
    assert code == 0
    assert "x^2 - x*y + y^2" in out


def test_classify(tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text(S3_DOC)
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0 and "classification: S3" in out

    path.write_text(SINGLE_DOC)
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2


def test_classify_prints_its_witness_point_as_numbers(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 2\n+: 1 2\n+: -1 -2\n"))
    code, out, _ = run_cli(capsys, "classify", "-")
    assert code == 0
    assert out == ("classification: unclassified (not rigid; at (z, x, y) = (2, 1, 1) "
                   "the value is 10, expected 2)\n")


def test_chern(tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text(S3_DOC)
    code, out, _ = run_cli(capsys, "chern", str(path), "--partition", "0,0,1")
    assert code == 0
    assert "2 (integer)" in out

    code, _, err = run_cli(capsys, "chern", str(path), "--partition", "0,1")
    assert code == 2


def test_unreadable_document_is_an_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "check", str(tmp_path / "absent.txt"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_screen(tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text(SINGLE_DOC)
    code, out, _ = run_cli(capsys, "screen", str(path))
    assert code == 0
    assert "realizability violations:" in out
    assert "(0, 0)" in out and "1/2" in out

    path.write_text(Z_DOC)
    code, out, _ = run_cli(capsys, "screen", str(path))
    assert code == 0
    assert "realizability violations: none" in out
    assert "boundary candidate: all Chern numbers vanish" in out


@pytest.mark.parametrize("n", [61, 1100])
def test_screen_past_its_column_limit_is_an_input_error(n, tmp_path, capsys):
    # the screens would walk sum_{k <= n} p(k) exponent tuples; at n = 1100
    # the walk once overflowed the recursion limit and exited 4
    path = tmp_path / "wide.txt"
    path.write_text(f"1 {n}\n+: " + " ".join(map(str, range(1, n + 1))) + "\n")
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "screen", str(path))
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert err == (f"error: the realizability and boundary screens take at most 60 columns, "
                   f"got n = {n}\n")


def test_quasilinear_command(capsys):
    code, out, _ = run_cli(capsys, "quasilinear", "0", "1", "2")
    assert code == 0
    assert out == QUASILINEAR_DOC
    code, _, err = run_cli(capsys, "quasilinear", "0", "1", "1")
    assert code == 2


def test_search_command_and_report_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    code, stdout, _ = run_cli(
        capsys, "search", "--m", "2", "--n", "1", "--bound", "3",
        "--mode", "T", "--out", str(out1),
    )
    assert code == 0
    assert "found 12" in stdout
    assert "conjecture violations: none" in stdout

    code, _, _ = run_cli(
        capsys, "search", "--m", "2", "--n", "1", "--bound", "3",
        "--mode", "T", "--shards", "3", "--out", str(out2),
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()

    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert records[0]["type"] == "spec"
    assert records[-1]["type"] == "summary"
    finds = [r for r in records if r["type"] == "find"]
    assert len(finds) == 12
    assert {r["label"] for r in finds} == {"Z", "L1"}


def test_l_mode_finds_below_the_kosniowski_floor_are_anomalies_not_violations(capsys):
    # the ten three-row L finds of n = 8, b = 7 are the Cayley plane's
    # fixed-point data: the floor, a conjecture about unitary actions, does
    # not apply to oriented data, but the finds are still surfaced
    code, stdout, _ = run_cli(
        capsys, "search", "--m", "3", "--n", "8", "--bound", "7", "--mode", "L",
        "--enum-budget", "1000000000000",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert "found 10" in lines[1]
    assert "conjecture violations: none" in lines
    anomalies = lines.index("SMALL-m NONZERO-CONSTANT ANOMALIES (10):")
    assert len(lines[anomalies + 1:]) == 10
    assert all(line.endswith(("constant 1", "constant -1")) for line in lines[anomalies + 1:])


def test_search_budget_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "search", "--m", "2", "--n", "1", "--bound", "5", "--budget", "2",
    )
    assert code == 3
    assert "partial" in err


def test_search_problem24(tmp_path, capsys):
    out = tmp_path / "sol.jsonl"
    code, stdout, _ = run_cli(
        capsys, "search", "--problem24", "--n", "2", "--bound", "4", "--out", str(out),
    )
    assert code == 0
    assert "4 solutions" in stdout
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(1 for r in records if r["type"] == "solution") == 4

    code, _, err = run_cli(capsys, "search", "--problem24", "--n", "2")
    assert (code, err) == (2, "error: --problem24 requires --n and --bound\n")


def test_search_missing_flags(capsys):
    code, _, err = run_cli(capsys, "search", "--m", "2")
    assert (code, err) == (2, "error: search requires --m, --n and --bound\n")


SWEEP_FLAGS = ["--m", "2", "--n", "1", "--bound", "3"]
PROBLEM24_FLAGS = ["--problem24", "--n", "2", "--bound", "3"]


def no_work(*args, **kwargs):
    raise AssertionError("the search ran")


@pytest.mark.parametrize("flags", [SWEEP_FLAGS, PROBLEM24_FLAGS])
def test_search_out_fails_before_the_work(flags, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sweep", no_work)
    monkeypatch.setattr(cli, "triple_identity_search", no_work)
    missing = tmp_path / "missing" / "x.jsonl"
    code, out, err = run_cli(capsys, "search", *flags, "--out", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--m", "0", "--n", "1", "--bound", "3"],
    ["--problem24", "--n", "0", "--bound", "3"],
    [*SWEEP_FLAGS, "--shards", "0"],
    [*PROBLEM24_FLAGS, "--workers", "0"],
])
def test_search_flag_errors_leave_out_unopened(flags, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sweep", no_work)
    monkeypatch.setattr(cli, "triple_identity_search", no_work)
    report = tmp_path / "report.jsonl"
    code, out, err = run_cli(capsys, "search", *flags, "--out", str(report))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not report.exists()


@pytest.mark.parametrize("flags, message", [
    # 4 * 10^9 rows: building them would exhaust memory long before a sweep
    (["--m", "2", "--n", "1", "--bound", "1000000000"],
     "the row universe of n = 1, bound = 1000000000 in T mode has more than 10000000 rows"),
    # the row list of a triple search is as large as an L-mode universe:
    # about 1.1e23 rows at n = 40, b = 40, and 2 * 10^9 at n = 1, b = 10^9
    (["--problem24", "--n", "40", "--bound", "40"],
     "the row list of n = 40, bound = 40 has more than 10000000 rows"),
    (["--problem24", "--n", "1", "--bound", "1000000000"],
     "the row list of n = 1, bound = 1000000000 has more than 10000000 rows"),
    # few rows of many weights: 6000002 rows of 3 * 10^6 weights, and 2
    # rows of 10^9 weights, in L mode and in the triple search's list
    (["--m", "2", "--n", "3000000", "--bound", "1"],
     "the row universe of n = 3000000, bound = 1 in T mode has more than 100000000 weights"),
    (["--m", "2", "--n", "1000000000", "--bound", "1", "--mode", "L"],
     "the row universe of n = 1000000000, bound = 1 in L mode has more than 100000000 weights"),
    (["--problem24", "--n", "1000000000", "--bound", "1"],
     "the row list of n = 1000000000, bound = 1 has more than 100000000 weights"),
])
def test_search_with_a_universe_past_the_cap_fails_at_once(flags, message, tmp_path, capsys):
    report = tmp_path / "x.jsonl"
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "search", *flags, "--out", str(report))
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_search_with_shards_past_the_row_universe_prints_the_same_report(workers, capsys):
    # m = 2, n = 1, b = 2 has 8 rows, so 10^9 shards walk 8 of them and
    # return at once; the budget caps still divide by the shard count, so
    # the report, and its exit code 3, are those of 10^7 shards
    reports = []
    for shards in ("1000000000", "10000000"):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "search", "--m", "2", "--n", "1", "--bound", "2",
                                 "--shards", shards, "--workers", workers)
        assert time.perf_counter() - started < 5
        assert code == 3 and "partial" in err
        reports.append(unwall(out))
    assert reports[0] == reports[1] != ""


def test_search_out_records_have_sorted_keys(tmp_path, capsys):
    # the encoder does not sort keys, so every record type is built sorted:
    # spec, find and summary of a sweep, solution and summary of --problem24
    sweep_out, triples_out = tmp_path / "sweep.jsonl", tmp_path / "triples.jsonl"
    assert run_cli(capsys, "search", "--m", "3", "--n", "2", "--bound", "4", "--mode", "L",
                   "--out", str(sweep_out))[0] == 0
    assert run_cli(capsys, "search", *PROBLEM24_FLAGS, "--out", str(triples_out))[0] == 0
    kinds = set()
    for path in sweep_out, triples_out:
        for line in path.read_text().splitlines():
            pairs = json.loads(line, object_pairs_hook=list)
            keys = [key for key, _ in pairs]
            assert keys == sorted(keys), line
            record = dict(pairs)
            kinds.add((record["type"], "solutions" in record,
                       record.get("quasilinear") is not None))
    assert {kind for kind, _, _ in kinds} == {"spec", "find", "summary", "solution"}
    assert ("summary", True, False) in kinds and ("find", False, True) in kinds


@pytest.mark.parametrize("flag", ["--shards", "--workers"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_search_problem24_rejects_shards_and_workers_below_1(flag, value, capsys):
    code, out, err = run_cli(capsys, "search", *PROBLEM24_FLAGS, flag, value)
    assert (code, out, err) == (2, "", "error: shards and workers must be at least 1\n")


@pytest.mark.parametrize("flags", [SWEEP_FLAGS, PROBLEM24_FLAGS])
@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_search_that_fails_keeps_the_old_out(flags, error, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "sweep", fail)
    monkeypatch.setattr(cli, "triple_identity_search", fail)
    stale = tmp_path / "stale.jsonl"
    stale.write_text("stale\n")
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(["search", *flags, "--out", str(stale)])
    else:
        assert run_cli(capsys, "search", *flags, "--out", str(stale))[0] == 4
    assert stale.read_text() == "stale\n"


class SummaryFails:
    """An encoder that encodes as ``cli._ENCODER`` does but raises
    ``error`` on a summary record, the last record of every report."""

    def __init__(self, error):
        self.error = error

    def encode(self, record):
        if type(record) is dict and record.get("type") == "summary":
            raise self.error
        return json.JSONEncoder(check_circular=False).encode(record)


@pytest.mark.parametrize("flags", [SWEEP_FLAGS, PROBLEM24_FLAGS])
@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_search_that_fails_while_rendering_keeps_the_old_out(flags, error, tmp_path, capsys,
                                                             monkeypatch):
    # the search has finished and its earlier records are rendered when the
    # summary record fails; the old report must still be there, unemptied
    monkeypatch.setattr(cli, "_ENCODER", SummaryFails(error))
    stale = tmp_path / "stale.jsonl"
    stale.write_bytes(b"stale\n" * 3)
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(["search", *flags, "--out", str(stale)])
    else:
        assert run_cli(capsys, "search", *flags, "--out", str(stale))[0] == 4
    assert stale.read_bytes() == b"stale\n" * 3


def test_search_out_is_truncated_and_written_at_the_end(tmp_path, capsys):
    fresh, stale = tmp_path / "fresh.jsonl", tmp_path / "stale.jsonl"
    stale.write_text("stale\n" * 1000)
    for report in fresh, stale:
        code, _, _ = run_cli(capsys, "search", *PROBLEM24_FLAGS, "--out", str(report))
        assert code == 0
    assert stale.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("flags", [SWEEP_FLAGS, PROBLEM24_FLAGS])
@pytest.mark.parametrize("size", ["longer", "same", "shorter"])
def test_search_rewrites_a_stale_out_in_place(flags, size, tmp_path, capsys):
    fresh, stale = tmp_path / "fresh.jsonl", tmp_path / "stale.jsonl"
    assert run_cli(capsys, "search", *flags, "--out", str(fresh))[0] == 0
    length = len(fresh.read_bytes()) + {"longer": 4096, "same": 0, "shorter": -20}[size]
    stale.write_bytes(b"x" * length)
    stale.chmod(0o640)
    before = stale.stat()
    assert run_cli(capsys, "search", *flags, "--out", str(stale))[0] == 0
    after = stale.stat()
    assert stale.read_bytes() == fresh.read_bytes()
    assert after.st_ino == before.st_ino
    assert after.st_mode & 0o7777 == 0o640


class CutShortWrite(io.TextIOWrapper):
    """A report handle whose write puts the first half of the text in the
    file, leaves a few more characters buffered and then raises ``error``,
    as a write cut short by a full disk or an interrupt would."""

    error: BaseException

    def write(self, text):
        half = len(text) // 2
        super().write(text[:half])
        self.flush()
        super().write(text[half:half + 10])
        raise self.error


@pytest.mark.parametrize("flags", [SWEEP_FLAGS, PROBLEM24_FLAGS])
@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_search_whose_write_is_cut_short_leaves_an_empty_out(flags, error, tmp_path, capsys,
                                                             monkeypatch):
    # the old report is longer than the new one: a cut-short rewrite must
    # not leave new lines followed by the old report's tail and summary
    monkeypatch.setattr(CutShortWrite, "error", error, raising=False)
    monkeypatch.setattr(cli, "open", lambda fd, mode, **kwargs: CutShortWrite(
        open(fd, "wb"), **kwargs), raising=False)
    stale = tmp_path / "stale.jsonl"
    stale.write_bytes(b'{"type": "summary"}\n' * 1000)
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(["search", *flags, "--out", str(stale)])
    else:
        code, _, err = run_cli(capsys, "search", *flags, "--out", str(stale))
        assert (code, err) == (2, "error: [Errno 28] No space left on device\n")
    assert stale.read_bytes() == b""


def unwall(stdout):
    return re.sub(r", wall [0-9.]+s", "", stdout)


@pytest.mark.parametrize("flags", [SWEEP_FLAGS, PROBLEM24_FLAGS])
def test_search_out_to_a_device_is_written_as_a_stream(flags, capsys):
    plain = run_cli(capsys, "search", *flags)
    to_null = run_cli(capsys, "search", *flags, "--out", os.devnull)
    assert plain[0] == to_null[0] == 0
    assert unwall(to_null[1]) == unwall(plain[1])
    assert to_null[2] == ""


@pytest.mark.parametrize("flags", [SWEEP_FLAGS, PROBLEM24_FLAGS])
def test_search_empty_out_path_fails_before_the_work(flags, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sweep", no_work)
    monkeypatch.setattr(cli, "triple_identity_search", no_work)
    code, out, err = run_cli(capsys, "search", *flags, "--out", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_search_help_shows_the_spec_budgets(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["search", "--help"])
    assert exit_.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"exact-check budget (default {SearchSpec.check_budget})" in out
    assert f"enumeration budget (default {SearchSpec.enum_budget})" in out


# -- strict integers -----------------------------------------------------------

ARABIC_10 = "١٠"  # Arabic-Indic digits one, zero
FULL_WIDTH_10 = "１０"  # full-width digits one, zero

NON_ASCII_INTEGER_DOCS = [
    # int() used to read both weights as 10: "Rigid, constant = 0", exit 0
    f"2 1\n+: 1_0\n-: {ARABIC_10}\n",
    "2 1\n+: 1_0\n-: 10\n",
    f"2 1\n+: {ARABIC_10}\n-: 10\n",
    f"2 1\n+: {FULL_WIDTH_10}\n-: 10\n",
    f"2 {FULL_WIDTH_10[0]}\n+: 10\n-: 10\n",
    "2_0 1\n+: 10\n-: 10\n",
    f"quasilinear: 0 1_0 {ARABIC_10[0]}\n",
    f"quasilinear: 0 1 {FULL_WIDTH_10}\n",
]


@pytest.mark.parametrize("text", NON_ASCII_INTEGER_DOCS)
def test_check_rejects_non_ascii_integers(text, tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    for mode in ("T", "L"):
        code, out, err = run_cli(capsys, "check", str(path), "--mode", mode)
        assert (code, out) == (2, "")
        assert err.startswith("error: line ")


@pytest.mark.parametrize("argv", [
    ["quasilinear", "0", "1_0", ARABIC_10[0]],
    ["quasilinear", "0", "1", FULL_WIDTH_10],
    ["search", "--m", "1", "--n", "1", "--bound", "٣"],
    *(["search", "--m", "2", "--n", "1", "--bound", "3", flag, value]
      for flag in ("--m", "--n", "--bound", "--budget", "--enum-budget", "--shards", "--workers")
      # each reads as 1 under int(), so a regression is a quick sweep, not a hang
      for value in ("0_1", ARABIC_10[0], FULL_WIDTH_10[0])),
])
def test_integer_flags_reject_non_ascii_digits(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("partition", ["0,1_0", f"0,{ARABIC_10}", f"{FULL_WIDTH_10[0]},1"])
def test_chern_partition_rejects_non_ascii_digits(partition, tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text(QUASILINEAR_DOC)
    code, out, err = run_cli(capsys, "chern", str(path), "--partition", partition)
    assert (code, out) == (2, "")
    assert "--partition" in err


def test_integer_accepts_signed_ascii_only():
    assert [cli.integer(t) for t in ("0", "17", "-3", "+4", "007")] == [0, 17, -3, 4, 7]
    for token in ("", "+", "1.0", " 1", "1 ", "1\n", "0x1", "1_0", ARABIC_10, FULL_WIDTH_10):
        with pytest.raises(ValueError):
            cli.integer(token)


# -- strict JSON input ---------------------------------------------------------


MALFORMED_JSON = [
    # a float weight used to be truncated to 1, giving a wrong verdict
    '{"rows": [{"sign": 1, "weights": [1.7]}, {"sign": 1, "weights": [-1]}]}',
    # JSON true used to be read as the sign +1
    '{"rows": [{"sign": true, "weights": [1]}, {"sign": 1, "weights": [-1]}]}',
    # a non-list rows value used to crash with exit 1, which reads as a verdict
    '{"rows": 5}',
]


@pytest.mark.parametrize("text", MALFORMED_JSON + ['{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}"])
def test_check_rejects_malformed_json(text, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "check", str(path), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def run_check_json(text):
    with patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", "-", "--json"])
    return code, out.getvalue()


NON_INTEGERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.text(max_size=3),
    st.none(), st.lists(st.integers(), max_size=2),
)
VALID_WEIGHTS = st.lists(st.integers(-5, 5).filter(bool), min_size=2, max_size=2)


@st.composite
def malformed_json_documents(draw):
    """A document that is malformed in exactly one, randomly chosen, way."""
    rows = [{"sign": draw(st.sampled_from((1, -1))), "weights": draw(VALID_WEIGHTS)}
            for _ in range(draw(st.integers(1, 3)))]
    i = draw(st.integers(0, len(rows) - 1))
    flaw = draw(st.sampled_from(
        ["syntax", "top", "rows", "entry", "weights", "weight", "sign", "sign-value",
         "zero", "length", "empty"]))
    if flaw == "syntax":
        text = json.dumps({"rows": rows})
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = {"rows": rows}
    if flaw == "top":
        doc = draw(st.one_of(NON_INTEGERS, st.integers(), st.just({"row": rows})))
    elif flaw == "rows":
        doc["rows"] = draw(st.one_of(NON_INTEGERS.filter(lambda v: not isinstance(v, list)),
                                     st.integers(), st.just({})))
    elif flaw == "entry":
        rows[i] = draw(st.one_of(NON_INTEGERS, st.integers(), st.just({"sign": 1})))
    elif flaw == "weights":
        rows[i]["weights"] = draw(st.one_of(NON_INTEGERS.filter(lambda v: not isinstance(v, list)),
                                            st.integers()))
    elif flaw == "weight":
        rows[i]["weights"][draw(st.integers(0, 1))] = draw(NON_INTEGERS)
    elif flaw == "sign":
        rows[i]["sign"] = draw(NON_INTEGERS)
    elif flaw == "sign-value":
        rows[i]["sign"] = draw(st.integers().filter(lambda s: s not in (1, -1)))
    elif flaw == "zero":
        rows[i]["weights"][draw(st.integers(0, 1))] = 0
    elif flaw == "length":
        rows[i]["weights"] = rows[i]["weights"][:1]
        if len(rows) == 1:
            rows.append({"sign": 1, "weights": [1, 2]})
    else:
        doc["rows"] = []
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(malformed_json_documents())
def test_no_malformed_json_document_gets_a_verdict(text):
    code, out = run_check_json(text)
    assert code == 2
    assert "Rigid" not in out


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(VALID_WEIGHTS, st.sampled_from((1, -1))), min_size=1, max_size=3))
def test_well_formed_json_matches_text_document(rows):
    doc = {"rows": [{"sign": s, "weights": ws} for ws, s in rows]}
    assert parse_matrix_json(json.dumps(doc)) == wm(*rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-10**6, 10**6).filter(bool), min_size=3, max_size=3),
                          st.sampled_from((1, -1))), min_size=1, max_size=4))
def test_render_parse_round_trip(rows):
    matrix = wm(*rows)
    assert parse_matrix_text(render_matrix(matrix)) == matrix


# -- exit codes and bounded output ---------------------------------------------


needs_str_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter converts integers of any length to str")


def run_cli_with_str_limit(capsys, *argv):
    """run_cli under Python's default 4300-digit int-to-str limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        return run_cli(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)


@needs_str_limit
def test_check_huge_witness_prints_digit_counts(tmp_path, capsys):
    # The witness value at z0 = 2 has over 30000 digits, beyond what Python
    # converts to str by default; the verdict must still come out whole,
    # with exit 1.
    path = tmp_path / "doc.txt"
    path.write_text("2 1\n+: 99999\n+: 1\n")
    code, out, err = run_cli_with_str_limit(capsys, "check", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "NotRigid",
        "witness: z0 = 2, (x0, y0) = (1, 1): value = <30104 digits>/<30103 digits>, expected = 2",
        "residual: lowest z-degree 0, coefficient -2*x - 2*y",
    ]
    code, out, _ = run_cli_with_str_limit(capsys, "classify", str(path))
    assert code == 0 and "value is <30104 digits>/<30103 digits>" in out


@needs_str_limit
def test_chern_huge_value_prints_digit_count(tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text("1 1\n+: 5\n")
    code, out, err = run_cli_with_str_limit(capsys, "chern", str(path), "--partition", "10000")
    # c1^10000 / 5 = 5^9999, which has floor(9999 * log10(5)) + 1 = 6990 digits
    assert (code, err) == (0, "")
    assert out == "chern number for exponents (10000,): <6990 digits> (integer)\n"


@needs_str_limit
@pytest.mark.parametrize("command", [["check"], ["check", "--mode", "L"], ["screen"],
                                     ["chern", "--partition", "1"]])
def test_over_long_weight_is_a_parse_error_with_its_line(command, tmp_path, capsys):
    # 5000 digits is past the int-conversion limit, so int() raises a bare
    # ValueError there; the document error must still name its line
    path = tmp_path / "doc.txt"
    path.write_text(f"2 1\n+: {'7' * 5000}\n-: 1\n")
    code, out, err = run_cli_with_str_limit(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == f"error: line 2: weights must be integers: {'7' * 5000!r}\n"


@settings(max_examples=200)
@given(st.integers(-10**60, 10**60))
def test_digit_count(value):
    assert digit_count(value) == len(str(abs(value)))


def test_digit_count_at_powers_of_ten():
    for k in range(1, 80):
        assert digit_count(10**k) == k + 1
        assert digit_count(10**k - 1) == k


def test_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch):
    def broken(matrix):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "is_rigid", broken)
    path = tmp_path / "doc.txt"
    path.write_text(QUASILINEAR_DOC)
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (4, "")
    assert err == "error: internal error: RuntimeError: boom\n"


def test_package_exports_the_readme_names():
    import rigidpow

    assert sorted(rigidpow.__all__) == ["SearchSpec", "is_rigid", "quasilinear", "sweep"]
    assert str(rigidpow.is_rigid(rigidpow.quasilinear([0, 1, 2])).constant) == "x^2 - x*y + y^2"


def test_python_m_rigidpow_pipes_quasilinear_into_check():
    # the package as imported here: a checkout's src/ or an installed copy
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    doc = subprocess.run([sys.executable, "-m", "rigidpow", "quasilinear", "0", "1", "2"],
                         capture_output=True, text=True, env=env, check=True).stdout
    proc = subprocess.run([sys.executable, "-m", "rigidpow", "check", "-"], input=doc,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "Rigid, constant = x^2 - x*y + y^2"



def test_importing_the_cli_loads_no_dataclasses_or_process_pool():
    # startup is most of a small command's time: the records generate no
    # methods (dataclasses, and with it inspect), and the pool
    # (multiprocessing) is imported only by a sweep that runs one
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    code = ("import sys, rigidpow.cli; print([m for m in ('dataclasses', 'inspect', "
            "'concurrent.futures', 'multiprocessing') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

# -- the packed decision's width limit ----------------------------------------

HUGE_WEIGHT_DOCS = [
    ("2 1\n+: 1000000000\n-: 1000000000\n", "T",
     ["Rigid, constant = 0", "cross-check, sign-count constant: 0 (match)"]),
    ("2 1\n+: 1000000000\n-: 1000000000\n", "L",
     ["Rigid, constant = 0 (integer value 0)", "cross-check, sign-count constant: 0 (match)"]),
    ("2 2\n+: 1000000000 3\n-: 3 1000000000\n", "T",
     ["Rigid, constant = 0", "cross-check, sign-count constant: 0 (match)"]),
    ("2 2\n+: 1000000000 3\n-: 3 1000000000\n", "L",
     ["Rigid, constant = 0 (integer value 0)", "cross-check, sign-count constant: 0 (match)"]),
    ("quasilinear: 0 1 1000000000\n", "T",
     ["Rigid, constant = x^2 - x*y + y^2",
      "cross-check, sign-count constant: x^2 - x*y + y^2 (match)"]),
    ("quasilinear: 0 1 1000000000\n", "L",
     ["Rigid, constant = 1 (integer value 1)", "cross-check, sign-count constant: 1 (match)"]),
]


@pytest.mark.parametrize("text, mode, lines", HUGE_WEIGHT_DOCS)
def test_check_huge_weights_stays_sparse(text, mode, lines, tmp_path, capsys):
    # Packed densely in z, these would need integers of gigabytes; above the
    # width limit the decision runs on the sparse series instead.
    path = tmp_path / "doc.txt"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", str(path), "--mode", mode)
    assert time.perf_counter() - start < 5.0
    assert (code, out.splitlines(), err) == (0, lines, "")


WIDE_DOC = "2 2\n+: 1000000000 3\n-: 3 1000000001\n"

# Not rigid and too wide to pack: the sparse series decides and reports the
# residual alone, since a value at z0 = 2 would have a billion bits.
WIDE_NOT_RIGID = [
    (WIDE_DOC, ["check", "-"], 1,
     ["NotRigid", "residual: lowest z-degree 1000000000, coefficient -x*y - y^2"]),
    (WIDE_DOC, ["check", "-", "--mode", "L"], 1,
     ["NotRigid", "residual: lowest z-degree 1000000000, coefficient -2"]),
    (WIDE_DOC, ["classify", "-"], 0,
     ["classification: unclassified (not rigid; residual numerator has nonzero "
      "coefficient -x*y - y^2 at z-degree 1000000000)"]),
    ("2 1\n+: 1000000000\n-: 1000000001\n", ["check", "-"], 1,
     ["NotRigid", "residual: lowest z-degree 1000000000, coefficient -x - y"]),
]


@pytest.mark.parametrize("text, argv, code, lines", WIDE_NOT_RIGID,
                         ids=["check-T", "check-L", "classify", "check-n1"])
def test_wide_not_rigid_matrix_answers_without_a_witness_point(text, argv, code, lines):
    # In a child process, so that a hang fails this test at the timeout
    # instead of stalling the suite.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rigidpow", *argv], input=text,
                          capture_output=True, text=True, env=env, timeout=5)
    assert (proc.returncode, proc.stdout.splitlines(), proc.stderr) == (code, lines, "")


def wide_random_doc(n):
    """A ``+`` row, then a ``-`` row, of ``n`` seeded weights in
    [10^8, 10^9]: 2n distinct factors, whose full product would have up
    to 2^(2n) terms."""
    rng = random.Random(1)
    rows = [" ".join(str(rng.randint(10**8, 10**9)) for _ in range(n)) for _ in "+-"]
    return f"2 {n}\n+: {rows[0]}\n-: {rows[1]}\n"


# Near z = 0 each factor (x z^w + y) / (z^w - 1) is -(y + (x + y) z^w + ...),
# so the rows first differ at the smallest weight, 130437866 in the - row:
# the residual there is -(-1)^n (x y^(n-1) + y^n), or -(-1)^n 2 at x = y = 1.
WIDE_RANDOM = [
    (11, "T", "x*y^10 + y^11"),
    (11, "L", "2"),
    (12, "T", "-x*y^11 - y^12"),
    (12, "L", "-2"),
]


@pytest.mark.parametrize("n, mode, coefficient", WIDE_RANDOM,
                         ids=["n11-T", "n11-L", "n12-T", "n12-L"])
def test_wide_random_weights_find_the_lowest_residual_first(n, mode, coefficient):
    # Built lowest z-degree first, the residual stops at its first nonzero
    # term instead of expanding every product; in a child process, so that
    # a hang or a blow-up fails this test at the 5-s ceiling.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rigidpow", "check", "-", "--mode", mode],
                          input=wide_random_doc(n), capture_output=True, text=True, env=env,
                          timeout=5)
    lines = ["NotRigid", f"residual: lowest z-degree 130437866, coefficient {coefficient}"]
    assert (proc.returncode, proc.stdout.splitlines(), proc.stderr) == (1, lines, "")


# -- one parser per process ----------------------------------------------------


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exit_:
        main(["check", str(tmp_path / "doc.txt"), "--mode", "X"])
    assert exit_.value.code == 2
    capsys.readouterr()

    path = tmp_path / "doc.txt"
    path.write_text(QUASILINEAR_DOC)
    code, out, _ = run_cli(capsys, "check", str(path))
    assert (code, out.splitlines()[0]) == (0, "Rigid, constant = x^2 - x*y + y^2")

    def search(*flags):
        report = tmp_path / "report.jsonl"
        code, _, _ = run_cli(capsys, "search", "--m", "2", "--n", "1", "--bound", "3",
                             "--out", str(report), *flags)
        spec = json.loads(report.read_text().splitlines()[0])
        return code, spec["check_budget"], spec["enum_budget"]

    # 12 finds: a budget of 5 runs out
    assert search("--budget", "5") == (3, 5, SearchSpec.enum_budget)
    assert search() == (0, SearchSpec.check_budget, SearchSpec.enum_budget)


@pytest.mark.parametrize("first, second", [
    (["check", "a.txt", "--mode", "L", "--json"], ["check", "b.txt"]),
    (["search", "--m", "2", "--n", "3", "--bound", "5", "--budget", "7", "--out", "r.jsonl"],
     ["search", "--problem24", "--n", "2", "--bound", "3"]),
])
def test_two_walks_in_a_row_share_no_values(first, second):
    # the walk starts from defaults built once with the parser, so each walk
    # must take its own copy of them
    commands = cli.build_parser().commands
    walked = [cli._walk(argv, commands) for argv in (first, second, first)]
    assert walked == [cli.build_parser.__wrapped__().parse_args(argv)
                      for argv in (first, second, first)]


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["search", "--help"]])
def test_cached_parser_help_matches_a_fresh_parser(argv, capsys):
    outputs = []
    for parse in (main, cli.build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exit_:
            parse(argv)
        assert exit_.value.code == 0
        outputs.append(capsys.readouterr().out)
    main(["quasilinear", "0", "1"])  # the cached parser, used again
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(argv)
    assert outputs[0] == outputs[1] == capsys.readouterr().out
