"""``search`` exit codes and ``--out`` bytes on a fixed grid of invocations.

``data/search_golden.json`` records, for each invocation in ``GRID``, the
exit code and the sha256 of the ``--out`` file, as produced by the
implementation that packed candidates into ``array('q')`` buffers.  The
grid covers T and L modes with m = 1..4, sharded and multi-process runs,
enumeration budgets below, at and just past the 1024-candidate chunk
boundary (exit 3), exact-check budgets of 3 and 5, and ``--problem24``.

Re-record (only at a commit whose outputs are known to be right) with::

    PYTHONPATH=src python tests/test_search_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from rigidpow.cli import main

DATA = Path(__file__).parent / "data" / "search_golden.json"


def _spec(mode, m, n, bound, *flags):
    return ["search", "--mode", mode, "--m", str(m), "--n", str(n), "--bound", str(bound),
            *map(str, flags)]


GRID = [
    # complete sweeps, m = 1..4
    _spec("T", 1, 1, 4), _spec("T", 1, 2, 3), _spec("T", 2, 1, 4), _spec("T", 2, 2, 3),
    _spec("T", 2, 3, 2), _spec("T", 3, 1, 3), _spec("T", 3, 2, 2), _spec("T", 4, 1, 2),
    _spec("T", 4, 1, 3),
    _spec("L", 1, 2, 4), _spec("L", 2, 1, 6), _spec("L", 2, 2, 4), _spec("L", 3, 1, 5),
    _spec("L", 3, 2, 4), _spec("L", 4, 1, 4), _spec("L", 4, 2, 3),
    # shards, and shards in worker processes
    _spec("T", 2, 2, 3, "--shards", 3), _spec("T", 4, 1, 3, "--shards", 3),
    _spec("L", 3, 2, 4, "--shards", 3),
    _spec("T", 2, 1, 4, "--shards", 2, "--workers", 2),
    _spec("L", 3, 2, 4, "--shards", 2, "--workers", 2),
    # enumeration budgets around the 1024-candidate chunk (T m=2 n=2 b=4 has 2628)
    *(_spec("T", 2, 2, 4, "--enum-budget", b)
      for b in (50, 700, 1023, 1024, 1025, 2048, 2627, 2628)),
    *(_spec("T", 2, 2, 4, "--shards", 3, "--enum-budget", b) for b in (1025, 3072, 3075)),
    *(_spec("L", 3, 2, 4, "--enum-budget", b) for b in (1024, 1025)),
    # exact-check budgets
    *(_spec("T", 2, 2, 4, "--budget", b) for b in (3, 5)),
    *(_spec("L", 3, 2, 4, "--budget", b) for b in (3, 5)),
    _spec("T", 2, 2, 4, "--shards", 3, "--budget", 5),
    _spec("T", 2, 2, 4, "--enum-budget", 1025, "--budget", 5),
    # signature-sum identity triples
    *(["search", "--problem24", "--n", str(n), "--bound", str(b)]
      for n, b in ((1, 5), (2, 4), (3, 4))),
]


def run(argv, out_path):
    """Exit code and ``--out`` sha256 of one invocation."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", str(out_path)])
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest() if out_path.exists() else None
    return {"exit": code, "sha256": digest}


RECORDS = json.loads(DATA.read_text()) if DATA.exists() else []


def test_records_cover_the_grid():
    assert [record["argv"] for record in RECORDS] == GRID
    assert {record["exit"] for record in RECORDS} == {0, 3}


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"][1:]) for r in RECORDS])
def test_search_out_is_unchanged(record, tmp_path):
    got = run(record["argv"], tmp_path / "out.jsonl")
    assert got == {"exit": record["exit"], "sha256": record["sha256"]}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        records = [{"argv": argv, **run(argv, Path(scratch) / "out.jsonl")} for argv in GRID]
    DATA.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} invocations in {DATA}")
