"""``search`` exit codes and ``--out`` bytes on a fixed grid of invocations.

``data/search_golden.json`` records, for each invocation in ``GRID`` (see
``search_grid``), the exit code and the sha256 of the ``--out`` file, as
produced by the implementation that packed candidates into ``array('q')``
buffers.

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
from search_grid import GRID

DATA = Path(__file__).parent / "data" / "search_golden.json"


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
