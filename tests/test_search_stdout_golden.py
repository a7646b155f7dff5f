"""``search`` stdout on the grid of ``search_grid``.

``data/search_stdout_golden.json`` records, for each invocation in
``GRID``, the sha256 of its stdout: the sweep header, every find line, the
conjecture violations and, in L mode, the small-m anomalies, or the
``--problem24`` solution lines.  The one field that varies between runs,
``wall <seconds>s``, is masked before hashing.  The digests were recorded
by the implementation that printed each find line with its own ``print``.

No sweep of the grid finds a conjecture violation or an L-mode anomaly, so
those sections are pinned on a made-up report instead, whose expected text
was recorded by that implementation too.

Re-record (only at a commit whose outputs are known to be right) with::

    PYTHONPATH=src python tests/test_search_stdout_golden.py
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from rigidpow import cli
from rigidpow.algebra import Form
from rigidpow.cli import main
from rigidpow.rigidity import Row, WeightMatrix
from rigidpow.search import Find, SearchReport, SearchSpec, SweepStats
from search_grid import GRID

DATA = Path(__file__).parent / "data" / "search_stdout_golden.json"
_WALL = re.compile(r"wall [0-9.]+s")


def run(argv):
    """Exit code and sha256 of the masked stdout of one invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = _WALL.sub("wall -s", out.getvalue())
    return {"exit": code, "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}


RECORDS = json.loads(DATA.read_text()) if DATA.exists() else []


def test_records_cover_the_grid():
    assert [record["argv"] for record in RECORDS] == GRID


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"][1:]) for r in RECORDS])
def test_search_stdout_is_unchanged(record):
    got = run(record["argv"])
    assert got == {"exit": record["exit"], "stdout_sha256": record["stdout_sha256"]}


def find(rows, constant, kosniowski_ok=True, pairable=True):
    matrix = WeightMatrix(tuple(Row(w, s) for w, s in rows))
    return Find(matrix, Form(constant), None, None, kosniowski_ok, pairable)


# Not sweep results: each find's flags are set by hand, so that the report
# holds both kinds of violation and both kinds of anomaly.
MADE_UP_FINDS = (
    find([((2, 1), 1), ((2, 1), 1)], (2,)),
    find([((3, 1), 1), ((2, -1), -1), ((1, 1), 1)], (3,), pairable=False),
    find([((2, 2), 1), ((1, 1), -1), ((3, 3), 1)], (0,), kosniowski_ok=False),
    find([((1, 1), 1), ((1, 1), 1), ((1, 1), 1)], (-1,), kosniowski_ok=False, pairable=False),
)

MADE_UP_REPORT = """\
sweep m=2 n=2 bound=3 mode={mode}
enumerated 9, pre-filter rejected 5, exact checks 4, found 4, wall 0.00s
  -            constant=2                    [+: 2 1; +: 2 1]
  -            constant=3                    [+: 3 1; -: 2 -1; +: 1 1]
  -            constant=0                    [+: 2 2; -: 1 1; +: 3 3]
  -            constant=-1                   [+: 1 1; +: 1 1; +: 1 1]
CONJECTURE VIOLATIONS (3):
  [+: 3 1; -: 2 -1; +: 1 1]: weights admit no cross-row pairing
  [+: 2 2; -: 1 1; +: 3 3]: fixed-point count below floor(n/2)+1 with nonzero constant
  [+: 1 1; +: 1 1; +: 1 1]: fixed-point count below floor(n/2)+1 with nonzero constant; \
weights admit no cross-row pairing
"""

MADE_UP_ANOMALIES = """\
SMALL-m NONZERO-CONSTANT ANOMALIES (2):
  [+: 2 1; +: 2 1]: constant 2
  [+: 3 1; -: 2 -1; +: 1 1]: constant 3
"""


@pytest.mark.parametrize("mode", ["T", "L"])
def test_violations_and_anomalies_are_printed_unchanged(mode, monkeypatch, capsys):
    report = SearchReport(SearchSpec(2, 2, 3, mode), MADE_UP_FINDS, SweepStats(9, 5, 4, 0.0))
    monkeypatch.setattr(cli, "sweep", lambda spec, **_: report)
    assert main(["search", "--m", "2", "--n", "2", "--bound", "3", "--mode", mode]) == 0
    expected = MADE_UP_REPORT.format(mode=mode) + (MADE_UP_ANOMALIES if mode == "L" else "")
    assert capsys.readouterr().out == expected


if __name__ == "__main__":
    records = [{"argv": argv, **run(argv)} for argv in GRID]
    DATA.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} invocations in {DATA}")
