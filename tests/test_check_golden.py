"""``check`` and ``check --mode L`` output, byte for byte, on a fixed corpus.

``data/check_golden.json`` holds 220 documents with |w| <= 12, drawn from a
seeded generator: 50 difference matrices (some with every sign negated),
30 cancelling pairs, mirror pairs and 6-sphere pairs, and 140 random
matrices with m, n in 1..5.  Next to each document it records the exit code
and stdout of both modes, as produced by the earlier general
bivariate/Laurent implementation of the symbolic core.
"""

import json
from pathlib import Path

import pytest

from rigidpow.cli import main

CORPUS = json.loads((Path(__file__).parent / "data" / "check_golden.json").read_text())


def test_corpus_covers_both_verdicts():
    assert len(CORPUS) >= 200
    for mode in ("T", "L"):
        codes = {record[mode]["exit"] for record in CORPUS}
        assert codes == {0, 1}


@pytest.mark.parametrize("mode", ["T", "L"])
def test_check_output_is_unchanged(mode, tmp_path, capsys):
    path = tmp_path / "doc.txt"
    for index, record in enumerate(CORPUS):
        path.write_text(record["document"])
        code = main(["check", str(path), "--mode", mode])
        out = capsys.readouterr().out
        assert (code, out) == (record[mode]["exit"], record[mode]["stdout"]), index
