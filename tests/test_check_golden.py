"""``check`` and ``check --mode L`` output, byte for byte, on a fixed corpus.

``data/check_golden.json`` holds 220 documents with |w| <= 12, drawn from a
seeded generator: 50 difference matrices (some with every sign negated),
30 cancelling pairs, mirror pairs and 6-sphere pairs, and 140 random
matrices with m, n in 1..5.  Next to each document it records the exit code
and stdout of both modes, as produced by the earlier general
bivariate/Laurent implementation of the symbolic core.

``data/check_tall_golden.json`` holds 12 taller documents, recorded the
same way by the implementation that summed the packed residual row by row:
difference matrices of n = 6 and n = 7 (random seeds and an arithmetic
progression, and one with a weight moved), random matrices of 12 to 32
rows, 16 rows of four stacked n = 3 difference matrices, which are rigid,
and the same with one weight's sign flipped, and 12 rows of weights near
a million, held sparse in z.
"""

import json
from pathlib import Path

import pytest

from rigidpow.cli import main

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "check_golden.json").read_text())
TALL = json.loads((DATA / "check_tall_golden.json").read_text())


def test_corpus_covers_both_verdicts():
    assert len(CORPUS) >= 200
    for mode in ("T", "L"):
        codes = {record[mode]["exit"] for record in CORPUS}
        assert codes == {0, 1}


def assert_unchanged(corpus, mode, path, capsys):
    for index, record in enumerate(corpus):
        path.write_text(record["document"])
        code = main(["check", str(path), "--mode", mode])
        out = capsys.readouterr().out
        assert (code, out) == (record[mode]["exit"], record[mode]["stdout"]), index


@pytest.mark.parametrize("mode", ["T", "L"])
def test_check_output_is_unchanged(mode, tmp_path, capsys):
    assert_unchanged(CORPUS, mode, tmp_path / "doc.txt", capsys)


def test_tall_corpus_covers_both_verdicts():
    assert len(TALL) == 12
    assert max(len(record["document"].splitlines()) - 1 for record in TALL) == 32
    for mode in ("T", "L"):
        assert {record[mode]["exit"] for record in TALL} == {0, 1}


@pytest.mark.parametrize("mode", ["T", "L"])
def test_tall_check_output_is_unchanged(mode, tmp_path, capsys):
    assert_unchanged(TALL, mode, tmp_path / "doc.txt", capsys)
