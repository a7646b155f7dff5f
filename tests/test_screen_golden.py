"""``screen`` and ``chern`` output, byte for byte, on a fixed corpus.

``data/screen_golden.json`` holds 177 documents with |w| <= 12, drawn from
a seeded generator: 28 difference matrices with n = 1..7 (some with every
sign negated), 25 matrices whose rows cancel in pairs, 120 random matrices
with m in 1..6 and n in 1..7, the one-row ``1 2 / +: 1 2``, a seed
document, and the 2-sphere and 6-sphere pairs.  Next to each document it
records the exit code and stdout of ``screen``, of ``chern --partition
0,..,0,1`` (the signed fixed-point count) and of ``chern --partition
n,0,..,0`` (``c_1^n``), as produced when every screen value was summed
one exponent tuple at a time.
"""

import json
from pathlib import Path

import pytest

from rigidpow.cli import main, parse_matrix_text

CORPUS = json.loads((Path(__file__).parent / "data" / "screen_golden.json").read_text())


def argv(kind, path, n):
    if kind == "screen":
        return ["screen", str(path)]
    partition = [str(n)] + ["0"] * (n - 1) if kind == "chern_c1" else ["0"] * (n - 1) + ["1"]
    return ["chern", str(path), "--partition", ",".join(partition)]


def test_corpus_covers_every_screen_outcome():
    assert len(CORPUS) >= 150
    screens = [record["screen"]["stdout"] for record in CORPUS]
    assert any(out.startswith("realizability violations: none") for out in screens)
    assert any(out.startswith("realizability violations: 1\n") for out in screens)
    assert any("boundary candidate: all" in out for out in screens)
    assert any("not a boundary candidate" in out for out in screens)
    c1 = [record["chern_c1"]["stdout"] for record in CORPUS]
    assert any("(integer)" in out for out in c1) and any("(non-integer)" in out for out in c1)
    assert {parse_matrix_text(record["document"]).n for record in CORPUS} == set(range(1, 8))


@pytest.mark.parametrize("kind", ["screen", "chern_top", "chern_c1"])
def test_screen_and_chern_output_is_unchanged(kind, tmp_path, capsys):
    path = tmp_path / "doc.txt"
    for index, record in enumerate(CORPUS):
        path.write_text(record["document"])
        n = parse_matrix_text(record["document"]).n
        code = main(argv(kind, path, n))
        out = capsys.readouterr().out
        assert (code, out) == (record[kind]["exit"], record[kind]["stdout"]), index
