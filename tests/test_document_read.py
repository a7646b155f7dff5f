"""The one-read document loader against a text-mode read.

``cli._load_matrix`` reads a path's bytes in one unbuffered read, decodes
them as UTF-8 and translates ``\\r\\n`` and lone ``\\r`` itself.  Each
document below, written as bytes, goes through every document command
twice: as the program reads it, and with ``read_oracle.load_matrix`` (a
text-mode read) in its place.  Exit code, stdout and stderr must be equal,
so line numbers in errors and decode-error messages are the same.
"""

import itertools
import os
import threading
from unittest.mock import patch

import pytest

from rigidpow import cli

import read_oracle

RIGID = [b"3 2", b"+: -1 -2", b"+: 1 -1", b"+: 2 1"]
NOT_RIGID = [b"# two rows", b"2 2", b"", b"+: 1 2", b"-: 1 3"]
BAD_ROW = [b"3 2", b"+: -1 -2", b"# a comment", b"+: 1 -1", b"", b"+: 2 x"]
CP7 = [b"8 7", b"+: 1 3 7 16 6 15 13", b"+: -1 2 6 15 5 14 12", b"+: -3 -2 4 13 3 12 10",
       b"+: -7 -6 -4 9 -1 8 6", b"+: -16 -15 -13 -9 -10 -1 -3", b"+: -6 -5 -3 1 10 9 7",
       b"+: -15 -14 -12 -8 1 -9 -2", b"+: -13 -12 -10 -6 3 -7 2"]
ENDINGS = [b"\n", b"\r\n", b"\r", b"\r\r\n"]
MIXES = [[b"\r", b"\n"], [b"\r\n", b"\r"], [b"\r\r\n", b"\n", b"\r"], [b"\n\r", b"\r\n"]]


def joined(lines, endings, last=True):
    """``lines`` with the ``endings`` in turn after each, and after the
    last one only if ``last``."""
    ends = itertools.cycle(endings)
    pieces = [line + next(ends) for line in lines]
    if not last:
        pieces[-1] = lines[-1]
    return b"".join(pieces)


def line_documents():
    docs = {}
    for ending in ENDINGS:
        docs[f"rigid-{ending!r}"] = joined(RIGID, [ending])
        docs[f"not-rigid-{ending!r}-unended"] = joined(NOT_RIGID, [ending], last=False)
        docs[f"bad-row-{ending!r}"] = joined(BAD_ROW, [ending])
    for mix in MIXES:
        docs[f"rigid-mix-{mix!r}"] = joined(RIGID, mix)
        docs[f"bad-row-mix-{mix!r}"] = joined(BAD_ROW, mix, last=False)
    docs.update({
        "cp7-crlf": joined(CP7, [b"\r\n"]),
        "cp7-cr": joined(CP7, [b"\r"]),
        "seeds-cr": b"quasilinear: 0 1 2\r",
        "seeds-then-row-cr": b"quasilinear: 0 1 2\r\r+: 1 2\r",
        "bom": b"\xef\xbb\xbf" + joined(RIGID, [b"\n"]),
        "bom-cr": b"\xef\xbb\xbf" + joined(RIGID, [b"\r"]),
        "invalid-utf8": b"3 2\r\n+: -1 -2\r\n\xff\r\n+: 2 1\r\n",
        "invalid-utf8-after-cr": b"3 2\r+: -1 -2\r+: 1 -1\r\xc3\x28\r",
        "truncated-utf8": b"3 2\r+: -1 -2\r+: 1 -1\r+: 2 1\xe2\x82",
        "non-ascii-cr": b"3 2\r+: -1\xc2\xa0-2\r+: 1 \xe2\x80\x83-1\r+: 2 \xef\xbc\x91\r",
        "next-line-cr": b"3 2\r+: -1 -2\xc2\x85+: 1 -1\r+: 2 1\r",
        "empty": b"",
        "only-endings": b"\r\r\n\r\n\r",
    })
    return docs


def json_documents():
    rows = [b'{"sign": 1, "weights": [-1, -2]}', b'{"sign": 1, "weights": [1, -1]}',
            b'{"sign": 1, "weights": [2, 1]}']
    return {
        "json-cr": b'{"rows": [\r' + b",\r".join(rows) + b"\r]}\r",
        "json-mixed": b'{\r\n"rows": [\r' + b",\n".join(rows) + b"\r\r\n]}",
        "json-cr-then-syntax-error": b'{"rows":\r[\r' + rows[0] + b",\r]}\r",
        "json-crlf-then-syntax-error": b'{"rows":\r\n[\r\n' + rows[0] + b"\r\n\r\n}",
        "json-cr-cr-lf-then-syntax-error": b'{\r\r\n\r"rows": x}',
        "json-cr-then-bad-rows": b'{\r"rows": 5\r}',
        "json-invalid-utf8": b'{"rows":\r[\xff]}',
        "json-bom": b'\xef\xbb\xbf{"rows": []}',
        "json-empty": b"",
    }


COMMANDS = {
    "check": ["check", "{doc}"],
    "check-L": ["check", "{doc}", "--mode", "L"],
    "screen": ["screen", "{doc}"],
    "chern": ["chern", "{doc}", "--partition", "0,1"],
    "classify": ["classify", "{doc}"],
}
CASES = {f"{name}:{command}{''.join(flags)}": (doc, command, flags)
         for documents, flags in ((line_documents(), []), (json_documents(), ["--json"]))
         for name, doc in documents.items() for command in COMMANDS}


def outcomes(argv, capsys, before=lambda: None):
    """Exit code, stdout and stderr of ``argv`` as the program reads its
    document, then with the text-mode read in its place; ``before`` runs
    ahead of each."""
    results = []
    for load in (cli._load_matrix, read_oracle.load_matrix):
        before()
        with patch.object(cli, "_load_matrix", load):
            code = cli.main(argv)
        results.append((code, *capsys.readouterr()))
    return results


@pytest.mark.parametrize("doc, command, flags", CASES.values(), ids=CASES)
def test_a_document_reads_as_a_text_mode_read_gives_it(doc, command, flags, tmp_path, capsys):
    path = tmp_path / "doc"
    path.write_bytes(doc)
    argv = [token.format(doc=path) for token in COMMANDS[command]] + flags
    program, oracle = outcomes(argv, capsys)
    assert program == oracle
    assert program[0] in (0, 1, 2) and program[1] + program[2]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_a_path_that_cannot_be_read_fails_as_a_text_mode_read_does(kind, command, tmp_path,
                                                                   capsys):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    argv = [token.format(doc=path) for token in COMMANDS[command]]
    program, oracle = outcomes(argv, capsys)
    assert program == oracle
    assert program[0] == 2 and program[2].startswith("error: [Errno ")


# more than a pipe's buffer, so the reads end mid-document and may split a \r\n
FED = joined([b"# a comment line"] * 6000 + RIGID, [b"\r\n", b"\r", b"\r\r\n"])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
@pytest.mark.parametrize("command", COMMANDS)
def test_a_fifo_fed_by_a_writer_reads_as_a_text_mode_read_gives_it(command, tmp_path, capsys):
    path = tmp_path / "fifo"
    os.mkfifo(path)
    writers = []

    def feed():
        def write():
            with open(path, "wb") as handle:
                handle.write(FED)
        writers.append(threading.Thread(target=write, daemon=True))
        writers[-1].start()

    argv = [token.format(doc=path) for token in COMMANDS[command]]
    program, oracle = outcomes(argv, capsys, before=feed)
    for writer in writers:
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert program == oracle
    # the document was read: only classify refuses it, for its three rows
    assert program[0] in (0, 1) or program[2].startswith("error: classifier needs m = 2")
