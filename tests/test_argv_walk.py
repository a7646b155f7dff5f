"""The one-walk command-line reader against argparse.

``cli.main`` reads a well-formed argv in one walk over the actions the
parser declares and leaves everything else (help, errors, abbreviations,
``--opt=value``, ``--``, values that start with ``-``) to argparse.  The
walk must run for every command line the README, CI and the benchmark
use, and wherever it gives a Namespace, argparse must give an equal one.
"""

import argparse
import contextlib
import io
import re
import sys
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow import cli
from rigidpow.cli import main

DOC = "quasilinear: 0 1 2\n"
PAIR_DOC = "2 2\n+: 1 2\n-: 1 2\n"
JSON_DOC = '{"rows": [{"sign": 1, "weights": [1, 2]}, {"sign": -1, "weights": [1, 2]}]}'

# every command line shape of the README's CLI block, CI's console-script
# step and perfbench/run.py; {doc}, {pair}, {json} and {out} are paths
SHAPES = [
    ["check", "{doc}"],
    ["check", "{doc}", "--mode", "L"],
    ["check", "-"],
    ["check", "{json}", "--json"],
    ["classify", "{pair}"],
    ["screen", "{doc}"],
    ["screen", "-"],
    ["chern", "{doc}", "--partition", "0,1"],
    ["chern", "-", "--partition", "0,1"],
    ["quasilinear", "0", "1", "2"],
    ["search", "--m", "2", "--n", "3", "--bound", "5", "--mode", "T", "--out", "{out}"],
    ["search", "--m", "2", "--n", "1", "--bound", "3", "--mode", "L", "--out", "{out}"],
    ["search", "--m", "3", "--n", "2", "--bound", "6", "--shards", "4", "--workers", "1",
     "--out", "{out}"],
    ["search", "--m", "2", "--n", "1", "--bound", "3", "--enum-budget", "1000000000",
     "--budget", "1000000000", "--out", "{out}"],
    ["search", "--problem24", "--n", "2", "--bound", "4"],
    ["search", "--problem24", "--n", "2", "--bound", "3", "--out", "{out}"],
]


def run(argv, out_path, monkeypatch):
    """Exit code, stdout without the wall time, stderr and ``--out`` bytes
    of ``main(argv)``, with DOC on stdin."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(DOC))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report = out_path.read_bytes() if out_path.exists() else None
    out_path.unlink(missing_ok=True)
    return code, re.sub(r", wall [0-9.]+s", "", out.getvalue()), err.getvalue(), report


@pytest.mark.parametrize("shape", SHAPES, ids=" ".join)
def test_documented_command_lines_are_read_without_argparse(shape, tmp_path, monkeypatch):
    (tmp_path / "doc.txt").write_text(DOC)
    (tmp_path / "pair.txt").write_text(PAIR_DOC)
    (tmp_path / "doc.json").write_text(JSON_DOC)
    out_path = tmp_path / "out.jsonl"
    argv = [token.format(doc=tmp_path / "doc.txt", pair=tmp_path / "pair.txt",
                         json=tmp_path / "doc.json", out=out_path) for token in shape]
    with patch.object(argparse.ArgumentParser, "parse_args",
                      side_effect=AssertionError("argparse parsed a well-formed argv")):
        walked = run(argv, out_path, monkeypatch)
    with patch.object(cli, "_walk", return_value=None):
        parsed = run(argv, out_path, monkeypatch)
    assert walked == parsed
    assert walked[0] in (0, 1) and walked[1]


def test_the_console_script_argv_is_read_without_argparse(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["rigidpow", "quasilinear", "0", "1", "2"])
    with patch.object(argparse.ArgumentParser, "parse_args",
                      side_effect=AssertionError("argparse parsed a well-formed argv")):
        assert main() == 0
    assert capsys.readouterr().out == "3 2\n+: -1 -2\n+: 1 -1\n+: 2 1\n"


# -- differential: the walk gives None or argparse's Namespace -----------------

OWN_OPTIONS = {
    "check": ["--json", "--mode"],
    "classify": ["--json"],
    "chern": ["--json", "--partition"],
    "screen": ["--json"],
    "search": ["--m", "--n", "--bound", "--mode", "--budget", "--enum-budget", "--shards",
               "--workers", "--out", "--problem24"],
    "quasilinear": [],
}
FLAGS = ["--json", "--problem24"]
POSITIONALS = {"check": 1, "classify": 1, "chern": 1, "screen": 1, "search": 0, "quasilinear": 3}
OPTIONS = [*sorted({option for options in OWN_OPTIONS.values() for option in options}),
           "-h", "--help"]
ODD = ["--mo", "--enum", "--mode=L", "--out=x", "--", "-", "", "-3", "-x y"]
VALUES = ["T", "L", "X", "0", "1", "2", "3", "+4", "007", "0_1", "٣", "１", "0,0,1", "doc.txt",
          "a b", "reports/r.jsonl", "check", "search"]
TOKENS = OPTIONS + ODD + VALUES


@st.composite
def argvs(draw):
    """A subcommand's command line of its own options, each with a value
    unless it is a flag, and values for its positionals, in any order; then
    up to two tokens of any kind put in, or put in place of one."""
    head = draw(st.sampled_from(list(OWN_OPTIONS)))
    own, value = OWN_OPTIONS[head], st.sampled_from(VALUES) | st.sampled_from(TOKENS)
    options = draw(st.lists(st.sampled_from(own), max_size=4)) if own else []
    items = [[option] if option in FLAGS else [option, draw(value)] for option in options]
    items += [[draw(value)] for _ in range(POSITIONALS[head])]
    argv = [head, *(token for item in draw(st.permutations(items)) for token in item)]
    for _ in range(draw(st.integers(0, 2))):
        at, token = draw(st.integers(0, len(argv) - 1)), draw(st.sampled_from(TOKENS))
        if draw(st.booleans()):
            argv[at] = token
        else:
            argv.insert(at, token)
    return argv


def argparse_namespace(argv):
    """What the shared parser gives for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


def typed(namespace):
    return {dest: (type(value), value) for dest, value in vars(namespace).items()}


@settings(max_examples=1500, deadline=None)
@given(argvs())
def test_the_walk_gives_argparse_namespace_or_leaves_the_argv_to_it(argv):
    walked = cli._walk(argv, cli.build_parser().commands)
    if walked is not None:
        expected = argparse_namespace(argv)
        assert expected is not None, f"argparse refuses {argv!r}"
        assert typed(walked) == typed(expected)


@pytest.mark.parametrize("argv", [
    ["check", "doc", "--mode", "L", "--mode", "T", "--json", "--json"],
    ["chern", "--partition", "0,1", "-"],
    ["search"],
    ["search", "--problem24", "--m", "007", "--out", ""],
    ["quasilinear", "+4", "0"],
])
def test_the_walk_reads_repeated_empty_and_reordered_tokens_as_argparse_does(argv):
    assert typed(cli._walk(argv, cli.build_parser().commands)) == typed(argparse_namespace(argv))
