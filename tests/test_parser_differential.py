"""The one-pass document parser against the parser it replaced.

Documents are drawn as valid ones with a flaw or two mixed in: comments,
blank lines, each line ending, a byte-order mark, every sign spelling with
spaces around it and the colon, odd separators between weights, tokens
that ``int`` reads but the program must refuse, zero weights, wrong counts,
missing colons and seed documents.  Both parsers must give an equal
matrix, or a ``ParseError`` with the same line and message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpow.cli import ParseError, parse_matrix_text

import parse_oracle

LONG_WEIGHT = "7" * 5000  # past Python's default int-conversion digit limit

SIGNS = ["+", "-", "+1", "-1", " + ", "-  ", "\t+1"]
BAD_SIGNS = ["++", "1", "x", "", "+ 1", "\u2212", "+1-1"]
COLONS = [":", " : ", ": ", " :"]
BAD_COLONS = ["", ";", " "]
SEPARATORS = [" ", " ", " ", "  ", "\t", "\u00a0", "\u2003", "\x1c", " \x0b "]
BAD_TOKENS = ["0", "-0", "+0", "00", "1_0", "\u0661\u0662", "\uff11", "1.0", "0x1", "abc", "+",
              "-", "--1", "+-2", LONG_WEIGHT, "1\u0661", "\U0001d7cf", "\u00b2", "1_", "_1",
              "+\uff11"]
HEADERS = ["{m} {n}", "  {m}\t{n} ", "\u00a0{m} {n}", "+{m} 0{n}"]
BAD_HEADERS = ["{m} {n} 1", "{m}", "\ufeff{m} {n}", "{m} -{n}", "0 {n}", "{m}_0 {n}", "{m}, {n}"]
ENDINGS = ["\n", "\r\n", "\r"]
FLAWS = ["header", "rows", "sign", "colon", "token", "width", "seeds"]


def weights(draw, count):
    return [draw(st.sampled_from(["", "+", "-"])) + str(draw(st.integers(1, 10**6)))
            for _ in range(count)]


def seed_document(draw):
    seeds = [str(draw(st.integers(-6, 6))) for _ in range(draw(st.integers(0, 4)))]
    if seeds and draw(st.booleans()):
        seeds[draw(st.integers(0, len(seeds) - 1))] = draw(st.sampled_from(BAD_TOKENS))
    lines = ["quasilinear:" + draw(st.sampled_from(SEPARATORS)).join(seeds)]
    if draw(st.integers(0, 3)) == 0:
        lines.append("+: 1")
    return lines


@st.composite
def documents(draw):
    """A valid document, or one with a flaw or two, which may share a row
    so that the order of the checks shows; then comments, blank lines and a
    line ending of any kind."""
    flaws = draw(st.lists(st.sampled_from(FLAWS), max_size=2))
    if "seeds" in flaws:
        lines = seed_document(draw)
    else:
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        header = draw(st.sampled_from(BAD_HEADERS if "header" in flaws else HEADERS))
        count = m + (draw(st.sampled_from([-1, 1])) if m > 1 else 1) * ("rows" in flaws)
        rows = [[draw(st.sampled_from(SIGNS)), draw(st.sampled_from(COLONS)), weights(draw, n)]
                for _ in range(count)]
        for flaw in flaws:
            bad = rows[draw(st.integers(0, len(rows) - 1))]
            if flaw == "sign":
                bad[0] = draw(st.sampled_from(BAD_SIGNS))
            elif flaw == "colon":
                bad[1] = draw(st.sampled_from(BAD_COLONS))
            elif flaw == "token" and bad[2]:
                bad[2][draw(st.integers(0, len(bad[2]) - 1))] = draw(st.sampled_from(BAD_TOKENS))
            elif flaw == "width":
                bad[2] = weights(draw, draw(st.sampled_from([n - 1, n + 1])))
        lines = [header.format(m=m, n=n)] + [
            sign + colon + draw(st.sampled_from(SEPARATORS)).join(tokens)
            for sign, colon, tokens in rows]
    extras = draw(st.lists(st.sampled_from(["", "   ", "# a comment", "  # indented", "#"]),
                           max_size=3))
    for extra in extras:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ending = draw(st.sampled_from(ENDINGS))
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


def outcome(parse, text):
    try:
        return "matrix", parse(text)
    except ParseError as exc:
        return "error", exc.line, str(exc)


@settings(max_examples=800, deadline=None)
@given(documents())
def test_one_pass_parser_agrees_with_the_oracle(text):
    assert outcome(parse_matrix_text, text) == outcome(parse_oracle.parse_matrix_text, text)


@pytest.mark.parametrize("text", [
    "\ufeff2 1\n+: 1\n-: 1\n",
    "2 1\r\n+: 1\r\n-: 1\r\n",
    "2 1\r+: 1\r-: 1\r",
    "2 2\n+1 : 1 2\n -1: 1\x1c2\n",
    "1 2\n+: 1\u00a02\n",
    "1 2\n+:1\xa01\n",
    "1 2\n+: 1 1_0\n",
    "1 1\n+ 1\n",
    "1 2\n+: 1 0\n",
    "2 2\n+: 0 1_0\n-: 1 1\n",
    "2 2\n+ 1 1\n-: 1\n",
    "quasilinear: 0 1 1\n",
    "quasilinear: 0 1\n# comment\n\n+: 1\n",
    f"2 1\n+: {LONG_WEIGHT}\n-: 1\n",
])
def test_one_pass_parser_agrees_on_each_flaw(text):
    assert outcome(parse_matrix_text, text) == outcome(parse_oracle.parse_matrix_text, text)
