"""The line-oriented document parser as it was before it read each line in
one pass, kept as an oracle: every document must give an equal matrix, or
the same ``ParseError`` line and message, under both parsers.

It strips each line three times, checks and converts each weight token
through ``integer`` one at a time, and builds the matrix through the
checking ``WeightMatrix`` constructor.
"""

from rigidpow.cli import ParseError, integer
from rigidpow.rigidity import Row, WeightMatrix, quasilinear


def parse_matrix_text(text: str) -> WeightMatrix:
    content = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not content:
        raise ParseError(1, "empty document")
    head_line, head = content[0]
    if head.startswith("quasilinear:"):
        if len(content) > 1:
            raise ParseError(content[1][0], "a seed document is a single line")
        try:
            seeds = [integer(t) for t in head.partition(":")[2].split()]
        except ValueError:
            raise ParseError(head_line, f"seed entries must be integers: {head!r}") from None
        try:
            return quasilinear(seeds)
        except ValueError as exc:
            raise ParseError(head_line, str(exc)) from None
    fields = head.split()
    if len(fields) != 2:
        raise ParseError(head_line, f"expected header 'm n', got {head!r}")
    try:
        m, n = integer(fields[0]), integer(fields[1])
    except ValueError:
        raise ParseError(head_line, f"expected integers in header, got {head!r}") from None
    if m < 1 or n < 1:
        raise ParseError(head_line, "m and n must be at least 1")
    if len(content) - 1 != m:
        raise ParseError(head_line, f"expected {m} rows, found {len(content) - 1}")
    rows = []
    for line_no, line in content[1:]:
        if ":" not in line:
            raise ParseError(line_no, f"expected 'sign: w1 ... wn', got {line!r}")
        sign_token, _, weight_part = line.partition(":")
        sign_token = sign_token.strip()
        if sign_token in ("+", "+1"):
            sign = 1
        elif sign_token in ("-", "-1"):
            sign = -1
        else:
            raise ParseError(line_no, f"row sign must be + or -, got {sign_token!r}")
        tokens = weight_part.split()
        if len(tokens) != n:
            raise ParseError(line_no, f"expected {n} weights, found {len(tokens)}")
        try:
            weights = tuple(integer(t) for t in tokens)
        except ValueError:
            raise ParseError(line_no, f"weights must be integers: {weight_part.strip()!r}") from None
        if any(w == 0 for w in weights):
            raise ParseError(line_no, "weights must be nonzero")
        rows.append(Row(weights, sign))
    return WeightMatrix(tuple(rows))
