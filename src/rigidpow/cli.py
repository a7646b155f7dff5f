"""Command-line interface.

Subcommands: ``check``, ``classify``, ``chern``, ``screen``, ``search``,
``quasilinear``.  Weight matrices are read from a line-oriented document::

    m n
    +: w1 w2 ... wn
    -: w1 w2 ... wn

(blank lines and ``#`` comments are allowed; signs may be written ``+``,
``-``, ``+1`` or ``-1``), or from a JSON object behind ``--json``.  Search
reports can be written as a newline-delimited machine-readable file that is
byte-identical across runs with the same flags.

Exit codes: 0 success (``check``: rigid), 1 not rigid, 2 input or flag
error, 3 search budget exceeded, 4 internal error (an unexpected exception,
reported on one ``error:`` line).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import stat
import sys
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import Form, format_rational
from .bott import (
    chern_number,
    classify_two_fixed_points,
    screen,
)
from .rigidity import (
    Row,
    WeightMatrix,
    _valid_matrix,
    candidate_constant,
    is_l_rigid,
    is_rigid,
    quasilinear,
    row_text,
)
from .search import (
    BudgetExceeded,
    Find,
    SearchReport,
    SearchSpec,
    check_pool,
    check_triple_args,
    sweep,
    triple_identity_search,
)


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


_INTEGER = re.compile(r"[+-]?[0-9]+")
_SIGNS = {"+": 1, "+1": 1, "-": -1, "-1": -1}


def integer(token: str) -> int:
    """An integer written in ASCII decimal digits with an optional sign.

    Python's ``int`` also takes digit-group underscores (``1_0``) and
    non-ASCII digits (Arabic-Indic, full-width, ...); every integer the
    program reads, from a document or a flag, goes through here instead,
    except a row's weights, which :func:`parse_matrix_text` checks by the
    same rule a row at a time.
    """
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_matrix_text(text: str) -> WeightMatrix:
    """Parse the line-oriented matrix document; errors carry line numbers.

    A document is either an ``m n`` header followed by ``m`` sign/weight
    rows, or a single ``quasilinear: a1 a2 ... a(n+1)`` line declaring the
    difference matrix of those seeds.

    The header and seed tokens go through :func:`integer`.  A row's weight
    tokens, as ``str.split`` separates them, are refused together when
    their join is not ASCII or holds a ``_``; otherwise each goes to
    ``int``.  On ASCII tokens without whitespace or underscores, ``int``
    accepts exactly what ``[+-]?[0-9]+`` matches, so the rule is
    :func:`integer`'s, with one C-level check per row.  It is the joined
    tokens that are checked, not the row's text: ``str.split`` also
    separates at non-ASCII spaces such as U+00A0, which the row may hold.
    """
    content = [
        (i, line)
        for i, line in enumerate(map(str.strip, text.splitlines()), start=1)
        if line and line[0] != "#"
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
        sign_token, colon, weight_part = line.partition(":")
        if not colon:
            raise ParseError(line_no, f"expected 'sign: w1 ... wn', got {line!r}")
        sign = _SIGNS.get(sign_token.strip())
        if sign is None:
            raise ParseError(line_no, f"row sign must be + or -, got {sign_token.strip()!r}")
        tokens = weight_part.split()
        if len(tokens) != n:
            raise ParseError(line_no, f"expected {n} weights, found {len(tokens)}")
        joined = "".join(tokens)
        try:
            # int() alone would take 1_0 and non-ASCII digits, and it raises
            # ValueError past Python's int-conversion digit limit
            if not joined.isascii() or "_" in joined:
                raise ValueError
            weights = tuple(map(int, tokens))
        except ValueError:
            raise ParseError(line_no, f"weights must be integers: {weight_part.strip()!r}") from None
        if 0 in weights:
            raise ParseError(line_no, "weights must be nonzero")
        rows.append(Row(weights, sign))
    # every row holds n nonzero int weights and a sign of +1 or -1
    return _valid_matrix(tuple(rows))


def parse_matrix_json(text: str) -> WeightMatrix:
    """Parse the structured alternative: {"rows": [{"sign": 1, "weights": [..]}]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError(0, "invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise ParseError(0, "JSON document must be an object with a 'rows' list")
    rows = []
    for entry in doc["rows"]:
        weights = entry.get("weights") if isinstance(entry, dict) else None
        if not isinstance(weights, list):
            raise ParseError(0, f"bad row entry {entry!r}: expected an object with a "
                                "'sign' and a list of 'weights'")
        rows.append(Row(tuple(weights), entry.get("sign")))
    try:
        # WeightMatrix takes only int weights and signs: JSON floats and
        # true/false are refused there
        return WeightMatrix(tuple(rows))
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def render_matrix(matrix: WeightMatrix) -> str:
    """The document form of a matrix; re-parses to an equal matrix."""
    return "\n".join([f"{matrix.m} {matrix.n}", *map(row_text, matrix.rows)]) + "\n"


def _load_matrix(args) -> WeightMatrix:
    """The matrix of ``args.document``, a path or ``-`` for stdin.

    A path is read in one unbuffered ``readall`` and decoded as UTF-8,
    which is the text a text-mode read (``open(path,
    encoding="utf-8").read()``) gives before it translates line endings:
    that read decodes the whole file in one final call, so a decode error
    names the same byte and position.  Its universal newlines turn each
    ``\r\n``, then each lone ``\r``, into ``\n``; the same two replaces
    follow here, only when the text holds a ``\r``.  So the JSON parser's
    line numbers, which count ``\n`` alone, are the text-mode read's.
    """
    if args.document == "-":
        text = sys.stdin.read()
    else:
        with open(args.document, "rb", buffering=0) as handle:
            text = handle.readall().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_matrix_json(text) if args.json else parse_matrix_text(text)


def _cmd_check(args) -> int:
    matrix = _load_matrix(args)
    verdict = is_rigid(matrix) if args.mode == "T" else is_l_rigid(matrix)
    # Every line is built before any is printed, so a printed verdict is
    # never followed by a failure.
    if verdict.rigid:
        code, constant = 0, verdict.constant
        if args.mode == "L":
            lines = [f"Rigid, constant = {constant} (integer value {constant.constant_value()})"]
            expected = Form((sum(candidate_constant(matrix).coeffs),))
        else:
            lines = [f"Rigid, constant = {constant}"]
            expected = candidate_constant(matrix)
        state = "match" if expected == constant else "MISMATCH"
        lines.append(f"cross-check, sign-count constant: {expected} ({state})")
    else:
        code, lines, w = 1, ["NotRigid"], verdict.witness
        if w.point is not None:
            z0, x0, y0 = w.point
            lines.append(
                f"witness: z0 = {z0}, (x0, y0) = ({x0}, {y0}): "
                f"value = {format_rational(w.value_at_point)}, "
                f"expected = {format_rational(w.expected_at_point)}"
            )
        lines.append(
            f"residual: lowest z-degree {w.residual_degree}, "
            f"coefficient {w.residual_coefficient}"
        )
    print("\n".join(lines))
    return code


def _cmd_classify(args) -> int:
    matrix = _load_matrix(args)
    label = classify_two_fixed_points(matrix)
    if label.kind == "unclassified":
        print(f"classification: unclassified ({label.reason})")
    else:
        print(f"classification: {label.kind}")
    return 0


def _parse_partition(text: str, n: int) -> tuple:
    try:
        r = tuple(integer(t.strip()) for t in text.split(","))
    except ValueError:
        raise ParseError(0, f"--partition must be comma-separated integers, got {text!r}") from None
    if len(r) != n:
        raise ParseError(0, f"--partition needs {n} entries for an n = {n} matrix, got {len(r)}")
    return r


def _cmd_chern(args) -> int:
    matrix = _load_matrix(args)
    r = _parse_partition(args.partition, matrix.n)
    value = chern_number(matrix, r)
    kind = "integer" if value.denominator == 1 else "non-integer"
    print(f"chern number for exponents {r}: {format_rational(value)} ({kind})")
    return 0


def _cmd_screen(args) -> int:
    violations, boundary = screen(_load_matrix(args))
    if violations:
        lines = [f"realizability violations: {len(violations)}"]
        lines += (f"  exponents {v.exponents}: value = {format_rational(v.value)}" for v in violations)
    else:
        lines = ["realizability violations: none"]
    lines.append("boundary candidate: all Chern numbers vanish" if boundary
                 else "not a boundary candidate: nonzero top-degree Chern number present")
    print("\n".join(lines))
    return 0


def _cmd_quasilinear(args) -> int:
    matrix = quasilinear(args.entries)
    sys.stdout.write(render_matrix(matrix))
    return 0


def _report_records(report: SearchReport, finds: Iterable[str]) -> Iterator[str]:
    """The ``--out`` lines of a sweep: its spec record, ``finds``, the find
    records of :func:`_find_lines`, and its summary record."""
    # every record's keys are in sorted order, so _ENCODER need not sort them
    spec = report.spec
    yield _ENCODER.encode({
        "bound": spec.bound,
        "check_budget": spec.check_budget,
        "enum_budget": spec.enum_budget,
        "m": spec.m,
        "mode": spec.mode,
        "n": spec.n,
        # always null: SearchSpec has no sign policy; kept so --out bytes stay the same
        "sign_policy": None,
        "type": "spec",
    }) + "\n"
    yield from finds
    yield _ENCODER.encode({
        "enumerated": report.stats.enumerated,
        "exact_checks": report.stats.exact_checks,
        "found": len(report.found),
        "rejected": report.stats.rejected,
        "type": "summary",
    }) + "\n"


# Encodes the records whose keys are built in sorted order, so it need not
# sort them, and which hold no cycles.  JSONEncoder.encode builds a new C
# encoder on every call, so it encodes only the few records of a report
# (and the per-report fragments of _find_lines), never one per find.
_ENCODER = json.JSONEncoder(check_circular=False)


def _row_texts(row: Row) -> tuple:
    """A row's ``--out`` weights and sign, and its :func:`row_text`.

    A matrix's weights and signs are ``int`` values, which ``_ENCODER``
    writes as their ``int.__repr__``, their ``str``.  The row text is
    ``"+: "`` or ``"-: "`` and then the weights' ``str`` joined by spaces,
    so the weights' JSON list is that tail with ``", "`` for each space."""
    text = row_text(row)
    return f"[{text[3:].replace(' ', ', ')}]", str(row.sign), text


def _seed_text(seed) -> str:
    """A find's ``quasilinear`` value: null, or its seed's ``int`` values."""
    return f"[{', '.join(map(str, seed))}]" if seed else "null"


def _constant_texts(coeffs: tuple) -> tuple:
    """``str`` of the constant ``Form(coeffs)``, and the start of a find
    record up to its constant's value."""
    constant = Form(coeffs)
    text = str(constant)
    value = constant.constant_value() if constant.is_constant() else None
    return text, f'{{"constant": {_ENCODER.encode(text)}, "constant_value": {_ENCODER.encode(value)}, '


def _find_lines(found: Sequence[Find]) -> Tuple[List[str], Iterator[str]]:
    """Each find's stdout line, and an iterator over their ``--out`` lines.

    The stdout line is ``f"  {f.tag:<12} constant={f.constant!s:<20}
    {f.matrix}"``, and the ``--out`` line is ``_ENCODER.encode`` of the
    find's record, its keys in sorted order, and a newline.  The encoder
    writes a dict as ``"key": value`` items joined by ``", "`` in braces and
    a tuple or list as its items joined by ``", "`` in brackets, and
    ``str(f.matrix)`` joins its rows' :func:`row_text` by ``"; "`` in
    brackets.  So both lines are spliced from the encoded values and row
    texts, each made once per distinct row, constant, label, seed and flag
    of the report, and no find builds a record dict or an encoder.  The
    ``--out`` lines are made only as they are read, after the stdout lines,
    so the two sets are not held at once.
    """
    # each cache lives for this report only
    rows, constants = functools.cache(_row_texts), functools.cache(_constant_texts)

    def line(f: Find) -> str:
        *_, texts = zip(*map(rows, f.matrix.rows))
        return f"  {f.tag:<12} constant={constants(f.constant.coeffs)[0]:<20} [{'; '.join(texts)}]"

    def records() -> Iterator[str]:
        seeds, encoded = functools.cache(_seed_text), functools.cache(_ENCODER.encode)
        for f in found:
            weights, signs, _ = zip(*map(rows, f.matrix.rows))
            label = f.label.kind if f.label is not None else None
            yield (f'{constants(f.constant.coeffs)[1]}"kosniowski_ok": {encoded(f.kosniowski_ok)}, '
                   f'"label": {encoded(label)}, "pairable": {encoded(f.pairable)}, '
                   f'"quasilinear": {seeds(f.quasilinear_seed)}, '
                   f'"rows": [{", ".join(weights)}], "signs": [{", ".join(signs)}], '
                   f'"type": "find"}}\n')

    return list(map(line, found)), records()


def _write_records(handle, lines) -> None:
    """Make ``lines``, each ending in a newline, the whole content of
    ``handle``, a text handle fresh from opening (at offset 0).  The lines
    are all rendered first, so a failure while rendering, or before, leaves
    the old file as it was.  A regular file is then overwritten in place
    and cut at the new end, so its blocks are reused rather than freed and
    allocated again.  A write that raises (a full disk, an I/O error, an
    interrupt) empties the file and closes ``handle`` without flushing it,
    so no new lines are left ahead of the old report's tail; only a process
    killed during the write leaves a prefix of the new text followed by old
    bytes.  Anything else (a device, a pipe) gets the text written as a
    stream."""
    text = "".join(lines)
    regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    try:
        handle.write(text)
        if regular:
            handle.truncate()
    except BaseException:
        if regular:
            os.ftruncate(handle.fileno(), 0)
            handle.buffer.raw.close()  # what is still buffered is dropped
        raise


def _print_report(report: SearchReport, find_lines: Sequence[str]) -> None:
    """The sweep report, in one ``print``; ``find_lines`` are its finds'
    lines (see :func:`_find_lines`)."""
    spec, stats = report.spec, report.stats
    lines = [
        f"sweep m={spec.m} n={spec.n} bound={spec.bound} mode={spec.mode}",
        f"enumerated {stats.enumerated}, pre-filter rejected {stats.rejected}, "
        f"exact checks {stats.exact_checks}, found {len(report.found)}, "
        f"wall {stats.wall_time:.2f}s",
        *find_lines,
    ]
    violations = report.violations()
    lines.append(f"CONJECTURE VIOLATIONS ({len(violations)}):" if violations
                 else "conjecture violations: none")
    for f in violations:
        flags = []
        if not f.kosniowski_ok:
            flags.append("fixed-point count below floor(n/2)+1 with nonzero constant")
        if not f.pairable:
            flags.append("weights admit no cross-row pairing")
        lines.append(f"  {f.matrix}: " + "; ".join(flags))
    anomalies = report.small_nonzero_anomalies() if spec.mode == "L" else ()
    if anomalies:
        lines.append(f"SMALL-m NONZERO-CONSTANT ANOMALIES ({len(anomalies)}):")
        lines += (f"  {f.matrix}: constant {f.constant}" for f in anomalies)
    print("\n".join(lines))


def _cmd_search(args) -> int:
    # Every flag is checked, and --out opened, before the work starts: a
    # bad flag or path costs no sweep.  --out is opened without truncating,
    # so a run that fails before its records are ready keeps the old
    # report; see _write_records for a failure while they are written.
    if args.problem24:
        if args.n is None or args.bound is None:
            raise ValueError("--problem24 requires --n and --bound")
        check_triple_args(args.n, args.bound)
    elif args.m is None or args.n is None or args.bound is None:
        raise ValueError("search requires --m, --n and --bound")
    else:
        spec = SearchSpec(
            m=args.m,
            n=args.n,
            bound=args.bound,
            mode=args.mode,
            check_budget=args.budget,
            enum_budget=args.enum_budget,
        )
    check_pool(args.shards, args.workers)
    with (open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "w",
               encoding="utf-8", newline="\n") if args.out is not None
          else contextlib.nullcontext()) as out:
        if args.problem24:
            solutions = triple_identity_search(args.n, args.bound)
            print(f"{len(solutions)} solutions")
            for a, b, c in solutions:
                print(f"  a={list(a)} b={list(b)} c={list(c)}")
            if out is not None:
                records = [{"a": a, "b": b, "c": c, "type": "solution"} for a, b, c in solutions]
                records.append({"solutions": len(solutions), "type": "summary"})
                _write_records(out, (_ENCODER.encode(record) + "\n" for record in records))
            return 0

        exceeded = False
        try:
            report = sweep(spec, shards=args.shards, workers=args.workers)
        except BudgetExceeded as exc:
            report = exc.report
            exceeded = True
        lines, finds = _find_lines(report.found)
        _print_report(report, lines)
        del lines  # printed: only the records are held while they are written
        if out is not None:
            _write_records(out, _report_records(report, finds))
    if exceeded:
        print("budget exceeded: results are partial", file=sys.stderr)
        return 3
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call; parsing leaves it unchanged.  Its ``commands`` maps each
    subcommand's name to its parser, the actions declared on it, their
    defaults by ``dest`` and the actions by option string, which
    :func:`_walk` reads."""
    parser = argparse.ArgumentParser(
        prog="rigidpow",
        description="Exact rigidity checks, Chern numbers and exhaustive searches "
        "for circle-action fixed-point weight data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, summary, document=True):
        """Add a subcommand; returns its ``add_argument``, which keeps the
        actions it makes."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        actions = []
        commands[name] = (p, actions)

        def add(*names, **kwargs):
            actions.append(p.add_argument(*names, **kwargs))
        if document:
            add("document", help="matrix document path, or - for stdin")
            add("--json", action="store_true", help="read the JSON document form")
        return add

    add = command("check", _cmd_check, "decide rigidity of a weight matrix")
    add("--mode", choices=("T", "L"), default="T")
    command("classify", _cmd_classify, "match a two-row matrix against the rigid families")
    add = command("chern", _cmd_chern, "exact Chern number for an exponent tuple")
    add("--partition", required=True, metavar="r1,...,rn")
    command("screen", _cmd_screen, "realizability and boundary screens")

    add = command("search", _cmd_search, "exhaustive sweep of a bounded weight space",
                  document=False)
    add("--m", type=integer)
    add("--n", type=integer)
    add("--bound", type=integer)
    add("--mode", choices=("T", "L"), default="T")
    add("--budget", type=integer, default=SearchSpec.check_budget,
        help="exact-check budget (default %(default)s)")
    add("--enum-budget", type=integer, default=SearchSpec.enum_budget,
        help="enumeration budget (default %(default)s)")
    add("--shards", type=integer, default=1)
    add("--workers", type=integer, default=1)
    add("--out", metavar="PATH", help="write the machine-readable report here")
    add("--problem24", action="store_true",
        help="search signature-sum identity triples instead of matrices")

    add = command("quasilinear", _cmd_quasilinear,
                  "emit the difference matrix of distinct integers", document=False)
    add("entries", type=integer, nargs="+")

    parser.commands = {
        name: (p, actions, {action.dest: action.default for action in actions},
               {s: action for action in actions for s in action.option_strings})
        for name, (p, actions) in commands.items()
    }
    return parser


def _walk(argv: Sequence[str], commands: dict) -> Optional[argparse.Namespace]:
    """The Namespace ``parse_args(argv)`` gives, read in one walk, for an
    argv of the plain shape: a subcommand's name, then its option strings
    written in full, each store option followed by one value that does not
    start with ``-``, and positionals that fill its positional action;
    every value passes its action's ``type`` and ``choices``.  Anything
    else (help, an error, an abbreviation, ``--opt=value``, ``--``, a value
    that starts with ``-``) gives None, for argparse to parse."""
    if not argv or argv[0] not in commands:
        return None
    sub, actions, defaults, options = commands[argv[0]]
    values = defaults.copy()  # the shared defaults stay as they are
    given, free, tokens = set(), [], iter(argv[1:])

    def value(action, token):
        result = token if action.type is None else action.type(token)
        if action.choices is not None and result not in action.choices:
            raise ValueError(token)
        return result

    try:
        for token in tokens:
            action = options.get(token)
            if action is None:
                if token[:1] == "-" and token != "-":
                    return None
                free.append(token)
                continue
            given.add(action)
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            token = next(tokens, "-")
            if action.nargs is not None or token[:1] == "-":
                return None
            values[action.dest] = value(action, token)
        for action in actions:
            if action.option_strings:
                if action.required and action not in given:
                    return None
            elif action.nargs is None and len(free) == 1:
                values[action.dest] = value(action, free.pop())
            elif action.nargs == "+" and free:
                values[action.dest] = [value(action, token) for token in free]
                free = []
            else:
                return None
    except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse refuses these
        return None
    return None if free else argparse.Namespace(command=argv[0], **values,
                                                 func=sub.get_default("func"))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    # a well-formed argv is read in one walk; argparse parses the rest
    args = _walk(sys.argv[1:] if argv is None else argv, parser.commands)
    if args is None:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in the program, never a verdict
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
