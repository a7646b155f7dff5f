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
import re
import sys
from typing import Iterator, Optional, Sequence

from .algebra import Form, format_rational
from .bott import (
    chern_number,
    classify_two_fixed_points,
    is_boundary_candidate,
    realizability_screen,
)
from .rigidity import (
    Row,
    WeightMatrix,
    candidate_constant,
    is_l_rigid,
    is_rigid,
    quasilinear,
)
from .search import (
    BudgetExceeded,
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


def integer(token: str) -> int:
    """An integer written in ASCII decimal digits with an optional sign.

    Python's ``int`` also takes digit-group underscores (``1_0``) and
    non-ASCII digits (Arabic-Indic, full-width, ...); every integer the
    program reads, from a document or a flag, goes through here instead.
    """
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_matrix_text(text: str) -> WeightMatrix:
    """Parse the line-oriented matrix document; errors carry line numbers.

    A document is either an ``m n`` header followed by ``m`` sign/weight
    rows, or a single ``quasilinear: a1 a2 ... a(n+1)`` line declaring the
    difference matrix of those seeds.
    """
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
    lines = [f"{matrix.m} {matrix.n}"]
    for row in matrix.rows:
        sign = "+" if row.sign == 1 else "-"
        lines.append(f"{sign}: " + " ".join(str(w) for w in row.weights))
    return "\n".join(lines) + "\n"


def _load_matrix(args) -> WeightMatrix:
    if args.document == "-":
        text = sys.stdin.read()
    else:
        with open(args.document, "r", encoding="utf-8") as handle:
            text = handle.read()
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
    matrix = _load_matrix(args)
    violations = realizability_screen(matrix)
    if violations:
        print(f"realizability violations: {len(violations)}")
        for v in violations:
            print(f"  exponents {v.exponents}: value = {format_rational(v.value)}")
    else:
        print("realizability violations: none")
    if is_boundary_candidate(matrix):
        print("boundary candidate: all Chern numbers vanish")
    else:
        print("not a boundary candidate: nonzero top-degree Chern number present")
    return 0


def _cmd_quasilinear(args) -> int:
    matrix = quasilinear(args.entries)
    sys.stdout.write(render_matrix(matrix))
    return 0


def _report_records(report: SearchReport, constants: Sequence[str]) -> Iterator[dict]:
    spec = report.spec
    yield {
        "type": "spec",
        "m": spec.m,
        "n": spec.n,
        "bound": spec.bound,
        "mode": spec.mode,
        # always null: SearchSpec has no sign policy; kept so --out bytes stay the same
        "sign_policy": None,
        "enum_budget": spec.enum_budget,
        "check_budget": spec.check_budget,
    }
    for f, constant in zip(report.found, constants):
        yield {
            "type": "find",
            "rows": [list(r.weights) for r in f.matrix.rows],
            "signs": [r.sign for r in f.matrix.rows],
            "constant": constant,
            "constant_value": f.constant.constant_value() if f.constant.is_constant() else None,
            "label": f.label.kind if f.label is not None else None,
            "quasilinear": list(f.quasilinear_seed) if f.quasilinear_seed else None,
            "kosniowski_ok": f.kosniowski_ok,
            "pairable": f.pairable,
        }
    yield {
        "type": "summary",
        "found": len(report.found),
        "enumerated": report.stats.enumerated,
        "rejected": report.stats.rejected,
        "exact_checks": report.stats.exact_checks,
    }


# shared by every record (json.dumps builds one per call); records hold no cycles
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _write_records(handle, records) -> None:
    handle.seek(0)
    handle.truncate()
    handle.write("".join(_ENCODER.encode(record) + "\n" for record in records))


def _print_report(report: SearchReport, constants: Sequence[str]) -> None:
    """The sweep report, in one ``print``; ``constants[i]`` is ``str(report.found[i].constant)``."""
    spec, stats = report.spec, report.stats
    lines = [
        f"sweep m={spec.m} n={spec.n} bound={spec.bound} mode={spec.mode}",
        f"enumerated {stats.enumerated}, pre-filter rejected {stats.rejected}, "
        f"exact checks {stats.exact_checks}, found {len(report.found)}, "
        f"wall {stats.wall_time:.2f}s",
    ]
    lines += (f"  {f.tag:<12} constant={constant:<20} {f.matrix}"
              for f, constant in zip(report.found, constants))
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
    # bad flag or path costs no sweep.  --out is opened for appending, so a
    # run that fails keeps the old report; it is emptied only to be written.
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
    with (open(args.out, "a", encoding="utf-8", newline="\n") if args.out
          else contextlib.nullcontext()) as out:
        if args.problem24:
            solutions = triple_identity_search(args.n, args.bound)
            print(f"{len(solutions)} solutions")
            for a, b, c in solutions:
                print(f"  a={list(a)} b={list(b)} c={list(c)}")
            if args.out:
                records = [
                    {"type": "solution", "a": list(a), "b": list(b), "c": list(c)}
                    for a, b, c in solutions
                ]
                _write_records(out, records + [{"type": "summary", "solutions": len(solutions)}])
            return 0

        exceeded = False
        try:
            report = sweep(spec, shards=args.shards, workers=args.workers)
        except BudgetExceeded as exc:
            report = exc.report
            exceeded = True
        constants = [str(f.constant) for f in report.found]
        _print_report(report, constants)
        if args.out:
            _write_records(out, _report_records(report, constants))
    if exceeded:
        print("budget exceeded: results are partial", file=sys.stderr)
        return 3
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rigidpow",
        description="Exact rigidity checks, Chern numbers and exhaustive searches "
        "for circle-action fixed-point weight data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_document(p):
        p.add_argument("document", help="matrix document path, or - for stdin")
        p.add_argument("--json", action="store_true", help="read the JSON document form")

    p_check = sub.add_parser("check", help="decide rigidity of a weight matrix")
    add_document(p_check)
    p_check.add_argument("--mode", choices=("T", "L"), default="T")
    p_check.set_defaults(func=_cmd_check)

    p_classify = sub.add_parser("classify", help="match a two-row matrix against the rigid families")
    add_document(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_chern = sub.add_parser("chern", help="exact Chern number for an exponent tuple")
    add_document(p_chern)
    p_chern.add_argument("--partition", required=True, metavar="r1,...,rn")
    p_chern.set_defaults(func=_cmd_chern)

    p_screen = sub.add_parser("screen", help="realizability and boundary screens")
    add_document(p_screen)
    p_screen.set_defaults(func=_cmd_screen)

    p_search = sub.add_parser("search", help="exhaustive sweep of a bounded weight space")
    p_search.add_argument("--m", type=integer)
    p_search.add_argument("--n", type=integer)
    p_search.add_argument("--bound", type=integer)
    p_search.add_argument("--mode", choices=("T", "L"), default="T")
    p_search.add_argument("--budget", type=integer, default=SearchSpec.check_budget,
                          help="exact-check budget (default %(default)s)")
    p_search.add_argument("--enum-budget", type=integer, default=SearchSpec.enum_budget,
                          help="enumeration budget (default %(default)s)")
    p_search.add_argument("--shards", type=integer, default=1)
    p_search.add_argument("--workers", type=integer, default=1)
    p_search.add_argument("--out", metavar="PATH", help="write the machine-readable report here")
    p_search.add_argument("--problem24", action="store_true",
                          help="search signature-sum identity triples instead of matrices")
    p_search.set_defaults(func=_cmd_search)

    p_quasi = sub.add_parser("quasilinear", help="emit the difference matrix of distinct integers")
    p_quasi.add_argument("entries", type=integer, nargs="+")
    p_quasi.set_defaults(func=_cmd_quasilinear)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
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
