#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of rigidpow.

Runs one workload through ``rigidpow.cli.main``, called in-process by a few
worker processes started one after another, checks every output, and
prints every metric by name and unit; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Run from the
root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each one exists):

- ``sweep``:  ``search ... --out`` over a fixed spec list;
- ``triple``: ``search --problem24`` at (n=4, b=5) and (n=3, b=6);
- ``check``:  ``check``, ``check --mode L``, ``screen`` and ``chern`` on a
  seeded batch of documents.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` each worker makes untraced passes, then traced passes in which the
module attributes the program calls through are wrapped in spans, and
reports the per-layer metrics.  ``--record`` rewrites ``expected.json``
from the program as it is; do that only at a commit whose outputs are known
to be right.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

PROCESS_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"

# (mode, m, n, bound).  The acceptance sweeps plus the two specs where
# enumeration and the pre-filter dominate.  T m=2 n=4 b=6 is left out: one
# pass takes about 25 s on the pure kernel.
SWEEP_SPECS = [
    ("L", 2, 1, 6), ("L", 4, 1, 6),
    ("T", 2, 1, 5), ("T", 2, 2, 5), ("T", 2, 3, 5),
    ("L", 3, 2, 8),
    ("T", 3, 2, 6),
    ("L", 4, 2, 5),
]
TRIPLE_SPECS = [(4, 5), (3, 6)]  # (n, bound)
TINY_SWEEP_SPECS = [("L", 2, 1, 6), ("T", 2, 1, 5)]
TINY_TRIPLE_SPECS = [(2, 4)]

# One check pass: five difference matrices for each n in 3..7 (rigid) and
# one random matrix for each (m, n) in 2..6 x 2..6 (mostly not rigid).
DIFF_PER_N = 5
TINY_DIFF_PER_N = 1

# A run is split across worker processes started one after another, so
# that its medians cover several address-space layouts and hash seeds
# rather than the one a single process happens to get.  Each worker sets up
# SETUPS times, then makes whole passes until its share of --seconds is
# used (half untraced, half traced with --trace 1).  Untraced check passes
# each get fresh documents, written at set-up: enough for passes of
# CHECK_PASS_S, then reused in turn.
WORKERS = 4
TRACE_WORKERS = 2
MIN_WORKER_S = 5.0
WORKER_GRACE_S = 60.0
CHECK_PASS_S = 1.5
SETUPS = 3
TAIL_BEYOND = 10
# Untraced times are scaled to a machine on which reference_loop takes
# REF_NOMINAL_S, its median on the 2-vCPU VM where the baseline was
# recorded; see SpeedProbe.
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 20
REF_NOMINAL_S = 0.0009

SELF_METRICS = {
    "cli.op": "cli.self_s",
    "cli.parse": "cli.parse_s",
    "search.enum": "search.enum_self_s",
    "search.universe": "search.universe_s",
    "search.annotate": "search.annotate_s",
    "prefilter.kernel": "prefilter.kernel_s",
    "rigidity.check": "rigidity.check_s",
    "algebra.series": "algebra.series_s",
    "algebra.expand": "algebra.expand_s",
    "algebra.witness_eval": "algebra.witness_eval_s",
    "bott.chern": "bott.chern_s",
}
COUNT_METRICS = {
    "prefilter.candidates": "count", "prefilter.survivors": "count",
    "search.candidates": "count", "search.universe_rows": "count",
    "search.annotations": "count",
    "rigidity.checks": "count", "rigidity.finds": "count",
    "rigidity.false_positives": "count",
    "bott.chern_calls": "count", "cli.out_bytes": "bytes",
}
# Counts of sweep and triple that expected.json pins.  cli.out_bytes is not
# one: search prints its own wall time.
RECORDED_COUNTS = [
    "prefilter.candidates", "prefilter.survivors", "search.universe_rows",
    "search.annotations", "rigidity.checks", "rigidity.finds", "rigidity.false_positives",
]


# ---------------------------------------------------------------- program


def load_program():
    """Import a fresh copy of the package from this checkout's ``src``."""
    if not (SRC / "rigidpow" / "cli.py").is_file():
        raise SystemExit(f"error: no rigidpow sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "rigidpow" or n.startswith("rigidpow.")]:
        del sys.modules[name]
    cli = importlib.import_module("rigidpow.cli")
    if Path(cli.__file__).resolve().parent != SRC / "rigidpow":
        raise SystemExit(f"error: imported rigidpow from {cli.__file__}, not from {SRC}")
    return {name: sys.modules[f"rigidpow.{name}"]
            for name in ("cli", "search", "prefilter", "rigidity", "algebra", "bott")}


def call_cli(main, argv, tracer=None, probe=None):
    """Run one CLI command in-process; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    probed = probe.spent if probe else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = tracer.call("cli.op", main, argv) if tracer else main(argv)
        except SystemExit as exc:  # argparse
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the console script would print a traceback and exit 1
            rc = 1
        seconds = time.perf_counter() - start
    if tracer is not None:
        seconds = tracer.last_root_s
    if probe is not None:
        seconds -= probe.spent - probed
    return rc, out.getvalue(), seconds


def reference_loop():
    """A fixed piece of pure-Python work: integer arithmetic, tuples, a
    dict and a few fractions, like the program's own inner loops.  It lives
    here, not in the program, so no change to the program changes it."""
    acc, seen = 0, {}
    for i in range(1500):
        key = (i % 37, i * 7 % 11)
        seen[key] = seen.get(key, 0) + i
        acc += i * i % 13
    total = Fraction(0)
    for k in range(1, 25):
        total += Fraction(acc % k + 1, k + 2)
    return acc, total


class SpeedProbe:
    """Times ``reference_loop`` from a timer signal every PROBE_EVERY_S
    seconds, so that the machine's speed is sampled while the program runs
    (a shared host's speed drifts by tens of percent over seconds to
    minutes).  ``spent`` is the time the probe took, for callers to take
    out of the program's time."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0

    def _sample(self, *_signal):
        enabled = gc.isenabled()
        gc.disable()  # a collection here would time the program's heap
        start = time.perf_counter()
        reference_loop()
        seconds = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append(seconds)
        self.spent += time.perf_counter() - start

    def scale(self, first):
        """REF_NOMINAL_S over the median sample since index ``first``,
        taking in earlier samples up to PROBE_WINDOW when there are fewer
        (an op of under a second)."""
        window = self.samples[max(0, min(first, len(self.samples) - PROBE_WINDOW)):]
        return REF_NOMINAL_S / statistics.median(window)

    def __enter__(self):
        self._sample()
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)


# ---------------------------------------------------------------- tracing


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self.last_root_s = 0.0

    def reset(self):
        self.spans, self.counts = [], Counter()

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
            if parent < 0:
                self.last_root_s = end - start

    def self_times(self) -> Dict[str, float]:
        """Span duration minus the duration of its child spans, per name."""
        children = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - children[index]
        return totals


def instrument(mods, tracer) -> Callable[[], None]:
    """Wrap the module attributes the program calls through; returns undo."""
    saved = []

    def wrap(owner, attr, span, after=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = tracer.call(span, original, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    cli, search, rigidity, algebra, bott = (
        mods["cli"], mods["search"], mods["rigidity"], mods["algebra"], mods["bott"])

    def survivor_checked(verdict):
        tracer.counts["rigidity.checks"] += 1
        tracer.counts["rigidity.finds" if verdict.rigid else "rigidity.false_positives"] += 1

    def checked(verdict):
        tracer.counts["rigidity.checks"] += 1
        tracer.counts["rigidity.finds"] += verdict.rigid

    def chern_called(_):
        tracer.counts["bott.chern_calls"] += 1

    def annotated(_):
        tracer.counts["search.annotations"] += 1

    def universe_built(rows):
        tracer.counts["search.universe_rows"] += len(rows)

    select_filter = search.select_filter

    def traced_select_filter(*args):
        kernel, name = select_filter(*args)

        def traced_kernel(wbuf, sbuf, m, n, count, points, mask):
            tracer.call("prefilter.kernel", kernel, wbuf, sbuf, m, n, count, points, mask)
            tracer.counts["prefilter.candidates"] += count
            tracer.counts["prefilter.survivors"] += mask.count(1)

        return traced_kernel, name

    saved.append((search, "select_filter", select_filter))
    search.select_filter = traced_select_filter
    wrap(search, "row_universe", "search.universe", universe_built)
    # search calls these on pre-filter survivors only.
    wrap(search, "is_rigid", "rigidity.check", survivor_checked)
    wrap(search, "is_l_rigid", "rigidity.check", survivor_checked)
    wrap(cli, "is_rigid", "rigidity.check", checked)
    wrap(cli, "is_l_rigid", "rigidity.check", checked)
    wrap(bott, "is_rigid", "rigidity.check", checked)
    wrap(search, "classify_two_fixed_points", "search.annotate")
    wrap(search, "quasilinearity_test", "search.annotate")
    wrap(search, "pair_partition", "search.annotate", annotated)
    wrap(rigidity, "t_series", "algebra.series")
    wrap(rigidity, "l_series", "algebra.series")
    wrap(algebra.DenomFactors, "expand", "algebra.expand")
    wrap(algebra.LaurentRational, "evaluate", "algebra.witness_eval")
    wrap(bott, "chern_number", "bott.chern", chern_called)
    wrap(cli, "chern_number", "bott.chern", chern_called)
    wrap(cli, "parse_matrix_text", "cli.parse")
    wrap(cli, "sweep", "search.enum")
    wrap(cli, "triple_identity_search", "search.enum")

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


# ---------------------------------------------------------------- oracles


def forced_constant(rows, x, y):
    return sum(s * x ** sum(w > 0 for w in ws) * (-y) ** sum(w < 0 for w in ws) for ws, s in rows)


def identity_holds(rows, x, y):
    """Whether sum_i s_i prod_j (x z^w + y)/(z^w - 1) equals its forced
    constant identically in z, at integers (x, y).

    Clearing denominators gives an integer polynomial P(z) whose
    coefficients are bounded by ``bound`` below; P vanishes at z0 > 2*bound
    only if P is zero, so one exact evaluation decides the identity.
    """
    m, n = len(rows), len(rows[0][0])
    c = forced_constant(rows, x, y)
    bound = m * (abs(x) + abs(y)) ** n * 2 ** (n * (m - 1)) + abs(c) * 2 ** (n * m)
    z0 = 1 << (bound.bit_length() + 2)
    total_num, total_den = 0, 1
    for ws, s in rows:
        num, den = s, 1
        for w in ws:
            p = z0 ** abs(w)
            num *= x * p + y if w > 0 else -(x + y * p)
            den *= p - 1
        total_num = total_num * den + num * total_den
        total_den *= den
    return total_num == c * total_den


def t_rigid(rows):
    # The identity is homogeneous of degree n in (x, y): every coefficient
    # of P at y = 1 is a polynomial of degree <= n in x, so n + 1 values of
    # x decide it for all (x, y).
    return all(identity_holds(rows, x, 1) for x in range(1, len(rows[0][0]) + 2))


def l_rigid(rows):
    return identity_holds(rows, 1, 1)


def elementary(ws):
    coeffs = [1] + [0] * len(ws)
    for v in ws:
        for d in range(len(ws), 0, -1):
            coeffs[d] += coeffs[d - 1] * v
    return coeffs


def chern(rows, r):
    """Bott residue sum: sum_i prod_k sigma_k(row_i)^r_k / (s_i prod_j w_ij)."""
    total = Fraction(0)
    for ws, s in rows:
        sigma = elementary(ws)
        num = math.prod(sigma[k] ** rk for k, rk in enumerate(r, start=1))
        total += Fraction(num, s * math.prod(ws))
    return total


def exponent_tuples(n, degree):
    """All (r_1..r_n) of weighted degree exactly ``degree``."""
    def rec(k, remaining):
        if k > n:
            if remaining == 0:
                yield ()
            return
        for rk in range(remaining // k + 1):
            for rest in rec(k + 1, remaining - k * rk):
                yield (rk,) + rest
    return list(rec(1, degree))


def screen_lines(rows):
    n = len(rows[0][0])
    violations = sum(chern(rows, r) != 0 for d in range(n) for r in exponent_tuples(n, d))
    boundary = all(chern(rows, r) == 0 for r in exponent_tuples(n, n))
    return [
        f"realizability violations: {violations or 'none'}",
        "boundary candidate: all Chern numbers vanish" if boundary
        else "not a boundary candidate: nonzero top-degree Chern number present",
    ]


# ---------------------------------------------------------------- workloads


@dataclass
class Op:
    name: str
    argv: List[str]
    check: Callable[[int, str], Optional[str]]  # (exit code, stdout) -> error or None


def render(rows):
    head = f"{len(rows)} {len(rows[0][0])}\n"
    return head + "".join(("+" if s == 1 else "-") + ": " + " ".join(map(str, ws)) + "\n"
                          for ws, s in rows)


def difference_matrix(rng, n):
    seed = rng.sample(range(-12, 13), n + 1)
    rows = []
    for i, a in enumerate(seed):
        ws = [a - b for j, b in enumerate(seed) if j != i]
        rng.shuffle(ws)
        rows.append((tuple(ws), 1))
    rng.shuffle(rows)
    return rows


NONZERO = [v for v in range(-9, 10) if v]


def random_matrix(rng, m, n):
    return [(tuple(rng.choice(NONZERO) for _ in range(n)), rng.choice((1, -1))) for _ in range(m)]


def expect_search(digest, out_path):
    def check(rc, _stdout):
        if rc != 0:
            return f"exit {rc}"
        if digest is None:
            return "no recorded digest"
        got = hashlib.sha256(Path(out_path).read_bytes()).hexdigest()
        return None if got == digest else f"--out sha256 {got[:12]} != {digest[:12]}"
    return check


def search_ops(workload, tiny, work, expected):
    """The search commands of a pass, plus (name, argv, m, mode, n, bound) per spec."""
    specs = []
    if workload == "sweep":
        for mode, m, n, b in (TINY_SWEEP_SPECS if tiny else SWEEP_SPECS):
            argv = ["search", "--m", str(m), "--n", str(n), "--bound", str(b), "--mode", mode]
            specs.append((f"{mode} m={m} n={n} b={b}", argv, m, mode, n, b))
    else:
        for n, b in (TINY_TRIPLE_SPECS if tiny else TRIPLE_SPECS):
            argv = ["search", "--problem24", "--n", str(n), "--bound", str(b)]
            specs.append((f"problem24 n={n} b={b}", argv, 3, "L", n, b))
    ops = []
    for i, (name, argv, *_) in enumerate(specs):
        out_path = str(work / f"out-{i}.jsonl")
        ops.append(Op(name, argv + ["--out", out_path],
                      expect_search(expected["digests"].get(name), out_path)))
    return ops, specs


def items_covered(workload, specs):
    """Canonical candidates (sweep) or (a, b, c) triples (triple) per pass."""
    total = 0
    for _key, _argv, m, mode, n, b in specs:
        values = b if mode == "L" else 2 * b
        if workload == "sweep":
            universe = 2 * math.comb(values + n - 1, n)
            total += math.comb(universe + m - 1, m)
        else:
            lists = math.comb(b + n - 1, n)
            total += lists * (lists + 1) // 2 * lists
    return total


def expect_check(mode, rigid, constant=None):
    """``rigid`` is a thunk: the oracle runs when the op is checked, untimed."""
    def check(rc, out):
        lines = out.splitlines()
        if not rigid():
            return None if rc == 1 and lines[:1] == ["NotRigid"] else f"want NotRigid/1, got {rc} {lines[:1]}"
        if rc != 0 or len(lines) < 2 or not lines[0].startswith("Rigid, constant = ") \
                or not lines[1].endswith("(match)"):
            return f"want Rigid/0 with match, got {rc} {lines[:2]}"
        if mode == "L" and not lines[0].endswith(f"(integer value {constant})"):
            return f"want integer value {constant}, got {lines[0]}"
        return None
    return check


def expect_lines(want):
    """``want`` is a thunk giving the expected lines, detail lines excluded."""
    def check(rc, out):
        got = [line for line in out.splitlines() if not line.startswith("  ")]
        expected = want()
        return None if rc == 0 and got == expected else f"want 0 {expected}, got {rc} {got}"
    return check


def chern_line(rows, partition):
    value = chern(rows, partition)
    kind = "integer" if value.denominator == 1 else "non-integer"
    return [f"chern number for exponents {partition}: {value} ({kind})"]


def check_batch(rng, tiny, work, index):
    """One pass of documents, in shuffled order."""
    docs = []
    for n in range(3, 8):
        for _ in range(TINY_DIFF_PER_N if tiny else DIFF_PER_N):
            docs.append(("diff", difference_matrix(rng, n)))
    for m in range(2, 7):
        for n in range(2, 7):
            docs.append(("rand", random_matrix(rng, m, n)))
    rng.shuffle(docs)
    ops = []
    for i, (kind, rows) in enumerate(docs):
        path = work / f"doc-{index}-{i}.txt"
        path.write_text(render(rows), encoding="utf-8")
        doc, n = str(path), len(rows[0][0])
        name = f"batch{index}:doc{i}:{kind}:m={len(rows)}:n={n}"
        partition = (0,) * (n - 1) + (1,)
        # Difference matrices are rigid (a theorem); the rest go to the oracle.
        t_verdict = (lambda: True) if kind == "diff" else (lambda rows=rows: t_rigid(rows))
        l_verdict = (lambda: True) if kind == "diff" else (lambda rows=rows: l_rigid(rows))
        ops += [
            Op(f"{name}:check", ["check", doc], expect_check("T", t_verdict)),
            Op(f"{name}:check-L", ["check", doc, "--mode", "L"],
               expect_check("L", l_verdict, forced_constant(rows, 1, 1))),
            Op(f"{name}:screen", ["screen", doc], expect_lines(lambda rows=rows: screen_lines(rows))),
            Op(f"{name}:chern", ["chern", doc, "--partition", ",".join(map(str, partition))],
               expect_lines(lambda rows=rows, r=partition: chern_line(rows, r))),
        ]
    return ops, len(docs)


# Documents that ROADMAP "Recent" lists as mishandled, with the outcome each
# must have.  "reject": malformed input, so no verdict and exit 2.
# "consistent": valid input, so either that, or a printed verdict that
# matches the exit code.  They are not timed.
KNOWN_DEFECTS = [
    ("float-weight", "reject", ["--json"],
     '{"rows": [{"sign": 1, "weights": [1.7]}, {"sign": 1, "weights": [-1]}]}'),
    ("bool-sign", "reject", ["--json"],
     '{"rows": [{"sign": true, "weights": [1]}, {"sign": 1, "weights": [-1]}]}'),
    ("rows-not-list", "reject", ["--json"], '{"rows": 5}'),
    ("weight-99999", "consistent", [], "2 1\n+: 99999\n+: 1\n"),
]


def expect_outcome(outcome):
    def check(rc, out):
        verdicts = [line for line in out.splitlines() if line == "NotRigid" or line.startswith("Rigid")]
        if not verdicts:
            return None if rc == 2 else f"no verdict but exit {rc}"
        if outcome == "reject":
            return f"malformed input got verdict {verdicts[0].split(',')[0]!r} (exit {rc})"
        want = 0 if verdicts[0].startswith("Rigid") else 1
        return None if rc == want else f"printed {verdicts[0].split(',')[0]!r} but exit {rc}"
    return check


def defect_ops(work):
    ops = []
    for name, outcome, flags, text in KNOWN_DEFECTS:
        path = work / f"defect-{name}.doc"
        path.write_text(text, encoding="utf-8")
        ops.append(Op(f"defect:{name}", ["check", str(path)] + flags, expect_outcome(outcome)))
    return ops


# ---------------------------------------------------------------- running


def setup(args, batch_keys, work, expected):
    """Import the program and write its inputs; returns one op list per pass.

    ``batch_keys`` names the check batches to write, as (worker, batch):
    each key seeds its own generator, so a batch does not depend on the
    process that writes it.
    """
    mods = load_program()
    meta = {}
    if args.workload == "check":
        made = [check_batch(random.Random(f"{args.seed}/{w}/{b}"), args.tiny, work, f"{w}.{b}")
                for w, b in batch_keys]
        return mods, [ops for ops, _ in made], made[0][1], meta
    ops, specs = search_ops(args.workload, args.tiny, work, expected)
    pre = mods["prefilter"]
    meta["kernel"] = {
        key: pre.select_filter(m, n, b, pre.sample_points(mode))[1]
        for key, _argv, m, mode, n, b in specs
    }
    return mods, [ops], items_covered(args.workload, specs), meta


def run_pass(main, ops, tracer=None, probe=None):
    """Run each op once; returns (seconds per op, failures).  With a probe,
    each op's seconds are scaled by the probe samples taken while it ran."""
    gc.collect()  # untimed: each pass starts from the same collector state
    latencies, failures = [], []
    for op in ops:
        first = len(probe.samples) if probe else 0
        rc, out, seconds = call_cli(main, op.argv, tracer, probe)
        latencies.append((seconds, probe.scale(first)) if probe else seconds)
        if tracer is not None:
            tracer.counts["cli.out_bytes"] += len(out.encode())
            out_path = op.argv[-1] if "--out" in op.argv else None
            if out_path and os.path.exists(out_path):
                tracer.counts["cli.out_bytes"] += os.path.getsize(out_path)
        error = op.check(rc, out)
        if error:
            failures.append(f"{op.name}: {error}")
    return latencies, failures


def timed_passes(budget, minimum, walls):
    """Pass indexes: at least ``minimum``, then more while the next pass,
    as long as the median one so far, still ends within ``budget`` seconds.
    ``walls`` is the caller's list of pass times, appended as passes end."""
    start = time.perf_counter()
    index = 0
    while index < minimum or (
            time.perf_counter() - start + statistics.median(walls) <= budget):
        yield index
        index += 1


def tail(samples):
    """Highest sample with at least TAIL_BEYOND samples above it (the
    largest when there are not that many), and its percentile."""
    ordered = sorted(samples)
    index = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def remove_work(work):
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):  # another run still uses it
        work.parent.rmdir()


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(selfs, counts, wall, traced_walls, untraced_walls):
    out = {name: metric(selfs.get(span, 0.0), "s") for span, name in SELF_METRICS.items()}
    for name, unit in COUNT_METRICS.items():
        out[name] = metric(counts.get(name, 0), unit)
    candidates, survivors = counts.get("prefilter.candidates", 0), counts.get("prefilter.survivors", 0)
    kernel_s = selfs.get("prefilter.kernel", 0.0)
    checks = counts.get("rigidity.checks", 0)
    out["prefilter.survivor_ratio"] = metric(survivors / candidates if candidates else 0.0, "ratio")
    out["prefilter.candidates_per_s"] = metric(candidates / kernel_s if kernel_s else 0.0, "1/s")
    out["rigidity.useful_ratio"] = metric(counts.get("rigidity.finds", 0) / checks if checks else 0.0, "ratio")
    out["trace.wall_s"] = metric(wall, "s")
    out["trace.overhead_ratio"] = metric(
        statistics.median(traced_walls) / statistics.median(untraced_walls), "ratio")
    return out


def worker_samples(args) -> dict:
    """One worker's share of a run, as samples: set-ups, untraced
    passes and, with --trace 1, traced passes, within ``args.budget`` s."""
    expected = json.loads(EXPECTED_PATH.read_text())
    untraced_budget = args.budget / 2 if args.trace else args.budget
    if args.trace:
        # Every traced pass, in every worker, runs the same batch, so that
        # exact counts can be compared pass to pass.
        batch_keys = [(0, 0)]
    else:
        batch_keys = [(args.worker, b) for b in range(math.ceil(untraced_budget / CHECK_PASS_S))]
    work = work_dir(os.getppid(), args.worker)
    work.mkdir(parents=True, exist_ok=True)
    try:
        with SpeedProbe() as probe:
            raw_setups = []
            for _ in range(SETUPS):
                probed, start = probe.spent, time.perf_counter()
                mods, op_batches, items, meta = setup(args, batch_keys, work, expected)
                raw_setups.append(time.perf_counter() - start - (probe.spent - probed))
            main = mods["cli"].main
            first_op_s = time.perf_counter() - PROCESS_START

            start = time.perf_counter()
            raw_walls, walls, scales, failures = [], [], [], []
            latencies = defaultdict(list)  # op name -> scaled seconds, one per repetition
            attempted = 0
            for index in timed_passes(untraced_budget, 1, raw_walls):
                ops = op_batches[index % len(op_batches)]
                lat, fails = run_pass(main, ops, probe=probe)
                raw_walls.append(sum(seconds for seconds, _ in lat))
                walls.append(sum(seconds * scale for seconds, scale in lat))
                scales.append(walls[-1] / raw_walls[-1])
                for op, (seconds, scale) in zip(ops, lat):
                    latencies[op.name].append(seconds * scale)
                failures += fails
                attempted += len(ops)
            # Set-ups are too short to have probe samples of their own.
            setup_scale = probe.scale(0)

        traced = []  # {"wall", "selfs", "counts"} per pass
        if args.trace:
            ops = op_batches[0]
            tracer = Tracer()
            undo = instrument(mods, tracer)
            traced_walls = []
            try:
                for _ in timed_passes(args.budget - (time.perf_counter() - start), 2, traced_walls):
                    tracer.reset()
                    lat, fails = run_pass(main, ops, tracer)
                    failures += fails
                    attempted += len(ops) + 1  # + the exact-count comparison
                    tracer.counts["search.candidates"] = items if args.workload != "check" else 0
                    traced_walls.append(sum(lat))
                    traced.append({"wall": sum(lat), "selfs": tracer.self_times(),
                                   "counts": dict(tracer.counts)})
            finally:
                undo()

        defects = None
        if args.workload == "check" and args.worker == 0:
            defects = {}
            for op in defect_ops(work):
                rc, out, _ = call_cli(main, op.argv)
                defects[op.name] = op.check(rc, out) or "ok"
    finally:
        remove_work(work)
    return {
        "setup_s": [t * setup_scale for t in raw_setups], "raw_setup_s": raw_setups,
        "first_op_s": first_op_s, "walls": walls,
        "raw_walls": raw_walls, "scales": scales,
        "latencies": latencies, "failures": failures, "attempted": attempted,
        "traced": traced, "defects": defects, "peak_rss_mib": peak_rss_mib(),
        "items": items, "ops_per_pass": len(op_batches[0]), "meta": meta,
    }


def work_dir(parent_pid, index):
    return HERE / ".work" / f"{parent_pid}.{index}"


def run_worker(args, index, budget) -> dict:
    """Run one worker process to its end and return its samples."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace),
            "--worker", str(index), "--budget", repr(budget)]
    if args.tiny:
        argv.append("--tiny")
    # On a timeout or any exception, subprocess.run kills the worker and
    # waits for it.
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=budget + WORKER_GRACE_S)
    finally:
        remove_work(work_dir(os.getpid(), index))
    if proc.returncode != 0:
        raise SystemExit(f"error: worker {index} exited {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(args) -> Tuple[dict, dict]:
    if not (SRC / "rigidpow" / "cli.py").is_file():
        raise SystemExit(f"error: no rigidpow sources under {SRC}")
    expected = json.loads(EXPECTED_PATH.read_text())
    # A termination request becomes an exception, so the worker is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    count = max(1, min(TRACE_WORKERS if args.trace else WORKERS,
                       int(args.seconds // MIN_WORKER_S)))
    start = time.perf_counter()
    samples = []
    for index in range(count):
        # Each worker gets an equal share of the time the earlier ones left.
        budget = max(0.0, args.seconds - (time.perf_counter() - start)) / (count - index)
        samples.append(run_worker(args, index, budget))

    walls = [w for s in samples for w in s["walls"]]
    latencies = defaultdict(list)
    for s in samples:
        for name, values in s["latencies"].items():
            latencies[name] += values
    failures = [f for s in samples for f in s["failures"]]
    attempted = sum(s["attempted"] for s in samples)
    setup_times = [t for s in samples for t in s["setup_s"]]
    items = samples[0]["items"]

    layers = None
    if args.trace:
        traced = [t for s in samples for t in s["traced"]]
        if args.workload == "check":
            want = traced[0]["counts"]
        else:
            key = args.workload + (":tiny" if args.tiny else "")
            want = expected["counts"].get(key)
            if want is None:
                failures.append(f"no recorded counts for {key}")
                want = {}
        for index, t in enumerate(traced):
            if {k: t["counts"].get(k, 0) for k in want} != want:
                failures.append(f"traced pass {index}: counts {t['counts']} != {want}")
        median_pass = sorted(traced, key=lambda t: t["wall"])[(len(traced) - 1) // 2]
        raw_walls = [w for s in samples for w in s["raw_walls"]]
        layers = layer_metrics(median_pass["selfs"], median_pass["counts"], median_pass["wall"],
                               [t["wall"] for t in traced], raw_walls)

    wall_s = statistics.median(walls)
    op_latencies = [statistics.median(v) for v in latencies.values()]
    tail_value, tail_pct = tail(op_latencies)
    e2e = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(wall_s, "s"),
        "items_per_s": metric(items / wall_s, "items/s"),
        "op_ms.p50": metric(1000.0 * statistics.median(op_latencies), "ms"),
        "op_ms.tail": metric(1000.0 * tail_value, "ms"),
        "peak_rss_mib": metric(max(s["peak_rss_mib"] for s in samples), "MiB"),
    }
    meta = dict(samples[0]["meta"])
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workers": count,
        "raw_wall_s": statistics.median(w for s in samples for w in s["raw_walls"]),
        "raw_setup_s": statistics.median(t for s in samples for t in s["raw_setup_s"]),
        "speed_scale": statistics.median(c for s in samples for c in s["scales"]),
        "passes": len(walls),
        "passes_per_worker": [len(s["walls"]) for s in samples],
        "ops_per_pass": samples[0]["ops_per_pass"],
        "items_per_pass": items,
        "op_samples": len(op_latencies),
        "tail_percentile": round(tail_pct, 2),
        "setup_samples_s": setup_times,
        "process_start_to_first_op_s": [s["first_op_s"] for s in samples],
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    })
    defects = samples[0]["defects"]
    if defects is not None:
        failing = sorted(name for name, state in defects.items() if state != "ok")
        meta["known_defects"] = {"fail_ratio": len(failing) / len(defects), "failing": failing,
                                 "detail": defects}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": layers if args.trace else e2e,
    }
    return result, meta


def record(args):
    """Rewrite expected.json: --out digests and exact layer counts."""
    expected = {"digests": {}, "counts": {}}
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in ("sweep", "triple"):
            for tiny in (False, True):
                mods = load_program()
                ops, specs = search_ops(workload, tiny, work, {"digests": {}})
                tracer = Tracer()
                undo = instrument(mods, tracer)
                try:
                    for op in ops:
                        rc, _out, _ = call_cli(mods["cli"].main, op.argv, tracer)
                        if rc != 0:
                            raise SystemExit(f"error: {op.name} exited {rc}")
                        expected["digests"][op.name] = hashlib.sha256(
                            Path(op.argv[-1]).read_bytes()).hexdigest()
                finally:
                    undo()
                key = workload + (":tiny" if tiny else "")
                expected["counts"][key] = {k: tracer.counts.get(k, 0) for k in RECORDED_COUNTS}
    finally:
        remove_work(work)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")


def main(argv=None):
    spec = json.loads(BENCHMARK_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    parser.add_argument("--record", action="store_true", help="rewrite expected.json and exit")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        record(args)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.worker is not None:
        print(json.dumps(worker_samples(args)))
        return 0
    result, meta = measure(args)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
