"""Canonicalized exhaustive enumeration of weight matrices within bounds.

A sweep enumerates every canonical representative with ``|w| <= bound``
(in L mode, weights are positive after sign normalization and every sign
pattern is covered), rejects candidates that fail exact evaluation at a
few sample points, and runs the full symbolic constancy check on the
survivors.  Rejection is sound -- a constant function matches its forced
constant at every valid point -- so no rigid matrix is ever skipped, and
false positives are caught by the symbolic check.

Enumeration generates canonical forms directly: weights inside a row are
non-increasing and the row list is non-decreasing, so each equivalence
class under row and column permutation appears exactly once.  Shards fix
the first (smallest) row; each shard is independently enumerable and the
merged result is a deterministic sorted union, so shard count never
changes the outcome of a completed sweep.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, compress, islice, product
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import Form
from .bott import ClassLabel, classify_two_fixed_points, kosniowski_bound
from .prefilter import sample_points, select_filter
from .rigidity import (
    Row,
    WeightMatrix,
    exact_int,
    is_l_rigid,
    is_rigid,
    normalize_signs,
    pair_partition,
    quasilinear,
)

_CHUNK = 1024

RowsTuple = Tuple[Row, ...]
Triple = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]


class WrongShape(ValueError):
    """A difference-matrix test needs exactly n+1 rows of n weights."""


class BudgetExceeded(RuntimeError):
    """A sweep hit its enumeration or exact-check budget.

    ``report`` holds the deterministic partial results accumulated before
    the budget ran out.
    """

    def __init__(self, message: str, report: "SearchReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one exhaustive sweep.

    Budgets default to 10**7 enumerations and 10**5 exact checks.  Every
    number must be an ``int`` (``bool`` and floats raise ``ValueError``):
    ``bound`` sizes the pre-filter's exact denominators.
    """

    m: int
    n: int
    bound: int
    mode: str = "T"
    enum_budget: int = 10_000_000
    check_budget: int = 100_000

    def __post_init__(self):
        for name in ("m", "n", "bound", "enum_budget", "check_budget"):
            exact_int(name, getattr(self, name))
        if self.m < 1 or self.n < 1 or self.bound < 1:
            raise ValueError("m, n and bound must all be at least 1")
        if self.mode not in ("T", "L"):
            raise ValueError(f"mode must be 'T' or 'L', got {self.mode!r}")
        if self.enum_budget < 1 or self.check_budget < 1:
            raise ValueError("budgets must be positive")


@dataclass(frozen=True)
class SweepStats:
    enumerated: int
    rejected: int
    exact_checks: int
    wall_time: float


@dataclass(frozen=True)
class Find:
    """One rigid matrix found by a sweep, with its structural annotations."""

    matrix: WeightMatrix
    constant: Form
    label: Optional[ClassLabel]
    quasilinear_seed: Optional[Tuple[int, ...]]
    kosniowski_ok: bool
    pairable: bool

    @property
    def tag(self) -> str:
        if self.label is not None and self.label.kind != "unclassified":
            return self.label.kind
        if self.quasilinear_seed is not None:
            return "quasilinear"
        if self.label is not None:
            return "unclassified"
        return "-"


@dataclass(frozen=True)
class SearchReport:
    spec: SearchSpec
    found: Tuple[Find, ...]
    stats: SweepStats

    def violations(self) -> List[Find]:
        """Finds that break a conjectured property; never suppressed."""
        return [f for f in self.found if not f.kosniowski_ok or not f.pairable]

    def small_nonzero_anomalies(self) -> List[Find]:
        """Evidence scan for L-mode sweeps: finds with a nonzero constant
        and at most n+1 rows that break the only known pattern (exactly
        n+1 rows, constant of absolute value 1).  Empty output means the
        sweep is consistent with that pattern; anything here is a
        discovery to surface, not suppress."""
        anomalies = []
        for f in self.found:
            if f.constant.is_zero() or f.matrix.m > f.matrix.n + 1:
                continue
            value = f.constant.constant_value() if f.constant.is_constant() else None
            if f.matrix.m < f.matrix.n + 1 or value is None or abs(value) != 1:
                anomalies.append(f)
        return anomalies


def canonical_form(matrix: WeightMatrix, mode: str = "T") -> WeightMatrix:
    """Canonical representative under the symmetries the mode admits.

    Both modes sort weights inside each row (descending) and then sort the
    row list; L mode first flips weights positive, folding flips into row
    signs.  Matrices with equal canonical forms have identical functions.
    """
    if mode not in ("T", "L"):
        raise ValueError(f"mode must be 'T' or 'L', got {mode!r}")
    if mode == "L":
        matrix = normalize_signs(matrix)
    rows = [Row(tuple(sorted(r.weights, reverse=True)), r.sign) for r in matrix.rows]
    rows.sort()
    return WeightMatrix(tuple(rows))


def row_universe(n: int, bound: int, mode: str) -> List[Row]:
    """All canonical rows (weights non-increasing, sign ±1), sorted."""
    if mode == "L":
        values = list(range(bound, 0, -1))
    else:
        values = [v for v in range(bound, -bound - 1, -1) if v != 0]
    rows = []
    for weights in combinations_with_replacement(values, n):
        for sign in (-1, 1):
            rows.append(Row(weights, sign))
    rows.sort()
    return rows


def _shard_rows(universe: Sequence[Row], m: int, shard_index: int, shard_count: int):
    """Canonical candidates whose first row index is ≡ shard_index mod shard_count."""
    for i in range(shard_index, len(universe), shard_count):
        yield from map((universe[i],).__add__,
                       combinations_with_replacement(universe[i:], m - 1))


@dataclass
class _ShardResult:
    found: List[Tuple[RowsTuple, Form]] = field(default_factory=list)
    enumerated: int = 0
    rejected: int = 0
    exact_checks: int = 0
    exceeded: bool = False


def _prefiltered(candidates: Iterable[RowsTuple], m: int, n: int, bound: int,
                 mode: str) -> Iterator[Tuple[List[RowsTuple], bytearray]]:
    """The pre-filter stage: ``(chunk, mask)`` for each run of up to ``_CHUNK``
    candidates, drawn lazily; ``mask[i]`` is 1 when ``chunk[i]`` matches its
    forced constant at every sample point.  The kernel gets one weight tuple
    and one sign per row."""
    points = sample_points(mode)
    kernel, _ = select_filter(m, n, bound, points)
    candidates = iter(candidates)
    while True:
        chunk = list(islice(candidates, _CHUNK))
        if not chunk:
            return
        weights, signs = zip(*chain.from_iterable(chunk))
        mask = bytearray(len(chunk))
        kernel(weights, signs, m, n, len(chunk), points, mask)
        yield chunk, mask


def _run_shard(spec: SearchSpec, shard_index: int, shard_count: int,
               enum_cap: int, check_cap: int) -> _ShardResult:
    universe = row_universe(spec.n, spec.bound, spec.mode)
    decide = is_rigid if spec.mode == "T" else is_l_rigid
    candidates = _shard_rows(universe, spec.m, shard_index, shard_count)

    result = _ShardResult()
    stage = _prefiltered(islice(candidates, enum_cap), spec.m, spec.n, spec.bound, spec.mode)
    for chunk, mask in stage:
        result.enumerated += len(chunk)
        result.rejected += mask.count(0)
        for rows in compress(chunk, mask):
            if result.exact_checks >= check_cap:
                result.exceeded = True
                return result
            result.exact_checks += 1
            verdict = decide(WeightMatrix(rows))
            if verdict.rigid:
                result.found.append((rows, verdict.constant))
    result.exceeded = next(candidates, None) is not None
    return result


def _annotate(spec: SearchSpec, rows: RowsTuple, constant: Form) -> Find:
    matrix = WeightMatrix(rows)
    label = classify_two_fixed_points(matrix) if matrix.m == 2 else None
    seed = None
    if matrix.m == matrix.n + 1:
        seed = quasilinearity_test(matrix, mode=spec.mode)
    pairable = pair_partition(normalize_signs(matrix)) is not None
    k_ok = constant.is_zero() or matrix.m >= kosniowski_bound(matrix.n)
    return Find(matrix, constant, label, seed, k_ok, pairable)


def sweep(spec: SearchSpec, *, shards: int = 1, workers: int = 1) -> SearchReport:
    """Run an exhaustive sweep and return every rigid find, annotated.

    Raises :class:`BudgetExceeded` (carrying the partial report) when a
    budget runs out.  With ``shards > 1`` the budgets are split evenly
    across shards; with ``workers > 1`` shards run in separate processes,
    at most one per shard and one per CPU.  Either way the found set of a
    completed sweep is identical.
    """
    if exact_int("shards", shards) < 1 or exact_int("workers", workers) < 1:
        raise ValueError("shards and workers must be at least 1")
    started = time.perf_counter()
    enum_cap = max(1, spec.enum_budget // shards)
    check_cap = max(1, spec.check_budget // shards)
    # the pool forks all its processes at the first submit
    workers = min(workers, shards, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_shard, spec, s, shards, enum_cap, check_cap)
                for s in range(shards)
            ]
            results = [f.result() for f in futures]
    else:
        results = [_run_shard(spec, s, shards, enum_cap, check_cap) for s in range(shards)]

    pairs = sorted((pair for r in results for pair in r.found), key=lambda pair: pair[0])
    finds = tuple(_annotate(spec, rows, constant) for rows, constant in pairs)
    stats = SweepStats(
        enumerated=sum(r.enumerated for r in results),
        rejected=sum(r.rejected for r in results),
        exact_checks=sum(r.exact_checks for r in results),
        wall_time=time.perf_counter() - started,
    )
    report = SearchReport(spec, finds, stats)
    if any(r.exceeded for r in results):
        raise BudgetExceeded(
            "enumeration or exact-check budget exhausted; partial results attached",
            report,
        )
    return report


def quasilinearity_test(matrix: WeightMatrix, mode: str = "T") -> Optional[Tuple[int, ...]]:
    """Recover a difference-matrix seed reproducing ``matrix``, if one exists.

    The seed is normalized to start at 0; the remaining entries are read
    off the first row (difference matrices are shift-invariant, so fixing
    the first entry loses nothing) and verified by canonical-form equality.
    In T mode rows must match up to row and column permutation.  In L mode
    the match is up to the sign symmetries the x=y=1 function cannot see:
    per-weight flips folded into row signs, and global sign negation.
    """
    if matrix.m != matrix.n + 1:
        raise WrongShape(f"need m = n + 1, got m = {matrix.m}, n = {matrix.n}")
    first = matrix.rows[0].weights
    if mode == "T":
        sign_choices: List[Tuple[int, ...]] = [tuple(1 for _ in first)]
        targets = {canonical_form(matrix, "T")}
    elif mode == "L":
        sign_choices = list(product((1, -1), repeat=len(first)))
        targets = {
            canonical_form(matrix, "L"),
            canonical_form(matrix.with_signs_negated(), "L"),
        }
    else:
        raise ValueError(f"mode must be 'T' or 'L', got {mode!r}")
    for sigma in sign_choices:
        seed = (0, *(-s * w for s, w in zip(sigma, first)))
        if len(set(seed)) != len(seed):
            continue
        if canonical_form(quasilinear(seed), mode) in targets:
            return seed
    return None


def triple_identity_search(n: int, bound: int) -> List[Triple]:
    """All triples of positive weight lists solving the signature-sum identity.

    Searches sorted lists ``a``, ``b``, ``c`` with ``n`` entries in
    ``[1, bound]`` and ``a <= b``, keeping those for which the matrix with
    rows ``a``, ``b``, ``c`` signed +, +, - has a constant x=y=1 function;
    the constant is then automatically 1, making the rows satisfy
    ``L_a(z) + L_b(z) = L_c(z) + 1`` identically.
    """
    if exact_int("n", n) < 1 or exact_int("bound", bound) < 1:
        raise ValueError("n and bound must be at least 1")
    plus = [Row(v, 1) for v in combinations_with_replacement(range(1, bound + 1), n)]
    minus = [Row(v.weights, -1) for v in plus]
    triples = ((plus[i], b, c) for i in range(len(plus)) for b in plus[i:] for c in minus)
    solutions: List[Triple] = []
    for chunk, mask in _prefiltered(triples, 3, n, bound, "L"):
        for rows in compress(chunk, mask):
            verdict = is_l_rigid(WeightMatrix(rows))
            if verdict.rigid and verdict.constant.constant_value() == 1:
                solutions.append(tuple(row.weights for row in rows))
    return solutions
