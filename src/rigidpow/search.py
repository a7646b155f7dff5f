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
class under row and column permutation appears exactly once.  A candidate
is a non-decreasing list of indices into the sorted row universe, and the
candidates are walked in blocks that share their first m - 2 rows, or for
m >= 4 their first m - 3; the pre-filter decides a whole block with one
residue lookup per choice of its first free row (see
:mod:`rigidpow.prefilter`) and hands the block's mask only its survivors,
each as its offset and its rows (no byte per candidate), so only
survivors are ever built as matrices.  A one-row candidate never
survives, so an m = 1 sweep only counts its candidates.  Shards fix the
first (smallest) row; each shard is independently enumerable and the
merged result is a deterministic sorted union, so shard count never
changes the outcome of a completed sweep.
"""

from __future__ import annotations

import os
import time
from itertools import accumulate, combinations_with_replacement, product
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .algebra import Form
from .bott import ClassLabel, classify_two_fixed_points, kosniowski_bound
from .prefilter import block_size, sample_points, select_filter
from .rigidity import (
    Row,
    WeightMatrix,
    exact_int,
    fold_signs,
    is_l_rigid,
    is_rigid,
    pair_partition,
)

# The pre-filter once took candidates in chunks of this many, and budget
# counts still follow those chunks; see _run_shards.
_CHUNK = 1024

# The most rows a sweep's row universe may hold; a larger one could not be
# built in memory, let alone swept.
MAX_UNIVERSE_ROWS = 10_000_000

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


class SearchSpec:
    """Parameters of one exhaustive sweep.

    Budgets default to ``SearchSpec.enum_budget`` = 10**7 enumerations and
    ``SearchSpec.check_budget`` = 10**5 exact checks.  Every number must be
    an ``int`` (``bool`` and floats raise ``ValueError``).  ``bound`` limits
    every ``|w|``, and the pre-filter needs it below ``(_PRIME - 1) // 2``
    (see :func:`rigidpow.prefilter.select_filter`), and the row universe
    of ``n`` and ``bound`` may hold at most ``MAX_UNIVERSE_ROWS`` rows.  A
    spec is immutable.
    """

    enum_budget = 10_000_000
    check_budget = 100_000

    def __init__(self, m: int, n: int, bound: int, mode: str = "T",
                 enum_budget: int = enum_budget, check_budget: int = check_budget):
        vars(self).update(m=m, n=n, bound=bound, mode=mode,
                          enum_budget=enum_budget, check_budget=check_budget)
        for name in ("m", "n", "bound", "enum_budget", "check_budget"):
            exact_int(name, getattr(self, name))
        if self.m < 1 or self.n < 1 or self.bound < 1:
            raise ValueError("m, n and bound must all be at least 1")
        if self.mode not in ("T", "L"):
            raise ValueError(f"mode must be 'T' or 'L', got {self.mode!r}")
        if self.enum_budget < 1 or self.check_budget < 1:
            raise ValueError("budgets must be positive")
        if _universe_rows(self.n, self.bound, self.mode) > MAX_UNIVERSE_ROWS:
            raise ValueError(f"the row universe of n = {self.n}, bound = {self.bound} in "
                             f"{self.mode} mode has more than {MAX_UNIVERSE_ROWS} rows")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a SearchSpec is immutable")


class SweepStats(NamedTuple):
    enumerated: int
    rejected: int
    exact_checks: int
    wall_time: float


class Find(NamedTuple):
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


class SearchReport(NamedTuple):
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


def _canonical_rows(rows: Iterable[Row], mode: str) -> Tuple[Row, ...]:
    """The rows of :func:`canonical_form`, as plain ``Row`` tuples."""
    if mode not in ("T", "L"):
        raise ValueError(f"mode must be 'T' or 'L', got {mode!r}")
    if mode == "L":
        rows = map(fold_signs, rows)
    return tuple(sorted(Row(tuple(sorted(r.weights, reverse=True)), r.sign) for r in rows))


def canonical_form(matrix: WeightMatrix, mode: str = "T") -> WeightMatrix:
    """Canonical representative under the symmetries the mode admits.

    Both modes sort weights inside each row (descending) and then sort the
    row list; L mode first flips weights positive, folding flips into row
    signs.  Matrices with equal canonical forms have identical functions.
    """
    return WeightMatrix(_canonical_rows(matrix.rows, mode))


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


def _universe_rows(n: int, bound: int, mode: str) -> int:
    """The number of rows of ``row_universe(n, bound, mode)``, ``2 C(v + n
    - 1, n)`` with ``v = bound`` values in L mode and ``2 bound`` in T
    mode, or, once it passes ``MAX_UNIVERSE_ROWS``, some number past that.
    ``C(v + n - 1, i)`` grows with ``i`` up to ``min(n, v - 1)``, which
    gives the same binomial, so the product stops there or at the cap."""
    v = bound if mode == "L" else 2 * bound
    rows = 2
    for i in range(1, min(n, v - 1) + 1):
        rows = rows * (v + n - i) // i
        if rows > MAX_UNIVERSE_ROWS:
            break
    return rows


def _blocks(m: int, size: int, shard_index: int, shard_count: int, free: int
            ) -> Iterator[Tuple[Tuple[int, ...], range]]:
    """A shard's canonical candidates over a universe of ``size`` rows, as
    blocks ``(heads, tails)`` in canonical order, the first row of each
    candidate ≡ shard_index mod shard_count.  ``heads`` indexes the first
    ``m - free`` rows and the last ``free`` are free, the first of them in
    ``tails`` (see :func:`rigidpow.prefilter.block_size`): ``free`` is
    ``min(m, 2)``, or 3 for a pair-table walk with ``m >= 4``.  Every
    block with ``m > 1`` is a kernel block (see
    :func:`rigidpow.prefilter.select_filter`).  A walk with no heads (``m
    = free``) is one block ``((), range(size))`` when unsharded, and
    otherwise has the block ``((), range(i, i + 1))`` of each first row
    ``i``, so that tails stay consecutive.  Otherwise each prefix ``heads``
    has the block ``range(heads[-1], size)`` of all rows after it.
    Building the one-head blocks directly keeps the walk linear in
    ``size``, where ``combinations_with_replacement`` would copy the whole
    range for every first row."""
    if m == free and shard_count == 1:
        yield (), range(size)
        return
    for i in range(shard_index, size, shard_count):
        if m == free:
            yield (), range(i, i + 1)
        elif m == free + 1:
            yield (i,), range(i, size)
        else:
            for rest in combinations_with_replacement(range(i, size), m - free - 1):
                heads = (i, *rest)
                yield heads, range(heads[-1], size)


class _Hits:
    """A kernel mask over ``size`` candidates that keeps only the
    survivors the kernel hands it: ``mask[k] = rows`` appends ``(k,
    rows)``, a survivor's offset in the block and its rows, to ``hits``,
    in the increasing ``k`` the kernel writes.  ``len`` is ``size``, the
    kernel's bound on ``count``.  ``count`` is there for the benchmark's
    tracer, which reads ``count(1)``: the number of survivors, as a mask
    of one byte per candidate would count its 1s."""

    __slots__ = ("size", "hits")

    def __init__(self, size: int):
        self.size, self.hits = size, []

    def __len__(self) -> int:
        return self.size

    def __setitem__(self, k: int, rows) -> None:
        self.hits.append((k, rows))

    def count(self, byte: int) -> int:
        hits = len(self.hits)
        return {1: hits, 0: self.size - hits}.get(byte, 0)


class _ShardResult:
    """One shard walk's finds and counts; the pool pickles it back."""

    def __init__(self):
        self.found: List[Tuple[WeightMatrix, Form]] = []
        self.enumerated = self.rejected = self.exact_checks = 0
        self.exceeded = False


def _run_shards(spec: SearchSpec, shard_indices: Iterable[int], shard_count: int,
                enum_cap: int, check_cap: int) -> List[_ShardResult]:
    """The listed shards of a sweep, each with its first ``enum_cap``
    candidates through the pre-filter and at most ``check_cap`` survivors
    through the symbolic check.  The row universe and its residues are
    built once for all of them (an m = 1 sweep, which never calls the
    kernel, builds no residues).  A walk of ``m >= 4`` rows that its enum
    budget cannot cut has three free rows per block, so it makes one kernel
    call per choice of its first ``m - 3`` rows; any other has two (see
    :func:`_blocks`).  A block that reaches past the enum budget is cut
    before the kernel is called, so the kernel decides no candidate past
    the budget, and its mask, a :class:`_Hits`, holds the block's survivors
    only, each with its rows."""
    universe = row_universe(spec.n, spec.bound, spec.mode)
    decide = is_rigid if spec.mode == "T" else is_l_rigid
    points = sample_points(spec.mode)
    kernel, _ = select_filter(spec.m, spec.n, spec.bound, points, universe if spec.m > 1 else ())
    m, n, size = spec.m, spec.n, len(universe)
    results = []
    for shard_index in shard_indices:
        result = _ShardResult()
        results.append(result)
        limit = enum_cap
        enumerated = passed = 0  # passed: pre-filter survivors among the enumerated
        # pair-table blocks only for a walk its enum budget cannot cut, so
        # that the table's U (U + 1) / 2 entries stay below the candidates
        # the walk decides
        totals = accumulate(block_size(range(i, i + 1), size, m)
                            for i in range(shard_index, size, shard_count))
        free = 3 if m >= 4 and all(total <= limit for total in totals) else min(m, 2)
        for heads, tails in _blocks(m, size, shard_index, shard_count, free):
            start = enumerated
            count = block_size(tails, size, free)
            if start + count > limit:
                result.exceeded = True
                if start >= limit:
                    break
                count = limit - start
            enumerated += count
            if m == 1:
                # No one-row candidate survives: at a sample point (z >= 2,
                # x, y >= 1) a weight w > 0 has the factor x + (x + y) /
                # (z^w - 1), larger than its constant x, and w = -a the
                # factor -(y + (x + y) / (z^a - 1)), larger in size than its
                # constant -y, so a row's value is larger in size than its
                # constant.
                continue
            mask = _Hits(count)
            kernel(heads, tails, m, n, count, points, mask)
            for k, rows in mask.hits:
                if start + k >= limit:
                    break
                passed += 1
                if result.exact_checks >= check_cap:
                    # Sweeps once fed the kernel _CHUNK candidates at a time
                    # and counted the whole chunk holding the survivor over
                    # budget as enumerated; the golden --budget cases pin
                    # that count.
                    limit = min(limit, (start + k) // _CHUNK * _CHUNK + _CHUNK)
                    result.exceeded = True
                    continue
                result.exact_checks += 1
                matrix = WeightMatrix(rows)
                verdict = decide(matrix)
                if verdict.rigid:
                    result.found.append((matrix, verdict.constant))
            enumerated = min(enumerated, limit)
        result.enumerated, result.rejected = enumerated, enumerated - passed
    return results


def _annotate(spec: SearchSpec, matrix: WeightMatrix, constant: Form) -> Find:
    label = classify_two_fixed_points(matrix) if matrix.m == 2 else None
    seed = None
    if matrix.m == matrix.n + 1:
        seed = quasilinearity_test(matrix, mode=spec.mode)
    pairable = pair_partition(matrix) is not None
    k_ok = constant.is_zero() or matrix.m >= kosniowski_bound(matrix.n)
    return Find(matrix, constant, label, seed, k_ok, pairable)


def check_pool(shards: int, workers: int) -> None:
    """Reject a shard or worker count that is not an int of at least 1."""
    if exact_int("shards", shards) < 1 or exact_int("workers", workers) < 1:
        raise ValueError("shards and workers must be at least 1")


def sweep(spec: SearchSpec, *, shards: int = 1, workers: int = 1) -> SearchReport:
    """Run an exhaustive sweep and return every rigid find, annotated.

    Raises :class:`BudgetExceeded` (carrying the partial report) when a
    budget runs out.  With ``shards > 1`` the budgets are split evenly
    across shards; with ``workers > 1`` shards run in separate processes,
    at most one per shard and one per CPU; each of those k processes builds
    the row universe and its residues once and runs every k-th shard.
    Either way the found set of a completed sweep is identical.
    """
    check_pool(shards, workers)
    started = time.perf_counter()
    enum_cap = max(1, spec.enum_budget // shards)
    check_cap = max(1, spec.check_budget // shards)
    # the pool forks all its processes at the first submit
    workers = min(workers, shards, os.cpu_count() or 1)
    if workers > 1:
        pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with pool_class(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_shards, spec, range(w, shards, workers), shards,
                            enum_cap, check_cap)
                for w in range(workers)
            ]
            results = [r for f in futures for r in f.result()]
    else:
        results = _run_shards(spec, range(shards), shards, enum_cap, check_cap)

    pairs = sorted((pair for r in results for pair in r.found), key=lambda pair: pair[0].rows)
    finds = tuple(_annotate(spec, matrix, constant) for matrix, constant in pairs)
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


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use (PEP 562) and cached
    in this module, so a process that never runs a pool never loads
    ``multiprocessing``; :func:`sweep` reads the cached name, so a patched
    one wins."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def quasilinearity_test(matrix: WeightMatrix, mode: str = "T") -> Optional[Tuple[int, ...]]:
    """Recover a difference-matrix seed reproducing ``matrix``, if one exists.

    The seed is normalized to start at 0; the remaining entries are read
    off the first row (difference matrices are shift-invariant, so fixing
    the first entry loses nothing) and verified by canonical-form equality.
    In T mode rows must match up to row and column permutation.  In L mode
    the match is up to the sign symmetries the x=y=1 function cannot see:
    per-weight flips folded into row signs, and global sign negation.
    Difference rows are compared as canonical row tuples; no matrix is built.
    """
    if matrix.m != matrix.n + 1:
        raise WrongShape(f"need m = n + 1, got m = {matrix.m}, n = {matrix.n}")
    if mode == "T" and any(sign < 0 for _, sign in matrix.rows):
        return None  # every difference row is a + row
    targets = {_canonical_rows(matrix.rows, mode)}
    if mode == "L":
        targets.add(_canonical_rows((Row(w, -s) for w, s in matrix.rows), "L"))
    for sigma in product((1, -1) if mode == "L" else (1,), repeat=matrix.n):
        seed = (0, *(-s * w for s, w in zip(sigma, matrix.rows[0].weights)))
        if len(set(seed)) != len(seed):
            continue
        rows = (Row(tuple(a - b for b in seed if b != a), 1) for a in seed)
        if _canonical_rows(rows, mode) in targets:
            return seed
    return None


def check_triple_args(n: int, bound: int) -> None:
    """Reject a triple search's ``n`` or ``bound`` that is not an int of at
    least 1."""
    if exact_int("n", n) < 1 or exact_int("bound", bound) < 1:
        raise ValueError("n and bound must be at least 1")


def triple_identity_search(n: int, bound: int) -> List[Triple]:
    """All triples of positive weight lists solving the signature-sum identity.

    Searches sorted lists ``a``, ``b``, ``c`` with ``n`` entries in
    ``[1, bound]`` and ``a <= b``, keeping those for which the matrix with
    rows ``a``, ``b``, ``c`` signed +, +, - has a constant x=y=1 function;
    the constant is then automatically 1, making the rows satisfy
    ``L_a(z) + L_b(z) = L_c(z) + 1`` identically.
    """
    check_triple_args(n, bound)
    plus = [Row(v, 1) for v in combinations_with_replacement(range(1, bound + 1), n)]
    # minus rows first: each c is one block whose two free rows are the
    # plus pairs a <= b
    rows = [Row(v.weights, -1) for v in plus] + plus
    points = sample_points("L")
    kernel, _ = select_filter(3, n, bound, points, rows)
    tails = range(len(plus), len(rows))
    count = block_size(tails, len(rows))
    solutions: List[Triple] = []
    for c in range(len(plus)):
        mask = _Hits(count)
        kernel((c,), tails, 3, n, count, points, mask)
        for _, (minus, a, b) in mask.hits:
            matrix = WeightMatrix((a, b, minus))
            verdict = is_l_rigid(matrix)
            if verdict.rigid and verdict.constant.constant_value() == 1:
                solutions.append(tuple(row.weights for row in matrix.rows))
    # weight lists are in index order, so this is the order of (a, b, c)
    solutions.sort()
    return solutions
