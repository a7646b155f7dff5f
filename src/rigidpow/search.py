"""Canonicalized exhaustive enumeration of weight matrices within bounds.

A sweep enumerates every canonical representative with ``|w| <= bound``
(in L mode, weights are positive after sign normalization and every sign
pattern is covered), rejects candidates whose row residues at a few
sample points (see :mod:`rigidpow.prefilter`) do not sum to zero, and runs
the full symbolic constancy check on the survivors.  Rejection is sound --
a constant function matches its forced constant at every valid point --
so no rigid matrix is ever skipped, and the symbolic check is the only
confirmation: a residue collision would cost one check and be rejected.

Enumeration generates canonical forms directly: weights inside a row are
non-increasing and the row list is non-decreasing, so each equivalence
class under row and column permutation appears exactly once.  A candidate
is a non-decreasing list of indices into the sorted row universe, and the
candidates are walked in blocks that share their first m - 2 rows, or, when
the enum budget cannot cut the walk and m >= 3, their first m - 3.  The
pre-filter decides a block of two free rows with one residue lookup per
choice of its first free row, a block of three at m >= 4 from a table of
row pairs, and one at m = 3, the whole unsharded sweep, from a table of
the zero-sum triples (see :mod:`rigidpow.prefilter`).  It hands the
block's mask only its survivors, each as its offset and its rows (no byte
per candidate), so only survivors are ever built as matrices.  A one-row
candidate never survives, and no T candidate with odd m and odd n is
rigid, so such sweeps only count their candidates (see
:func:`_run_shards`).
Shards fix the first (smallest) row; each shard is independently
enumerable and the merged result is a deterministic sorted union, so shard
count never changes the outcome of a completed sweep.
"""

from __future__ import annotations

import os
import time
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .algebra import Form
from .bott import ClassLabel, classify_two_fixed_points, kosniowski_bound
from .prefilter import block_size, sample_points, select_filter
from .rigidity import (
    Row,
    WeightMatrix,
    _folded,
    _valid_matrix,
    exact_int,
    is_l_rigid,
    is_rigid,
    pair_partition,
)

# The pre-filter once took candidates in chunks of this many, and budget
# counts still follow those chunks; see _run_shards.
_CHUNK = 1024

# The most rows a sweep's row universe may hold, and the most weights,
# rows times n; a larger one could not be built in memory, let alone swept.
# The weight cap passes every universe of n <= 10 that the row cap passes.
# The row cap keeps every |w| at most MAX_UNIVERSE_ROWS // 2, far below the
# q of the pre-filter's safe prime 2q + 1, so the pre-filter, which refuses
# a row only where some z^|w| - 1 is not a unit, refuses no row of a sweep
# or a triple search (see rigidpow.prefilter._row_residues).
MAX_UNIVERSE_ROWS = 10_000_000
MAX_UNIVERSE_WEIGHTS = 10 * MAX_UNIVERSE_ROWS

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
    every ``|w|``, and the row universe of ``n`` and ``bound`` may hold at
    most ``MAX_UNIVERSE_ROWS`` rows and ``MAX_UNIVERSE_WEIGHTS`` weights
    (rows times ``n``).  The universe holds at least ``2 bound`` rows, so
    the row cap also keeps every ``|w|`` below the ``q`` of the
    pre-filter's prime ``_PRIME = 2q + 1``.  Each ``z^|w| - 1`` of a
    sample point is then a unit modulo ``_PRIME``, the pre-filter's one
    soundness condition, which :func:`rigidpow.prefilter._row_residues`
    enforces and no sweep row fails.  A spec is immutable.
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
        _check_universe(f"the row universe of n = {n}, bound = {bound} in {mode} mode",
                        n, bound, mode)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a SearchSpec is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a SearchSpec is immutable")


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
        and at most n+1 rows that break the pattern of the difference
        matrices (exactly n+1 rows, constant of absolute value 1).  That
        pattern is not the only one known: the three-row L finds at n = 4
        (the data of HP^2) and n = 8 (the Cayley plane OP^2) break it and
        are listed here too.  Empty output means the sweep is consistent
        with the pattern; anything here is a discovery to surface, not
        suppress."""
        anomalies = []
        for f in self.found:
            if f.constant.is_zero() or f.matrix.m > f.matrix.n + 1:
                continue
            value = f.constant.constant_value() if f.constant.is_constant() else None
            if f.matrix.m < f.matrix.n + 1 or value is None or abs(value) != 1:
                anomalies.append(f)
        return anomalies


def _canonical_rows(rows: Iterable[Row], mode: str) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """The rows of :func:`canonical_form`, as sorted ``(weights, sign)``
    tuples; L mode first folds each row's signs (see
    :func:`rigidpow.rigidity._folded`)."""
    if mode not in ("T", "L"):
        raise ValueError(f"mode must be 'T' or 'L', got {mode!r}")
    canonical = []
    for weights, sign in rows:
        if mode == "L":
            weights, sign = _folded(weights, sign)
        canonical.append((tuple(sorted(weights, reverse=True)), sign))
    return tuple(sorted(canonical))


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


def _check_universe(name: str, n: int, bound: int, mode: str) -> None:
    """Refuse the row universe of ``n``, ``bound`` and ``mode``, called
    ``name``, if it holds more than ``MAX_UNIVERSE_ROWS`` rows or more than
    ``MAX_UNIVERSE_WEIGHTS`` weights, without building it."""
    rows = _universe_rows(n, bound, mode)
    if rows > MAX_UNIVERSE_ROWS:
        raise ValueError(f"{name} has more than {MAX_UNIVERSE_ROWS} rows")
    if rows * n > MAX_UNIVERSE_WEIGHTS:
        raise ValueError(f"{name} has more than {MAX_UNIVERSE_WEIGHTS} weights")


def _blocks(m: int, size: int, shard_index: int, shard_count: int, free: int
            ) -> Iterator[Tuple[Tuple[int, ...], range]]:
    """A shard's canonical candidates over a universe of ``size`` rows, as
    blocks ``(heads, tails)`` in canonical order, the first row of each
    candidate ≡ shard_index mod shard_count.  ``heads`` indexes the first
    ``m - free`` rows and the last ``free`` are free, the first of them in
    ``tails`` (see :func:`rigidpow.prefilter.block_size`): ``free`` is
    ``min(m, 2)``, or 3 for a walk that reads a table, with ``m >= 3``.
    Every block with ``m > 1`` is a kernel block (see
    :func:`rigidpow.prefilter.select_filter`).  A walk with no heads (``m
    = free``: m <= 2, or the tetrahedron of m = 3) is one block ``((),
    range(size))`` when unsharded, and otherwise has the block ``((),
    range(i, i + 1))`` of each first row ``i``, so that tails stay
    consecutive.  Otherwise each prefix ``heads`` has the block
    ``range(heads[-1], size)`` of all rows after it.  Building the one-head
    blocks directly keeps the walk linear in ``size``, where
    ``combinations_with_replacement`` would copy the whole range for every
    first row."""
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


def _shard_size(size: int, m: int, shard_index: int, shard_count: int) -> int:
    """The number of canonical ``m``-row candidates over a universe of
    ``size`` rows whose first row is ``shard_index`` modulo
    ``shard_count``, in closed form.  The shard's ``t``-th first row ``i``
    heads ``block_size(range(i, i + 1), size, m) = comb(size - i + m - 2,
    d)`` of them, ``d = m - 1``: a polynomial ``f(t)`` of degree ``d``.  So
    the sum over the shard's ``count`` first rows is the sum over ``j <=
    d`` of ``comb(count, j + 1)`` times the forward difference ``Δ^j
    f(0)`` (Newton), taken from the first ``m`` values of ``f``.  Each is
    the product ``x (x - 1) ... (x - d + 1) / d!``, which, unlike
    ``math.comb``, stays that polynomial where ``x < d``, past the
    shard's last first row."""
    count, d = len(range(shard_index, size, shard_count)), m - 1
    top = size - shard_index - 1 + d
    diffs = [prod(range(x - d + 1, x + 1)) // factorial(d)
             for x in range(top, top - m * shard_count, -shard_count)]
    total = 0
    for j in range(m):
        total += comb(count, j + 1) * diffs[0]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return total


class _Hits:
    """A kernel mask that keeps only the survivors the kernel hands it:
    ``mask[k] = rows`` appends ``(k, rows)``, a survivor's offset in the
    block and its rows, to ``hits``, in the increasing ``k`` the kernel
    writes.  ``count`` is there for the benchmark's tracer, which reads
    ``count(1)``: the number of survivors, as a mask of one byte per
    candidate would count its 1s.  A survivor is a residue hit, not yet a
    find: the caller decides it with its symbolic check.  Its residues
    were computed without a refusal, so every ``z^|w| - 1`` of its rows is
    a unit modulo the filter's prime (see :mod:`rigidpow.prefilter`)."""

    __slots__ = ("hits",)

    def __init__(self):
        self.hits = []

    def __setitem__(self, k: int, rows) -> None:
        self.hits.append((k, rows))

    def count(self, byte: int) -> int:
        return len(self.hits) if byte == 1 else 0


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
    built once for all of them.  Two kinds of sweep have no rigid
    candidate, so they only count their candidates, from the universe's
    size alone, a shard's in closed form (see :func:`_shard_size`): they
    build no row universe and no residues, walk no block and never call
    the kernel.

    - m = 1.  At a sample point (z >= 2, x, y >= 1) a weight w > 0 has the
      factor x + (x + y) / (z^w - 1), larger than its constant x, and w =
      -a the factor -(y + (x + y) / (z^a - 1)), larger in size than its
      constant -y, so a row's value is larger in size than its constant.
    - T mode with odd m and odd n.  A weight's factor F(w; z, x, y) = (x z^w
      + y) / (z^w - 1) obeys F(w; 1/z, x, y) = -F(w; z, y, x), so a
      matrix's function obeys f(1/z; x, y) = (-1)^n f(z; y, x).  A rigid
      matrix's function is its constant c(x, y) = sum_k N_k x^(n-k) (-y)^k,
      N_k the sum of the signs of the rows with k negative weights, so c(x,
      y) = (-1)^n c(y, x), and comparing the coefficients of x^(n-k) y^k
      gives N_k = N_(n-k).  For odd n, k and n - k differ, so the N_k pair
      off and their sum, the sum of all m signs, is even; a sum of m signs
      is m modulo 2, so m is even.

    A walk of ``m >= 3`` rows that its enum budget cannot cut has three
    free rows per block, so it makes one kernel call per choice of its
    first ``m - 3`` rows: for m = 3 one call when unsharded and one per
    first row when sharded, read from the kernel's table of zero-sum
    triples.  Any other walk has two free rows and builds no table (see
    :func:`_blocks`).  A block that reaches past the enum
    budget is cut before the kernel is called, so the kernel decides no
    candidate past the budget, and its mask, a :class:`_Hits`, holds the
    block's survivors only, each with its rows.  Each survivor costs one
    symbolic check, the only confirmation, which would reject a residue
    collision.  Its rows are items of the row universe, valid by
    construction, so it is built as a matrix by
    :func:`rigidpow.rigidity._valid_matrix`, without the checks of
    ``WeightMatrix``."""
    m, n = spec.m, spec.n
    decide = is_rigid if spec.mode == "T" else is_l_rigid
    points = sample_points(spec.mode)
    counted = m == 1 or spec.mode == "T" and m % 2 == n % 2 == 1
    universe = () if counted else row_universe(n, spec.bound, spec.mode)
    kernel, _ = select_filter(m, n, spec.bound, points, universe)
    size = _universe_rows(n, spec.bound, spec.mode)  # exact: the spec is capped
    results = []
    for shard_index in shard_indices:
        result = _ShardResult()
        results.append(result)
        limit = enum_cap
        total = _shard_size(size, m, shard_index, shard_count)
        if counted:  # no candidate is rigid (see above), so none is walked
            result.enumerated = result.rejected = min(total, limit)
            result.exceeded = total > limit
            continue
        enumerated = passed = 0  # passed: pre-filter survivors among the enumerated
        # three free rows, and so a table, only for a walk its enum budget
        # cannot cut, so that the table's work, U (U + 1) / 2 pairs for m
        # >= 4 and (U / 2) (U / 2 + 1) / 2 lookups for m = 3, stays below
        # the candidates the walk decides
        free = 3 if m >= 3 and total <= limit else min(m, 2)
        for heads, tails in _blocks(m, size, shard_index, shard_count, free):
            start = enumerated
            count = block_size(tails, size, free)
            if start + count > limit:
                result.exceeded = True
                if start >= limit:
                    break
                count = limit - start
            enumerated += count
            mask = _Hits()
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
                matrix = _valid_matrix(rows)  # rows of the universe
                verdict = decide(matrix)
                if verdict.rigid:
                    result.found.append((matrix, verdict.constant))
            enumerated = min(enumerated, limit)
        result.enumerated, result.rejected = enumerated, enumerated - passed
    return results


def _annotate(spec: SearchSpec, pairs: Iterable[Tuple[WeightMatrix, Form]]) -> Iterator[Find]:
    """Each ``(matrix, constant)`` of ``pairs``, a rigid matrix of ``spec``
    and its constant, as an annotated :class:`Find`.

    Every such matrix has ``spec.m`` rows of ``spec.n`` weights, so which
    annotations apply is settled once per sweep: the two-fixed-point class
    when ``m = 2``, a quasilinear seed when ``m = n + 1``, and whether ``m``
    reaches the Kosniowski floor, which a find with a zero constant need not
    reach.  The floor is a conjecture about unitary circle actions, so it
    applies in T mode only: L-mode data carry only an orientation, and the
    data of HP^2 and the Cayley plane have three rows.  Every find's
    pairing is :func:`pair_partition`, called once per find, in both modes.
    """
    label = seed = None
    classify, quasi = spec.m == 2, spec.m == spec.n + 1
    enough = spec.mode == "L" or spec.m >= kosniowski_bound(spec.n)
    for matrix, constant in pairs:
        if classify:
            label = classify_two_fixed_points(matrix)
        if quasi:
            seed = quasilinearity_test(matrix, mode=spec.mode)
        pairable = pair_partition(matrix) is not None
        yield Find(matrix, constant, label, seed, enough or constant.is_zero(), pairable)


def check_pool(shards: int, workers: int) -> None:
    """Reject a shard or worker count that is not an int of at least 1."""
    if exact_int("shards", shards) < 1 or exact_int("workers", workers) < 1:
        raise ValueError("shards and workers must be at least 1")


def sweep(spec: SearchSpec, *, shards: int = 1, workers: int = 1) -> SearchReport:
    """Run an exhaustive sweep and return every rigid find, annotated.

    Raises :class:`BudgetExceeded` (carrying the partial report) when a
    budget runs out.  With ``shards > 1`` the budgets are split evenly
    across shards; with ``workers > 1`` shards run in separate processes,
    at most one per walked shard and one per CPU; each of those k processes
    builds the row universe and its residues once and runs every k-th
    shard.  A sweep that only counts its candidates (m = 1, or T mode with
    odd m and odd n; see :func:`_run_shards`) builds no row universe.
    Either way the found set of a completed sweep is identical.
    Shard ``i`` holds the candidates whose first row is ``i`` modulo
    ``shards``, so a shard from the universe's size ``U`` on holds none
    and adds nothing to the report: only the first ``min(shards, U)`` are
    walked, and an empty shard costs nothing.
    """
    check_pool(shards, workers)
    started = time.perf_counter()
    enum_cap = max(1, spec.enum_budget // shards)
    check_cap = max(1, spec.check_budget // shards)
    walked = min(shards, _universe_rows(spec.n, spec.bound, spec.mode))  # exact: the spec is capped
    # the pool forks all its processes at the first submit
    workers = min(workers, walked, os.cpu_count() or 1)
    if workers > 1:
        # imported here, so a process that never runs a pool never loads
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_shards, spec, range(w, walked, workers), shards,
                            enum_cap, check_cap)
                for w in range(workers)
            ]
            results = [r for f in futures for r in f.result()]
    else:
        results = _run_shards(spec, range(walked), shards, enum_cap, check_cap)

    pairs = sorted((pair for r in results for pair in r.found), key=lambda pair: pair[0].rows)
    finds = tuple(_annotate(spec, pairs))
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
    Difference rows are compared as canonical row tuples; no matrix is built.

    In T mode two quick rejects come first.  Every difference row is a
    ``+`` row, and the difference matrix of a seed ``a`` holds ``a_i - a_j``
    at row ``i`` and ``a_j - a_i`` at row ``j`` for each pair ``i != j``,
    so its entries sum to 0; permuting rows or columns keeps the sum.  So a
    matrix with a ``-`` row or whose weights do not sum to 0 matches no
    seed and gets None at once.
    """
    if matrix.m != matrix.n + 1:
        raise WrongShape(f"need m = n + 1, got m = {matrix.m}, n = {matrix.n}")
    rows = matrix.rows
    if mode == "T":
        if any(sign < 0 for _, sign in rows) or sum(w for weights, _ in rows for w in weights):
            return None
    target = _canonical_rows(rows, mode)
    targets = {target}
    if mode == "L":
        targets.add(tuple(sorted([(weights, -sign) for weights, sign in target])))
    for sigma in product((1, -1) if mode == "L" else (1,), repeat=matrix.n):
        seed = (0, *(-s * w for s, w in zip(sigma, rows[0].weights)))
        if len(set(seed)) != len(seed):
            continue
        if _canonical_rows([(tuple(a - b for b in seed if b != a), 1) for a in seed], mode) in targets:
            return seed
    return None


def check_triple_args(n: int, bound: int) -> None:
    """Reject a triple search's ``n`` or ``bound`` that is not an int of at
    least 1, or whose row list, the size of an L-mode row universe, would
    hold more than ``MAX_UNIVERSE_ROWS`` rows or ``MAX_UNIVERSE_WEIGHTS``
    weights."""
    if exact_int("n", n) < 1 or exact_int("bound", bound) < 1:
        raise ValueError("n and bound must be at least 1")
    _check_universe(f"the row list of n = {n}, bound = {bound}", n, bound, "L")


def triple_identity_search(n: int, bound: int) -> List[Triple]:
    """All triples of positive weight lists solving the signature-sum identity.

    Searches sorted lists ``a``, ``b``, ``c`` with ``n`` entries in
    ``[1, bound]`` and ``a <= b``, keeping those for which the matrix with
    rows ``a``, ``b``, ``c`` signed +, +, - has a constant x=y=1 function,
    in the order of ``(a, b, c)``.  The constant is then 1, so the rows
    satisfy ``L_a(z) + L_b(z) = L_c(z) + 1`` identically: three rows cannot
    cancel in pairs, so a rigid verdict's constant is the candidate, the
    sum of the row signs times ``(-1)`` to the number of negative weights
    in each row, here ``1 + 1 - 1``.

    The row list is in sign-twin layout, as the row universe is: row
    ``2t`` is weight list ``t`` signed -1 and row ``2t + 1`` the same list
    signed +1, the lists in increasing order.  The kernel decides the whole
    search as one triple block over the plus rows (see
    :func:`rigidpow.prefilter.select_filter`): every ``(a, b, c)`` in
    lexicographic order of the row indices, which is the order of the
    weight lists, so its hits need no sorting.
    """
    check_triple_args(n, bound)
    rows = [Row(v, sign) for v in combinations_with_replacement(range(1, bound + 1), n)
            for sign in (-1, 1)]
    points = sample_points("L")
    kernel, _ = select_filter(3, n, bound, points, rows)
    tails = range(1, len(rows), 2)
    count = block_size(range(len(tails)), len(tails)) * len(tails)
    mask = _Hits()
    kernel((), tails, 3, n, count, points, mask)
    # each hit holds rows of the search's own list
    return [tuple(row.weights for row in hit) for _, hit in mask.hits
            if is_l_rigid(_valid_matrix(hit)).rigid]
