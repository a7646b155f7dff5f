"""Exact sample-point pre-filter for the sweeps.

The filter is a sound rejection test: a matrix whose function is constant
agrees with its forced constant at every valid sample point, so no rigid
matrix is ever rejected.  Survivors still go through the full symbolic
check.  Every mask bit is decided exactly, by unbounded Python integers or
by a residue sum that is nonzero.

A candidate's function minus its forced constant is the sum, over its
rows, of each row's value minus that row's constant, and a row's term at a
sample point does not depend on the other rows.  The kernel that
:func:`select_filter` returns therefore keeps a table from each row
``(weights, sign)`` it has seen to one residue modulo the prime
``_PRIME``: the row's term at every point, reduced modulo ``_PRIME`` and
combined with a fixed multiplier per point (a Karp-Rabin fingerprint).
Reduction modulo a prime is a ring map on the rationals whose denominators
it does not divide, so a candidate whose terms sum to zero has residues
that sum to zero; one whose residues do not is rejected, and the rare one
whose residues do is decided by :func:`filter_chunk`.  That function
evaluates every candidate from scratch and is the oracle the table kernel
is tested against.
"""

from __future__ import annotations

from operator import add
from typing import Callable, Dict, Sequence, Tuple

from .rigidity import exact_int

# Exact sample points (z, x, y) used by the sweeps.  Any |z| >= 2 avoids all
# denominator roots.
T_POINTS: Tuple[int, ...] = (2, 1, 1, 2, 2, 1, 3, 1, 1, 3, 2, 1)
L_POINTS: Tuple[int, ...] = (2, 1, 1, 3, 1, 1)

FilterFn = Callable[..., None]

# A safe prime P = 2q + 1 with q prime: every z with 1 < z < P - 1 has
# order q or 2q modulo P, so z^w - 1 is invertible modulo P for 0 < w < q.
# (The Mersenne prime 2^61 - 1 is not safe: 2 has order 61 there.)
_PRIME = (1 << 61) - 2373
# Point p of a row's residue is weighted by _BASE**p; any fixed value keeps
# the filter exact, one far from small integers keeps points from cancelling.
_BASE = 0x9E3779B97F4A7C1


def sample_points(mode: str) -> Tuple[int, ...]:
    if mode == "T":
        return T_POINTS
    if mode == "L":
        return L_POINTS
    raise ValueError(f"mode must be 'T' or 'L', got {mode!r}")


def filter_chunk(candidates, points, out):
    """Mark which candidates match their forced constant at every point.

    This is the exact oracle for the kernel :func:`select_filter` returns:
    it evaluates every candidate from scratch.  Each candidate is a
    sequence of ``(weights, sign)`` rows, with nonzero integer weights and
    ``sign`` in ±1, and ``points`` a flat sequence of ``(z, x, y)`` triples
    with every ``z >= 2``.  For candidate ``c``, ``out[c]`` is set to 1
    when the row sum of products of ``(x*z^w + y) / (z^w - 1)`` equals the
    sign-count constant at every point, and 0 otherwise.
    """
    for c, rows in enumerate(candidates):
        ok = 1
        for p in range(0, len(points), 3):
            z, xv, yv = points[p], points[p + 1], points[p + 2]
            total_n = 0
            total_d = 1
            cval = 0
            for weights, sign in rows:
                rn = sign
                rd = 1
                ct = sign
                for w in weights:
                    if w > 0:
                        zp = z**w
                        rn *= xv * zp + yv
                        ct *= xv
                    else:
                        zp = z ** (-w)
                        rn *= -(xv + yv * zp)
                        ct *= -yv
                    rd *= zp - 1
                total_n = total_n * rd + rn * total_d
                total_d *= rd
                cval += ct
            if total_n != cval * total_d:
                ok = 0
                break
        out[c] = ok


def row_residue(weights: Tuple[int, ...], sign: int, n: int, bound: int,
                points: Sequence[int]) -> int:
    """One row's term minus its constant at every ``(z, x, y)`` of
    ``points``, reduced modulo ``_PRIME``, point ``p`` weighted by
    ``_BASE**p``.  The term is ``sign`` times the product of the weights'
    factors ``(x z^w + y) / (z^w - 1)`` and the constant ``sign`` times the
    product of ``x`` (for ``w > 0``) and ``-y`` (for ``w < 0``)."""
    if len(weights) != n:
        raise ValueError(f"a row needs {n} weights, got {len(weights)}")
    if not all(1 <= abs(exact_int("weight", w)) <= bound for w in weights):
        raise ValueError(f"row weights must be nonzero with |w| <= {bound}: {weights}")
    if exact_int("sign", sign) not in (1, -1):
        raise ValueError(f"a row sign must be 1 or -1, got {sign}")
    residue, scale = 0, 1
    for p in range(0, len(points), 3):
        z, x, y = points[p:p + 3]
        num, den, const = sign, 1, sign
        for w in weights:
            zp = pow(z, abs(w), _PRIME)
            num = num * (x * zp + y if w > 0 else -(x + y * zp)) % _PRIME
            den = den * (zp - 1) % _PRIME
            const *= x if w > 0 else -y
        residue += scale * (num * pow(den, -1, _PRIME) - const)
        scale = scale * _BASE % _PRIME
    return residue % _PRIME


def select_filter(m: int, n: int, bound: int, points: Sequence[int]) -> Tuple[FilterFn, str]:
    """The pre-filter kernel for ``m`` rows of ``n`` weights with
    ``|w| <= bound`` at ``points``, plus its name.

    The kernel is called as ``kernel(weights, signs, m, n, count, points,
    out)`` and writes :func:`filter_chunk`'s mask for the ``count``
    candidates of ``m`` rows each: ``weights`` holds ``count * m`` tuples
    of ``n`` integers and ``signs`` the matching row signs.  Row residues
    (see :func:`row_residue`) are computed on first sight and kept for the
    kernel's life in ``kernel.table``, so a candidate costs ``m`` dict
    lookups and small additions at any bound.  A candidate whose residues
    sum to a multiple of ``_PRIME`` is passed to :func:`filter_chunk`
    alone, so the mask is the oracle's byte for byte.  Every point needs
    ``2 <= z < _PRIME - 1`` and ``x, y >= 1``, and ``bound`` must be below
    ``(_PRIME - 1) // 2``, so that no ``z^w - 1`` vanishes modulo
    ``_PRIME``.  A new row that breaks the parameters raises
    ``ValueError`` before any mask byte is written.  ``perfbench/run.py``
    calls this through ``search.select_filter`` and wraps the kernel to
    trace every call.
    """
    if min(exact_int("m", m), exact_int("n", n), exact_int("bound", bound)) < 1:
        raise ValueError("m, n and bound must all be at least 1")
    if bound >= (_PRIME - 1) // 2:
        raise ValueError(f"bound must be below {(_PRIME - 1) // 2}, got {bound}")
    points = tuple(points)
    if not points or len(points) % 3:
        raise ValueError("points must be a nonempty flat sequence of (z, x, y) triples")
    for z, x, y in zip(*[iter(points)] * 3):
        if not 2 <= exact_int("z", z) < _PRIME - 1 or min(exact_int("x", x), exact_int("y", y)) < 1:
            raise ValueError(f"sample point {(z, x, y)} needs 2 <= z < _PRIME - 1 and x, y > 0")
    table: Dict[Tuple[Tuple[int, ...], int], int] = {}
    # m residues in [0, _PRIME) sum to a multiple of _PRIME below m * _PRIME
    zero_sums = frozenset(range(0, m * _PRIME, _PRIME))

    def row_table(weights, signs, m_, n_, count, points_, out):
        if (m_, n_) != (m, n) or tuple(points_) != points:
            raise ValueError("the kernel was built for other parameters")
        if len(weights) != count * m or len(signs) != count * m:
            raise ValueError(f"need {count * m} rows and signs")
        try:
            residues = list(map(table.__getitem__, zip(weights, signs)))
        except KeyError:
            for row in zip(weights, signs):
                if row not in table:
                    table[row] = row_residue(*row, n, bound, points)
            residues = list(map(table.__getitem__, zip(weights, signs)))
        sums = residues[0::m]
        for i in range(1, m):
            sums = map(add, sums, residues[i::m])
        mask = bytearray(map(zero_sums.__contains__, sums))
        c = mask.find(1)
        while c != -1:
            rows = slice(c * m, (c + 1) * m)
            filter_chunk((tuple(zip(weights[rows], signs[rows])),), points, memoryview(mask)[c:])
            c = mask.find(1, c + 1)
        out[:count] = mask

    row_table.table = table
    return row_table, "row-table"
