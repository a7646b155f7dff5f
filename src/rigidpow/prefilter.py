"""Exact sample-point pre-filter for the sweeps.

The filter is a sound rejection test: a matrix whose function is constant
agrees with its forced constant at every valid sample point, so no rigid
matrix is ever rejected.  Survivors still go through the full symbolic
check.  All arithmetic uses unbounded Python integers, so there are no
size restrictions.

A candidate's function minus its forced constant is the sum, over its
rows, of each row's value minus that row's constant, and a row's term at a
sample point does not depend on the other rows.  The kernel that
:func:`select_filter` returns therefore keeps a table from each row
``(weights, sign)`` it has seen to one integer key: the row's term at
every point, scaled by a common denominator to an exact integer and packed
at a fixed bit offset per point.  A candidate survives when its ``m``
keys sum to zero; the kernel tests the keys' residues modulo a prime
first, so that a wide key is only added up when the residues pass.
:func:`filter_chunk` evaluates every candidate from scratch and is the
oracle the table kernel is tested against.
"""

from __future__ import annotations

from operator import add
from typing import Callable, Dict, Sequence, Tuple

# Exact sample points (z, x, y) used by the sweeps.  Any |z| >= 2 avoids all
# denominator roots.
T_POINTS: Tuple[int, ...] = (2, 1, 1, 2, 2, 1, 3, 1, 1, 3, 2, 1)
L_POINTS: Tuple[int, ...] = (2, 1, 1, 3, 1, 1)

FilterFn = Callable[..., None]

# The row-table kernel sums row keys modulo this Mersenne prime first.  A
# residue sum of 0 is necessary for an exact sum of 0, so any modulus keeps
# the filter exact; a large prime makes a residue collision rare.
_PRIME = (1 << 61) - 1


def sample_points(mode: str) -> Tuple[int, ...]:
    if mode == "T":
        return T_POINTS
    if mode == "L":
        return L_POINTS
    raise ValueError(f"mode must be 'T' or 'L', got {mode!r}")


def filter_chunk(weights, signs, m, n, count, points, out):
    """Mark which candidates match their forced constant at every point.

    This is the exact oracle for the kernel :func:`select_filter` returns:
    it evaluates every candidate from scratch.  ``weights`` is a flat
    sequence of ``count * m * n`` nonzero integers, ``signs`` a flat
    sequence of ``count * m`` values in ±1, and ``points`` a flat sequence
    of ``(z, x, y)`` triples with every ``z >= 2``.  For candidate ``c``,
    ``out[c]`` is set to 1 when the row sum of products of
    ``(x*z^w + y) / (z^w - 1)`` equals the sign-count constant at every
    point, and 0 otherwise.
    """
    npts = len(points) // 3
    rows = m * n
    for c in range(count):
        base = c * rows
        sbase = c * m
        ok = 1
        for p in range(npts):
            z = points[3 * p]
            xv = points[3 * p + 1]
            yv = points[3 * p + 2]
            total_n = 0
            total_d = 1
            cval = 0
            for i in range(m):
                sign = signs[sbase + i]
                rn = sign
                rd = 1
                ct = sign
                for j in range(n):
                    w = weights[base + i * n + j]
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


def exact_int(name: str, value) -> int:
    """``value`` itself when it is an ``int``; anything else, ``bool`` and
    integral floats included, raises ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def row_table_layout(m: int, n: int, bound: int, points: Sequence[int]):
    """Per point ``(z, x, y, D, shift)`` of the row-table kernel.

    ``D = prod_{k=1..bound} (z^k - 1)^n`` is divisible by the denominator
    of every row with ``1 <= |w| <= bound``, so a row's term times ``D`` is
    an integer.  With ``z >= 2`` each factor ``(x z^w + y) / (z^w - 1)``
    has absolute value at most ``2(x + y)`` and the row's constant at most
    ``(x + y)^n``, so a sum of ``m`` scaled terms is below
    ``2 m D (2(x + y))^n`` in absolute value; one more bit of ``shift``
    keeps that signed sum from reaching into the next point's field.
    """
    if min(exact_int("m", m), exact_int("n", n), exact_int("bound", bound)) < 1:
        raise ValueError("m, n and bound must all be at least 1")
    if not points or len(points) % 3:
        raise ValueError("points must be a nonempty flat sequence of (z, x, y) triples")
    layout = []
    for p in range(0, len(points), 3):
        z, x, y = points[p:p + 3]
        if exact_int("z", z) < 2 or exact_int("x", x) < 1 or exact_int("y", y) < 1:
            raise ValueError(f"sample point {(z, x, y)} needs z >= 2 and x, y > 0")
        denom = 1
        for k in range(1, bound + 1):
            denom *= (z**k - 1) ** n
        shift = (2 * m * denom * (2 * (x + y)) ** n).bit_length() + 1
        layout.append((z, x, y, denom, shift))
    return tuple(layout)


def row_key(weights: Tuple[int, ...], sign: int, n: int, bound: int, layout) -> int:
    """The packed integer key of one row: its ``(value - constant) * D`` at
    each point of ``layout``, as signed digits ``shift`` bits apart, the
    first point lowest.  The value is ``sign`` times the product of the
    weights' factors and the constant is ``sign`` times the product of
    ``x`` (for ``w > 0``) and ``-y`` (for ``w < 0``)."""
    if len(weights) != n:
        raise ValueError(f"a row needs {n} weights, got {len(weights)}")
    if not all(1 <= abs(exact_int("weight", w)) <= bound for w in weights):
        raise ValueError(f"row weights must be nonzero with |w| <= {bound}: {weights}")
    if exact_int("sign", sign) not in (1, -1):
        raise ValueError(f"a row sign must be 1 or -1, got {sign}")
    key = 0
    offset = 0
    for z, x, y, denom, shift in layout:
        num, den, const = sign, 1, sign
        for w in weights:
            zp = z ** abs(w)
            num *= x * zp + y if w > 0 else -(x + y * zp)
            den *= zp - 1
            const *= x if w > 0 else -y
        key += (num * (denom // den) - const * denom) << offset
        offset += shift
    return key


def select_filter(m: int, n: int, bound: int, points: Sequence[int]) -> Tuple[FilterFn, str]:
    """The pre-filter kernel for ``m`` rows of ``n`` weights with
    ``|w| <= bound`` at ``points``, plus its name.

    The kernel has :func:`filter_chunk`'s signature and writes the same
    mask, but it reads each weight entry as a whole row tuple: ``weights``
    holds ``count * m`` tuples of ``n`` integers.  Row keys (see
    :func:`row_key`) are computed on first sight and kept for the kernel's
    life in ``kernel.table``.  A key grows with ``n * bound**2`` bits, so a
    candidate first sums the keys' residues modulo the prime ``_PRIME``,
    which costs ``m`` dict lookups and small additions at any bound; only
    a residue sum divisible by ``_PRIME`` is decided by the exact keys.  A
    new row that breaks the parameters raises ``ValueError`` before any
    mask byte is written.  ``perfbench/run.py`` calls this through
    ``search.select_filter`` and wraps the kernel to trace every call.
    """
    points = tuple(points)
    layout = row_table_layout(m, n, bound, points)
    table: Dict[Tuple[Tuple[int, ...], int], int] = {}
    residues: Dict[Tuple[Tuple[int, ...], int], int] = {}
    # m residues in [0, _PRIME) sum to a multiple of _PRIME below m * _PRIME
    zero_sums = frozenset(range(0, m * _PRIME, _PRIME))

    def row_table(weights, signs, m_, n_, count, points_, out):
        if (m_, n_) != (m, n) or tuple(points_) != points:
            raise ValueError("the kernel was built for other parameters")
        if len(weights) != count * m or len(signs) != count * m:
            raise ValueError(f"need {count * m} rows and signs")
        try:
            keys = list(map(residues.__getitem__, zip(weights, signs)))
        except KeyError:
            for row in zip(weights, signs):
                if row not in table:
                    table[row] = row_key(*row, n, bound, layout)
                    residues[row] = table[row] % _PRIME
            keys = list(map(residues.__getitem__, zip(weights, signs)))
        sums = keys[0::m]
        for i in range(1, m):
            sums = map(add, sums, keys[i::m])
        mask = bytearray(map(zero_sums.__contains__, sums))
        c = mask.find(1)
        while c != -1:
            rows = zip(weights[c * m:(c + 1) * m], signs[c * m:(c + 1) * m])
            mask[c] = not sum(map(table.__getitem__, rows))
            c = mask.find(1, c + 1)
        out[:count] = mask

    row_table.table = table
    return row_table, "row-table"
