"""Exact sample-point pre-filter for the sweeps.

The filter is a sound rejection test: a matrix whose function is constant
agrees with its forced constant at every valid sample point, so no rigid
matrix is ever rejected.  Survivors still go through the full symbolic
check.  All arithmetic uses unbounded Python integers, so there are no
size restrictions.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

# Exact sample points (z, x, y) used by the sweeps.  Any |z| >= 2 avoids all
# denominator roots.
T_POINTS: Tuple[int, ...] = (2, 1, 1, 2, 2, 1, 3, 1, 1, 3, 2, 1)
L_POINTS: Tuple[int, ...] = (2, 1, 1, 3, 1, 1)

FilterFn = Callable[..., None]


def sample_points(mode: str) -> Tuple[int, ...]:
    if mode == "T":
        return T_POINTS
    if mode == "L":
        return L_POINTS
    raise ValueError(f"mode must be 'T' or 'L', got {mode!r}")


def filter_chunk(weights, signs, m, n, count, points, out):
    """Mark which candidates match their forced constant at every point.

    ``weights`` is a flat sequence of ``count * m * n`` nonzero integers,
    ``signs`` a flat sequence of ``count * m`` values in ±1, and ``points``
    a flat sequence of ``(z, x, y)`` triples with every ``z >= 2``.  For
    candidate ``c``, ``out[c]`` is set to 1 when the row sum of products of
    ``(x*z^w + y) / (z^w - 1)`` equals the sign-count constant at every
    point, and 0 otherwise.  All arithmetic is exact.
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


def select_filter(m: int, n: int, bound: int, points: Sequence[int]) -> Tuple[FilterFn, str]:
    """The kernel for the given sweep parameters, plus its name.  There is
    one kernel, so the parameters do not change the choice."""
    return filter_chunk, "pure"
