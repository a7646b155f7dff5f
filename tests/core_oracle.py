"""Oracles of the symbolic core that share no decision code with it.

``oracle_t`` and ``oracle_l`` never build a polynomial.  They clear the
denominators of ``sum_i s_i prod_j (x z^w_ij + y) / (z^w_ij - 1) - c``
(``c`` the forced constant) at integer ``(x, y)``, which gives an integer
polynomial ``P(z)`` whose absolute coefficient sum is at most ``bound``
below, and evaluate it once at a power of two ``z0 > 2 * bound``, where
``P(z0) = 0`` only if ``P`` is zero.  Every coefficient of ``P`` is a
binary form of degree ``n``, so ``n + 1`` values of ``x`` at ``y = 1``
decide the identity for all ``(x, y)``; the ``x = y = 1`` specialization
needs one.

``row_sum`` is the packed sum of ``rigidity._row_sum`` taken row by row:
every row term is brought to the full denominator ``D`` on its own, as
the decision did before it summed over a merge tree.
"""

from hypothesis import strategies as st

from rigidpow.rigidity import Row, WeightMatrix, quasilinear


def forced_coeffs(rows, n):
    """Coefficient k of x^(n-k) y^k in sum_i s_i x^(#w > 0) (-y)^(#w < 0)."""
    coeffs = [0] * (n + 1)
    for ws, s in rows:
        neg = sum(1 for w in ws if w < 0)
        coeffs[neg] += s * (-1) ** neg
    return coeffs


def identity_holds(rows, x, y, c):
    m, n = len(rows), len(rows[0][0])
    bound = m * (abs(x) + abs(y)) ** n * 2 ** (n * (m - 1)) + abs(c) * 2 ** (n * m)
    z0 = 1 << (bound.bit_length() + 1)
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


def oracle_t(rows):
    n = len(rows[0][0])
    coeffs = forced_coeffs(rows, n)
    rigid = all(
        identity_holds(rows, x, 1, sum(c * x ** (n - k) for k, c in enumerate(coeffs)))
        for x in range(1, n + 2)
    )
    return rigid, tuple(coeffs)


def oracle_l(rows):
    c = sum(forced_coeffs(rows, len(rows[0][0])))
    return identity_holds(rows, 1, 1, c), c


WEIGHTS = st.integers(-8, 8).filter(bool)


@st.composite
def matrices(draw):
    """Random matrices (mostly not rigid) mixed with rigid families and
    their near misses, so that both branches of the decision are taken."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "difference", "mirror", "cancel"]))
    if kind == "random":
        m = draw(st.integers(1, 4))
        rows = [(draw(st.lists(WEIGHTS, min_size=n, max_size=n)), draw(st.sampled_from((1, -1))))
                for _ in range(m)]
    elif kind == "difference":
        seed = draw(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1, unique=True))
        rows = [(list(r.weights), r.sign) for r in quasilinear(seed).rows]
    else:
        ws = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
        other = [-w for w in ws] if kind == "mirror" else list(ws)
        sign = (-1) ** (n + 1) if kind == "mirror" else -1
        rows = [(ws, 1), (other, sign)]
    if draw(st.booleans()):  # perturb one weight
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))
        rows[i][0][j] = draw(WEIGHTS)
    return [(tuple(ws), s) for ws, s in rows]


def matrix_of(rows):
    return WeightMatrix(tuple(Row(ws, s) for ws, s in rows))


def row_sum(rows, needs, ystep, zstep, total):
    """What ``rigidity._row_sum`` returns for the same arguments, summed row
    by row: ``total`` times every factor ``z^a - 1`` of ``D``, the
    per-factor maximum of ``needs``, plus each row term of ``rows`` times
    the factors of ``D`` its ``need`` lacks, each at full width."""
    den = {}
    for need in needs:
        for a, k in need.items():
            den[a] = max(den.get(a, 0), k)
    for a, k in den.items():
        for _ in range(k):
            total = (total << a * zstep) - total
    for (weights, v), need in zip(rows, needs):
        for w in weights:
            v = (v << w * zstep) + (v << ystep) if w > 0 else -v - (v << (ystep - w * zstep))
        for a, k in den.items():
            for _ in range(k - need.get(a, 0)):
                v = (v << a * zstep) - v
        total += v
    return total
