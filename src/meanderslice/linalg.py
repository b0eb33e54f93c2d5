"""Small exact linear algebra toolkit: integer matrices, fraction-free
and modular ranks, and rational linear solves.  No floating point
anywhere.  The certifier uses the sparse modular rank `rank_mod_prime`,
a lower bound that its callers certify or confirm, and the Bareiss rank
`rank_int` where it must confirm; the products and the solves are test
oracles."""

from __future__ import annotations

from fractions import Fraction


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def mat_mul(a, b):
    rb = len(b)
    cb = len(b[0])
    bt = [[b[i][j] for i in range(rb)] for j in range(cb)]
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def rank_int(rows):
    """Exact rank of an integer matrix, Bareiss fraction-free elimination.

    Entry growth stays bounded by minors, and every division is exact.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    if nr == 0:
        return 0
    nc = len(m[0])
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pr = m[r]
        pc = pr[c]
        for i in range(r + 1, nr):
            ri = m[i]
            fi = ri[c]
            if fi:
                for j in range(c + 1, nc):
                    ri[j] = (ri[j] * pc - pr[j] * fi) // prev
                ri[c] = 0
            else:
                # rows must stay uniformly scaled for later exact divisions
                for j in range(c + 1, nc):
                    ri[j] = (ri[j] * pc) // prev
        prev = pc
        r += 1
    return r


def rank_mod_prime(rows, prime):
    """Rank over GF(prime) of an integer matrix given as sparse rows
    {column: value}.

    Always a lower bound for the rational rank (a non-vanishing minor mod
    prime cannot vanish over the rationals).  Each row is reduced against
    the pivot rows found so far, always at its least column, and becomes a
    pivot row, normalised to 1 at that column, if anything is left.
    """
    pivots = {}  # column -> pivot row with leading entry 1 at that column
    for row in rows:
        row = {k: v % prime for k, v in row.items() if v % prime}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, prime)
                pivots[c] = {k: v * inv % prime for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivot.items():
                x = (row.get(k, 0) - f * v) % prime
                if x:
                    row[k] = x
                else:
                    del row[k]
    return len(pivots)


def solve_unique(a, b):
    """Solve the square system a x = b over the rationals.

    Returns a list of Fractions, or None when the matrix is singular.
    """
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b, strict=True)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return None
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
        pc = m[c][c]
        m[c] = [x / pc for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]
