"""Small exact linear algebra toolkit: integer matrices, fraction-free
rank, and rational linear solves.  No floating point anywhere.  The
certifier uses only `zeros` and the Bareiss rank `rank_int`; the modular
rank, the products and the solves are test oracles."""

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
    """Rank of an integer matrix over GF(prime) (test oracle).

    Always a lower bound for the rational rank (a non-vanishing minor mod
    prime cannot vanish over the rationals).  Only rows with a non-zero
    entry in the pivot column are touched, so sparse inputs stay cheap.
    """
    m = [[x % prime for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], prime - 2, prime)
        m[r] = [(x * inv) % prime for x in m[r]]
        for i in range(r + 1, nr):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % prime for x, y in zip(m[i], m[r])]
        r += 1
    return r


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
