"""Exact arithmetic for the type A root lattice of sl(n).

A root (or any weight-lattice vector) is a tuple of n integers summing to
zero, giving its coefficients over the orthonormal basis e_1..e_n.  The
simple roots are a_i = e_i - e_{i+1}.  All indices in the public interface
are 1-based.
"""

from __future__ import annotations

from itertools import accumulate


class RootError(ValueError):
    pass


class PathSystemError(ValueError):
    """Raised when a root list is not a directed Hamiltonian path.

    `kind` is one of: "count", "non-elementary", "branching", "cycle",
    "disconnected".
    """

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def eps_diff(a, b, n):
    """The vector e_a - e_b as a length-n coordinate tuple."""
    if a == b:
        raise RootError("zero vector is not a root: a == b == %d" % a)
    if not (1 <= a <= n and 1 <= b <= n):
        raise RootError("indices (%d,%d) out of range 1..%d" % (a, b, n))
    coords = [0] * n
    coords[a - 1] = 1
    coords[b - 1] = -1
    return tuple(coords)


def is_elementary(r):
    """True iff r = e_a - e_b for some a != b."""
    plus = sum(1 for c in r if c == 1)
    minus = sum(1 for c in r if c == -1)
    zero = sum(1 for c in r if c == 0)
    return plus == 1 and minus == 1 and plus + minus + zero == len(r)


def elementary_support(r):
    """Return (a, b) with r = e_a - e_b, 1-based."""
    if not is_elementary(r):
        raise RootError("not an elementary root: %r" % (r,))
    a = r.index(1) + 1
    b = r.index(-1) + 1
    return a, b


def add(r, s):
    return tuple(x + y for x, y in zip(r, s, strict=True))


def sub(r, s):
    return tuple(x - y for x, y in zip(r, s, strict=True))


def neg(r):
    return tuple(-x for x in r)


def scale(k, r):
    return tuple(k * x for x in r)


def dot(r, s):
    return sum(x * y for x, y in zip(r, s, strict=True))


def to_simple_coords(r):
    """Coefficients over the simple roots a_1..a_{n-1} (prefix sums)."""
    if sum(r) != 0:
        raise RootError("not in the root lattice: %r" % (r,))
    return tuple(accumulate(r[:-1]))


def from_simple_coords(k):
    """Inverse of to_simple_coords; k has length n-1."""
    prev = 0
    coords = []
    for cur in k:
        coords.append(cur - prev)
        prev = cur
    coords.append(-prev)
    return tuple(coords)


def alpha_p_coefficient(r, p):
    """Coefficient of a_p when r is written over the simple roots."""
    if not 1 <= p <= len(r) - 1:
        raise RootError("no simple root a_%d in rank %d" % (p, len(r) - 1))
    return sum(r[:p])


def kostant_cascade(n):
    """The nested hooks e_i - e_{n+1-i}, the maximal set of pairwise
    strongly orthogonal positive roots of sl(n)."""
    if n < 2:
        raise RootError("sl(%d) has no roots" % n)
    return frozenset(eps_diff(i, n + 1 - i, n) for i in range(1, n // 2 + 1))


def levi_cascade(p, q):
    """Negated cascades of the two diagonal blocks sl(p) x sl(q) inside
    sl(p+q), expressed in the ambient n coordinates."""
    n = p + q
    out = set()
    for i in range(1, p // 2 + 1):
        out.add(eps_diff(p + 1 - i, i, n))
    for i in range(1, q // 2 + 1):
        out.add(eps_diff(p + (q + 1 - i), p + i, n))
    return frozenset(out)


def validate_path_system(roots):
    """Check that `roots` lists the edges of a directed Hamiltonian path.

    Each root e_a - e_b is read as an edge a -> b.  On success returns the
    path order c_1..c_n (so roots, reordered, are e_{c_i} - e_{c_{i+1}};
    the input order itself is not required to follow the path).
    """
    m = len(roots)
    if m == 0:
        raise PathSystemError("count", "empty root list")
    n = len(roots[0])
    if m != n - 1:
        raise PathSystemError("count", "expected %d roots, got %d" % (n - 1, m))
    succ = {}
    pred = {}
    for r in roots:
        if len(r) != n or not is_elementary(r):
            raise PathSystemError("non-elementary", "not elementary: %r" % (r,))
        a, b = elementary_support(r)
        if a in succ or b in pred:
            raise PathSystemError("branching", "vertex with degree > 1 at edge %d->%d" % (a, b))
        succ[a] = b
        pred[b] = a
    starts = [v for v in range(1, n + 1) if v not in pred and v in succ]
    if not starts:
        raise PathSystemError("cycle", "no start vertex: edges form a cycle")
    if len(starts) > 1:
        raise PathSystemError("disconnected", "multiple path components")
    c = [starts[0]]
    while c[-1] in succ:
        c.append(succ[c[-1]])
    if len(c) != n:
        raise PathSystemError("disconnected", "path covers %d of %d vertices" % (len(c), n))
    return tuple(c)


def positive_wrt(r, order):
    """True iff the elementary root r is positive for the path system with
    vertex order `order` (the +1 vertex comes before the -1 vertex)."""
    a, b = elementary_support(r)
    pos = {v: i for i, v in enumerate(order)}
    return pos[a] < pos[b]


def expand_in_path_system(r, order):
    """Coefficients of r over the path-system roots e_{c_i} - e_{c_{i+1}};
    RootError when r is not a lattice root or `order` misses a coordinate."""
    if sum(r) != 0:
        raise RootError("not in the root lattice: %r" % (r,))
    # partial sums along the path invert the edge basis
    coeffs = []
    run = 0
    for v in order[:-1]:
        run += r[v - 1]
        coeffs.append(run)
    if run + r[order[-1] - 1] != 0:
        raise RootError("the order %r does not cover the support of %r" % (order, r))
    return tuple(coeffs)
