"""Exact arithmetic for the roots of sl(n), type A.

Every root of sl(n) is e_a - e_b for some a != b in 1..n, and is stored as
the pair (a, b) of its endpoints, so each operation here costs O(1) whatever
n is.  A sum or difference that is not a root is None.  The simple roots
are a_i = (i, i + 1).  All indices in the public interface are 1-based.

Dense coordinate tuples over e_1..e_n appear only at the report boundary,
through `dense`.
"""

from __future__ import annotations


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
    """The root e_a - e_b of sl(n), checked against 1..n."""
    if a == b:
        raise RootError("zero vector is not a root: a == b == %d" % a)
    if not (1 <= a <= n and 1 <= b <= n):
        raise RootError("indices (%d,%d) out of range 1..%d" % (a, b, n))
    return a, b


def is_root(r, n):
    """True iff r is a root (a, b) of sl(n): a != b, both in 1..n."""
    return r is not None and r[0] != r[1] and 1 <= r[0] <= n and 1 <= r[1] <= n


def dense(r, n):
    """The root r as its n coordinates over e_1..e_n, for reports only."""
    coords = [0] * n
    coords[r[0] - 1] = 1
    coords[r[1] - 1] = -1
    return tuple(coords)


def neg(r):
    return r[1], r[0]


def scale(k, r):
    """k r for k = +-1; any other multiple of a root is not a root."""
    if k == 1:
        return r
    if k == -1:
        return r[1], r[0]
    raise RootError("%d times a root is not a root" % k)


def add(r, s):
    """r + s when it is a root, otherwise None: (a, b) + (b, d) = (a, d)."""
    (a, b), (c, d) = r, s
    if b == c and a != d:
        return a, d
    if d == a and c != b:
        return c, b
    return None


def sub(r, s):
    """r - s when it is a root, otherwise None."""
    return add(r, (s[1], s[0]))


def alpha_p_coefficient(r, p):
    """Coefficient of a_p when r is written over the simple roots: the
    endpoint a of e_a - e_b counts +1 and b counts -1 when at most p."""
    if p < 1:
        raise RootError("no simple root a_%d" % p)
    return (r[0] <= p) - (r[1] <= p)


def kostant_cascade(n):
    """The nested hooks e_i - e_{n+1-i}, the maximal set of pairwise
    strongly orthogonal positive roots of sl(n)."""
    if n < 2:
        raise RootError("sl(%d) has no roots" % n)
    return frozenset(eps_diff(i, n + 1 - i, n) for i in range(1, n // 2 + 1))


def levi_cascade(p, q):
    """Negated cascades of the two diagonal blocks sl(p) x sl(q) inside
    sl(p+q), expressed in the ambient indices."""
    n = p + q
    out = set()
    for i in range(1, p // 2 + 1):
        out.add(eps_diff(p + 1 - i, i, n))
    for i in range(1, q // 2 + 1):
        out.add(eps_diff(p + (q + 1 - i), p + i, n))
    return frozenset(out)


def validate_path_system(roots, n):
    """Check that `roots` lists the edges of a directed Hamiltonian path
    on 1..n.

    Each root e_a - e_b is read as an edge a -> b.  On success returns the
    path order c_1..c_n (so roots, reordered, are e_{c_i} - e_{c_{i+1}};
    the input order itself is not required to follow the path).
    """
    m = len(roots)
    if m != n - 1 or m == 0:
        raise PathSystemError("count", "expected %d roots, got %d" % (n - 1, m))
    succ = {}
    pred = {}
    for r in roots:
        if not is_root(r, n):
            raise PathSystemError("non-elementary", "not a root of sl(%d): %r" % (n, r))
        a, b = r
        if a in succ or b in pred:
            raise PathSystemError("branching", "vertex with degree > 1 at edge %d->%d" % (a, b))
        succ[a] = b
        pred[b] = a
    starts = [v for v in succ if v not in pred]
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


def path_positions(order):
    """Vertex -> 1-based position along the path `order`: the position
    map of `positive_wrt` and `expand_in_path_system`."""
    return {v: i for i, v in enumerate(order, 1)}


def positive_wrt(r, pos):
    """True iff the root r is positive for the path system with position
    map `pos` (the +1 vertex comes before the -1 vertex)."""
    return pos[r[0]] < pos[r[1]]


def expand_in_path_system(r, pos):
    """The interval (lo, hi, sign) of r over the path-system roots
    e_{c_i} - e_{c_{i+1}}, with `pos` the position map of the path c: its
    endpoints sit at positions lo < hi, and r is sign times the sum of the
    roots lo..hi-1.  RootError when r is not a root or `pos` misses an
    endpoint."""
    if r is None:
        raise RootError("not a root")
    try:
        i, j = pos[r[0]], pos[r[1]]
    except KeyError:
        raise RootError("the path does not cover the support of %r" % (r,)) from None
    return (i, j, 1) if i < j else (j, i, -1)
