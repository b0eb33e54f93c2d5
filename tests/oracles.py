"""Slow independent oracles for the tests.

`exhaustive_solutions` enumerates every admissible assignment of changes
and certifies each one; it is exponential in p and meant for n <= 12,
where it cross-checks the rule engine of `slicebuild.construct`.
`support_matrix` turns a support of roots back into the dense 0/1 matrix
for the dense rank oracles.  `turning_set_sign_flip` finds the turning
values from the two involutions, independently of the closed form that
`meander.turning_data` uses.

The library stores a root e_a - e_b as the pair (a, b).  `dense` writes it
out as n coordinates over e_1..e_n, and the dense helpers below do the
arithmetic the pairs replace, coordinate by coordinate, so the tests can
compare the two.
"""

from itertools import accumulate, product

from meanderslice import linalg, rootlab
from meanderslice.meander import sigma, tau
from meanderslice.slicebuild import (
    ChangeEntry,
    ChangeLedger,
    ConstructionRuleError,
    check_conditions,
    exceptional_fix,
    interval_value,
)


def _change_options(td, t):
    """Admissible single changes at the internal turning position t.

    Either boundary value (never a nil one) may change, by adding an
    interval value reaching an odd number of turning steps away on the
    opposite side, provided the signed result is elementary with p-th
    coefficient -1.  Sorted for deterministic enumeration.
    """
    p = td.pair.p
    betas = td.betas
    ti = td.positions.index(t)
    opts = []
    for idx in (t - 1, t):
        if not 1 <= idx <= td.pair.n - 1 or td.nil[idx - 1]:
            continue
        if idx == t - 1:
            spans = [(t, f) for f in td.positions[ti + 1 :: 2]]
        else:
            spans = [(f, t) for f in td.positions[ti - 1 :: -2]]
        for span in spans:
            newv = rootlab.add(betas[idx - 1], interval_value(td, *span))
            if newv is None:
                continue
            if rootlab.alpha_p_coefficient(rootlab.scale(td.eps[idx - 1], newv), p) == -1:
                opts.append((idx, span))
    opts.sort()
    return opts


def exhaustive_solutions(td):
    """Every certified assignment of one admissible change per internal
    turning point, with the repair step applied when only condition (c)
    fails.  Returns a list of ChangeLedger objects, each with
    `beta_final` set, in deterministic order."""
    betas = td.betas
    internal = list(td.positions[1:-1])
    options = [_change_options(td, t) for t in internal]
    out = []
    for combo in product(*options):
        idxs = [idx for idx, _ in combo]
        if len(set(idxs)) != len(idxs):
            continue
        entries = {}
        beta_prime = list(betas)
        for idx, span in combo:
            iv = interval_value(td, *span)
            beta_prime[idx - 1] = rootlab.add(betas[idx - 1], iv)
            entries[idx] = ChangeEntry(index=idx, span=span, case="search", added=iv)
        ledger = ChangeLedger(
            entries=entries,
            chi={},
            undecided=(None, "search"),
            beta_prime=tuple(beta_prime),
        )
        res = check_conditions(td, ledger.beta_prime)
        if res["a"] and res["b"] and res["d"] and not res["c"]:
            try:
                fixes, beta_final = exceptional_fix(td, ledger)
            except ConstructionRuleError:
                continue
            res2 = check_conditions(td, beta_final)
            if res2["ok"]:
                ledger.fix_entries = fixes
                ledger.beta_final = beta_final
                out.append(ledger)
        elif res["ok"]:
            ledger.beta_final = ledger.beta_prime
            out.append(ledger)
    return out


def turning_set_sign_flip(pair):
    """Orbit values v where v - sigma(v) and v - tau(v) have opposite
    signs, end points (one difference zero) included."""
    p, n = pair.p, pair.n
    out = set()
    for v in range(1, n + 1):
        ds = v - sigma(v, n)
        dt = v - tau(v, p, n)
        if ds == 0 or dt == 0 or (ds > 0) != (dt > 0):
            out.add(v)
    return frozenset(out)


def support_matrix(support, n):
    """The n x n integer matrix with a 1 at (a, b) for every root
    e_a - e_b of `support`."""
    m = linalg.zeros(n, n)
    for a, b in support:
        m[a - 1][b - 1] += 1
    return m


# ------------------------------------------------------- dense roots


def dense(r, n):
    """The root (a, b) as the coordinate tuple of e_a - e_b over e_1..e_n."""
    a, b = r
    return tuple((i == a) - (i == b) for i in range(1, n + 1))


def dense_root(x):
    """(a, b) when the coordinate tuple x is e_a - e_b, otherwise None."""
    x = tuple(x)
    if sorted(x) != [-1] + [0] * (len(x) - 2) + [1]:
        return None
    return x.index(1) + 1, x.index(-1) + 1


def dense_add(x, y):
    return tuple(u + v for u, v in zip(x, y, strict=True))


def dense_scale(k, x):
    return tuple(k * u for u in x)


def dot(x, y):
    return sum(u * v for u, v in zip(x, y, strict=True))


def to_simple_coords(x):
    """Coefficients over the simple roots a_1..a_{n-1} (prefix sums)."""
    if sum(x) != 0:
        raise ValueError("not in the root lattice: %r" % (x,))
    return tuple(accumulate(x[:-1]))


def from_simple_coords(k):
    """Inverse of to_simple_coords; k has length n-1."""
    prev = 0
    coords = []
    for cur in k:
        coords.append(cur - prev)
        prev = cur
    coords.append(-prev)
    return tuple(coords)


def dense_expansion(x, order):
    """Coefficients of x over the path roots e_{c_i} - e_{c_{i+1}}: the
    partial sums of x along the path."""
    return tuple(accumulate(x[v - 1] for v in order[:-1]))
