"""Slow independent oracles for the tests.

`exhaustive_candidates` enumerates every admissible assignment of changes
and `exhaustive_solutions` keeps the ones the checker certifies; both are
exponential in p and meant for n <= 20, where they cross-check the rule
engine of `slicebuild.construct` and the checker itself.
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

from meanderslice import linalg, rootlab, verify
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


def exhaustive_candidates(td):
    """Every assignment of one admissible change per internal turning
    point, certified or not: ChangeLedger objects with `beta_prime` set,
    in deterministic order."""
    betas = td.betas
    internal = list(td.positions[1:-1])
    options = [_change_options(td, t) for t in internal]
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
        yield ChangeLedger(
            entries=entries,
            chi={},
            undecided=(None, "search"),
            beta_prime=tuple(beta_prime),
        )


def exhaustive_solutions(td):
    """Every certified assignment of one admissible change per internal
    turning point, with the repair step applied when only condition (c)
    fails.  Returns a list of ChangeLedger objects, each with
    `beta_final` set, in deterministic order."""
    out = []
    for ledger in exhaustive_candidates(td):
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


# ------------------------------------------------------- graded skew form


def dict_parabolic_basis(pair):
    """The basis of the truncated two-block parabolic in the library's
    order, one sparse dict (row, col) -> coeff per element: the off-diagonal
    units and the differences E_ii - E_(i+1)(i+1) of each diagonal block,
    then the lower-left corner block."""
    p, n = pair.p, pair.n
    basis = []
    for lo, hi in ((1, p), (p + 1, n)):
        for i in range(lo, hi + 1):
            for j in range(lo, hi + 1):
                if i != j:
                    basis.append({(i, j): 1})
        for i in range(lo, hi):
            basis.append({(i, i): 1, (i + 1, i + 1): -1})
    for i in range(p + 1, n + 1):
        for j in range(1, p + 1):
            basis.append({(i, j): 1})
    return basis


def _dict_form_row(b, index, position, diagonal):
    """Row {k: S_jk} of the skew form for the dict basis element b = b_j:
    [eta, E_cd] has +1 at (a, d) for each entry (a, c) of eta and -1 at
    (c, e) for each entry (d, e); its (x, y) entry pairs with E_yx, and a
    diagonal (x, x) entry with E_xx - E_(x+1)(x+1) and, negated, with
    E_(x-1)(x-1) - E_xx."""
    by_row, by_col = index
    row = {}

    def add(x, y, v):
        if x != y:
            targets = ((position.get((y, x)), v),)
        else:
            targets = ((diagonal.get(x), v), (diagonal.get(x - 1), -v))
        for k, w in targets:
            if k is not None:
                row[k] = row.get(k, 0) + w

    for (c, d), coeff in b.items():
        for a in by_col.get(c, ()):
            add(a, d, coeff)
        for e in by_row.get(d, ()):
            add(c, e, -coeff)
    return {k: v for k, v in row.items() if v}


def dense_block_rank(rows):
    """Bareiss rank of sparse rows {column: value}, written out densely over
    their columns: the exact rank with no modular step."""
    rows = list(rows)
    cols = sorted({k for row in rows for k in row})
    return linalg.rank_int([[row.get(k, 0) for k in cols] for row in rows])


def dict_graded_form(ap):
    """(weights, blocks, ranks) of the graded skew form of the adapted pair
    `ap`, built with dicts throughout: one dict per basis element, a dict
    from (i, j) to the index of E_ij and one row at a time.  Blocks are
    keyed by row weight; every block is ranked on its own modulo 2^31 - 1,
    and the form is alternating, so its rank is even: a sum of d - 1 (d is
    odd) makes every modular rank exact.  Otherwise every block is ranked
    with `dense_block_rank`."""
    basis = dict_parabolic_basis(ap.pair)
    position, diagonal, weights = {}, {}, []
    for k, b in enumerate(basis):
        if len(b) == 1:
            ((i, j),) = b
            position[(i, j)] = k
            weights.append(ap.h[i - 1] - ap.h[j - 1])
        else:
            diagonal[min(i for i, _ in b)] = k
            weights.append(0)
    by_row, by_col = {}, {}
    for a, b in ap.eta_support:
        by_row.setdefault(a, []).append(b)
        by_col.setdefault(b, []).append(a)
    blocks = {}
    for j, b in enumerate(basis):
        row = _dict_form_row(b, (by_row, by_col), position, diagonal)
        if row:
            blocks.setdefault(weights[j], {})[j] = row
    ranks = {
        lam: linalg.rank_mod_prime(rows.values(), verify._PRIME) for lam, rows in blocks.items()
    }
    if sum(ranks.values()) != len(basis) - len(basis) % 2:
        ranks = {lam: dense_block_rank(rows.values()) for lam, rows in blocks.items()}
    return tuple(weights), blocks, ranks
